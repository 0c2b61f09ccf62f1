"""Output checker: recomputes the CLI's outputs from the generated prices.csv.

The oracle is plain NumPy (np.corrcoef, eigvalsh, pinv) written from the
definitions in the README; it never imports marketgap, so a defect in the
package cannot hide itself. A printed number agrees with the oracle when it
is within half a unit of its 9th significant digit (the CLI writes `.9g`),
plus a small slack for rounding in the oracle's own arithmetic.

Gap rows of windows with at most FULL_CHECK_MAX_ASSETS assets are all recomputed; larger
ones (the 1500-asset panel) are checked on a seeded sample of rows.
"""
from __future__ import annotations

import itertools
import json
import math
import random
import re
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FULL_CHECK_MAX_ASSETS = 128
SAMPLE_ROWS = 3
REL_SLACK = 1e-10
ABS_SLACK = 1e-13

GAP_COLUMNS = ("end_date,n_assets,lambda_max,lambda_norm,rho_signed,rho_abs,delta,"
               "mp_lower,mp_upper,n_above_mp").split(",")
HEATMAP_COLUMNS = "sector,month,mean_lambda_norm,window_count".split(",")
ENTROPY_COLUMNS = "date,n_stocks,H_ord_nats,p0,p1,p2,p3,p4,p5".split(",")
OBS_COLUMNS = "market,window_end,delta,rho_bar,sigma_hist,sigma_mvp,sigma_ew,tickers".split(",")
# Ordinal pattern id = rank of the sorting permutation in lexicographic order.
PATTERN_ID = {perm: i for i, perm in enumerate(itertools.permutations(range(3)))}


class CheckFailure(Exception):
    pass


def agrees(printed: float, oracle: float) -> bool:
    """True when `printed` is `oracle` written with 9 significant digits."""
    scale = max(abs(printed), abs(oracle))
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(scale)) - 8) if scale > 0 else 0.0
    return abs(printed - oracle) <= half_unit + REL_SLACK * abs(oracle) + ABS_SLACK


def slug(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", label)


def read_table(path: Path, columns: list[str]) -> list[list[str]]:
    """Rows of a CLI CSV: a `# units:` line, the header, then data rows."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if not lines[0].startswith("# units:"):
        raise CheckFailure(f"{path.name}: missing units line")
    if lines[1].split(",") != columns:
        raise CheckFailure(f"{path.name}: header {lines[1]!r}")
    if lines[-1] != "":
        raise CheckFailure(f"{path.name}: last line not terminated")
    rows = [line.split(",") for line in lines[2:-1]]
    for n, row in enumerate(rows, start=3):
        if len(row) != len(columns):
            raise CheckFailure(f"{path.name}:{n}: {len(row)} fields, expected {len(columns)}")
    return rows


@dataclass
class Prices:
    """prices.csv and meta.csv as a dates x tickers matrix with NaN for gaps."""

    dates: list[str]
    tickers: list[str]
    close: np.ndarray
    sector: dict[str, str]
    market: dict[str, str]

    def markets(self) -> list[str]:
        return sorted(set(self.market.values()))

    def members(self, market: str, sector: str | None = None) -> list[str]:
        return [t for t in self.tickers if self.market[t] == market
                and (sector is None or self.sector[t] == sector)]

    def returns(self, members: list[str]) -> tuple[list[str], np.ndarray]:
        """Log returns of `members` on the dates where any of them traded."""
        cols = [self.tickers.index(t) for t in members]
        p = self.close[:, cols]
        keep = np.isfinite(p).any(axis=1)
        p = p[keep]
        dates = [d for d, k in zip(self.dates, keep) if k]
        return dates[1:], np.diff(np.log(p), axis=0)


def load_prices(inputs: Path) -> Prices:
    with open(inputs / "prices.csv", encoding="utf-8") as fh:
        if fh.readline().strip() != "date,ticker,close":
            raise CheckFailure("prices.csv: unexpected header")
        fields = fh.read().replace("\n", ",").split(",")
    if len(fields) % 3 != 1 or fields[-1] != "":
        raise CheckFailure("prices.csv: rows are not date,ticker,close")
    day, name, value = fields[0:-1:3], fields[1::3], fields[2::3]
    dates, tickers = sorted(set(day)), sorted(set(name))
    date_idx = {d: i for i, d in enumerate(dates)}
    ticker_idx = {t: j for j, t in enumerate(tickers)}
    close = np.full((len(dates), len(tickers)), np.nan)
    close[np.fromiter(map(date_idx.__getitem__, day), np.intp, len(day)),
          np.fromiter(map(ticker_idx.__getitem__, name), np.intp, len(name))] = np.array(
        value, dtype=float)
    sector, market = {}, {}
    with open(inputs / "meta.csv", encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            if line.strip():
                t, s, m = line.rstrip("\n").split(",")
                sector[t], market[t] = s, m
    return Prices(dates, tickers, close, sector, market)


def window_spectrum(r: np.ndarray, end: int, window: int) -> dict:
    """Gap-series fields of the window of returns rows [end - window, end)."""
    block = r[end - window:end]
    keep = np.isfinite(block).all(axis=0) & (block.std(axis=0) > 0)
    c = np.corrcoef(block[:, keep], rowvar=False)
    np.fill_diagonal(c, 1.0)
    n = c.shape[0]
    lam = np.linalg.eigvalsh(c)
    off = c[~np.eye(n, dtype=bool)]
    lam_norm = (lam[-1] - 1.0) / (n - 1.0)
    root = math.sqrt(n / window)
    return {
        "n_assets": n,
        "lambda_max": lam[-1],
        "lambda_norm": lam_norm,
        "rho_signed": off.mean(),
        "rho_abs": np.abs(off).mean(),
        "delta": lam_norm - off.mean(),
        "mp_lower": (1.0 - root) ** 2,
        "mp_upper": (1.0 + root) ** 2,
        "n_above_mp": int(np.count_nonzero(lam > (1.0 + root) ** 2)),
    }


class Checker:
    """Checks one command's outputs; `check` returns (errors, spectral windows)."""

    def __init__(self, inputs: Path, seed: int):
        self.prices = load_prices(inputs)
        self.rng = random.Random(seed)
        self._returns: dict = {}
        self._spectra: dict = {}

    def check(self, command) -> tuple[list[str], int]:
        checks = {"gap": self.gap, "heatmap": self.heatmap, "entropy": self.entropy,
                  "portfolio": self.portfolio}
        errors: list[str] = []
        try:
            windows = checks[command.label](Path(command.out_dir), command.params, errors)
        except (CheckFailure, OSError, ValueError, KeyError, IndexError) as exc:
            errors.append(f"{command.label}: {type(exc).__name__}: {exc}")
            windows = 0
        return errors, windows

    # ---------- shared oracle pieces ----------

    def group(self, market: str, sector: str | None = None):
        key = (market, sector)
        if key not in self._returns:
            self._returns[key] = self.prices.returns(self.prices.members(market, sector))
        return self._returns[key]

    def spectrum(self, key: tuple, end: int, window: int) -> dict:
        """Oracle gap fields of a (market, sector or None) group's window; heatmap reuses them."""
        if (key, end, window) not in self._spectra:
            self._spectra[key, end, window] = window_spectrum(self.group(*key)[1], end, window)
        return self._spectra[key, end, window]

    def rows_to_verify(self, rows: list, n_assets: int) -> list:
        if n_assets <= FULL_CHECK_MAX_ASSETS or len(rows) <= SAMPLE_ROWS:
            return rows
        return self.rng.sample(rows, SAMPLE_ROWS)

    def sectors(self, market: str) -> list[str]:
        return sorted({self.prices.sector[t] for t in self.prices.members(market)})

    # ---------- per-command checks ----------

    def gap(self, out: Path, params: dict, errors: list[str]) -> int:
        window, step = params["window"], params["step"]
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        windows = 0
        for market in self.prices.markets():
            n_dropped = summary["markets"][market]["n_dropped_windows"]
            groups = [(market, None)] + [(market, s) for s in self.sectors(market)]
            for key in groups:
                name = "_".join(slug(k) for k in key if k is not None)
                rows = read_table(out / f"gap_{name}.csv", GAP_COLUMNS)
                windows += len(rows)
                self._gap_rows(f"gap_{name}.csv", rows, key, window, step,
                               n_dropped if key[1] is None else None, errors)
                if key[1] is None:
                    self._gap_jsonl(out / f"gap_{name}.jsonl", rows, errors)
        return windows

    def _gap_rows(self, fname, rows, key, window, step, n_dropped, errors) -> None:
        dates, r = self.group(*key)
        ends = {dates[e - 1]: e for e in range(window, len(dates) + 1, step)}
        if n_dropped is not None and len(rows) != len(ends) - n_dropped:
            errors.append(f"{fname}: {len(rows)} rows, expected {len(ends) - n_dropped}")
        if len(rows) > len(ends) or any(row[0] not in ends for row in rows):
            errors.append(f"{fname}: rows at dates that end no window")
            return
        for row in rows:
            if float(row[6]) < -1e-9:
                errors.append(f"{fname}: {row[0]}: signed delta {row[6]} < -1e-9")
        for row in self.rows_to_verify(rows, r.shape[1]):
            want = self.spectrum(key, ends[row[0]], window)
            for col, text in zip(GAP_COLUMNS[1:], row[1:]):
                got = float(text)
                exact = col in ("n_assets", "n_above_mp")
                if not (got == want[col] if exact else agrees(got, want[col])):
                    errors.append(f"{fname}: {row[0]}: {col} {text} vs oracle {want[col]!r}")

    def _gap_jsonl(self, path: Path, rows, errors) -> None:
        with open(path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        if len(records) != len(rows):
            errors.append(f"{path.name}: {len(records)} records, CSV has {len(rows)} rows")
            return
        for rec, row in zip(records, rows):
            if rec["end_date"] != row[0] or any(
                    rec[col] != float(text) for col, text in zip(GAP_COLUMNS[1:], row[1:])):
                errors.append(f"{path.name}: {rec['end_date']} differs from the CSV row")
                return

    def heatmap(self, out: Path, params: dict, errors: list[str]) -> int:
        window, step = params["window"], params["step"]
        windows = 0
        for market in self.prices.markets():
            fname = f"heatmap_{slug(market)}.csv"
            rows = read_table(out / fname, HEATMAP_COLUMNS)
            cells: dict = {}
            for sector in self.sectors(market):
                dates, _ = self.group(market, sector)
                for e in range(window, len(dates) + 1, step):
                    norm = self.spectrum((market, sector), e, window)["lambda_norm"]
                    cells.setdefault((sector, dates[e - 1][:7]), []).append(norm)
            months = sorted({m for _, m in cells})
            expected = [(s, m) for s in self.sectors(market) for m in months if (s, m) in cells]
            got = [(row[0], row[1]) for row in rows]
            if got != expected:
                errors.append(f"{fname}: cells {got[:3]}... differ from the windows' months")
                continue
            for row in rows:
                vals = cells[(row[0], row[1])]
                windows += int(row[3])
                if int(row[3]) != len(vals):
                    errors.append(f"{fname}: {row[0]} {row[1]}: count {row[3]} vs {len(vals)}")
                elif not agrees(float(row[2]), float(np.mean(vals))):
                    errors.append(f"{fname}: {row[0]} {row[1]}: mean {row[2]} vs "
                                  f"oracle {float(np.mean(vals))!r}")
        return windows

    def entropy(self, out: Path, params: dict, errors: list[str]) -> int:
        window, step = params["window"], params["step"]
        for market in self.prices.markets():
            fname = f"entropy_{slug(market)}.csv"
            rows = read_table(out / fname, ENTROPY_COLUMNS)
            dates, r = self.group(market)
            ends = list(range(window, len(dates) + 1, step))
            if [row[0] for row in rows] != [dates[e - 1] for e in ends]:
                errors.append(f"{fname}: {len(rows)} rows, expected {len(ends)} window end dates")
                continue
            for row, e in zip(rows, ends):
                triple = r[e - 3:e]
                triple = triple[:, np.isfinite(triple).all(axis=0)]
                order = np.argsort(triple, axis=0, kind="stable")
                counts = np.bincount([PATTERN_ID[tuple(col)] for col in order.T], minlength=6)
                p = counts / counts.sum()
                h = float(-(p[p > 0] * np.log(p[p > 0])).sum())
                got_p = [float(x) for x in row[3:]]
                if not -1e-12 <= float(row[2]) <= math.log(6) + 1e-9:
                    errors.append(f"{fname}: {row[0]}: entropy {row[2]} outside [0, ln 6]")
                if abs(sum(got_p) - 1.0) > 1e-8:
                    errors.append(f"{fname}: {row[0]}: probabilities sum to {sum(got_p)!r}")
                if int(row[1]) != triple.shape[1] or not agrees(float(row[2]), h) or not all(
                        agrees(g, w) for g, w in zip(got_p, p)):
                    errors.append(f"{fname}: {row[0]}: {','.join(row[1:])} vs oracle "
                                  f"n={triple.shape[1]} H={h!r} p={p.tolist()}")
            phases = json.loads((out / f"phases_{slug(market)}.json").read_text(encoding="utf-8"))
            if phases["phases"]["event_date"] != params["event_date"]:
                errors.append(f"phases_{slug(market)}.json: wrong event date")
        return 0

    def portfolio(self, out: Path, params: dict, errors: list[str]) -> int:
        f, h, n = params["formation"], params["test"], params["n_stocks"]
        n_port = params["portfolios"]
        scale = math.sqrt(params["annualization"]) * 100.0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        rows = read_table(out / "observations.csv", OBS_COLUMNS)
        by_window = defaultdict(list)
        for row in rows:
            by_window[(row[0], row[1])].append(row)
        attempted = 0
        for market in self.prices.markets():
            dates, r = self.group(market)
            starts = range(0, len(dates) - f - h + 1, h)
            info = report["markets"][market]
            skipped = info["skipped_portfolios"]
            expected = (len(starts) - len(info["skipped_windows"])) * n_port - skipped
            got = sum(len(v) for k, v in by_window.items() if k[0] == market)
            attempted += got + skipped
            if got != expected:
                errors.append(f"observations.csv: {market}: {got} rows, expected "
                              f"{len(starts)} windows x {n_port} - skipped = {expected}")
            col = {t: j for j, t in enumerate(self.prices.members(market))}
            for start in starts:
                end = dates[start + f - 1]
                group = by_window.pop((market, end), [])
                if group:
                    self._portfolio_rows(group, r, col, start, f, h, n, scale, errors)
        if by_window:
            errors.append(f"observations.csv: rows at unknown windows {sorted(by_window)[:3]}")
        return attempted

    def _portfolio_rows(self, rows, r, col, start, f, h, n, scale, errors) -> None:
        picks = np.array([[col[t] for t in row[7].split(";")] for row in rows])
        if picks.shape[1] != n or any(len(set(p)) != n for p in picks.tolist()):
            errors.append(f"observations.csv: {rows[0][1]}: a row lacks {n} distinct tickers")
            return
        x = np.moveaxis(r[start:start + f][:, picks], 0, -1)  # (P, n, f)
        y = np.moveaxis(r[start + f:start + f + h][:, picks], 0, -1)  # (P, n, h)
        xc = x - x.mean(axis=-1, keepdims=True)
        cov = xc @ np.swapaxes(xc, -1, -2) / f
        sd = np.sqrt(np.diagonal(cov, axis1=-2, axis2=-1))
        corr = cov / (sd[:, :, None] * sd[:, None, :])
        lam = np.linalg.eigvalsh(corr)[:, -1]
        rho_bar = (corr.sum(axis=(-1, -2)) - n) / (n * (n - 1))
        inv = np.linalg.pinv(cov, rcond=1e-10)
        q_mvp = inv.sum(axis=-1) / inv.sum(axis=(-1, -2))[:, None]
        want = {
            "delta": (lam - 1.0) / (n - 1.0) - rho_bar,
            "rho_bar": rho_bar,
            "sigma_hist": x.mean(axis=1).std(axis=-1) * scale,
            "sigma_mvp": np.einsum("pn,pnh->ph", q_mvp, y).std(axis=-1, ddof=1) * scale,
            "sigma_ew": y.mean(axis=1).std(axis=-1, ddof=1) * scale,
        }
        for i, row in enumerate(rows):
            for j, name in enumerate(OBS_COLUMNS[2:7], start=2):
                if not agrees(float(row[j]), float(want[name][i])):
                    errors.append(f"observations.csv: {row[1]} {row[7]}: {name} {row[j]} "
                                  f"vs oracle {float(want[name][i])!r}")
