"""Command-line interface wiring ingestion, analyses, and reports into reproducible runs.

Every command is a pure function of (input files, flags, seed): identical
invocations write byte-identical outputs, and each run emits a manifest.json
(resolved config, input digests, seed, version, output list) from which
`marketgap rerun` reproduces the run.

Exit codes: 0 success, 2 usage, 3 data, 4 numeric.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import os
import re
import sys
from dataclasses import fields, is_dataclass
from datetime import date
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (DataError, MarketGapError, NumericError, UsageError, check_choice,
                     check_int)
from .ordinal import entropy_series
from .panel import (
    LAYOUTS,
    load_price_panel,
    log_returns,
    open_input,
    open_output,
    write_metadata,
    write_price_panel,
)
from .portfolio import StudyConfig, quintile_report, run_portfolio_study
from .regimes import (
    GapConfig,
    Interval,
    SegmentationParams,
    gap_series,
    monthly_sector_heatmap,
    phase_segmentation,
    phase_statistics,
)
from .spectral import NORM_MODES, RHO_MODES
from .synth import (
    generate_factor_panel,
    load_scenario_json,
    one_factor_config,
    risk_study_scenario,
    three_phase_config,
    three_phase_scenario,
)

# ---------- Output format ----------
#
# Every table is a `# units:` line, a header line and one comma-joined row per
# record, and every JSON report is its results' own fields (`_json`). A
# computed float keeps 9 significant digits and a date is ISO-8601; a config
# echo (the manifest's `config`, the report's `study`) is written verbatim.

GAP_CSV_UNITS = (
    "# units: end_date=ISO-8601 date, n_assets=count, lambda_max=dimensionless, "
    "lambda_norm=dimensionless, rho_signed=dimensionless, rho_abs=dimensionless, "
    "delta=dimensionless, mp_lower=dimensionless, mp_upper=dimensionless, n_above_mp=count"
)
GAP_CSV_HEADER = (
    "end_date,n_assets,lambda_max,lambda_norm,rho_signed,rho_abs,delta,"
    "mp_lower,mp_upper,n_above_mp"
)
ENTROPY_CSV_UNITS = (
    "# units: date=ISO-8601 date, n_stocks=count, H_ord_nats=nats, "
    "p0..p5=probability (dimensionless)"
)
ENTROPY_CSV_HEADER = "date,n_stocks,H_ord_nats,p0,p1,p2,p3,p4,p5"
HEATMAP_CSV_UNITS = (
    "# units: sector=label, month=YYYY-MM, mean_lambda_norm=dimensionless, window_count=count"
)
HEATMAP_CSV_HEADER = "sector,month,mean_lambda_norm,window_count"
OBS_CSV_UNITS = (
    "# units: market=label, window_end=ISO-8601 date, delta=dimensionless, "
    "rho_bar=dimensionless, sigma_hist=% annualized, sigma_mvp=% annualized, "
    "sigma_ew=% annualized, tickers=semicolon-joined labels"
)
OBS_CSV_HEADER = "market,window_end,delta,rho_bar,sigma_hist,sigma_mvp,sigma_ew,tickers"


def _cell(x) -> str:
    """A float (NumPy float64 too) to 9 significant digits, a date to ISO-8601."""
    if isinstance(x, float):
        return format(x, ".9g")
    if isinstance(x, date):
        return x.isoformat()
    return str(x)


def _json(x, path: str = ""):
    """A result as JSON by the _cell rule: a dataclass or NamedTuple becomes an object of
    its fields, a dict an object of its converted values, a tuple or list an array, a
    float a number of 9 significant digits, a date an ISO-8601 string and a NumPy integer
    an int; None, bools, ints and labels pass. JSON has no NaN or infinity, so a
    non-finite float is a NumericError naming its `path` of keys and indices."""
    if isinstance(x, float):
        if not math.isfinite(x):
            raise NumericError(f"{path or 'a value'} is {x}, which JSON cannot hold")
        return float(_cell(x))
    if isinstance(x, date):
        return _cell(x)
    if isinstance(x, dict):
        items = x.items()
    elif is_dataclass(x):
        items = ((f.name, getattr(x, f.name)) for f in fields(x))
    elif hasattr(x, "_fields"):  # a NamedTuple
        items = zip(x._fields, x)
    elif isinstance(x, (tuple, list)):
        return [_json(value, f"{path}[{i}]") for i, value in enumerate(x)]
    else:
        return int(x) if isinstance(x, np.integer) else x
    return {key: _json(value, f"{path}.{key}" if path else key) for key, value in items}


# `_observation_lines` turns this many observations at a time into Python
# objects, about 0.3 MB of them. On the risk-study preset (seed 9, 18000
# observations) slices of 4096 rows peaked 1.0 MB higher in RSS.
_OBS_SLICE = 1024


def _observation_lines(obs):
    """The OBS_CSV_HEADER line of each observation, by the _cell rule (str(date) is ISO);
    the columns are read in slices of _OBS_SLICE rows, so the lines stream."""
    keys = OBS_CSV_HEADER.split(",")[1:-1]
    for lo in range(0, len(obs), _OBS_SLICE):
        rows = slice(lo, lo + _OBS_SLICE)
        tickers = (";".join(map(obs.tickers.__getitem__, row)) for row in obs.picks[rows].tolist())
        columns = (getattr(obs, key)[rows].tolist() for key in keys)
        for end, delta, rho_bar, hist, mvp, ew, names in zip(*columns, tickers):
            yield (f"{obs.market},{end},{delta:.9g},{rho_bar:.9g},{hist:.9g},{mvp:.9g},"
                   f"{ew:.9g},{names}")


def _gap_rows(series) -> list[tuple]:
    """The GAP_CSV_HEADER fields of each window of a gap series; its columns after the
    end date share their names, and `.tolist()` makes their entries Python numbers."""
    columns = (getattr(series, key).tolist() for key in GAP_CSV_HEADER.split(",")[1:])
    return list(zip(series.dates, *columns))


def _gap_json_lines(series):
    """The JSON record of each window of a gap series, with its rho and norm modes."""
    keys = GAP_CSV_HEADER.split(",")
    modes = {"rho_mode": series.config.rho_mode, "norm_mode": series.config.norm_mode}
    for row in _gap_rows(series):
        yield json.dumps(dict(zip(keys, _json(row)), **modes), sort_keys=True)


# ---------- Helpers and the run skeleton ----------

# Files below this many bytes are hashed by CPython's built-in SHA-256, larger ones
# by hashlib's OpenSSL. The built-in costs 6.3 ns/B (27 MiB in 0.170 s; 1.2 MB in
# 8.1 ms with its import). OpenSSL costs 0.8 ns/B (27 MiB in 0.021 s), but its
# import takes 6.7 ms and maps 3.57 MB of RSS onto the process's peak. At this cut
# the built-in spends at most about 16 ms more to keep those 3.57 MB unmapped.
_BUILTIN_SHA256_BELOW = 4 << 20


def _sha256(path) -> str:
    """The hex SHA-256 digest of a file; one that cannot be opened is a DataError.

    Either implementation gives the same digest. hashlib, imported only for a file
    at or above the cut or where CPython lacks the built-in module, loads once a
    run's results are gone (see `_run_markets`), or as `rerun` checks its inputs.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"{path}: cannot open: {exc.strerror}") from exc
    with fh:
        sha256 = None
        if os.fstat(fh.fileno()).st_size < _BUILTIN_SHA256_BELOW:
            try:
                from _sha2 import sha256  # CPython 3.12 on
            except ImportError:
                try:
                    from _sha256 import sha256  # CPython 3.10 and 3.11
                except ImportError:
                    pass
        if sha256 is None:
            import hashlib

            sha256 = hashlib.sha256
        h = sha256()
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _file_names(kind: str, labels) -> dict:
    """The file-name part of each output label, a (market,) or (market, sector) tuple:
    its parts joined by "_", each run of characters other than A-Za-z0-9_.- in them
    made one "_". Two labels of one name would write one file, so they raise a
    DataError naming both; `_run_markets` checks the names before the first compute."""
    names, owners = {}, {}
    for label in labels:
        name = "_".join(re.sub(r"[^A-Za-z0-9_.-]+", "_", part) for part in label)
        owner = owners.setdefault(name, label)
        if owner != label:
            first, second = (f"market {m[0]!r}" if len(m) == 1
                             else f"sector {m[1]!r} of market {m[0]!r}" for m in (owner, label))
            raise DataError(f"{first} and {second} would both write {kind}_{name}.csv; "
                            "relabel one")
        names[label] = name
    return names


# The config keys that name input files.
_INPUT_KEYS = ("prices", "meta", "scenario")


def _input_paths(config: dict) -> dict:
    """The input files a run reads: its set `prices`, `meta` and `scenario` paths, by key."""
    return {key: str(config[key]) for key in _INPUT_KEYS if config.get(key)}


def _config_date(config: dict, key: str) -> date | None:
    """The date under `key`, or None; a flag or manifest value that is no ISO date exits 2."""
    text = config.get(key)
    if not text:
        return None
    try:
        return date.fromisoformat(text)
    except (TypeError, ValueError):
        flag = "--" + key.replace("_", "-")
        raise UsageError(f"{flag} {text!r} is not an ISO date (YYYY-MM-DD)") from None


class _OutDir:
    """A run's --out-dir, created on construction, and the name of every file written
    into it; those names are the manifest's `outputs`. A directory that cannot be
    created, and an output that cannot be opened, is a DataError naming it."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise DataError(f"{root}: cannot create: {exc.strerror}") from exc
        self.names: list[str] = []

    def path(self, name: str) -> Path:
        """The path of output `name`, recorded as written."""
        self.names.append(name)
        return self.root / name

    def lines(self, name: str, lines) -> None:
        with open_output(self.path(name), "w", encoding="utf-8") as fh:
            fh.writelines(f"{line}\n" for line in lines)

    def table(self, name: str, units: str, header: str, rows) -> None:
        self.lines(name, chain([units, header], (",".join(map(_cell, row)) for row in rows)))

    def json(self, name: str, obj) -> None:
        self.lines(name, [json.dumps(obj, sort_keys=True, indent=2)])

    def manifest(self, command: str, config: dict) -> None:
        self.json("manifest.json", {
            "command": command,
            "version": __version__,
            "seed": config.get("seed"),
            "config": config,
            "inputs": {path: _sha256(path) for path in _input_paths(config).values()},
            "outputs": sorted(self.names),
        })


def _run_markets(command: str, config: dict, compute, write, files: bool = True,
                 sectors: bool = False) -> None:
    """Check the layout, create --out-dir, load the panel, form every market's log returns
    and drop the price grid. A command that writes `files` per market names them by the
    market, and by each of its sectors too if `sectors`; those names (`_file_names`) are
    checked before `compute(market, stream, returns, sector_of)` runs on each market
    (0-based stream number). Only then `write(out, [(market, result), ...], names)`, and
    the manifest once the results are gone."""
    layout = config.get("layout", "long")
    check_choice("layout", layout, LAYOUTS)
    out = _OutDir(config["out_dir"])
    panel = load_price_panel(config["prices"], layout=layout, metadata=config.get("meta"))
    markets = [(market, log_returns(sub), sub.sector_of)
               for market, sub in ((m, panel.market_panel(m)) for m in panel.markets())]
    del panel
    # Each market's sectors are its sorted labels, as the kernels group them.
    names = _file_names(command, [(market,) for market, _, _ in markets] + [
        (market, sector) for market, _, sector_of in markets if sectors
        for sector in sorted(set(sector_of.values()))]) if files else {}
    results = []
    while markets:
        market, returns, sector_of = markets.pop(0)
        results.append((market, compute(market, len(results), returns, sector_of)))
    write(out, results, names)
    # The digest of an input at or above the cut maps OpenSSL; the results and the
    # last market's returns go first, so that map lands in a heap smaller than the
    # run's peak.
    del results, returns
    out.manifest(command, config)


# ---------- Commands ----------
#
# Each command builds its config objects, which check every argument, before
# it creates --out-dir or opens an input. `_run_markets` checks the file names
# (`_file_names`) before the first compute and computes every market before the
# first write, so a failed run leaves --out-dir empty.

def run_gap(config: dict) -> None:
    by_sector = config.get("by_sector", False)
    if not isinstance(by_sector, bool):  # a manifest's 0 or "false" is no flag value
        raise UsageError(f"by_sector must be true or false, got {by_sector!r}")
    if by_sector and config.get("meta") is None:
        raise UsageError("--by-sector requires --meta with sector labels")
    gap_cfg = GapConfig(
        window=config["window"],
        step=config["step"],
        rho_mode=config["rho_mode"],
        norm_mode=config["norm_mode"],
    )

    def compute(market, stream, returns, sector_of):
        return gap_series(returns, gap_cfg, sector_of if by_sector else None)

    def write(out, results, names):
        summary: dict = {"config": {
            "window": gap_cfg.window, "step": gap_cfg.step,
            "rho_mode": gap_cfg.rho_mode, "norm_mode": gap_cfg.norm_mode,
        }, "markets": {}}
        for market, series in results:
            name = names[market,]
            out.table(f"gap_{name}.csv", GAP_CSV_UNITS, GAP_CSV_HEADER, _gap_rows(series))
            out.lines(f"gap_{name}.jsonl", _gap_json_lines(series))
            delta = series.delta
            summary["markets"][market] = {
                "n_windows": delta.size,
                "n_dropped_windows": len(series.dropped),
                "delta_mean": delta.mean() if delta.size else None,
                "delta_min": delta.min() if delta.size else None,
                "delta_max": delta.max() if delta.size else None,
                "max_abs_delta": max(abs(delta.min()), abs(delta.max())) if delta.size else None,
                "lambda_norm_mean": series.lambda_norm.mean() if delta.size else None,
            }
            sectors = series.sectors
            if not sectors:
                continue
            for sector, sector_series in sectors.items():
                out.table(f"gap_{names[market, sector]}.csv", GAP_CSV_UNITS, GAP_CSV_HEADER,
                          _gap_rows(sector_series))
            summary["markets"][market]["sectors"] = {sector: {
                "n_windows": s.delta.size,
                "n_dropped_windows": len(s.dropped),
                "delta_mean": s.delta.mean() if s.delta.size else None,
            } for sector, s in sectors.items()}
        out.json("summary.json", _json(summary))

    _run_markets("gap", config, compute, write, sectors=by_sector)


def run_entropy(config: dict) -> None:
    event = _config_date(config, "event_date")
    start = _config_date(config, "stabilized_start")
    end = _config_date(config, "stabilized_end")
    if (start or end) and event is None:
        raise UsageError("--stabilized-start and --stabilized-end need --event-date")
    if bool(start) != bool(end):
        raise UsageError("--stabilized-start and --stabilized-end go together")
    if start and start > end:
        raise UsageError(f"--stabilized-start {start} is after --stabilized-end {end}")
    params = SegmentationParams(
        shock_halfwidth=config["shock_halfwidth"],
        threshold=config["entropy_threshold"],
        sustain_days=config["sustain_days"],
        stabilized=Interval(start, end) if start else None,
    )
    # The entropy series shares the gap series' window grid and its rules.
    grid = GapConfig(window=config["window"], step=config["step"])

    def compute(market, stream, returns, sector_of):
        series = entropy_series(returns, length=grid.window, step=grid.step)
        if event is None:
            return series, None
        phases = phase_segmentation(series.dates, series.values, event, params=params)
        stats = phase_statistics(series.dates, series.values, phases)
        return series, {"phases": phases, "statistics": stats}

    def write(out, results, names):
        for market, (series, phase_doc) in results:
            name = names[market,]
            out.table(f"entropy_{name}.csv", ENTROPY_CSV_UNITS, ENTROPY_CSV_HEADER, (
                (d, series.n_stocks[i], series.values[i], *series.probabilities[i])
                for i, d in enumerate(series.dates)))
            if phase_doc is not None:
                out.json(f"phases_{name}.json", _json(phase_doc))

    _run_markets("entropy", config, compute, write)


def run_heatmap(config: dict) -> None:
    if config.get("meta") is None:
        raise UsageError("heatmap requires --meta with sector labels")
    # lambda_norm does not depend on the rho mode, so the heatmap takes none.
    gap_cfg = GapConfig(window=config["window"], step=config["step"],
                        norm_mode=config["norm_mode"])

    def compute(market, stream, returns, sector_of):
        return monthly_sector_heatmap(returns, sector_of, gap_cfg)

    def write(out, tables, names):
        for market, rows in tables:
            out.table(f"heatmap_{names[market,]}.csv", HEATMAP_CSV_UNITS, HEATMAP_CSV_HEADER,
                      rows)

    _run_markets("heatmap", config, compute, write)


def run_portfolio(config: dict) -> None:
    study_cfg = StudyConfig(
        formation=config["formation"],
        test=config["test"],
        n_stocks=config["n_stocks"],
        portfolios=config["portfolios"],
        annualization=config["annualization"],
        step=config.get("study_step"),
    )
    check_int("seed", config["seed"], 0)
    event = _config_date(config, "event_date")

    def compute(market, stream, returns, sector_of):
        result = run_portfolio_study(
            returns, study_cfg, seed=config["seed"], market=market, stream=stream
        )
        path = f"markets.{market}"
        report = _json(quintile_report(result.observations, event), path)
        report["skipped_windows"] = _json(result.skipped_windows, f"{path}.skipped_windows")
        report["skipped_portfolios"] = result.skipped_portfolios
        return result.observations, report

    def write(out, results, names):
        out.lines("observations.csv", chain([OBS_CSV_UNITS, OBS_CSV_HEADER], *(
            _observation_lines(obs) for _, (obs, _) in results)))
        out.json("report.json", {
            "study": {
                "formation": study_cfg.formation,
                "test": study_cfg.test,
                "n_stocks": study_cfg.n_stocks,
                "portfolios": study_cfg.portfolios,
                "annualization": study_cfg.annualization,
                "step": study_cfg.effective_step,
                "seed": config["seed"],
                "resampling": "per_window",
                "event_date": config.get("event_date"),
                "variance_convention": {
                    "formation_moments": "population (1/T)",
                    "test_window": "sample (1/(h-1))",
                },
            },
            "markets": {market: report for market, (_, report) in results},
        })

    _run_markets("portfolio", config, compute, write, files=False)


_PRESETS = ("three-phase", "risk-study", "one-factor")


def run_synth(config: dict) -> None:
    seed, scenario = config.get("seed"), config.get("scenario")
    if seed is not None:
        check_int("seed", seed, 0)
    preset = config.get("preset") or _PRESETS[0]
    if not scenario:
        check_choice("preset", preset, _PRESETS)
    # The panel is made before --out-dir is, so a faulty scenario file leaves none.
    truth = None
    seed_kwargs = {} if seed is None else {"seed": seed}
    if scenario:
        panel = generate_factor_panel(load_scenario_json(scenario, seed))
    elif preset == "three-phase":
        result = three_phase_scenario(three_phase_config(**seed_kwargs))
        panel, truth = result.panel, result.truth
    elif preset == "risk-study":
        panel, event = risk_study_scenario(**seed_kwargs)
        truth = {"event_date": event}
    else:
        panel = generate_factor_panel(one_factor_config(**seed_kwargs))
    out = _OutDir(config["out_dir"])
    write_price_panel(panel, out.path("prices.csv"))
    write_metadata(panel, out.path("meta.csv"))
    if truth is not None:
        out.json("truth.json", _json(truth))
    out.manifest("synth", config)


_RUNNERS = {
    "gap": run_gap,
    "entropy": run_entropy,
    "heatmap": run_heatmap,
    "portfolio": run_portfolio,
    "synth": run_synth,
}


def run_rerun(config: dict) -> None:
    path = config["manifest"]
    with open_input(path) as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise DataError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: a manifest must be a JSON object")
    for key in ("config", "inputs"):
        if not isinstance(manifest.get(key), dict):
            raise DataError(f"{path}: manifest {key} must be a JSON object")
    command = manifest.get("command")
    if not isinstance(command, str) or command not in _RUNNERS:
        raise DataError(f"{path}: manifest names unknown command {command!r}")
    # The settings a command reads are its subparser's destinations, but --out-dir.
    (commands,) = (action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    flags = commands[command]._actions
    missing = sorted({f.dest for f in flags} - {"help", "out_dir"} - set(manifest["config"]))
    if missing:
        raise UsageError(f"manifest config has no {', '.join(missing)} setting")
    # The command reads the config's paths, so they must be the ones whose digests were taken.
    inputs, read = manifest["inputs"], _input_paths(manifest["config"])
    for key, input_path in read.items():
        if input_path not in inputs:
            raise DataError(f"{path}: manifest config {key} {input_path} is not a recorded input "
                            f"({', '.join(inputs) or 'none'})")
    unread = sorted(inputs.keys() - read.values())
    if unread:
        raise DataError(f"{path}: manifest input {unread[0]} is read by no config setting")
    for input_path, recorded in inputs.items():
        if not Path(input_path).is_file():
            raise DataError(f"manifest input {input_path} is missing")
        if _sha256(input_path) != recorded:
            raise DataError(f"manifest input {input_path} changed since the run "
                            "(SHA-256 mismatch)")
    stored = dict(manifest["config"])
    stored["out_dir"] = config["out_dir"]
    _RUNNERS[command](stored)


# ---------- Argument parsing ----------

def _add_common_inputs(p: argparse.ArgumentParser, need_meta: bool = False) -> None:
    p.add_argument("--prices", required=True, help="close-price file")
    p.add_argument("--layout", choices=LAYOUTS, default="long",
                   help="price file layout (default long)")
    p.add_argument("--meta", required=need_meta, default=None,
                   help="ticker,sector,market metadata file")
    p.add_argument("--out-dir", required=True, help="output directory")


def _add_window_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window", type=int, default=GapConfig.window, help="rolling window length")
    p.add_argument("--step", type=int, default=GapConfig.step, help="rolling step")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marketgap",
        description="Rolling spectral market-structure analytics on daily price panels",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--log-level", choices=("debug", "info", "warning"),
                        default="warning", help="stderr log threshold (default warning)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gap", help="spectral gap time series per market")
    _add_common_inputs(p)
    _add_window_flags(p)
    p.add_argument("--rho-mode", choices=RHO_MODES, default=GapConfig.rho_mode,
                   help="mean off-diagonal (signed) or mean absolute correlation")
    p.add_argument("--norm-mode", choices=NORM_MODES, default=GapConfig.norm_mode,
                   help="leading-eigenvalue normalization")
    p.add_argument("--by-sector", action="store_true",
                   help="also emit intra-sector series (needs --meta)")

    p = sub.add_parser("entropy", help="cross-sectional ordinal entropy series")
    _add_common_inputs(p)
    _add_window_flags(p)
    p.add_argument("--event-date", default=None,
                   help="shock announcement date (enables phase segmentation)")
    p.add_argument("--shock-halfwidth", type=int, default=SegmentationParams.shock_halfwidth,
                   help="trading days on each side of the event (default %(default)s)")
    p.add_argument("--entropy-threshold", type=float, default=SegmentationParams.threshold,
                   help="sustained-restoration threshold in nats (default %(default)s)")
    p.add_argument("--sustain-days", type=int, default=SegmentationParams.sustain_days,
                   help="consecutive days above threshold (default %(default)s)")
    p.add_argument("--stabilized-start", default=None)
    p.add_argument("--stabilized-end", default=None)

    p = sub.add_parser("heatmap", help="monthly sector heatmap of lambda_norm")
    _add_common_inputs(p, need_meta=True)
    _add_window_flags(p)
    p.add_argument("--norm-mode", choices=NORM_MODES, default=GapConfig.norm_mode)

    p = sub.add_parser("portfolio", help="rolling Monte Carlo portfolio risk study")
    _add_common_inputs(p)
    p.add_argument("--formation", type=int, default=StudyConfig.formation,
                   help="formation window days")
    p.add_argument("--test", type=int, default=StudyConfig.test, help="test window days")
    p.add_argument("--n-stocks", type=int, default=StudyConfig.n_stocks,
                   help="stocks per portfolio")
    p.add_argument("--portfolios", type=int, default=StudyConfig.portfolios,
                   help="portfolios per window")
    p.add_argument("--annualization", type=float, default=StudyConfig.annualization,
                   help="trading days per year (default %(default)s)")
    p.add_argument("--study-step", type=int, default=StudyConfig.step,
                   help="days between windows (default: test length)")
    p.add_argument("--seed", type=int, required=True,
                   help="RNG seed (required for reproducibility)")
    p.add_argument("--event-date", default=None,
                   help="split subperiod statistics at this date")

    p = sub.add_parser("synth", help="generate a synthetic factor-model panel")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--scenario", default=None, help="scenario config JSON")
    group.add_argument("--preset", choices=_PRESETS, default=None,
                       help=f"built-in scenario (default {_PRESETS[0]})")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario seed")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("rerun", help="re-execute a run from its manifest")
    p.add_argument("--manifest", required=True, help="manifest.json of a previous run")
    p.add_argument("--out-dir", required=True)

    return parser


def _config_from_args(args: argparse.Namespace) -> dict:
    """The run config; input paths are made absolute so a manifest reruns from any directory.

    The log level is left out: it changes what stderr shows, never an output.
    """
    config = {k: v for k, v in vars(args).items() if k not in ("command", "log_level")}
    for key in _INPUT_KEYS:
        if config.get(key):
            config[key] = os.path.abspath(config[key])
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    runner = {**_RUNNERS, "rerun": run_rerun}[args.command]
    # One stderr handler on the package logger for this run only, so that
    # repeated in-process calls do not stack handlers.
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter(f"marketgap {args.command}: %(levelname)s: %(message)s"))
    logger = logging.getLogger(__package__)
    previous_level = logger.level
    logger.addHandler(handler)
    logger.setLevel(args.log_level.upper())
    try:
        runner(_config_from_args(args))
    except MarketGapError as exc:
        print(f"marketgap {args.command}: error: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        logger.removeHandler(handler)
        logger.setLevel(previous_level)
    return 0


if __name__ == "__main__":
    sys.exit(main())
