"""Command-line interface wiring ingestion, analyses, and reports into reproducible runs.

Every command is a pure function of (input files, flags, seed): identical
invocations write byte-identical outputs, and each run emits a manifest.json
(resolved config, input digests, seed, version, output list) from which
`marketgap rerun` reproduces the run.

Exit codes: 0 success, 2 usage, 3 data, 4 numeric.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import re
import sys
from collections import Counter
from datetime import date
from pathlib import Path

from . import __version__
from .errors import DataError, MarketGapError, UsageError
from .ordinal import entropy_series, phase_statistics
from .panel import (
    load_price_panel,
    log_returns,
    open_input,
    write_metadata,
    write_price_panel,
)
from .portfolio import StudyConfig, quintile_report, run_portfolio_study
from .regimes import (
    GapConfig,
    SegmentationParams,
    gap_series,
    monthly_sector_heatmap,
    phase_segmentation,
)
from .synth import (
    generate_factor_panel,
    load_scenario_json,
    one_factor_config,
    risk_study_scenario,
    three_phase_config,
    three_phase_scenario,
    truth_to_dict,
)

# ---------- Output format ----------
#
# Every table is a `# units:` line, a header line and one comma-joined row per
# record. In tables and JSON reports alike a float keeps 9 significant digits
# and a date is ISO-8601.

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


def _json_value(x):
    """The _cell rule for JSON: a rounded float stays a number; None, ints and labels pass."""
    if isinstance(x, float):
        return float(_cell(x))
    return _cell(x) if isinstance(x, date) else x


def _write_table(path, units: str, header: str, rows) -> None:
    lines = [units, header, *(",".join(map(_cell, row)) for row in rows)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _gap_row(s) -> tuple:
    """The GAP_CSV_HEADER fields of one spectral summary."""
    return (s.end_date, s.n_assets, s.lambda_max, s.lambda_norm, s.rho_signed, s.rho_abs,
            s.delta, s.mp.lower, s.mp.upper, s.n_above_mp)


def _write_gap_jsonl(series, path) -> None:
    keys = GAP_CSV_HEADER.split(",")
    with open(path, "w", encoding="utf-8") as fh:
        for s in series.summaries:
            record = dict(zip(keys, map(_json_value, _gap_row(s))),
                          rho_mode=s.rho_mode, norm_mode=s.norm_mode)
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _interval_dict(interval) -> dict | None:
    if interval is None:
        return None
    return {"start": interval[0].isoformat(), "end": interval[1].isoformat()}


def _phases_dict(phases) -> dict:
    return {
        "event_date": phases.event_date.isoformat(),
        "pre_shock": _interval_dict(phases.pre_shock),
        "shock": _interval_dict(phases.shock),
        "false_recovery": _interval_dict(phases.false_recovery),
        "stabilized": _interval_dict(phases.stabilized),
        "threshold_met": phases.threshold_met,
        "sustained_start": _json_value(phases.sustained_start),
    }


def _phase_stats_dict(stats) -> dict:
    def stat(s):
        if s is None:
            return None
        return {"mean_nats": _json_value(s.mean), "std_nats": _json_value(s.std), "n": s.count}

    return {
        "pre_shock": stat(stats.pre_shock),
        "shock": stat(stats.shock),
        "false_recovery": stat(stats.false_recovery),
        "stabilized": stat(stats.stabilized),
        "false_recovery_p95_nats": _json_value(stats.false_recovery_p95),
        "percentile_method": stats.percentile_method,
    }


def _report_dict(report) -> dict:
    def spear(s):
        return None if s is None else {"rho": _json_value(s.rho),
                                       "p_value": _json_value(s.p_value)}

    def subperiod(t):
        return None if t is None else {"rho": _json_value(t[0]),
                                       "p_value": _json_value(t[1]), "n": t[2]}

    return {
        "market": report.market,
        "n_observations": report.n_observations,
        "event_date": _json_value(report.event_date),
        "spearman_delta_mvp": spear(report.spearman_delta_mvp),
        "spearman_delta_ew": spear(report.spearman_delta_ew),
        "quintile_mean_sigma_mvp_pct": [_json_value(m) for m in report.quintile_mean_sigma_mvp],
        "ls_spread_pct": _json_value(report.ls_spread),
        "benchmark_spearman_rho_bar": spear(report.benchmark_spearman_rho_bar),
        "benchmark_spearman_sigma_hist": spear(report.benchmark_spearman_sigma_hist),
        "incr_r2_over_rho_bar": _json_value(report.incr_r2_over_rho_bar),
        "incr_r2_over_sigma_hist": _json_value(report.incr_r2_over_sigma_hist),
        "pre_shock_spearman": subperiod(report.pre_shock),
        "post_shock_spearman": subperiod(report.post_shock),
    }


# ---------- Small helpers ----------

def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _slug(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", label)


def _write_manifest(out_dir: Path, command: str, config: dict, inputs: list, outputs: list) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "seed": config.get("seed"),
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": sorted(outputs),
    }
    _write_json(manifest, out_dir / "manifest.json")


# The config keys that name input files.
_INPUT_KEYS = ("prices", "meta", "scenario")


def _load_panel(config: dict):
    return load_price_panel(
        config["prices"], layout=config.get("layout", "long"), metadata=config.get("meta")
    )


def _input_paths(config: dict) -> list:
    return [config[key] for key in _INPUT_KEYS if config.get(key)]


def _out_dir(config: dict) -> Path:
    out = Path(config["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------- Commands ----------
#
# Each command builds its config objects, which check every argument, before
# it creates --out-dir or opens an input.

def run_gap(config: dict) -> None:
    if config.get("by_sector") and config.get("meta") is None:
        raise UsageError("--by-sector requires --meta with sector labels")
    gap_cfg = GapConfig(
        window=config["window"],
        step=config["step"],
        rho_mode=config["rho_mode"],
        norm_mode=config["norm_mode"],
    )
    out = _out_dir(config)
    panel = _load_panel(config)
    if config.get("by_sector"):
        # Every sector of every market is checked before any file is written.
        sizes = Counter((panel.market_of[t], panel.sector_of[t]) for t in panel.tickers)
        for (market, sector), size in sorted(sizes.items()):
            if size < 2:
                raise DataError(
                    f"sector {sector!r} in market {market!r} has {size} "
                    "ticker(s); need >= 2 for --by-sector"
                )
    outputs: list[str] = []
    summary: dict = {"config": {
        "window": gap_cfg.window, "step": gap_cfg.step,
        "rho_mode": gap_cfg.rho_mode, "norm_mode": gap_cfg.norm_mode,
    }, "markets": {}}
    for market in panel.markets():
        sub = panel.market_panel(market)
        returns = log_returns(sub)
        series = gap_series(returns, gap_cfg)
        name = _slug(market)
        _write_table(out / f"gap_{name}.csv", GAP_CSV_UNITS, GAP_CSV_HEADER,
                     map(_gap_row, series.summaries))
        _write_gap_jsonl(series, out / f"gap_{name}.jsonl")
        outputs += [f"gap_{name}.csv", f"gap_{name}.jsonl"]
        deltas = series.deltas
        summary["markets"][market] = {
            "n_windows": len(series.summaries),
            "n_dropped_windows": len(series.dropped),
            "delta_mean": _json_value(deltas.mean()) if deltas.size else None,
            "delta_min": _json_value(deltas.min()) if deltas.size else None,
            "delta_max": _json_value(deltas.max()) if deltas.size else None,
            "max_abs_delta": _json_value(max(abs(deltas.min()), abs(deltas.max())))
            if deltas.size else None,
            "lambda_norm_mean": _json_value(series.lambda_norms.mean()) if deltas.size else None,
        }
        if config.get("by_sector"):
            sectors_summary = {}
            for sector in sub.sectors():
                members = [t for t in sub.tickers if sub.sector_of[t] == sector]
                sector_series = gap_series(log_returns(sub.restrict(members)), gap_cfg)
                sec_name = f"{name}_{_slug(sector)}"
                _write_table(out / f"gap_{sec_name}.csv", GAP_CSV_UNITS, GAP_CSV_HEADER,
                             map(_gap_row, sector_series.summaries))
                outputs.append(f"gap_{sec_name}.csv")
                sectors_summary[sector] = {
                    "n_windows": len(sector_series.summaries),
                    "delta_mean": _json_value(sector_series.deltas.mean())
                    if sector_series.summaries else None,
                }
            summary["markets"][market]["sectors"] = sectors_summary
    _write_json(summary, out / "summary.json")
    outputs.append("summary.json")
    _write_manifest(out, "gap", config, _input_paths(config), outputs)


def run_entropy(config: dict) -> None:
    start, end = config.get("stabilized_start"), config.get("stabilized_end")
    if (start or end) and not config.get("event_date"):
        raise UsageError("--stabilized-start and --stabilized-end need --event-date")
    if bool(start) != bool(end):
        raise UsageError("--stabilized-start and --stabilized-end go together")
    if start and date.fromisoformat(start) > date.fromisoformat(end):
        raise UsageError(f"--stabilized-start {start} is after --stabilized-end {end}")
    params = SegmentationParams(
        shock_halfwidth=config["shock_halfwidth"],
        threshold=config["entropy_threshold"],
        sustain_days=config["sustain_days"],
        stabilized=(date.fromisoformat(start), date.fromisoformat(end)) if start else None,
    )
    # The entropy series shares the gap series' window grid and its rules.
    grid = GapConfig(window=config["window"], step=config["step"])
    out = _out_dir(config)
    panel = _load_panel(config)
    outputs: list[str] = []
    for market in panel.markets():
        sub = panel.market_panel(market)
        returns = log_returns(sub)
        series = entropy_series(returns, length=grid.window, step=grid.step)
        name = _slug(market)
        _write_table(out / f"entropy_{name}.csv", ENTROPY_CSV_UNITS, ENTROPY_CSV_HEADER, (
            (d, series.n_stocks[i], series.values[i], *series.probabilities[i])
            for i, d in enumerate(series.dates)))
        outputs.append(f"entropy_{name}.csv")
        if config.get("event_date"):
            event = date.fromisoformat(config["event_date"])
            phases = phase_segmentation(series.dates, series.values, event, params=params)
            stats = phase_statistics(series, phases)
            _write_json(
                {"phases": _phases_dict(phases), "statistics": _phase_stats_dict(stats)},
                out / f"phases_{name}.json",
            )
            outputs.append(f"phases_{name}.json")
    _write_manifest(out, "entropy", config, _input_paths(config), outputs)


def run_heatmap(config: dict) -> None:
    if config.get("meta") is None:
        raise UsageError("heatmap requires --meta with sector labels")
    # lambda_norm does not depend on the rho mode, so the heatmap takes none.
    gap_cfg = GapConfig(window=config["window"], step=config["step"],
                        norm_mode=config["norm_mode"])
    out = _out_dir(config)
    panel = _load_panel(config)
    outputs: list[str] = []
    for market in panel.markets():
        sub = panel.market_panel(market)
        grid = monthly_sector_heatmap(log_returns(sub), sub.sector_of, gap_cfg)
        name = _slug(market)
        _write_table(out / f"heatmap_{name}.csv", HEATMAP_CSV_UNITS, HEATMAP_CSV_HEADER, (
            (sector, month, grid.mean_lambda_norm[sector, month], grid.window_count[sector, month])
            for sector in grid.sectors for month in grid.months
            if (sector, month) in grid.mean_lambda_norm))
        outputs.append(f"heatmap_{name}.csv")
    _write_manifest(out, "heatmap", config, _input_paths(config), outputs)


def run_portfolio(config: dict) -> None:
    study_cfg = StudyConfig(
        formation=config["formation"],
        test=config["test"],
        n_stocks=config["n_stocks"],
        portfolios=config["portfolios"],
        annualization=config["annualization"],
        step=config.get("study_step"),
    )
    event = date.fromisoformat(config["event_date"]) if config.get("event_date") else None
    out = _out_dir(config)
    panel = _load_panel(config)
    results = []
    reports = {}
    for stream, market in enumerate(panel.markets()):
        sub = panel.market_panel(market)
        result = run_portfolio_study(
            log_returns(sub), study_cfg, seed=config["seed"], market=market, stream=stream
        )
        results.append(result)
        reports[market] = _report_dict(quintile_report(result.observations, event))
        reports[market]["skipped_windows"] = [
            {"window_index": w, "reason": reason} for w, reason in result.skipped_windows
        ]
        reports[market]["skipped_portfolios"] = result.skipped_portfolios
    _write_table(out / "observations.csv", OBS_CSV_UNITS, OBS_CSV_HEADER, (
        (o.market, o.window_end, o.delta, o.rho_bar, o.sigma_hist, o.sigma_mvp, o.sigma_ew,
         ";".join(o.tickers))
        for result in results for o in result.observations))
    report = {
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
        "markets": reports,
    }
    _write_json(report, out / "report.json")
    _write_manifest(
        out, "portfolio", config, _input_paths(config), ["observations.csv", "report.json"]
    )


def run_synth(config: dict) -> None:
    out = _out_dir(config)
    outputs = ["prices.csv", "meta.csv"]
    truth = None
    if config.get("scenario"):
        synth_cfg = load_scenario_json(config["scenario"])
        if config.get("seed") is not None:
            synth_cfg.seed = config["seed"]
        panel = generate_factor_panel(synth_cfg)
    else:
        preset = config.get("preset") or "three-phase"
        seed = config["seed"] if config.get("seed") is not None else None
        if preset == "three-phase":
            result = three_phase_scenario(
                three_phase_config(seed) if seed is not None else None
            )
            panel, truth = result.panel, truth_to_dict(result.truth)
        elif preset == "risk-study":
            args = (seed,) if seed is not None else ()
            panel, event = risk_study_scenario(*args)
            truth = {"event_date": event.isoformat()}
        elif preset == "one-factor":
            kwargs = {"seed": seed} if seed is not None else {}
            panel = generate_factor_panel(one_factor_config(**kwargs))
        else:
            raise UsageError(f"unknown preset {preset!r}")
    write_price_panel(panel, out / "prices.csv")
    write_metadata(panel, out / "meta.csv")
    if truth is not None:
        _write_json(truth, out / "truth.json")
        outputs.append("truth.json")
    _write_manifest(out, "synth", config, _input_paths(config), outputs)


_RUNNERS = {
    "gap": run_gap,
    "entropy": run_entropy,
    "heatmap": run_heatmap,
    "portfolio": run_portfolio,
    "synth": run_synth,
}


def run_rerun(config: dict) -> None:
    with open_input(config["manifest"]) as fh:
        manifest = json.load(fh)
    command = manifest.get("command")
    if command not in _RUNNERS:
        raise DataError(f"manifest names unknown command {command!r}")
    for input_path, recorded in manifest["inputs"].items():
        if not Path(input_path).is_file():
            raise DataError(f"manifest input {input_path} is missing")
        if _sha256(input_path) != recorded:
            raise DataError(f"manifest input {input_path} changed since the run "
                            "(SHA-256 mismatch)")
    stored = dict(manifest["config"])
    stored["out_dir"] = config["out_dir"]
    _RUNNERS[command](stored)


# ---------- Argument parsing ----------

def _iso_date(text: str) -> str:
    try:
        date.fromisoformat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an ISO date (YYYY-MM-DD): {text!r}")
    return text


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {text}")
    return value


def _positive_int(text: str) -> int:
    value = _nonneg_int(text)
    if value == 0:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite: {text}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0: {text}")
    return value


def _add_common_inputs(p: argparse.ArgumentParser, need_meta: bool = False) -> None:
    p.add_argument("--prices", required=True, help="close-price file")
    p.add_argument("--layout", choices=("long", "wide"), default="long",
                   help="price file layout (default long)")
    p.add_argument("--meta", required=need_meta, default=None,
                   help="ticker,sector,market metadata file")
    p.add_argument("--out-dir", required=True, help="output directory")


def _add_window_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window", type=_positive_int, default=60, help="rolling window length")
    p.add_argument("--step", type=_positive_int, default=1, help="rolling step")


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
    p.add_argument("--rho-mode", choices=("signed", "abs"), default="signed",
                   help="mean off-diagonal (signed) or mean absolute correlation")
    p.add_argument("--norm-mode", choices=("excess", "plain"), default="excess",
                   help="leading-eigenvalue normalization")
    p.add_argument("--by-sector", action="store_true",
                   help="also emit intra-sector series (needs --meta)")

    p = sub.add_parser("entropy", help="cross-sectional ordinal entropy series")
    _add_common_inputs(p)
    _add_window_flags(p)
    p.add_argument("--event-date", type=_iso_date, default=None,
                   help="shock announcement date (enables phase segmentation)")
    p.add_argument("--shock-halfwidth", type=_nonneg_int, default=2,
                   help="trading days on each side of the event (default 2)")
    p.add_argument("--entropy-threshold", type=_finite_float, default=1.0,
                   help="sustained-restoration threshold in nats (default 1.0)")
    p.add_argument("--sustain-days", type=_positive_int, default=20,
                   help="consecutive days above threshold (default 20)")
    p.add_argument("--stabilized-start", type=_iso_date, default=None)
    p.add_argument("--stabilized-end", type=_iso_date, default=None)

    p = sub.add_parser("heatmap", help="monthly sector heatmap of lambda_norm")
    _add_common_inputs(p, need_meta=True)
    _add_window_flags(p)
    p.add_argument("--norm-mode", choices=("excess", "plain"), default="excess")

    p = sub.add_parser("portfolio", help="rolling Monte Carlo portfolio risk study")
    _add_common_inputs(p)
    p.add_argument("--formation", type=_positive_int, default=60, help="formation window days")
    p.add_argument("--test", type=_positive_int, default=20, help="test window days")
    p.add_argument("--n-stocks", type=_positive_int, default=10, help="stocks per portfolio")
    p.add_argument("--portfolios", type=_positive_int, default=500, help="portfolios per window")
    p.add_argument("--annualization", type=_positive_float, default=252.0,
                   help="trading days per year (default 252)")
    p.add_argument("--study-step", type=_positive_int, default=None,
                   help="days between windows (default: test length)")
    p.add_argument("--seed", type=_nonneg_int, required=True,
                   help="RNG seed (required for reproducibility)")
    p.add_argument("--event-date", type=_iso_date, default=None,
                   help="split subperiod statistics at this date")

    p = sub.add_parser("synth", help="generate a synthetic factor-model panel")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--scenario", default=None, help="scenario config JSON")
    group.add_argument("--preset", choices=("three-phase", "risk-study", "one-factor"),
                       default=None, help="built-in scenario (default three-phase)")
    p.add_argument("--seed", type=_nonneg_int, default=None,
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
