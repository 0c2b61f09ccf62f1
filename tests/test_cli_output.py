"""Exact output bytes of every table and report the CLI writes.

The analysis calls the CLI imports are replaced by hand-built results, so the
files below depend only on the output format: 9 significant digits, exponent
notation, negatives, NumPy scalars, ISO dates, None entries and the `# units:`
lines. No BLAS routine runs, so the expected text holds on any machine.
"""
import hashlib
import json
import tracemalloc
from datetime import date

import numpy as np

import marketgap.cli as cli
from marketgap.ordinal import EntropySeries
from marketgap.portfolio import (
    Observations,
    QuintileReport,
    SkippedWindow,
    SpearmanResult,
    StudyResult,
    Subperiod,
)
from marketgap.regimes import (
    DroppedWindow,
    GapSeries,
    Interval,
    PhaseStat,
    PhaseStatistics,
    PhaseWindows,
)

from conftest import weekdays

DAYS = weekdays(date(2025, 1, 2), 12)


def _series(config, rows, dropped=()):
    """A GapSeries of hand-set gap-table rows; the columns after the end date are NumPy
    arrays named as in the table header."""
    dates, *columns = zip(*rows)
    keys = cli.GAP_CSV_HEADER.split(",")[1:]
    return GapSeries(dates=list(dates), **dict(zip(keys, map(np.array, columns))),
                     config=config, dropped=list(dropped))


def fake_sectors(returns, sector_of, config):
    rows = [
        (DAYS[6], 2, 1.99999999951, 0.99999999951, 0.9999999996, 1.0,
         np.float64(-4.5e-11), 0.0, 2.91421356237, 0),
        (DAYS[7], 2, 1.0, 0.0, -0.0, 0.0, 0.0, 0.0, 2.91421356237, 0),
    ]
    dropped = [DroppedWindow(end_date=DAYS[5], reason="window retained 1 assets (need >= 2)")]
    return {sector: _series(config, rows, dropped if sector == "S2" else ())
            for sector in sorted({sector_of[t] for t in returns.tickers})}


def fake_gap_series(returns, config, sector_of=None):
    rows = [
        (DAYS[5], 4, 1.23456789012, 0.0781892967066, -0.000123456789123,
         0.3333333333333333, np.float64(0.0783127534957), 0.0101020514,
         3.97979589711, 1),
        (DAYS[6], 4, np.float64(123456789.7), 41152262.9, 1e-05, 1e-05,
         41152262.89999, np.float64(1.5e-10), 2.5, 0),
        (DAYS[8], 3, np.float64(0.1) + np.float64(0.2), -0.35, 0.25, 0.75,
         -0.6, 0.25, 2.25, 2),
    ]
    dropped = [DroppedWindow(end_date=DAYS[7], reason="window retained 1 assets (need >= 2)")]
    series = _series(config, rows, dropped)
    if sector_of is not None:
        series.sectors = fake_sectors(returns, sector_of, config)
    return series


def fake_entropy_series(returns, length, step):
    probs = np.array([
        [1 / 6] * 6,
        [1 / 3, 1 / 3, 1 / 3, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 1e-05, 0.0, 0.0],
    ])
    return EntropySeries(
        dates=DAYS[3:6], values=np.array([np.log(6.0), np.log(3.0), 0.0]),
        n_stocks=np.array([6, 3, 1], dtype=np.int64), probabilities=probs,
    )


def fake_phase_segmentation(dates, values, event_date, params):
    return PhaseWindows(
        pre_shock=None, shock=Interval(dates[0], dates[1]), false_recovery=None,
        stabilized=Interval(dates[2], dates[2]), event_date=event_date,
        threshold_met=True, sustained_start=dates[2],
    )


def fake_phase_statistics(dates, values, phases):
    return PhaseStatistics(
        pre_shock=None,
        shock=PhaseStat(mean_nats=np.float64(1.24245332489), std_nats=np.float64(0.386086952),
                        n=2),
        false_recovery=None,
        stabilized=PhaseStat(mean_nats=0.0, std_nats=None, n=1),
        false_recovery_p95_nats=None,
    )


def fake_heatmap(returns, sector_of, config):
    return [("S1", "2025-01", 0.123456789123, 3),
            ("S1", "2025-02", np.float64(1e-05), np.int64(20)),
            ("S2", "2025-02", -0.5, 1)]


def fake_study(returns, config, seed, market, stream):
    # Three observations: two in window 0, one in window 2, over tickers A..D.
    rows = [
        (0, DAYS[4], (0, 1), 0.0123456789123, np.float64(-0.0123456789123),
         12.3456789123, np.float64(9.87654321098), 1e-05),
        (0, DAYS[4], (2, 3), -1.5e-07, 0.5, 100.0, 123456789012.0, 0.1),
        (2, DAYS[9], (0, 3), 0.0, -0.0, 7.0, 8.25, np.float64(2.0) / 3.0),
    ]
    window_index, ends, picks, *values = map(np.array, zip(*rows))
    observations = Observations(
        market, ("A", "B", "C", "D"), window_index, ends.astype("datetime64[D]"), picks, *values)
    return StudyResult(observations=observations,
                       skipped_windows=[SkippedWindow(1, "3 eligible stocks (need 10)")],
                       skipped_portfolios=2)


def fake_quintile_report(observations, event_date):
    return QuintileReport(
        market=observations.market, n_observations=len(observations), event_date=event_date,
        spearman_delta_mvp=SpearmanResult(np.float64(-0.123456789876), 1e-05),
        spearman_delta_ew=SpearmanResult(-1.0, 0.0),
        quintile_mean_sigma_mvp_pct=(np.float64(20.1234567891), 15.0, 12.5, 1e-05, -0.25),
        ls_spread_pct=np.float64(-20.3734567891),
        benchmark_spearman_rho_bar=None,
        benchmark_spearman_sigma_hist=SpearmanResult(0.5, np.float64(1 / 3)),
        incr_r2_over_rho_bar=np.float64(1.5e-10),
        incr_r2_over_sigma_hist=-0.0,
        pre_shock_spearman=None,
        post_shock_spearman=Subperiod(np.float64(-0.25), 0.0123456789012, 7),
    )


def write_all(tmp_path, monkeypatch):
    """Run gap, entropy, heatmap and portfolio on the fakes; {relative path: text}."""
    for name, fake in (("gap_series", fake_gap_series),
                       ("entropy_series", fake_entropy_series),
                       ("phase_segmentation", fake_phase_segmentation),
                       ("phase_statistics", fake_phase_statistics),
                       ("monthly_sector_heatmap", fake_heatmap),
                       ("run_portfolio_study", fake_study),
                       ("quintile_report", fake_quintile_report)):
        monkeypatch.setattr(cli, name, fake)
    rng = np.random.default_rng(0)
    close = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, (len(DAYS), 4)), axis=0))
    prices, meta = tmp_path / "prices.csv", tmp_path / "meta.csv"
    prices.write_text("date,ticker,close\n" + "".join(
        f"{d.isoformat()},{t},{float(close[i, j])!r}\n"
        for i, d in enumerate(DAYS) for j, t in enumerate("ABCD")), encoding="utf-8")
    meta.write_text("ticker,sector,market\nA,S1,M1\nB,S1,M1\nC,S2,M1\nD,S2,M1\n",
                    encoding="utf-8")
    inputs = ["--prices", str(prices), "--meta", str(meta)]
    commands = {
        "gap": ["gap", *inputs, "--window", "3", "--by-sector"],
        "entropy": ["entropy", *inputs, "--window", "3", "--event-date", DAYS[4].isoformat()],
        "heatmap": ["heatmap", *inputs, "--window", "3"],
        "portfolio": ["portfolio", *inputs, "--seed", "5", "--portfolios", "2",
                      "--event-date", DAYS[6].isoformat()],
    }
    texts = {}
    for command, argv in commands.items():
        out = tmp_path / command
        assert cli.main([*argv, "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert manifest["outputs"] == written
        for name in written:
            texts[f"{command}/{name}"] = (out / name).read_bytes().decode("utf-8")
    return texts


def test_output_files_match_pinned_text(tmp_path, monkeypatch):
    texts = write_all(tmp_path, monkeypatch)
    assert sorted(texts) == sorted(EXPECTED)
    for name, text in EXPECTED.items():
        assert texts[name] == text, name


EXPECTED = {
    'entropy/entropy_M1.csv': (
        '# units: date=ISO-8601 date, n_stocks=count, H_ord_nats=nats, p0..p5=probability (dimensionless)\n'
        'date,n_stocks,H_ord_nats,p0,p1,p2,p3,p4,p5\n'
        '2025-01-07,6,1.79175947,0.166666667,0.166666667,0.166666667,0.166666667,0.166666667,0.166666667\n'
        '2025-01-08,3,1.09861229,0.333333333,0.333333333,0.333333333,0,0,0\n'
        '2025-01-09,1,0,1,0,0,1e-05,0,0\n'
    ),
    'entropy/phases_M1.json': (
        '{\n'
        '  "phases": {\n'
        '    "event_date": "2025-01-08",\n'
        '    "false_recovery": null,\n'
        '    "pre_shock": null,\n'
        '    "shock": {\n'
        '      "end": "2025-01-08",\n'
        '      "start": "2025-01-07"\n'
        '    },\n'
        '    "stabilized": {\n'
        '      "end": "2025-01-09",\n'
        '      "start": "2025-01-09"\n'
        '    },\n'
        '    "sustained_start": "2025-01-09",\n'
        '    "threshold_met": true\n'
        '  },\n'
        '  "statistics": {\n'
        '    "false_recovery": null,\n'
        '    "false_recovery_p95_nats": null,\n'
        '    "percentile_method": "linear interpolation between closest ranks",\n'
        '    "pre_shock": null,\n'
        '    "shock": {\n'
        '      "mean_nats": 1.24245332,\n'
        '      "n": 2,\n'
        '      "std_nats": 0.386086952\n'
        '    },\n'
        '    "stabilized": {\n'
        '      "mean_nats": 0.0,\n'
        '      "n": 1,\n'
        '      "std_nats": null\n'
        '    }\n'
        '  }\n'
        '}\n'
    ),
    'gap/gap_M1.csv': (
        '# units: end_date=ISO-8601 date, n_assets=count, lambda_max=dimensionless, lambda_norm=dimensionless, rho_signed=dimensionless, rho_abs=dimensionless, delta=dimensionless, mp_lower=dimensionless, mp_upper=dimensionless, n_above_mp=count\n'
        'end_date,n_assets,lambda_max,lambda_norm,rho_signed,rho_abs,delta,mp_lower,mp_upper,n_above_mp\n'
        '2025-01-09,4,1.23456789,0.0781892967,-0.000123456789,0.333333333,0.0783127535,0.0101020514,3.9797959,1\n'
        '2025-01-10,4,123456790,41152262.9,1e-05,1e-05,41152262.9,1.5e-10,2.5,0\n'
        '2025-01-14,3,0.3,-0.35,0.25,0.75,-0.6,0.25,2.25,2\n'
    ),
    'gap/gap_M1.jsonl': (
        '{"delta": 0.0783127535, "end_date": "2025-01-09", "lambda_max": 1.23456789, "lambda_norm": 0.0781892967, "mp_lower": 0.0101020514, "mp_upper": 3.9797959, "n_above_mp": 1, "n_assets": 4, "norm_mode": "excess", "rho_abs": 0.333333333, "rho_mode": "signed", "rho_signed": -0.000123456789}\n'
        '{"delta": 41152262.9, "end_date": "2025-01-10", "lambda_max": 123456790.0, "lambda_norm": 41152262.9, "mp_lower": 1.5e-10, "mp_upper": 2.5, "n_above_mp": 0, "n_assets": 4, "norm_mode": "excess", "rho_abs": 1e-05, "rho_mode": "signed", "rho_signed": 1e-05}\n'
        '{"delta": -0.6, "end_date": "2025-01-14", "lambda_max": 0.3, "lambda_norm": -0.35, "mp_lower": 0.25, "mp_upper": 2.25, "n_above_mp": 2, "n_assets": 3, "norm_mode": "excess", "rho_abs": 0.75, "rho_mode": "signed", "rho_signed": 0.25}\n'
    ),
    'gap/gap_M1_S1.csv': (
        '# units: end_date=ISO-8601 date, n_assets=count, lambda_max=dimensionless, lambda_norm=dimensionless, rho_signed=dimensionless, rho_abs=dimensionless, delta=dimensionless, mp_lower=dimensionless, mp_upper=dimensionless, n_above_mp=count\n'
        'end_date,n_assets,lambda_max,lambda_norm,rho_signed,rho_abs,delta,mp_lower,mp_upper,n_above_mp\n'
        '2025-01-10,2,2,1,1,1,-4.5e-11,0,2.91421356,0\n'
        '2025-01-13,2,1,0,-0,0,0,0,2.91421356,0\n'
    ),
    'gap/gap_M1_S2.csv': (
        '# units: end_date=ISO-8601 date, n_assets=count, lambda_max=dimensionless, lambda_norm=dimensionless, rho_signed=dimensionless, rho_abs=dimensionless, delta=dimensionless, mp_lower=dimensionless, mp_upper=dimensionless, n_above_mp=count\n'
        'end_date,n_assets,lambda_max,lambda_norm,rho_signed,rho_abs,delta,mp_lower,mp_upper,n_above_mp\n'
        '2025-01-10,2,2,1,1,1,-4.5e-11,0,2.91421356,0\n'
        '2025-01-13,2,1,0,-0,0,0,0,2.91421356,0\n'
    ),
    'gap/summary.json': (
        '{\n'
        '  "config": {\n'
        '    "norm_mode": "excess",\n'
        '    "rho_mode": "signed",\n'
        '    "step": 1,\n'
        '    "window": 3\n'
        '  },\n'
        '  "markets": {\n'
        '    "M1": {\n'
        '      "delta_max": 41152262.9,\n'
        '      "delta_mean": 13717420.8,\n'
        '      "delta_min": -0.6,\n'
        '      "lambda_norm_mean": 13717420.9,\n'
        '      "max_abs_delta": 41152262.9,\n'
        '      "n_dropped_windows": 1,\n'
        '      "n_windows": 3,\n'
        '      "sectors": {\n'
        '        "S1": {\n'
        '          "delta_mean": -2.25e-11,\n'
        '          "n_dropped_windows": 0,\n'
        '          "n_windows": 2\n'
        '        },\n'
        '        "S2": {\n'
        '          "delta_mean": -2.25e-11,\n'
        '          "n_dropped_windows": 1,\n'
        '          "n_windows": 2\n'
        '        }\n'
        '      }\n'
        '    }\n'
        '  }\n'
        '}\n'
    ),
    'heatmap/heatmap_M1.csv': (
        '# units: sector=label, month=YYYY-MM, mean_lambda_norm=dimensionless, window_count=count\n'
        'sector,month,mean_lambda_norm,window_count\n'
        'S1,2025-01,0.123456789,3\n'
        'S1,2025-02,1e-05,20\n'
        'S2,2025-02,-0.5,1\n'
    ),
    'portfolio/observations.csv': (
        '# units: market=label, window_end=ISO-8601 date, delta=dimensionless, rho_bar=dimensionless, sigma_hist=% annualized, sigma_mvp=% annualized, sigma_ew=% annualized, tickers=semicolon-joined labels\n'
        'market,window_end,delta,rho_bar,sigma_hist,sigma_mvp,sigma_ew,tickers\n'
        'M1,2025-01-08,0.0123456789,-0.0123456789,12.3456789,9.87654321,1e-05,A;B\n'
        'M1,2025-01-08,-1.5e-07,0.5,100,1.23456789e+11,0.1,C;D\n'
        'M1,2025-01-15,0,-0,7,8.25,0.666666667,A;D\n'
    ),
    'portfolio/report.json': (
        '{\n'
        '  "markets": {\n'
        '    "M1": {\n'
        '      "benchmark_spearman_rho_bar": null,\n'
        '      "benchmark_spearman_sigma_hist": {\n'
        '        "p_value": 0.333333333,\n'
        '        "rho": 0.5\n'
        '      },\n'
        '      "event_date": "2025-01-10",\n'
        '      "incr_r2_over_rho_bar": 1.5e-10,\n'
        '      "incr_r2_over_sigma_hist": -0.0,\n'
        '      "ls_spread_pct": -20.3734568,\n'
        '      "market": "M1",\n'
        '      "n_observations": 3,\n'
        '      "post_shock_spearman": {\n'
        '        "n": 7,\n'
        '        "p_value": 0.0123456789,\n'
        '        "rho": -0.25\n'
        '      },\n'
        '      "pre_shock_spearman": null,\n'
        '      "quintile_mean_sigma_mvp_pct": [\n'
        '        20.1234568,\n'
        '        15.0,\n'
        '        12.5,\n'
        '        1e-05,\n'
        '        -0.25\n'
        '      ],\n'
        '      "skipped_portfolios": 2,\n'
        '      "skipped_windows": [\n'
        '        {\n'
        '          "reason": "3 eligible stocks (need 10)",\n'
        '          "window_index": 1\n'
        '        }\n'
        '      ],\n'
        '      "spearman_delta_ew": {\n'
        '        "p_value": 0.0,\n'
        '        "rho": -1.0\n'
        '      },\n'
        '      "spearman_delta_mvp": {\n'
        '        "p_value": 1e-05,\n'
        '        "rho": -0.12345679\n'
        '      }\n'
        '    }\n'
        '  },\n'
        '  "study": {\n'
        '    "annualization": 252.0,\n'
        '    "event_date": "2025-01-10",\n'
        '    "formation": 60,\n'
        '    "n_stocks": 10,\n'
        '    "portfolios": 2,\n'
        '    "resampling": "per_window",\n'
        '    "seed": 5,\n'
        '    "step": 20,\n'
        '    "test": 20,\n'
        '    "variance_convention": {\n'
        '      "formation_moments": "population (1/T)",\n'
        '      "test_window": "sample (1/(h-1))"\n'
        '    }\n'
        '  }\n'
        '}\n'
    ),
}


def test_observation_lines_stream_in_slices(monkeypatch):
    # 100k observations: the lines are made from slices of _OBS_SLICE rows, so
    # the traced peak is a few slices' Python objects (about 340 bytes a row),
    # and they are the lines of one pass over every row.
    rng = np.random.default_rng(3)
    k = 100_000
    windows = np.repeat(np.arange(100), k // 100)
    obs = Observations("M", tuple(f"T{j:02d}" for j in range(60)), windows,
                       np.datetime64("2025-01-02", "D") + windows,
                       np.sort(rng.integers(0, 60, (k, 10)), axis=1), *rng.normal(size=(5, k)))

    def digest():
        h = hashlib.sha256()
        for line in cli._observation_lines(obs):
            h.update(line.encode())
        return h.hexdigest()

    tracemalloc.start()
    try:
        sliced = digest()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * cli._OBS_SLICE * 512
    monkeypatch.setattr(cli, "_OBS_SLICE", k)
    assert sliced == digest()
