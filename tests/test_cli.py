"""End-to-end CLI tests: commands, manifests, determinism, exit codes."""
import hashlib
import json
import os
import subprocess
import sys
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from marketgap.cli import main

from conftest import weekdays


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(*args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert run("synth", "--preset", "three-phase", "--out-dir", out) == 0
    return out


@pytest.fixture(scope="module")
def risk_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("risk")
    assert run("synth", "--preset", "risk-study", "--out-dir", out) == 0
    return out


# ---------- synth ----------

def test_synth_outputs_and_determinism(tmp_path, synth_dir):
    for name in ("prices.csv", "meta.csv", "truth.json", "manifest.json"):
        assert (synth_dir / name).exists()
    again = tmp_path / "again"
    assert run("synth", "--preset", "three-phase", "--out-dir", again) == 0
    assert digest(again / "prices.csv") == digest(synth_dir / "prices.csv")
    assert digest(again / "meta.csv") == digest(synth_dir / "meta.csv")

    other_seed = tmp_path / "other"
    assert run("synth", "--preset", "three-phase", "--seed", 9, "--out-dir", other_seed) == 0
    assert digest(other_seed / "prices.csv") != digest(synth_dir / "prices.csv")


def test_synth_scenario_json(tmp_path):
    doc = {
        "n_assets": 6, "n_days": 50, "sectors": {"A2": 3, "B2": 3},
        "regimes": [[1, 50, 0.005, 0.004, 0.01]], "seed": 3,
    }
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert run("synth", "--scenario", scenario, "--out-dir", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert str(scenario) in manifest["inputs"]

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(doc, regimes=[[1, 30, 0.01, 0, 0.01],
                                                 [25, 50, 0.01, 0, 0.01]])),
                   encoding="utf-8")
    assert run("synth", "--scenario", bad, "--out-dir", tmp_path / "bad") == 3


# ---------- gap ----------

def test_gap_one_factor_summary_small_delta(tmp_path):
    synth_out = tmp_path / "onefactor"
    assert run("synth", "--preset", "one-factor", "--out-dir", synth_out) == 0
    gap_out = tmp_path / "gap"
    assert run("gap", "--prices", synth_out / "prices.csv",
               "--meta", synth_out / "meta.csv", "--out-dir", gap_out) == 0
    summary = json.loads((gap_out / "summary.json").read_text())
    market = summary["markets"]["SYN"]
    assert market["max_abs_delta"] < 0.05
    assert market["n_dropped_windows"] == 0
    assert (gap_out / "gap_SYN.csv").exists() and (gap_out / "gap_SYN.jsonl").exists()


def test_gap_units_header_and_9_digit_serialization(tmp_path, synth_dir):
    gap_out = tmp_path / "gap"
    assert run("gap", "--prices", synth_dir / "prices.csv", "--out-dir", gap_out) == 0
    lines = (gap_out / "gap_ALL.csv").read_text().splitlines()
    assert lines[0].startswith("# units:") and "dimensionless" in lines[0]
    assert lines[1] == ("end_date,n_assets,lambda_max,lambda_norm,rho_signed,"
                        "rho_abs,delta,mp_lower,mp_upper,n_above_mp")
    value = lines[2].split(",")[2]
    assert len(value.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) <= 10


def test_gap_window_robustness_pre_exceeds_shock(tmp_path, synth_dir):
    truth = json.loads((synth_dir / "truth.json").read_text())
    pre = (date.fromisoformat(truth["pre"]["start"]),
           date.fromisoformat(truth["pre"]["end"]))
    shock = (date.fromisoformat(truth["shock"]["start"]),
             date.fromisoformat(truth["shock"]["end"]))
    for window in (30, 90):
        gap_out = tmp_path / f"gap{window}"
        assert run("gap", "--prices", synth_dir / "prices.csv",
                   "--meta", synth_dir / "meta.csv",
                   "--window", window, "--out-dir", gap_out) == 0
        rows = [line.split(",") for line in
                (gap_out / "gap_SYN.csv").read_text().splitlines()[2:]]
        by_date = {date.fromisoformat(r[0]): float(r[6]) for r in rows}
        pre_vals = [v for d, v in by_date.items() if pre[0] <= d <= pre[1]]
        shock_vals = [v for d, v in by_date.items()
                      if shock[1] >= d >= shock[0]]
        assert np.mean(pre_vals) > np.mean(shock_vals)


def test_gap_by_sector_requires_meta(tmp_path, synth_dir):
    out = tmp_path / "gap"
    assert run("gap", "--prices", synth_dir / "prices.csv", "--by-sector",
               "--out-dir", out) == 2


def test_gap_by_sector_emits_sector_files(tmp_path, synth_dir):
    out = tmp_path / "gap"
    assert run("gap", "--prices", synth_dir / "prices.csv",
               "--meta", synth_dir / "meta.csv", "--by-sector",
               "--window", 30, "--out-dir", out) == 0
    for k in range(5):
        assert (out / f"gap_SYN_SEC{k}.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["markets"]["SYN"]["sectors"]) == {f"SEC{k}" for k in range(5)}


def test_gap_by_sector_checks_every_sector_before_writing(tmp_path, capsys):
    # Sector S2 holds one ticker: the run fails before it writes any file.
    dates = weekdays(date(2025, 1, 2), 40)
    rng = np.random.default_rng(2)
    rows = ["date,ticker,close"]
    for ticker in "ABC":
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, len(dates))))
        rows += [f"{d.isoformat()},{ticker},{p!r}" for d, p in zip(dates, prices.tolist())]
    (tmp_path / "prices.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    (tmp_path / "meta.csv").write_text(
        "ticker,sector,market\nA,S1,M\nB,S1,M\nC,S2,M\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("gap", "--prices", tmp_path / "prices.csv", "--meta", tmp_path / "meta.csv",
               "--by-sector", "--window", 10, "--out-dir", out) == 3
    assert ("sector 'S2' in market 'M' has 1 ticker(s); need >= 2 for --by-sector"
            in capsys.readouterr().err)
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["gap", "heatmap", "entropy"])
def test_window_shorter_than_3_is_exit_2(tmp_path, synth_dir, capsys, command):
    assert run(command, "--prices", synth_dir / "prices.csv", "--meta", synth_dir / "meta.csv",
               "--window", 2, "--out-dir", tmp_path / "out") == 2
    assert "window length must be >= 3, got 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("gap", "--window", 2),
    ("gap", "--window", 1),
    ("gap", "--by-sector"),
    ("heatmap", "--meta", "missing-meta.csv", "--window", 2),
    ("entropy", "--window", 2),
    ("entropy", "--stabilized-start", "2025-03-03", "--stabilized-end", "2025-04-01"),
    ("portfolio", "--seed", 1, "--formation", 2),
    ("portfolio", "--seed", 1, "--test", 1),
    ("portfolio", "--seed", 1, "--n-stocks", 1),
])
def test_usage_errors_exit_2_before_any_io(tmp_path, capsys, argv):
    # The price file does not exist: reading it would exit 3.
    out = tmp_path / "out"
    assert run(*argv, "--prices", tmp_path / "missing.csv", "--out-dir", out) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_heatmap_without_meta_exit_2_before_any_io(tmp_path):
    # argparse requires --meta, but a manifest's config reaches run_heatmap directly.
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": "heatmap", "inputs": {}, "config": {
        "prices": str(tmp_path / "missing.csv"), "layout": "long", "meta": None,
        "window": 60, "step": 1, "norm_mode": "excess"}}), encoding="utf-8")
    out = tmp_path / "out"
    assert run("rerun", "--manifest", manifest, "--out-dir", out) == 2
    assert not out.exists()


def test_gap_rows_window_subset_invariant(tmp_path, synth_dir):
    # Every row of a --step 3 run is byte-identical to every third row of --step 1.
    daily, coarse = tmp_path / "daily", tmp_path / "coarse"
    for out, step in ((daily, 1), (coarse, 3)):
        assert run("gap", "--prices", synth_dir / "prices.csv", "--window", 30,
                   "--step", step, "--out-dir", out) == 0
    for name, skip in (("gap_ALL.csv", 2), ("gap_ALL.jsonl", 0)):
        rows = (daily / name).read_bytes().splitlines()[skip:]
        assert len(rows) > 100
        assert (coarse / name).read_bytes().splitlines()[skip:] == rows[::3]


def test_gap_rejects_threads_flag(tmp_path, synth_dir):
    with pytest.raises(SystemExit) as exc:
        run("gap", "--prices", synth_dir / "prices.csv", "--threads", 2,
            "--out-dir", tmp_path / "g")
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--prices", "--meta"])
def test_missing_input_file_is_exit_3(tmp_path, synth_dir, capsys, flag):
    inputs = {"--prices": synth_dir / "prices.csv", "--meta": synth_dir / "meta.csv"}
    inputs[flag] = tmp_path / "missing.csv"
    args = [a for pair in inputs.items() for a in pair]
    assert run("gap", *args, "--out-dir", tmp_path / "out") == 3
    assert str(tmp_path / "missing.csv") in capsys.readouterr().err


def test_missing_scenario_file_is_exit_3(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run("synth", "--scenario", missing, "--out-dir", tmp_path / "out") == 3
    assert str(missing) in capsys.readouterr().err


def test_gap_rejects_bad_price_file(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("date,ticker,close\n2025-01-02,A,0\n", encoding="utf-8")
    assert run("gap", "--prices", bad, "--out-dir", tmp_path / "out") == 3


GOOD_ROWS = b"".join(b"2025-01-%02d,%s,%d.0\n" % (d, t, 10 + d) for d in range(2, 8)
                     for t in (b"A", b"B", b"C"))


@pytest.mark.parametrize("layout,content,where", [
    # A ticker longer than the csv field size limit.
    ("long", b"date,ticker,close\n" + GOOD_ROWS + b"2025-01-08," + b"T" * 140000 + b",1.0\n",
     ":20:"),
    # A byte that is not UTF-8.
    ("long", b"date,ticker,close\n" + GOOD_ROWS + b"2025-01-08,\xff,1.0\n", ":20:"),
    ("wide", b"date,A,B\n2025-01-02,1.0,2.0\n2025-01-03,\xff,2.0\n", ":3:"),
    # A NUL byte, which the csv module of Python 3.10 rejects.
    ("long", b"date,ticker,close\n" + GOOD_ROWS + b"2025-01-08,A,1.0\0\n", ":20:"),
], ids=["oversized-field", "non-utf8-long", "non-utf8-wide", "nul"])
def test_undecodable_or_oversized_price_file_is_exit_3(tmp_path, capsys, layout, content, where):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(content)
    assert run("gap", "--prices", bad, "--layout", layout, "--out-dir", tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert f"{bad}{where}" in err
    assert "Traceback" not in err


def test_undecodable_metadata_file_is_exit_3(tmp_path, synth_dir, capsys):
    meta = tmp_path / "meta.csv"
    meta.write_bytes(b"ticker,sector,market\nA,S\xff,M\n")
    assert run("gap", "--prices", synth_dir / "prices.csv", "--meta", meta,
               "--out-dir", tmp_path / "out") == 3
    assert f"{meta}:2: not UTF-8 text" in capsys.readouterr().err


# ---------- entropy ----------

@pytest.mark.parametrize("command,flag,value", [
    *(("entropy", "--entropy-threshold", v) for v in ("nan", "inf", "-inf")),
    *(("portfolio", "--annualization", v) for v in ("nan", "inf", "-inf", "0", "-1")),
])
def test_float_flags_must_be_finite_and_in_range(tmp_path, synth_dir, command, flag, value):
    extra = ("--seed", 1) if command == "portfolio" else ()
    with pytest.raises(SystemExit) as exc:
        run(command, "--prices", synth_dir / "prices.csv", *extra, f"{flag}={value}",
            "--out-dir", tmp_path / "out")
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_entropy_constant_panel_zero_series(tmp_path):
    # All tickers are copies of one series: a single shared pattern each day.
    rng = np.random.default_rng(12)
    dates = weekdays(date(2025, 1, 2), 90)
    prices = 100 * np.exp(np.cumsum(rng.normal(0, 0.01, 90)))
    lines = ["date,ticker,close"]
    for i, d in enumerate(dates):
        for t in ("A", "B", "C", "D"):
            lines.append(f"{d.isoformat()},{t},{float(prices[i])!r}")
    f = tmp_path / "copies.csv"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "ent"
    assert run("entropy", "--prices", f, "--window", 30, "--out-dir", out) == 0
    rows = (out / "entropy_ALL.csv").read_text().splitlines()[2:]
    assert rows and all(float(r.split(",")[2]) == 0.0 for r in rows)


def test_entropy_phases_json_shape(tmp_path, synth_dir):
    truth = json.loads((synth_dir / "truth.json").read_text())
    out = tmp_path / "ent"
    assert run("entropy", "--prices", synth_dir / "prices.csv",
               "--meta", synth_dir / "meta.csv",
               "--event-date", truth["event_date"], "--out-dir", out) == 0
    doc = json.loads((out / "phases_SYN.json").read_text())
    assert doc["phases"]["threshold_met"] is True
    stats = doc["statistics"]
    for phase in ("pre_shock", "shock", "false_recovery", "stabilized"):
        assert stats[phase]["mean_nats"] >= 0.0
    assert stats["pre_shock"]["mean_nats"] - stats["shock"]["mean_nats"] >= 0.3
    assert stats["false_recovery_p95_nats"] <= 1.7917595


@pytest.mark.parametrize("flags", [
    ("--stabilized-start", "2025-06-01"),
    ("--stabilized-end", "2025-06-01"),
    ("--event-date", "truth", "--stabilized-start", "2025-06-01"),
    ("--event-date", "truth", "--stabilized-start", "2025-06-01",
     "--stabilized-end", "2025-01-01", "--entropy-threshold", "5"),
], ids=["start_without_event", "end_without_event", "start_alone", "reversed_never_met"])
def test_entropy_stabilized_flags_checked_before_any_output(tmp_path, synth_dir, flags):
    truth = json.loads((synth_dir / "truth.json").read_text())
    flags = [truth["event_date"] if f == "truth" else f for f in flags]
    out = tmp_path / "ent"
    assert run("entropy", "--prices", synth_dir / "prices.csv", *flags, "--out-dir", out) == 2
    assert not out.exists()


def test_entropy_event_outside_range_is_exit_3(tmp_path, synth_dir):
    out = tmp_path / "ent"
    assert run("entropy", "--prices", synth_dir / "prices.csv",
               "--event-date", "1999-01-04", "--out-dir", out) == 3


def test_entropy_degenerate_date_is_exit_4(tmp_path):
    # Two stocks with staggered gaps: one panel date has no complete triple.
    dates = weekdays(date(2025, 1, 2), 30)
    rows = ["date,ticker,close"]
    for i, d in enumerate(dates):
        if i != 14:
            rows.append(f"{d.isoformat()},A,100.0")
        if i != 15:
            rows.append(f"{d.isoformat()},B,50.0")
    f = tmp_path / "gappy.csv"
    f.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert run("entropy", "--prices", f, "--window", 5,
               "--out-dir", tmp_path / "out") == 4


# ---------- heatmap ----------

def test_heatmap_requires_meta(tmp_path, synth_dir):
    with pytest.raises(SystemExit) as exc:
        run("heatmap", "--prices", synth_dir / "prices.csv",
            "--out-dir", tmp_path / "h")
    assert exc.value.code == 2


def test_heatmap_rejects_rho_mode_flag(tmp_path, synth_dir):
    # lambda_norm, the only heatmap value, does not depend on the rho mode.
    with pytest.raises(SystemExit) as exc:
        run("heatmap", "--prices", synth_dir / "prices.csv", "--meta", synth_dir / "meta.csv",
            "--rho-mode", "abs", "--out-dir", tmp_path / "h")
    assert exc.value.code == 2


def test_heatmap_rows_and_month_span(tmp_path, synth_dir):
    out = tmp_path / "heat"
    assert run("heatmap", "--prices", synth_dir / "prices.csv",
               "--meta", synth_dir / "meta.csv", "--window", 60,
               "--out-dir", out) == 0
    rows = [r.split(",") for r in (out / "heatmap_SYN.csv").read_text().splitlines()[2:]]
    sectors = {r[0] for r in rows}
    assert sectors == {f"SEC{k}" for k in range(5)}
    months = sorted({r[1] for r in rows})
    prices = (synth_dir / "prices.csv").read_text().splitlines()[1:]
    all_dates = sorted({line.split(",")[0] for line in prices})
    # Window ends start 60 return-rows in; month coverage runs to the last date.
    assert months[-1] == all_dates[-1][:7]
    assert all(0.0 <= float(r[2]) <= 1.0 for r in rows)


def test_heatmap_single_sector_single_row(tmp_path):
    synth_out = tmp_path / "one"
    assert run("synth", "--preset", "one-factor", "--out-dir", synth_out) == 0
    out = tmp_path / "heat"
    assert run("heatmap", "--prices", synth_out / "prices.csv",
               "--meta", synth_out / "meta.csv", "--window", 30,
               "--out-dir", out) == 0
    rows = [r.split(",") for r in (out / "heatmap_SYN.csv").read_text().splitlines()[2:]]
    assert {r[0] for r in rows} == {"ONE"}


# ---------- portfolio ----------

def test_portfolio_requires_seed(tmp_path, risk_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        run("portfolio", "--prices", risk_dir / "prices.csv",
            "--out-dir", tmp_path / "p")
    assert exc.value.code == 2


def test_portfolio_default_flags_echoed(tmp_path):
    # One-window panel keeps the full default P=500 run cheap.
    synth_out = tmp_path / "small"
    doc = {
        "n_assets": 12, "n_days": 85, "sectors": {"A2": 6, "B2": 6},
        "regimes": [[1, 85, 0.005, 0.004, 0.01]], "seed": 4,
    }
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    assert run("synth", "--scenario", scenario, "--out-dir", synth_out) == 0

    out = tmp_path / "port"
    assert run("portfolio", "--prices", synth_out / "prices.csv",
               "--seed", 11, "--out-dir", out) == 0
    report = json.loads((out / "report.json").read_text())
    study = report["study"]
    assert (study["formation"], study["test"], study["n_stocks"],
            study["portfolios"], study["annualization"]) == (60, 20, 10, 500, 252.0)
    assert study["step"] == 20
    assert study["seed"] == 11
    assert study["resampling"] == "per_window"
    assert "variance_convention" in study
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 11
    assert (manifest["config"]["formation"], manifest["config"]["test"],
            manifest["config"]["n_stocks"], manifest["config"]["portfolios"],
            manifest["config"]["annualization"]) == (60, 20, 10, 500, 252.0)


def test_portfolio_report_and_observations(tmp_path, risk_dir):
    truth = json.loads((risk_dir / "truth.json").read_text())
    out = tmp_path / "port"
    assert run("portfolio", "--prices", risk_dir / "prices.csv",
               "--meta", risk_dir / "meta.csv", "--seed", 777,
               "--portfolios", 50, "--event-date", truth["event_date"],
               "--out-dir", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report["markets"]) == {"M1", "M2"}
    for market in ("M1", "M2"):
        rep = report["markets"][market]
        assert rep["spearman_delta_mvp"]["rho"] < 0
        assert rep["post_shock_spearman"]["rho"] < 0
    lines = (out / "observations.csv").read_text().splitlines()
    assert lines[0].startswith("# units:") and "% annualized" in lines[0]
    assert lines[1] == ("market,window_end,delta,rho_bar,sigma_hist,"
                        "sigma_mvp,sigma_ew,tickers")
    markets_in_rows = {line.split(",")[0] for line in lines[2:]}
    assert markets_in_rows == {"M1", "M2"}


def test_outputs_do_not_depend_on_blas_threads(tmp_path, risk_dir):
    # Stacked BLAS calls may split work across threads; each output file must
    # still be byte-identical, and the manifests differ only in --out-dir.
    src = Path(__file__).resolve().parent.parent / "src"
    inputs = ("--prices", risk_dir / "prices.csv", "--meta", risk_dir / "meta.csv")
    commands = {
        "portfolio": ("portfolio", *inputs, "--seed", 3, "--portfolios", 20),
        "gap": ("gap", "--by-sector", *inputs),
    }
    outs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        for label, argv in commands.items():
            out = tmp_path / f"{label}-{threads}"
            subprocess.run([sys.executable, "-m", "marketgap.cli", *map(str, argv),
                            "--out-dir", str(out)], env=env, check=True)
            outs[label, threads] = out
    for label in commands:
        one, two = outs[label, "1"], outs[label, "2"]
        names = sorted(p.name for p in one.iterdir())
        assert names == sorted(p.name for p in two.iterdir()) and len(names) > 2
        for name in names:
            if name == "manifest.json":
                first, second = (json.loads((d / name).read_text()) for d in (one, two))
                for manifest in (first, second):
                    del manifest["config"]["out_dir"]
                assert first == second
            else:
                assert (one / name).read_bytes() == (two / name).read_bytes(), name


def test_log_level_changes_stderr_only(tmp_path, capsys):
    # A quoted ticker makes the block reader decline the file, and B's missing
    # day leaves windows with one asset, which the gap series drops.
    dates = weekdays(date(2025, 1, 2), 30)
    rng = np.random.default_rng(6)
    rows = ["date,ticker,close"]
    for ticker, field in (("A", '"A"'), ("B", "B"), ("C", "C")):
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, len(dates))))
        rows += [f"{d.isoformat()},{field},{p!r}" for i, (d, p)
                 in enumerate(zip(dates, prices.tolist())) if not (ticker != "A" and i == 12)]
    prices = tmp_path / "prices.csv"
    prices.write_text("\n".join(rows) + "\n", encoding="utf-8")
    err = {}
    for level in ("default", "info", "debug"):
        flags = () if level == "default" else ("--log-level", level)
        assert run(*flags, "gap", "--prices", prices, "--window", 5,
                   "--out-dir", tmp_path / level) == 0
        err[level] = capsys.readouterr().err
    assert err["default"] == ""
    decline = "block reader declined (a quote character); reading with the csv parser"
    dropped = "INFO: gap series dropped 6 degenerate window(s)"
    assert dropped in err["info"] and decline not in err["info"]
    assert dropped in err["debug"] and f"marketgap gap: DEBUG: {prices}: {decline}" in err["debug"]
    names = sorted(p.name for p in (tmp_path / "default").iterdir())
    assert names == ["gap_ALL.csv", "gap_ALL.jsonl", "manifest.json", "summary.json"]
    for level in ("info", "debug"):
        for name in names:
            ours = (tmp_path / level / name).read_text()
            theirs = (tmp_path / "default" / name).read_text()
            if name == "manifest.json":
                ours = ours.replace(str(tmp_path / level), str(tmp_path / "default"))
            assert ours == theirs, name


# ---------- rerun ----------

def test_rerun_reproduces_bytes(tmp_path, synth_dir):
    first = tmp_path / "first"
    assert run("gap", "--prices", synth_dir / "prices.csv",
               "--meta", synth_dir / "meta.csv", "--window", 30,
               "--out-dir", first) == 0
    second = tmp_path / "second"
    assert run("rerun", "--manifest", first / "manifest.json",
               "--out-dir", second) == 0
    for name in ("gap_SYN.csv", "gap_SYN.jsonl", "summary.json"):
        assert digest(first / name) == digest(second / name)


def test_rerun_from_another_working_directory(tmp_path, synth_dir, monkeypatch):
    # Relative input paths are recorded resolved, so the manifest reruns anywhere.
    (tmp_path / "a" / "d").mkdir(parents=True)
    (tmp_path / "b").mkdir()
    for name in ("prices.csv", "meta.csv"):
        (tmp_path / "a" / "d" / name).write_bytes((synth_dir / name).read_bytes())
    monkeypatch.chdir(tmp_path / "a")
    assert run("gap", "--prices", "d/prices.csv", "--meta", "d/meta.csv", "--window", 30,
               "--by-sector", "--out-dir", "g") == 0
    manifest = json.loads(Path("g/manifest.json").read_text())
    prices = str(tmp_path / "a" / "d" / "prices.csv")
    assert manifest["config"]["prices"] == prices and prices in manifest["inputs"]
    monkeypatch.chdir(tmp_path / "b")
    assert run("rerun", "--manifest", "../a/g/manifest.json", "--out-dir", "g") == 0
    for name in manifest["outputs"]:
        assert (tmp_path / "b" / "g" / name).read_bytes() == \
            (tmp_path / "a" / "g" / name).read_bytes()


def test_rerun_refuses_changed_input(tmp_path, synth_dir, capsys):
    prices = tmp_path / "prices.csv"
    prices.write_bytes((synth_dir / "prices.csv").read_bytes())
    first = tmp_path / "first"
    assert run("gap", "--prices", prices, "--window", 30, "--out-dir", first) == 0
    lines = prices.read_text().splitlines()
    day, ticker, close = lines[1].split(",")
    lines[1] = f"{day},{ticker},{float(close) * 1.01!r}"
    prices.write_text("\n".join(lines) + "\n")
    second = tmp_path / "second"
    assert run("rerun", "--manifest", first / "manifest.json", "--out-dir", second) == 3
    assert str(prices) in capsys.readouterr().err
    assert not (second / "gap_ALL.csv").exists()

    prices.unlink()
    assert run("rerun", "--manifest", first / "manifest.json", "--out-dir", second) == 3
    assert str(prices) in capsys.readouterr().err


def test_rerun_accepts_manifest_with_threads(tmp_path, synth_dir):
    # Manifests written while the CLI still had --threads record it in the
    # config; replaying one ignores it and reproduces the outputs.
    first = tmp_path / "first"
    assert run("gap", "--prices", synth_dir / "prices.csv",
               "--meta", synth_dir / "meta.csv", "--window", 30, "--by-sector",
               "--out-dir", first) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    manifest["config"]["threads"] = 1
    old = tmp_path / "old_manifest.json"
    old.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    second = tmp_path / "second"
    assert run("rerun", "--manifest", old, "--out-dir", second) == 0
    for name in manifest["outputs"]:
        assert digest(first / name) == digest(second / name)


def test_rerun_accepts_heatmap_manifest_with_rho_mode(tmp_path, synth_dir):
    # Heatmap manifests written while the command still took --rho-mode record
    # it in the config; replaying one ignores it and reproduces the outputs.
    first = tmp_path / "first"
    assert run("heatmap", "--prices", synth_dir / "prices.csv",
               "--meta", synth_dir / "meta.csv", "--window", 30, "--out-dir", first) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    manifest["config"]["rho_mode"] = "abs"
    old = tmp_path / "old_manifest.json"
    old.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    second = tmp_path / "second"
    assert run("rerun", "--manifest", old, "--out-dir", second) == 0
    for name in manifest["outputs"]:
        assert digest(first / name) == digest(second / name)


def test_manifest_contents(tmp_path, synth_dir):
    out = tmp_path / "gap"
    assert run("gap", "--prices", synth_dir / "prices.csv", "--window", 30,
               "--out-dir", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "gap"
    assert manifest["version"]
    assert str(synth_dir / "prices.csv") in manifest["inputs"]
    assert manifest["inputs"][str(synth_dir / "prices.csv")] == digest(synth_dir / "prices.csv")
    assert "gap_ALL.csv" in manifest["outputs"]
    assert "threads" not in manifest["config"]


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about a second of start-up, and nothing needs it: neither
    # the CLI import nor a portfolio report with its Spearman p-values loads it.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "\n".join([
        "import sys",
        "from datetime import date",
        "import numpy as np",
        "import marketgap.cli",
        "assert 'scipy.stats' not in sys.modules",
        "from marketgap.portfolio import PortfolioObservation, quintile_report",
        "rng = np.random.default_rng(0)",
        "obs = [PortfolioObservation('M', 0, date(2025, 1, 2 + k % 2), ('A', 'B'),",
        "                            *rng.normal(size=5), seed_key=(k,)) for k in range(20)]",
        "report = quintile_report(obs, date(2025, 1, 3))",
        "assert 0.0 < report.spearman_delta_mvp.p_value < 1.0",
        "assert report.pre_shock is not None and report.post_shock is not None",
        "assert 'scipy.stats' not in sys.modules",
    ])
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
