"""End-to-end CLI tests: commands, manifests, determinism, exit codes."""
import hashlib
import json
import math
import os
import subprocess
import sys
import weakref
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from marketgap import cli, regimes, spectral
from marketgap.cli import main
from marketgap.errors import NumericError

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


def test_synth_seed_flag_is_the_scenario_seed_for_every_draw(tmp_path):
    # Before, the loadings drawn from loading_ranges took the file's seed, and
    # only the returns took --seed.
    doc = {"n_assets": 4, "n_days": 30, "sectors": ["A", "A", "B", "B"],
           "regimes": [[1, 30, 0.005, 0.004, 0.01]], "seed": 3,
           "loading_ranges": {"beta": [0.2, 1.8], "gamma": [0.5, 1.5]}}
    for seed in (7, 8):
        flagged, inline = tmp_path / f"flag-{seed}.json", tmp_path / f"inline-{seed}.json"
        flagged.write_text(json.dumps(doc), encoding="utf-8")
        inline.write_text(json.dumps(dict(doc, seed=seed)), encoding="utf-8")
        assert run("synth", "--scenario", flagged, "--seed", seed,
                   "--out-dir", tmp_path / f"flag-{seed}") == 0
        assert run("synth", "--scenario", inline, "--out-dir", tmp_path / f"inline-{seed}") == 0
        assert digest(tmp_path / f"flag-{seed}" / "prices.csv") == \
            digest(tmp_path / f"inline-{seed}" / "prices.csv")


# ---------- unusable output paths ----------

def test_out_dir_that_is_a_file_is_exit_3(tmp_path, capsys):
    # Before, mkdir's FileExistsError went through main: exit 1 and a traceback.
    taken = tmp_path / "F"
    taken.write_text("a file\n")
    assert run("synth", "--preset", "risk-study", "--out-dir", taken) == 3
    err = capsys.readouterr().err
    assert f"error: {taken}: cannot create: File exists" in err
    assert "Traceback" not in err
    assert taken.read_text() == "a file\n"


def test_out_dir_under_a_file_is_exit_3(tmp_path, synth_dir, capsys):
    # Before, mkdir's NotADirectoryError went through main: exit 1 and a traceback.
    (tmp_path / "F").write_text("a file\n")
    out = tmp_path / "F" / "x"
    assert run("gap", "--prices", synth_dir / "prices.csv", "--out-dir", out) == 3
    err = capsys.readouterr().err
    assert f"error: {out}: cannot create: Not a directory" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, name", [("synth", "prices.csv"), ("synth", "meta.csv"),
                                           ("gap", "gap_ALL.csv"), ("gap", "manifest.json")])
def test_output_that_cannot_be_opened_is_exit_3(tmp_path, synth_dir, capsys, command, name):
    # A directory where the output file goes; before, open's IsADirectoryError
    # went through main.
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    args = (("--preset", "risk-study") if command == "synth"
            else ("--prices", synth_dir / "prices.csv"))
    assert run(command, *args, "--out-dir", out) == 3
    err = capsys.readouterr().err
    assert f"error: {out / name}: cannot open: Is a directory" in err
    assert "Traceback" not in err


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
    assert "sector 'S2' has 1 ticker(s) (C); need >= 2" in capsys.readouterr().err
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
    ("entropy", "--event-date", "2025-13-45"),
    ("portfolio", "--seed", 1, "--event-date", "2025-02-30"),
])
def test_usage_errors_exit_2_before_any_io(tmp_path, capsys, argv):
    # The price file does not exist: reading it would exit 3.
    out = tmp_path / "out"
    assert run(*argv, "--prices", tmp_path / "missing.csv", "--out-dir", out) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_heatmap_without_meta_exit_2_before_any_io(tmp_path):
    # argparse requires --meta, but a manifest's config reaches run_heatmap directly.
    # The price file holds a header alone: reading it would exit 3.
    prices = tmp_path / "prices.csv"
    prices.write_text("date,ticker,close\n", encoding="utf-8")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": "heatmap", "inputs": {str(prices): digest(prices)},
                                    "config": {"prices": str(prices), "layout": "long",
                                               "meta": None, "window": 60, "step": 1,
                                               "norm_mode": "excess"}}), encoding="utf-8")
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


@pytest.mark.parametrize("layout", ["long", "wide"])
@pytest.mark.parametrize("price", ["nan", "inf", "-inf", "1e400", "0", "-3"])
def test_non_positive_or_non_finite_price_is_named_exit_3(tmp_path, capsys, layout, price):
    bad = tmp_path / "bad.csv"
    bad.write_text({"long": f"date,ticker,close\n2025-01-02,A,100\n2025-01-03,A,{price}\n",
                    "wide": f"date,A,B\n2025-01-02,100,1\n2025-01-03,{price},1\n"}[layout],
                   encoding="utf-8")
    assert run("gap", "--prices", bad, "--layout", layout, "--out-dir", tmp_path / "out") == 3
    assert f"{bad}:3: non-positive or non-finite price '{price}'" in capsys.readouterr().err


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


@pytest.mark.parametrize("kind", ["long", "wide", "meta"])
def test_byte_order_mark_is_named_exit_3(tmp_path, synth_dir, capsys, kind):
    # Excel's "CSV UTF-8" starts the file with a BOM; before, the error said only
    # that the header was not the expected one.
    bad = tmp_path / "bad.csv"
    if kind == "meta":
        bad.write_bytes(b"\xef\xbb\xbf" + (synth_dir / "meta.csv").read_bytes())
        argv = ("--prices", synth_dir / "prices.csv", "--meta", bad)
    else:
        body = {"long": (synth_dir / "prices.csv").read_bytes(),
                "wide": b"date,A,B\n2025-01-02,1.0,2.0\n2025-01-03,1.5,2.5\n"}[kind]
        bad.write_bytes(b"\xef\xbb\xbf" + body)
        argv = ("--prices", bad, "--layout", kind)
    assert run("gap", *argv, "--out-dir", tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert f"{bad}:1: the header starts with a UTF-8 byte-order mark" in err
    assert "Traceback" not in err


# ---------- entropy ----------

@pytest.mark.parametrize("command,flag,value", [
    *(("entropy", "--entropy-threshold", v) for v in ("nan", "inf", "-inf")),
    *(("portfolio", "--annualization", v) for v in ("nan", "inf", "-inf", "0", "-1")),
])
def test_float_flags_must_be_finite_and_in_range(tmp_path, synth_dir, capsys,
                                                 command, flag, value):
    # The parser only parses: the config type checks the value, as it does a manifest's.
    extra = ("--seed", 1) if command == "portfolio" else ()
    assert run(command, "--prices", synth_dir / "prices.csv", *extra, f"{flag}={value}",
               "--out-dir", tmp_path / "out") == 2
    label = {"entropy": "segmentation threshold must be finite",
             "portfolio": "annualization factor must be finite and positive"}[command]
    assert f"{label}, got {float(value)}" in capsys.readouterr().err
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


def test_entropy_stabilized_flags_reach_phases_json(tmp_path, synth_dir):
    # A configured stabilized interval is written as an object, as every computed
    # interval is, and a rerun of its manifest reproduces the bytes.
    truth = json.loads((synth_dir / "truth.json").read_text())
    first, second = tmp_path / "first", tmp_path / "second"
    assert run("entropy", "--prices", synth_dir / "prices.csv",
               "--event-date", truth["event_date"], "--stabilized-start", "2025-10-01",
               "--stabilized-end", "2025-12-31", "--out-dir", first) == 0
    doc = json.loads((first / "phases_ALL.json").read_text())
    assert doc["phases"]["stabilized"] == {"start": "2025-10-01", "end": "2025-12-31"}
    assert doc["phases"]["threshold_met"] is True
    in_range = [r for r in (first / "entropy_ALL.csv").read_text().splitlines()[2:]
                if "2025-10-01" <= r[:10] <= "2025-12-31"]
    assert doc["statistics"]["stabilized"]["n"] == len(in_range) > 0
    assert run("rerun", "--manifest", first / "manifest.json", "--out-dir", second) == 0
    for name in json.loads((first / "manifest.json").read_text())["outputs"]:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_entropy_overlapping_phases_name_iso_dates(tmp_path, synth_dir, capsys):
    # A stabilized interval inside the false recovery is a data error whose message
    # reads as dates, not as tuple reprs.
    truth = json.loads((synth_dir / "truth.json").read_text())
    out = tmp_path / "ent"
    assert run("entropy", "--prices", synth_dir / "prices.csv",
               "--event-date", truth["event_date"], "--stabilized-start", "2025-03-03",
               "--stabilized-end", "2025-04-01", "--out-dir", out) == 3
    err = capsys.readouterr().err
    assert ("error: phase intervals overlap: 2025-02-13 .. 2025-09-25 vs "
            "2025-03-03 .. 2025-04-01\n") in err
    assert list(out.iterdir()) == []


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


def test_entropy_event_on_a_series_with_no_dates_is_exit_3(tmp_path, synth_dir, capsys):
    # A window longer than the panel leaves an empty entropy series: a data fault,
    # not a usage error, and nothing is written.
    truth = json.loads((synth_dir / "truth.json").read_text())
    out = tmp_path / "ent"
    assert run("entropy", "--prices", synth_dir / "prices.csv", "--window", 500,
               "--event-date", truth["event_date"], "--out-dir", out) == 3
    assert "error: segmentation needs a series with dated values" in capsys.readouterr().err
    assert list(out.iterdir()) == []


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


@pytest.mark.parametrize("command", ["entropy", "heatmap"])
def test_failed_run_leaves_out_dir_empty(tmp_path, synth_dir, capsys, command):
    # Every market is computed before the first file is written.
    if command == "entropy":
        # The series is computed, then the event date fails segmentation.
        argv = ("entropy", "--prices", synth_dir / "prices.csv", "--event-date", "1990-01-01")
    else:
        # Market A is fine; market B, computed after it, holds a one-ticker sector.
        dates = weekdays(date(2025, 1, 2), 40)
        rng = np.random.default_rng(3)
        rows = ["date,ticker,close"]
        for ticker in ("A1", "A2", "B1", "B2", "B3"):
            prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, len(dates))))
            rows += [f"{d.isoformat()},{ticker},{p!r}" for d, p in zip(dates, prices.tolist())]
        (tmp_path / "prices.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        (tmp_path / "meta.csv").write_text(
            "ticker,sector,market\nA1,S,A\nA2,S,A\nB1,S,B\nB2,S,B\nB3,T,B\n",
            encoding="utf-8")
        argv = ("heatmap", "--prices", tmp_path / "prices.csv", "--meta", tmp_path / "meta.csv",
                "--window", 10)
    out = tmp_path / "out"
    assert run(*argv, "--out-dir", out) == 3
    assert "error:" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["gap", "heatmap", "entropy", "portfolio"])
def test_failed_last_market_leaves_out_dir_empty(tmp_path, capsys, command):
    # Market A computes; market B, computed after it, has one trading date, so
    # its log returns fail. Nothing of market A may be left behind.
    dates = weekdays(date(2025, 1, 2), 40)
    rng = np.random.default_rng(4)
    rows = ["date,ticker,close"]
    for ticker in ("A1", "A2", "A3", "A4"):
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, len(dates))))
        rows += [f"{d.isoformat()},{ticker},{p!r}" for d, p in zip(dates, prices.tolist())]
    (tmp_path / "a.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    rows += [f"{dates[0].isoformat()},{ticker},100.0" for ticker in ("B1", "B2")]
    (tmp_path / "ab.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    (tmp_path / "meta.csv").write_text(
        "ticker,sector,market\nA1,S,A\nA2,S,A\nA3,T,A\nA4,T,A\nB1,S,B\nB2,S,B\n",
        encoding="utf-8")
    argv = {
        "gap": ("gap", "--by-sector", "--window", 10),
        "heatmap": ("heatmap", "--window", 10),
        "entropy": ("entropy", "--window", 10, "--event-date", dates[20].isoformat()),
        "portfolio": ("portfolio", "--seed", 1, "--formation", 10, "--test", 5,
                      "--n-stocks", 2, "--portfolios", 3),
    }[command]
    meta = ("--meta", tmp_path / "meta.csv")
    assert run(*argv, "--prices", tmp_path / "a.csv", *meta, "--out-dir", tmp_path / "a") == 0
    out = tmp_path / "out"
    assert run(*argv, "--prices", tmp_path / "ab.csv", *meta, "--out-dir", out) == 3
    assert "log returns need at least 2 dates" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv, markets, said", [
    # '/' and '_' both slug to '_', so the two markets would write one file.
    (("gap",), ("US/NY", "US_NY"), "market 'US/NY' and market 'US_NY' would both write "
                                   "gap_US_NY.csv"),
    (("heatmap",), ("US/NY", "US_NY"), "market 'US/NY' and market 'US_NY' would both write "
                                       "heatmap_US_NY.csv"),
    (("entropy",), ("US/NY", "US_NY"), "market 'US/NY' and market 'US_NY' would both write "
                                       "entropy_US_NY.csv"),
    # Market A_B's series and sector B of market A share a name across kinds.
    (("gap", "--by-sector"), ("A", "A_B"), "market 'A_B' and sector 'B' of market 'A' would "
                                           "both write gap_A_B.csv"),
], ids=["gap", "heatmap", "entropy", "gap_by_sector"])
def test_labels_that_share_a_file_name_exit_3_before_any_write(tmp_path, capsys, argv, markets,
                                                              said):
    dates = weekdays(date(2025, 1, 2), 40)
    rng = np.random.default_rng(5)
    rows, labels = ["date,ticker,close"], []
    for m, market in enumerate(markets):
        for k, sector in enumerate(("B", "B", "C", "C")):
            prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, len(dates))))
            rows += [f"{d.isoformat()},T{m}{k},{p!r}" for d, p in zip(dates, prices.tolist())]
            labels.append((f"T{m}{k}", sector, market))
    (tmp_path / "p.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")

    def run_with(rename, out):
        (tmp_path / "m.csv").write_text("ticker,sector,market\n" + "".join(
            f"{t},{s},{rename(m)}\n" for t, s, m in labels), encoding="utf-8")
        return run(*argv, "--prices", tmp_path / "p.csv", "--meta", tmp_path / "m.csv",
                   "--window", 10, "--out-dir", out)

    def no_kernel(*args, **kwargs):
        raise AssertionError("a kernel ran before the file names were checked")

    out = tmp_path / "out"
    with pytest.MonkeyPatch.context() as mp:
        for kernel in ("gap_series", "entropy_series", "monthly_sector_heatmap"):
            mp.setattr(cli, kernel, no_kernel)
        assert run_with(str, out) == 3
    assert said in capsys.readouterr().err
    assert list(out.iterdir()) == []
    # Relabelled apart, the same run writes its files.
    assert run_with(lambda m: m.replace("_", "x"), out) == 0


def test_sector_wide_hole_drops_the_windows_that_hold_it(tmp_path, synth_dir):
    # One date is blanked for every SEC0 stock. `gap --by-sector` and `heatmap`
    # both run on the market's calendar: SEC0 loses exactly the windows whose
    # span holds that date, and every other sector keeps them all.
    sector = dict(line.split(",")[:2]
                  for line in (synth_dir / "meta.csv").read_text().splitlines()[1:])
    lines = (synth_dir / "prices.csv").read_text().splitlines()
    dates = sorted({line.split(",")[0] for line in lines[1:]})
    hole = dates[len(dates) // 2]
    (tmp_path / "prices.csv").write_text("\n".join(
        [lines[0]] + [line for line in lines[1:] if not (
            line.startswith(hole) and sector[line.split(",")[1]] == "SEC0")]) + "\n")
    inputs = ("--prices", tmp_path / "prices.csv", "--meta", synth_dir / "meta.csv",
              "--window", 60)
    assert run("gap", "--by-sector", *inputs, "--out-dir", tmp_path / "gap") == 0
    assert run("heatmap", *inputs, "--out-dir", tmp_path / "heat") == 0

    # Window k spans the prices on dates[k .. k + 60], the last of which ends it.
    spans = [dates[k:k + 61] for k in range(len(dates) - 60)]
    heat = [r.split(",") for r in (tmp_path / "heat" / "heatmap_SYN.csv").read_text()
            .splitlines()[2:]]
    for name in sorted(set(sector.values())):
        rows = (tmp_path / "gap" / f"gap_SYN_{name}.csv").read_text().splitlines()[2:]
        expected = sum(1 for span in spans if name != "SEC0" or hole not in span)
        assert len(rows) == sum(int(r[3]) for r in heat if r[0] == name) == expected
    assert 0 < sum(1 for span in spans if hole in span) < len(spans)
    # summary.json counts the windows each sector dropped: the 61 whose span holds the hole.
    summary = json.loads((tmp_path / "gap" / "summary.json").read_text())
    sectors = summary["markets"]["SYN"]["sectors"]
    assert {name: s["n_dropped_windows"] for name, s in sectors.items()} == {
        name: 61 if name == "SEC0" else 0 for name in set(sector.values())}


# ---------- portfolio ----------

def test_portfolio_requires_seed(tmp_path, risk_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        run("portfolio", "--prices", risk_dir / "prices.csv",
            "--out-dir", tmp_path / "p")
    assert exc.value.code == 2


def test_portfolio_non_finite_report_value_is_exit_4(tmp_path, risk_dir, capsys):
    # Annualizing by 1e308 overflows the R2 sums to inf / inf. JSON has no NaN, so
    # the run fails, naming the value's key, before it writes a file.
    out = tmp_path / "p"
    with np.errstate(over="ignore"):
        assert run("portfolio", "--prices", risk_dir / "prices.csv", "--meta",
                   risk_dir / "meta.csv", "--seed", 7, "--portfolios", 20,
                   "--annualization", 1e308, "--out-dir", out) == 4
    assert ("error: markets.M1.incr_r2_over_rho_bar is nan, which JSON cannot hold"
            in capsys.readouterr().err)
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_json_refuses_a_non_finite_float_by_its_path(value):
    doc = {"a": [1.5, {"b": spectral.MPBounds(0.5, value)}]}
    with pytest.raises(NumericError, match=r"^a\[1\]\.b\.upper is -?(nan|inf), "):
        cli._json(doc)
    with pytest.raises(NumericError, match=r"^a value is "):
        cli._json(value)


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


@pytest.mark.parametrize("argv,kinds", [(("gap", "--by-sector"), 2), (("heatmap",), 1)])
def test_one_kernel_pass_per_market_for_all_its_sectors(tmp_path, risk_dir, monkeypatch,
                                                        argv, kinds):
    # One pass per market serves all its sectors. Its groups are of two kinds for
    # gap --by-sector, the market's columns and each sector's, and of one for heatmap.
    calls = []

    def spy(values, length, step=1, groups=None):
        calls.append(len(groups))
        return spectral.rolling_spectra(values, length, step, groups)

    monkeypatch.setattr(regimes, "rolling_spectra", spy)
    assert run(*argv, "--prices", risk_dir / "prices.csv", "--meta", risk_dir / "meta.csv",
               "--out-dir", tmp_path / "out") == 0
    markets = {}
    for line in (risk_dir / "meta.csv").read_text().splitlines()[1:]:
        _, sector, market = line.split(",")
        markets.setdefault(market, set()).add(sector)
    assert sorted(calls) == sorted(kinds - 1 + len(s) for s in markets.values())


@pytest.mark.parametrize("panel_dir", ["synth_dir", "risk_dir"])
def test_price_grid_is_freed_before_the_first_market_computes(tmp_path, request, monkeypatch,
                                                              panel_dir):
    # Every market's returns are formed first, and then the loaded panel, each
    # market's sub-panel and so the price grid go: on one market, whose sub-panel
    # shares the grid, and on two.
    directory = request.getfixturevalue(panel_dir)
    grids, alive = [], []
    load_price_panel = cli.load_price_panel

    def load(*args, **kwargs):
        panel = load_price_panel(*args, **kwargs)
        grids.append(weakref.ref(panel.close))
        return panel

    def fake_gap_series(returns, config, sector_of=None):
        alive.append(grids[0]() is not None)
        return regimes.gap_series(returns, config, sector_of)

    monkeypatch.setattr(cli, "load_price_panel", load)
    monkeypatch.setattr(cli, "gap_series", fake_gap_series)
    assert run("gap", "--prices", directory / "prices.csv", "--meta", directory / "meta.csv",
               "--out-dir", tmp_path / "out") == 0
    n_markets = len({line.rsplit(",", 1)[1]
                     for line in (directory / "meta.csv").read_text().splitlines()[1:]})
    assert n_markets == {"synth_dir": 1, "risk_dir": 2}[panel_dir]
    assert alive == [False] * n_markets


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


def _unopenable_meta_rerun(tmp_path, synth_dir, capsys, block):
    """rerun's exit code and stderr once `block(meta)` has made the run's meta
    input unopenable."""
    meta = tmp_path / "meta.csv"
    meta.write_bytes((synth_dir / "meta.csv").read_bytes())
    first = tmp_path / "first"
    assert run("gap", "--prices", synth_dir / "prices.csv", "--meta", meta, "--window", 30,
               "--out-dir", first) == 0
    block(meta)
    capsys.readouterr()
    code = run("rerun", "--manifest", first / "manifest.json", "--out-dir", tmp_path / "second")
    return code, capsys.readouterr().err


def test_rerun_input_that_cannot_be_opened_is_exit_3(tmp_path, synth_dir, capsys, monkeypatch):
    # Before, the digest's open raised PermissionError through main: exit 1 and
    # a traceback.
    def block(meta):
        def refuse(path, *args, **kwargs):
            if Path(path) == meta:
                raise PermissionError(13, "Permission denied", str(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", refuse, raising=False)

    code, err = _unopenable_meta_rerun(tmp_path, synth_dir, capsys, block)
    assert code == 3
    assert f"error: {tmp_path / 'meta.csv'}: cannot open: Permission denied" in err
    assert "Traceback" not in err


@pytest.mark.skipif(os.geteuid() == 0, reason="root opens a file of mode 000")
def test_rerun_input_without_read_permission_is_exit_3(tmp_path, synth_dir, capsys):
    code, err = _unopenable_meta_rerun(tmp_path, synth_dir, capsys, lambda meta: meta.chmod(0))
    assert code == 3
    assert f"error: {tmp_path / 'meta.csv'}: cannot open: Permission denied" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("size", [0, 7, 8, 9])
@pytest.mark.parametrize("builtin", [True, False], ids=["builtin", "no_builtin"])
def test_sha256_on_either_side_of_the_cut_is_hashlibs(tmp_path, monkeypatch, size, builtin):
    # Below the cut the built-in module hashes the file, at or above it hashlib
    # does, as it does where CPython lacks the built-in module.
    monkeypatch.setattr(cli, "_BUILTIN_SHA256_BELOW", 8)
    if not builtin:
        for name in ("_sha2", "_sha256"):
            monkeypatch.setitem(sys.modules, name, None)  # importing it raises ImportError
    reference, calls = hashlib.sha256, []

    def counted(*args):
        calls.append(args)
        return reference(*args)

    monkeypatch.setattr(hashlib, "sha256", counted)
    path = tmp_path / "input"
    path.write_bytes(bytes(range(40, 40 + size)))
    assert cli._sha256(path) == reference(path.read_bytes()).hexdigest()
    assert len(calls) == (0 if builtin and size < 8 else 1)


@pytest.mark.parametrize("key,edit", [
    ("prices", "other"),  # the config reads a file whose digest was never taken
    ("meta", "other"),
    ("meta", None),  # a recorded input that the config no longer reads
], ids=repr)
def test_rerun_refuses_config_paths_that_are_not_its_inputs(tmp_path, synth_dir, capsys,
                                                            key, edit):
    # rerun checks the digests of the manifest's inputs, and the command reads the
    # paths in its config; the two must be the same files. Before, a config whose
    # prices named another file reran on it and exited 0.
    first = tmp_path / "first"
    assert run("gap", "--prices", synth_dir / "prices.csv", "--meta", synth_dir / "meta.csv",
               "--window", 30, "--out-dir", first) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    recorded = manifest["config"][key]
    other = tmp_path / f"other_{key}.csv"
    other.write_bytes((synth_dir / f"{key}.csv").read_bytes())
    manifest["config"][key] = str(other) if edit else None
    edited = tmp_path / "edited_manifest.json"
    edited.write_text(json.dumps(manifest), encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "out"
    assert run("rerun", "--manifest", edited, "--out-dir", out) == 3
    err = capsys.readouterr().err
    if edit:
        assert f"error: {edited}: manifest config {key} {other} is not a recorded input (" in err
    else:
        assert f"error: {edited}: manifest input {recorded} is read by no config setting" in err
    assert recorded in err and "Traceback" not in err
    assert not out.exists()


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


@pytest.mark.parametrize("command,key,value,message", [
    ("entropy", "entropy_threshold", math.nan, "must be finite"),
    ("portfolio", "annualization", math.nan, "must be finite"),
    ("portfolio", "annualization", math.inf, "must be finite"),
    ("entropy", "shock_halfwidth", -1, "must be >= 0"),
    ("entropy", "sustain_days", 0, "must be >= 1"),
])
def test_rerun_checks_settings_before_any_io(tmp_path, synth_dir, capsys,
                                             command, key, value, message):
    # The checks live in the config types, so an edited manifest meets them as
    # the flags do: exit 2 before --out-dir is created. Before, a NaN threshold
    # or a half-width of -1 ran and exited 0.
    extra = ("--seed", 1, "--portfolios", 5) if command == "portfolio" else ()
    first = tmp_path / "first"
    assert run(command, "--prices", synth_dir / "prices.csv", *extra, "--out-dir", first) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    manifest["config"][key] = value
    edited = tmp_path / "edited_manifest.json"
    edited.write_text(json.dumps(manifest), encoding="utf-8")  # NaN / Infinity literals
    capsys.readouterr()
    second = tmp_path / "second"
    assert run("rerun", "--manifest", edited, "--out-dir", second) == 2
    assert message in capsys.readouterr().err
    assert not second.exists()


# Each integer setting of each command: (command, manifest key, message label, minimum).
INT_SETTINGS = [
    *((command, key, label, minimum) for command in ("gap", "entropy", "heatmap")
      for key, label, minimum in (("window", "window length", 3), ("step", "window step", 1))),
    ("entropy", "shock_halfwidth", "shock half-width", 0),
    ("entropy", "sustain_days", "sustain days", 1),
    ("portfolio", "formation", "formation window", 3),
    ("portfolio", "test", "test window", 2),
    ("portfolio", "n_stocks", "portfolio size", 2),
    ("portfolio", "portfolios", "portfolio count", 1),
    ("portfolio", "study_step", "study step", 1),
    ("portfolio", "seed", "seed", 0),
    ("synth", "seed", "seed", 0),
]
REAL_SETTINGS = [
    ("entropy", "entropy_threshold", "segmentation threshold"),
    ("portfolio", "annualization", "annualization factor"),
]
LABELS = {(c, k): label for c, k, label, *_ in INT_SETTINGS + REAL_SETTINGS}
LABELS.update({("gap", "layout"): "layout", ("synth", "preset"): "preset",
               ("gap", "by_sector"): "by_sector"})
# Null means "the default" for these two.
NULLABLE = {("portfolio", "study_step"), ("synth", "seed")}
BAD_SETTINGS = sorted({
    # A string, null, a float and a bool for an integer, and one below its minimum.
    *((c, k, v) for c, k, _, m in INT_SETTINGS for v in (str(m + 1), None, float(m + 1), True)
      if v is not None or (c, k) not in NULLABLE),
    *((c, k, m - 1) for c, k, _, m in INT_SETTINGS),
    # A string, null and non-finite numbers for a real.
    *((c, k, v) for c, k, _ in REAL_SETTINGS for v in ("252", None, math.nan, math.inf)),
    ("portfolio", "annualization", 0.0),
    # Each of these ended in a traceback (exit 1), or exited 2 after --out-dir was created.
    ("gap", "window", "60"), ("gap", "window", 60.0), ("gap", "step", None),
    ("portfolio", "portfolios", "20"), ("portfolio", "annualization", "252"),
    ("portfolio", "seed", 1.5), ("portfolio", "seed", -1),
    ("synth", "seed", -1), ("synth", "seed", "7"),
    ("gap", "layout", "tall"), ("synth", "preset", "nine-phase"),
    # A flag's true or false only: "false" ran with sectors and exited 0.
    *(("gap", "by_sector", v) for v in ("false", "true", 0, 1, None)),
}, key=repr)


@pytest.fixture(scope="module")
def manifests(tmp_path_factory, synth_dir):
    """The manifest of one successful run of each command."""
    root = tmp_path_factory.mktemp("manifests")
    inputs = ("--prices", synth_dir / "prices.csv", "--meta", synth_dir / "meta.csv")
    argv = {"gap": (*inputs, "--window", 30), "entropy": (*inputs, "--window", 30),
            "heatmap": (*inputs, "--window", 30),
            "portfolio": (*inputs, "--seed", 1, "--portfolios", 5),
            "synth": ("--preset", "one-factor")}
    for command, args in argv.items():
        assert run(command, *args, "--out-dir", root / command) == 0
    return {command: json.loads((root / command / "manifest.json").read_text())
            for command in argv}


@pytest.mark.parametrize("command,key,value", BAD_SETTINGS, ids=repr)
def test_rerun_bad_setting_is_exit_2_before_any_io(tmp_path, manifests, capsys,
                                                   command, key, value):
    # A manifest meets the checks a flag meets: its integer settings must be
    # JSON integers, its reals finite numbers and its choices known.
    manifest = json.loads(json.dumps(manifests[command]))
    manifest["config"][key] = value
    edited = tmp_path / "edited_manifest.json"
    edited.write_text(json.dumps(manifest), encoding="utf-8")  # NaN / Infinity literals
    out = tmp_path / "out"
    assert run("rerun", "--manifest", edited, "--out-dir", out) == 2
    err = capsys.readouterr().err
    assert f"error: {LABELS[command, key]} must be " in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gap", "entropy", "heatmap", "portfolio", "synth"])
def test_rerun_missing_setting_is_exit_2_before_any_io(tmp_path, manifests, capsys, command):
    # Each setting the command's flags define must be in the manifest; before, a
    # missing "window" ended in a KeyError traceback and exit 1.
    for key in sorted(set(manifests[command]["config"]) - {"out_dir"}):
        manifest = json.loads(json.dumps(manifests[command]))
        del manifest["config"][key]
        edited = tmp_path / f"no_{key}.json"
        edited.write_text(json.dumps(manifest), encoding="utf-8")
        out = tmp_path / f"out_{key}"
        assert run("rerun", "--manifest", edited, "--out-dir", out) == 2, key
        err = capsys.readouterr().err
        assert f"error: manifest config has no {key} setting" in err
        assert "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("text,message", [
    ("{", "invalid JSON"),
    (b"\xff{}", "invalid JSON"),
    ("[]", "a manifest must be a JSON object"),
    (None, "manifest inputs must be a JSON object"),  # no "inputs" key
    ({"inputs": []}, "manifest inputs must be a JSON object"),
    ({"config": ["--window", 30]}, "manifest config must be a JSON object"),
    ({"config": None}, "manifest config must be a JSON object"),
    ({"command": ["gap"]}, "manifest names unknown command ['gap']"),
    ({"command": "tally"}, "manifest names unknown command 'tally'"),
], ids=repr)
def test_malformed_manifest_is_exit_3(tmp_path, manifests, capsys, text, message):
    # Before, each ended in a traceback (JSONDecodeError, AttributeError,
    # KeyError) and exit 1.
    manifest = json.loads(json.dumps(manifests["gap"]))
    if text is None:
        del manifest["inputs"]
    elif isinstance(text, dict):
        manifest.update(text)
    edited = tmp_path / "edited_manifest.json"
    if isinstance(text, bytes):
        edited.write_bytes(text)
    else:
        edited.write_text(text if isinstance(text, str) else json.dumps(manifest),
                          encoding="utf-8")
    out = tmp_path / "out"
    assert run("rerun", "--manifest", edited, "--out-dir", out) == 3
    err = capsys.readouterr().err
    assert f"error: {edited}: {message}" in err and "Traceback" not in err
    assert not out.exists()


SCENARIO = {"n_assets": 6, "n_days": 50, "sectors": {"A2": 3, "B2": 3},
            "regimes": [[1, 50, 0.005, 0.004, 0.01]], "seed": 3}


@pytest.mark.parametrize("edit,flags,code,message", [
    *(({key: value}, (), 3, message) for key, value, message in [
        ("seed", 3.7, "seed must be an integer, got 3.7"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("n_assets", 4.9, "n_assets must be an integer, got 4.9"),
        ("n_days", "30", "n_days must be an integer, got '30'"),
        ("sectors", {"A2": 2.5, "B2": 3.5}, "sectors.A2 must be an integer, got 2.5"),
        ("regimes", [[1, 30.2, 0.005, 0.004, 0.01], [31, 50, 0.005, 0.004, 0.01]],
         "regimes[0].end must be an integer, got 30.2"),
        ("regimes", [[1, 50, "0.01", 0.004, 0.01]],
         "regimes[0].market_vol must be a number, got '0.01'"),
        ("regimes", [[1, 50, 0.005, 0.004, "abc"]],
         "regimes[0].idio_vol must be a number, got 'abc'"),
        ("regimes", [[1, 50, 0.005, 0.004]], "regimes[0] must be [start, end, market_vol, "),
        ("regimes", [{"start": 1, "end": 50, "market_vol": 0.005, "idio_vol": 0.01}],
         "regimes[0].sector_vol must be a number, got None"),
        ("start_date", "2025-13-45", "start_date must be an ISO date (YYYY-MM-DD)"),
        # Before, a start this late ended in an OverflowError traceback, exit 1.
        ("start_date", "9999-12-30", "start_date 9999-12-30 and n_days 50 run past the "
                                     "last date, 9999-12-31: 2 weekdays are left"),
        # Before, `synth` wrote these labels and `gap` refused its meta.csv (an
        # empty label) or read them back stripped (a padded one).
        ("sectors", ["A2", "", "A2", "B2", "B2", "B2"],
         "sectors[1] must be non-empty and free of leading and trailing whitespace, got ''"),
        ("sectors", {"A2": 3, " B2": 3}, "sectors label must be non-empty and free of "
                                         "leading and trailing whitespace, got ' B2'"),
        ("market", "", "market must be non-empty and free of leading and trailing "
                       "whitespace, got ''"),
        ("market", "SYN ", "market must be non-empty and free of leading and trailing "
                           "whitespace, got 'SYN '"),
        ("ticker_prefix", "S\t", "ticker_prefix must be free of leading and trailing "
                                  "whitespace, got 'S\\t'"),
        ("loading_ranges", {"beta": [0.5, "1.5"]},
         "loading_ranges.beta[1] must be a number, got '1.5'"),
    ]),
    ({"market_loadings": [1.0] * 5 + [None], "sector_loadings": [1.0] * 6}, (), 3,
     "market_loadings[5] must be a number, got None"),
    (None, (), 3, "scenario config must be a JSON object"),  # a top-level list
    # A bad --seed override stays a usage error, found before --out-dir exists.
    ({}, ("--seed", -1), 2, "seed must be >= 0, got -1"),
], ids=repr)
def test_bad_scenario_value_is_exit_3(tmp_path, capsys, edit, flags, code, message):
    # A scenario file meets the integer and real rules a flag meets. Before, seed
    # 3.7 ran as seed 3, "30" days as 30, and a 4-field regime or a top-level list
    # ended in a traceback with exit 1.
    scenario = tmp_path / "scenario.json"
    doc = [SCENARIO] if edit is None else dict(SCENARIO, **edit)
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert run("synth", "--scenario", scenario, *flags, "--out-dir", out) == code
    err = capsys.readouterr().err
    assert f"error: {f'{scenario}: ' if code == 3 else ''}{message}" in err
    assert "Traceback" not in err
    assert not out.exists()  # the scenario is read before --out-dir is made


def test_scenario_that_is_not_utf8_is_exit_3_before_any_io(tmp_path, capsys):
    # Before, a 0xff byte ended in a UnicodeDecodeError traceback, exit 1, and an
    # empty --out-dir.
    scenario = tmp_path / "scenario.json"
    scenario.write_bytes(b"\xff" + json.dumps(SCENARIO).encode())
    out = tmp_path / "out"
    assert run("synth", "--scenario", scenario, "--out-dir", out) == 3
    err = capsys.readouterr().err
    assert f"error: {scenario}: invalid JSON: " in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["portfolio", "synth"])
def test_negative_seed_flag_is_exit_2_before_any_io(tmp_path, synth_dir, capsys, command):
    inputs = ("--prices", synth_dir / "prices.csv") if command == "portfolio" else ()
    out = tmp_path / "out"
    assert run(command, *inputs, "--seed", -1, "--out-dir", out) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,key", [
    ("entropy", "event_date"),
    ("entropy", "stabilized_start"),
    ("portfolio", "event_date"),
])
def test_rerun_bad_date_is_exit_2_before_any_io(tmp_path, synth_dir, capsys, command, key):
    # A manifest run with an event date, then edited: before, the bad date ended
    # in a ValueError traceback and exit 1.
    event = json.loads((synth_dir / "truth.json").read_text())["event_date"]
    extra = ("--seed", 1, "--portfolios", 5) if command == "portfolio" else ()
    first = tmp_path / "first"
    assert run(command, "--prices", synth_dir / "prices.csv", "--event-date", event, *extra,
               "--out-dir", first) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    manifest["config"][key] = "2025-13-45"
    if key == "stabilized_start":
        manifest["config"]["stabilized_end"] = "2025-12-31"
    edited = tmp_path / "edited_manifest.json"
    edited.write_text(json.dumps(manifest), encoding="utf-8")
    second = tmp_path / "second"
    assert run("rerun", "--manifest", edited, "--out-dir", second) == 2
    assert "'2025-13-45' is not an ISO date (YYYY-MM-DD)" in capsys.readouterr().err
    assert not second.exists()


@pytest.mark.parametrize("name", [
    "synth three-phase", "synth risk-study", "synth one-factor", "synth scenario",
    "gap", "gap by-sector", "entropy", "entropy event", "heatmap", "portfolio",
])
def test_manifest_contents(tmp_path, synth_dir, name):
    # The manifest lists every file the run wrote, and --out-dir holds nothing else.
    prices, meta = synth_dir / "prices.csv", synth_dir / "meta.csv"
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"n_assets": 4, "n_days": 30, "sectors": ["A", "A", "B", "B"],
                                    "regimes": [[1, 30, 0.01, 0.005, 0.01]]}), encoding="utf-8")
    event = json.loads((synth_dir / "truth.json").read_text())["event_date"]
    market = ("--prices", prices, "--meta", meta, "--window", 30)
    argv, inputs = {
        "synth three-phase": (("synth", "--preset", "three-phase"), []),
        "synth risk-study": (("synth", "--preset", "risk-study", "--seed", 5), []),
        "synth one-factor": (("synth", "--preset", "one-factor"), []),
        "synth scenario": (("synth", "--scenario", scenario), [scenario]),
        "gap": (("gap", "--prices", prices, "--window", 30), [prices]),
        "gap by-sector": (("gap", *market, "--by-sector"), [prices, meta]),
        "entropy": (("entropy", *market), [prices, meta]),
        "entropy event": (("entropy", *market, "--event-date", event), [prices, meta]),
        "heatmap": (("heatmap", *market), [prices, meta]),
        "portfolio": (("portfolio", "--prices", prices, "--meta", meta, "--seed", 1,
                       "--portfolios", 5, "--event-date", event), [prices, meta]),
    }[name]
    out = tmp_path / "out"
    assert run(*argv, "--out-dir", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == argv[0]
    assert manifest["version"]
    assert manifest["inputs"] == {str(path): digest(path) for path in inputs}
    assert "threads" not in manifest["config"]
    assert sorted(p.name for p in out.iterdir()) == sorted([*manifest["outputs"], "manifest.json"])
    if name == "gap":
        assert "gap_ALL.csv" in manifest["outputs"]


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
        "from marketgap.portfolio import Observations, quintile_report",
        "rng = np.random.default_rng(0)",
        "ends = np.array([date(2025, 1, 2 + k % 2) for k in range(20)], dtype='datetime64[D]')",
        "obs = Observations('M', ('A', 'B'), np.zeros(20, dtype=np.int64), ends,",
        "                   np.tile([0, 1], (20, 1)), *rng.normal(size=(5, 20)))",
        "report = quintile_report(obs, date(2025, 1, 3))",
        "assert 0.0 < report.spearman_delta_mvp.p_value < 1.0",
        "assert None not in (report.pre_shock_spearman, report.post_shock_spearman)",
        "assert 'scipy.stats' not in sys.modules",
    ])
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_cli_import_leaves_hashlib_unloaded():
    # hashlib maps OpenSSL, 3.6 MB of RSS, and only the manifest and `rerun`'s
    # input check take digests.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys\nimport marketgap.cli\nassert '_hashlib' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize("argv, kernel, openssl", [
    pytest.param(argv, kernel, openssl, id=name if openssl else f"{name}_default_cut")
    for openssl in (True, False) for name, argv, kernel in [
        ("gap_by_sector", ("gap", "--by-sector"), "gap_series"),
        ("heatmap", ("heatmap",), "monthly_sector_heatmap"),
        ("entropy", ("entropy", "--event-date", "event"), "entropy_series"),
        ("portfolio", ("portfolio", "--seed", "1"), "run_portfolio_study"),
    ]])
def test_manifest_is_written_once_the_results_are_gone(tmp_path, risk_dir, argv, kernel,
                                                       openssl):
    # Each market's returns and result are freed before the manifest takes its
    # digests, and OpenSSL is mapped only then, so it adds to a smaller heap
    # than the run's peak. Both markets of the risk-study preset are checked.
    # With the cut at 0 every input goes through hashlib, as an input at or
    # above the cut does; at the default cut the preset's inputs are below it,
    # so OpenSSL is never mapped.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    event = json.loads((risk_dir / "truth.json").read_text())["event_date"]
    argv = [event if a == "event" else a for a in argv]
    code = "\n".join([
        "import sys, weakref",
        "from marketgap import cli",
        f"if {openssl}: cli._BUILTIN_SHA256_BELOW = 0",
        "argv, kernel_name = sys.argv[1:-1], sys.argv[-1]",
        "kernel, refs, seen = getattr(cli, kernel_name), [], []",
        "class Rows(list):  # a list that takes weak references",
        "    pass",
        "def watched(returns, *args, **kwargs):",
        "    result = kernel(returns, *args, **kwargs)",
        "    if isinstance(result, list):",
        "        result = Rows(result)",
        "    held = result.observations if kernel_name == 'run_portfolio_study' else result",
        "    refs.extend([weakref.ref(returns), weakref.ref(held)])",
        "    return result",
        "setattr(cli, kernel_name, watched)",
        "manifest = cli._OutDir.manifest",
        "def checked(self, command, config):",
        "    assert '_hashlib' not in sys.modules",
        "    assert len(refs) == 4 and [r() for r in refs] == [None] * 4, refs",
        "    seen.append(command)",
        "    manifest(self, command, config)",
        "cli._OutDir.manifest = checked",
        "assert cli.main(argv) == 0",
        f"assert seen == argv[:1] and ('_hashlib' in sys.modules) == {openssl}",
    ])
    inputs = ["--prices", str(risk_dir / "prices.csv"), "--meta", str(risk_dir / "meta.csv")]
    subprocess.run([sys.executable, "-c", code, *argv, *inputs,
                    "--out-dir", str(tmp_path / "out"), kernel], env=env, check=True)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["inputs"] == {str(risk_dir / name): digest(risk_dir / name)
                                  for name in ("prices.csv", "meta.csv")}


def test_rerun_and_synth_of_small_inputs_leave_openssl_unmapped(tmp_path, risk_dir):
    # rerun checks its inputs' digests before the command runs; the risk-study
    # preset's files are below the default cut, so CPython's built-in SHA-256
    # takes them and OpenSSL stays unmapped. `synth` loads hashlib anyway, as
    # NumPy's random module imports hmac, which imports it; its scenario digest
    # must not call it.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    first = tmp_path / "first"
    assert run("gap", "--prices", risk_dir / "prices.csv", "--meta", risk_dir / "meta.csv",
               "--out-dir", first) == 0
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "n_assets": 4, "n_days": 30, "sectors": {"A": 2, "B": 2},
        "regimes": [[1, 30, 0.005, 0.004, 0.01]], "seed": 3}), encoding="utf-8")
    rerun, synth = tmp_path / "rerun", tmp_path / "synth"
    code = "\n".join([
        "import sys",
        "from marketgap.cli import main",
        "manifest, scenario, rerun, synth = sys.argv[1:]",
        "assert main(['rerun', '--manifest', manifest, '--out-dir', rerun]) == 0",
        "assert '_hashlib' not in sys.modules",
        "import hashlib",
        "def refuse(*args):",
        "    raise AssertionError('hashlib.sha256 called')",
        "hashlib.sha256 = refuse",
        "assert main(['synth', '--scenario', scenario, '--out-dir', synth]) == 0",
    ])
    subprocess.run([sys.executable, "-c", code, str(first / "manifest.json"), str(scenario),
                    str(rerun), str(synth)], env=env, check=True)
    for out, inputs in ((rerun, [risk_dir / "prices.csv", risk_dir / "meta.csv"]),
                        (synth, [scenario])):
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["inputs"] == {str(path): digest(path) for path in inputs}


def test_commands_without_a_portfolio_report_leave_scipy_unloaded(tmp_path):
    # No command imports SciPy: these run on NumPy alone, and so does the
    # portfolio report (see the next test).
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "\n".join([
        "import sys",
        "from marketgap.cli import main",
        "s = sys.argv[1] + '/synth'",
        "inputs = ['--prices', s + '/prices.csv', '--meta', s + '/meta.csv']",
        "for argv in (['synth', '--preset', 'one-factor'], ['gap', '--by-sector', *inputs],",
        "             ['heatmap', *inputs], ['entropy', *inputs]):",
        "    out = s if argv[0] == 'synth' else sys.argv[1] + '/' + argv[0]",
        "    assert main([*argv, '--out-dir', out]) == 0, argv",
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))",
        "assert not loaded, loaded",
    ])
    subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, check=True)


@pytest.mark.parametrize("blocked", [False, True], ids=["unloaded", "unimportable"])
def test_portfolio_report_runs_without_scipy(tmp_path, blocked):
    # The Spearman p-values come from an in-tree Student-t tail, so a portfolio
    # run loads no SciPy module, and runs where SciPy cannot be imported.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "\n".join([
        "import json, sys",
        "if sys.argv[2] == 'blocked':",
        "    sys.modules['scipy'] = None  # import scipy now raises ImportError",
        "from marketgap.cli import main",
        "s = sys.argv[1] + '/synth'",
        "assert main(['synth', '--preset', 'risk-study', '--out-dir', s]) == 0",
        "event = json.load(open(s + '/truth.json'))['event_date']",
        "assert main(['portfolio', '--prices', s + '/prices.csv', '--meta', s + '/meta.csv',",
        "             '--seed', '1', '--event-date', event,",
        "             '--out-dir', sys.argv[1] + '/portfolio']) == 0",
        "if sys.argv[2] != 'blocked':",
        "    loaded = sorted(m for m in sys.modules if m.startswith('scipy'))",
        "    assert not loaded, loaded",
    ])
    subprocess.run([sys.executable, "-c", code, str(tmp_path), "blocked" if blocked else "-"],
                   env=env, check=True)
    report = json.loads((tmp_path / "portfolio" / "report.json").read_text())
    assert all(0.0 <= m["spearman_delta_mvp"]["p_value"] <= 1.0
               for m in report["markets"].values())
