"""Panel ingestion, log returns, reference standardization, and rolling-window tests."""
import csv
import io
import logging
import math
import tempfile
from datetime import date
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from marketgap import panel as panel_module
from marketgap.errors import DataError, DegenerateWindowError, ParseError, UsageError
from marketgap.panel import (
    load_metadata,
    load_price_panel,
    log_returns,
    merge_panels,
    window_ends,
    write_price_panel,
)
from oracle import REASON_ALL_EQUAL, REASON_MISSING, standardize_window

from conftest import make_panel, make_returns


# ---------- Loading ----------

def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_long_loader_three_rows(tmp_path):
    f = write(tmp_path / "p.csv",
              "date,ticker,close\n"
              "2025-01-02,A,100\n"
              "2025-01-03,A,101\n"
              "2025-01-02,B,50\n")
    p = load_price_panel(f)
    assert p.dates == [date(2025, 1, 2), date(2025, 1, 3)]
    assert p.tickers == ["A", "B"]
    assert p.close[0, 0] == 100 and p.close[1, 0] == 101 and p.close[0, 1] == 50
    assert np.isnan(p.close[1, 1])  # B missing on 2025-01-03


def test_long_loader_rejects_zero_price(tmp_path):
    f = write(tmp_path / "p.csv", "date,ticker,close\n2025-01-02,A,0\n")
    with pytest.raises(DataError):
        load_price_panel(f)


def test_long_loader_rejects_negative_price(tmp_path):
    f = write(tmp_path / "p.csv", "date,ticker,close\n2025-01-02,A,-3.5\n")
    with pytest.raises(DataError):
        load_price_panel(f)


def test_long_loader_parse_error_carries_line_number(tmp_path):
    f = write(tmp_path / "p.csv",
              "date,ticker,close\n2025-01-02,A,100\nnot-a-date,B,50\n")
    with pytest.raises(ParseError, match=":3:"):
        load_price_panel(f)


def test_long_loader_bad_header(tmp_path):
    f = write(tmp_path / "p.csv", "day,sym,price\n2025-01-02,A,100\n")
    with pytest.raises(ParseError, match=":1:"):
        load_price_panel(f)


def test_long_loader_conflicting_duplicate(tmp_path):
    f = write(tmp_path / "p.csv",
              "date,ticker,close\n2025-01-02,A,100\n2025-01-02,A,101\n")
    with pytest.raises(DataError, match="duplicate"):
        load_price_panel(f)


def test_long_loader_equal_duplicate_tolerated(tmp_path):
    f = write(tmp_path / "p.csv",
              "date,ticker,close\n2025-01-02,A,100\n2025-01-02,A,100\n")
    p = load_price_panel(f)
    assert p.shape == (1, 1)


def test_wide_loader_fixture_round_trip(tmp_path):
    # 750 dates x 120 tickers with scattered missing cells, rebuilt and compared
    # against the matrix the fixture was written from.
    rng = np.random.default_rng(42)
    n_dates, n_assets = 750, 120
    close = rng.uniform(10, 500, size=(n_dates, n_assets))
    close[rng.random(close.shape) < 0.03] = np.nan
    tickers = [f"T{j:03d}" for j in range(n_assets)]
    from conftest import weekdays
    dates = weekdays(date(2022, 1, 3), n_dates)
    lines = ["date," + ",".join(tickers)]
    for i, d in enumerate(dates):
        cells = ["" if np.isnan(close[i, j]) else repr(float(close[i, j]))
                 for j in range(n_assets)]
        lines.append(d.isoformat() + "," + ",".join(cells))
    f = write(tmp_path / "wide.csv", "\n".join(lines) + "\n")

    p = load_price_panel(f, layout="wide")
    assert p.shape == (750, 120)
    assert p.tickers == tickers and p.dates == dates
    assert np.array_equal(p.close, close, equal_nan=True)


def test_wide_loader_duplicate_columns(tmp_path):
    f = write(tmp_path / "w.csv", "date,A,A\n2025-01-02,1,2\n")
    with pytest.raises(DataError, match="duplicate"):
        load_price_panel(f, layout="wide")


def test_unknown_layout(tmp_path):
    f = write(tmp_path / "p.csv", "date,ticker,close\n2025-01-02,A,100\n")
    with pytest.raises(UsageError):
        load_price_panel(f, layout="sideways")


def test_metadata_loader_and_missing_ticker(tmp_path):
    prices = write(tmp_path / "p.csv",
                   "date,ticker,close\n2025-01-02,A,100\n2025-01-02,B,50\n")
    meta = write(tmp_path / "m.csv", "ticker,sector,market\nA,Tech,US\nB,Bank,US\n")
    p = load_price_panel(prices, metadata=meta)
    assert p.sector_of == {"A": "Tech", "B": "Bank"}
    assert p.market_of["A"] == "US"
    assert load_metadata(meta)["A"] == ("Tech", "US")

    partial = write(tmp_path / "m2.csv", "ticker,sector,market\nA,Tech,US\n")
    with pytest.raises(DataError, match="metadata lacks"):
        load_price_panel(prices, metadata=partial)


def test_default_labels_without_metadata(tmp_path):
    f = write(tmp_path / "p.csv", "date,ticker,close\n2025-01-02,A,100\n")
    p = load_price_panel(f)
    assert p.sector_of["A"] == "UNKNOWN" and p.market_of["A"] == "ALL"


def test_long_round_trip_preserves_everything(tmp_path):
    rng = np.random.default_rng(7)
    close = rng.uniform(1, 50, size=(40, 7))
    close[rng.random(close.shape) < 0.1] = np.nan
    panel = make_panel(close)
    out = tmp_path / "roundtrip.csv"
    write_price_panel(panel, out)
    reloaded = load_price_panel(out)
    assert reloaded == panel


# ---------- The block reader against the csv path ----------

def strict_load(path):
    """load_price_panel with the block reader declining every file."""
    declined = panel_module._Declined("forced")
    with mock.patch.object(panel_module, "_read_long_blocks", side_effect=declined):
        return load_price_panel(path)


def outcome(load, path):
    """What a load gives: the panel's dates, tickers and bytes, or the exception."""
    try:
        p = load(path)
    except Exception as exc:  # every exception type must match, not only ours
        return ("raised", type(exc), str(exc))
    return ("loaded", p.dates, p.tickers, p.close.tobytes())


DATES = [date(2025, 1, 2), date(2025, 1, 3), date(2025, 1, 6), date(2025, 1, 7)]
TICKERS = ["A", "B", "C D", "Ω"]
# Prices and date texts that both paths take; "20250106" is a date only where
# date.fromisoformat takes the basic format (Python >= 3.11).
PRICES = ["100", "100.5", "7.25", "1e2", " 42 ", "1_0", "3.0000000000000004"]
DATE_FORMS = ["{}", "{}", " {}", "{} ", "{:%Y%m%d}"]
# Each fault makes a file that the block reader must hand to the csv path.
FAULTS = {
    "blank": lambda d, t, p: "",
    "blank_space": lambda d, t, p: " ",
    "two_fields": lambda d, t, p: f"{d},{t}",
    "four_fields": lambda d, t, p: f"{d},{t},{p},x",
    # "d,t,p,d2" then "t2,p2" splits into 6 fields, as two good rows would.
    "four_then_two": lambda d, t, p: f"{d},{t},{p},2025-01-08\nE,{p}",
    "two_then_four": lambda d, t, p: f"{d},{t}\n{p},2025-01-08,E,{p}",
    "quoted": lambda d, t, p: f'{d},"{t}",{p}',
    "quoted_comma": lambda d, t, p: f'{d},"a,b",{p}',
    "quoted_quote": lambda d, t, p: f'{d},"q""x",{p}',
    "padded_ticker": lambda d, t, p: f"{d}, P,{p}",
    "empty_ticker": lambda d, t, p: f"{d},,{p}",
    "bad_date": lambda d, t, p: f"2025-13-01,{t},{p}",
    "no_date": lambda d, t, p: f"not-a-date,{t},{p}",
    "lone_cr": lambda d, t, p: f"{d},{t},{p}\r{d},F,{p}",
    # The csv path ends a line at the \r; the date before it would parse.
    "cr_after_date": lambda d, t, p: f"{d}\r,{t},{p}",
    "nan": lambda d, t, p: f"{d},{t},nan",
    "inf": lambda d, t, p: f"{d},{t},inf",
    "huge": lambda d, t, p: f"{d},{t},1e400",
    "zero": lambda d, t, p: f"{d},{t},0",
    "negative": lambda d, t, p: f"{d},{t},-3",
    "word": lambda d, t, p: f"{d},{t},abc",
    "empty_price": lambda d, t, p: f"{d},{t},",
    "conflicting_duplicate": lambda d, t, p: f"{d},{t},{p}\n{d},{t},{p}1",
}


def _date_text(d: date, form: str) -> str:
    text = form.format(d)
    try:
        date.fromisoformat(text.strip())
    except ValueError:  # the basic format before Python 3.11
        return d.isoformat()
    return text


@st.composite
def long_files(draw):
    """(file text, plain): a random long file, and whether the block reader must take it.

    The rows of a plain file hold values both paths take, and a repeated
    (date, ticker) key repeats its price, maybe with another date text; a
    file with faults adds 1 or 2 lines from FAULTS.
    """
    header = draw(st.sampled_from(["date,ticker,close", "Date, Ticker ,CLOSE"]))
    keys = draw(st.lists(st.tuples(st.sampled_from(DATES), st.sampled_from(TICKERS)),
                         unique=True, max_size=16))
    keys += draw(st.lists(st.sampled_from(keys), max_size=2)) if keys else []
    price = {key: draw(st.sampled_from(PRICES)) for key in keys}
    lines = [header] + [
        f"{_date_text(d, draw(st.sampled_from(DATE_FORMS)))},{t},{price[d, t]}"
        for d, t in draw(st.permutations(keys))]
    faults = [draw(st.sampled_from(sorted(FAULTS)))
              for _ in range(draw(st.sampled_from([0, 0, 1, 1, 1, 2])))]
    for fault in faults:
        row = FAULTS[fault]("2025-01-09", draw(st.sampled_from(TICKERS)),
                            draw(st.sampled_from(PRICES)))
        lines.insert(draw(st.integers(1, len(lines))), row)
    if draw(st.integers(0, 9)) == 0:
        lines[0] = draw(st.sampled_from(["day,sym,price", "date\r,ticker,close"]))
        faults.append("header")
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(line.replace("\n", eol) for line in lines)
    if draw(st.booleans()):
        text += eol
    return text, not faults


@settings(max_examples=600, deadline=None, database=None)
@given(case=long_files(), block=st.sampled_from([1, 2, 7, 29, 64] + [1 << 20] * 5))
def test_long_loader_matches_csv_path(case, block):
    text, plain = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = outcome(strict_load, path)
        spy = mock.patch.object(panel_module, "_load_long", wraps=panel_module._load_long)
        with mock.patch.object(panel_module, "_BLOCK_BYTES", block), spy as load_long:
            got = outcome(load_price_panel, path)
    assert got == expected
    if plain:  # the block reader took the file itself
        assert load_long.call_count == 0, text


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
@pytest.mark.parametrize("fault", sorted(FAULTS) + ["header", "header_cr", "header_long"])
def test_long_loader_hands_every_fault_to_the_csv_path(tmp_path, fault, eol):
    # The long header is past the csv field size limit, which the csv path
    # rejects even though the header strips to the long one.
    header = {"header": "day,sym,price", "header_cr": "date\r,ticker,close",
              "header_long": "date" + " " * 140_000 + ",ticker,close"}
    lines = [header.get(fault, "date,ticker,close"), "2025-01-02,A,100",
             FAULTS.get(fault, "{},{},{}".format)("2025-01-09", "B", "7.25"),
             "2025-01-03,A,101"]
    f = tmp_path / "p.csv"
    f.write_bytes((eol.join(line.replace("\n", eol) for line in lines) + eol).encode("utf-8"))
    expected = outcome(strict_load, f)
    with mock.patch.object(panel_module, "_load_long", wraps=panel_module._load_long) as spy:
        assert outcome(load_price_panel, f) == expected
    assert spy.call_count == 1


def test_long_loader_reads_multi_block_files_itself(tmp_path):
    # More than one default block, CRLF ends, and rows cut at block boundaries.
    rng = np.random.default_rng(8)
    close = rng.uniform(1, 500, size=(260, 150))
    close[rng.random(close.shape) < 0.05] = np.nan
    original = make_panel(close, tickers=[f"S{j:03d}" for j in range(150)])
    path = tmp_path / "p.csv"
    write_price_panel(original, path)
    assert path.stat().st_size > 1 << 20
    with mock.patch.object(panel_module, "_load_long") as load_long:
        assert load_price_panel(path) == original
    assert load_long.call_count == 0


def test_long_loader_leaves_fields_beyond_the_csv_limit_to_csv(tmp_path):
    f = write(tmp_path / "p.csv", f"date,ticker,close\n2025-01-02,{'T' * 140_000},1\n")
    assert outcome(load_price_panel, f) == outcome(strict_load, f)


def test_line_blocks_decline_a_long_line_before_buffering_the_file():
    # Lone-CR line ends leave the block reader no LF to cut at.
    fh = io.BytesIO(b"2025-01-02,A,100\r" * 400_000)
    with pytest.raises(panel_module._Declined, match="field size limit"):
        list(panel_module._line_blocks(fh))
    assert fh.tell() <= csv.field_size_limit() + panel_module._BLOCK_BYTES


def test_long_loader_logs_why_it_declines(tmp_path, caplog):
    f = write(tmp_path / "p.csv", 'date,ticker,close\n2025-01-02,"A",100\n')
    with caplog.at_level(logging.DEBUG, logger="marketgap"):
        p = load_price_panel(f)
    assert p.tickers == ["A"]
    assert "block reader declined (a quote character)" in caplog.text


# ---------- The writer against csv.writer ----------

WRITER_TICKERS = ["A", "B2", "a,b", 'q"x', "C D", " P", ""]


@st.composite
def writer_panels(draw):
    tickers = draw(st.lists(st.sampled_from(WRITER_TICKERS), min_size=1, max_size=6,
                            unique=True))
    n_dates = draw(st.integers(1, 8))
    values = draw(st.lists(
        st.one_of(st.floats(1e-6, 1e6), st.just(math.nan), st.sampled_from([0.1, 1.0, 1e-5])),
        min_size=n_dates * len(tickers), max_size=n_dates * len(tickers)))
    close = np.array(values).reshape(n_dates, len(tickers))
    if draw(st.booleans()):
        close[draw(st.integers(0, n_dates - 1))] = np.nan  # an all-NaN row
    return make_panel(close, tickers=tickers)


@settings(max_examples=150, deadline=None, database=None)
@given(p=writer_panels())
def test_writer_matches_csv_writer_and_round_trips(p):
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp) / "ours.csv", Path(tmp) / "theirs.csv"
        write_price_panel(p, ours)
        oracle.write_price_panel(p, theirs)
        assert ours.read_bytes() == theirs.read_bytes()

        # What loads back: the rows and columns that hold a price, under sorted
        # tickers. The loader strips padding and refuses an empty ticker.
        if all(t and t == t.strip() for t in p.tickers) and np.isfinite(p.close).any():
            order = sorted((t, j) for j, t in enumerate(p.tickers)
                           if np.isfinite(p.close[:, j]).any())
            close = p.close[:, [j for _, j in order]]
            rows = np.isfinite(close).any(axis=1)
            tickers = [t for t, _ in order]
            expected = panel_module.PricePanel(
                [d for d, r in zip(p.dates, rows) if r], tickers, close[rows],
                {t: "UNKNOWN" for t in tickers}, {t: "ALL" for t in tickers})
            assert load_price_panel(ours) == expected


def test_market_panel_uses_own_calendar():
    # Ticker B (market M2) is missing on the middle date: M2's calendar drops it.
    close = np.array([[100.0, 10.0], [101.0, np.nan], [102.0, 11.0]])
    panel = make_panel(close, tickers=["A", "B"],
                       market={"A": "M1", "B": "M2"})
    sub = panel.market_panel("M2")
    assert sub.tickers == ["B"]
    assert len(sub.dates) == 2  # middle date dropped
    with pytest.raises(DataError):
        panel.market_panel("M3")


def test_merge_panels_checks():
    a = make_panel(np.full((3, 1), 100.0), tickers=["A"])
    b = make_panel(np.full((3, 1), 50.0), tickers=["B"])
    merged = merge_panels([a, b])
    assert merged.tickers == ["A", "B"]
    with pytest.raises(DataError, match="duplicate"):
        merge_panels([a, a])
    c = make_panel(np.full((4, 1), 50.0), tickers=["C"])
    with pytest.raises(DataError, match="date axes"):
        merge_panels([a, c])


# ---------- Log returns ----------

def test_log_returns_identity_and_e():
    panel = make_panel(np.array([[100.0, 100.0], [100.0, 100.0 * math.e]]))
    r = log_returns(panel)
    assert r.values[0, 0] == 0.0
    assert r.values[0, 1] == 1.0  # ln(e) exactly
    assert r.dates == panel.dates[1:]


def test_log_returns_ln_1_01():
    panel = make_panel(np.array([[100.0], [101.0]]))
    r = log_returns(panel)
    assert r.values[0, 0] == pytest.approx(math.log(1.01), abs=1e-15)


def test_log_returns_missing_propagates():
    panel = make_panel(np.array([[100.0], [np.nan], [102.0]]))
    r = log_returns(panel)
    assert np.isnan(r.values).all()  # both returns touch the missing price


def test_log_returns_needs_two_dates():
    with pytest.raises(DataError):
        log_returns(make_panel(np.array([[100.0]])))


def test_price_reconstruction_round_trip():
    rng = np.random.default_rng(11)
    close = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, size=(120, 5)), axis=0))
    panel = make_panel(close)
    r = log_returns(panel)
    rebuilt = close[0] * np.exp(np.cumsum(r.values, axis=0))
    rel = np.abs(rebuilt - close[1:]) / close[1:]
    assert rel.max() < 1e-12


# ---------- Standardization ----------

# These pin the per-asset reference in oracle.py that the batched kernel in
# `spectral.rolling_spectra` is checked against (see test_spectral).

def test_standardize_1_2_3_under_population_variance():
    # For (1, 2, 3): population variance = 2/3, so the z-scores are
    # (-a, 0, a) with a = 1 / sqrt(2/3) = sqrt(3/2).
    a = math.sqrt(1.5)
    returns = make_returns(np.column_stack([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]]))
    std = standardize_window(returns, 0, 3)
    np.testing.assert_allclose(std.values[0], [-a, 0.0, a], atol=1e-12)
    assert abs(std.values[0].mean()) < 1e-12
    assert abs(np.mean(std.values[0] ** 2) - 1.0) < 1e-9


def test_standardize_drops_constant_asset_with_reason():
    returns = make_returns(np.column_stack([
        [0.01, 0.01, 0.01, 0.01],
        [0.01, -0.02, 0.03, 0.0],
        [0.0, 0.01, -0.01, 0.02],
    ]))
    std = standardize_window(returns, 0, 4)
    assert std.assets == ["T1", "T2"]
    assert ("T0", REASON_ALL_EQUAL) in std.dropped


def test_standardize_drops_incomplete_asset_with_reason():
    values = np.column_stack([
        [0.01, np.nan, 0.03, 0.0],
        [0.01, -0.02, 0.03, 0.0],
        [0.0, 0.01, -0.01, 0.02],
    ])
    std = standardize_window(make_returns(values), 0, 4)
    assert ("T0", REASON_MISSING) in std.dropped
    assert std.n_assets == 2


def test_standardize_no_drop_keeps_all_assets():
    rng = np.random.default_rng(3)
    returns = make_returns(rng.normal(0, 0.01, size=(10, 6)))
    std = standardize_window(returns, 0, 10)
    assert std.n_assets == 6 and std.dropped == []


def test_standardize_degenerate_when_fewer_than_two_survive():
    returns = make_returns(np.column_stack([
        [0.01, 0.01, 0.01],
        [0.01, -0.02, 0.03],
    ]))
    with pytest.raises(DegenerateWindowError):
        standardize_window(returns, 0, 3)


def test_standardize_rows_are_zero_mean_unit_variance_random():
    rng = np.random.default_rng(99)
    for _ in range(25):
        n_dates = int(rng.integers(5, 80))
        n_assets = int(rng.integers(2, 12))
        returns = make_returns(rng.normal(0, 0.02, size=(n_dates, n_assets)))
        std = standardize_window(returns, 0, n_dates)
        means = std.values.mean(axis=1)
        variances = np.mean(std.values ** 2, axis=1)
        assert np.abs(means).max() < 1e-12
        assert np.abs(variances - 1.0).max() < 1e-9


# ---------- Rolling windows ----------

def brute_force_window_ends(n, length, step):
    return [e for e in range(length, n + 1) if (e - length) % step == 0]


def test_rolling_windows_boundary_exactly_one():
    assert window_ends(60, 60, 1).tolist() == [60]


def test_rolling_windows_62_days():
    assert window_ends(62, 60, 1).tolist() == [60, 61, 62]


def test_rolling_windows_200_60_20_brute_force():
    ends = window_ends(200, 60, 20)
    assert ends.tolist() == brute_force_window_ends(200, 60, 20)
    assert len(ends) == 8


def test_rolling_windows_too_short_is_empty():
    ends = window_ends(10, 60, 1)
    assert ends.size == 0 and ends.dtype.kind == "i"


def test_rolling_windows_step_spacing_property():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(3, 300))
        length = int(rng.integers(3, 80))
        step = int(rng.integers(1, 25))
        ends = window_ends(n, length, step)
        assert ends.tolist() == brute_force_window_ends(n, length, step)
        assert np.all(np.diff(ends) == step)
        assert np.all(ends - length >= 0) and np.all(ends <= n)


def test_rolling_windows_validation():
    with pytest.raises(UsageError, match="window length must be >= 3, got 2"):
        window_ends(10, 2, 1)
    with pytest.raises(UsageError, match="window step must be >= 1, got 0"):
        window_ends(10, 5, 0)
