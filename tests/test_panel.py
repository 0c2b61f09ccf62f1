"""Panel ingestion, log returns, reference standardization, and rolling-window tests."""
import math
from datetime import date

import numpy as np
import pytest

from marketgap.errors import DataError, DegenerateWindowError, ParseError, UsageError
from marketgap.panel import (
    load_metadata,
    load_price_panel,
    log_returns,
    merge_panels,
    window_ends,
    write_price_panel,
)
from oracle import REASON_MISSING, REASON_ZERO_VARIANCE, standardize_window

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
    assert ("T0", REASON_ZERO_VARIANCE) in std.dropped


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
