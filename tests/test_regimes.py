"""Gap-series, phase-segmentation, and heatmap tests."""
from datetime import date

import numpy as np
import pytest

from marketgap.errors import DataError, UsageError
from marketgap.ordinal import entropy_series
from marketgap.panel import log_returns
from marketgap.regimes import (
    GapConfig,
    SegmentationParams,
    gap_series,
    monthly_sector_heatmap,
    phase_segmentation,
)
from marketgap.synth import RegimeSpec, SynthConfig, generate_factor_panel, one_factor_config

from conftest import make_returns, weekdays


# ---------- Gap series ----------

def test_gap_series_equicorrelated_panel_small_delta():
    # One-factor uniform-loading panel (population correlation 0.30): the gap
    # stays within the sampling band at T=60, validated offline by a
    # 10,000-window simulation (max |delta| = 0.0204).
    panel = generate_factor_panel(one_factor_config(n_assets=30, n_days=320))
    series = gap_series(log_returns(panel), GapConfig(window=60, step=1))
    assert len(series.summaries) > 200
    assert np.abs(series.deltas).max() < 0.05


def test_gap_series_two_regime_ordering():
    # Weak factor first, strong factor second: the gap shrinks on average in
    # the strong-factor segment.
    cfg = SynthConfig(
        n_assets=40,
        n_days=400,
        sectors=["A2"] * 20 + ["B2"] * 20,
        market_loadings=np.random.default_rng(1).uniform(0.3, 1.7, 40),
        sector_loadings=np.full(40, 1.0),
        regimes=[
            RegimeSpec(1, 200, 0.003, 0.012, 0.010),
            RegimeSpec(201, 400, 0.050, 0.002, 0.003),
        ],
        seed=12,
    )
    panel = generate_factor_panel(cfg)
    returns = log_returns(panel)
    series = gap_series(returns, GapConfig(window=60, step=1))
    weak = [s.delta for s in series.summaries if s.end_date <= panel.dates[199]]
    strong = [s.delta for s in series.summaries if s.end_date >= panel.dates[260]]
    assert np.mean(strong) < np.mean(weak)


def test_gap_series_window_larger_than_panel_is_empty():
    returns = make_returns(np.random.default_rng(0).normal(0, 0.01, size=(30, 5)))
    series = gap_series(returns, GapConfig(window=60))
    assert series.summaries == [] and series.dropped == []


def test_gap_series_reports_dropped_windows():
    rng = np.random.default_rng(2)
    values = rng.normal(0, 0.01, size=(40, 2))
    values[10:20, 0] = np.nan  # only one asset left in windows touching the gap
    series = gap_series(make_returns(values), GapConfig(window=10, step=1))
    assert len(series.dropped) > 0
    assert all("assets" in d.reason for d in series.dropped)
    assert len(series.summaries) + len(series.dropped) == 40 - 10 + 1


def test_gap_series_window_subset_invariant():
    # Each window's summary depends on its own rows only: a coarser step
    # reproduces every k-th summary of the daily series exactly.
    panel = generate_factor_panel(one_factor_config(n_assets=15, n_days=150))
    returns = log_returns(panel)
    daily = gap_series(returns, GapConfig(window=30, step=1))
    assert not daily.dropped
    for k in (2, 3, 7):
        coarse = gap_series(returns, GapConfig(window=30, step=k))
        assert coarse.summaries == daily.summaries[::k]


def test_gap_series_dates_strictly_increasing_uniform_step():
    panel = generate_factor_panel(one_factor_config(n_assets=10, n_days=120))
    returns = log_returns(panel)
    series = gap_series(returns, GapConfig(window=20, step=3))
    idx = [returns.dates.index(d) for d in series.dates]
    assert all(b - a == 3 for a, b in zip(idx, idx[1:]))


def test_gap_config_validation():
    with pytest.raises(UsageError):
        GapConfig(rho_mode="median")
    with pytest.raises(UsageError):
        GapConfig(norm_mode="other")


# ---------- Phase segmentation ----------

def entropy_like(values, start=date(2025, 1, 2)):
    values = np.asarray(values, dtype=float)
    return weekdays(start, len(values)), values


def test_segmentation_jump_and_stay_ends_false_recovery():
    # 30 low days, then above threshold forever: false recovery ends the day
    # before the jump.
    dates, values = entropy_like([0.5] * 30 + [1.4] * 40)
    phases = phase_segmentation(dates, values, dates[10],
                                params=SegmentationParams(sustain_days=20))
    assert phases.threshold_met
    assert phases.sustained_start == dates[30]
    assert phases.false_recovery == (dates[13], dates[29])
    assert phases.stabilized == (dates[30], dates[-1])


def test_segmentation_never_exceeding_threshold_sets_warning():
    dates, values = entropy_like([0.5] * 60)
    phases = phase_segmentation(dates, values, dates[10])
    assert not phases.threshold_met
    assert phases.false_recovery == (dates[13], dates[-1])
    assert phases.stabilized is None and phases.sustained_start is None


@pytest.mark.parametrize("values", [[0.5] * 60, [0.5] * 30 + [1.4] * 30],
                         ids=["threshold_never_met", "threshold_met"])
def test_segmentation_rejects_reversed_stabilized_interval(values):
    dates, values = entropy_like(values)
    params = SegmentationParams(stabilized=(dates[-1], dates[40]))
    with pytest.raises(DataError, match="reversed"):
        phase_segmentation(dates, values, dates[10], params=params)


def test_segmentation_ties_at_threshold_do_not_count():
    # Exactly 1.0 is not "strictly above"; the run never qualifies.
    dates, values = entropy_like([0.5] * 10 + [1.0] * 50)
    phases = phase_segmentation(dates, values, dates[5])
    assert not phases.threshold_met


def test_segmentation_shock_window_and_pre_interval():
    dates, values = entropy_like([0.5] * 40 + [1.5] * 40)
    phases = phase_segmentation(dates, values, dates[20])
    assert phases.shock == (dates[18], dates[22])
    assert phases.pre_shock == (dates[0], dates[17])
    assert phases.shock[0] <= phases.event_date <= phases.shock[1]


def test_segmentation_event_outside_range_is_data_error():
    dates, values = entropy_like([1.2] * 30)
    with pytest.raises(DataError, match="outside series range"):
        phase_segmentation(dates, values, date(2030, 1, 1))


def test_segmentation_event_near_edge_needs_margin():
    dates, values = entropy_like([1.2] * 30)
    with pytest.raises(DataError, match="trading days"):
        phase_segmentation(dates, values, dates[0])


def test_segmentation_snaps_weekend_event_to_next_trading_day():
    dates, values = entropy_like([0.5] * 30 + [1.4] * 30)
    saturday = date(2025, 1, 11)
    assert saturday.weekday() == 5 and saturday not in dates
    phases = phase_segmentation(dates, values, saturday)
    monday = date(2025, 1, 13)
    assert phases.shock[0] < monday < phases.shock[1]


def test_segmentation_idempotent_and_non_overlapping():
    rng = np.random.default_rng(44)
    dates, values = entropy_like(
        np.concatenate([rng.uniform(1.2, 1.7, 50), rng.uniform(0.2, 0.8, 20),
                        rng.uniform(0.9, 1.3, 40), rng.uniform(1.2, 1.7, 40)])
    )
    p1 = phase_segmentation(dates, values, dates[52])
    p2 = phase_segmentation(dates, values, dates[52])
    assert p1 == p2
    chain = [p1.pre_shock, p1.shock, p1.false_recovery]
    if p1.threshold_met and p1.stabilized:
        chain.append(p1.stabilized)
    chain = [iv for iv in chain if iv]
    for a, b in zip(chain, chain[1:]):
        assert a[1] < b[0]


def test_segmentation_fixed_calendar_mode():
    dates, values = entropy_like([1.2] * 120)
    intervals = {
        "pre_shock": (dates[0], dates[39]),
        "shock": (dates[40], dates[44]),
        "false_recovery": (dates[45], dates[79]),
        "stabilized": (dates[80], dates[119]),
    }
    phases = phase_segmentation(dates, values, dates[42], rule="fixed_calendar",
                                params=SegmentationParams(fixed_intervals=intervals))
    assert phases.shock == intervals["shock"]
    assert phases.stabilized == intervals["stabilized"]

    bad = dict(intervals, shock=(dates[50], dates[54]))  # event outside shock
    with pytest.raises(DataError):
        phase_segmentation(dates, values, dates[42], rule="fixed_calendar",
                           params=SegmentationParams(fixed_intervals=bad))
    with pytest.raises(UsageError):
        phase_segmentation(dates, values, dates[42], rule="fixed_calendar")
    with pytest.raises(UsageError):
        phase_segmentation(dates, values, dates[42], rule="bayesian")


def test_segmentation_matches_scripted_scenario(three_phase):
    returns = log_returns(three_phase.panel)
    series = entropy_series(returns, length=60)
    phases = phase_segmentation(series.dates, series.values,
                                three_phase.truth.event_date)
    assert phases.threshold_met
    detected = series.dates.index(phases.sustained_start)
    target = series.dates.index(three_phase.truth.entropy_boundary)
    assert abs(detected - target) <= 1


def test_robustness_pre_gap_exceeds_shock_gap_for_all_window_lengths(three_phase):
    returns = log_returns(three_phase.panel)
    truth = three_phase.truth
    for window in (30, 60, 90):
        series = gap_series(returns, GapConfig(window=window, step=1))
        pre, shock = [], []
        for s in series.summaries:
            end_idx = returns.dates.index(s.end_date)
            start_date = returns.dates[end_idx - window + 1]
            if start_date >= truth.pre[0] and s.end_date <= truth.pre[1]:
                pre.append(s.delta)
            elif start_date >= truth.shock[0] and s.end_date <= truth.shock[1]:
                shock.append(s.delta)
        assert np.mean(pre) > np.mean(shock)


# ---------- Heatmap ----------

def test_heatmap_cells_are_monthly_means():
    panel = generate_factor_panel(one_factor_config(n_assets=8, n_days=140))
    returns = log_returns(panel)
    sector_of = {t: "ONLY" for t in returns.tickers}
    cfg = GapConfig(window=30, step=1)
    grid = monthly_sector_heatmap(returns, sector_of, cfg)
    assert grid.sectors == ["ONLY"]

    series = gap_series(returns, cfg)
    by_month = {}
    for s in series.summaries:
        by_month.setdefault(f"{s.end_date.year:04d}-{s.end_date.month:02d}", []).append(
            s.lambda_norm
        )
    assert set(grid.months) == set(by_month)
    for month, vals in by_month.items():
        cell = grid.mean_lambda_norm[("ONLY", month)]
        assert cell == pytest.approx(np.mean(vals), abs=1e-12)
        assert min(vals) - 1e-12 <= cell <= max(vals) + 1e-12  # convex combination
        assert grid.window_count[("ONLY", month)] == len(vals)
        assert 0.0 <= cell <= 1.0


def test_heatmap_sector_local_shock_is_row_maximum():
    # Hand-built returns: sector A synchronizes during one month, B never does.
    rng = np.random.default_rng(6)
    n_dates = 120
    values = rng.normal(0, 0.01, size=(n_dates, 10))
    dates = weekdays(date(2025, 1, 2), n_dates)
    shock_rows = [i for i, d in enumerate(dates) if (d.year, d.month) == (2025, 4)]
    common = rng.normal(0, 0.05, size=len(shock_rows))
    for col in range(5):  # sector A columns
        values[shock_rows, col] += common
    returns = make_returns(values)
    sector_of = {f"T{j}": ("A" if j < 5 else "B") for j in range(10)}
    grid = monthly_sector_heatmap(returns, sector_of, GapConfig(window=20, step=1))
    row_a = {m: grid.mean_lambda_norm[("A", m)] for m in grid.months
             if ("A", m) in grid.mean_lambda_norm}
    assert max(row_a, key=row_a.get) in ("2025-04", "2025-05")
    assert row_a["2025-04"] > grid.mean_lambda_norm[("B", "2025-04")]


def test_heatmap_month_without_window_ends_absent():
    panel = generate_factor_panel(one_factor_config(n_assets=6, n_days=70))
    returns = log_returns(panel)
    grid = monthly_sector_heatmap(returns, {t: "S" for t in returns.tickers},
                                  GapConfig(window=60, step=1))
    # 60-day windows only end in the last stretch: earliest months must be absent.
    first_month = f"{returns.dates[0].year:04d}-{returns.dates[0].month:02d}"
    assert first_month not in grid.months
    covered = {f"{d.year:04d}-{d.month:02d}" for d in returns.dates[59:]}
    assert set(grid.months) == covered


def test_heatmap_requires_sector_labels_and_two_tickers():
    returns = make_returns(np.random.default_rng(1).normal(0, 0.01, (30, 3)))
    with pytest.raises(DataError, match="no sector label"):
        monthly_sector_heatmap(returns, {"T0": "A", "T1": "A"}, GapConfig(window=10))
    with pytest.raises(DataError, match="need >= 2"):
        monthly_sector_heatmap(returns, {"T0": "A", "T1": "A", "T2": "B"},
                               GapConfig(window=10))


def test_heatmap_counts_omitted_windows():
    rng = np.random.default_rng(3)
    values = rng.normal(0, 0.01, size=(40, 4))
    values[: 25, 0] = np.nan
    values[: 25, 1] = np.nan  # sector A unusable until row 25
    returns = make_returns(values)
    sector_of = {"T0": "A", "T1": "A", "T2": "B", "T3": "B"}
    grid = monthly_sector_heatmap(returns, sector_of, GapConfig(window=10, step=1))
    assert grid.omitted_windows["A"] > 0
    assert grid.omitted_windows["B"] == 0
