"""Gap-series, phase-segmentation, phase-statistics and heatmap tests."""
import logging
import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from marketgap import regimes, spectral
from marketgap.cli import GAP_CSV_HEADER, _gap_rows
from marketgap.errors import DataError, UsageError
from marketgap.ordinal import entropy_series
from marketgap.panel import log_returns, window_ends
from marketgap.regimes import (
    GapConfig,
    PhaseWindows,
    SegmentationParams,
    gap_series,
    monthly_sector_heatmap,
    phase_segmentation,
    phase_statistics,
    sector_gap_series,
)
from marketgap.spectral import rolling_spectra
from marketgap.synth import (
    RegimeSpec,
    SynthConfig,
    generate_factor_panel,
    one_factor_config,
    three_phase_config,
    three_phase_scenario,
)

from conftest import MAX_ENTROPY, make_panel, make_returns, weekdays


# ---------- Gap series ----------

def test_gap_series_equicorrelated_panel_small_delta():
    # One-factor uniform-loading panel (population correlation 0.30): the gap
    # stays within the sampling band at T=60, validated offline by a
    # 10,000-window simulation (max |delta| = 0.0204).
    panel = generate_factor_panel(one_factor_config(n_assets=30, n_days=320))
    series = gap_series(log_returns(panel), GapConfig(window=60, step=1))
    assert len(series.dates) > 200
    assert np.abs(series.delta).max() < 0.05


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
    end = np.array(series.dates)
    weak = series.delta[end <= panel.dates[199]]
    strong = series.delta[end >= panel.dates[260]]
    assert np.mean(strong) < np.mean(weak)


def test_gap_series_window_larger_than_panel_is_empty():
    returns = make_returns(np.random.default_rng(0).normal(0, 0.01, size=(30, 5)))
    series = gap_series(returns, GapConfig(window=60))
    assert series.dates == [] and series.dropped == []
    assert all(getattr(series, key).size == 0 for key in ("n_assets", "delta", "mp_lower"))


def test_gap_series_reports_dropped_windows():
    rng = np.random.default_rng(2)
    values = rng.normal(0, 0.01, size=(40, 2))
    values[10:20, 0] = np.nan  # only one asset left in windows touching the gap
    series = gap_series(make_returns(values), GapConfig(window=10, step=1))
    assert len(series.dropped) > 0
    assert all("assets" in d.reason for d in series.dropped)
    assert len(series.dates) + len(series.dropped) == 40 - 10 + 1


def test_gap_series_logs_asset_drop_totals(caplog):
    values = np.random.default_rng(3).normal(0, 0.01, size=(30, 4))
    values[5:8, 0] = np.nan  # missing in the windows ending at rows 10 and 15
    values[:, 1] = 0.0  # all-equal in all five windows
    with caplog.at_level(logging.INFO, logger="marketgap"):
        gap_series(make_returns(values), GapConfig(window=10, step=5))
    assert ("gap series dropped assets from its windows: 2 for missing data, "
            "5 for all-equal returns") in caplog.text


def test_gap_series_window_subset_invariant():
    # Each window's statistics depend on its own rows only: a coarser step
    # reproduces every k-th row of the daily series exactly.
    panel = generate_factor_panel(one_factor_config(n_assets=15, n_days=150))
    returns = log_returns(panel)
    daily = gap_series(returns, GapConfig(window=30, step=1))
    assert not daily.dropped
    for k in (2, 3, 7):
        coarse = gap_series(returns, GapConfig(window=30, step=k))
        assert _gap_rows(coarse) == _gap_rows(daily)[::k]


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


@pytest.mark.parametrize("seed", range(8))
def test_sector_gap_series_matches_the_restricted_sector_panels(seed):
    # Without a date on which a whole sector is missing, a sector's columns of
    # the market's returns are the returns of its own prices, window for window.
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, 6, size=3)
    sector = [str(s) for s in rng.permutation(
        [f"S{k}" for k, size in enumerate(sizes) for _ in range(size)])]
    n_dates, n_assets = 90, len(sector)
    close = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, (n_dates, n_assets)), axis=0))
    close[:, rng.integers(n_assets)] = 50.0  # a flat asset
    close[rng.random((n_dates, n_assets)) < 0.08] = np.nan
    for k in range(len(sizes)):
        cols = [j for j, s in enumerate(sector) if s == f"S{k}"]
        for i in np.flatnonzero(np.isnan(close[:, cols]).all(axis=1)):
            close[i, cols[0]] = 100.0
    tickers = [f"T{j}" for j in range(n_assets)]
    panel = make_panel(close, tickers, sector=dict(zip(tickers, sector)))
    config = GapConfig(window=int(rng.integers(5, 25)), step=int(rng.integers(1, 4)),
                       rho_mode=("signed", "abs")[seed % 2])

    got = sector_gap_series(log_returns(panel), panel.sector_of, config)
    want = oracle.restricted_sector_gap_series(panel, config)
    assert list(got) == list(want) == ["S0", "S1", "S2"]
    for name in want:
        assert _gap_rows(got[name]) == _gap_rows(want[name])
        assert ([w.end_date for w in got[name].dropped]
                == [w.end_date for w in want[name].dropped])
    assert any(series.dropped for series in got.values())  # the holes leave windows short


def test_sector_gap_series_checks_every_sector_first():
    returns = make_returns(np.random.default_rng(1).normal(0, 0.01, (30, 4)))
    with pytest.raises(DataError, match=r"^sector 'B' has 1 ticker\(s\) \(T2\); need >= 2$"):
        sector_gap_series(returns, {"T0": "A", "T1": "A", "T2": "B", "T3": "C"},
                          GapConfig(window=10))
    with pytest.raises(DataError, match="no sector label for tickers: T3"):
        sector_gap_series(returns, {"T0": "A", "T1": "A", "T2": "B"}, GapConfig(window=10))


# ---------- One kernel pass for every sector ----------

@st.composite
def sector_panels(draw):
    """(returns, sector labels, window, step) of one market whose sectors interleave:
    NaN runs, a flat run, a date on which one sector is wholly missing, and a first
    sector with more tickers than the window length, so the n > T dual runs."""
    window = draw(st.integers(3, 10))
    n_dates = draw(st.integers(window, 45))
    sizes = [draw(st.integers(window + 1, window + 5)),
             *draw(st.lists(st.integers(2, 5), max_size=3))]
    labels = [f"S{k}" for k, size in enumerate(sizes) for _ in range(size)]
    labels = [labels[j] for j in draw(st.permutations(range(len(labels))))]
    n_assets = len(labels)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    loadings = rng.uniform(0.0, 1.5, n_assets)
    values = 0.01 * (rng.standard_normal((n_dates, n_assets))
                     + np.outer(rng.standard_normal(n_dates), loadings))
    runs = st.tuples(st.integers(0, n_assets - 1), st.integers(0, n_dates - 1),
                     st.integers(1, n_dates))
    for asset, start, length in draw(st.lists(runs, max_size=4)):
        values[start:start + length, asset] = np.nan
    asset, start, length = draw(runs)
    values[start:start + length, asset] = draw(st.sampled_from([0.0, 0.001]))
    hole = draw(st.sampled_from(sorted(set(labels))))
    values[draw(st.integers(0, n_dates - 1)), [s == hole for s in labels]] = np.nan
    returns = make_returns(values)
    return returns, dict(zip(returns.tickers, labels)), window, draw(st.integers(1, 3))


def assert_same_bits(a, b, label):
    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), label


@settings(max_examples=60, deadline=None, database=None)
@given(case=sector_panels(), rho_mode=st.sampled_from(["signed", "abs"]),
       norm_mode=st.sampled_from(["excess", "plain"]), chunk_bytes=st.sampled_from([1, 1 << 40]))
def test_sector_gap_series_is_the_per_sector_loop_bit_for_bit(case, rho_mode, norm_mode,
                                                              chunk_bytes):
    returns, sector_of, window, step = case
    config = GapConfig(window=window, step=step, rho_mode=rho_mode, norm_mode=norm_mode)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_CHUNK_BYTES", chunk_bytes)
        got = sector_gap_series(returns, sector_of, config)
    want = oracle.sector_gap_series(returns, sector_of, config)
    assert list(got) == list(want)
    for sector, series in want.items():
        assert got[sector].dates == series.dates
        for key in GAP_CSV_HEADER.split(",")[1:]:
            assert_same_bits(getattr(got[sector], key), getattr(series, key), (sector, key))
        assert ([w.end_date for w in got[sector].dropped]
                == [w.end_date for w in series.dropped])


@settings(max_examples=60, deadline=None, database=None)
@given(case=sector_panels(), chunk_bytes=st.sampled_from([1, 1 << 40]))
def test_each_group_of_a_kernel_call_is_a_call_on_its_columns(case, chunk_bytes):
    returns, sector_of, window, step = case
    groups = [[j for j, t in enumerate(returns.tickers) if sector_of[t] == sector]
              for sector in sorted(set(sector_of.values()))]
    groups.append(list(range(len(returns.tickers))))  # the market beside its sectors
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_CHUNK_BYTES", chunk_bytes)
        got = rolling_spectra(returns.values, window, step, groups)
    assert len(got) == len(groups)
    for cols, spectra in zip(groups, got):
        (alone,) = rolling_spectra(returns.values[:, cols], window, step)
        for name, a, b in zip(spectra._fields, spectra, alone):
            assert_same_bits(a, b, name)


@settings(max_examples=30, deadline=None, database=None)
@given(case=sector_panels())
def test_gap_series_with_sector_labels_is_the_market_and_its_sectors(case):
    returns, sector_of, window, step = case
    config = GapConfig(window=window, step=step)
    folded = gap_series(returns, config, sector_of)
    market = gap_series(returns, config)
    assert market.sectors == {}
    sectors = sector_gap_series(returns, sector_of, config)
    assert list(folded.sectors) == list(sectors)
    for label, got, want in [(None, folded, market),
                             *((s, folded.sectors[s], sectors[s]) for s in sectors)]:
        assert got.dates == want.dates
        assert got.dropped == want.dropped
        for key in GAP_CSV_HEADER.split(",")[1:]:
            assert_same_bits(getattr(got, key), getattr(want, key), (label, key))


def test_one_kernel_pass_serves_every_sector(monkeypatch):
    calls = []

    def spy(values, length, step=1, groups=None):
        calls.append(groups)
        return rolling_spectra(values, length, step, groups)

    monkeypatch.setattr(regimes, "rolling_spectra", spy)
    returns = make_returns(np.random.default_rng(4).normal(0, 0.01, (40, 7)))
    sector_of = {t: "ABC"[j % 3] for j, t in enumerate(returns.tickers)}
    config = GapConfig(window=10, step=3)
    assert list(sector_gap_series(returns, sector_of, config)) == ["A", "B", "C"]
    assert calls == [[[0, 3, 6], [1, 4], [2, 5]]]
    monthly_sector_heatmap(returns, sector_of, config)
    assert len(calls) == 2 and calls[1] == calls[0]
    series = gap_series(returns, config, sector_of)
    assert list(series.sectors) == ["A", "B", "C"]
    assert len(calls) == 3 and list(calls[2][0]) == list(range(7)) and calls[2][1:] == calls[0]


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


@pytest.mark.parametrize("kwargs", [
    {"threshold": math.nan}, {"threshold": math.inf}, {"threshold": -math.inf},
    {"shock_halfwidth": -1}, {"sustain_days": 0},
])
def test_segmentation_params_are_checked(kwargs):
    # A NaN threshold is never exceeded and would read as "threshold never met";
    # a half-width of -1 gave a reversed shock interval.
    with pytest.raises(UsageError):
        SegmentationParams(**kwargs)


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
        for end_date, delta in zip(series.dates, series.delta.tolist()):
            end_idx = returns.dates.index(end_date)
            start_date = returns.dates[end_idx - window + 1]
            if start_date >= truth.pre[0] and end_date <= truth.pre[1]:
                pre.append(delta)
            elif start_date >= truth.shock[0] and end_date <= truth.shock[1]:
                shock.append(delta)
        assert np.mean(pre) > np.mean(shock)


def test_gap_columns_follow_the_scripted_phases_on_twenty_seeds():
    # Per seed, the median of each column over the windows whose returns all
    # fall inside one scripted phase. The shock has one factor, so one
    # eigenvalue clears the Marchenko-Pastur band and the gap closes; the calm
    # phases carry the market and sector factors. The false recovery and the
    # resync (about 30 days each) hold windows of 20 days only.
    phases = ("pre", "shock", "false_recovery", "resync", "stabilized")
    for seed in range(1, 21):
        scenario = three_phase_scenario(three_phase_config(seed))
        returns = log_returns(scenario.panel)
        for window in (20, 60):
            series = gap_series(returns, GapConfig(window=window))
            ends = window_ends(returns.n_dates, window)
            assert series.dates == [returns.dates[end - 1] for end in ends.tolist()]
            delta, above = {}, {}
            for name in phases:
                start, end = getattr(scenario.truth, name)
                inside = [k for k, e in enumerate(ends.tolist())
                          if returns.dates[e - window] >= start and returns.dates[e - 1] <= end]
                if inside:
                    delta[name] = np.median(series.delta[inside])
                    above[name] = np.median(series.n_above_mp[inside])
            at = f"seed {seed}, window {window}"
            assert above["shock"] == 1, at
            assert above["pre"] >= 3 and above["stabilized"] >= 3, at
            assert delta["pre"] > 0 and delta["stabilized"] > 0, at
            assert delta["shock"] < min(delta["pre"], delta["stabilized"]), at
            if window == 20:
                assert delta["false_recovery"] > delta["resync"], at


# ---------- Phase statistics ----------

def phases_for(dates, splits):
    """Split a series' dates into four contiguous phases by index triples."""
    d = dates
    a, b, c = splits
    return PhaseWindows(
        pre_shock=(d[0], d[a - 1]),
        shock=(d[a], d[b - 1]),
        false_recovery=(d[b], d[c - 1]),
        stabilized=(d[c], d[-1]),
        event_date=d[a],
    )


def test_phase_statistics_constant_series():
    dates, values = entropy_like(np.full(40, 1.3))
    stats = phase_statistics(dates, values, phases_for(dates, (10, 20, 30)))
    for s in (stats.pre_shock, stats.shock, stats.false_recovery, stats.stabilized):
        assert s.mean_nats == pytest.approx(1.3, abs=1e-12)
        assert s.std_nats == pytest.approx(0.0, abs=1e-12)
    assert stats.false_recovery_p95_nats == pytest.approx(1.3, abs=1e-12)


def brute_force_percentile(values, pct):
    """Sort-and-interpolate oracle for the linear percentile definition."""
    srt = sorted(values)
    rank = (len(srt) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    frac = rank - lo
    return srt[lo] * (1 - frac) + srt[hi] * frac


def signed_gap_series():
    """The dates and delta of a gap series of both signs. Under `rho_mode="abs"`, two
    blocks loaded with opposite signs on one factor make the mean |rho| exceed the
    normalized lambda_max in some windows."""
    rng = np.random.default_rng(0)
    loadings = np.array([1.0] * 4 + [-1.0] * 4)
    x = rng.normal(0, 0.01, (60, 1)) * loadings + rng.normal(0, 0.01, (60, 8))
    series = gap_series(make_returns(x), GapConfig(window=10, rho_mode="abs"))
    assert (series.delta < 0).any() and (series.delta > 0).any()
    return series.dates, series.delta


def test_phase_statistics_percentile_matches_brute_force():
    rng = np.random.default_rng(29)
    dates, values = entropy_like(rng.uniform(0.2, 1.7, size=20))
    # false recovery spans the whole 20-point series via a 4-way split around it
    stats = phase_statistics(dates, values, phases_for(dates, (3, 5, 18)))
    fr_values = values[5:18]
    assert stats.false_recovery_p95_nats == pytest.approx(
        brute_force_percentile(fr_values, 95), abs=1e-12
    )
    assert stats.false_recovery.mean_nats == pytest.approx(np.mean(fr_values), abs=1e-12)
    assert stats.false_recovery.std_nats == pytest.approx(np.std(fr_values, ddof=1), abs=1e-12)

    # Each phase holds the values its interval selects date by date, for this
    # series and for a gap series' delta, which takes both signs.
    for dates, values, splits in ((dates, values, (3, 5, 18)),
                                  (*signed_gap_series(), (12, 17, 40))):
        phases = phases_for(dates, splits)
        stats = phase_statistics(dates, values, phases)
        for name in ("pre_shock", "shock", "false_recovery", "stabilized"):
            start, end = getattr(phases, name)
            selected = values[np.array([start <= d <= end for d in dates])]
            stat = getattr(stats, name)
            assert stat.n == selected.size >= 2
            assert stat.mean_nats == np.mean(selected)
            assert stat.std_nats == np.std(selected, ddof=1)
            if name == "false_recovery":
                assert stats.false_recovery_p95_nats == pytest.approx(
                    brute_force_percentile(selected, 95), abs=1e-12)


def test_phase_statistics_empty_phase_absent():
    dates, values = entropy_like(np.linspace(0.5, 1.5, 10))
    d = dates
    day = timedelta(days=1)
    phases = PhaseWindows(
        pre_shock=None,
        shock=(d[0], d[1]),
        false_recovery=(d[2] - day, d[6] + day),  # a Sunday to a Saturday: d[2] .. d[6]
        stabilized=(d[-1] + day, d[-1] + 30 * day),  # wholly after the series
        event_date=d[1],
    )
    stats = phase_statistics(dates, values, phases)
    assert stats.pre_shock is None
    assert stats.shock is not None
    assert stats.stabilized is None
    fr_values = values[2:7]
    assert stats.false_recovery.n == 5
    assert stats.false_recovery.mean_nats == float(np.mean(fr_values))
    assert stats.false_recovery.std_nats == float(np.std(fr_values, ddof=1))
    assert stats.false_recovery_p95_nats == float(np.percentile(fr_values, 95, method="linear"))


def test_phase_statistics_values_in_entropy_range(three_phase):
    returns = log_returns(three_phase.panel)
    series = entropy_series(returns, length=60)
    phases = phase_segmentation(series.dates, series.values, three_phase.truth.event_date)
    stats = phase_statistics(series.dates, series.values, phases)
    for s in (stats.pre_shock, stats.shock, stats.false_recovery, stats.stabilized):
        assert 0.0 <= s.mean_nats <= MAX_ENTROPY
        assert s.std_nats is None or 0.0 <= s.std_nats <= MAX_ENTROPY
    assert 0.0 <= stats.false_recovery_p95_nats <= MAX_ENTROPY


# ---------- Heatmap ----------

def heatmap_cells(rows):
    """{(sector, month): (mean lambda_norm, window count)} of the heatmap's rows."""
    return {(sector, month): (mean, count) for sector, month, mean, count in rows}


def test_heatmap_cells_are_monthly_means():
    panel = generate_factor_panel(one_factor_config(n_assets=8, n_days=140))
    returns = log_returns(panel)
    sector_of = {t: "ONLY" for t in returns.tickers}
    cfg = GapConfig(window=30, step=1)
    rows = monthly_sector_heatmap(returns, sector_of, cfg)
    assert {sector for sector, *_ in rows} == {"ONLY"}
    months = [month for _, month, *_ in rows]
    assert months == sorted(set(months))  # one row per month, in month order

    series = gap_series(returns, cfg)
    by_month = {}
    for end_date, lambda_norm in zip(series.dates, series.lambda_norm.tolist()):
        by_month.setdefault(f"{end_date.year:04d}-{end_date.month:02d}", []).append(lambda_norm)
    assert set(months) == set(by_month)
    for (_, month), (cell, count) in heatmap_cells(rows).items():
        vals = by_month[month]
        assert cell == pytest.approx(np.mean(vals), abs=1e-12)
        assert min(vals) - 1e-12 <= cell <= max(vals) + 1e-12  # convex combination
        assert count == len(vals)
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
    rows = monthly_sector_heatmap(returns, sector_of, GapConfig(window=20, step=1))
    assert [sector for sector, *_ in rows] == sorted(sector for sector, *_ in rows)
    row_a = {month: mean for sector, month, mean, _ in rows if sector == "A"}
    assert max(row_a, key=row_a.get) in ("2025-04", "2025-05")
    assert row_a["2025-04"] > heatmap_cells(rows)[("B", "2025-04")][0]


def test_heatmap_month_without_window_ends_absent():
    panel = generate_factor_panel(one_factor_config(n_assets=6, n_days=70))
    returns = log_returns(panel)
    rows = monthly_sector_heatmap(returns, {t: "S" for t in returns.tickers},
                                  GapConfig(window=60, step=1))
    months = [month for _, month, *_ in rows]
    # 60-day windows only end in the last stretch: earliest months must be absent.
    first_month = f"{returns.dates[0].year:04d}-{returns.dates[0].month:02d}"
    assert first_month not in months
    covered = {f"{d.year:04d}-{d.month:02d}" for d in returns.dates[59:]}
    assert set(months) == covered


def test_heatmap_requires_sector_labels_and_two_tickers():
    returns = make_returns(np.random.default_rng(1).normal(0, 0.01, (30, 3)))
    with pytest.raises(DataError, match="no sector label"):
        monthly_sector_heatmap(returns, {"T0": "A", "T1": "A"}, GapConfig(window=10))
    with pytest.raises(DataError, match="need >= 2"):
        monthly_sector_heatmap(returns, {"T0": "A", "T1": "A", "T2": "B"},
                               GapConfig(window=10))


def test_heatmap_counts_omitted_windows():
    # The heatmap's rows count only the windows its sector series keeps; the
    # others are listed in that series' `dropped`.
    rng = np.random.default_rng(3)
    values = rng.normal(0, 0.01, size=(40, 4))
    values[: 25, 0] = np.nan
    values[: 25, 1] = np.nan  # sector A unusable until row 25
    returns = make_returns(values)
    sector_of = {"T0": "A", "T1": "A", "T2": "B", "T3": "B"}
    cfg = GapConfig(window=10, step=1)
    sectors = sector_gap_series(returns, sector_of, cfg)
    assert len(sectors["A"].dropped) == 25 and sectors["B"].dropped == []  # ends 10 .. 34
    counted = {sector: 0 for sector in sectors}
    for sector, _, _, count in monthly_sector_heatmap(returns, sector_of, cfg):
        counted[sector] += count
    assert counted == {"A": 40 - 10 + 1 - 25, "B": 40 - 10 + 1}
