"""Ordinal pattern, cross-sectional distribution, entropy, and phase-stat tests."""
import itertools
import math
from datetime import date

import numpy as np
import pytest

from marketgap.errors import DegenerateWindowError, NumericError, UsageError
from marketgap.ordinal import (
    MAX_ENTROPY,
    PATTERNS,
    EntropySeries,
    cross_section_distribution,
    entropy_series,
    ordinal_entropy,
    pattern_indices,
    phase_statistics,
)
from marketgap.regimes import PhaseWindows
from oracle import ordinal_pattern

from conftest import make_returns, weekdays


# ---------- Patterns ----------

def test_pattern_examples():
    assert ordinal_pattern(0.1, 0.2, 0.3) == 0  # ascending -> (0,1,2)
    assert ordinal_pattern(0.3, 0.1, 0.2) == 3  # positions by value -> (1,2,0)


def test_pattern_tie_rule_earlier_index_lower():
    # (0.2, 0.2, 0.1): 0.1 at position 2 first, then the tied 0.2s in index
    # order -> permutation (2, 0, 1) -> lexicographic index 4.
    assert ordinal_pattern(0.2, 0.2, 0.1) == 4
    assert ordinal_pattern(0.0, 0.0, 0.0) == 0  # all tied -> identity


def test_pattern_bijective_over_orderings():
    # Every strict ordering of three distinct values hits a distinct index and
    # the permutation table agrees with a hand sort.
    values = (10.0, 20.0, 30.0)
    seen = set()
    for perm in itertools.permutations(range(3)):
        x = [0.0, 0.0, 0.0]
        for rank, pos in enumerate(perm):
            x[pos] = values[rank]
        idx = ordinal_pattern(*x)
        assert PATTERNS[idx] == perm
        seen.add(idx)
    assert seen == set(range(6))


def test_pattern_rejects_non_finite():
    with pytest.raises(NumericError):
        ordinal_pattern(0.1, float("nan"), 0.2)
    with pytest.raises(NumericError):
        ordinal_pattern(float("inf"), 0.0, 0.2)


def test_vectorized_patterns_match_scalar():
    rng = np.random.default_rng(4)
    triples = rng.choice([-0.01, 0.0, 0.01, 0.02], size=(3, 500))  # tie-rich
    vec = pattern_indices(triples)
    for j in range(triples.shape[1]):
        assert vec[j] == ordinal_pattern(*triples[:, j])


# ---------- Cross-section distributions ----------

def test_distribution_synchronized_ascending():
    values = np.cumsum(np.full((3, 50), 0.01), axis=0)  # every stock ascending
    returns = make_returns(values)
    dist = cross_section_distribution(returns, 2)
    assert dist.counts[0] == 50 and dist.counts[1:].sum() == 0
    assert ordinal_entropy(dist) == 0.0


def test_distribution_uniform_six_stocks():
    # One stock per pattern: probabilities are exactly 1/6.
    columns = []
    values = (1.0, 2.0, 3.0)
    for perm in itertools.permutations(range(3)):
        col = [0.0] * 3
        for rank, pos in enumerate(perm):
            col[pos] = values[rank]
        columns.append(col)
    returns = make_returns(np.array(columns).T)
    dist = cross_section_distribution(returns, 2)
    np.testing.assert_allclose(dist.probabilities, np.full(6, 1 / 6), atol=1e-15)
    assert ordinal_entropy(dist) == pytest.approx(math.log(6), abs=1e-12)


def test_distribution_random_walk_near_uniform():
    rng = np.random.default_rng(314)
    returns = make_returns(rng.standard_normal((5, 120)) * 0.01)
    dist = cross_section_distribution(returns, 4)
    assert dist.n_stocks == 120
    assert np.abs(dist.probabilities - 1 / 6).max() < 0.15


def test_distribution_excludes_incomplete_stocks():
    values = np.array([
        [0.01, 0.02, np.nan],
        [0.02, 0.01, 0.01],
        [0.03, 0.00, 0.02],
    ])
    dist = cross_section_distribution(make_returns(values), 2)
    assert dist.n_stocks == 2
    assert dist.counts.sum() == 2


def test_distribution_zero_eligible_raises():
    values = np.array([[np.nan, 0.01], [0.02, np.nan], [0.03, 0.02]])
    with pytest.raises(DegenerateWindowError):
        cross_section_distribution(make_returns(values), 2)


def test_distribution_accepts_date_argument():
    returns = make_returns(np.cumsum(np.full((4, 3), 0.01), axis=0))
    dist = cross_section_distribution(returns, returns.dates[3])
    assert dist.date == returns.dates[3]


def test_distribution_needs_room_for_triple():
    returns = make_returns(np.full((4, 3), 0.01))
    with pytest.raises(UsageError):
        cross_section_distribution(returns, 1)


# ---------- Entropy ----------

def test_entropy_uniform_and_degenerate_and_half():
    assert ordinal_entropy(np.full(6, 1 / 6)) == pytest.approx(math.log(6), abs=1e-12)
    assert ordinal_entropy(np.array([0, 0, 1.0, 0, 0, 0])) == 0.0
    assert ordinal_entropy(np.array([0.5, 0.5, 0, 0, 0, 0])) == pytest.approx(
        math.log(2), abs=1e-15
    )


def test_entropy_bounds_and_extremes():
    rng = np.random.default_rng(8)
    for _ in range(500):
        p = rng.dirichlet(np.full(6, rng.uniform(0.05, 5.0)))
        h = ordinal_entropy(p)
        assert -1e-12 <= h <= MAX_ENTROPY + 1e-12


def test_entropy_extremes_only_at_uniform_and_degenerate():
    # Strictly below ln 6 away from uniform; strictly above 0 away from a
    # point mass.
    rng = np.random.default_rng(9)
    for _ in range(200):
        p = rng.dirichlet(np.ones(6))
        if np.abs(p - 1 / 6).max() > 1e-3:
            assert ordinal_entropy(p) < MAX_ENTROPY - 1e-8
        if np.sort(p)[-1] < 1.0 - 1e-3:
            assert ordinal_entropy(p) > 1e-8


def test_entropy_invariant_under_monotone_transform():
    # Any strictly increasing transform applied to all returns of every stock
    # leaves patterns, hence the distribution and entropy, unchanged.
    rng = np.random.default_rng(17)
    values = rng.normal(0, 0.02, size=(6, 40))
    base = cross_section_distribution(make_returns(values), 4)
    for transform in (lambda x: np.exp(x), lambda x: 3.0 * x + 1.0, lambda x: x ** 3):
        moved = cross_section_distribution(make_returns(transform(values)), 4)
        np.testing.assert_array_equal(base.counts, moved.counts)
        assert ordinal_entropy(base) == ordinal_entropy(moved)


def test_distribution_invariant_under_stock_permutation():
    rng = np.random.default_rng(18)
    values = rng.normal(0, 0.02, size=(5, 30))
    base = cross_section_distribution(make_returns(values), 3)
    perm = rng.permutation(30)
    shuffled = cross_section_distribution(make_returns(values[:, perm]), 3)
    np.testing.assert_array_equal(base.counts, shuffled.counts)


def test_counts_sum_to_eligible_stocks():
    rng = np.random.default_rng(19)
    values = rng.normal(0, 0.02, size=(8, 25))
    values[5, :4] = np.nan
    for t in range(2, 8):
        try:
            dist = cross_section_distribution(make_returns(values), t)
        except DegenerateWindowError:
            continue
        assert dist.counts.sum() == dist.n_stocks


# ---------- Entropy series ----------

def test_entropy_series_identical_stocks_is_zero():
    rng = np.random.default_rng(20)
    column = rng.normal(0, 0.02, size=80)
    values = np.tile(column[:, None], (1, 12))
    series = entropy_series(make_returns(values), length=30, step=1)
    assert np.all(series.values == 0.0)


def test_entropy_series_bookkeeping():
    rng = np.random.default_rng(23)
    returns = make_returns(rng.normal(0, 0.02, size=(100, 10)))
    series = entropy_series(returns, length=60, step=5)
    from marketgap.panel import rolling_windows
    windows = rolling_windows(returns, 60, 5)
    assert len(series.dates) == len(windows)
    assert series.dates == [returns.dates[w.end - 1] for w in windows]
    assert series.probabilities.shape == (len(windows), 6)


# ---------- Phase statistics ----------

def series_of(values, start=date(2025, 1, 2)):
    values = np.asarray(values, dtype=float)
    return EntropySeries(
        dates=weekdays(start, len(values)),
        values=values,
        n_stocks=np.full(len(values), 10, dtype=np.int64),
        probabilities=np.zeros((len(values), 6)),
        window_length=60,
        step=1,
    )


def phases_for(series, splits):
    """Split a series into four contiguous phases by index triples."""
    d = series.dates
    a, b, c = splits
    return PhaseWindows(
        pre_shock=(d[0], d[a - 1]),
        shock=(d[a], d[b - 1]),
        false_recovery=(d[b], d[c - 1]),
        stabilized=(d[c], d[-1]),
        event_date=d[a],
    )


def test_phase_statistics_constant_series():
    series = series_of(np.full(40, 1.3))
    stats = phase_statistics(series, phases_for(series, (10, 20, 30)))
    for s in (stats.pre_shock, stats.shock, stats.false_recovery, stats.stabilized):
        assert s.mean == pytest.approx(1.3, abs=1e-12)
        assert s.std == pytest.approx(0.0, abs=1e-12)
    assert stats.false_recovery_p95 == pytest.approx(1.3, abs=1e-12)


def brute_force_percentile(values, pct):
    """Sort-and-interpolate oracle for the linear percentile definition."""
    srt = sorted(values)
    rank = (len(srt) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    frac = rank - lo
    return srt[lo] * (1 - frac) + srt[hi] * frac


def test_phase_statistics_percentile_matches_brute_force():
    rng = np.random.default_rng(29)
    values = rng.uniform(0.2, 1.7, size=20)
    series = series_of(values)
    # false recovery spans the whole 20-point series via a 4-way split around it
    stats = phase_statistics(series, phases_for(series, (3, 5, 18)))
    fr_values = values[5:18]
    assert stats.false_recovery_p95 == pytest.approx(
        brute_force_percentile(fr_values, 95), abs=1e-12
    )
    assert stats.false_recovery.mean == pytest.approx(np.mean(fr_values), abs=1e-12)
    assert stats.false_recovery.std == pytest.approx(np.std(fr_values, ddof=1), abs=1e-12)


def test_phase_statistics_empty_phase_absent():
    series = series_of(np.linspace(0.5, 1.5, 10))
    d = series.dates
    phases = PhaseWindows(
        pre_shock=None,
        shock=(d[0], d[2]),
        false_recovery=(d[3], d[6]),
        stabilized=(d[7], d[9]),
        event_date=d[1],
    )
    stats = phase_statistics(series, phases)
    assert stats.pre_shock is None
    assert stats.shock is not None


def test_phase_statistics_values_in_entropy_range(three_phase):
    from marketgap.panel import log_returns
    from marketgap.regimes import phase_segmentation

    returns = log_returns(three_phase.panel)
    series = entropy_series(returns, length=60)
    phases = phase_segmentation(series.dates, series.values, three_phase.truth.event_date)
    stats = phase_statistics(series, phases)
    for s in (stats.pre_shock, stats.shock, stats.false_recovery, stats.stabilized):
        assert 0.0 <= s.mean <= MAX_ENTROPY
        assert s.std is None or 0.0 <= s.std <= MAX_ENTROPY
    assert 0.0 <= stats.false_recovery_p95 <= MAX_ENTROPY
