"""Ordinal pattern, cross-sectional distribution and entropy tests."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from marketgap.errors import DegenerateWindowError, NumericError, UsageError
from marketgap.ordinal import PATTERNS, entropy_series, ordinal_entropy
from marketgap.panel import window_ends
from oracle import ordinal_pattern, pattern_indices

from conftest import MAX_ENTROPY, make_returns


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
    # A (W, 3, N) stack gives each block's ids.
    stack = np.stack([triples[:, :250], triples[:, 250:]])
    np.testing.assert_array_equal(pattern_indices(stack), [vec[:250], vec[250:]])
    # A strided view, every other row and reversed columns, gives the same ids.
    spread = np.zeros((2, 5, 250))
    spread[:, ::2] = stack[..., ::-1]
    view = spread[:, ::2, ::-1]
    assert not view.flags.c_contiguous
    np.testing.assert_array_equal(pattern_indices(view), [vec[:250], vec[250:]])
    with pytest.raises(UsageError):
        pattern_indices(np.zeros((2, 2, 50)))


# ---------- Cross-section distributions ----------

# With length=3 and step=1, row k of an entropy series is the cross-section
# distribution of the triple ending at return row t = k + 2.

def counts_of(series):
    """Pattern counts per row, recovered exactly from probabilities * n_stocks."""
    counts = series.probabilities * series.n_stocks[:, np.newaxis]
    np.testing.assert_allclose(counts, np.rint(counts), rtol=0, atol=1e-9)
    return np.rint(counts).astype(np.int64)


def test_distribution_synchronized_ascending():
    values = np.cumsum(np.full((3, 50), 0.01), axis=0)  # every stock ascending
    series = entropy_series(make_returns(values), length=3)
    assert series.n_stocks.tolist() == [50]
    assert counts_of(series).tolist() == [[50, 0, 0, 0, 0, 0]]
    assert series.values[0] == 0.0


def test_distribution_uniform_six_stocks():
    # One stock per pattern: probabilities are exactly 1/6.
    columns = []
    values = (1.0, 2.0, 3.0)
    for perm in itertools.permutations(range(3)):
        col = [0.0] * 3
        for rank, pos in enumerate(perm):
            col[pos] = values[rank]
        columns.append(col)
    series = entropy_series(make_returns(np.array(columns).T), length=3)
    np.testing.assert_allclose(series.probabilities[0], np.full(6, 1 / 6), atol=1e-15)
    assert series.values[0] == pytest.approx(math.log(6), abs=1e-12)


def test_distribution_random_walk_near_uniform():
    rng = np.random.default_rng(314)
    series = entropy_series(make_returns(rng.standard_normal((5, 120)) * 0.01), length=3)
    assert series.n_stocks[-1] == 120
    assert np.abs(series.probabilities[-1] - 1 / 6).max() < 0.15


def test_distribution_excludes_incomplete_stocks():
    values = np.array([
        [0.01, 0.02, np.nan],
        [0.02, 0.01, 0.01],
        [0.03, 0.00, 0.02],
    ])
    series = entropy_series(make_returns(values), length=3)
    assert series.n_stocks.tolist() == [2]
    assert counts_of(series).sum() == 2


def test_distribution_zero_eligible_raises():
    values = np.array([[np.nan, 0.01], [0.02, np.nan], [0.03, 0.02]])
    returns = make_returns(values)
    with pytest.raises(DegenerateWindowError,
                       match=f"triple ending {returns.dates[2].isoformat()}"):
        entropy_series(returns, length=3)


def test_distribution_needs_room_for_triple():
    returns = make_returns(np.full((4, 3), 0.01))
    with pytest.raises(UsageError):
        entropy_series(returns, length=2)


@st.composite
def ordinal_panels(draw):
    """Tie-rich panels with NaN runs, sometimes a date where no stock is complete."""
    n_assets = draw(st.integers(1, 12))
    n_dates = draw(st.integers(3, 40))
    length = draw(st.integers(3, 15))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([
        np.array([-0.01, 0.0, 0.01]),
        np.array([-0.0, 0.0, 0.02]),
        np.array([-np.inf, -0.01, 0.0, 0.0, np.inf]),
        np.linspace(-0.03, 0.03, 61),
    ]))
    values = rng.choice(levels, size=(n_dates, n_assets))
    runs = st.tuples(st.integers(0, n_assets - 1), st.integers(0, n_dates - 1),
                     st.integers(1, n_dates))
    for asset, start, run in draw(st.lists(runs, max_size=5)):
        values[start:start + run, asset] = np.nan
    if draw(st.booleans()):
        values[draw(st.integers(0, n_dates - 1))] = np.nan  # no stock complete nearby
    return make_returns(values), length, draw(st.integers(1, 4))


@settings(max_examples=300, deadline=None, database=None)
@given(case=ordinal_panels())
def test_entropy_series_matches_per_date_oracle(case):
    returns, length, step = case
    try:
        want = oracle.entropy_series(returns, length, step)
    except DegenerateWindowError as exc:
        with pytest.raises(DegenerateWindowError) as got:
            entropy_series(returns, length=length, step=step)
        assert str(got.value) == str(exc)
        return
    series = entropy_series(returns, length=length, step=step)
    dates, values, n_stocks, probabilities = want
    assert series.dates == dates
    assert series.values.tobytes() == values.tobytes()
    np.testing.assert_array_equal(series.n_stocks, n_stocks, strict=True)
    assert series.probabilities.shape == probabilities.shape
    assert series.probabilities.tobytes() == probabilities.tobytes()


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
    base = entropy_series(make_returns(values), length=3)
    for transform in (lambda x: np.exp(x), lambda x: 3.0 * x + 1.0, lambda x: x ** 3):
        moved = entropy_series(make_returns(transform(values)), length=3)
        np.testing.assert_array_equal(base.probabilities, moved.probabilities)
        np.testing.assert_array_equal(base.values, moved.values)


def test_distribution_invariant_under_stock_permutation():
    rng = np.random.default_rng(18)
    values = rng.normal(0, 0.02, size=(5, 30))
    base = entropy_series(make_returns(values), length=3)
    perm = rng.permutation(30)
    shuffled = entropy_series(make_returns(values[:, perm]), length=3)
    np.testing.assert_array_equal(counts_of(base), counts_of(shuffled))


def test_counts_sum_to_eligible_stocks():
    rng = np.random.default_rng(19)
    values = rng.normal(0, 0.02, size=(8, 25))
    values[5, :4] = np.nan
    series = entropy_series(make_returns(values), length=3)
    assert series.n_stocks.tolist() == [25, 25, 25, 21, 21, 21]
    np.testing.assert_array_equal(counts_of(series).sum(axis=1), series.n_stocks)


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
    ends = window_ends(returns.n_dates, 60, 5)
    assert len(series.dates) == len(ends) == 9
    assert series.dates == [returns.dates[end - 1] for end in ends]
    assert series.probabilities.shape == (len(ends), 6)


def test_entropy_series_peak_memory_is_a_few_return_matrices():
    # Patterns come from three strided views of the returns, so the peak stays
    # a few (W, N) arrays; a (W, 3, N) stack of triples and its argsort need ~8x.
    values = np.random.default_rng(24).standard_normal((600, 300)) * 0.01
    returns = make_returns(values)
    tracemalloc.start()
    try:
        series = entropy_series(returns, length=20, step=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert series.n_stocks.tolist() == [300] * 581
    assert peak <= 3 * values.nbytes
