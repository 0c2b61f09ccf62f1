"""Portfolio construction, rolling study, Spearman, and quintile-report tests."""
import math
from datetime import date
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from marketgap.errors import DataError, UndefinedCorrelationError, UsageError
from marketgap.panel import ReturnPanel, log_returns
from marketgap.portfolio import (
    PortfolioObservation,
    StudyConfig,
    _subsets,
    covariance_matrix,
    ew_weights,
    incremental_r2,
    mvp_weights,
    quintile_partition,
    quintile_report,
    realized_volatility,
    run_portfolio_study,
    spearman,
)
from marketgap.synth import generate_factor_panel, one_factor_config

from conftest import make_returns


# ---------- Covariance ----------

def test_covariance_identical_series_rank_one():
    x = np.array([0.01, -0.02, 0.03, 0.0])
    cov = covariance_matrix(np.vstack([x, x]))
    var = np.mean((x - x.mean()) ** 2)  # population denominator
    np.testing.assert_allclose(cov, np.full((2, 2), var), atol=1e-18)
    assert np.linalg.matrix_rank(cov) == 1


def test_covariance_uncorrelated_near_diagonal():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((4, 4000)) * 0.01
    cov = covariance_matrix(x)
    np.testing.assert_array_equal(cov, cov.T)
    off = cov[~np.eye(4, dtype=bool)]
    assert np.abs(off).max() < 0.2 * np.diag(cov).min()


def test_covariance_constant_asset_zero_row():
    x = np.vstack([np.full(5, 0.01), np.array([0.01, -0.02, 0.0, 0.03, 0.01])])
    cov = covariance_matrix(x)
    np.testing.assert_allclose(cov[0], 0.0, atol=1e-18)


def test_covariance_rejects_missing_and_tiny():
    with pytest.raises(DataError):
        covariance_matrix(np.array([[0.01, np.nan], [0.0, 0.01]]))
    with pytest.raises(UsageError):
        covariance_matrix(np.array([[0.01, 0.02]]))


# ---------- Weights ----------

def test_mvp_diagonal_inverse_variance():
    q = mvp_weights(np.diag([0.04, 0.01]))
    np.testing.assert_allclose(q, [0.2, 0.8], atol=1e-12)


def test_mvp_scaled_identity_equal_weights():
    q = mvp_weights(0.02 * np.eye(4))
    np.testing.assert_allclose(q, 0.25, atol=1e-14)


def test_mvp_two_asset_closed_form():
    v = np.array([[0.04, 0.018], [0.018, 0.09]])
    q = mvp_weights(v)
    # Closed form: q0 = (v11 - v01) / (v00 + v11 - 2 v01).
    q0 = (0.09 - 0.018) / (0.04 + 0.09 - 2 * 0.018)
    assert q[0] == pytest.approx(q0, abs=1e-12)
    assert q0 == pytest.approx(0.76596, abs=5e-6)
    assert q.sum() == pytest.approx(1.0, abs=1e-10)


def test_mvp_degenerate_raises():
    # Undefined weights (1'V+1 = 0 here) come back as a NaN row, and only that
    # row of a stack is NaN.
    assert np.isnan(mvp_weights(np.zeros((3, 3)))).all()
    q = mvp_weights(np.stack([np.eye(3), np.zeros((3, 3)), 0.5 * np.eye(3)]))
    assert np.isnan(q[1]).all()
    np.testing.assert_array_equal(q[[0, 2]], np.full((2, 3), 1.0 / 3.0))


def test_mvp_in_sample_optimality():
    rng = np.random.default_rng(2025)
    for _ in range(30):
        a = rng.standard_normal((10, 40)) * 0.01
        v = covariance_matrix(a)
        q = mvp_weights(v)
        assert q.sum() == pytest.approx(1.0, abs=1e-10)
        mvp_var = q @ v @ q
        ew = ew_weights(10)
        assert mvp_var <= ew @ v @ ew + 1e-12
        g = rng.standard_normal((200, 10))
        random_q = 1.0 / 10 + g - g.mean(axis=1, keepdims=True)  # sums to 1
        vars_rand = np.einsum("ij,jk,ik->i", random_q, v, random_q)
        assert mvp_var <= vars_rand.min() + 1e-12


def test_stacked_calls_match_single_calls_bit_for_bit():
    rng = np.random.default_rng(2026)
    x = rng.standard_normal((7, 6, 30)) * 0.01
    y = rng.standard_normal((7, 6, 12)) * 0.01
    cov = covariance_matrix(x)
    q = mvp_weights(cov)
    vol = realized_volatility(q, y)
    ew_vol = realized_volatility(ew_weights(6), y)
    assert cov.shape == (7, 6, 6) and q.shape == (7, 6) and vol.shape == ew_vol.shape == (7,)
    for k in range(7):
        assert cov[k].tobytes() == covariance_matrix(x[k]).tobytes()
        assert q[k].tobytes() == mvp_weights(cov[k]).tobytes()
        assert vol[k] == realized_volatility(q[k], y[k])
        assert ew_vol[k] == realized_volatility(ew_weights(6), y[k])


def test_ew_weights():
    np.testing.assert_allclose(ew_weights(10), 0.1, atol=1e-16)
    np.testing.assert_allclose(ew_weights(1), [1.0])
    assert abs(ew_weights(7).sum() - 1.0) < 1e-15
    with pytest.raises(UsageError):
        ew_weights(0)


# ---------- Realized volatility ----------

def test_realized_volatility_constant_zero():
    q = ew_weights(2)
    # 0.5 is exactly representable: the mean and residuals are exact zeros.
    assert realized_volatility(q, np.full((2, 10), 0.5)) == 0.0
    # Arbitrary constants leave only accumulation round-off.
    assert realized_volatility(q, np.full((2, 10), 0.004)) == pytest.approx(0.0, abs=1e-12)


def test_realized_volatility_one_percent_daily():
    # One asset alternating so the sample std is exactly 0.01, annualized:
    # 0.01 * sqrt(252) * 100 = 15.8745...
    r = np.array([[0.01, -0.01] * 10])
    r = r - r.mean()  # exact mean zero; sample std = 0.01 * sqrt(20/19)
    # Simpler: construct directly with known ddof=1 std.
    x = np.array([0.01, -0.01])
    series = np.tile(x, 10)
    sd = np.std(series, ddof=1)
    vol = realized_volatility(np.array([1.0]), series[None, :], 252.0)
    assert vol == pytest.approx(sd * math.sqrt(252) * 100.0, abs=1e-12)
    assert vol == pytest.approx(15.874507866387544 * sd / 0.01, rel=1e-12)


def test_realized_volatility_matches_brute_force_sample_variance():
    rng = np.random.default_rng(13)
    r = rng.normal(0, 0.02, size=(3, 15))
    q = np.array([0.5, 0.3, 0.2])
    port = q @ r
    mean = sum(port) / len(port)
    var = sum((p - mean) ** 2 for p in port) / (len(port) - 1)
    assert realized_volatility(q, r, 252.0) == pytest.approx(
        math.sqrt(var) * math.sqrt(252) * 100.0, abs=1e-10
    )


def test_realized_volatility_needs_two_observations():
    with pytest.raises(UsageError):
        realized_volatility(np.array([1.0]), np.array([[0.01]]))


# ---------- Spearman ----------

def fraction_average_ranks(vals):
    """Average ranks in exact rational arithmetic (brute-force tie groups)."""
    order = sorted(range(len(vals)), key=lambda i: vals[i])
    ranks = [Fraction(0)] * len(vals)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
            j += 1
        mean_rank = Fraction(i + 1 + j + 1, 2)
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def fraction_spearman_signed_square(x, y):
    """Exact Spearman rho as (sign, rho^2) to stay in rational arithmetic."""
    rx, ry = fraction_average_ranks(list(x)), fraction_average_ranks(list(y))
    n = len(rx)
    mx = sum(rx, Fraction(0)) / n
    my = sum(ry, Fraction(0)) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    sxx = sum((a - mx) ** 2 for a in rx)
    syy = sum((b - my) ** 2 for b in ry)
    return (0 if sxy == 0 else (1 if sxy > 0 else -1)), sxy * sxy / (sxx * syy)


def oracle_rho(x, y):
    sign, rho_sq = fraction_spearman_signed_square(x, y)
    return sign * math.sqrt(float(rho_sq))


def test_spearman_monotone_and_antimonotone():
    rho, p = spearman([1, 2, 3], [10, 20, 30])
    assert rho == 1.0 and p == 0.0
    rho, p = spearman([1, 2, 3], [3, 2, 1])
    assert rho == -1.0 and p == 0.0


def test_spearman_tied_sample_matches_oracle():
    x, y = [1, 2, 2, 4], [1, 3, 2, 4]
    rho, _ = spearman(x, y)
    assert rho == pytest.approx(oracle_rho(x, y), abs=1e-13)


def test_spearman_random_tie_rich_matches_oracle():
    rng = np.random.default_rng(47)
    for _ in range(60):
        n = int(rng.integers(3, 9))
        x = rng.integers(0, 4, size=n).astype(float)
        y = rng.integers(0, 4, size=n).astype(float)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        rho, p = spearman(x, y)
        assert rho == pytest.approx(oracle_rho(x, y), abs=1e-13)
        assert 0.0 <= p <= 1.0


def test_spearman_p_value_t_approximation():
    rng = np.random.default_rng(48)
    x = rng.standard_normal(30)
    y = 0.5 * x + rng.standard_normal(30)
    rho, p = spearman(x, y)
    from scipy import stats as sstats
    t = rho * math.sqrt((30 - 2) / (1 - rho * rho))
    assert p == pytest.approx(2 * sstats.t.sf(abs(t), 28), abs=1e-15)


def test_spearman_errors():
    with pytest.raises(UndefinedCorrelationError):
        spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(UsageError):
        spearman([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(DataError):
        spearman([1.0, np.nan, 2.0], [1.0, 2.0, 3.0])


def test_spearman_invariant_under_increasing_transforms():
    rng = np.random.default_rng(49)
    x = rng.standard_normal(50)
    y = rng.standard_normal(50)
    base, _ = spearman(x, y)
    for fx, fy in ((np.exp, lambda v: v), (lambda v: v, np.exp),
                   (lambda v: 5 * v + 2, np.exp)):
        rho, _ = spearman(fx(x), fy(y))
        assert rho == pytest.approx(base, abs=1e-12)


# ---------- Subset draws ----------

def numpy_subsets(prefix, count, m, n):
    return np.array([np.sort(np.random.default_rng([*prefix, p]).choice(m, n, replace=False))
                     for p in range(count)])


@st.composite
def subset_cases(draw):
    """Keys whose seed spans one to three 32-bit words, and (m, n) on both choice branches."""
    seed = draw(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 3]) | st.integers(0, 2**96))
    prefix = (seed, draw(st.integers(0, 5)), draw(st.integers(0, 2**40)))
    m = draw(st.integers(1, 10000) | st.integers(10001, 30000))
    if m > 10000:  # Floyd up to m // 50, the tail shuffle above it
        n = m // 50 + draw(st.integers(-5, 5))
    else:
        n = draw(st.integers(1, min(m, 300)) | st.just(m))
    return prefix, draw(st.integers(1, 8)), m, n


@settings(max_examples=150, deadline=None, database=None)
@given(case=subset_cases())
def test_subsets_match_numpy_choice(case):
    prefix, count, m, n = case
    np.testing.assert_array_equal(_subsets(prefix, count, m, n),
                                  numpy_subsets(prefix, count, m, n), strict=True)


@pytest.mark.parametrize("m,n", [(1, 1), (7, 7), (10000, 10000), (10001, 10001), (12000, 600)])
def test_subsets_match_numpy_choice_at_branch_edges(m, n):
    for seed in (0, 2**32):
        np.testing.assert_array_equal(_subsets((seed, 1, 2), 3, m, n),
                                      numpy_subsets((seed, 1, 2), 3, m, n), strict=True)


def test_subsets_golden_draws():
    # Fixed here, so the study's stream stays put whatever a later NumPy does.
    assert _subsets((3, 0, 0), 3, 60, 10).tolist() == [
        [2, 4, 5, 9, 12, 33, 41, 44, 49, 54],
        [2, 10, 13, 14, 22, 34, 35, 40, 47, 54],
        [1, 6, 16, 23, 33, 39, 50, 53, 55, 56],
    ]
    assert _subsets((2**64 + 3, 1, 17), 2, 100, 5).tolist() == [
        [10, 22, 58, 61, 66], [9, 17, 41, 83, 90]]
    tail = _subsets((7, 2, 5), 2, 10001, 201)  # the tail-shuffle branch
    assert tail[:, :6].tolist() == [[80, 93, 130, 141, 221, 224], [1, 46, 48, 75, 116, 250]]
    assert tail.sum(axis=1).tolist() == [950231, 976971]


def test_subsets_reject_negative_key():
    with pytest.raises(UsageError, match="non-negative"):
        _subsets((-1, 0, 0), 2, 10, 3)


# ---------- Rolling study ----------

@pytest.fixture(scope="module")
def small_study():
    panel = generate_factor_panel(one_factor_config(n_assets=14, n_days=180))
    returns = log_returns(panel)
    config = StudyConfig(formation=60, test=20, n_stocks=10, portfolios=25)
    return returns, config


def test_study_counts_and_determinism(small_study):
    returns, config = small_study
    first = run_portfolio_study(returns, config, seed=5)
    second = run_portfolio_study(returns, config, seed=5)
    n_windows = (returns.n_dates - 80) // 20 + 1
    assert len(first.observations) == n_windows * 25 - first.skipped_portfolios
    assert first.observations == second.observations

    different = run_portfolio_study(returns, config, seed=6)
    assert different.observations != first.observations


def test_study_window_subset_invariant(small_study):
    # A date-truncated panel runs a prefix of the windows; each window's
    # observations depend on its own rows and RNG substream only.
    returns, config = small_study
    full = run_portfolio_study(returns, config, seed=5)
    cut = returns.n_dates - 2 * config.test
    head = ReturnPanel(dates=returns.dates[:cut], tickers=list(returns.tickers),
                       values=returns.values[:cut])
    part = run_portfolio_study(head, config, seed=5)
    n_windows = (cut - config.formation - config.test) // config.test + 1
    assert n_windows >= 2
    assert {o.window_index for o in part.observations} == set(range(n_windows))
    assert part.observations == [o for o in full.observations if o.window_index < n_windows]


def test_study_resamples_stocks_each_window(small_study):
    returns, config = small_study
    result = run_portfolio_study(returns, config, seed=5)
    per_window = {}
    for o in result.observations:
        per_window.setdefault(o.window_index, set()).add(o.tickers)
    draws = [frozenset(s) for s in per_window.values()]
    assert len(set(draws)) > 1  # fresh draws, not one fixed subset


def test_study_window_geometry(small_study):
    returns, config = small_study
    result = run_portfolio_study(returns, config, seed=5)
    ends = sorted({o.window_end for o in result.observations})
    idx = [returns.dates.index(d) for d in ends]
    assert idx[0] == 59  # first formation window ends at row 60 (1-based)
    assert all(b - a == 20 for a, b in zip(idx, idx[1:]))


def test_study_skips_windows_without_enough_stocks():
    rng = np.random.default_rng(30)
    values = rng.normal(0, 0.01, size=(100, 9))  # only 9 stocks, need 10
    returns = make_returns(values)
    result = run_portfolio_study(returns, StudyConfig(portfolios=5), seed=1)
    assert result.observations == []
    assert len(result.skipped_windows) == 2
    assert "eligible" in result.skipped_windows[0][1]


def test_study_excludes_zero_variance_stocks():
    rng = np.random.default_rng(31)
    values = rng.normal(0, 0.01, size=(100, 11))
    values[:, 3] = 0.0  # flat stock never eligible
    returns = make_returns(values)
    result = run_portfolio_study(returns, StudyConfig(portfolios=10), seed=2)
    assert result.observations
    for o in result.observations:
        assert "T3" not in o.tickers


def test_study_panel_too_short():
    returns = make_returns(np.random.default_rng(1).normal(0, 0.01, (50, 12)))
    with pytest.raises(DataError):
        run_portfolio_study(returns, StudyConfig(), seed=1)


def test_study_delta_uses_subset_matrix(small_study):
    # delta and rho_bar come from the subset's own correlation matrix: they
    # match the former inline computation and the eigh window chain.
    returns, _ = small_study
    result = run_portfolio_study(returns, StudyConfig(formation=60, test=20,
                                                      n_stocks=10, portfolios=8), seed=9)
    assert len(result.observations) > 20
    for o in result.observations:
        end_row = returns.dates.index(o.window_end) + 1
        cols = [returns.tickers.index(t) for t in o.tickers]
        delta, rho_bar = oracle.subset_gap(returns.values[end_row - 60:end_row, cols].T)
        assert abs(o.delta - delta) <= 1e-12 and abs(o.rho_bar - rho_bar) <= 1e-12
        sub = ReturnPanel(dates=list(returns.dates), tickers=list(o.tickers),
                          values=returns.values[:, cols])
        ref = oracle.spectral_summary(oracle.standardize_window(sub, end_row - 60, end_row))
        assert abs(o.delta - ref.delta) <= 1e-12 and abs(o.rho_bar - ref.rho_signed) <= 1e-12


@st.composite
def study_cases(draw):
    """Panels with NaN runs and flat stretches, and studies with n_stocks up to past formation."""
    formation = draw(st.integers(3, 12))
    test = draw(st.integers(2, 6))
    n_assets = draw(st.integers(2, 18))
    n_dates = formation + test + draw(st.integers(0, 25))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    common = rng.standard_normal(n_dates)
    loadings = rng.uniform(-1.5, 1.5, n_assets) * draw(st.sampled_from([0.0, 0.5, 2.0]))
    values = 0.01 * (rng.standard_normal((n_dates, n_assets)) + np.outer(common, loadings))
    if n_assets >= 3 and draw(st.booleans()):
        values[:, 1] = -values[:, 0]  # pairs holding both have 1'V+1 = 0
    runs = st.tuples(st.integers(0, n_assets - 1), st.integers(0, n_dates - 1),
                     st.integers(1, n_dates))
    for asset, start, length in draw(st.lists(runs, max_size=4)):
        values[start:start + length, asset] = np.nan
    for asset, start, length in draw(st.lists(runs, max_size=3)):
        values[start:start + length, asset] = 0.0
    config = StudyConfig(
        formation=formation,
        test=test,
        n_stocks=draw(st.integers(2, min(n_assets, formation + 4))),
        portfolios=draw(st.integers(1, 40)),
        step=draw(st.none() | st.integers(1, 8)),
    )
    return make_returns(values), config, draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 3))


@settings(max_examples=120, deadline=None, database=None)
@given(case=study_cases())
def test_study_matches_per_subset_oracle(case):
    returns, config, seed, stream = case
    result = run_portfolio_study(returns, config, seed=seed, market="M", stream=stream)
    observations, skipped_windows, skipped = oracle.portfolio_study(
        returns, config, seed, market="M", stream=stream)
    # Dataclass equality compares every float bit for bit (no NaN can occur).
    assert result.observations == observations
    assert result.skipped_windows == skipped_windows
    assert result.skipped_portfolios == skipped


def test_study_skips_undefined_weights_and_keeps_the_rest():
    # Eligible assets x, -x and y: the pair {x, -x} has V proportional to
    # [[1, -1], [-1, 1]], so 1'V+1 = 0 and its weights are undefined.
    rng = np.random.default_rng(41)
    x, y = rng.normal(0, 0.02, size=(2, 120))
    values = np.column_stack([x, -x, y, np.zeros(120)])  # the flat T3 is never eligible
    returns = make_returns(values)
    config = StudyConfig(formation=30, test=10, n_stocks=2, portfolios=30)
    result = run_portfolio_study(returns, config, seed=4)
    pairs = {}
    for o in result.observations:
        pairs.setdefault(o.window_index, []).append(o.tickers)
    n_windows = (120 - 30 - 10) // 10 + 1
    assert sorted(pairs) == list(range(n_windows))
    for kept in pairs.values():
        assert ("T0", "T1") not in kept
        assert set(kept) == {("T0", "T2"), ("T1", "T2")}
    assert result.skipped_portfolios == n_windows * 30 - len(result.observations) > 0
    observations, _, skipped = oracle.portfolio_study(returns, config, 4)
    assert result.observations == observations and result.skipped_portfolios == skipped


@pytest.mark.parametrize("constant", [0.001, 0.1])
def test_study_never_draws_a_stock_with_constant_formation_returns(constant):
    # A constant log return leaves a std of rounding residue: with 0.001 the
    # subset correlation divides 0 by 0 and the eigensolver fails, and with
    # 0.1 the stock enters portfolios with a correlation made of rounding noise.
    rng = np.random.default_rng(12)
    values = rng.normal(0, 0.01, size=(99, 12))
    values[:, 0] = constant
    returns = make_returns(values)
    config = StudyConfig(formation=60, test=10, n_stocks=4, portfolios=100)
    result = run_portfolio_study(returns, config, seed=7)
    assert result.skipped_windows == [] and len(result.observations) == 300
    assert all("T0" not in o.tickers for o in result.observations)
    observations, skipped_windows, skipped = oracle.portfolio_study(returns, config, 7)
    assert result.observations == observations
    assert (result.skipped_windows, result.skipped_portfolios) == (skipped_windows, skipped)


# ---------- Quintile report ----------

def obs(delta, sigma_mvp, end=date(2025, 6, 2), market="X", sigma_ew=None,
        rho_bar=None, sigma_hist=None):
    return PortfolioObservation(
        market=market, window_index=0, window_end=end, tickers=("A",) * 10,
        delta=delta,
        rho_bar=rho_bar if rho_bar is not None else 0.2 + 0.1 * delta,
        sigma_hist=sigma_hist if sigma_hist is not None else 12.0 + 0.1 * sigma_mvp,
        sigma_mvp=sigma_mvp, sigma_ew=sigma_ew if sigma_ew is not None else sigma_mvp,
        seed_key=(0, 0, 0, 0),
    )


def test_quintile_partition_sizes():
    assert quintile_partition(10) == [2, 2, 2, 2, 2]
    assert quintile_partition(12) == [3, 3, 2, 2, 2]
    assert quintile_partition(7) == [2, 2, 1, 1, 1]
    for n in range(5, 60):
        sizes = quintile_partition(n)
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1


def test_quintile_report_monotone_constructed_sample():
    rng = np.random.default_rng(50)
    deltas = np.linspace(0.0, 0.5, 10)
    noise = rng.normal(0, 0.001, 10)
    observations = [obs(d, 20.0 - 30.0 * d + e) for d, e in zip(deltas, noise)]
    report = quintile_report(observations)
    q = report.quintile_mean_sigma_mvp
    assert all(q[i] > q[i + 1] for i in range(4))
    assert report.ls_spread < 0
    assert report.ls_spread == pytest.approx(q[4] - q[0], abs=1e-15)
    assert report.spearman_delta_mvp.rho < 0


def test_quintile_report_partition_covers_all_exactly_once():
    # Reconstruct the quintile means by brute force from the sorted deltas and
    # require exact agreement: every observation lands in exactly one group.
    rng = np.random.default_rng(51)
    observations = [obs(float(rng.standard_normal()), float(rng.uniform(5, 30)))
                    for _ in range(23)]
    report = quintile_report(observations)
    order = sorted(range(23), key=lambda i: (observations[i].delta, i))
    sizes = quintile_partition(23)
    lo = 0
    expected = []
    for size in sizes:
        group = order[lo:lo + size]
        expected.append(np.mean([observations[i].sigma_mvp for i in group]))
        lo += size
    assert lo == 23
    np.testing.assert_allclose(report.quintile_mean_sigma_mvp, expected, atol=1e-12)


def test_quintile_report_tie_break_by_input_order():
    # Ties straddling quintile boundaries are split by input order: the four
    # 0.0-deltas fill Q0 and Q1 in the order they arrived, the four 0.1s fill
    # Q2 and Q3.
    deltas = [0.0, 0.0, 0.0, 0.0, 0.1, 0.1, 0.1, 0.1, 0.2, 0.2]
    observations = [obs(d, float(i)) for i, d in enumerate(deltas)]
    report = quintile_report(observations)
    assert report.quintile_mean_sigma_mvp == (0.5, 2.5, 4.5, 6.5, 8.5)


def test_quintile_report_subperiod_split():
    event = date(2025, 3, 3)
    pre_obs = [obs(0.1 * i, 10.0 + i, end=date(2025, 2, 3)) for i in range(5)]
    post_obs = [obs(0.1 * i, 30.0 - i, end=date(2025, 3, 3)) for i in range(5)]
    report = quintile_report(pre_obs + post_obs, event_date=event)
    assert report.pre_shock is not None and report.pre_shock[2] == 5
    assert report.post_shock is not None and report.post_shock[2] == 5
    assert report.pre_shock[0] > 0 and report.post_shock[0] < 0
    # Observations ending exactly on the event date count as post-shock.


def test_quintile_report_requires_five_observations():
    with pytest.raises(DataError):
        quintile_report([obs(0.1, 10.0)] * 4)


def test_quintile_report_constant_benchmark_reported_absent():
    observations = [obs(0.1 * i, 10.0 + i, rho_bar=0.3, sigma_hist=12.0)
                    for i in range(8)]
    report = quintile_report(observations)
    assert report.benchmark_spearman_rho_bar is None
    assert report.benchmark_spearman_sigma_hist is None
    assert report.spearman_delta_mvp.rho == pytest.approx(1.0)


def test_incremental_r2_never_negative():
    rng = np.random.default_rng(52)
    for _ in range(40):
        n = int(rng.integers(10, 200))
        y = rng.standard_normal(n)
        b = rng.standard_normal(n)
        extra = rng.standard_normal(n)
        assert incremental_r2(y, b, extra) >= -1e-12


def test_incremental_r2_detects_added_signal():
    rng = np.random.default_rng(53)
    n = 500
    b = rng.standard_normal(n)
    extra = rng.standard_normal(n)
    y = b + 2.0 * extra + 0.1 * rng.standard_normal(n)
    gain = incremental_r2(y, b, extra)
    assert gain > 0.5
