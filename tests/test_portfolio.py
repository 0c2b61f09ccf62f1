"""Portfolio construction, rolling study, Spearman, and quintile-report tests."""
import logging
import math
import sys
import tracemalloc
from datetime import date
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from marketgap import portfolio
from marketgap.errors import DataError, UndefinedCorrelationError, UsageError
from marketgap.panel import ReturnPanel, log_returns
from marketgap.portfolio import (
    Observations,
    StudyConfig,
    _certified,
    _subsets,
    _window_columns,
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

from conftest import make_returns, symmetry_spy


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


@st.composite
def covariance_stacks(draw):
    """Stacks of symmetric n x n covariances, well-conditioned to rank-deficient.

    A "spectrum" member is Q diag(lambda) Q' with log10 cond from 0 to 13; the
    others are the zero matrix, a covariance with a duplicated column, one with
    an x / -x pair of columns, and a scaled identity.
    """
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = st.sampled_from(["spectrum", "zero", "duplicate", "opposite", "identity"])
    members = []
    for kind in draw(st.lists(kinds, min_size=1, max_size=8)):
        scale = 10.0 ** rng.uniform(-6.0, 2.0)
        if kind == "spectrum":
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            spread = np.r_[0.0, rng.uniform(0.0, 1.0, n - 2), 1.0]
            v = (q * scale * 10.0 ** (-draw(st.floats(0.0, 13.0)) * spread)) @ q.T
        elif kind == "zero":
            v = np.zeros((n, n))
        elif kind == "identity":
            v = scale * np.eye(n)
        else:
            x = rng.standard_normal((n, n + 20))
            i, j = rng.choice(n, size=2, replace=False)
            x[j] = x[i] if kind == "duplicate" else -x[i]
            v = covariance_matrix(np.sqrt(scale) * x)
        members.append((v + v.T) / 2.0)
    return np.stack(members)


@settings(max_examples=300, deadline=None, database=None)
@given(cov=covariance_stacks())
def test_mvp_weights_match_the_pseudo_inverse(cov):
    q = mvp_weights(cov)
    ref = oracle.pinv_mvp_weights(cov)
    assert np.array_equal(np.isnan(q), np.isnan(ref))
    lam = np.linalg.eigvalsh(cov)
    n, eps = cov.shape[-1], np.finfo(float).eps
    for k in range(len(cov)):
        assert q[k].tobytes() == mvp_weights(cov[k]).tobytes()
        if np.isnan(q[k]).all():
            continue
        assert abs(q[k].sum() - 1.0) <= 1e-10
        if lam[k, 0] <= 1e-8 * lam[k, -1]:
            # Every covariance pinv could truncate keeps the pinv weights.
            assert q[k].tobytes() == ref[k].tobytes()
        else:
            cond = lam[k, -1] / lam[k, 0]
            bound = (64 + n * cond) * eps * np.abs(ref[k]).max()
            assert np.abs(q[k] - ref[k]).max() <= bound


@st.composite
def scaled_covariance_stacks(draw):
    """(V, d, ascending eigenvalues of C) of sample covariance stacks V = D C D.

    Each member holds up to 3 factors plus noise over t days, t < n in some
    (rank-deficient V), with asset scales d from 1e-4 to 1e2 spread over 0 to
    6 decades, mostly few. A "duplicate" member repeats an asset plus 1e-9
    noise, and a "zero" member holds an all-zero asset, whose C is undefined
    and whose eigenvalues are NaN here.
    """
    n = draw(st.integers(2, 12))
    t = draw(st.integers(2, 3 * n + 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = st.sampled_from(["factor", "factor", "factor", "duplicate", "zero"])
    members = []
    for kind in draw(st.lists(kinds, min_size=1, max_size=8)):
        k = int(rng.integers(0, 4))
        x = (rng.standard_normal((n, k)) @ rng.standard_normal((k, t))
             + rng.uniform(0.01, 1.0) * rng.standard_normal((n, t)))
        i, j = rng.choice(n, size=2, replace=False)
        if kind == "duplicate":
            x[j] = x[i] + 1e-9 * rng.standard_normal(t)
        elif kind == "zero":
            x[j] = 0.0
        spread = 6.0 * rng.uniform(0.0, 1.0) ** 2  # decades from the smallest scale to the largest
        low = rng.uniform(-4.0, 2.0 - spread)
        members.append(x * 10.0 ** (low + spread * rng.uniform(0.0, 1.0, (n, 1))))
    cov = covariance_matrix(np.stack(members))
    d = np.sqrt(np.diagonal(cov, axis1=-2, axis2=-1))
    eig = np.full(cov.shape[:-1], np.nan)
    defined = (d > 0.0).all(axis=-1)
    scale = d[defined, :, np.newaxis] * d[defined, np.newaxis, :]
    eig[defined] = portfolio.correlation_spectra(cov[defined] / scale).eigenvalues
    return cov, d, eig


@settings(max_examples=300, deadline=None, database=None)
@given(case=scaled_covariance_stacks())
def test_certified_covariances_pass_the_solve_rule(case):
    cov, d, eig = case
    certified = _certified(eig, d)
    assert not certified[np.isnan(eig).any(axis=-1)].any()
    for k in np.flatnonzero(certified):
        lam = np.linalg.eigvalsh(cov[k])
        assert lam[0] > 1e-8 * lam[-1]
    assert mvp_weights(cov, certified).tobytes() == mvp_weights(cov).tobytes()


def test_certificate_takes_off_its_error_margin_and_the_scale_spread():
    n = 10
    eig = np.tile(np.linspace(0.5, 2.0, n), (6, 1))  # cond(C) = 4
    # (lambda_max / lambda_min)(C) just under 1e6, by 1e-9 and by 1e-4 of it:
    # only the second stays under once delta = 64 n^2 eps widens the spectrum.
    eig[:2, 0], eig[:2, -1] = [1e-6 * (1 + 1e-9), 1e-6 * (1 + 1e-4)], 1.0
    eig[4, 0] = np.nan
    d = np.ones((6, n))
    d[2, 0] = 1e3  # 4 * (1e3)^2 is over 1e6
    d[3, 0] = 10.0  # 4 * 10^2 is not
    d[5, 0] = 0.0
    assert _certified(eig, d).tolist() == [False, True, False, True, False, False]


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


def _reference_tail(nu, t):
    """2 stdtr(nu, -|t|); at nu = 1 the Cauchy tail 2/pi atan(1/|t|) instead.

    SciPy 1.17.1's stdtr is off by up to 3e-9 relative at nu = 1 near |t| = 1e-8
    (checked against mpmath), so it cannot judge that column.
    """
    if nu == 1:
        return 2.0 / math.pi * math.atan2(1.0, abs(t))
    from scipy.special import stdtr
    return 2.0 * float(stdtr(nu, -abs(t)))


@st.composite
def tail_cases(draw):
    nu = draw(st.integers(1, 20_000))
    # Up to |t| = 1e8 sqrt(nu), past the largest t a float |rho| < 1 gives;
    # for large nu that runs p from 1 down past the smallest subnormal.
    log_t = draw(st.floats(-10.0, 8.0 + 0.5 * math.log10(nu)))
    return nu, 10.0 ** log_t * draw(st.sampled_from([1.0, -1.0]))


@settings(max_examples=1500, deadline=None, database=None)
@given(case=tail_cases())
def test_t_tail_matches_scipy_stdtr(case):
    nu, t = case
    p = portfolio._t_two_sided(nu, t)
    ref = _reference_tail(nu, t)
    assert 0.0 <= p <= 1.0
    if ref >= 1e-300:
        assert abs(p - ref) <= 1e-12 * ref, (nu, t, p, ref)
    else:
        assert p <= 1e-300 * (1.0 + 1e-12), (nu, t, p, ref)


@pytest.mark.parametrize("nu", [2, 3, 10, 100, 1000, 16954, 20000])
def test_t_tail_across_the_fraction_switch(nu):
    # The two branches meet near t^2 = 3, where p is about 0.08. A fraction
    # that lost digits to x near 1 missed SciPy by 1.5e-12 at nu = 16954.
    from scipy.special import stdtr
    for t in [1.9208800523804646, *np.sqrt(np.linspace(0.5, 12.0, 200))]:
        ref = 2.0 * float(stdtr(nu, -t))
        assert abs(portfolio._t_two_sided(nu, float(t)) - ref) <= 1e-12 * ref, t


def test_t_tail_closed_forms_at_one_and_two_degrees_of_freedom():
    for t in 10.0 ** np.linspace(-12, 15, 300):
        cauchy = 2.0 / math.pi * math.atan2(1.0, t)
        s = math.sqrt(2.0 + t * t)
        nu2 = 2.0 / ((s + t) * s)  # 1 - t / sqrt(2 + t^2) without the cancellation
        assert abs(portfolio._t_two_sided(1, t) - cauchy) <= 1e-12 * cauchy, t
        assert abs(portfolio._t_two_sided(2, -t) - nu2) <= 1e-12 * nu2, t


def test_t_tail_is_one_at_zero_t():
    for nu in (1, 2, 3, 17998):
        assert portfolio._t_two_sided(nu, 0.0) == 1.0
        assert portfolio._t_two_sided(nu, -0.0) == 1.0
    # Centered ranks (-2..2) and (-1, 2, 0, -2, 1) are exactly orthogonal.
    assert spearman([1, 2, 3, 4, 5], [2, 5, 3, 1, 4]) == (0.0, 1.0)


# SciPy 1.17.1's stdtr on each side of the point where it returns 0.0: the
# last nonzero tail and the next t, where it gives 0.0 although the tail is a
# subnormal number (1.48e-308 at nu = 3, 3.1e-311 at nu = 17998). nu = 3 to
# 1000 sum Boost's power series, nu = 5000 and 17998 its BGRAT.
SCIPY_LAST_NONZERO = [
    (3, 5.2975e102, 5.29753e102, 1.4833985489260195e-308),
    (10, 1.88049e31, 1.8805e31, 4.450310380146887e-309),
    (100, 12092.7, 12092.8, 4.4515550881228e-310),
    (1000, 56.0786, 56.079, 5.1211552124917e-311),
    (5000, 40.5621, 40.5624, 3.1365976343677e-311),
    (17998, 38.4701, 38.4704, 3.1425755926593e-311),
]


@pytest.mark.parametrize("nu,t_last,t_zero,p_last", SCIPY_LAST_NONZERO)
def test_t_tail_underflows_where_scipy_does(nu, t_last, t_zero, p_last):
    p = portfolio._t_two_sided(nu, t_last)
    assert 0.0 < p < sys.float_info.min
    assert abs(p - p_last) <= 1e-12 * p_last
    assert portfolio._t_two_sided(nu, t_zero) == 0.0
    assert portfolio._t_two_sided(nu, 10.0 * t_zero) == 0.0


def test_t_tail_subnormal_and_vanishing_values():
    from scipy.special import stdtr
    # Subnormal tails SciPy 1.17.1 returns too, against mpmath (40 digits).
    for nu, t, exact in [(2, 1e154, 1e-308), (3, 5.2959e102, 1.4847434505374704e-308),
                         (200, 492.43, 2.23538916515777e-310),
                         (17998, 38.4698, 3.1762905124005e-311)]:
        p = portfolio._t_two_sided(nu, t)
        assert 0.0 < p < sys.float_info.min
        assert abs(p - exact) <= 1e-12 * exact, (nu, t)
    # Tails below half the smallest subnormal: 0.0 on both sides. The last t is
    # the largest a float |rho| < 1 gives at that nu.
    for nu, t in [(17998, 39.32), (30, 4e11), (3, 1e110), (17998, 1e8 * math.sqrt(17998))]:
        assert 2.0 * float(stdtr(nu, -t)) == 0.0
        assert portfolio._t_two_sided(nu, t) == 0.0
    # Past |t| ~ 1e154, t^2 leaves the float range: 0.0, as in SciPy 1.17.1.
    assert portfolio._t_two_sided(1, 1e160) == portfolio._t_two_sided(2, -1e160) == 0.0


@pytest.mark.parametrize("gap", [1e-12, 1e-14, 2.0 ** -53])
@pytest.mark.parametrize("nu", [1, 2, 3, 10, 30, 100])
def test_t_tail_for_rho_within_1e12_of_one(nu, gap):
    for rho in (1.0 - gap, gap - 1.0):
        t = rho * math.sqrt(nu / (1.0 - rho * rho))
        p = portfolio._t_two_sided(nu, t)
        ref = _reference_tail(nu, t)
        if ref >= 1e-300:
            assert abs(p - ref) <= 1e-12 * ref, (rho, p, ref)
        else:
            assert p == ref == 0.0, (rho, p, ref)


def test_spearman_p_value_for_rho_within_1e12_of_one():
    # One adjacent swap in 30000 ranks: rho = 1 - 12 / (n (n^2 - 1)) ~ 1 - 4.4e-13.
    n = 30_000
    x = np.arange(n, dtype=float)
    y = x.copy()
    y[[100, 101]] = y[[101, 100]]
    rho, p = spearman(x, y)
    assert 0.0 < 1.0 - rho <= 1e-12
    assert rho == pytest.approx(1.0 - 12.0 / (n * (n * n - 1.0)), abs=1e-15)
    assert p == 0.0
    rho, p = spearman(x, y[::-1])
    assert 0.0 < 1.0 + rho <= 1e-12 and p == 0.0


def test_study_config_annualization_must_be_finite_and_positive():
    for value in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        with pytest.raises(UsageError, match="annualization"):
            StudyConfig(annualization=value)


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

def numpy_subsets(prefix, keys, m, n):
    return np.array([np.sort(np.random.default_rng([*prefix, p]).choice(m, n, replace=False))
                     for p in keys])


@st.composite
def subset_cases(draw):
    """Keys whose seed spans one to three 32-bit words, a range of 1 to 8 lanes that
    starts at 0 or further on, and (m, n) on both choice branches."""
    seed = draw(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 3]) | st.integers(0, 2**96))
    prefix = (seed, draw(st.integers(0, 5)), draw(st.integers(0, 2**40)))
    m = draw(st.integers(1, 10000) | st.integers(10001, 30000))
    if m > 10000:  # Floyd up to m // 50, the tail shuffle above it
        n = m // 50 + draw(st.integers(-5, 5))
    else:
        n = draw(st.integers(1, min(m, 300)) | st.just(m))
    start = draw(st.just(0) | st.integers(1, 2**32 - 8))
    return prefix, range(start, start + draw(st.integers(1, 8))), m, n


@settings(max_examples=150, deadline=None, database=None)
@given(case=subset_cases())
def test_subsets_match_numpy_choice(case):
    prefix, keys, m, n = case
    np.testing.assert_array_equal(_subsets(prefix, keys, m, n),
                                  numpy_subsets(prefix, keys, m, n), strict=True)


@settings(max_examples=60, deadline=None, database=None)
@given(prefix=st.tuples(st.integers(0, 2**64), st.integers(0, 5), st.integers(0, 100)),
       shuffle=st.booleans(), count=st.integers(1, 40), data=st.data())
def test_subsets_drawn_in_chunks_join_to_the_whole_draw(prefix, shuffle, count, data):
    # The study draws each chunk's range of keys apart; the rows must be the
    # whole range's, bit for bit, on the Floyd branch and the tail shuffle.
    m, n = (10001, 201) if shuffle else (60, 10)
    cuts = sorted(data.draw(st.lists(st.integers(1, count - 1), max_size=4, unique=True))
                  if count > 1 else [])
    bounds = [0, *cuts, count]
    chunks = [_subsets(prefix, range(lo, hi), m, n) for lo, hi in zip(bounds, bounds[1:])]
    np.testing.assert_array_equal(np.concatenate(chunks), _subsets(prefix, range(count), m, n),
                                  strict=True)


@pytest.mark.parametrize("m,n", [(1, 1), (7, 7), (10000, 10000), (10001, 10001), (12000, 600)])
def test_subsets_match_numpy_choice_at_branch_edges(m, n):
    for seed in (0, 2**32):
        np.testing.assert_array_equal(_subsets((seed, 1, 2), range(3), m, n),
                                      numpy_subsets((seed, 1, 2), range(3), m, n), strict=True)


def test_subsets_match_numpy_choice_where_lemire_redraws_often():
    # At m = 3 * 2**30 about one draw in four is redrawn, so after the first
    # draw the lanes hold a kept high half or none, mixed.
    np.testing.assert_array_equal(_subsets((5, 1, 2), range(64), 3 * 2**30, 4),
                                  numpy_subsets((5, 1, 2), range(64), 3 * 2**30, 4), strict=True)


def test_subsets_golden_draws():
    # Fixed here, so the study's stream stays put whatever a later NumPy does.
    assert _subsets((3, 0, 0), range(3), 60, 10).tolist() == [
        [2, 4, 5, 9, 12, 33, 41, 44, 49, 54],
        [2, 10, 13, 14, 22, 34, 35, 40, 47, 54],
        [1, 6, 16, 23, 33, 39, 50, 53, 55, 56],
    ]
    assert _subsets((2**64 + 3, 1, 17), range(2), 100, 5).tolist() == [
        [10, 22, 58, 61, 66], [9, 17, 41, 83, 90]]
    tail = _subsets((7, 2, 5), range(2), 10001, 201)  # the tail-shuffle branch
    assert tail[:, :6].tolist() == [[80, 93, 130, 141, 221, 224], [1, 46, 48, 75, 116, 250]]
    assert tail.sum(axis=1).tolist() == [950231, 976971]


def test_subsets_reject_negative_key():
    with pytest.raises(UsageError, match="non-negative"):
        _subsets((-1, 0, 0), range(2), 10, 3)


# ---------- Rolling study ----------

STUDY_COLUMNS = ("window_index", "window_end", "picks", "delta", "rho_bar", "sigma_hist",
                 "sigma_mvp", "sigma_ew")


def same_columns(got: Observations, want, rows=slice(None)) -> bool:
    """Whether `got` holds `want`'s columns (an Observations or a dict), or their `rows`,
    bit for bit and with the same dtypes and shapes."""
    def column(obs, key):
        return obs[key] if isinstance(obs, dict) else getattr(obs, key)

    return all(column(got, key).dtype == column(want, key)[rows].dtype
               and column(got, key).shape == column(want, key)[rows].shape
               and column(got, key).tobytes() == column(want, key)[rows].tobytes()
               for key in STUDY_COLUMNS)


def assert_matches_oracle(result, returns, config, seed, market="ALL", stream=0):
    """The study's columns and skips are the per-subset oracle's; returns its records."""
    records, skipped_windows, skipped = oracle.portfolio_study(
        returns, config, seed, market=market, stream=stream)
    obs = result.observations
    assert (obs.market, obs.tickers) == (market, tuple(returns.tickers))
    n_windows = len(range(config.formation, returns.n_dates - config.test + 1,
                          config.effective_step))
    assert same_columns(obs, oracle.observation_columns(records, returns.tickers,
                                                        config.n_stocks, n_windows))
    assert result.skipped_windows == skipped_windows
    assert result.skipped_portfolios == skipped
    return records


def picked_tickers(obs: Observations) -> list[tuple[str, ...]]:
    return [tuple(obs.tickers[j] for j in row) for row in obs.picks.tolist()]


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
    assert same_columns(first.observations, second.observations)

    different = run_portfolio_study(returns, config, seed=6)
    assert not np.array_equal(different.observations.picks, first.observations.picks)


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
    assert set(part.observations.window_index.tolist()) == set(range(n_windows))
    assert same_columns(part.observations, full.observations,
                        full.observations.window_index < n_windows)


def test_study_resamples_stocks_each_window(small_study):
    returns, config = small_study
    result = run_portfolio_study(returns, config, seed=5)
    per_window = {}
    for w, tickers in zip(result.observations.window_index.tolist(),
                          picked_tickers(result.observations)):
        per_window.setdefault(w, set()).add(tickers)
    draws = [frozenset(s) for s in per_window.values()]
    assert len(set(draws)) > 1  # fresh draws, not one fixed subset


def test_study_window_geometry(small_study):
    returns, config = small_study
    result = run_portfolio_study(returns, config, seed=5)
    ends = sorted(set(result.observations.window_end.tolist()))
    idx = [returns.dates.index(d) for d in ends]
    assert idx[0] == 59  # first formation window ends at row 60 (1-based)
    assert all(b - a == 20 for a, b in zip(idx, idx[1:]))


def test_study_skips_windows_without_enough_stocks():
    rng = np.random.default_rng(30)
    values = rng.normal(0, 0.01, size=(100, 9))  # only 9 stocks, need 10
    returns = make_returns(values)
    result = run_portfolio_study(returns, StudyConfig(portfolios=5), seed=1)
    assert len(result.observations) == 0 and result.observations.picks.shape == (0, 10)
    assert len(result.skipped_windows) == 2
    assert "eligible" in result.skipped_windows[0][1]


def test_study_excludes_zero_variance_stocks():
    rng = np.random.default_rng(31)
    values = rng.normal(0, 0.01, size=(100, 11))
    values[:, 3] = 0.0  # flat stock never eligible
    returns = make_returns(values)
    result = run_portfolio_study(returns, StudyConfig(portfolios=10), seed=2)
    assert len(result.observations)
    assert 3 not in result.observations.picks


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
    obs = result.observations
    assert len(obs) > 20
    for end, cols, got_delta, got_rho in zip(obs.window_end.tolist(), obs.picks.tolist(),
                                             obs.delta.tolist(), obs.rho_bar.tolist()):
        end_row = returns.dates.index(end) + 1
        delta, rho_bar = oracle.subset_gap(returns.values[end_row - 60:end_row, cols].T)
        assert abs(got_delta - delta) <= 1e-12 and abs(got_rho - rho_bar) <= 1e-12
        sub = ReturnPanel(dates=list(returns.dates), tickers=[returns.tickers[j] for j in cols],
                          values=returns.values[:, cols])
        ref = oracle.spectral_summary(oracle.standardize_window(sub, end_row - 60, end_row))
        assert abs(got_delta - ref.delta) <= 1e-12 and abs(got_rho - ref.rho_signed) <= 1e-12


@st.composite
def study_cases(draw):
    """Panels with NaN runs and flat stretches, and studies with n_stocks up to past formation.

    Some panels also hold a flat asset, a near-collinear pair or assets on
    scales far apart, whose covariances the weights' certificate leaves to
    eigvalsh; the pair's noise level decides between the solve and pinv.
    """
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
    if n_assets >= 4 and draw(st.booleans()):
        noise = 10.0 ** draw(st.floats(-7.0, -2.0))
        values[:, 3] = values[:, 2] + noise * values[:, 0]
    if draw(st.booleans()):
        values *= 10.0 ** rng.uniform(-2.0, 1.5, n_assets)
    if draw(st.booleans()):
        values[:, draw(st.integers(0, n_assets - 1))] = 0.003
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


def report_or_error(report, observations, event):
    try:
        return report(observations, event)
    except UndefinedCorrelationError:
        return UndefinedCorrelationError


@settings(max_examples=120, deadline=None, database=None)
@given(case=study_cases())
def test_study_matches_per_subset_oracle(case):
    returns, config, seed, stream = case
    result = run_portfolio_study(returns, config, seed=seed, market="M", stream=stream)
    records = assert_matches_oracle(result, returns, config, seed, market="M", stream=stream)
    # The report read from the columns is the one taken over the oracle's records.
    if len(records) >= 5:
        event = returns.dates[returns.n_dates // 2]
        assert (report_or_error(quintile_report, result.observations, event)
                == report_or_error(oracle.quintile_report, records, event))


@settings(max_examples=60, deadline=None, database=None)
@given(case=study_cases())
def test_study_correlation_stacks_are_exactly_symmetric(case):
    # The kernel cleans each cov / (d d') stack in place without symmetrizing
    # it; the oracle kernel symmetrizes a copy and must give the same study.
    returns, config, seed, stream = case
    verdicts = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(portfolio, "correlation_spectra",
                   symmetry_spy(portfolio.correlation_spectra, verdicts))
        got = run_portfolio_study(returns, config, seed=seed, stream=stream)
        mp.setattr(portfolio, "correlation_spectra", oracle.correlation_spectra)
        want = run_portfolio_study(returns, config, seed=seed, stream=stream)
    assert all(verdicts)
    assert verdicts or not len(got.observations)
    assert same_columns(got.observations, want.observations)
    assert got.skipped_portfolios == want.skipped_portfolios


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
    for w, tickers in zip(result.observations.window_index.tolist(),
                          picked_tickers(result.observations)):
        pairs.setdefault(w, []).append(tickers)
    n_windows = (120 - 30 - 10) // 10 + 1
    assert sorted(pairs) == list(range(n_windows))
    for kept in pairs.values():
        assert ("T0", "T1") not in kept
        assert set(kept) == {("T0", "T2"), ("T1", "T2")}
    assert result.skipped_portfolios == n_windows * 30 - len(result.observations) > 0
    assert_matches_oracle(result, returns, config, 4)


def test_study_logs_its_counts_and_the_pseudo_inverse_rows(caplog):
    # As above, the pair {x, -x} is singular, so its weights take the pseudo-
    # inverse and are undefined; the first window has too few eligible stocks.
    rng = np.random.default_rng(41)
    x, y = rng.normal(0, 0.02, size=(2, 120))
    values = np.column_stack([x, -x, y])
    values[:10, 1:] = np.nan
    config = StudyConfig(formation=30, test=10, n_stocks=2, portfolios=30)
    with caplog.at_level(logging.DEBUG, logger="marketgap"):
        result = run_portfolio_study(make_returns(values), config, seed=4, market="M")
    assert [w for w, _ in result.skipped_windows] == [0]
    assert result.skipped_portfolios > 0
    assert (f"portfolio study M: 8 window(s) run, 1 skipped; {len(result.observations)} "
            f"observations, {result.skipped_portfolios} portfolio(s) skipped") in caplog.text
    pinv_rows = [r.args[0] for r in caplog.records if "pseudo-inverse" in r.getMessage()]
    assert sum(pinv_rows) == result.skipped_portfolios
    assert all(r.levelno == logging.DEBUG for r in caplog.records
               if "pseudo-inverse" in r.getMessage())


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
    assert 0 not in result.observations.picks
    assert_matches_oracle(result, returns, config, 7)


def test_study_routes_uncertified_covariances_through_eigvalsh(caplog, monkeypatch):
    # T1 is T0 plus noise 1e-5 its size, so subsets holding both have
    # cond(V) ~ 1e10 and take the pseudo-inverse; T2 runs on a scale 1e3 above
    # the rest, so subsets holding it fail the certificate but pass eigvalsh's
    # rule and are solved. Both routes give the oracle's weights.
    rng = np.random.default_rng(44)
    values = rng.normal(0, 0.01, size=(120, 7))
    values[:, 1] = values[:, 0] + 1e-5 * rng.normal(0, 0.01, 120)
    values[:, 2] *= 1e3
    returns = make_returns(values)
    config = StudyConfig(formation=60, test=20, n_stocks=3, portfolios=40)
    stacks, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: stacks.append(len(a)) or eigvalsh(a))
    with caplog.at_level(logging.DEBUG, logger="marketgap"):
        result = run_portfolio_study(returns, config, seed=5)
    count = {key: sum(r.args[0] for r in caplog.records if key in r.getMessage())
             for key in ("not certified", "pseudo-inverse")}
    assert count["not certified"] > count["pseudo-inverse"] > 0
    # One correlation spectrum per subset of the 3 windows; the covariances
    # take eigvalsh only where they are not certified.
    assert sum(stacks) == 3 * 40 + count["not certified"]
    assert_matches_oracle(result, returns, config, 5)


def test_study_peak_memory_is_one_chunk_plus_the_observation_columns():
    # 4000 portfolios of 10 stocks over 60 days: each (P, n, t) stack is 19 MB
    # when a window is one stack. In chunks, the traced peak is one chunk's
    # stacks (1.7 caps here) over the block of observation columns: a byte of
    # window index and of each pick, and five floats, per draw.
    rng = np.random.default_rng(50)
    returns = make_returns(rng.normal(0, 0.01, size=(120, 14)))
    config = StudyConfig(formation=60, test=20, n_stocks=10, portfolios=4000)
    tracemalloc.start()
    try:
        result = run_portfolio_study(returns, config, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.observations) == 3 * 4000 - result.skipped_portfolios
    columns = 3 * 4000 * (1 + config.n_stocks + 8 * 5) + 8 * len(result.observations)
    assert peak <= 2 * portfolio._STACK_BYTES + columns + (1 << 20)


def test_observations_take_59_bytes_each_on_the_risk_study_preset(risk_panel):
    # 18 windows over 60 tickers: a byte of window index and one for each of
    # the 10 picks, eight of end date and five floats.
    panel, _ = risk_panel
    config = StudyConfig(portfolios=20)
    for stream, market in enumerate(panel.markets()):
        returns = log_returns(panel.market_panel(market))
        obs = run_portfolio_study(returns, config, seed=9, market=market,
                                  stream=stream).observations
        assert np.unique(obs.window_index).size == 18 and len(obs) > 0
        assert (obs.window_index.dtype, obs.picks.dtype) == (np.uint8, np.uint8)
        assert sum(getattr(obs, key).nbytes for key in STUDY_COLUMNS) <= 59 * len(obs)


@pytest.mark.parametrize("n_assets, dtype", [(256, np.uint8), (257, np.uint16),
                                              (300, np.uint16)])
def test_study_picks_fit_the_ticker_count_and_match_the_oracle(n_assets, dtype):
    # Positions up to 255 fit a byte and one more ticker takes two; each study
    # draws positions within 20 of its last, past 255 for the wider two.
    rng = np.random.default_rng(53)
    returns = make_returns(rng.normal(0, 0.01, size=(40, n_assets)))
    config = StudyConfig(formation=15, test=5, n_stocks=6, portfolios=40)
    result = run_portfolio_study(returns, config, seed=8)
    picks = result.observations.picks
    assert picks.dtype == dtype and picks.max() >= n_assets - 20
    assert_matches_oracle(result, returns, config, 8)


def test_window_peak_memory_is_one_chunk_over_the_kept_columns():
    # 5000 portfolios of 10 stocks over 60 days run in 6 chunks of 873. Each
    # chunk draws its own subsets, so over the columns it keeps the window
    # peaks no higher than a window of one chunk does: its stacks and its
    # lanes. Drawing all 5000 subsets first held their 400 kB of positions
    # through every chunk, and peaked 260 kB above a window of one chunk.
    rng = np.random.default_rng(50)
    form, test = rng.normal(0, 0.01, size=(60, 60)), rng.normal(0, 0.01, size=(20, 60))
    chunk = portfolio._STACK_BYTES // (8 * 10 * 60)

    def peak_over_columns(portfolios):
        config = StudyConfig(formation=60, test=20, n_stocks=10, portfolios=portfolios)
        tracemalloc.start()
        try:
            columns = _window_columns(form, test, config, (9, 0, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(len(c[0]) for c in columns) == portfolios
        return peak - sum(c.nbytes for cols in columns for c in cols)

    assert 5000 // chunk == 5
    assert peak_over_columns(5000) <= peak_over_columns(chunk) + (64 << 10)


@pytest.mark.parametrize("per_chunk", [1, 3])
def test_study_chunks_join_to_the_one_chunk_columns(small_study, monkeypatch, per_chunk):
    # The default cap holds a window's 25 portfolios in one chunk; a cap of one
    # byte gives chunks of one portfolio, and one of 3 portfolios' stacks gives
    # chunks of 3, which do not divide 25.
    returns, config = small_study
    stack = 8 * config.n_stocks * max(config.formation, config.test)
    assert portfolio._STACK_BYTES >= config.portfolios * stack
    default = run_portfolio_study(returns, config, seed=5)
    calls = []
    chunk_columns = portfolio._chunk_columns
    monkeypatch.setattr(portfolio, "_chunk_columns",
                        lambda *args: calls.append(len(args[4])) or chunk_columns(*args))
    monkeypatch.setattr(portfolio, "_STACK_BYTES", 1 if per_chunk == 1 else per_chunk * stack)
    chunked = run_portfolio_study(returns, config, seed=5)
    n_windows = (returns.n_dates - 80) // 20 + 1
    p = config.portfolios
    assert calls == [min(per_chunk, p - lo) for lo in range(0, p, per_chunk)] * n_windows
    assert same_columns(chunked.observations, default.observations)
    assert chunked.skipped_windows == default.skipped_windows
    assert chunked.skipped_portfolios == default.skipped_portfolios
    assert_matches_oracle(chunked, returns, config, 5)


@settings(max_examples=60, deadline=None, database=None)
@given(case=study_cases(), per_chunk=st.integers(1, 6))
def test_study_in_small_chunks_matches_the_default_and_the_oracle(case, per_chunk):
    # Panels with skipped windows, undefined weights and eigvalsh routes, in
    # chunks of 1 to 6 portfolios.
    returns, config, seed, stream = case
    default = run_portfolio_study(returns, config, seed=seed, stream=stream)
    stack = 8 * config.n_stocks * max(config.formation, config.test)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(portfolio, "_STACK_BYTES", per_chunk * stack)
        chunked = run_portfolio_study(returns, config, seed=seed, stream=stream)
    assert same_columns(chunked.observations, default.observations)
    assert chunked.skipped_windows == default.skipped_windows
    assert chunked.skipped_portfolios == default.skipped_portfolios
    assert_matches_oracle(chunked, returns, config, seed, stream=stream)


# ---------- Quintile report ----------

def obs(delta, sigma_mvp, end=date(2025, 6, 2), market="X", sigma_ew=None,
        rho_bar=None, sigma_hist=None):
    return oracle.PortfolioObservation(
        market=market, window_index=0, window_end=end, tickers=("A",) * 10,
        delta=delta,
        rho_bar=rho_bar if rho_bar is not None else 0.2 + 0.1 * delta,
        sigma_hist=sigma_hist if sigma_hist is not None else 12.0 + 0.1 * sigma_mvp,
        sigma_mvp=sigma_mvp, sigma_ew=sigma_ew if sigma_ew is not None else sigma_mvp,
    )


def columns(records) -> Observations:
    """The study's columns of hand-set `obs` records."""
    return Observations(market=records[0].market, tickers=("A",),
                        **oracle.observation_columns(records, ["A"], 10, 1))


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
    report = quintile_report(columns(observations))
    q = report.quintile_mean_sigma_mvp_pct
    assert all(q[i] > q[i + 1] for i in range(4))
    assert report.ls_spread_pct < 0
    assert report.ls_spread_pct == pytest.approx(q[4] - q[0], abs=1e-15)
    assert report.spearman_delta_mvp.rho < 0


def test_quintile_report_partition_covers_all_exactly_once():
    # Reconstruct the quintile means by brute force from the sorted deltas and
    # require exact agreement: every observation lands in exactly one group.
    rng = np.random.default_rng(51)
    observations = [obs(float(rng.standard_normal()), float(rng.uniform(5, 30)))
                    for _ in range(23)]
    report = quintile_report(columns(observations))
    order = sorted(range(23), key=lambda i: (observations[i].delta, i))
    sizes = quintile_partition(23)
    lo = 0
    expected = []
    for size in sizes:
        group = order[lo:lo + size]
        expected.append(np.mean([observations[i].sigma_mvp for i in group]))
        lo += size
    assert lo == 23
    np.testing.assert_allclose(report.quintile_mean_sigma_mvp_pct, expected, atol=1e-12)


def test_quintile_report_tie_break_by_input_order():
    # Ties straddling quintile boundaries are split by input order: the four
    # 0.0-deltas fill Q0 and Q1 in the order they arrived, the four 0.1s fill
    # Q2 and Q3.
    deltas = [0.0, 0.0, 0.0, 0.0, 0.1, 0.1, 0.1, 0.1, 0.2, 0.2]
    observations = [obs(d, float(i)) for i, d in enumerate(deltas)]
    report = quintile_report(columns(observations))
    assert report.quintile_mean_sigma_mvp_pct == (0.5, 2.5, 4.5, 6.5, 8.5)


def test_quintile_report_subperiod_split():
    event = date(2025, 3, 3)
    pre_obs = [obs(0.1 * i, 10.0 + i, end=date(2025, 2, 3)) for i in range(5)]
    post_obs = [obs(0.1 * i, 30.0 - i, end=date(2025, 3, 3)) for i in range(5)]
    report = quintile_report(columns(pre_obs + post_obs), event_date=event)
    assert report.pre_shock_spearman is not None and report.pre_shock_spearman[2] == 5
    assert report.post_shock_spearman is not None and report.post_shock_spearman[2] == 5
    assert report.pre_shock_spearman[0] > 0 and report.post_shock_spearman[0] < 0
    # Observations ending exactly on the event date count as post-shock.


def test_quintile_report_requires_five_observations():
    with pytest.raises(DataError):
        quintile_report(columns([obs(0.1, 10.0)] * 4))


def test_quintile_report_constant_benchmark_reported_absent():
    observations = [obs(0.1 * i, 10.0 + i, rho_bar=0.3, sigma_hist=12.0)
                    for i in range(8)]
    report = quintile_report(columns(observations))
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


@settings(max_examples=150, deadline=None, database=None)
@given(n=st.integers(5, 300), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-8, 1.0, 1e6]), case=st.sampled_from(["", "flat", "collinear"]))
def test_incremental_r2_has_the_bits_of_one_design_per_fit(n, seed, scale, case):
    # The package's fits share one (n, 3) design and square in place; the
    # oracle builds each fit's design and squares into new arrays.
    rng = np.random.default_rng(seed)
    y, benchmark, extra = rng.standard_normal((3, n)) * scale
    if case == "flat":
        y[:] = y[0]
    elif case == "collinear":
        extra = 3.0 * benchmark
    got, want = incremental_r2(y, benchmark, extra), oracle.incremental_r2(y, benchmark, extra)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@settings(max_examples=200, deadline=None, database=None)
@given(values=st.lists(st.integers(0, 6) | st.floats(-1e3, 1e3), min_size=1, max_size=60))
def test_average_ranks_are_the_exact_mean_positions(values):
    # Tie-rich and tie-free samples; 0.0 and -0.0 tie.
    ranks = portfolio._average_ranks(np.array(values, dtype=float))
    assert ranks.tolist() == [float(r) for r in fraction_average_ranks(values)]


def test_incremental_r2_detects_added_signal():
    rng = np.random.default_rng(53)
    n = 500
    b = rng.standard_normal(n)
    extra = rng.standard_normal(n)
    y = b + 2.0 * extra + 0.1 * rng.standard_normal(n)
    gain = incremental_r2(y, b, extra)
    assert gain > 0.5
