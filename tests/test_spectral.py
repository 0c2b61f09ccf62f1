"""Correlation kernel, eigenvalue, MP-bound, and gap-summary tests."""
import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from marketgap.errors import DegenerateWindowError, NumericError, UsageError
from marketgap.regimes import GapConfig, gap_series
from marketgap import spectral
from marketgap.spectral import (
    correlation_spectrum,
    equicorrelation,
    mean_offdiagonal,
    mp_bounds,
    rolling_spectra,
    summary_from_correlation,
)

from conftest import make_returns, random_correlation, zscore_rows


def window_corr(z):
    """Cleaned correlation matrix of standardized rows, through the kernel."""
    return correlation_spectrum(z @ z.T / z.shape[1]).values


def descending(values):
    return correlation_spectrum(np.asarray(values, dtype=float)).eigenvalues[::-1]


# ---------- Correlation matrices ----------

def test_identical_rows_give_perfect_correlation():
    z = zscore_rows(np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]))
    np.testing.assert_allclose(window_corr(z), [[1.0, 1.0], [1.0, 1.0]], atol=1e-14)


def test_negated_row_gives_minus_one():
    base = zscore_rows(np.array([[0.3, -0.1, 0.4, -0.6]]))[0]
    c = window_corr(np.vstack([base, -base]))
    assert c[0, 1] == pytest.approx(-1.0, abs=1e-14)


def test_independent_long_rows_nearly_uncorrelated():
    rng = np.random.default_rng(123)
    z = zscore_rows(rng.standard_normal((2, 1000)))
    assert abs(window_corr(z)[0, 1]) < 0.1


def test_correlation_preconditions():
    # One asset gives no correlation: the window reports it and holds no statistics.
    values = np.random.default_rng(0).standard_normal((50, 1))
    spectra = rolling_spectra(values, 50)
    assert spectra.n_assets.tolist() == [1]
    assert np.isnan(spectra.lambda_max[0]) and spectra.n_above_mp[0] == 0
    with pytest.raises(DegenerateWindowError, match="2 assets"):
        summary_from_correlation(np.ones((1, 1)), end_date=date(2025, 1, 2), n_obs=50)


def test_correlation_invariants_on_random_windows():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(2, 15))
        t = int(rng.integers(3, 90))
        c = window_corr(zscore_rows(rng.standard_normal((n, t))))
        oracle.named(c).validate()


def test_kernel_cleans_raw_estimate_without_touching_input():
    raw = np.array([[1.2, 0.5, -1.3], [0.3, 0.9, 0.2], [-1.1, 0.2, 1.0]])
    before = raw.copy()
    spectrum = correlation_spectrum(raw)
    c = spectrum.values
    np.testing.assert_array_equal(raw, before)
    np.testing.assert_array_equal(c, c.T)
    np.testing.assert_array_equal(np.diag(c), 1.0)
    assert c[0, 1] == 0.4 and c[0, 2] == -1.0
    assert spectrum.rho_signed == pytest.approx((0.4 - 1.0 + 0.2) / 3, abs=1e-15)
    assert spectrum.lambda_max == spectrum.eigenvalues[-1]
    assert np.all(np.diff(spectrum.eigenvalues) >= 0.0)  # ascending


def test_kernel_maps_linalg_failure_to_numeric_error(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NumericError, match="eigendecomposition failed for 3x3"):
        correlation_spectrum(np.eye(3))


# ---------- Eigen spectra ----------

def charpoly_eigenvalues(a):
    """Characteristic-polynomial oracle for n <= 4.

    Coefficients come from the Faddeev-LeVerrier trace recurrence
    M_k = A (M_{k-1} + c_{k-1} I), c_k = -tr(M_k) / k, so no symmetric
    eigensolver is involved; the roots come from the companion matrix of the
    explicit polynomial.
    """
    n = a.shape[0]
    assert n <= 4
    coeffs = [1.0]
    m = np.zeros_like(a)
    c = 1.0
    for k in range(1, n + 1):
        m = a @ (m + c * np.eye(n))
        c = -np.trace(m) / k
        coeffs.append(c)
    roots = np.roots(coeffs)
    return np.sort(roots.real)[::-1]


def test_identity_spectrum():
    np.testing.assert_allclose(descending(np.eye(5)), np.ones(5), atol=1e-12)


def test_equicorrelation_analytic_spectrum():
    expected = np.array([1 + 4 * 0.3, 0.7, 0.7, 0.7, 0.7])
    np.testing.assert_allclose(descending(equicorrelation(5, 0.3)), expected, atol=1e-10)


def test_equicorrelation_spectrum_grid():
    # Analytic spectrum {1 + (n-1)c} plus (n-1) copies of (1-c) across the
    # whole (c, n) grid.
    for c in np.arange(0.0, 0.95, 0.1):
        for n in (3, 5, 25, 120):
            w = descending(equicorrelation(n, float(c)))
            expected = np.concatenate([[1 + (n - 1) * c], np.full(n - 1, 1 - c)])
            np.testing.assert_allclose(w, expected, atol=1e-10)


def test_all_ones_rank_one_spectrum():
    w = descending(equicorrelation(10, 1.0))
    assert w[0] == pytest.approx(10.0, abs=1e-10)
    np.testing.assert_allclose(w[1:], 0.0, atol=1e-10)


def test_eigen_matches_charpoly_oracle_small_n():
    rng = np.random.default_rng(77)
    for n in (2, 3, 4):
        for _ in range(40):
            c = random_correlation(rng, n)
            got = descending(c)
            want = charpoly_eigenvalues(c)
            np.testing.assert_allclose(got, want, atol=1e-8)


def test_eigen_ascending_trace_and_full_decomposition_oracle():
    rng = np.random.default_rng(31)
    for _ in range(15):
        n = int(rng.integers(3, 40))
        c = random_correlation(rng, n)
        w = correlation_spectrum(c).eigenvalues
        assert np.all(np.diff(w) >= -1e-12)  # ascending
        assert abs(w.sum() - n) < 1e-8  # trace preserved
        full = oracle.eigen_spectrum(oracle.named(c))
        v = full.eigenvectors
        # The reference decomposition reconstructs c, so its eigenvalues are
        # the spectrum; the kernel's must agree with them.
        assert np.max(np.abs(v @ np.diag(full.eigenvalues) @ v.T - c)) < 1e-8
        np.testing.assert_allclose(w[::-1], full.eigenvalues, atol=1e-12)


# ---------- Marchenko-Pastur bounds ----------

def test_mp_bounds_q_equal_one():
    b = mp_bounds(50, 50)
    assert b.lower == 0.0 and b.upper == 4.0


def test_mp_bounds_closed_form_values():
    # Oracle: direct closed-form evaluation (1 +- sqrt(1/q))^2.
    b = mp_bounds(60, 120)
    assert b.upper == pytest.approx((1 + math.sqrt(2.0)) ** 2, abs=1e-12)
    assert b.upper == pytest.approx(5.828427124746190, abs=1e-6)
    assert b.lower == pytest.approx(3 - 2 * math.sqrt(2.0), abs=1e-12)

    b = mp_bounds(60, 25)
    q = 60 / 25
    assert b.upper == pytest.approx((1 + math.sqrt(1 / q)) ** 2, abs=1e-12)
    assert b.upper == pytest.approx(2.707661115402472, abs=1e-6)


def test_mp_bounds_sum_product_identities():
    rng = np.random.default_rng(9)
    for _ in range(50):
        t = int(rng.integers(1, 500))
        n = int(rng.integers(2, 300))
        b = mp_bounds(t, n)
        q = t / n
        # 1e-12 absolute for O(1) bounds; relative guard for extreme q where
        # the products themselves are O(1e4).
        assert b.upper + b.lower == pytest.approx(2 * (1 + 1 / q), rel=1e-12, abs=1e-12)
        assert b.upper * b.lower == pytest.approx((1 - 1 / q) ** 2, rel=1e-12, abs=1e-12)
        assert b.upper > b.lower >= 0.0


def test_mp_bounds_validation():
    with pytest.raises(UsageError):
        mp_bounds(0, 10)
    with pytest.raises(UsageError):
        mp_bounds(60, 1)


# ---------- Summaries ----------

def test_summary_equicorrelation_identity():
    for c in (0.0, 0.2, 0.5, 0.9):
        for n in (3, 25, 120):
            s = summary_from_correlation(
                equicorrelation(n, c), end_date=date(2025, 1, 2), n_obs=60
            )
            assert s.lambda_norm == pytest.approx(c, abs=1e-10)
            assert s.rho_signed == pytest.approx(c, abs=1e-12)
            assert s.delta == pytest.approx(0.0, abs=1e-10)


def test_summary_identity_and_all_ones_limits():
    s = summary_from_correlation(np.eye(8), end_date=date(2025, 1, 2), n_obs=60)
    assert abs(s.lambda_norm) < 1e-12 and abs(s.delta) < 1e-12
    s = summary_from_correlation(
        equicorrelation(10, 1.0), end_date=date(2025, 1, 2), n_obs=60
    )
    assert s.lambda_norm == pytest.approx(1.0, abs=1e-12)
    assert s.rho_signed == pytest.approx(1.0, abs=1e-12)
    assert s.delta == pytest.approx(0.0, abs=1e-12)


def test_summary_modes():
    c = equicorrelation(5, 0.4)
    plain = summary_from_correlation(c, end_date=date(2025, 1, 2), n_obs=60,
                                     norm_mode="plain")
    assert plain.lambda_norm == pytest.approx((1 + 4 * 0.4) / 5, abs=1e-12)

    mixed = np.array([[1.0, -0.5, 0.2], [-0.5, 1.0, -0.1], [0.2, -0.1, 1.0]])
    s_abs = summary_from_correlation(mixed, end_date=date(2025, 1, 2),
                                     n_obs=60, rho_mode="abs")
    assert s_abs.rho_abs == pytest.approx((0.5 + 0.2 + 0.1) / 3, abs=1e-12)
    assert s_abs.rho_abs >= s_abs.rho_signed
    assert s_abs.delta == pytest.approx(s_abs.lambda_norm - s_abs.rho_abs, abs=1e-15)
    with pytest.raises(UsageError):
        summary_from_correlation(c, end_date=date(2025, 1, 2), n_obs=60, rho_mode="mean")
    with pytest.raises(UsageError):
        summary_from_correlation(c, end_date=date(2025, 1, 2), n_obs=60, norm_mode="raw")


def test_rayleigh_bound_on_random_matrices():
    # Signed gap is never negative: lambda_0 >= 1'C1/n = 1 + (n-1) rho_signed.
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n = int(rng.choice([5, 25, 60]))
        c = random_correlation(rng, n)
        s = summary_from_correlation(c, end_date=date(2025, 1, 2), n_obs=60)
        assert s.delta >= -1e-10


def test_lambda_norm_and_rho_invariant_under_permutation():
    rng = np.random.default_rng(55)
    c = random_correlation(rng, 12)
    perm = rng.permutation(12)
    s1 = summary_from_correlation(c, end_date=date(2025, 1, 2), n_obs=60)
    s2 = summary_from_correlation(c[np.ix_(perm, perm)],
                                  end_date=date(2025, 1, 2), n_obs=60)
    assert s1.lambda_norm == pytest.approx(s2.lambda_norm, abs=1e-10)
    assert s1.rho_signed == pytest.approx(s2.rho_signed, abs=1e-12)


def test_n_above_mp_counts_strictly_above():
    # Strong one-factor matrix: exactly the leading eigenvalue escapes the band.
    c = equicorrelation(50, 0.6)
    s = summary_from_correlation(c, end_date=date(2025, 1, 2), n_obs=100)
    assert s.lambda_max > s.mp.upper
    assert s.n_above_mp == 1


def test_rank_deficient_q_below_one_is_supported():
    # T < N: the sample correlation is rank deficient but the summary holds up.
    rng = np.random.default_rng(66)
    z = zscore_rows(rng.standard_normal((120, 60)))
    s = rolling_spectra(z.T, 60).summary(0, date(2025, 1, 2))
    assert s.n_assets == 120
    assert 0.0 <= s.lambda_norm <= 1.0
    assert s.delta >= -1e-10
    eigenvalues = correlation_spectrum(z @ z.T / 60).eigenvalues
    assert np.sum(eigenvalues < 1e-10) >= 120 - 60  # null space present


def test_mean_offdiagonal_signed_vs_abs():
    m = np.array([[1.0, -0.4], [-0.4, 1.0]])
    assert mean_offdiagonal(m) == pytest.approx(-0.4)
    assert mean_offdiagonal(m, absolute=True) == pytest.approx(0.4)


def test_correlation_validate_rejects_bad_matrices():
    bad_diag = np.array([[0.9, 0.1], [0.1, 1.0]])
    with pytest.raises(NumericError):
        oracle.named(bad_diag).validate()
    asym = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(NumericError):
        oracle.named(asym).validate()
    not_psd = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    with pytest.raises(NumericError):
        oracle.named(not_psd).validate()


def test_summary_rejects_single_asset():
    with pytest.raises(DegenerateWindowError, match="2 assets"):
        summary_from_correlation(np.ones((1, 1)), end_date=date(2025, 1, 2), n_obs=60)


# ---------- Oracle equivalence: kernel vs the eigh reference chain ----------

MODES = [(r, m) for r in ("signed", "abs") for m in ("excess", "plain")]
FLOAT_FIELDS = ("lambda_max", "lambda_norm", "rho_signed", "rho_abs", "delta")


def assert_matches_oracle(got, want):
    for field in FLOAT_FIELDS:
        assert abs(getattr(got, field) - getattr(want, field)) <= 1e-12, field
    assert got.n_above_mp == want.n_above_mp
    assert got.n_assets == want.n_assets
    assert got.end_date == want.end_date
    assert (got.rho_mode, got.norm_mode, got.mp) == (want.rho_mode, want.norm_mode, want.mp)


def block_correlation(sizes, within, between):
    n = sum(sizes)
    c = np.full((n, n), between)
    lo = 0
    for size, r in zip(sizes, within):
        c[lo:lo + size, lo:lo + size] = r
        lo += size
    np.fill_diagonal(c, 1.0)
    return c


ACCEPTANCE_MATRICES = [
    np.eye(2), np.eye(50),
    *(equicorrelation(n, c) for n in (3, 5, 25, 120) for c in (0.0, 0.3, 0.6, 0.9)),
    equicorrelation(10, 1.0), equicorrelation(4, -1.0 / 3.0),
    block_correlation([3, 4, 5], [0.8, 0.5, 0.2], 0.1),
    block_correlation([10, 10], [0.9, -0.05], 0.0),
    block_correlation([2, 30, 8], [0.95, 0.4, 0.6], -0.02),
]


@pytest.mark.parametrize("rho_mode,norm_mode", MODES)
def test_summary_matches_oracle_on_acceptance_matrices(rho_mode, norm_mode):
    rng = np.random.default_rng(404)
    randoms = [random_correlation(rng, n) for n in (5, 25, 120) for _ in range(3)]
    for c in ACCEPTANCE_MATRICES + randoms:
        for n_obs in (20, 60, 250):
            kwargs = dict(end_date=date(2025, 1, 2), n_obs=n_obs,
                          rho_mode=rho_mode, norm_mode=norm_mode)
            assert_matches_oracle(summary_from_correlation(c, **kwargs),
                                  oracle.summary_from_correlation(oracle.named(c), **kwargs))


@st.composite
def return_panels(draw):
    """Panels with N from 2 to above T, NaN runs, and assets constant over a stretch."""
    window = draw(st.integers(3, 15))
    n_assets = draw(st.integers(2, 4) | st.integers(2, 3 * window))
    n_dates = window + draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    common = rng.standard_normal(n_dates)
    loadings = rng.uniform(-1.5, 1.5, n_assets) * draw(st.sampled_from([0.0, 0.5, 2.0]))
    values = 0.01 * (rng.standard_normal((n_dates, n_assets)) + np.outer(common, loadings))
    runs = st.tuples(st.integers(0, n_assets - 1), st.integers(0, n_dates - 1),
                     st.integers(1, n_dates))
    for asset, start, length in draw(st.lists(runs, max_size=4)):
        values[start:start + length, asset] = np.nan
    for asset, start, length in draw(st.lists(runs, max_size=3)):
        values[start:start + length, asset] = draw(st.sampled_from([0.0, 0.001, 0.1]))
    return make_returns(values), window, draw(st.integers(1, 3))


@settings(max_examples=80, deadline=None, database=None)
@given(case=return_panels(), modes=st.sampled_from(MODES))
def test_gap_series_matches_oracle_on_random_panels(case, modes):
    returns, window, step = case
    config = GapConfig(window=window, step=step, rho_mode=modes[0], norm_mode=modes[1])
    series = gap_series(returns, config)
    want, want_dropped = oracle.gap_series(returns, config)
    assert len(series.summaries) == len(want)
    for got, ref in zip(series.summaries, want):
        assert_matches_oracle(got, ref)
    assert series.dropped == want_dropped


# ---------- Batched rolling kernel: chunks, survivor groups and the dual ----------

def panel_with_gaps(rng, n_dates, n_assets):
    """One-factor returns whose NaN runs enter and leave mid-series, plus a flat run.

    With 60 dates and windows of 12, some windows keep every asset and others
    lose one to four, so the survivor groups change along the series.
    """
    common = rng.standard_normal(n_dates)
    loadings = rng.uniform(0.2, 1.5, n_assets)
    values = 0.01 * (rng.standard_normal((n_dates, n_assets)) + np.outer(common, loadings))
    sixth = n_dates // 6
    values[2 * sixth:2 * sixth + 4, 0] = np.nan  # a gap in the middle
    values[:sixth, 1] = np.nan  # listed late
    values[5 * sixth:, 2] = np.nan  # delisted early
    values[2 * sixth + 2:2 * sixth + 18, 3] = 0.0  # flat long enough to fill a window
    return values


@pytest.mark.parametrize("constant", [0.1, 0.001])
def test_rolling_spectra_drops_asset_with_all_equal_returns(constant):
    # A constant 0.1 leaves a population std of rounding residue (~4e-17), not 0.
    values = np.random.default_rng(5).normal(0.0, 0.01, (80, 6))
    values[:, 0] = constant
    spectra = rolling_spectra(values, 60)
    assert spectra.n_assets.tolist() == [5] * 21
    np.testing.assert_array_equal(spectra.lambda_max, rolling_spectra(values[:, 1:], 60).lambda_max)
    values[70:, 0] = 0.02  # the asset changes from row 70 on: windows ending after it keep it
    assert rolling_spectra(values, 60).n_assets.tolist() == [5] * 11 + [6] * 10


def test_rolling_spectra_chunk_boundaries_are_bit_identical(monkeypatch):
    rng = np.random.default_rng(17)
    for n_assets, length, step in ((9, 12, 1), (40, 12, 2), (13, 12, 1)):
        values = panel_with_gaps(rng, 70, n_assets)
        monkeypatch.setattr(spectral, "_CHUNK_BYTES", 1 << 40)
        whole = rolling_spectra(values, length, step)
        monkeypatch.setattr(spectral, "_CHUNK_BYTES", 1)  # one window per chunk
        single = rolling_spectra(values, length, step)
        assert len(np.unique(whole.n_assets)) >= 2  # several survivor groups
        for a, b in zip(whole, single):
            np.testing.assert_array_equal(a, b, strict=True)


def assert_close_relative(got, want):
    for field in FLOAT_FIELDS:
        g, w = getattr(got, field), getattr(want, field)
        assert abs(g - w) <= 1e-12 * max(1.0, abs(w)), field
    assert got.n_above_mp == want.n_above_mp
    assert (got.n_assets, got.end_date, got.mp) == (want.n_assets, want.end_date, want.mp)


@pytest.mark.parametrize("n_assets", [11, 12, 13, 96])  # T - 1, T, T + 1 and N >> T
@pytest.mark.parametrize("rho_mode,norm_mode", MODES)
def test_dual_branch_matches_oracle(monkeypatch, n_assets, rho_mode, norm_mode):
    length = 12
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        sizes.append(a.shape[-1])
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    returns = make_returns(panel_with_gaps(np.random.default_rng(n_assets), 60, n_assets))
    config = GapConfig(window=length, step=1, rho_mode=rho_mode, norm_mode=norm_mode)
    series = gap_series(returns, config)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    want, want_dropped = oracle.gap_series(returns, config)
    assert series.dropped == want_dropped
    assert len(series.summaries) == len(want) > 0
    for got, ref in zip(series.summaries, want):
        assert_close_relative(got, ref)
        # Both build C from the same z-scores, so rho agrees to the last bit.
        assert (got.rho_signed, got.rho_abs) == (ref.rho_signed, ref.rho_abs)
    # Survivor counts straddle T, so both sides of the branch run: the
    # decomposed matrix is n x n for n <= T and the T x T dual above it.
    kept = {s.n_assets for s in series.summaries}
    assert max(kept) == n_assets and len(kept) > 1
    assert set(sizes) == {min(n, length) for n in kept}
