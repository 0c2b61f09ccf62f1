"""Correlation eigenvalues, random-matrix bounds, and per-window summaries.

The per-window summary couples the normalized leading eigenvalue
lambda_norm = (lambda_max - 1) / (N - 1) with the mean off-diagonal
correlation rho; their difference delta is the structure gap tracked by the
regimes module. The signed gap is never negative (Rayleigh bound: the leading
eigenvalue dominates the uniform-vector quotient 1 + (N-1)*rho_signed).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateWindowError, NumericError, UsageError
from .panel import window_ends

RHO_MODES = ("signed", "abs")
NORM_MODES = ("excess", "plain")

# Cap on the bytes of one stacked array in `rolling_spectra`: windows are taken
# in chunks whose stacks (returns, z-scores, correlation matrices) stay below it.
# A single window larger than the cap forms a chunk on its own.
_CHUNK_BYTES = 4 * 2**20


# ---------- Domain types ----------

@dataclass(frozen=True)
class MPBounds:
    """Marchenko-Pastur noise band [lower, upper] for aspect ratio q = T / N."""

    lower: float
    upper: float
    q: float


@dataclass(frozen=True)
class SpectralSummary:
    """One rolling window's spectral statistics."""

    end_date: date
    n_assets: int
    lambda_max: float
    lambda_norm: float
    rho_signed: float
    rho_abs: float
    delta: float
    rho_mode: str
    norm_mode: str
    mp: MPBounds
    n_above_mp: int


class CorrelationSpectrum(NamedTuple):
    """Cleaned correlation matrices, their ascending eigenvalues, lambda_max and rho_signed.

    From `correlation_spectra` on a stack every field is stacked along the
    leading axes; from `correlation_spectrum` it describes one matrix.
    """

    values: np.ndarray
    eigenvalues: np.ndarray
    lambda_max: np.ndarray | float
    rho_signed: np.ndarray | float


class RollingSpectra(NamedTuple):
    """Per-window statistics from `rolling_spectra`, one entry per window.

    A window that keeps fewer than two assets has n_assets < 2, NaN
    statistics and n_above_mp 0.
    """

    length: int  # observations per window; sets the Marchenko-Pastur band
    ends: np.ndarray  # 1-based end row of each window, from `panel.window_ends`
    n_assets: np.ndarray
    lambda_max: np.ndarray
    rho_signed: np.ndarray
    rho_abs: np.ndarray
    n_above_mp: np.ndarray

    def summary(self, k: int, end_date: date, rho_mode: str = "signed",
                norm_mode: str = "excess") -> SpectralSummary:
        """Window k's summary under the given rho and normalization modes."""
        return _summary(end_date, int(self.n_assets[k]), self.length,
                        float(self.lambda_max[k]), float(self.rho_signed[k]),
                        float(self.rho_abs[k]), int(self.n_above_mp[k]), rho_mode, norm_mode)


# ---------- Operations ----------

def correlation_spectra(raw: np.ndarray, z: np.ndarray | None = None) -> CorrelationSpectrum:
    """Eigenvalues and mean off-diagonal correlation of raw n x n estimates, n >= 2.

    `raw` is one estimate or a stack of them along leading axes; each is
    Z Z' / T from a standardized window or V / outer(d, d) from a covariance.
    It is symmetrized, clipped to [-1, 1] and given an exact unit diagonal;
    rho_signed comes from that cleaned matrix. One eigenvalue-only
    decomposition covers the whole stack. When `z`, the (..., n, T)
    standardized rows behind Z Z' / T, is given and n > T, it decomposes the
    T x T dual Z'Z / T instead: the nonzero spectra of the two are equal, so
    the eigenvalues are the top T of the n.
    """
    n = raw.shape[-1]
    c = np.add(raw, raw.swapaxes(-1, -2))  # a new C-ordered array: the reshape is a view
    c /= 2.0
    np.clip(c, -1.0, 1.0, out=c)
    c.reshape(-1, n * n)[:, ::n + 1] = 1.0
    if z is not None and n > z.shape[-1]:
        m = z.swapaxes(-1, -2) @ z
        m /= z.shape[-1]
    else:
        m = c
    try:
        w = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        size = m.shape[-1]
        raise NumericError(
            f"eigendecomposition failed for {size}x{size} matrix "
            f"(|C|_max={np.max(np.abs(m)):.3e}, "
            f"trace={np.trace(m, axis1=-2, axis2=-1).max():.6e}): {exc}"
        ) from exc
    return CorrelationSpectrum(
        values=c,
        eigenvalues=w,
        lambda_max=w[..., -1],
        # Each diagonal sums to exactly n.
        rho_signed=(c.sum(axis=(-2, -1)) - n) / (n * (n - 1)),
    )


def correlation_spectrum(raw: np.ndarray) -> CorrelationSpectrum:
    """`correlation_spectra` of one raw N x N estimate, N >= 2, with float statistics."""
    c, w, lam, rho = correlation_spectra(raw)
    return CorrelationSpectrum(c, w, float(lam), float(rho))


def rolling_spectra(values: np.ndarray, length: int, step: int = 1) -> RollingSpectra:
    """Spectral statistics of every rolling window of a (dates x assets) return matrix.

    Window k covers rows [ends[k] - length, ends[k]) on the grid of
    `panel.window_ends`. In each window an asset with a missing return, with
    all-equal returns, or with zero or non-finite population variance, is
    dropped; the others are z-scored with the population (1/T) variance and
    C = Z Z' / T goes through `correlation_spectra`. Windows are taken in
    chunks bounded by _CHUNK_BYTES, and each chunk in groups of windows that
    keep the same assets, so a complete panel forms one group per chunk.
    """
    n_dates, n_all = values.shape
    ends = window_ends(n_dates, length, step)
    n_win = ends.size
    out = RollingSpectra(
        length=length,
        ends=ends,
        n_assets=np.zeros(n_win, dtype=np.int64),
        lambda_max=np.full(n_win, np.nan),
        rho_signed=np.full(n_win, np.nan),
        rho_abs=np.full(n_win, np.nan),
        n_above_mp=np.zeros(n_win, dtype=np.int64),
    )
    if n_win == 0:
        return out
    # A (W, N, T) view whose window k starts at row k * step = ends[k] - length.
    windows = sliding_window_view(values, length, axis=0)[::step]
    # Per-asset running counts, built once per panel: of missing returns in
    # rows [0, k), then, in the same buffer, of changes between consecutive
    # rows in [0, k). A window keeps an asset with no missing return and at
    # least one change.
    seen = np.zeros((n_dates + 1, n_all), dtype=np.int64)
    np.cumsum(np.isnan(values), axis=0, out=seen[1:])
    usable = seen[ends] == seen[ends - length]  # (W, N)
    seen[1] = 0
    np.cumsum(values[1:] != values[:-1], axis=0, out=seen[2:])
    usable &= seen[ends] != seen[ends - length + 1]
    del seen
    chunk = max(1, _CHUNK_BYTES // (8 * max(n_all, 1) * max(n_all, length)))
    for lo in range(0, n_win, chunk):
        # A C-ordered copy: each asset's T returns are contiguous, so the means and
        # variances below sum in the same order as a one-dimensional reduction.
        dev = np.array(windows[lo:lo + chunk], order="C")  # (k, N, T)
        dev -= dev.mean(axis=-1, keepdims=True)
        std = np.sqrt(np.mean(dev * dev, axis=-1))
        keep = usable[lo:lo + chunk] & np.isfinite(std) & (std > 0.0)
        groups: dict[bytes, list[int]] = {}
        for i, row in enumerate(keep):
            groups.setdefault(row.tobytes(), []).append(i)
        for members in groups.values():
            kept = keep[members[0]]
            n = int(np.count_nonzero(kept))
            idx = lo + np.array(members)
            out.n_assets[idx] = n
            if n < 2:
                continue
            cells = np.ix_(members, np.flatnonzero(kept))
            z = dev[cells] / std[cells][..., np.newaxis]
            raw = z @ z.swapaxes(-1, -2)
            raw /= length
            spectra = correlation_spectra(raw, z)
            del raw  # frees a stack before |C| below takes one
            out.lambda_max[idx] = spectra.lambda_max
            out.rho_signed[idx] = spectra.rho_signed
            out.rho_abs[idx] = (np.abs(spectra.values).sum(axis=(1, 2)) - n) / (n * (n - 1))
            upper = mp_bounds(length, n).upper
            out.n_above_mp[idx] = np.count_nonzero(spectra.eigenvalues > upper, axis=1)
            del spectra  # frees C before the next group forms its stacks
    return out


def mp_bounds(t_obs: int, n_assets: int) -> MPBounds:
    """Closed-form noise band (1 +- sqrt(1/q))^2 with q = T / N."""
    if t_obs < 1:
        raise UsageError(f"window length must be >= 1, got {t_obs}")
    if n_assets < 2:
        raise UsageError(f"asset count must be >= 2, got {n_assets}")
    q = t_obs / n_assets
    root = math.sqrt(1.0 / q)
    return MPBounds(lower=(1.0 - root) ** 2, upper=(1.0 + root) ** 2, q=q)


def mean_offdiagonal(values: np.ndarray, absolute: bool = False) -> float:
    """Arithmetic mean of the off-diagonal entries (optionally of their magnitudes)."""
    n = values.shape[0]
    m = np.abs(values) if absolute else values
    return float((m.sum() - np.trace(m)) / (n * (n - 1)))


def _summary(end_date: date, n: int, n_obs: int, lam: float, rho_signed: float,
             rho_abs: float, n_above_mp: int, rho_mode: str, norm_mode: str) -> SpectralSummary:
    lam_norm = lam / n if norm_mode == "plain" else (lam - 1.0) / (n - 1.0)
    rho = rho_abs if rho_mode == "abs" else rho_signed
    return SpectralSummary(
        end_date=end_date,
        n_assets=n,
        lambda_max=lam,
        lambda_norm=lam_norm,
        rho_signed=rho_signed,
        rho_abs=rho_abs,
        delta=lam_norm - rho,
        rho_mode=rho_mode,
        norm_mode=norm_mode,
        mp=mp_bounds(n_obs, n),
        n_above_mp=n_above_mp,
    )


def summary_from_correlation(
    values: np.ndarray,
    *,
    end_date: date,
    n_obs: int,
    rho_mode: str = "signed",
    norm_mode: str = "excess",
) -> SpectralSummary:
    """Spectral summary of a raw correlation estimate (n_obs sets the MP band)."""
    if rho_mode not in RHO_MODES:
        raise UsageError(f"rho_mode must be one of {RHO_MODES}, got {rho_mode!r}")
    if norm_mode not in NORM_MODES:
        raise UsageError(f"norm_mode must be one of {NORM_MODES}, got {norm_mode!r}")
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if n < 2:
        raise DegenerateWindowError(f"summary needs >= 2 assets, got {n}")
    spectrum = correlation_spectrum(values)
    n_above_mp = int(np.count_nonzero(spectrum.eigenvalues > mp_bounds(n_obs, n).upper))
    return _summary(end_date, n, n_obs, spectrum.lambda_max, spectrum.rho_signed,
                    mean_offdiagonal(spectrum.values, absolute=True), n_above_mp,
                    rho_mode, norm_mode)


def equicorrelation(n: int, c: float) -> np.ndarray:
    """Matrix with unit diagonal and constant off-diagonal c.

    Spectrum is {1 + (n-1)c} plus (n-1) copies of (1-c); handy as an analytic
    reference in tests and docs.
    """
    if n < 2:
        raise UsageError(f"equicorrelation needs n >= 2, got {n}")
    if not -1.0 / (n - 1) <= c <= 1.0:
        raise UsageError(f"equicorrelation with c={c} is not PSD for n={n}")
    m = np.full((n, n), float(c))
    np.fill_diagonal(m, 1.0)
    return m
