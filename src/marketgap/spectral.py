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

from .errors import DegenerateWindowError, NumericError, UsageError
from .panel import StandardizedWindow

RHO_MODES = ("signed", "abs")
NORM_MODES = ("excess", "plain")


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
    """A cleaned correlation matrix, its ascending eigenvalues, lambda_max and rho_signed."""

    values: np.ndarray
    eigenvalues: np.ndarray
    lambda_max: float
    rho_signed: float


# ---------- Operations ----------

def correlation_spectrum(raw: np.ndarray) -> CorrelationSpectrum:
    """Eigenvalues and mean off-diagonal correlation of a raw N x N estimate, N >= 2.

    `raw` is Z Z' / T from a standardized window or V / outer(d, d) from a
    covariance. It is symmetrized, clipped to [-1, 1] and given an exact unit
    diagonal before a single eigenvalue-only decomposition.
    """
    n = raw.shape[0]
    c = (raw + raw.T) / 2.0
    np.clip(c, -1.0, 1.0, out=c)
    np.fill_diagonal(c, 1.0)
    try:
        w = np.linalg.eigvalsh(c)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"eigendecomposition failed for {n}x{n} matrix "
            f"(|C|_max={np.max(np.abs(c)):.3e}, trace={np.trace(c):.6e}): {exc}"
        ) from exc
    return CorrelationSpectrum(
        values=c,
        eigenvalues=w,
        lambda_max=float(w[-1]),
        rho_signed=float((c.sum() - n) / (n * (n - 1))),  # the diagonal sums to exactly n
    )


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
    lam = spectrum.lambda_max
    lam_norm = lam / n if norm_mode == "plain" else (lam - 1.0) / (n - 1.0)
    rho_abs = mean_offdiagonal(spectrum.values, absolute=True)
    rho = rho_abs if rho_mode == "abs" else spectrum.rho_signed
    bounds = mp_bounds(n_obs, n)
    return SpectralSummary(
        end_date=end_date,
        n_assets=n,
        lambda_max=lam,
        lambda_norm=lam_norm,
        rho_signed=spectrum.rho_signed,
        rho_abs=rho_abs,
        delta=lam_norm - rho,
        rho_mode=rho_mode,
        norm_mode=norm_mode,
        mp=bounds,
        n_above_mp=int(np.count_nonzero(spectrum.eigenvalues > bounds.upper)),
    )


def spectral_summary(
    window: StandardizedWindow,
    rho_mode: str = "signed",
    norm_mode: str = "excess",
) -> SpectralSummary:
    """Spectral summary of one window's equal-time Pearson matrix C = Z Z' / T."""
    n, t = window.values.shape
    if n < 2:
        raise DegenerateWindowError(f"correlation needs >= 2 assets, got {n}")
    if t < 3:
        raise DegenerateWindowError(f"correlation needs >= 3 observations, got {t}")
    return summary_from_correlation(
        window.values @ window.values.T / t,
        end_date=window.end_date,
        n_obs=window.spec.length,
        rho_mode=rho_mode,
        norm_mode=norm_mode,
    )


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
