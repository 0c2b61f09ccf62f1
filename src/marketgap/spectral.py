"""Correlation eigenvalues, random-matrix bounds, and the normalized leading eigenvalue.

The gap series of the regimes module couples the normalized leading
eigenvalue lambda_norm = (lambda_max - 1) / (N - 1) with the mean
off-diagonal correlation rho; their difference delta is the structure gap.
The signed gap is never negative (Rayleigh bound: the leading eigenvalue
dominates the uniform-vector quotient 1 + (N-1)*rho_signed).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericError, UsageError
from .panel import window_ends

RHO_MODES = ("signed", "abs")
NORM_MODES = ("excess", "plain")

# Cap on the bytes of each stacked array of one chunk of windows in
# `rolling_spectra`. A chunk holds at most four such arrays at once: the
# windows' returns, a group's z-scores, its Z Z' stack and, when a group has
# more assets than window days, its dual Z'Z stack; so about 4 MiB in all, plus
# the byte masks of the drop rules. A single window larger than the cap forms a
# chunk on its own: its N x N Z Z' is the floor.
_CHUNK_BYTES = 2**20


# ---------- Domain types ----------

@dataclass(frozen=True)
class MPBounds:
    """Marchenko-Pastur noise band [lower, upper] for aspect ratio q = T / N."""

    lower: float
    upper: float


class CorrelationSpectrum(NamedTuple):
    """Cleaned correlation matrices, their ascending eigenvalues, lambda_max and rho_signed.

    Every field is stacked along the leading axes of the kernel's input.
    """

    values: np.ndarray
    eigenvalues: np.ndarray
    lambda_max: np.ndarray
    rho_signed: np.ndarray


class RollingSpectra(NamedTuple):
    """Per-window statistics of one column group from `rolling_spectra`, one entry per window.

    A window that keeps fewer than two assets has n_assets < 2, NaN
    statistics and n_above_mp 0. Every asset of the group is either kept or
    counted in one of the two drop reasons.
    """

    ends: np.ndarray  # 1-based end row of each window, from `panel.window_ends`
    n_assets: np.ndarray
    lambda_max: np.ndarray
    rho_signed: np.ndarray
    rho_abs: np.ndarray
    n_above_mp: np.ndarray
    dropped_missing: np.ndarray  # assets with a missing return in the window
    dropped_all_equal: np.ndarray  # complete assets with all-equal returns or no usable variance


# ---------- Operations ----------

def correlation_spectra(raw: np.ndarray, z: np.ndarray | None = None) -> CorrelationSpectrum:
    """Eigenvalues and mean off-diagonal correlation of raw n x n estimates, n >= 2.

    `raw` is one estimate or a stack of them along leading axes; each is
    Z Z' / T from a standardized window or V / outer(d, d) from a covariance,
    and each must be exactly symmetric. The function owns `raw`: it clips it
    to [-1, 1] and gives it an exact unit diagonal in place, and returns it as
    `values`; rho_signed comes from that cleaned matrix. One eigenvalue-only
    decomposition covers the whole stack. When `z`, the (..., n, T)
    standardized rows behind Z Z' / T, is given and n > T, it decomposes the
    T x T dual Z'Z / T instead: the nonzero spectra of the two are equal, so
    the eigenvalues are the top T of the n.
    """
    n = raw.shape[-1]
    c = np.clip(raw, -1.0, 1.0, out=raw)
    diagonal = np.arange(n)
    c[..., diagonal, diagonal] = 1.0  # on any memory layout of the caller's stack
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


def rolling_spectra(values: np.ndarray, length: int, step: int = 1,
                    groups=None) -> list[RollingSpectra]:
    """Spectral statistics of every rolling window of each column group of a (dates x assets)
    return matrix, one RollingSpectra per group; by default one group of every column.

    Window k covers rows [ends[k] - length, ends[k]) on the grid of
    `panel.window_ends`. In each window an asset with a missing return, with
    all-equal returns, or with zero or non-finite population variance, is
    dropped; a group's other assets are z-scored with the population (1/T)
    variance and C = Z Z' / T goes through `correlation_spectra`. The z-scores
    are per-asset reductions, formed once for all columns, so each group's
    statistics are those of a call on its columns alone, bit for bit. Windows
    are taken in chunks, and each chunk in runs of windows that keep the same
    assets of a group. Both drop rules are read from the chunk's copy of its
    windows' returns, so nothing is sized by the panel's length. A chunk holds
    as many windows as keep each of its stacked arrays within _CHUNK_BYTES,
    but at least one, and it holds at most four such arrays at once (the
    returns, a group's z-scores, its Z Z' and its dual Z'Z); one window's
    N x N Z Z' of the largest group is the floor.
    Every run's C stack is formed in one buffer sized for the largest group,
    allocated once per call and cleaned in place: NumPy forms Z Z' exactly
    symmetric (a symmetric rank-k update, mirrored), so it needs no
    symmetrizing.
    """
    n_dates, n_all = values.shape
    columns = [np.asarray(g, dtype=np.intp)
               for g in ([range(n_all)] if groups is None else groups)]
    ends = window_ends(n_dates, length, step)
    n_win = ends.size
    outs = [RollingSpectra(
        ends=ends,
        n_assets=np.zeros(n_win, dtype=np.int64),
        lambda_max=np.full(n_win, np.nan),
        rho_signed=np.full(n_win, np.nan),
        rho_abs=np.full(n_win, np.nan),
        n_above_mp=np.zeros(n_win, dtype=np.int64),
        dropped_missing=np.zeros(n_win, dtype=np.int64),
        dropped_all_equal=np.zeros(n_win, dtype=np.int64),
    ) for _ in columns]
    if n_win == 0:
        return outs
    # A (W, N, T) view whose window k starts at row k * step = ends[k] - length.
    windows = sliding_window_view(values, length, axis=0)[::step]
    largest = max((cols.size for cols in columns), default=0)
    chunk = max(1, _CHUNK_BYTES // (8 * max(n_all * length, largest * largest, 1)))
    buffer = np.empty(min(chunk, n_win) * largest * largest)
    for lo in range(0, n_win, chunk):
        # A C-ordered copy: each asset's T returns are contiguous, so the means and
        # variances below sum in the same order as a one-dimensional reduction.
        dev = np.array(windows[lo:lo + chunk], order="C")  # (k, N, T)
        # An asset is kept with no missing return and at least one day-to-day change.
        complete = ~np.isnan(dev).any(axis=-1)
        keep = complete & (dev[..., 1:] != dev[..., :-1]).any(axis=-1)
        dev -= dev.mean(axis=-1, keepdims=True)
        std = np.sqrt(np.mean(dev * dev, axis=-1))
        keep &= np.isfinite(std) & (std > 0.0)
        for cols, out in zip(columns, outs):
            out.dropped_missing[lo:lo + chunk] = cols.size - complete[:, cols].sum(axis=1)
            runs: dict[bytes, list[int]] = {}
            for i, row in enumerate(keep[:, cols]):
                runs.setdefault(row.tobytes(), []).append(i)
            for members in runs.values():
                kept = cols[keep[members[0], cols]]
                n = kept.size
                idx = lo + np.array(members)
                out.n_assets[idx] = n
                if n < 2:
                    continue
                cells = np.ix_(members, kept)
                z = dev[cells]
                z /= std[cells][..., np.newaxis]
                raw = buffer[:len(members) * n * n].reshape(len(members), n, n)
                np.matmul(z, z.swapaxes(-1, -2), out=raw)
                raw /= length
                spectra = correlation_spectra(raw, z)
                out.lambda_max[idx] = spectra.lambda_max
                out.rho_signed[idx] = spectra.rho_signed
                upper = mp_bounds(length, n).upper
                out.n_above_mp[idx] = np.count_nonzero(spectra.eigenvalues > upper, axis=1)
                # |C|, now that the eigenvalues are read.
                c = np.abs(spectra.values, out=spectra.values)
                out.rho_abs[idx] = (c.sum(axis=(1, 2)) - n) / (n * (n - 1))
    for cols, out in zip(columns, outs):
        out.dropped_all_equal[:] = cols.size - out.dropped_missing - out.n_assets
    return outs


def mp_bounds(t_obs: int, n_assets: int) -> MPBounds:
    """Closed-form noise band (1 +- sqrt(1/q))^2 with q = T / N.

    The squares are Python float powers; NumPy's array `** 2` differs from
    them in the last bit for some (T, N), so array callers take the band from
    here once per distinct N.
    """
    if t_obs < 1:
        raise UsageError(f"window length must be >= 1, got {t_obs}")
    if n_assets < 2:
        raise UsageError(f"asset count must be >= 2, got {n_assets}")
    q = t_obs / n_assets
    root = math.sqrt(1.0 / q)
    return MPBounds(lower=(1.0 - root) ** 2, upper=(1.0 + root) ** 2)


def normalized_lambda(lambda_max, n, norm_mode: str = "excess"):
    """lambda_max of an n-asset correlation matrix scaled to [0, 1]: (lambda - 1) / (n - 1)
    under "excess", lambda / n under "plain"; scalars and arrays alike."""
    return lambda_max / n if norm_mode == "plain" else (lambda_max - 1.0) / (n - 1.0)
