"""Reference chains the package's batched kernels are checked against.

This is the per-window path as it stood before the batched kernel existed:
a per-asset loop that z-scores one window, an explicit correlation wrapper, a
full `np.linalg.eigh` eigendecomposition (eigenvectors included), and the
summary built from those pieces. It also keeps the portfolio study's former
per-subset loop, with its inline subset gap and its single-matrix
covariance, weights and volatilities, the scalar ordinal pattern and the
per-date ordinal distribution that the entropy series once took one window
at a time, and the `csv.writer` loop that once wrote price panels. The
windows come from plain `range` loops here, not from the package's grid.
Only the dataclasses, the pattern table and the closed-form Marchenko-Pastur
band come from the package.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import date

import numpy as np

from marketgap.errors import DegenerateWindowError, NumericError, UsageError
from marketgap.ordinal import N_PATTERNS, PATTERNS
from marketgap.panel import LONG_HEADER, PricePanel, ReturnPanel
from marketgap.portfolio import PortfolioObservation, StudyConfig
from marketgap.regimes import DroppedWindow, GapConfig
from marketgap.spectral import NORM_MODES, RHO_MODES, SpectralSummary, mp_bounds

# Reasons recorded when a window drops an asset.
REASON_MISSING = "missing data"
REASON_ALL_EQUAL = "all-equal returns"


@dataclass(eq=False)
class StandardizedWindow:
    """Z-scored return rows [start, end), assets as rows; incomplete/flat assets dropped."""

    start: int
    end: int
    end_date: date
    assets: list[str]
    values: np.ndarray  # shape (n_assets, length); each row has mean 0, variance 1
    means: np.ndarray
    stds: np.ndarray
    dropped: list[tuple[str, str]] = field(default_factory=list)

    @property
    def n_assets(self) -> int:
        return len(self.assets)


def standardize_window(returns: ReturnPanel, start: int, end: int) -> StandardizedWindow:
    """Z-score each asset over return rows [start, end) with the population (1/T) variance.

    Assets with any missing return in the window are dropped with reason
    "missing data"; assets whose returns are all equal (or whose variance is
    not a positive finite number) with reason "all-equal returns".
    Fewer than 2 survivors raises DegenerateWindowError.
    """
    if not 0 <= start < end <= returns.n_dates:
        raise UsageError(f"window rows [{start}, {end}) do not lie in the return panel")
    block = returns.values[start:end]  # (T, N)
    complete = ~np.isnan(block).any(axis=0)

    dropped: list[tuple[str, str]] = []
    keep: list[int] = []
    means = np.zeros(returns.n_assets)
    stds = np.zeros(returns.n_assets)
    for j, ticker in enumerate(returns.tickers):
        if not complete[j]:
            dropped.append((ticker, REASON_MISSING))
            continue
        column = block[:, j]
        m = column.mean()
        s = math.sqrt(float(np.mean((column - m) ** 2)))
        if (column == column[0]).all() or s <= 0.0 or not math.isfinite(s):
            dropped.append((ticker, REASON_ALL_EQUAL))
            continue
        means[j] = m
        stds[j] = s
        keep.append(j)

    if len(keep) < 2:
        raise DegenerateWindowError(
            f"window ending {returns.dates[end - 1].isoformat()} retained "
            f"{len(keep)} assets (need >= 2)"
        )
    keep_arr = np.array(keep, dtype=int)
    z = (block[:, keep_arr] - means[keep_arr]) / stds[keep_arr]
    return StandardizedWindow(
        start=start,
        end=end,
        end_date=returns.dates[end - 1],
        assets=[returns.tickers[j] for j in keep],
        values=np.ascontiguousarray(z.T),
        means=means[keep_arr],
        stds=stds[keep_arr],
        dropped=dropped,
    )


@dataclass(eq=False)
class CorrelationMatrix:
    """Symmetric Pearson correlation matrix with unit diagonal."""

    assets: list[str]
    values: np.ndarray

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    def validate(self, psd_tol: float = 1e-8) -> None:
        c = self.values
        if c.shape != (self.n_assets, self.n_assets):
            raise NumericError("correlation matrix shape mismatch")
        if not np.allclose(c, c.T, atol=1e-12, rtol=0.0):
            raise NumericError("correlation matrix not symmetric")
        if np.max(np.abs(np.diag(c) - 1.0)) > 1e-10:
            raise NumericError("correlation diagonal deviates from 1")
        if np.max(np.abs(c)) > 1.0 + 1e-10:
            raise NumericError("correlation entry outside [-1, 1]")
        smallest = float(np.linalg.eigvalsh(c)[0])
        if smallest < -psd_tol:
            raise NumericError(f"correlation matrix not PSD (min eigenvalue {smallest:.3e})")


@dataclass(eq=False)
class EigenSpectrum:
    """Eigenvalues in descending order with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def leading(self) -> float:
        return float(self.eigenvalues[0])


def named(values) -> CorrelationMatrix:
    """Wrap an explicit matrix with placeholder asset names."""
    values = np.asarray(values, dtype=float)
    return CorrelationMatrix(assets=[f"T{j}" for j in range(values.shape[0])], values=values)


def correlation_matrix(window: StandardizedWindow) -> CorrelationMatrix:
    """Equal-time Pearson matrix C = Z Z' / T from a standardized window.

    Result is symmetrized, clipped to [-1, 1], and gets an exact unit diagonal.
    """
    n, t = window.values.shape
    if n < 2:
        raise DegenerateWindowError(f"correlation needs >= 2 assets, got {n}")
    if t < 3:
        raise DegenerateWindowError(f"correlation needs >= 3 observations, got {t}")
    c = window.values @ window.values.T / t
    c = (c + c.T) / 2.0
    np.clip(c, -1.0, 1.0, out=c)
    np.fill_diagonal(c, 1.0)
    return CorrelationMatrix(assets=list(window.assets), values=c)


def eigen_spectrum(corr: CorrelationMatrix, negative_tol: float = 1e-8) -> EigenSpectrum:
    """Full symmetric eigendecomposition, descending, tiny negatives clamped to 0."""
    c = corr.values
    try:
        w, v = np.linalg.eigh(c)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"eigendecomposition failed for {corr.n_assets}x{corr.n_assets} matrix "
            f"(|C|_max={np.max(np.abs(c)):.3e}, trace={np.trace(c):.6e}): {exc}"
        ) from exc
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    w[(w < 0.0) & (w >= -negative_tol)] = 0.0
    return EigenSpectrum(eigenvalues=w, eigenvectors=v)


def mean_offdiagonal(values: np.ndarray, absolute: bool = False) -> float:
    """Arithmetic mean of the off-diagonal entries (optionally of their magnitudes)."""
    n = values.shape[0]
    m = np.abs(values) if absolute else values
    return float((m.sum() - np.trace(m)) / (n * (n - 1)))


def summary_from_correlation(
    corr: CorrelationMatrix,
    *,
    end_date: date,
    n_obs: int,
    rho_mode: str = "signed",
    norm_mode: str = "excess",
) -> SpectralSummary:
    """Spectral summary of an explicit correlation matrix (n_obs sets the MP band)."""
    if rho_mode not in RHO_MODES:
        raise UsageError(f"rho_mode must be one of {RHO_MODES}, got {rho_mode!r}")
    if norm_mode not in NORM_MODES:
        raise UsageError(f"norm_mode must be one of {NORM_MODES}, got {norm_mode!r}")
    n = corr.n_assets
    if n < 2:
        raise DegenerateWindowError(f"summary needs >= 2 assets, got {n}")
    spectrum = eigen_spectrum(corr)
    lam = spectrum.leading
    lam_norm = lam / n if norm_mode == "plain" else (lam - 1.0) / (n - 1.0)
    rho_signed = mean_offdiagonal(corr.values, absolute=False)
    rho_abs = mean_offdiagonal(corr.values, absolute=True)
    rho = rho_abs if rho_mode == "abs" else rho_signed
    bounds = mp_bounds(n_obs, n)
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
        mp=bounds,
        n_above_mp=int(np.count_nonzero(spectrum.eigenvalues > bounds.upper)),
    )


def spectral_summary(
    window: StandardizedWindow,
    rho_mode: str = "signed",
    norm_mode: str = "excess",
) -> SpectralSummary:
    """Correlation, eigen-spectrum, MP band, and the gap for one window."""
    corr = correlation_matrix(window)
    return summary_from_correlation(
        corr,
        end_date=window.end_date,
        n_obs=window.end - window.start,
        rho_mode=rho_mode,
        norm_mode=norm_mode,
    )


def gap_series(
    returns: ReturnPanel, config: GapConfig
) -> tuple[list[SpectralSummary], list[DroppedWindow]]:
    """Per-window summaries and dropped windows, one window at a time."""
    summaries, dropped = [], []
    for end in range(config.window, returns.n_dates + 1, config.step):
        try:
            std = standardize_window(returns, end - config.window, end)
            summaries.append(
                spectral_summary(std, rho_mode=config.rho_mode, norm_mode=config.norm_mode)
            )
        except DegenerateWindowError as exc:
            dropped.append(DroppedWindow(end_date=returns.dates[end - 1], reason=str(exc)))
    return summaries, dropped


def subset_gap(x: np.ndarray) -> tuple[float, float]:
    """(delta, rho_bar) of one portfolio subset's raw (n, T) formation returns."""
    n = x.shape[0]
    centered = x - x.mean(axis=1, keepdims=True)
    v = centered @ centered.T / x.shape[1]
    v = (v + v.T) / 2.0
    d = np.sqrt(np.diag(v))
    corr = v / np.outer(d, d)
    corr = (corr + corr.T) / 2.0
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    lam = float(np.linalg.eigvalsh(corr)[-1])
    rho_bar = float((corr.sum() - n) / (n * (n - 1)))
    return (lam - 1.0) / (n - 1.0) - rho_bar, rho_bar


def covariance_matrix(x: np.ndarray) -> np.ndarray:
    """Symmetric population (1/T) covariance of one subset's raw (n, T) returns."""
    centered = x - x.mean(axis=1, keepdims=True)
    v = centered @ centered.T / x.shape[1]
    return (v + v.T) / 2.0


def mvp_weights(cov: np.ndarray) -> np.ndarray | None:
    """q = V+ 1 / (1' V+ 1) of one covariance; None when 1'V+1 is non-finite or below 1e-12."""
    pinv = np.linalg.pinv(cov, rcond=1e-10)
    ones = np.ones(cov.shape[0])
    numer = pinv @ ones
    denom = float(ones @ numer)
    if not math.isfinite(denom) or abs(denom) < 1e-12:
        return None
    return numer / denom


def realized_volatility(weights: np.ndarray, test_returns: np.ndarray,
                        annualization: float) -> float:
    """Annualized percent volatility of q'r over one test window (ddof=1 variance)."""
    port = weights @ test_returns
    return float(np.std(port, ddof=1) * math.sqrt(annualization) * 100.0)


def portfolio_study(
    returns: ReturnPanel, config: StudyConfig, seed: int, market: str = "ALL", stream: int = 0
) -> tuple[list[PortfolioObservation], list[tuple[int, str]], int]:
    """(observations, skipped windows, skipped portfolios) of the study, one subset at a time."""
    t, h, n = config.formation, config.test, config.n_stocks
    observations: list[PortfolioObservation] = []
    skipped_windows: list[tuple[int, str]] = []
    skipped = 0
    for w_idx, end in enumerate(range(t, returns.n_dates - h + 1, config.effective_step)):
        form = returns.values[end - t:end]
        test = returns.values[end:end + h]
        complete = ~(np.isnan(form).any(axis=0) | np.isnan(test).any(axis=0))
        eligible = np.flatnonzero(complete & ~(form == form[:1]).all(axis=0))
        if eligible.size < n:
            skipped_windows.append((w_idx, f"{eligible.size} eligible stocks (need {n})"))
            continue
        end_date = returns.dates[end - 1]
        for p_idx in range(config.portfolios):
            rng = np.random.default_rng([seed, stream, w_idx, p_idx])
            pick = np.sort(rng.choice(eligible, size=n, replace=False))
            x = form[:, pick].T  # (n, t) raw formation returns
            y = test[:, pick].T
            delta, rho_bar = subset_gap(x)
            q_mvp = mvp_weights(covariance_matrix(x))
            if q_mvp is None:
                skipped += 1
                continue
            q_ew = np.full(n, 1.0 / n)
            hist = q_ew @ x
            sigma_hist = float(
                np.sqrt(np.mean((hist - hist.mean()) ** 2))
                * math.sqrt(config.annualization) * 100.0
            )
            observations.append(PortfolioObservation(
                market=market,
                window_index=w_idx,
                window_end=end_date,
                tickers=tuple(returns.tickers[j] for j in pick),
                delta=delta,
                rho_bar=rho_bar,
                sigma_hist=sigma_hist,
                sigma_mvp=realized_volatility(q_mvp, y, config.annualization),
                sigma_ew=realized_volatility(q_ew, y, config.annualization),
                seed_key=(seed, stream, w_idx, p_idx),
            ))
    return observations, skipped_windows, skipped


def ordinal_pattern(x0: float, x1: float, x2: float) -> int:
    """Pattern id of the permutation sorting (x0, x1, x2) ascending, stable on ties."""
    for v in (x0, x1, x2):
        if not math.isfinite(v):
            raise NumericError(f"ordinal pattern needs finite inputs, got {v!r}")
    perm = sorted(range(3), key=lambda i: ((x0, x1, x2)[i], i))
    return PATTERNS.index(tuple(perm))


@dataclass(eq=False)
class OrdinalDistribution:
    """Pattern counts and frequencies across the eligible stocks on one date."""

    date: date
    counts: np.ndarray  # shape (6,), ints
    probabilities: np.ndarray  # shape (6,), sums to 1
    n_stocks: int


def cross_section_distribution(returns: ReturnPanel, t: int) -> OrdinalDistribution:
    """Pattern distribution over stocks with complete returns at rows t-2, t-1, t."""
    if t < 2 or t >= returns.n_dates:
        raise UsageError(f"date index {t} leaves no room for a 3-day triple")
    triples = returns.values[t - 2:t + 1]  # (3, N)
    eligible = np.isfinite(triples).all(axis=0)
    n = int(np.count_nonzero(eligible))
    if n == 0:
        raise DegenerateWindowError(
            f"no stock has complete returns for the triple ending {returns.dates[t].isoformat()}"
        )
    idx = [ordinal_pattern(*triples[:, j]) for j in np.flatnonzero(eligible)]
    counts = np.bincount(idx, minlength=N_PATTERNS).astype(np.int64)
    return OrdinalDistribution(
        date=returns.dates[t],
        counts=counts,
        probabilities=counts / n,
        n_stocks=n,
    )


def ordinal_entropy(probabilities: np.ndarray) -> float:
    """Shannon entropy in nats; zero-probability patterns contribute nothing."""
    nz = probabilities[probabilities > 0.0]
    return float(-(nz * np.log(nz)).sum() + 0.0)


def entropy_series(returns: ReturnPanel, length: int, step: int):
    """(dates, values, n_stocks, probabilities) of the entropy series, one date at a time."""
    dates, values, n_stocks, probs = [], [], [], []
    for end in range(length, returns.n_dates + 1, step):
        dist = cross_section_distribution(returns, end - 1)
        dates.append(dist.date)
        values.append(ordinal_entropy(dist.probabilities))
        n_stocks.append(dist.n_stocks)
        probs.append(dist.probabilities)
    return (dates, np.array(values), np.array(n_stocks, dtype=np.int64),
            np.vstack(probs) if probs else np.zeros((0, N_PATTERNS)))


def write_price_panel(panel: PricePanel, path) -> None:
    """The long layout through csv.writer, one row per finite price."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LONG_HEADER)
        for i, d in enumerate(panel.dates):
            iso = d.isoformat()
            for j, t in enumerate(panel.tickers):
                value = panel.close[i, j]
                if np.isfinite(value):
                    writer.writerow([iso, t, repr(float(value))])
