"""Reference chains the package's batched kernels are checked against.

This is the per-window path as it stood before the batched kernel existed:
a per-asset loop that z-scores one window, an explicit correlation wrapper, a
full `np.linalg.eigh` eigendecomposition (eigenvectors included), and one
`WindowSummary` record per window built from those pieces, where the package
keeps the gap series as columns. It also keeps the portfolio study's former
per-subset loop, with its inline subset gap, its single-matrix covariance,
weights and volatilities, its own `PortfolioObservation` record per subset
and the report taken over a list of them, with an incremental R2 that
builds a design for each of its two fits, where the package keeps the
study's results as columns, the stacked pseudo-inverse weights the
package took before it solved well-conditioned covariances, the scalar
ordinal pattern and the per-date ordinal distribution that the entropy
series once took one window at a time, the `csv.writer` loop that once
wrote price panels, the csv path's (date, ticker) -> price dict and the
matrix once built from its sorted keys, and the stacked correlation kernel
as it stood before it cleaned its input in place. The windows come from
plain `range` loops here, not from the package's grid. Only the dataclasses,
the pattern table, the closed-form Marchenko-Pastur band, the report's rank
statistics and the csv parse rules come from the package, except in
`pattern_indices`, which puts a stack of triples through the package's
three-comparison pattern ids so the scalar pattern can check them, in the
sector series `gap --by-sector` once took, which checks the calendar a
sector runs on and so takes the package's log returns and gap series, and in
the per-sector loop `sector_gap_series` ran before one kernel pass served
every sector, which takes the package's gap series.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import date

import numpy as np

from marketgap.errors import (
    DataError,
    DegenerateWindowError,
    NumericError,
    ParseError,
    UndefinedCorrelationError,
    UsageError,
)
from marketgap.ordinal import N_PATTERNS, PATTERNS, _pattern_ids
from marketgap import regimes
from marketgap.panel import (
    LONG_HEADER,
    PricePanel,
    ReturnPanel,
    _open_rows,
    _parse_date,
    _parse_price,
    log_returns,
)
from marketgap.portfolio import (
    QuintileReport,
    StudyConfig,
    quintile_partition,
    spearman,
)
from marketgap.regimes import DroppedWindow, GapConfig
from marketgap.spectral import (
    NORM_MODES,
    RHO_MODES,
    CorrelationSpectrum,
    MPBounds,
    mp_bounds,
)

# Reasons recorded when a window drops an asset.
REASON_MISSING = "missing data"
REASON_ALL_EQUAL = "all-equal returns"


@dataclass(frozen=True)
class WindowSummary:
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


def correlation_spectra(raw: np.ndarray, z: np.ndarray | None = None) -> CorrelationSpectrum:
    """The stacked kernel on a symmetrized copy of `raw`, which it leaves untouched.

    Cleans (raw + raw') / 2 (clip to [-1, 1], exact unit diagonal) in a new
    array and takes the eigenvalues of it, or of the T x T dual Z'Z / T when
    `z` is given and n > T.
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
    w = np.linalg.eigvalsh(m)
    return CorrelationSpectrum(
        values=c,
        eigenvalues=w,
        lambda_max=w[..., -1],
        rho_signed=(c.sum(axis=(-2, -1)) - n) / (n * (n - 1)),
    )


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
) -> WindowSummary:
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
    return WindowSummary(
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
) -> WindowSummary:
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
) -> tuple[list[WindowSummary], list[DroppedWindow]]:
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


def pinv_mvp_weights(cov: np.ndarray) -> np.ndarray:
    """q = V+ 1 / (1' V+ 1) of each covariance of a stack, by pseudo-inverse alone.

    Where 1'V+1 is non-finite or below 1e-12 in magnitude, that row is NaN.
    """
    v = np.asarray(cov, dtype=float)
    pinv = np.linalg.pinv(v, rcond=1e-10)
    ones = np.ones(v.shape[-1])
    numer = pinv @ ones
    denom = (numer[..., np.newaxis, :] @ ones)[..., 0]
    undefined = ~np.isfinite(denom) | (np.abs(denom) < 1e-12)
    return numer / np.where(undefined, np.nan, denom)[..., np.newaxis]


def mvp_weights(cov: np.ndarray) -> np.ndarray | None:
    """q = V+ 1 / (1' V+ 1) of one covariance; None when 1'V+1 is non-finite or below 1e-12.

    V+ 1 is solved for when lambda_min > 1e-8 * lambda_max, where pinv would
    truncate nothing, and taken from pinv otherwise.
    """
    ones = np.ones(cov.shape[0])
    lam = np.linalg.eigvalsh(cov)
    if lam[0] > 1e-8 * lam[-1]:
        numer = np.linalg.solve(cov, ones[:, np.newaxis])[:, 0]
    else:
        numer = np.linalg.pinv(cov, rcond=1e-10) @ ones
    denom = float(ones @ numer)
    if not math.isfinite(denom) or abs(denom) < 1e-12:
        return None
    return numer / denom


def realized_volatility(weights: np.ndarray, test_returns: np.ndarray,
                        annualization: float) -> float:
    """Annualized percent volatility of q'r over one test window (ddof=1 variance)."""
    port = weights @ test_returns
    return float(np.std(port, ddof=1) * math.sqrt(annualization) * 100.0)


@dataclass(frozen=True)
class PortfolioObservation:
    """One (window, sampled subset) outcome of the rolling study."""

    market: str
    window_index: int
    window_end: date  # formation-window end date
    tickers: tuple[str, ...]
    delta: float
    rho_bar: float
    sigma_hist: float  # formation-window EW volatility, % annualized
    sigma_mvp: float  # test-window MVP volatility, % annualized
    sigma_ew: float  # test-window EW volatility, % annualized


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
            ))
    return observations, skipped_windows, skipped


def _unsigned_for(largest: int) -> np.dtype:
    return next(np.dtype(t) for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                if largest <= np.iinfo(t).max)


def observation_columns(observations: list[PortfolioObservation], tickers: list[str],
                        n_stocks: int, n_windows: int) -> dict:
    """The package's `Observations` columns, by name, of per-subset records over `tickers`
    from a study of `n_windows` windows: window indices and ticker positions each in the
    smallest unsigned type that holds the largest one possible."""
    position = {t: j for j, t in enumerate(tickers)}
    return {
        "window_index": np.array([o.window_index for o in observations],
                                 dtype=_unsigned_for(n_windows - 1)),
        "window_end": np.array([o.window_end for o in observations], dtype="datetime64[D]"),
        "picks": np.array([[position[t] for t in o.tickers] for o in observations],
                          dtype=_unsigned_for(len(tickers) - 1)).reshape(-1, n_stocks),
        **{key: np.array([getattr(o, key) for o in observations], dtype=float)
           for key in ("delta", "rho_bar", "sigma_hist", "sigma_mvp", "sigma_ew")},
    }


def _ols_r2(design: np.ndarray, y: np.ndarray) -> float:
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 0.0
    return 1.0 - float(np.sum(resid ** 2)) / ss_tot


def incremental_r2(y: np.ndarray, benchmark: np.ndarray, extra: np.ndarray) -> float:
    """R2 gain from adding `extra` to an intercept + benchmark OLS of y."""
    ones = np.ones_like(y)
    base = _ols_r2(np.column_stack([ones, benchmark]), y)
    full = _ols_r2(np.column_stack([ones, benchmark, extra]), y)
    return full - base


def quintile_report(observations: list[PortfolioObservation],
                    event_date: date | None = None) -> QuintileReport:
    """The report of a list of per-subset records, as it was taken before the study's
    results became columns."""
    n = len(observations)
    markets = sorted({o.market for o in observations})
    market = markets[0] if len(markets) == 1 else "ALL"
    delta = np.array([o.delta for o in observations])
    sigma_mvp = np.array([o.sigma_mvp for o in observations])
    sigma_ew = np.array([o.sigma_ew for o in observations])
    rho_bar = np.array([o.rho_bar for o in observations])
    sigma_hist = np.array([o.sigma_hist for o in observations])

    order = np.argsort(delta, kind="stable")
    means, lo = [], 0
    for size in quintile_partition(n):
        means.append(float(sigma_mvp[order[lo:lo + size]].mean()))
        lo += size

    def maybe_spearman(a, b):
        try:
            return spearman(a, b)
        except UndefinedCorrelationError:
            return None

    def sub(mask):
        if np.count_nonzero(mask) < 3:
            return None
        res = maybe_spearman(delta[mask], sigma_mvp[mask])
        return None if res is None else (res.rho, res.p_value, int(np.count_nonzero(mask)))

    pre = post = None
    if event_date is not None:
        ends = np.array([o.window_end for o in observations])
        pre, post = sub(ends < event_date), sub(ends >= event_date)
    return QuintileReport(
        market=market,
        n_observations=n,
        event_date=event_date,
        spearman_delta_mvp=spearman(delta, sigma_mvp),
        spearman_delta_ew=spearman(delta, sigma_ew),
        quintile_mean_sigma_mvp_pct=tuple(means),
        ls_spread_pct=means[4] - means[0],
        benchmark_spearman_rho_bar=maybe_spearman(rho_bar, sigma_mvp),
        benchmark_spearman_sigma_hist=maybe_spearman(sigma_hist, sigma_mvp),
        incr_r2_over_rho_bar=incremental_r2(sigma_mvp, rho_bar, delta),
        incr_r2_over_sigma_hist=incremental_r2(sigma_mvp, sigma_hist, delta),
        pre_shock_spearman=pre,
        post_shock_spearman=post,
    )


def ordinal_pattern(x0: float, x1: float, x2: float) -> int:
    """Pattern id of the permutation sorting (x0, x1, x2) ascending, stable on ties."""
    for v in (x0, x1, x2):
        if not math.isfinite(v):
            raise NumericError(f"ordinal pattern needs finite inputs, got {v!r}")
    perm = sorted(range(3), key=lambda i: ((x0, x1, x2)[i], i))
    return PATTERNS.index(tuple(perm))


def pattern_indices(triples: np.ndarray) -> np.ndarray:
    """The package's pattern ids, `ordinal._pattern_ids`, for a (..., 3, n_stocks)
    stack of finite return triples."""
    if triples.ndim < 2 or triples.shape[-2] != 3:
        raise UsageError(f"expected a (..., 3, n) block, got shape {triples.shape}")
    return _pattern_ids(*np.moveaxis(triples, -2, 0))


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


def load_cells(path, layout: str) -> tuple[list[date], list[str], np.ndarray]:
    """(dates, tickers, close) of a long or wide file as the csv path once read it:
    every price into a (date, ticker) dict, then a matrix over the dict's
    sorted dates and tickers. The parse rules are the package's."""
    rows = _open_rows(path)
    header = [h.strip() for h in next(rows, None) or ()]
    if layout == "long":
        if tuple(h.lower() for h in header) != LONG_HEADER:
            raise ParseError(f"expected header {','.join(LONG_HEADER)}", path, 1)
    else:
        if not header or header[0].lower() != "date":
            raise ParseError("expected header starting with 'date'", path, 1)
        if len(header) == 1 or not all(header[1:]):
            raise ParseError("empty ticker column name", path, 1)
        if len(set(header[1:])) != len(header) - 1:
            raise DataError(f"{path}:1: duplicate ticker columns")
    cells: dict[tuple[date, str], float] = {}
    for n, row in enumerate(rows, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(row)}", path, n)
        d = _parse_date(row[0], path, n)
        if layout == "long":
            ticker = row[1].strip()
            if not ticker:
                raise ParseError("empty ticker", path, n)
            price_texts = ((ticker, row[2]),)
        else:
            price_texts = ((t, cell) for t, cell in zip(header[1:], row[1:]) if cell.strip())
        for ticker, text in price_texts:
            price = _parse_price(text, path, n)
            kept = cells.setdefault((d, ticker), price)
            if kept != price:
                raise DataError(f"{path}:{n}: conflicting duplicate for "
                                f"({d.isoformat()}, {ticker}): {kept!r} vs {price!r}")
    dates = sorted({d for d, _ in cells})
    tickers = sorted({t for _, t in cells})
    date_idx = {d: i for i, d in enumerate(dates)}
    tick_idx = {t: j for j, t in enumerate(tickers)}
    close = np.full((len(dates), len(tickers)), np.nan)
    for (d, t), price in cells.items():
        close[date_idx[d], tick_idx[t]] = price
    return dates, tickers, close


def restricted_sector_gap_series(panel: PricePanel, config: GapConfig) -> dict:
    """{sector: gap series} as `gap --by-sector` once formed them: each sector's
    prices cut to the dates on which one of its tickers has a price, then the
    log returns of that panel."""
    out = {}
    for sector in panel.sectors():
        cols = [j for j, t in enumerate(panel.tickers) if panel.sector_of[t] == sector]
        members = [panel.tickers[j] for j in cols]
        close = panel.close[:, cols]
        keep = np.isfinite(close).any(axis=1)
        sub = PricePanel(
            dates=[d for d, k in zip(panel.dates, keep) if k],
            tickers=members,
            close=close[keep],
            sector_of={t: sector for t in members},
            market_of={t: panel.market_of[t] for t in members},
        )
        out[sector] = regimes.gap_series(log_returns(sub), config)
    return out


def sector_gap_series(returns: ReturnPanel, sector_of: dict[str, str],
                      config: GapConfig) -> dict:
    """{sector: gap series} in sorted sector order, one `gap_series` call on each
    sector's column slice of the market's returns."""
    out = {}
    for sector in sorted(set(sector_of[t] for t in returns.tickers)):
        cols = [j for j, t in enumerate(returns.tickers) if sector_of[t] == sector]
        out[sector] = regimes.gap_series(ReturnPanel(
            dates=returns.dates, tickers=[returns.tickers[j] for j in cols],
            values=returns.values[:, cols]), config)
    return out
