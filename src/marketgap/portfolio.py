"""Rolling formation/test portfolio study: MVP vs equal weights, gap vs realized risk.

Implements the Monte Carlo design: for each rolling step, sample fixed-size
stock subsets, estimate minimum-variance and equal weights in the formation
window, apply them out-of-sample to the test window, and relate the
formation-window structure gap to realized annualized volatility through
Spearman ranks, quintile sorts, and incremental R-squared.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from typing import NamedTuple

import numpy as np

from .errors import DataError, UndefinedCorrelationError, UsageError
from .panel import ReturnPanel, window_ends
from .spectral import correlation_spectra


# ---------- Domain types ----------

class SpearmanResult(NamedTuple):
    rho: float
    p_value: float


@dataclass(frozen=True)
class StudyConfig:
    """Rolling study parameters; step defaults to the test length (non-overlap)."""

    formation: int = 60
    test: int = 20
    n_stocks: int = 10
    portfolios: int = 500
    annualization: float = 252.0
    step: int | None = None

    def __post_init__(self):
        if self.formation < 3:
            raise UsageError(f"formation window must be >= 3 days, got {self.formation}")
        if self.test < 2:
            raise UsageError(f"test window must be >= 2 days, got {self.test}")
        if self.n_stocks < 2:
            raise UsageError(f"portfolio size must be >= 2 stocks, got {self.n_stocks}")
        if self.portfolios < 1:
            raise UsageError(f"portfolio count must be >= 1, got {self.portfolios}")
        if self.annualization <= 0:
            raise UsageError("annualization factor must be positive")
        if self.step is not None and self.step < 1:
            raise UsageError(f"study step must be >= 1, got {self.step}")

    @property
    def effective_step(self) -> int:
        return self.test if self.step is None else self.step


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
    seed_key: tuple[int, ...]


@dataclass(eq=False)
class StudyResult:
    observations: list[PortfolioObservation]
    skipped_windows: list[tuple[int, str]]
    skipped_portfolios: int
    config: StudyConfig
    seed: int
    stream: int
    market: str


@dataclass(frozen=True)
class QuintileReport:
    """Gap-vs-risk statistics for one market's observations."""

    market: str
    n_observations: int
    event_date: date | None
    spearman_delta_mvp: SpearmanResult
    spearman_delta_ew: SpearmanResult
    quintile_mean_sigma_mvp: tuple[float, ...]  # Q0 (lowest delta) .. Q4
    ls_spread: float  # mean(Q4) - mean(Q0), % annualized
    benchmark_spearman_rho_bar: SpearmanResult | None
    benchmark_spearman_sigma_hist: SpearmanResult | None
    incr_r2_over_rho_bar: float
    incr_r2_over_sigma_hist: float
    pre_shock: tuple[float, float, int] | None  # (rho, p, n)
    post_shock: tuple[float, float, int] | None


# ---------- Weight construction ----------
#
# Each function takes one portfolio or a stack of them along leading axes; a
# 2-D input is a stack of one, and every row of a stack has the bits of the
# call on that row alone.

def covariance_matrix(values: np.ndarray) -> np.ndarray:
    """Symmetric covariance of raw (..., n_assets, n_obs) returns, population (1/T) denominator."""
    x = np.asarray(values, dtype=float)
    if x.ndim < 2 or x.shape[-2] < 2:
        raise UsageError(f"covariance needs (n_assets >= 2, n_obs) blocks, got {x.shape}")
    if np.isnan(x).any():
        raise DataError("covariance input contains missing returns; filter assets first")
    centered = x - x.mean(axis=-1, keepdims=True)
    v = centered @ centered.swapaxes(-1, -2) / x.shape[-1]
    return (v + v.swapaxes(-1, -2)) / 2.0


def mvp_weights(cov: np.ndarray) -> np.ndarray:
    """Fully invested minimum-variance weights q = V+ 1 / (1' V+ 1) of each covariance.

    Uses the Moore-Penrose pseudo-inverse (singular values below 1e-10 * s_max
    are treated as zero), so rank-deficient covariances still yield weights;
    shorting is allowed. Where 1'V+1 is non-finite or below 1e-12 in
    magnitude the weights are undefined, and that row of the result is NaN.
    """
    v = np.asarray(cov, dtype=float)
    pinv = np.linalg.pinv(v, rcond=1e-10)
    ones = np.ones(v.shape[-1])
    numer = pinv @ ones
    # A (1, n) @ (n,) product sums like the single dot product 1' numer; a
    # stacked (..., n) @ (n,) product does not.
    denom = (numer[..., np.newaxis, :] @ ones)[..., 0]
    undefined = ~np.isfinite(denom) | (np.abs(denom) < 1e-12)
    return numer / np.where(undefined, np.nan, denom)[..., np.newaxis]


def ew_weights(n: int) -> np.ndarray:
    """Equal weights 1/N."""
    if n < 1:
        raise UsageError(f"equal weights need n >= 1, got {n}")
    return np.full(n, 1.0 / n)


def realized_volatility(weights: np.ndarray, test_returns: np.ndarray,
                        annualization: float = 252.0) -> np.ndarray:
    """Annualized percent volatility of q'r over the test window (ddof=1 variance).

    `weights` is (..., n) and `test_returns` (..., n, h); the result has their
    broadcast leading shape, a NumPy float for one portfolio.
    """
    q = np.asarray(weights, dtype=float)
    r = np.asarray(test_returns, dtype=float)
    if r.ndim < 2 or r.shape[-2] != q.shape[-1]:
        raise UsageError(f"test block shape {r.shape} does not match {q.shape[-1]} weights")
    if r.shape[-1] < 2:
        raise UsageError(f"test window needs >= 2 observations, got {r.shape[-1]}")
    if np.isnan(r).any():
        raise DataError("test window contains missing returns")
    port = (q[..., np.newaxis, :] @ r)[..., 0, :]
    return np.std(port, axis=-1, ddof=1) * math.sqrt(annualization) * 100.0


# ---------- The rolling study ----------

def _window_observations(
    returns: ReturnPanel,
    config: StudyConfig,
    seed: int,
    stream: int,
    market: str,
    w_idx: int,
    end: int,
) -> tuple[list[PortfolioObservation], int, str | None]:
    t, h, n = config.formation, config.test, config.n_stocks
    form = returns.values[end - t:end]
    test = returns.values[end:end + h]
    complete = ~(np.isnan(form).any(axis=0) | np.isnan(test).any(axis=0))
    # A stock whose formation returns are all equal has no correlation, even
    # where rounding leaves its std a little above 0.
    constant = (form == form[:1]).all(axis=0)
    eligible = np.flatnonzero(complete & ~constant)
    if eligible.size < n:
        return [], 0, f"{eligible.size} eligible stocks (need {n})"

    # Drawing positions in `eligible` takes the same random stream as drawing
    # from `eligible` itself.
    draws = np.array([
        np.random.default_rng([seed, stream, w_idx, p_idx]).choice(eligible.size, n, replace=False)
        for p_idx in range(config.portfolios)
    ])
    picks = eligible[np.sort(draws, axis=1)]  # (P, n)
    # (P, n, t) formation and (P, n, h) test stacks; each asset's returns are contiguous.
    x = np.ascontiguousarray(form.T)[picks]
    y = np.ascontiguousarray(test.T)[picks]

    # Shared population-1/T moments give both the covariance for the weights
    # and the correlation for the gap of the same subset.
    cov = covariance_matrix(x)
    d = np.sqrt(np.diagonal(cov, axis1=-2, axis2=-1))
    spectra = correlation_spectra(cov / (d[:, :, np.newaxis] * d[:, np.newaxis, :]))
    rho_bar = spectra.rho_signed
    delta = (spectra.lambda_max - 1.0) / (n - 1.0) - rho_bar

    q_mvp = mvp_weights(cov)
    kept = np.flatnonzero(~np.isnan(q_mvp).any(axis=-1))
    q_ew = ew_weights(n)
    # Formation moments stay on the population (1/T) convention.
    hist = x.swapaxes(-1, -2) @ q_ew
    hist -= hist.mean(axis=-1, keepdims=True)
    sigma_hist = np.sqrt(np.mean(hist ** 2, axis=-1)) * math.sqrt(config.annualization) * 100.0
    sigma_mvp = realized_volatility(q_mvp, y, config.annualization)
    sigma_ew = realized_volatility(q_ew, y, config.annualization)

    end_date = returns.dates[end - 1]
    tickers = returns.tickers
    observations = [
        PortfolioObservation(
            market=market,
            window_index=w_idx,
            window_end=end_date,
            tickers=tuple(tickers[j] for j in pick),
            delta=dl,
            rho_bar=rb,
            sigma_hist=sh,
            sigma_mvp=sm,
            sigma_ew=se,
            seed_key=(seed, stream, w_idx, p_idx),
        )
        for p_idx, pick, dl, rb, sh, sm, se in zip(
            kept.tolist(), picks[kept].tolist(), delta[kept].tolist(), rho_bar[kept].tolist(),
            sigma_hist[kept].tolist(), sigma_mvp[kept].tolist(), sigma_ew[kept].tolist())
    ]
    return observations, config.portfolios - kept.size, None


def run_portfolio_study(
    returns: ReturnPanel,
    config: StudyConfig = StudyConfig(),
    seed: int = 0,
    market: str = "ALL",
    stream: int = 0,
) -> StudyResult:
    """Run the rolling formation/test Monte Carlo study over one market's returns.

    Stock subsets are redrawn each window from an RNG substream keyed by
    (seed, stream, window, portfolio), so a window's observations do not
    depend on which other windows run. The formation windows lie on the
    `panel.window_ends` grid of the rows that leave room for a test window
    after them, advancing by config.step (default: the test length, giving
    non-overlapping test windows).
    """
    t, h = config.formation, config.test
    ends = window_ends(returns.n_dates - h, t, config.effective_step)
    if not ends.size:
        raise DataError(
            f"panel has {returns.n_dates} return rows; need >= {t + h} "
            "for one formation/test pair"
        )

    observations: list[PortfolioObservation] = []
    skipped_windows: list[tuple[int, str]] = []
    skipped_portfolios = 0
    for w_idx, end in enumerate(ends):
        obs, skipped, reason = _window_observations(
            returns, config, seed, stream, market, w_idx, end
        )
        if reason is not None:
            skipped_windows.append((w_idx, reason))
        observations.extend(obs)
        skipped_portfolios += skipped
    return StudyResult(
        observations=observations,
        skipped_windows=skipped_windows,
        skipped_portfolios=skipped_portfolios,
        config=config,
        seed=seed,
        stream=stream,
        market=market,
    )


# ---------- Statistics ----------

def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x; tied values share the mean of their positions."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    new_value = np.r_[True, xs[1:] != xs[:-1]]
    bounds = np.r_[np.flatnonzero(new_value), x.size]  # tie groups are [bounds[g], bounds[g+1])
    group = np.cumsum(new_value) - 1
    ranks = np.empty(x.size)
    ranks[order] = 0.5 * (bounds[group] + bounds[group + 1] + 1)
    return ranks


def spearman(x, y) -> SpearmanResult:
    """Spearman rank correlation with average ranks for ties.

    The p-value uses the two-sided t approximation with n-2 degrees of
    freedom; |rho| = 1 maps to p = 0. Raises UndefinedCorrelationError when
    either input has zero rank variance.
    """
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if xv.ndim != 1 or xv.shape != yv.shape:
        raise UsageError(f"spearman needs two equal-length vectors, got {xv.shape} / {yv.shape}")
    n = xv.size
    if n < 3:
        raise UsageError(f"spearman needs n >= 3, got {n}")
    if np.isnan(xv).any() or np.isnan(yv).any():
        raise DataError("spearman inputs contain NaN")
    if np.all(xv == xv[0]) or np.all(yv == yv[0]):
        raise UndefinedCorrelationError("zero rank variance: correlation undefined")
    # Imported here: scipy.special costs ~0.3 s of start-up, and only the
    # portfolio report needs it.
    from scipy.special import stdtr

    rx = _average_ranks(xv)
    ry = _average_ranks(yv)
    rx -= rx.mean()
    ry -= ry.mean()
    rho = float(rx @ ry / math.sqrt((rx @ rx) * (ry @ ry)))
    rho = max(-1.0, min(1.0, rho))
    if abs(rho) >= 1.0:
        return SpearmanResult(rho=rho, p_value=0.0)
    tstat = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    p = 2.0 * float(stdtr(n - 2, -abs(tstat)))  # the t survival function at |t|
    return SpearmanResult(rho=rho, p_value=min(1.0, p))


def quintile_partition(n: int) -> list[int]:
    """Sizes of the 5 groups: as equal as possible, remainder to the lowest indices."""
    q, r = divmod(n, 5)
    return [q + 1 if i < r else q for i in range(5)]


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


def quintile_report(
    observations: list[PortfolioObservation],
    event_date: date | None = None,
) -> QuintileReport:
    """Spearman, quintile, and incremental-R2 statistics for one observation set.

    Observations are sorted ascending by delta (ties broken by input order)
    and split into 5 contiguous near-equal groups Q0..Q4; the long-short
    spread is mean(Q4) - mean(Q0) of test-window MVP volatility. Subperiod
    Spearmans split on the formation end date: pre strictly before the event,
    post on/after it.
    """
    n = len(observations)
    if n < 5:
        raise DataError(f"quintile report needs >= 5 observations, got {n}")
    markets = sorted({o.market for o in observations})
    market = markets[0] if len(markets) == 1 else "ALL"

    delta = np.array([o.delta for o in observations])
    sigma_mvp = np.array([o.sigma_mvp for o in observations])
    sigma_ew = np.array([o.sigma_ew for o in observations])
    rho_bar = np.array([o.rho_bar for o in observations])
    sigma_hist = np.array([o.sigma_hist for o in observations])

    order = np.argsort(delta, kind="stable")
    sizes = quintile_partition(n)
    means: list[float] = []
    lo = 0
    for size in sizes:
        means.append(float(sigma_mvp[order[lo:lo + size]].mean()))
        lo += size

    def maybe_spearman(a: np.ndarray, b: np.ndarray) -> SpearmanResult | None:
        try:
            return spearman(a, b)
        except UndefinedCorrelationError:
            return None

    def sub(mask: np.ndarray):
        if np.count_nonzero(mask) < 3:
            return None
        res = maybe_spearman(delta[mask], sigma_mvp[mask])
        if res is None:
            return None
        return (res.rho, res.p_value, int(np.count_nonzero(mask)))

    pre = post = None
    if event_date is not None:
        ends = np.array([o.window_end for o in observations])
        pre = sub(ends < event_date)
        post = sub(ends >= event_date)

    return QuintileReport(
        market=market,
        n_observations=n,
        event_date=event_date,
        spearman_delta_mvp=spearman(delta, sigma_mvp),
        spearman_delta_ew=spearman(delta, sigma_ew),
        quintile_mean_sigma_mvp=tuple(means),
        ls_spread=means[4] - means[0],
        benchmark_spearman_rho_bar=maybe_spearman(rho_bar, sigma_mvp),
        benchmark_spearman_sigma_hist=maybe_spearman(sigma_hist, sigma_mvp),
        incr_r2_over_rho_bar=incremental_r2(sigma_mvp, rho_bar, delta),
        incr_r2_over_sigma_hist=incremental_r2(sigma_mvp, sigma_hist, delta),
        pre_shock=pre,
        post_shock=post,
    )

