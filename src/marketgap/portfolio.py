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


# ---------- Subset draws ----------
#
# `_subsets` gives, for P keys at once, the set that
# `np.random.default_rng(key).choice(m, n, replace=False)` draws: NumPy's
# SeedSequence hash of the key, the PCG64 (XSL-RR 128/64) stream it seeds,
# the buffered 32-bit draws and the no-replacement rule of `Generator.choice`.
# Each of the P lanes runs the same uint64 arithmetic; 32-bit quantities are
# masked back to 32 bits and 128-bit ones are (hi, lo) pairs.

_M32 = np.uint64(0xFFFFFFFF)
_S16, _S32, _S58, _S63, _S64 = (np.uint64(s) for s in (16, 32, 58, 63, 64))
_ONE = np.uint64(1)
# SeedSequence hash constants.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint64(0xCA01F9DD), np.uint64(0x4973F715)
# The PCG64 multiplier, as 64-bit halves and the 32-bit limbs of its low half.
_PCG_HI, _PCG_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_PCG_LO1, _PCG_LO0 = _PCG_LO >> _S32, _PCG_LO & _M32


def _key_words(value: int) -> list[int]:
    """The 32-bit words SeedSequence makes of a key int, least significant first."""
    if value < 0:
        raise UsageError(f"seed key values must be non-negative, got {value}")
    words = [value & 0xFFFFFFFF]
    while value := value >> 32:
        words.append(value & 0xFFFFFFFF)
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix; its 32-bit constant starts at init and is multiplied by mult per call."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint64(const)
        const = const * mult & 0xFFFFFFFF
        value = value * np.uint64(const) & _M32
        return value ^ (value >> _S16)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = (_MIX_L * x - _MIX_R * y) & _M32
    return result ^ (result >> _S16)


def _mulhi64(a: np.ndarray) -> np.ndarray:
    """High 64 bits of each a * _PCG_LO, from 32-bit limbs."""
    a1, a0 = a >> _S32, a & _M32
    p01, p10 = a0 * _PCG_LO1, a1 * _PCG_LO0
    mid = (a0 * _PCG_LO0 >> _S32) + (p01 & _M32) + (p10 & _M32)
    return a1 * _PCG_LO1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)


class _Lanes:
    """P PCG64 generators seeded by SeedSequence([*prefix, p]), p = 0..P-1."""

    def __init__(self, prefix: tuple[int, ...], count: int):
        # Every lane index is one 32-bit key word, as count <= 2**32.
        entropy = [np.full(count, w, dtype=np.uint64) for k in prefix for w in _key_words(k)]
        entropy.append(np.arange(count, dtype=np.uint64))
        # SeedSequence.mix_entropy into a pool of 4 words.
        hashmix = _hasher(_INIT_A, _MULT_A)
        pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(count, dtype=np.uint64))
                for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for word in entropy[4:]:
            for dst in range(4):
                pool[dst] = _mix(pool[dst], hashmix(word))
        # SeedSequence.generate_state(4, np.uint64): 8 words from the cycled pool.
        hashmix = _hasher(_INIT_B, _MULT_B)
        state = [hashmix(pool[i % 4]) for i in range(8)]
        s0, s1, s2, s3 = (state[2 * k] | state[2 * k + 1] << _S32 for k in range(4))
        # PCG64 srandom_r: state s0:s1, increment (s2:s3 << 1) | 1.
        self.inc_hi = s2 << _ONE | s3 >> _S63
        self.inc_lo = s3 << _ONE | _ONE
        self.hi, self.lo = self.inc_hi.copy(), self.inc_lo.copy()  # one step from 0
        self.lo += s1
        self.hi += s0 + (self.lo < s1)
        self.every = np.arange(count)
        self._step(self.every)
        self.has_word = np.zeros(count, dtype=bool)
        self.word = np.zeros(count, dtype=np.uint64)

    def _step(self, lanes: np.ndarray) -> np.ndarray:
        """Advance the given lanes one PCG64 step; their 64-bit XSL-RR outputs."""
        hi, lo = self.hi[lanes], self.lo[lanes]
        hi = hi * _PCG_LO + lo * _PCG_HI + _mulhi64(lo) + self.inc_hi[lanes]
        lo = lo * _PCG_LO
        inc_lo = self.inc_lo[lanes]
        lo += inc_lo
        hi += lo < inc_lo
        self.hi[lanes], self.lo[lanes] = hi, lo
        x, rot = hi ^ lo, hi >> _S58
        return x >> rot | x << ((_S64 - rot) & _S63)

    def next_uint32(self, lanes: np.ndarray) -> np.ndarray:
        """Each lane's next 32-bit draw: the low half of a fresh output, then its high half."""
        out = self.word[lanes]
        had = self.has_word[lanes]
        fresh = lanes[~had]
        if fresh.size:
            value = self._step(fresh)
            out[~had] = value & _M32
            self.word[fresh] = value >> _S32
        self.has_word[lanes] = ~had
        return out

    def bounded(self, j: int) -> np.ndarray:
        """Each lane's draw on [0, j], 0 < j < 2**32 - 1, by Lemire's rule.

        That is the high word of u * (j + 1) for a 32-bit draw u, redrawn
        while the low word is below 2**32 mod (j + 1).
        """
        bound, threshold = np.uint64(j + 1), np.uint64(2**32 % (j + 1))
        prod = self.next_uint32(self.every) * bound
        redo = self.every[(prod & _M32) < threshold]
        while redo.size:
            prod[redo] = self.next_uint32(redo) * bound
            redo = redo[(prod[redo] & _M32) < threshold]
        return (prod >> _S32).astype(np.int64)


def _subsets(prefix: tuple[int, ...], count: int, m: int, n: int) -> np.ndarray:
    """Sorted (count, n) sets `default_rng([*prefix, p]).choice(m, n, replace=False)` draws.

    Row p is the draw of key [*prefix, p]; 1 <= n <= m < 2**32 - 1. Like
    `Generator.choice`, it takes Floyd's algorithm when m <= 10000 or
    n <= m // 50, and otherwise shuffles the last n places of range(m); both
    draw by `_Lanes.bounded`. Only the set is kept, so the final shuffle of
    the Floyd branch is left out.
    """
    lanes = _Lanes(prefix, count)
    if m <= 10000 or n <= m // 50:
        picks = np.zeros((count, n), dtype=np.int64)
        for k, j in enumerate(range(m - n, m)):
            if j == 0:  # a draw on [0, 0] is 0 and takes no random word
                continue
            val = lanes.bounded(j)
            # A value already drawn gives way to j, which none could be.
            seen = (picks[:, :k] == val[:, np.newaxis]).any(axis=1)
            picks[:, k] = np.where(seen, j, val)
    else:
        perm = np.tile(np.arange(m, dtype=np.int64), (count, 1))
        rows = lanes.every
        for i in range(m - 1, max(m - n, 1) - 1, -1):
            j = lanes.bounded(i)
            perm[rows, i], perm[rows, j] = perm[rows, j], perm[rows, i]
        picks = perm[:, m - n:]
    return np.sort(picks, axis=1)


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
    picks = eligible[_subsets((seed, stream, w_idx), config.portfolios, eligible.size, n)]
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

