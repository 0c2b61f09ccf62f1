"""Rolling formation/test portfolio study: MVP vs equal weights, gap vs realized risk.

Implements the Monte Carlo design: for each rolling step, sample fixed-size
stock subsets, estimate minimum-variance and equal weights in the formation
window, apply them out-of-sample to the test window, and relate the
formation-window structure gap to realized annualized volatility through
Spearman ranks, quintile sorts, and incremental R-squared.
"""
from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass
from datetime import date
from typing import NamedTuple

import numpy as np

from .errors import (DataError, NumericError, UndefinedCorrelationError, UsageError,
                     check_int, check_real)
from .panel import ReturnPanel, window_ends
from .spectral import correlation_spectra, normalized_lambda

logger = logging.getLogger(__name__)


# ---------- Domain types ----------

class SpearmanResult(NamedTuple):
    rho: float
    p_value: float


class Subperiod(NamedTuple):
    """The Spearman of delta vs MVP risk over the observations on one side of an event."""

    rho: float
    p_value: float
    n: int


class SkippedWindow(NamedTuple):
    window_index: int
    reason: str


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
        check_int("formation window", self.formation, 3, " days")
        check_int("test window", self.test, 2, " days")
        check_int("portfolio size", self.n_stocks, 2, " stocks")
        check_int("portfolio count", self.portfolios, 1)
        check_real("annualization factor", self.annualization, positive=True)
        if self.step is not None:
            check_int("study step", self.step, 1)

    @property
    def effective_step(self) -> int:
        return self.test if self.step is None else self.step


@dataclass(eq=False)
class Observations:
    """The study's kept (window, subset) outcomes as columns, in window then draw order;
    `picks` holds each subset's ascending column positions in `tickers`.

    The integer columns take the narrowest unsigned type of their largest
    possible value (`np.min_scalar_type`): at 10 stocks, with at most 256
    tickers and 256 windows, an observation is 59 bytes.
    """

    market: str
    tickers: tuple[str, ...]
    window_index: np.ndarray  # (k,) unsigned, of the study's window count
    window_end: np.ndarray  # (k,) datetime64[D], formation-window end date
    picks: np.ndarray  # (k, n_stocks) unsigned, of the ticker count
    delta: np.ndarray
    rho_bar: np.ndarray
    sigma_hist: np.ndarray  # formation-window EW volatility, % annualized
    sigma_mvp: np.ndarray  # test-window MVP volatility, % annualized
    sigma_ew: np.ndarray  # test-window EW volatility, % annualized

    def __len__(self) -> int:
        return self.delta.size


@dataclass(eq=False)
class StudyResult:
    observations: Observations
    skipped_windows: list[SkippedWindow]
    skipped_portfolios: int


@dataclass(frozen=True)
class QuintileReport:
    """Gap-vs-risk statistics for one market's observations."""

    market: str
    n_observations: int
    event_date: date | None
    spearman_delta_mvp: SpearmanResult
    spearman_delta_ew: SpearmanResult
    quintile_mean_sigma_mvp_pct: tuple[float, ...]  # Q0 (lowest delta) .. Q4
    ls_spread_pct: float  # mean(Q4) - mean(Q0), % annualized
    benchmark_spearman_rho_bar: SpearmanResult | None
    benchmark_spearman_sigma_hist: SpearmanResult | None
    incr_r2_over_rho_bar: float
    incr_r2_over_sigma_hist: float
    pre_shock_spearman: Subperiod | None
    post_shock_spearman: Subperiod | None


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
    return _centered_covariance(x - x.mean(axis=-1, keepdims=True))


def _centered_covariance(centered: np.ndarray) -> np.ndarray:
    # In place, (v + v') / 2 of v = X X' / T takes the same roundings with one
    # stack fewer alive at a time.
    v = centered @ centered.swapaxes(-1, -2)
    v /= centered.shape[-1]
    out = v + v.swapaxes(-1, -2)
    out /= 2.0
    return out


# A symmetric PSD matrix's singular values are its eigenvalues, and
# pinv(rcond=1e-10) zeroes only those below 1e-10 * s_max. A covariance whose
# eigenvalues pass lambda_min > _SOLVE_RCOND * lambda_max clears that cut by a
# factor of 100, so pinv would truncate nothing and V+ = V^-1: a solve gives
# the same weights up to rounding, and every row pinv would truncate still
# goes to pinv.
_SOLVE_RCOND = 1e-8

# A certified covariance is sure to pass that rule, as its correlation
# spectrum shows without a second eigvalsh. For V = D C D, D = diag(d),
# lambda_min(V) >= lambda_min(C) d_min^2 and lambda_max(V) <= lambda_max(C) d_max^2.
# By Weyl, the computed spectrum of C is within delta = 64 n^2 eps of that of
# D^-1 V D^-1: cleaning leaves a few roundings per entry of size <= 1 (<= 4 n
# eps in the 2-norm), and LAPACK's eigenvalues are exact for a matrix within
# c n eps ||C|| of it, c a modest constant (60 here) and ||C|| <= n. A row
# whose bound (lambda_max + delta) / (lambda_min - delta) * (d_max / d_min)^2
# is <= 1e6 has cond(V) <= 1e6, 100 times inside the rule; that margin dwarfs
# eigvalsh(V)'s own ~n^2 eps error, and a delta too small by orders of
# magnitude, as a certified lambda_min(C) is >= 1e-6. NaN never certifies.
_CERTIFIED_COND = 1e6


def _certified(corr_eigenvalues: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Which V = D C D, D = diag(scales), pass the solve rule, from C's ascending eigenvalues."""
    n = scales.shape[-1]
    delta = 64.0 * n * n * np.finfo(float).eps
    lo, hi = corr_eigenvalues[..., 0] - delta, corr_eigenvalues[..., -1] + delta
    d_min, d_max = scales.min(axis=-1), scales.max(axis=-1)
    # The bound without a division: a zero scale fails it instead of warning.
    return (lo > 0.0) & (hi * (d_max * d_max) <= _CERTIFIED_COND * lo * (d_min * d_min))


def mvp_weights(cov: np.ndarray, certified: np.ndarray | None = None) -> np.ndarray:
    """Fully invested minimum-variance weights q = V+ 1 / (1' V+ 1) of each symmetric covariance.

    Uses the Moore-Penrose pseudo-inverse (singular values below 1e-10 * s_max
    are treated as zero), so rank-deficient covariances still yield weights;
    shorting is allowed. A well-conditioned covariance is solved for V^-1 1
    instead (see `_SOLVE_RCOND`). `certified` marks covariances already known
    to be (see `_certified`); only the rest take `eigvalsh`. Where 1'V+1 is
    non-finite or below 1e-12 in magnitude the weights are undefined (NaN).
    """
    v = np.asarray(cov, dtype=float)
    ones = np.ones(v.shape[-1])
    solvable = np.zeros(v.shape[:-2], dtype=bool) if certified is None else certified.copy()
    check = ~solvable
    if check.any():
        lam = np.linalg.eigvalsh(v[check])
        solvable[check] = lam[..., 0] > _SOLVE_RCOND * lam[..., -1]
        logger.debug("mvp weights: %d of %d covariance(s) were not certified and took "
                     "eigvalsh", np.count_nonzero(check), solvable.size)
    numer = np.empty(v.shape[:-1])
    # b is an explicit (k, n, 1) stack: NumPy 2 no longer reads a (k, n) b as k vectors.
    a = v[solvable]
    numer[solvable] = np.linalg.solve(a, np.ones(a.shape[:-1] + (1,)))[..., 0]
    rest = ~solvable
    if rest.any():
        numer[rest] = np.linalg.pinv(v[rest], rcond=1e-10) @ ones
        logger.debug("mvp weights: %d of %d covariance(s) took the pseudo-inverse",
                     np.count_nonzero(rest), solvable.size)
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
# `_subsets` gives, for a range of keys at once, the set that
# `np.random.default_rng(key).choice(m, n, replace=False)` draws: NumPy's
# SeedSequence hash of the key, the PCG64 (XSL-RR 128/64) stream it seeds,
# the buffered 32-bit draws and the no-replacement rule of `Generator.choice`.
# Each lane runs the same uint64 arithmetic; 32-bit quantities are
# masked back to 32 bits and 128-bit ones are (hi, lo) pairs. The seed hash
# takes Python ints where a word is the same in every lane, and uint64 lane
# arrays from the first step that reads the lane's own key word.

_M32 = np.uint64(0xFFFFFFFF)
_S32, _S58, _S63, _S64 = (np.uint64(s) for s in (32, 58, 63, 64))
_ONE = np.uint64(1)
# SeedSequence hash constants.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
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
    """SeedSequence's hashmix, of a 32-bit int or a uint64 lane array; its 32-bit
    constant starts at init and is multiplied by mult per call, in call order."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & 0xFFFFFFFF
        value = value * const & 0xFFFFFFFF
        return value ^ (value >> 16)

    return hashmix


def _mix(x, y):
    """SeedSequence's mix of two 32-bit words, each an int or a uint64 lane array."""
    result = (_MIX_L * x - _MIX_R * y) & 0xFFFFFFFF
    return result ^ (result >> 16)


def _mulhi64(a: np.ndarray) -> np.ndarray:
    """High 64 bits of each a * _PCG_LO, from 32-bit limbs."""
    a1, a0 = a >> _S32, a & _M32
    p01, p10 = a0 * _PCG_LO1, a1 * _PCG_LO0
    mid = (a0 * _PCG_LO0 >> _S32) + (p01 & _M32) + (p10 & _M32)
    return a1 * _PCG_LO1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)


class _Lanes:
    """PCG64 generators seeded by SeedSequence([*prefix, p]), one for each p in `keys`,
    a range of step 1."""

    def __init__(self, prefix: tuple[int, ...], keys: range):
        count = len(keys)
        # The prefix's words are ints, equal in every lane; every lane index is one
        # 32-bit key word, as keys.stop <= 2**32.
        entropy: list = [w for k in prefix for w in _key_words(k)]
        entropy.append(np.arange(keys.start, keys.stop, dtype=np.uint64))
        # SeedSequence.mix_entropy into a pool of 4 words. A step on ints alone stays
        # an int; the lane word makes each pool word it reaches an array.
        hashmix = _hasher(_INIT_A, _MULT_A)
        pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
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
        self._step()
        self.has_word = np.zeros(count, dtype=bool)
        self.word = np.zeros(count, dtype=np.uint64)

    def _step(self, lanes: np.ndarray | slice = slice(None)) -> np.ndarray:
        """Advance the given lanes, or every lane, one PCG64 step; their 64-bit XSL-RR
        outputs."""
        hi, lo = self.hi[lanes], self.lo[lanes]
        hi = hi * _PCG_LO + lo * _PCG_HI + _mulhi64(lo) + self.inc_hi[lanes]
        lo = lo * _PCG_LO
        inc_lo = self.inc_lo[lanes]
        lo += inc_lo
        hi += lo < inc_lo
        self.hi[lanes], self.lo[lanes] = hi, lo
        x, rot = hi ^ lo, hi >> _S58
        return x >> rot | x << ((_S64 - rot) & _S63)

    def next_uint32(self, lanes: np.ndarray | None = None) -> np.ndarray:
        """Each lane's next 32-bit draw, of the given lanes or of every lane: the low
        half of a fresh output, then its high half."""
        if lanes is None:
            # Lanes redraw so rarely that every lane mostly holds a half, or none.
            if not self.has_word.any():
                value = self._step()
                self.word = value >> _S32
                self.has_word[:] = True
                return value & _M32
            if self.has_word.all():
                self.has_word[:] = False
                return self.word.copy()
            lanes = self.every
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
        prod = self.next_uint32() * bound
        redo = np.flatnonzero((prod & _M32) < threshold)
        while redo.size:
            prod[redo] = self.next_uint32(redo) * bound
            redo = redo[(prod[redo] & _M32) < threshold]
        return (prod >> _S32).astype(np.int64)


def _subsets(prefix: tuple[int, ...], keys: range, m: int, n: int) -> np.ndarray:
    """Sorted (len(keys), n) sets `default_rng([*prefix, p]).choice(m, n, replace=False)`
    draws, one row for each p in `keys`, a range of step 1.

    Each row depends on its key alone, so the rows of a split range join to
    those of the whole; 1 <= n <= m < 2**32 - 1. Like
    `Generator.choice`, it takes Floyd's algorithm when m <= 10000 or
    n <= m // 50, and otherwise shuffles the last n places of range(m); both
    draw by `_Lanes.bounded`. Only the set is kept, so the final shuffle of
    the Floyd branch is left out.
    """
    lanes = _Lanes(prefix, keys)
    count = len(keys)
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

# Cap on the bytes of each gathered (p, n, t) formation or (p, n, h) test stack
# of one chunk of a window's portfolios; a chunk holds one such stack at a time
# and at least one portfolio. At the default study (500 portfolios of 10 stocks
# over 60 days, a 2.4 MB stack) 4 MiB keeps each window in one chunk. On the
# risk-study preset the study's in-process CPU (best of 5, median of 8
# processes) read 0.210 s at 4 MiB, 0.222 s at 2 MiB (two chunks a window) and
# 0.253 s at 1 MiB (three), against 0.216 s when each window was gathered whole.
_STACK_BYTES = 4 << 20


def _window_columns(form: np.ndarray, test: np.ndarray, config: StudyConfig,
                   key: tuple[int, ...]) -> list[tuple[np.ndarray, ...]] | str:
    """(picks, delta, rho_bar, sigma_hist, sigma_mvp, sigma_ew) of one window's kept
    portfolios, from its (t, N) formation and (h, N) test returns, one tuple per chunk
    of portfolios in draw order; or why the window is skipped."""
    n = config.n_stocks
    complete = ~(np.isnan(form).any(axis=0) | np.isnan(test).any(axis=0))
    # A stock whose formation returns are all equal has no correlation, even
    # where rounding leaves its std a little above 0.
    constant = (form == form[:1]).all(axis=0)
    eligible = np.flatnonzero(complete & ~constant)
    if eligible.size < n:
        return f"{eligible.size} eligible stocks (need {n})"

    # The eligible assets' rows, each contiguous: raw and centered formation
    # returns, and test returns.
    rows = np.ascontiguousarray(form.T[eligible])
    centered = rows - rows.mean(axis=1, keepdims=True)
    tests = np.ascontiguousarray(test.T[eligible])
    chunk = max(1, _STACK_BYTES // (8 * n * max(form.shape[0], test.shape[0])))
    # Each chunk draws its own portfolios' subsets, so the draw's lane state
    # grows with the chunk and not with the window. Drawing positions in
    # `eligible` takes the same random stream as drawing from `eligible` itself.
    p = config.portfolios
    return [_chunk_columns(eligible, rows, centered, tests,
                           _subsets(key, range(lo, min(lo + chunk, p)), eligible.size, n),
                           config.annualization)
            for lo in range(0, p, chunk)]


def _chunk_columns(eligible: np.ndarray, rows: np.ndarray, centered: np.ndarray,
                   tests: np.ndarray, subsets: np.ndarray,
                   annualization: float) -> tuple[np.ndarray, ...]:
    """(picks, delta, rho_bar, sigma_hist, sigma_mvp, sigma_ew) of the kept portfolios
    of one chunk of a window's (p, n) subsets, positions in `eligible`, from the eligible
    assets' raw, centered and test rows.

    The (p, n, t) formation, centered and (p, n, h) test stacks are gathered in
    turn, each once the one before is gone, and every stack goes when the call
    returns.
    """
    q_ew = ew_weights(subsets.shape[1])
    # Formation moments stay on the population (1/T) convention.
    hist = rows[subsets].swapaxes(-1, -2) @ q_ew
    hist -= hist.mean(axis=-1, keepdims=True)
    sigma_hist = np.sqrt(np.mean(hist ** 2, axis=-1)) * math.sqrt(annualization) * 100.0

    # Shared population-1/T moments give both the covariance for the weights
    # and the correlation for the gap of the same subset.
    cov = _centered_covariance(centered[subsets])
    d = np.sqrt(np.diagonal(cov, axis1=-2, axis2=-1))
    spectra = correlation_spectra(cov / (d[:, :, np.newaxis] * d[:, np.newaxis, :]))
    rho_bar = spectra.rho_signed
    delta = normalized_lambda(spectra.lambda_max, q_ew.size) - rho_bar

    q_mvp = mvp_weights(cov, _certified(spectra.eigenvalues, d))
    kept = ~np.isnan(q_mvp).any(axis=-1)
    y = tests[subsets]
    sigma_mvp = realized_volatility(q_mvp, y, annualization)
    sigma_ew = realized_volatility(q_ew, y, annualization)
    return tuple(c[kept] for c in (eligible[subsets], delta, rho_bar, sigma_hist, sigma_mvp,
                                   sigma_ew))


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
        raise DataError(f"panel has {returns.n_dates} return rows; need >= {t + h} "
                        "for one formation/test pair")

    # The kept portfolios' columns fill one block sized for every draw, so no
    # window's columns are held twice; the float columns are its rows.
    size = ends.size * config.portfolios
    window_index = np.empty(size, np.min_scalar_type(ends.size - 1))
    picks = np.empty((size, config.n_stocks), np.min_scalar_type(returns.n_assets - 1))
    values = np.empty((5, size))
    k = 0
    skipped_windows: list[SkippedWindow] = []
    for w_idx, end in enumerate(ends.tolist()):
        columns = _window_columns(returns.values[end - t:end], returns.values[end:end + h],
                                  config, (seed, stream, w_idx))
        if isinstance(columns, str):
            skipped_windows.append(SkippedWindow(w_idx, columns))
            continue
        for chunk_picks, *chunk_values in columns:
            rows = slice(k, k + len(chunk_picks))
            window_index[rows] = w_idx
            picks[rows] = chunk_picks
            values[:, rows] = chunk_values
            k = rows.stop
    end_dates = np.array([returns.dates[e - 1] for e in ends.tolist()], dtype="datetime64[D]")
    window_index = window_index[:k]
    observations = Observations(market, tuple(returns.tickers), window_index,
                                end_dates[window_index], picks[:k], *values[:, :k])
    n_run = ends.size - len(skipped_windows)
    skipped_portfolios = n_run * config.portfolios - len(observations)
    logger.info("portfolio study %s: %d window(s) run, %d skipped; %d observations, "
                "%d portfolio(s) skipped", market, n_run, len(skipped_windows),
                len(observations), skipped_portfolios)
    return StudyResult(observations, skipped_windows, skipped_portfolios)


# ---------- Statistics ----------
#
# The Spearman p-value is the two-sided Student-t tail
# P(|T| >= |t|) = I_x(nu/2, 1/2), x = nu / (nu + t^2), a regularized
# incomplete beta function. It is evaluated as in DiDonato & Morris, ACM TOMS
# 708 (1992): the prefix x^a y^b / B(a, b) in logarithms, times the
# continued fraction of their BFRAC, on the side of the mean where it
# converges fast (the symmetry I_x(a, b) = 1 - I_y(b, a), y = 1 - x, covers
# the other). Both x and y come from r = t^2 / nu without a subtraction, and
# BFRAC's lambda = (a + b) y - b is formed from y, so nothing cancels when x
# is near 1. The fraction is summed by the modified Lentz method; it took at
# most 64 terms on every (nu, t) tried, nu from 1 to 1e9.

_LN_SQRT_PI = 0.5 * math.log(math.pi)
_LN_FLOAT_MIN = math.log(sys.float_info.min)
_LENTZ_TINY = 1e-300
_LENTZ_TERMS = 1000


def _log_beta_half(a: float) -> float:
    """ln B(a, 1/2) = ln Gamma(1/2) - (ln Gamma(a + 1/2) - ln Gamma(a))."""
    if a < 30.0:
        return math.lgamma(a) + _LN_SQRT_PI - math.lgamma(a + 0.5)
    # Above 30 the lgamma difference would cancel (lgamma(9000) is ~7e4, so
    # it keeps ~1e-11 absolute); its asymptotic series in 1/a keeps ~1e-16.
    r = 1.0 / a
    r2 = r * r
    lgamma_ratio = 0.5 * math.log(a) - r * (
        1 / 8 - r2 * (1 / 192 - r2 * (1 / 640 - r2 * (17 / 14336))))
    return _LN_SQRT_PI - lgamma_ratio


def _beta_fraction(a: float, b: float, x: float, y: float, lam: float) -> float:
    """BFRAC's continued fraction: I_x(a, b) = x^a y^b / B(a, b) * result.

    y = 1 - x and lam = (a + b) y - b are passed in, each computed without
    cancellation by the caller.
    """
    c = lam + 1.0
    c0 = b / a
    c1 = 1.0 + 1.0 / a
    f = c / c1
    big_c, d = f, 0.0
    for n in range(1, _LENTZ_TERMS):
        t = n / a
        p = 1.0 + (n - 1) / a
        s = a + 2 * n - 1
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        beta = n + w / s + (1.0 + t) / (c1 + t + t) * (c + n * (1.0 + y))
        d = beta + alpha * d
        d = 1.0 / (d if abs(d) > _LENTZ_TINY else _LENTZ_TINY)
        big_c = beta + alpha / big_c
        if abs(big_c) <= _LENTZ_TINY:
            big_c = _LENTZ_TINY
        step = big_c * d
        f *= step
        if abs(step - 1.0) <= 2.0 ** -53:
            return 1.0 / f
    raise NumericError(f"incomplete beta fraction did not converge (a={a}, b={b}, x={x})")


def _stdtr_underflows(a: float, y: float, log_x: float, log_beta: float) -> bool:
    """Whether SciPy's stdtr gives 0.0 for the tail I_x(a, 1/2), a > 1.

    SciPy's stdtr is Boost's ibeta. For a tail that small Boost sums the power
    series in x while y >= 0.3, and DiDonato & Morris's BGRAT (for a >= 15)
    below that. Each returns 0.0 as soon as its leading factor is below the
    smallest normal float, although the tail itself may still be a subnormal
    number: x^a / B(a, 1/2) for the series, and u^(1/2) e^-u / Gamma(1/2),
    u = -(a - 1/4) ln x, for BGRAT. The rule matched SciPy 1.17.1's zeros on
    every one of 63200 deep-tail cases, nu from 3 to 1e6; following it keeps
    each reported p-value 0.0 exactly where SciPy's was.
    """
    if y >= 0.3:
        return a * log_x - log_beta < _LN_FLOAT_MIN
    if a >= 15.0:
        u = -(a - 0.25) * log_x
        return 0.5 * math.log(u) - u - _LN_SQRT_PI <= _LN_FLOAT_MIN
    return False


def _t_two_sided(nu: float, t: float) -> float:
    """Two-sided Student-t tail P(|T| >= |t|) with nu > 0 degrees of freedom.

    Equals 2 * stdtr(nu, -|t|) of SciPy within 4e-13 relative (the worst
    seen) while the result is a normal float, and is exactly 1.0 at t = 0.
    Below the normal range it is 0.0 wherever stdtr is (`_stdtr_underflows`),
    and otherwise the subnormal the tail rounds to.
    """
    r = t * t / nu
    if r == 0.0:
        return 1.0
    if r == math.inf:  # |t| past ~1e154; stdtr is 0.0 there too
        return 0.0
    a = 0.5 * nu
    x = 1.0 / (1.0 + r)
    y = r / (1.0 + r)
    log_x = -math.log1p(r)
    log_beta = _log_beta_half(a)
    # ln(x^a y^(1/2) / B(a, 1/2)), with ln y = -log1p(1/r).
    log_prefix = a * log_x - 0.5 * math.log1p(1.0 / r) - log_beta
    lam = (a + 0.5) * y - 0.5
    if x >= (a + 1.0) / (a + 2.5):
        return 1.0 - math.exp(log_prefix) * _beta_fraction(0.5, a, y, x, -lam)
    if a > 1.0 and _stdtr_underflows(a, y, log_x, log_beta):
        return 0.0
    return math.exp(log_prefix + math.log(_beta_fraction(a, 0.5, x, y, lam)))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x; tied values share the mean of their positions.

    A group's mean position is one exact half-integer, formed once per group,
    and the sorted values go before the ranks are built, so at most three
    arrays of x's size are alive at a time when nothing ties.
    """
    order = np.argsort(x, kind="stable")
    xs = x[order]
    new_value = np.r_[True, xs[1:] != xs[:-1]]
    del xs
    ranks = np.empty(x.size)
    if new_value.all():
        ranks[order] = np.arange(1.0, x.size + 1)
        return ranks
    bounds = np.r_[np.flatnonzero(new_value), x.size]  # tie groups are [bounds[g], bounds[g+1])
    ranks[order] = np.repeat(0.5 * (bounds[:-1] + bounds[1:] + 1), np.diff(bounds))
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
    rx = _average_ranks(xv)
    ry = _average_ranks(yv)
    rx -= rx.mean()
    ry -= ry.mean()
    rho = float(rx @ ry / math.sqrt((rx @ rx) * (ry @ ry)))
    rho = max(-1.0, min(1.0, rho))
    if abs(rho) >= 1.0:
        return SpearmanResult(rho=rho, p_value=0.0)
    tstat = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    return SpearmanResult(rho=rho, p_value=_t_two_sided(n - 2, tstat))


def quintile_partition(n: int) -> list[int]:
    """Sizes of the 5 groups: as equal as possible, remainder to the lowest indices."""
    q, r = divmod(n, 5)
    return [q + 1 if i < r else q for i in range(5)]


def _sum_of_squares(x: np.ndarray) -> float:
    """sum(x ** 2), squaring x in place."""
    x *= x
    return float(np.sum(x))


def _ols_r2(design: np.ndarray, y: np.ndarray) -> float:
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    ss_tot = _sum_of_squares(y - y.mean())
    if ss_tot == 0.0:
        return 0.0
    resid = design @ beta
    return 1.0 - _sum_of_squares(np.subtract(y, resid, out=resid)) / ss_tot


def incremental_r2(y: np.ndarray, benchmark: np.ndarray, extra: np.ndarray) -> float:
    """R2 gain from adding `extra` to an intercept + benchmark OLS of y.

    Both fits read one (n, 3) design, the base fit its first two columns.
    """
    design = np.column_stack([np.ones_like(y), benchmark, extra])
    return _ols_r2(design, y) - _ols_r2(design[:, :2], y)


def quintile_report(
    observations: Observations,
    event_date: date | None = None,
) -> QuintileReport:
    """Spearman, quintile, and incremental-R2 statistics for one market's observations.

    Observations are sorted ascending by delta (ties broken by row order)
    and split into 5 contiguous near-equal groups Q0..Q4; the long-short
    spread is mean(Q4) - mean(Q0) of test-window MVP volatility. Subperiod
    Spearmans split on the formation end date: pre strictly before the event,
    post on/after it.
    """
    n = len(observations)
    if n < 5:
        raise DataError(f"quintile report needs >= 5 observations, got {n}")
    delta, sigma_mvp = observations.delta, observations.sigma_mvp
    rho_bar, sigma_hist = observations.rho_bar, observations.sigma_hist

    order = np.argsort(delta, kind="stable")
    bounds = np.cumsum([0, *quintile_partition(n)]).tolist()
    means = [float(sigma_mvp[order[a:b]].mean()) for a, b in zip(bounds, bounds[1:])]
    del order  # not held through the rank statistics below

    def maybe_spearman(a: np.ndarray, b: np.ndarray) -> SpearmanResult | None:
        try:
            return spearman(a, b)
        except UndefinedCorrelationError:
            return None

    def sub(mask: np.ndarray) -> Subperiod | None:
        count = int(np.count_nonzero(mask))
        res = maybe_spearman(delta[mask], sigma_mvp[mask]) if count >= 3 else None
        return None if res is None else Subperiod(*res, count)

    pre = post = None
    if event_date is not None:
        event = np.datetime64(event_date, "D")
        pre = sub(observations.window_end < event)
        post = sub(observations.window_end >= event)

    return QuintileReport(
        market=observations.market,
        n_observations=n,
        event_date=event_date,
        spearman_delta_mvp=spearman(delta, sigma_mvp),
        spearman_delta_ew=spearman(delta, observations.sigma_ew),
        quintile_mean_sigma_mvp_pct=tuple(means),
        ls_spread_pct=means[4] - means[0],
        benchmark_spearman_rho_bar=maybe_spearman(rho_bar, sigma_mvp),
        benchmark_spearman_sigma_hist=maybe_spearman(sigma_hist, sigma_mvp),
        incr_r2_over_rho_bar=incremental_r2(sigma_mvp, rho_bar, delta),
        incr_r2_over_sigma_hist=incremental_r2(sigma_mvp, sigma_hist, delta),
        pre_shock_spearman=pre,
        post_shock_spearman=post,
    )
