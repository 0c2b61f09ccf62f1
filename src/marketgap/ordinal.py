"""Cross-sectional ordinal patterns and entropy of 3-day return triples.

Each stock's last three daily returns map to one of the 3! = 6 permutations
that sort them ascending (ties broken by earlier time index). The Shannon
entropy of the pattern distribution across stocks, in nats, measures the
diversity of short-term directional behavior: ln 6 when every pattern is
equally common, 0 when all stocks share one pattern.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date

import numpy as np

from .errors import DegenerateWindowError, UsageError
from .panel import ReturnPanel, window_ends
from .regimes import PhaseWindows

# The 6 permutations of (0, 1, 2) in lexicographic order; index = pattern id.
PATTERNS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
N_PATTERNS = len(PATTERNS)
MAX_ENTROPY = math.log(N_PATTERNS)

# Permutation (a, b, c) encoded as 9a + 3b + c -> pattern id; -1 marks non-permutations.
_CODE_TO_INDEX = np.full(27, -1, dtype=np.int64)
for _i, _p in enumerate(PATTERNS):
    _CODE_TO_INDEX[9 * _p[0] + 3 * _p[1] + _p[2]] = _i


@dataclass(eq=False)
class EntropySeries:
    """Dated ordinal entropy with the underlying pattern distributions."""

    dates: list[date]
    values: np.ndarray  # entropy in nats, one per date
    n_stocks: np.ndarray
    probabilities: np.ndarray  # shape (n_dates, 6)
    window_length: int
    step: int


@dataclass(frozen=True)
class PhaseStat:
    mean: float
    std: float | None  # sample std (ddof=1); None when fewer than 2 points
    count: int


@dataclass(frozen=True)
class OrdinalPhaseStats:
    """Per-phase entropy statistics plus the false-recovery 95th percentile."""

    pre_shock: PhaseStat | None
    shock: PhaseStat | None
    false_recovery: PhaseStat | None
    stabilized: PhaseStat | None
    false_recovery_p95: float | None
    percentile_method: str = "linear interpolation between closest ranks"


# ---------- Pattern extraction ----------

def pattern_indices(triples: np.ndarray) -> np.ndarray:
    """Vectorized pattern ids for a (..., 3, n_stocks) stack of return triples."""
    if triples.ndim < 2 or triples.shape[-2] != 3:
        raise UsageError(f"expected a (..., 3, n) block, got shape {triples.shape}")
    order = np.argsort(triples, axis=-2, kind="stable")
    codes = 9 * order[..., 0, :] + 3 * order[..., 1, :] + order[..., 2, :]
    return _CODE_TO_INDEX[codes]


# ---------- Entropy ----------

def ordinal_entropy(probabilities) -> float:
    """Shannon entropy in nats; zero-probability patterns contribute nothing."""
    p = np.asarray(probabilities, dtype=float)
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum() + 0.0)  # +0.0 normalizes -0.0


def entropy_series(
    returns: ReturnPanel,
    length: int = 60,
    step: int = 1,
) -> EntropySeries:
    """Ordinal entropy at each rolling window end date.

    Only the final three returns of each window feed the patterns; the window
    length just positions the series so it shares a date axis with the
    spectral gap series. A stock contributes on a date iff its t-2..t returns
    are all present; a date where none does raises DegenerateWindowError.
    """
    ends = window_ends(returns.n_dates, length, step)
    triples = returns.values[(ends - 3)[:, np.newaxis] + np.arange(3)]  # (W, 3, N)
    eligible = np.isfinite(triples).all(axis=1)  # (W, N)
    n_stocks = np.count_nonzero(eligible, axis=1)
    if not n_stocks.all():
        first = returns.dates[ends[np.argmin(n_stocks)] - 1]
        raise DegenerateWindowError(
            f"no stock has complete returns for the triple ending {first.isoformat()}"
        )
    # Window k's patterns are counted in bins 6k .. 6k + 5.
    bins = (N_PATTERNS * np.arange(ends.size)[:, np.newaxis] + pattern_indices(triples))[eligible]
    counts = np.bincount(bins, minlength=N_PATTERNS * ends.size).reshape(-1, N_PATTERNS)
    probabilities = counts / n_stocks[:, np.newaxis]
    return EntropySeries(
        dates=[returns.dates[end - 1] for end in ends],
        values=np.array([ordinal_entropy(p) for p in probabilities]),
        n_stocks=n_stocks.astype(np.int64),
        probabilities=probabilities,
        window_length=length,
        step=step,
    )


# ---------- Phase statistics ----------

def _phase_values(dates: list[date], values: np.ndarray, interval) -> np.ndarray:
    if interval is None:
        return np.array([])
    start, end = interval
    mask = np.array([start <= d <= end for d in dates])
    return values[mask]


def _stat(vals: np.ndarray) -> PhaseStat | None:
    if vals.size == 0:
        return None
    std = float(np.std(vals, ddof=1)) if vals.size >= 2 else None
    return PhaseStat(mean=float(np.mean(vals)), std=std, count=int(vals.size))


def phase_statistics(series: EntropySeries, phases: PhaseWindows) -> OrdinalPhaseStats:
    """Mean and sample std of entropy per phase; 95th percentile over false recovery."""
    per_phase = {}
    for name in ("pre_shock", "shock", "false_recovery", "stabilized"):
        per_phase[name] = _phase_values(series.dates, series.values, getattr(phases, name))
    fr = per_phase["false_recovery"]
    p95 = float(np.percentile(fr, 95, method="linear")) if fr.size else None
    return OrdinalPhaseStats(
        pre_shock=_stat(per_phase["pre_shock"]),
        shock=_stat(per_phase["shock"]),
        false_recovery=_stat(per_phase["false_recovery"]),
        stabilized=_stat(per_phase["stabilized"]),
        false_recovery_p95=p95,
    )
