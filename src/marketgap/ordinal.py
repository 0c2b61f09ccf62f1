"""Cross-sectional ordinal patterns and entropy of 3-day return triples.

Each stock's last three daily returns map to one of the 3! = 6 permutations
that sort them ascending (ties broken by earlier time index). The Shannon
entropy of the pattern distribution across stocks, in nats, measures the
diversity of short-term directional behavior: ln 6 when every pattern is
equally common, 0 when all stocks share one pattern.
"""
from __future__ import annotations

from dataclasses import dataclass
from datetime import date

import numpy as np

from .errors import DegenerateWindowError
from .panel import ReturnPanel, window_ends

# The 6 permutations of (0, 1, 2) in lexicographic order; index = pattern id.
PATTERNS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
N_PATTERNS = len(PATTERNS)

# Bits (x1 < x0, x2 < x0, x2 < x1) as 4a + 2b + c -> pattern id; -1: no finite triple.
_BITS_TO_INDEX = np.full(8, -1, dtype=np.int64)
for _i, _r in enumerate(tuple(_p.index(k) for k in range(3)) for _p in PATTERNS):
    _BITS_TO_INDEX[4 * (_r[1] < _r[0]) + 2 * (_r[2] < _r[0]) + (_r[2] < _r[1])] = _i


@dataclass(eq=False)
class EntropySeries:
    """Dated ordinal entropy with the underlying pattern distributions."""

    dates: list[date]
    values: np.ndarray  # entropy in nats, one per date
    n_stocks: np.ndarray
    probabilities: np.ndarray  # shape (n_dates, 6)


# ---------- Pattern extraction ----------

def _pattern_ids(x0: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    # Strict < sorts the earlier of two tied returns first.
    return _BITS_TO_INDEX[4 * (x1 < x0) + 2 * (x2 < x0) + (x2 < x1)]


# ---------- Entropy ----------

def ordinal_entropy(probabilities) -> float:
    """Shannon entropy in nats; zero-probability patterns contribute nothing."""
    p = np.asarray(probabilities, dtype=float)
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum() + 0.0)  # +0.0 normalizes -0.0


def entropy_series(returns: ReturnPanel, length: int = 60, step: int = 1) -> EntropySeries:
    """Ordinal entropy at each rolling window end date.

    Only the final three returns of each window feed the patterns; the window
    length just positions the series so it shares a date axis with the
    spectral gap series. A stock contributes on a date iff its t-2..t returns
    are all present; a date where none does raises DegenerateWindowError.
    """
    ends = window_ends(returns.n_dates, length, step)
    # Rows ends - 3, ends - 2 and ends - 1 as three strided (W, N) views, no copy.
    x0, x1, x2 = (returns.values[length - 3 + i::step][:ends.size] for i in range(3))
    eligible = np.isfinite(x0) & np.isfinite(x1) & np.isfinite(x2)
    n_stocks = np.count_nonzero(eligible, axis=1)
    if not n_stocks.all():
        first = returns.dates[ends[np.argmin(n_stocks)] - 1]
        raise DegenerateWindowError(
            f"no stock has complete returns for the triple ending {first.isoformat()}"
        )
    bins = _pattern_ids(x0, x1, x2)
    bins += N_PATTERNS * np.arange(ends.size)[:, np.newaxis]  # window k: bins 6k .. 6k + 5
    counts = np.bincount(bins[eligible], minlength=N_PATTERNS * ends.size).reshape(-1, N_PATTERNS)
    probabilities = counts / n_stocks[:, np.newaxis]
    return EntropySeries(
        dates=[returns.dates[end - 1] for end in ends],
        values=np.array([ordinal_entropy(p) for p in probabilities]),
        n_stocks=n_stocks.astype(np.int64),
        probabilities=probabilities,
    )
