"""Rolling spectral market-structure analytics on daily price panels.

Core pipeline: load a close-price panel, take log returns, z-score each
rolling window, and track the gap between the normalized leading eigenvalue
of the correlation matrix and the mean pairwise correlation, alongside the
cross-sectional ordinal entropy of 3-day return patterns. A Monte Carlo
portfolio study relates the formation-window gap to realized out-of-sample
volatility. A synthetic factor-model generator provides controlled panels
with scripted volatility regimes for validation.
"""

__version__ = "0.1.0"

from . import ordinal, panel, portfolio, regimes, spectral, synth  # noqa: F401
from .errors import (  # noqa: F401
    DataError,
    DegenerateWindowError,
    MarketGapError,
    NumericError,
    ParseError,
    UndefinedCorrelationError,
    UsageError,
)
