"""Shared helpers for the test suite."""
import math
from datetime import date, timedelta

import numpy as np
import pytest

from marketgap.panel import PricePanel, ReturnPanel
from marketgap.spectral import correlation_spectra
from marketgap.synth import DEFAULT_SEED, risk_study_scenario, three_phase_scenario

# The ordinal entropy's upper bound in nats: ln 3!, all six patterns equally common.
MAX_ENTROPY = math.log(6)


def weekdays(start: date, n: int) -> list[date]:
    out = []
    d = start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return out


def make_panel(close, tickers=None, start=date(2025, 1, 2), sector=None, market=None):
    """PricePanel from a (dates, tickers) array; NaN entries stay missing."""
    close = np.asarray(close, dtype=float)
    n_dates, n_assets = close.shape
    tickers = tickers or [f"T{j}" for j in range(n_assets)]
    return PricePanel(
        dates=weekdays(start, n_dates),
        tickers=list(tickers),
        close=close,
        sector_of={t: (sector[t] if sector else "UNKNOWN") for t in tickers},
        market_of={t: (market[t] if market else "ALL") for t in tickers},
    )


def make_returns(values, tickers=None, start=date(2025, 1, 2)):
    """ReturnPanel straight from a (dates, tickers) array of log returns."""
    values = np.asarray(values, dtype=float)
    n_dates, n_assets = values.shape
    tickers = tickers or [f"T{j}" for j in range(n_assets)]
    return ReturnPanel(dates=weekdays(start, n_dates), tickers=list(tickers), values=values)


def symmetry_spy(kernel, verdicts):
    """`kernel`, recording first whether each stack it is given is exactly symmetric."""
    def spy(raw, *args):
        verdicts.append(np.array_equal(raw, raw.swapaxes(-1, -2)))
        return kernel(raw, *args)
    return spy


def zscore_rows(x):
    """Population-convention z-score of each row."""
    x = np.asarray(x, dtype=float)
    mu = x.mean(axis=1, keepdims=True)
    sd = np.sqrt(np.mean((x - mu) ** 2, axis=1, keepdims=True))
    return (x - mu) / sd


def random_correlation(rng, n, t=None, factors=None):
    """Random valid sample correlation matrix, built independently of the package.

    Data has a random loading structure so spectra range from noise-like to
    strongly spiked; np.corrcoef guarantees symmetry, unit diagonal, and PSD.
    """
    t = t or int(rng.integers(max(n + 5, 30), 400))
    k = factors if factors is not None else int(rng.integers(0, 4))
    x = rng.standard_normal((n, t))
    for _ in range(k):
        load = rng.uniform(-1.5, 1.5, size=(n, 1))
        x += load * rng.standard_normal((1, t))
    c = np.corrcoef(x)
    return (c + c.T) / 2.0


def equicorrelation(n, c):
    """Matrix with unit diagonal and constant off-diagonal c.

    Its spectrum is {1 + (n-1)c} plus (n-1) copies of (1-c), an analytic reference.
    """
    m = np.full((n, n), float(c))
    np.fill_diagonal(m, 1.0)
    return m


def correlation_spectrum(raw):
    """The package kernel `correlation_spectra` on a symmetrized copy of one N x N estimate.

    `raw` is left as it is and need not be symmetric.
    """
    c = np.add(raw, raw.T)
    c /= 2.0
    return correlation_spectra(c)


@pytest.fixture(scope="session")
def three_phase():
    """Frozen default three-phase scenario (panel + ground truth)."""
    return three_phase_scenario()


@pytest.fixture(scope="session")
def risk_panel():
    """Frozen default two-market risk-study panel and its event date."""
    return risk_study_scenario(DEFAULT_SEED)
