"""Shared helpers for the test suite."""
from datetime import date, timedelta

import numpy as np
import pytest

from marketgap.panel import PricePanel, ReturnPanel
from marketgap.synth import DEFAULT_SEED, risk_study_scenario, three_phase_scenario


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


@pytest.fixture(scope="session")
def three_phase():
    """Frozen default three-phase scenario (panel + ground truth)."""
    return three_phase_scenario()


@pytest.fixture(scope="session")
def risk_panel():
    """Frozen default two-market risk-study panel and its event date."""
    return risk_study_scenario(DEFAULT_SEED)
