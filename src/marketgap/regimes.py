"""Gap time series, shock phases and their statistics, and monthly sector heatmaps."""
from __future__ import annotations

import logging
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from datetime import date
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .errors import DataError, UsageError, check_choice, check_int, check_real
from .panel import ReturnPanel, check_window
from .spectral import NORM_MODES, RHO_MODES, mp_bounds, normalized_lambda, rolling_spectra

logger = logging.getLogger(__name__)


class Interval(NamedTuple):
    """An inclusive date interval."""

    start: date
    end: date


# ---------- Gap series ----------

@dataclass(frozen=True)
class GapConfig:
    """Rolling-window configuration for the spectral gap series."""

    window: int = 60
    step: int = 1
    rho_mode: str = "signed"
    norm_mode: str = "excess"

    def __post_init__(self):
        check_window(self.window, self.step)
        check_choice("rho_mode", self.rho_mode, RHO_MODES)
        check_choice("norm_mode", self.norm_mode, NORM_MODES)


@dataclass(frozen=True)
class DroppedWindow:
    end_date: date
    reason: str


@dataclass(eq=False)
class GapSeries:
    """The gap series as columns, one entry per kept window (n_assets >= 2) in date order.

    The columns are those of the gap table; the windows that keep fewer than
    two assets are listed in `dropped` instead. `gap_series` given sector
    labels also fills `sectors`, each sector's series by label.
    """

    dates: list[date]  # end date of each window
    n_assets: np.ndarray
    lambda_max: np.ndarray
    lambda_norm: np.ndarray
    rho_signed: np.ndarray
    rho_abs: np.ndarray
    delta: np.ndarray
    mp_lower: np.ndarray
    mp_upper: np.ndarray
    n_above_mp: np.ndarray
    config: GapConfig
    dropped: list[DroppedWindow] = field(default_factory=list)
    sectors: dict[str, GapSeries] = field(default_factory=dict)


def _gap_columns(spectra, dates: list[date], config: GapConfig) -> GapSeries:
    """The gap series of one column group's `RollingSpectra` on the calendar `dates`."""
    kept_dates: list[date] = []
    dropped: list[DroppedWindow] = []
    for end, count in zip(spectra.ends.tolist(), spectra.n_assets.tolist()):
        end_date = dates[end - 1]
        if count >= 2:
            kept_dates.append(end_date)
        else:
            dropped.append(DroppedWindow(end_date=end_date, reason=(
                f"window ending {end_date.isoformat()} retained {count} assets (need >= 2)")))
    logger.info("gap series dropped assets from its windows: %d for missing data, "
                "%d for all-equal returns", spectra.dropped_missing.sum(),
                spectra.dropped_all_equal.sum())
    if dropped:
        logger.info("gap series dropped %d degenerate window(s), first: %s",
                    len(dropped), dropped[0].reason)
    kept = spectra.n_assets >= 2
    n, lambda_max = spectra.n_assets[kept], spectra.lambda_max[kept]
    rho_signed, rho_abs = spectra.rho_signed[kept], spectra.rho_abs[kept]
    lambda_norm = normalized_lambda(lambda_max, n, config.norm_mode)
    # The band from the scalar `mp_bounds`, once per distinct asset count.
    counts, which = np.unique(n, return_inverse=True)
    bands = [mp_bounds(config.window, c) for c in counts.tolist()]
    return GapSeries(
        dates=kept_dates,
        n_assets=n,
        lambda_max=lambda_max,
        lambda_norm=lambda_norm,
        rho_signed=rho_signed,
        rho_abs=rho_abs,
        delta=lambda_norm - (rho_abs if config.rho_mode == "abs" else rho_signed),
        mp_lower=np.array([b.lower for b in bands])[which],
        mp_upper=np.array([b.upper for b in bands])[which],
        n_above_mp=spectra.n_above_mp[kept],
        config=config,
        dropped=dropped,
    )


def _gap_groups(returns: ReturnPanel, groups: list, config: GapConfig) -> list[GapSeries]:
    """The gap series of each column group of `returns`, from one `rolling_spectra` call."""
    spectra = rolling_spectra(returns.values, config.window, config.step, groups)
    return [_gap_columns(s, returns.dates, config) for s in spectra]


def _sector_columns(returns: ReturnPanel, sector_of: dict[str, str]) -> dict[str, list[int]]:
    """Each sector's column indices, in sorted sector order. Every ticker needs a sector
    label and every sector at least two tickers."""
    missing = [t for t in returns.tickers if t not in sector_of]
    if missing:
        raise DataError(f"no sector label for tickers: {', '.join(missing[:5])}")
    columns: dict[str, list[int]] = {}
    for j, t in enumerate(returns.tickers):
        columns.setdefault(sector_of[t], []).append(j)
    columns = dict(sorted(columns.items()))
    for sector, cols in columns.items():
        if len(cols) < 2:
            members = ", ".join(returns.tickers[j] for j in cols)
            raise DataError(f"sector {sector!r} has {len(cols)} ticker(s) ({members}); need >= 2")
    return columns


def gap_series(returns: ReturnPanel, config: GapConfig = GapConfig(),
               sector_of: dict[str, str] | None = None) -> GapSeries:
    """The rolling windows' statistics and gap as columns; degenerate windows are reported.

    Given sector labels, the market's columns are one more group of the
    sectors' `rolling_spectra` call, and `sectors` holds each sector's series
    as `sector_gap_series` gives it.
    """
    columns = {} if sector_of is None else _sector_columns(returns, sector_of)
    market, *sectors = _gap_groups(
        returns, [range(len(returns.tickers)), *columns.values()], config)
    market.sectors = dict(zip(columns, sectors))
    return market


def sector_gap_series(returns: ReturnPanel, sector_of: dict[str, str],
                      config: GapConfig = GapConfig()) -> dict[str, GapSeries]:
    """The gap series of each sector's columns of a market's returns, in sorted sector order.

    One `rolling_spectra` pass serves every sector. Each series keeps the
    market's calendar, so a date on which a whole sector is missing is never
    bridged into a multi-day return: the sector's windows that hold it are
    dropped and reported. Every ticker needs a sector label and every sector
    at least two tickers.
    """
    columns = _sector_columns(returns, sector_of)
    return dict(zip(columns, _gap_groups(returns, list(columns.values()), config)))


# ---------- Phase segmentation ----------

@dataclass(frozen=True)
class SegmentationParams:
    """Parameters for phase_segmentation.

    The shock spans shock_halfwidth >= 0 trading days on each side of the event
    date; the sustained-threshold rule asks for values strictly above a finite
    `threshold` for at least `sustain_days` >= 1 consecutive trading days.
    """

    shock_halfwidth: int = 2
    threshold: float = 1.0
    sustain_days: int = 20
    stabilized: Interval | None = None

    def __post_init__(self):
        check_int("shock half-width", self.shock_halfwidth, 0)
        # A NaN threshold is never exceeded, which would read as "threshold never met".
        check_real("segmentation threshold", self.threshold)
        check_int("sustain days", self.sustain_days, 1)
        if self.stabilized is not None:  # a (start, end) pair reads as its Interval
            object.__setattr__(self, "stabilized", Interval(*self.stabilized))


@dataclass(frozen=True)
class PhaseWindows:
    """Four chronological analysis phases around a shock event.

    Intervals are inclusive date pairs; a phase can be None when empty. When
    the sustained-threshold rule is never met, threshold_met is False,
    false_recovery runs to the series end, and a user-configured stabilized
    interval may then overlap it.
    """

    pre_shock: Interval | None
    shock: Interval
    false_recovery: Interval | None
    stabilized: Interval | None
    event_date: date
    threshold_met: bool = True
    sustained_start: date | None = None


def _check_interval(name: str, iv: Interval) -> None:
    if iv.start > iv.end:
        raise DataError(f"{name} interval {iv.start} .. {iv.end} is reversed")


def _validate_order(phases: PhaseWindows) -> None:
    chain = [iv for iv in (phases.pre_shock, phases.shock, phases.false_recovery) if iv]
    if phases.threshold_met and phases.stabilized:
        chain.append(phases.stabilized)
    for a, b in zip(chain, chain[1:]):
        if a.end >= b.start:
            raise DataError(f"phase intervals overlap: "
                            f"{a.start} .. {a.end} vs {b.start} .. {b.end}")


def phase_segmentation(
    dates: list[date],
    values: np.ndarray,
    event_date: date,
    params: SegmentationParams = SegmentationParams(),
) -> PhaseWindows:
    """Segment a dated scalar series into pre-shock / shock / false-recovery / stabilized.

    Applies to any dated scalar series; the reference usage runs it on the
    cross-sectional ordinal-entropy series. The shock spans event_date +-
    shock_halfwidth trading days; false recovery runs from the first
    post-shock day until the day before the series first stays strictly above
    the threshold for sustain_days consecutive days (to the series end, with
    threshold_met=False, if that never happens); stabilized defaults to
    [sustained-run start, series end] unless configured.
    """
    n = len(dates)
    if len(values) != n:
        raise UsageError("segmentation needs equally long dates and values")
    if n == 0:
        raise DataError("segmentation needs a series with dated values; this one has none")
    if any(b <= a for a, b in zip(dates, dates[1:])):
        raise DataError("segmentation dates must be strictly increasing")
    if params.stabilized is not None:
        _check_interval("stabilized", params.stabilized)

    if not dates[0] <= event_date <= dates[-1]:
        raise DataError(
            f"event date {event_date.isoformat()} outside series range "
            f"{dates[0].isoformat()} .. {dates[-1].isoformat()}"
        )
    # Snap a non-trading event date to the next trading day in the series.
    e_idx = next(i for i, d in enumerate(dates) if d >= event_date)
    k = params.shock_halfwidth
    if e_idx - k < 0 or e_idx + k >= n:
        raise DataError(
            f"series does not cover event date +- {k} trading days"
        )
    shock = Interval(dates[e_idx - k], dates[e_idx + k])
    pre = Interval(dates[0], dates[e_idx - k - 1]) if e_idx - k >= 1 else None

    post_start = e_idx + k + 1
    m = params.sustain_days
    above = values > params.threshold  # ties at the threshold do not count
    # Without a sustained run, false recovery runs to the series end.
    recovery_end, sustained_start, stabilized = n, None, params.stabilized
    for j in range(post_start, n - m + 1):
        if above[j:j + m].all():
            recovery_end, sustained_start = j, dates[j]
            stabilized = params.stabilized or Interval(dates[j], dates[-1])
            break
    phases = PhaseWindows(
        pre_shock=pre,
        shock=shock,
        false_recovery=(Interval(dates[post_start], dates[recovery_end - 1])
                        if recovery_end > post_start else None),
        stabilized=stabilized,
        event_date=event_date,
        threshold_met=sustained_start is not None,
        sustained_start=sustained_start,
    )
    _validate_order(phases)
    return phases


# ---------- Phase statistics ----------

@dataclass(frozen=True)
class PhaseStat:
    mean_nats: float
    std_nats: float | None  # sample std (ddof=1); None when fewer than 2 points
    n: int


@dataclass(frozen=True)
class PhaseStatistics:
    """Per-phase statistics of a dated series in its own units, though named in nats:
    the names are the keys of `phases_*.json`, which holds the entropy's."""

    pre_shock: PhaseStat | None
    shock: PhaseStat | None
    false_recovery: PhaseStat | None
    stabilized: PhaseStat | None
    false_recovery_p95_nats: float | None
    percentile_method: str = "linear interpolation between closest ranks"


def _stat(vals: np.ndarray) -> PhaseStat | None:
    if vals.size == 0:
        return None
    std = float(np.std(vals, ddof=1)) if vals.size >= 2 else None
    return PhaseStat(mean_nats=float(np.mean(vals)), std_nats=std, n=int(vals.size))


def phase_statistics(dates: list[date], values: np.ndarray,
                     phases: PhaseWindows) -> PhaseStatistics:
    """Mean and sample std of `values` per phase, None for an empty one, and the false
    recovery's 95th percentile. `dates` ascend, so a phase's values are one slice."""
    def within(interval: Interval | None) -> np.ndarray:
        if interval is None:
            return values[:0]
        start, end = interval
        return values[bisect_left(dates, start):bisect_right(dates, end)]

    fr = within(phases.false_recovery)
    return PhaseStatistics(
        pre_shock=_stat(within(phases.pre_shock)),
        shock=_stat(within(phases.shock)),
        false_recovery=_stat(fr),
        stabilized=_stat(within(phases.stabilized)),
        false_recovery_p95_nats=float(np.percentile(fr, 95, method="linear")) if fr.size else None,
    )


# ---------- Monthly sector heatmap ----------

def monthly_sector_heatmap(
    returns: ReturnPanel,
    sector_of: dict[str, str],
    config: GapConfig = GapConfig(),
) -> list[tuple[str, str, float, int]]:
    """The heatmap table's rows (sector, month "YYYY-MM", mean lambda_norm, window count),
    by sector, then month, from each sector's gap series (`sector_gap_series`).

    Windows are bucketed by the calendar month of their end date (the date on
    which the window's information is available); a month without a kept
    window has no row.
    """
    rows = []
    for sector, series in sector_gap_series(returns, sector_of, config).items():
        lo = 0  # the dates increase, so each month is one run of the columns
        for month, run in groupby(series.dates, lambda d: f"{d.year:04d}-{d.month:02d}"):
            hi = lo + sum(1 for _ in run)
            rows.append((sector, month, float(np.mean(series.lambda_norm[lo:hi])), hi - lo))
            lo = hi
    return rows
