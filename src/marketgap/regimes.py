"""Gap time series, shock-phase segmentation, and monthly sector heatmaps."""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from datetime import date

import numpy as np

from .errors import DataError, UsageError
from .panel import ReturnPanel, check_window
from .spectral import NORM_MODES, RHO_MODES, SpectralSummary, rolling_spectra

logger = logging.getLogger(__name__)

Interval = tuple[date, date]


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
        if self.rho_mode not in RHO_MODES:
            raise UsageError(f"rho_mode must be one of {RHO_MODES}, got {self.rho_mode!r}")
        if self.norm_mode not in NORM_MODES:
            raise UsageError(f"norm_mode must be one of {NORM_MODES}, got {self.norm_mode!r}")


@dataclass(frozen=True)
class DroppedWindow:
    end_date: date
    reason: str


@dataclass(eq=False)
class GapSeries:
    """Per-window spectral summaries in date order, plus any degenerate windows."""

    summaries: list[SpectralSummary]
    config: GapConfig
    dropped: list[DroppedWindow] = field(default_factory=list)

    @property
    def dates(self) -> list[date]:
        return [s.end_date for s in self.summaries]

    @property
    def deltas(self) -> np.ndarray:
        return np.array([s.delta for s in self.summaries])

    @property
    def lambda_norms(self) -> np.ndarray:
        return np.array([s.lambda_norm for s in self.summaries])


def gap_series(returns: ReturnPanel, config: GapConfig = GapConfig()) -> GapSeries:
    """One spectral summary per rolling window; degenerate windows are reported."""
    spectra = rolling_spectra(returns.values, config.window, config.step)
    summaries: list[SpectralSummary] = []
    dropped: list[DroppedWindow] = []
    for k, end in enumerate(spectra.ends):
        end_date = returns.dates[end - 1]
        if spectra.n_assets[k] < 2:
            dropped.append(DroppedWindow(end_date=end_date, reason=(
                f"window ending {end_date.isoformat()} retained "
                f"{spectra.n_assets[k]} assets (need >= 2)")))
        else:
            summaries.append(spectra.summary(k, end_date, config.rho_mode, config.norm_mode))
    if dropped:
        logger.info("gap series dropped %d degenerate window(s), first: %s",
                    len(dropped), dropped[0].reason)
    return GapSeries(summaries=summaries, config=config, dropped=dropped)


# ---------- Phase segmentation ----------

@dataclass(frozen=True)
class SegmentationParams:
    """Parameters for phase_segmentation.

    threshold_based mode uses shock_halfwidth around the event date plus the
    sustained-threshold rule (strictly above `threshold` for at least
    `sustain_days` consecutive trading days). fixed mode expects the four
    intervals spelled out explicitly.
    """

    shock_halfwidth: int = 2
    threshold: float = 1.0
    sustain_days: int = 20
    stabilized: Interval | None = None
    fixed_intervals: dict[str, Interval] | None = None


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
    if iv[0] > iv[1]:
        raise DataError(f"{name} interval {iv[0]} .. {iv[1]} is reversed")


def _validate_order(phases: PhaseWindows) -> None:
    chain = [iv for iv in (phases.pre_shock, phases.shock, phases.false_recovery) if iv]
    if phases.threshold_met and phases.stabilized:
        chain.append(phases.stabilized)
    for a, b in zip(chain, chain[1:]):
        if a[1] >= b[0]:
            raise DataError(f"phase intervals overlap: {a} vs {b}")


def phase_segmentation(
    dates: list[date],
    values: np.ndarray,
    event_date: date,
    rule: str = "threshold_based",
    params: SegmentationParams = SegmentationParams(),
) -> PhaseWindows:
    """Segment a dated scalar series into pre-shock / shock / false-recovery / stabilized.

    Applies to any dated scalar series; the reference usage runs it on the
    cross-sectional ordinal-entropy series. In threshold_based mode the shock
    spans event_date +- shock_halfwidth trading days; false recovery runs from
    the first post-shock day until the day before the series first stays
    strictly above the threshold for sustain_days consecutive days (to the
    series end, with threshold_met=False, if that never happens); stabilized
    defaults to [sustained-run start, series end] unless configured.
    """
    n = len(dates)
    if n == 0 or len(values) != n:
        raise UsageError("segmentation needs equally long dates and values")
    if any(b <= a for a, b in zip(dates, dates[1:])):
        raise DataError("segmentation dates must be strictly increasing")

    if rule == "fixed_calendar":
        if not params.fixed_intervals:
            raise UsageError("fixed_calendar rule needs params.fixed_intervals")
        try:
            intervals = {k: params.fixed_intervals[k] for k in
                         ("pre_shock", "shock", "false_recovery", "stabilized")}
        except KeyError as exc:
            raise UsageError(f"fixed_intervals missing phase {exc.args[0]!r}") from None
        for name, iv in intervals.items():
            _check_interval(name, iv)
        if not intervals["shock"][0] <= event_date <= intervals["shock"][1]:
            raise DataError(f"shock interval does not contain event date {event_date}")
        phases = PhaseWindows(
            pre_shock=intervals["pre_shock"],
            shock=intervals["shock"],
            false_recovery=intervals["false_recovery"],
            stabilized=intervals["stabilized"],
            event_date=event_date,
        )
        _validate_order(phases)
        return phases

    if rule != "threshold_based":
        raise UsageError(f"unknown segmentation rule {rule!r}")
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
    shock = (dates[e_idx - k], dates[e_idx + k])
    pre = (dates[0], dates[e_idx - k - 1]) if e_idx - k >= 1 else None

    post_start = e_idx + k + 1
    m = params.sustain_days
    above = values > params.threshold  # ties at the threshold do not count
    sustained_idx = None
    for j in range(post_start, n - m + 1):
        if above[j:j + m].all():
            sustained_idx = j
            break

    if sustained_idx is None:
        false_recovery = (dates[post_start], dates[-1]) if post_start < n else None
        phases = PhaseWindows(
            pre_shock=pre,
            shock=shock,
            false_recovery=false_recovery,
            stabilized=params.stabilized,
            event_date=event_date,
            threshold_met=False,
            sustained_start=None,
        )
    else:
        false_recovery = (
            (dates[post_start], dates[sustained_idx - 1])
            if sustained_idx > post_start
            else None
        )
        phases = PhaseWindows(
            pre_shock=pre,
            shock=shock,
            false_recovery=false_recovery,
            stabilized=params.stabilized or (dates[sustained_idx], dates[-1]),
            event_date=event_date,
            threshold_met=True,
            sustained_start=dates[sustained_idx],
        )
    _validate_order(phases)
    return phases


# ---------- Monthly sector heatmap ----------

@dataclass(eq=False)
class HeatmapGrid:
    """Monthly mean lambda_norm per sector; cells absent for empty months."""

    sectors: list[str]
    months: list[str]  # "YYYY-MM", sorted
    mean_lambda_norm: dict[tuple[str, str], float]
    window_count: dict[tuple[str, str], int]
    omitted_windows: dict[str, int]


def _month_key(d: date) -> str:
    return f"{d.year:04d}-{d.month:02d}"


def monthly_sector_heatmap(
    returns: ReturnPanel,
    sector_of: dict[str, str],
    config: GapConfig = GapConfig(),
) -> HeatmapGrid:
    """Intra-sector gap series bucketed into monthly means of lambda_norm.

    Windows are bucketed by the calendar month of their end date (the date on
    which the window's information is available). Sectors need at least two
    tickers; windows a sector cannot support are omitted and counted.
    """
    missing = [t for t in returns.tickers if t not in sector_of]
    if missing:
        raise DataError(f"no sector label for tickers: {', '.join(missing[:5])}")
    by_sector: dict[str, list[str]] = {}
    for t in returns.tickers:
        by_sector.setdefault(sector_of[t], []).append(t)
    for sector, members in sorted(by_sector.items()):
        if len(members) < 2:
            raise DataError(f"sector {sector!r} has {len(members)} ticker(s); need >= 2")

    mean_cell: dict[tuple[str, str], float] = {}
    count_cell: dict[tuple[str, str], int] = {}
    omitted: dict[str, int] = {}
    months: set[str] = set()
    column = {t: j for j, t in enumerate(returns.tickers)}
    for sector in sorted(by_sector):
        cols = [column[t] for t in by_sector[sector]]
        sub = ReturnPanel(
            dates=list(returns.dates),
            tickers=list(by_sector[sector]),
            values=returns.values[:, cols],
        )
        series = gap_series(sub, config)
        omitted[sector] = len(series.dropped)
        buckets: dict[str, list[float]] = {}
        for s in series.summaries:
            buckets.setdefault(_month_key(s.end_date), []).append(s.lambda_norm)
        for month, vals in buckets.items():
            months.add(month)
            mean_cell[(sector, month)] = float(np.mean(vals))
            count_cell[(sector, month)] = len(vals)
    return HeatmapGrid(
        sectors=sorted(by_sector),
        months=sorted(months),
        mean_lambda_norm=mean_cell,
        window_count=count_cell,
        omitted_windows=omitted,
    )

