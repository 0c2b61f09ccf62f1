"""Synthetic factor-model price panels with scheduled volatility regimes.

Returns follow r_i(t) = beta_i * f_m(t) + gamma_i * f_{s(i)}(t) + eps_i(t)
with independent zero-mean Gaussian factors whose daily volatilities switch
per a scheduled list of regimes; prices start at 100 and compound the log
returns. Every stream (market factor, each sector factor, each asset's noise)
has its own seed substream, so panels are bit-identical for a given config
regardless of generation order.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .errors import DataError, UsageError
from .panel import PricePanel, merge_panels, open_input

DEFAULT_SEED = 20250402
DEFAULT_START_DATE = date(2024, 7, 1)


# ---------- Configuration ----------

@dataclass(frozen=True)
class RegimeSpec:
    """One scheduled regime over 1-based inclusive price-day indices."""

    start: int
    end: int
    market_vol: float
    sector_vol: float
    idio_vol: float

    def __post_init__(self):
        if self.start < 1 or self.end < self.start:
            raise DataError(f"regime interval [{self.start}, {self.end}] is invalid")
        for name, vol in (("market", self.market_vol), ("sector", self.sector_vol),
                          ("idio", self.idio_vol)):
            if vol < 0 or not np.isfinite(vol):
                raise DataError(f"{name} volatility must be finite and >= 0, got {vol}")


@dataclass(eq=False)
class SynthConfig:
    """Full description of a synthetic panel (assets, schedule, loadings, seed)."""

    n_assets: int
    n_days: int
    sectors: list[str]  # sector label per asset
    market_loadings: np.ndarray
    sector_loadings: np.ndarray
    regimes: list[RegimeSpec]
    seed: int = DEFAULT_SEED
    market: str = "SYN"
    ticker_prefix: str = "S"
    start_date: date = DEFAULT_START_DATE

    def validate(self) -> None:
        if self.n_assets < 2:
            raise DataError(f"need >= 2 assets, got {self.n_assets}")
        if self.n_days < 3:
            raise DataError(f"need >= 3 days, got {self.n_days}")
        if len(self.sectors) != self.n_assets:
            raise DataError("sector assignment length must equal n_assets")
        for name, arr in (("market", self.market_loadings), ("sector", self.sector_loadings)):
            a = np.asarray(arr, dtype=float)
            if a.shape != (self.n_assets,) or not np.isfinite(a).all():
                raise DataError(f"{name} loadings must be {self.n_assets} finite values")
        spans = sorted(self.regimes, key=lambda r: r.start)
        if not spans or spans[0].start != 1 or spans[-1].end != self.n_days:
            raise DataError(f"regime schedule must cover days 1..{self.n_days} exactly")
        for a, b in zip(spans, spans[1:]):
            if b.start != a.end + 1:
                raise DataError(
                    f"regime schedule has a gap or overlap between day {a.end} and {b.start}"
                )


def trading_dates(start: date, n: int) -> list[date]:
    """n consecutive weekdays beginning at the first weekday >= start."""
    out: list[date] = []
    d = start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return out


# ---------- Generation ----------

def _vol_schedule(config: SynthConfig) -> np.ndarray:
    """Per-return-day (rows 2..n_days) volatility triplets, shape (n_days-1, 3)."""
    vols = np.zeros((config.n_days + 1, 3))
    for r in config.regimes:
        vols[r.start:r.end + 1] = (r.market_vol, r.sector_vol, r.idio_vol)
    return vols[2:config.n_days + 1]


def generate_factor_panel(config: SynthConfig) -> PricePanel:
    """Render the configured factor model into a complete PricePanel."""
    config.validate()
    n, d = config.n_assets, config.n_days
    beta = np.asarray(config.market_loadings, dtype=float)
    gamma = np.asarray(config.sector_loadings, dtype=float)
    sector_names = sorted(set(config.sectors))
    sector_idx = np.array([sector_names.index(s) for s in config.sectors])

    vols = _vol_schedule(config)  # (d-1, 3)
    market_f = np.random.default_rng([config.seed, 0]).standard_normal(d - 1) * vols[:, 0]
    sector_f = np.empty((d - 1, len(sector_names)))
    for k in range(len(sector_names)):
        z = np.random.default_rng([config.seed, 1, k]).standard_normal(d - 1)
        sector_f[:, k] = z * vols[:, 1]
    returns = np.empty((d - 1, n))
    for i in range(n):
        eps = np.random.default_rng([config.seed, 2, i]).standard_normal(d - 1) * vols[:, 2]
        returns[:, i] = beta[i] * market_f + gamma[i] * sector_f[:, sector_idx[i]] + eps

    close = np.empty((d, n))
    close[0] = 100.0
    close[1:] = 100.0 * np.exp(np.cumsum(returns, axis=0))

    width = max(3, len(str(n - 1)))
    tickers = [f"{config.ticker_prefix}{i:0{width}d}" for i in range(n)]
    return PricePanel(
        dates=trading_dates(config.start_date, d),
        tickers=tickers,
        close=close,
        sector_of={t: s for t, s in zip(tickers, config.sectors)},
        market_of={t: config.market for t in tickers},
    )


def one_factor_config(
    n_assets: int = 30,
    n_days: int = 260,
    market_vol: float = 0.0065465367,  # population pairwise correlation ~= 0.30
    idio_vol: float = 0.01,
    seed: int = DEFAULT_SEED,
) -> SynthConfig:
    """Uniform-loading single-factor panel: the population correlation is flat."""
    return SynthConfig(
        n_assets=n_assets,
        n_days=n_days,
        sectors=["ONE"] * n_assets,
        market_loadings=np.ones(n_assets),
        sector_loadings=np.zeros(n_assets),
        regimes=[RegimeSpec(1, n_days, market_vol, 0.0, idio_vol)],
        seed=seed,
    )


# ---------- Scripted scenarios ----------

@dataclass(frozen=True)
class ScenarioTruth:
    """Ground-truth intervals (inclusive dates) of the scripted regimes."""

    pre: tuple[date, date]
    shock: tuple[date, date]
    false_recovery: tuple[date, date]
    resync: tuple[date, date]
    stabilized: tuple[date, date]
    event_date: date
    # Detection target for the sustained-restoration edge on the entropy
    # series: 3-day triples straddle the regime switch, so the observable
    # boundary is the stabilized start shifted by one trading day.
    entropy_boundary: date


@dataclass(eq=False)
class ScenarioResult:
    panel: PricePanel
    truth: ScenarioTruth
    config: SynthConfig


# Day spans of the five scripted regimes (1-based price days). The shock
# regime outlasts the largest supported window (90 days) so every window
# length has windows lying fully inside it.
_THREE_PHASE_SPANS = {
    "pre": (1, 160),
    "shock": (161, 260),
    "false_recovery": (261, 292),
    "resync": (293, 322),
    "stabilized": (323, 412),
}
# (market_vol, sector_vol, idio_vol) per regime.
_THREE_PHASE_VOLS = {
    "pre": (0.004, 0.016, 0.010),
    "shock": (0.060, 0.0015, 0.0025),
    "false_recovery": (0.016, 0.009, 0.010),
    "resync": (0.045, 0.002, 0.003),
    "stabilized": (0.004, 0.016, 0.010),
}


def _heterogeneous_loadings(seed: int, n_assets: int, sectors: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Spread market betas and give each sector its own loading scale.

    Loading dispersion is what keeps the pre-shock gap positive: with uniform
    loadings the flat vector is the top eigenvector and the gap is exactly 0.
    """
    rng = np.random.default_rng([seed, 3])
    beta = rng.uniform(0.2, 1.8, size=n_assets)
    names = sorted(set(sectors))
    scale = {s: g for s, g in zip(names, (1.6, 1.25, 0.95, 0.6, 0.3, 0.8, 1.0))}
    gamma = np.array([scale[s] for s in sectors]) * rng.uniform(0.8, 1.2, size=n_assets)
    return beta, gamma


def three_phase_config(seed: int = DEFAULT_SEED) -> SynthConfig:
    n_assets = 100
    sector_names = [f"SEC{k}" for k in range(5)]
    sectors = [sector_names[i % 5] for i in range(n_assets)]
    beta, gamma = _heterogeneous_loadings(seed, n_assets, sectors)
    regimes = [
        RegimeSpec(*_THREE_PHASE_SPANS[name], *_THREE_PHASE_VOLS[name])
        for name in ("pre", "shock", "false_recovery", "resync", "stabilized")
    ]
    return SynthConfig(
        n_assets=n_assets,
        n_days=412,
        sectors=sectors,
        market_loadings=beta,
        sector_loadings=gamma,
        regimes=regimes,
        seed=seed,
        market="SYN",
        ticker_prefix="S",
    )


def three_phase_scenario(base: SynthConfig | None = None) -> ScenarioResult:
    """Panel with scripted pre / shock / false-recovery / resync / stabilized regimes.

    When no base config is given the frozen default is used. The returned
    ground truth carries the five regime intervals, the event date (first
    shock day), and the entropy-series detection target for the sustained
    restoration boundary.
    """
    config = base if base is not None else three_phase_config()
    config.validate()
    if len(config.regimes) != 5:
        raise UsageError(f"three-phase scenario needs exactly 5 regimes, got {len(config.regimes)}")
    panel = generate_factor_panel(config)
    spans = sorted(config.regimes, key=lambda r: r.start)
    dts = panel.dates

    def interval(r: RegimeSpec) -> tuple[date, date]:
        return (dts[r.start - 1], dts[r.end - 1])

    stabilized_start_idx = spans[4].start - 1
    truth = ScenarioTruth(
        pre=interval(spans[0]),
        shock=interval(spans[1]),
        false_recovery=interval(spans[2]),
        resync=interval(spans[3]),
        stabilized=interval(spans[4]),
        event_date=dts[spans[1].start - 1],
        entropy_boundary=dts[min(stabilized_start_idx + 1, len(dts) - 1)],
    )
    return ScenarioResult(panel=panel, truth=truth, config=config)


# Risk-study scenario: volatility regimes graded so the formation-window gap
# carries information about test-window risk (shock windows collapse the gap
# while the elevated market and idiosyncratic vols persist into the test).
_RISK_SPANS = {
    "calm1": (1, 140),
    "ramp": (141, 170),
    "shock": (171, 230),
    "decay": (231, 290),
    "mid": (291, 350),
    "calm2": (351, 440),
}
_RISK_VOLS = {
    "calm1": (0.005, 0.014, 0.008),
    "ramp": (0.016, 0.012, 0.011),
    "shock": (0.045, 0.010, 0.020),
    "decay": (0.024, 0.011, 0.014),
    "mid": (0.012, 0.012, 0.010),
    "calm2": (0.005, 0.014, 0.008),
}


def risk_study_config(seed: int, market: str, prefix: str, stream: int) -> SynthConfig:
    n_assets = 60
    sector_names = [f"{prefix}SEC{k}" for k in range(3)]
    sectors = [sector_names[i % 3] for i in range(n_assets)]
    rng = np.random.default_rng([seed, 3, stream])
    beta = rng.uniform(0.3, 1.7, size=n_assets)
    scale = {s: g for s, g in zip(sector_names, (1.4, 0.9, 0.45))}
    gamma = np.array([scale[s] for s in sectors]) * rng.uniform(0.7, 1.3, size=n_assets)
    regimes = [
        RegimeSpec(*_RISK_SPANS[name], *_RISK_VOLS[name])
        for name in ("calm1", "ramp", "shock", "decay", "mid", "calm2")
    ]
    return SynthConfig(
        n_assets=n_assets,
        n_days=440,
        sectors=sectors,
        market_loadings=beta,
        sector_loadings=gamma,
        regimes=regimes,
        seed=seed + 1000 * (stream + 1),
        market=market,
        ticker_prefix=prefix,
    )


def risk_study_scenario(seed: int = DEFAULT_SEED) -> tuple[PricePanel, date]:
    """Two independent markets sharing one calendar and a common scripted shock."""
    panels = [
        generate_factor_panel(risk_study_config(seed, "M1", "A", 0)),
        generate_factor_panel(risk_study_config(seed, "M2", "B", 1)),
    ]
    panel = merge_panels(panels)
    event_date = panel.dates[_RISK_SPANS["shock"][0] - 1]
    return panel, event_date


# ---------- JSON configs ----------

def load_scenario_json(path) -> SynthConfig:
    """Build a SynthConfig from a JSON document.

    Expected keys: n_assets, n_days, sectors (list or {label: count} in label
    order), regimes (list of [start, end, market_vol, sector_vol, idio_vol]
    or objects with those keys), seed, market, ticker_prefix, start_date, and
    either explicit market_loadings/sector_loadings arrays or
    loading_ranges {"beta": [lo, hi], "gamma": [lo, hi]} drawn from the seed.
    """
    with open_input(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON: {exc}") from exc
    try:
        n_assets = int(doc["n_assets"])
        n_days = int(doc["n_days"])
        raw_sectors = doc["sectors"]
        raw_regimes = doc["regimes"]
    except KeyError as exc:
        raise DataError(f"{path}: scenario config missing key {exc.args[0]!r}") from None

    if isinstance(raw_sectors, dict):
        sectors: list[str] = []
        for label, count in raw_sectors.items():
            sectors.extend([str(label)] * int(count))
    else:
        sectors = [str(s) for s in raw_sectors]
    if len(sectors) != n_assets:
        raise DataError(f"{path}: sectors cover {len(sectors)} assets, expected {n_assets}")

    regimes = []
    for r in raw_regimes:
        if isinstance(r, dict):
            regimes.append(RegimeSpec(
                int(r["start"]), int(r["end"]),
                float(r["market_vol"]), float(r["sector_vol"]), float(r["idio_vol"]),
            ))
        else:
            s, e, mv, sv, iv = r
            regimes.append(RegimeSpec(int(s), int(e), float(mv), float(sv), float(iv)))

    seed = int(doc.get("seed", DEFAULT_SEED))
    if "market_loadings" in doc and "sector_loadings" in doc:
        beta = np.asarray(doc["market_loadings"], dtype=float)
        gamma = np.asarray(doc["sector_loadings"], dtype=float)
    else:
        ranges = doc.get("loading_ranges", {})
        blo, bhi = ranges.get("beta", [1.0, 1.0])
        glo, ghi = ranges.get("gamma", [1.0, 1.0])
        rng = np.random.default_rng([seed, 3])
        beta = rng.uniform(float(blo), float(bhi), size=n_assets)
        gamma = rng.uniform(float(glo), float(ghi), size=n_assets)

    config = SynthConfig(
        n_assets=n_assets,
        n_days=n_days,
        sectors=sectors,
        market_loadings=beta,
        sector_loadings=gamma,
        regimes=regimes,
        seed=seed,
        market=str(doc.get("market", "SYN")),
        ticker_prefix=str(doc.get("ticker_prefix", "S")),
        start_date=date.fromisoformat(doc["start_date"]) if "start_date" in doc
        else DEFAULT_START_DATE,
    )
    config.validate()
    return config


def truth_to_dict(truth: ScenarioTruth) -> dict:
    def iv(pair):
        return {"start": pair[0].isoformat(), "end": pair[1].isoformat()}

    return {
        "pre": iv(truth.pre),
        "shock": iv(truth.shock),
        "false_recovery": iv(truth.false_recovery),
        "resync": iv(truth.resync),
        "stabilized": iv(truth.stabilized),
        "event_date": truth.event_date.isoformat(),
        "entropy_boundary": truth.entropy_boundary.isoformat(),
    }
