"""Synthetic factor-model generator and scenario tests."""
import json
from datetime import date

import numpy as np
import pytest

from marketgap.cli import _json
from marketgap.errors import DataError
from marketgap.panel import log_returns
from marketgap.regimes import GapConfig, gap_series
from marketgap.synth import (
    DEFAULT_SEED,
    RegimeSpec,
    SynthConfig,
    generate_factor_panel,
    load_scenario_json,
    one_factor_config,
    risk_study_scenario,
    three_phase_config,
    three_phase_scenario,
    trading_dates,
)


def small_config(seed=1, **overrides):
    base = dict(
        n_assets=8,
        n_days=60,
        sectors=["A2"] * 4 + ["B2"] * 4,
        market_loadings=np.ones(8),
        sector_loadings=np.ones(8),
        regimes=[RegimeSpec(1, 60, 0.005, 0.005, 0.01)],
        seed=seed,
    )
    base.update(overrides)
    return SynthConfig(**base)


# ---------- Generation basics ----------

def test_deterministic_given_seed():
    a = generate_factor_panel(small_config(seed=5))
    b = generate_factor_panel(small_config(seed=5))
    assert a == b
    c = generate_factor_panel(small_config(seed=6))
    assert not np.array_equal(a.close, c.close)


def test_prices_start_at_100_and_compound():
    panel = generate_factor_panel(small_config())
    assert np.all(panel.close[0] == 100.0)
    assert np.all(panel.close > 0)
    r = log_returns(panel)
    rebuilt = 100.0 * np.exp(np.cumsum(r.values, axis=0))
    np.testing.assert_allclose(rebuilt, panel.close[1:], rtol=1e-12)


def test_trading_dates_are_weekdays():
    dates = trading_dates(date(2025, 1, 4), 30)  # starts on a Saturday
    assert dates[0] == date(2025, 1, 6)  # first Monday
    assert all(d.weekday() < 5 for d in dates)
    assert len(set(dates)) == 30


def test_trading_dates_may_end_on_the_last_date():
    # 9999-12-27 is a Monday and date.max a Friday.
    assert trading_dates(date(9999, 12, 27), 5) == [date(9999, 12, d) for d in range(27, 32)]
    cfg = one_factor_config(n_assets=3, n_days=5)
    cfg.start_date = date(9999, 12, 27)
    assert generate_factor_panel(cfg).dates[-1] == date.max
    cfg.start_date = date(9999, 12, 28)
    with pytest.raises(DataError, match="start_date 9999-12-28 and n_days 5 run past"):
        cfg.validate()


def test_labels_and_tickers():
    panel = generate_factor_panel(small_config())
    assert panel.markets() == ["SYN"]
    assert panel.sectors() == ["A2", "B2"]
    assert panel.tickers == sorted(panel.tickers)


def test_zero_factor_vols_give_near_zero_correlation():
    cfg = small_config(
        n_assets=20, n_days=400,
        sectors=["A2"] * 10 + ["B2"] * 10,
        market_loadings=np.ones(20), sector_loadings=np.ones(20),
        regimes=[RegimeSpec(1, 400, 0.0, 0.0, 0.01)],
    )
    panel = generate_factor_panel(cfg)
    r = log_returns(panel)
    c = np.corrcoef(r.values.T)
    off = c[~np.eye(20, dtype=bool)]
    assert np.abs(off).mean() < 0.06


def test_one_factor_uniform_loadings_small_gap():
    panel = generate_factor_panel(one_factor_config(n_assets=30, n_days=300))
    series = gap_series(log_returns(panel), GapConfig(window=60))
    assert np.abs(series.delta).max() < 0.05


def test_sector_factors_widen_gap_over_one_factor():
    # Strong sectors + weak market (with dispersed loadings) push the leading
    # eigenvalue above the flat-vector quotient, widening the gap.
    rng = np.random.default_rng(3)
    n = 40
    cfg = small_config(
        n_assets=n, n_days=300,
        sectors=["A2"] * 10 + ["B2"] * 10 + ["C2"] * 10 + ["D2"] * 10,
        market_loadings=rng.uniform(0.2, 1.8, n),
        sector_loadings=np.concatenate([
            np.full(10, 1.5), np.full(10, 1.0), np.full(10, 0.6), np.full(10, 0.3),
        ]),
        regimes=[RegimeSpec(1, 300, 0.003, 0.014, 0.010)],
    )
    multi = gap_series(log_returns(generate_factor_panel(cfg)), GapConfig(window=60))
    single = gap_series(
        log_returns(generate_factor_panel(one_factor_config(n_assets=n, n_days=300))),
        GapConfig(window=60),
    )
    assert multi.delta.mean() > 2.0 * single.delta.mean()


# ---------- Config validation ----------

def test_schedule_must_cover_days_exactly():
    with pytest.raises(DataError, match="cover"):
        small_config(regimes=[RegimeSpec(1, 59, 0.005, 0.005, 0.01)]).validate()
    with pytest.raises(DataError, match="gap or overlap"):
        small_config(regimes=[
            RegimeSpec(1, 30, 0.005, 0.005, 0.01),
            RegimeSpec(30, 60, 0.005, 0.005, 0.01),
        ]).validate()
    with pytest.raises(DataError, match="gap or overlap"):
        small_config(regimes=[
            RegimeSpec(1, 30, 0.005, 0.005, 0.01),
            RegimeSpec(32, 60, 0.005, 0.005, 0.01),
        ]).validate()


def test_negative_vol_rejected():
    with pytest.raises(DataError):
        RegimeSpec(1, 10, -0.01, 0.0, 0.01)


def test_loadings_validation():
    with pytest.raises(DataError, match="loadings"):
        small_config(market_loadings=np.ones(3)).validate()
    with pytest.raises(DataError, match="loadings"):
        small_config(sector_loadings=np.array([np.inf] + [1.0] * 7)).validate()


def test_sector_assignment_length():
    with pytest.raises(DataError):
        small_config(sectors=["A2"] * 3).validate()


# ---------- Scenarios ----------

def test_three_phase_truth_matches_schedule(three_phase):
    truth = three_phase.truth
    panel = three_phase.panel
    assert truth.pre[0] == panel.dates[0]
    assert truth.stabilized[1] == panel.dates[-1]
    assert truth.event_date == truth.shock[0]
    chain = [truth.pre, truth.shock, truth.false_recovery, truth.resync,
             truth.stabilized]
    for a, b in zip(chain, chain[1:]):
        assert a[1] < b[0]
    # truth.json: the five scripted spans (1-based price days 1-160, 161-260,
    # 261-292, 293-322, 323-412), the first shock day and the day after the
    # stabilized start.
    iso = [d.isoformat() for d in panel.dates]

    def span(first, last):
        return {"start": iso[first - 1], "end": iso[last - 1]}

    assert _json(truth) == {
        "pre": span(1, 160),
        "shock": span(161, 260),
        "false_recovery": span(261, 292),
        "resync": span(293, 322),
        "stabilized": span(323, 412),
        "event_date": iso[160],
        "entropy_boundary": iso[323],
    }


def test_three_phase_gap_contrast(three_phase):
    returns = log_returns(three_phase.panel)
    truth = three_phase.truth
    series = gap_series(returns, GapConfig(window=60))
    rows = list(zip(series.dates, series.delta.tolist()))
    pre = [delta for end_date, delta in rows if truth.pre[0] <= end_date <= truth.pre[1]]
    shock_contained = []
    for end_date, delta in rows:
        end_idx = returns.dates.index(end_date)
        if (returns.dates[end_idx - 59] >= truth.shock[0]
                and end_date <= truth.shock[1]):
            shock_contained.append(delta)
    assert np.mean(shock_contained) < 0.2 * np.mean(pre)


def test_degenerate_scenario_has_no_contrast():
    # Five identical regimes: the scripted boundaries mark nothing, so the
    # "shock" interval's gap is statistically indistinguishable from "pre".
    base = three_phase_config(seed=2)
    flat = SynthConfig(
        n_assets=base.n_assets,
        n_days=base.n_days,
        sectors=base.sectors,
        market_loadings=base.market_loadings,
        sector_loadings=base.sector_loadings,
        regimes=[RegimeSpec(r.start, r.end, 0.004, 0.012, 0.010) for r in base.regimes],
        seed=base.seed,
    )
    result = three_phase_scenario(flat)
    returns = log_returns(result.panel)
    series = gap_series(returns, GapConfig(window=60))
    truth = result.truth
    rows = list(zip(series.dates, series.delta.tolist()))
    pre = [delta for end_date, delta in rows if truth.pre[0] <= end_date <= truth.pre[1]]
    shock = [delta for end_date, delta in rows if truth.shock[0] <= end_date <= truth.shock[1]]
    assert np.mean(shock) > 0.5 * np.mean(pre)  # the detection contrast is absent


def test_risk_study_scenario_shape(risk_panel):
    panel, event = risk_panel
    assert panel.markets() == ["M1", "M2"]
    assert event in panel.dates
    assert len({panel.sector_of[t] for t in panel.tickers}) == 6  # 3 per market


def test_scenario_json_round_trip(tmp_path):
    doc = {
        "n_assets": 6,
        "n_days": 40,
        "sectors": {"A2": 3, "B2": 3},
        "regimes": [[1, 20, 0.005, 0.004, 0.01], [21, 40, 0.02, 0.002, 0.008]],
        "seed": 11,
        "market": "TEST",
        "loading_ranges": {"beta": [0.5, 1.5], "gamma": [0.8, 1.2]},
        "start_date": "2025-01-06",
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    cfg = load_scenario_json(path)
    panel = generate_factor_panel(cfg)
    assert panel.shape == (40, 6)
    assert panel.markets() == ["TEST"]
    assert panel.dates[0] == date(2025, 1, 6)
    assert generate_factor_panel(load_scenario_json(path)) == panel


def test_scenario_json_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(DataError, match="invalid JSON"):
        load_scenario_json(bad)

    overlap = tmp_path / "overlap.json"
    overlap.write_text(json.dumps({
        "n_assets": 4, "n_days": 30, "sectors": {"A2": 4},
        "regimes": [[1, 20, 0.01, 0.0, 0.01], [18, 30, 0.01, 0.0, 0.01]],
    }), encoding="utf-8")
    with pytest.raises(DataError, match="gap or overlap"):
        load_scenario_json(overlap)

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"n_assets": 4}), encoding="utf-8")
    with pytest.raises(DataError, match="missing key"):
        load_scenario_json(missing)


def test_default_seed_stamp():
    assert three_phase_config().seed == DEFAULT_SEED
    a, _ = risk_study_scenario()
    b, _ = risk_study_scenario(DEFAULT_SEED)
    assert a == b
