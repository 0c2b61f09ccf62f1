"""Acceptance gate: analytic identities, brute-force oracles, and scenario checks.

Each criterion prints one line ("[acceptance] criterion NN PASS/FAIL ...") and
asserts at its stated tolerance. Criterion 10 is data-dependent and runs only
when MARKETGAP_G5_PRICES / MARKETGAP_G5_META point at a user-supplied panel.

Run with `pytest tests/test_acceptance.py -v -s`.
"""
import math
import os
import time
from datetime import date

import numpy as np
import pytest

from marketgap.ordinal import MAX_ENTROPY, entropy_series, ordinal_entropy
from marketgap.panel import ReturnPanel, load_price_panel, log_returns
from marketgap.portfolio import (
    StudyConfig,
    covariance_matrix,
    ew_weights,
    mvp_weights,
    quintile_report,
    run_portfolio_study,
    spearman,
)
from marketgap.regimes import GapConfig, gap_series, phase_segmentation
from marketgap.spectral import equicorrelation, mp_bounds, summary_from_correlation
from marketgap.synth import risk_study_scenario, three_phase_scenario

from conftest import random_correlation
from test_portfolio import oracle_rho

EPOCH = date(2025, 1, 2)


def check(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:>2} {status}  {label}" + (f": {detail}" if detail else ""))
    assert ok, f"criterion {num} ({label}): {detail}"


def summarize(values):
    return summary_from_correlation(
        values,
        end_date=EPOCH,
        n_obs=60,
    )


def test_criterion_01_rayleigh_bound_never_negative():
    start = time.perf_counter()
    rng = np.random.default_rng(20250101)
    worst = np.inf
    count = 0
    for n, reps in ((5, 500), (25, 400), (120, 150)):
        for _ in range(reps):
            c = random_correlation(rng, n)
            s = summarize(c)
            worst = min(worst, s.delta)
            count += 1
    elapsed = time.perf_counter() - start
    check(1, "Rayleigh bound",
          count >= 1000 and worst >= -1e-10 and elapsed < 10.0,
          f"min signed gap {worst:.3e} over {count} matrices in {elapsed:.1f}s")


def test_criterion_02_equicorrelation_identity():
    start = time.perf_counter()
    worst_lambda = 0.0
    worst_delta = 0.0
    for c in np.arange(0.0, 0.95, 0.1):
        for n in (3, 5, 25, 120):
            s = summarize(equicorrelation(n, float(c)))
            worst_lambda = max(worst_lambda, abs(s.lambda_norm - c))
            worst_delta = max(worst_delta, abs(s.delta))
    elapsed = time.perf_counter() - start
    check(2, "equicorrelation identity",
          worst_lambda <= 1e-10 and worst_delta <= 1e-10 and elapsed < 1.0,
          f"max|lambda_norm-c|={worst_lambda:.2e}, max|gap|={worst_delta:.2e}, {elapsed:.2f}s")


def test_criterion_03_uncorrelated_and_synchronized_limits():
    ident = summarize(np.eye(50))
    ones = summarize(equicorrelation(10, 1.0))
    check(3, "spectral limits",
          abs(ident.lambda_norm) <= 1e-12 and abs(ones.lambda_norm - 1.0) <= 1e-12,
          f"identity lambda_norm={ident.lambda_norm:.2e}, "
          f"all-ones lambda_norm={ones.lambda_norm:.15f}")


def test_criterion_04_marchenko_pastur_closed_form():
    b1 = mp_bounds(50, 50)  # q = 1
    ok = b1.lower == 0.0 and b1.upper == 4.0

    # Closed-form oracle (1 + sqrt(1/q))^2, frozen at high precision.
    b2 = mp_bounds(60, 120)
    ok &= abs(b2.upper - 5.828427124746190) <= 1e-6
    ok &= abs(b2.upper - (1 + math.sqrt(120 / 60)) ** 2) <= 1e-12

    b3 = mp_bounds(60, 25)
    ok &= abs(b3.upper - 2.707661115402472) <= 1e-6
    ok &= abs(b3.upper - (1 + math.sqrt(25 / 60)) ** 2) <= 1e-12
    # Corroborating identities: sum 2(1+1/q), product (1-1/q)^2.
    for b, q in ((b1, 1.0), (b2, 0.5), (b3, 2.4)):
        ok &= abs(b.upper + b.lower - 2 * (1 + 1 / q)) <= 1e-12
        ok &= abs(b.upper * b.lower - (1 - 1 / q) ** 2) <= 1e-12
    check(4, "Marchenko-Pastur closed form", ok,
          f"(0,4) exact; upper(60,120)={b2.upper:.9f}; upper(60,25)={b3.upper:.9f}")


def test_criterion_05_ordinal_entropy_bounds():
    uniform = ordinal_entropy(np.full(6, 1 / 6))
    degenerate = ordinal_entropy(np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0]))
    ok = abs(uniform - 1.791759469228055) <= 1e-9 and degenerate == 0.0
    rng = np.random.default_rng(5150)
    inside = True
    for _ in range(1000):
        h = ordinal_entropy(rng.dirichlet(np.full(6, rng.uniform(0.05, 8.0))))
        inside &= -1e-12 <= h <= MAX_ENTROPY + 1e-12
    check(5, "ordinal entropy bounds", ok and inside,
          f"uniform={uniform:.9f} (ln 6), degenerate={degenerate}, "
          f"1000 random distributions within [0, ln 6]")


def test_criterion_06_mvp_in_sample_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    covs, trials = [], []
    for _ in range(100):
        a = rng.standard_normal((10, 40)) * rng.uniform(0.005, 0.03)
        covs.append(covariance_matrix(a))
        g = rng.standard_normal((1000, 10))
        trials.append(0.1 + g - g.mean(axis=1, keepdims=True))
    # The weights the study ships: one call on the (100, 10, 10) stack.
    weights = mvp_weights(np.stack(covs))
    ok = weights.shape == (100, 10)
    ew = ew_weights(10)
    for v, q, random_q in zip(covs, weights, trials):
        ok &= q.tobytes() == mvp_weights(v).tobytes()
        ok &= abs(q.sum() - 1.0) <= 1e-10
        mvp_var = float(q @ v @ q)
        ok &= mvp_var <= float(ew @ v @ ew) + 1e-12
        rand_vars = np.einsum("ij,jk,ik->i", random_q, v, random_q)
        ok &= mvp_var <= rand_vars.min() + 1e-12
    elapsed = time.perf_counter() - start
    check(6, "MVP in-sample optimality", ok and elapsed < 5.0,
          f"100 stacked covariances, each row equal to its own call, "
          f"x (EW + 1000 random portfolios) in {elapsed:.1f}s")


def test_criterion_07_spearman_matches_exact_rank_oracle():
    rng = np.random.default_rng(707)
    cases = 0
    worst = 0.0
    while cases < 200:
        n = int(rng.integers(3, 9))
        x = rng.integers(0, 4, size=n).astype(float)
        y = rng.integers(0, 4, size=n).astype(float)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        rho, _ = spearman(x, y)
        worst = max(worst, abs(rho - oracle_rho(x, y)))
        cases += 1
    check(7, "Spearman rank oracle", worst <= 1e-13,
          f"max |rho - exact rational oracle| = {worst:.2e} over {cases} tie-rich samples")


def test_criterion_08_three_phase_detection():
    start = time.perf_counter()
    scenario = three_phase_scenario()
    returns = log_returns(scenario.panel)
    truth = scenario.truth

    def regime_mean(series, window, interval):
        deltas = []
        for s in series.summaries:
            end_idx = returns.dates.index(s.end_date)
            if (returns.dates[end_idx - window + 1] >= interval[0]
                    and s.end_date <= interval[1]):
                deltas.append(s.delta)
        return float(np.mean(deltas)), len(deltas)

    ratios = {}
    ordering = True
    for window in (30, 60, 90):
        series = gap_series(returns, GapConfig(window=window, step=1))
        pre, n_pre = regime_mean(series, window, truth.pre)
        shock, n_shock = regime_mean(series, window, truth.shock)
        assert n_pre > 0 and n_shock > 0
        ratios[window] = shock / pre
        ordering &= pre > shock
    ratio_ok = ratios[60] < 0.2

    series = entropy_series(returns, length=60)
    in_phase = lambda iv: np.array(
        [v for d, v in zip(series.dates, series.values) if iv[0] <= d <= iv[1]]
    )
    entropy_drop = in_phase(truth.pre).mean() - in_phase(truth.shock).mean()

    phases = phase_segmentation(series.dates, series.values, truth.event_date)
    boundary_err = abs(
        series.dates.index(phases.sustained_start)
        - series.dates.index(truth.entropy_boundary)
    )
    elapsed = time.perf_counter() - start
    ok = (ratio_ok and ordering and entropy_drop >= 0.3 and phases.threshold_met
          and boundary_err <= 1 and elapsed < 30.0)
    check(8, "three-phase scenario detection", ok,
          f"gap ratios {ratios[30]:.3f}/{ratios[60]:.3f}/{ratios[90]:.3f} (T=30/60/90), "
          f"entropy drop {entropy_drop:.2f} nats, boundary error {boundary_err} "
          f"trading day(s), {elapsed:.1f}s")


def test_criterion_09_synthetic_risk_study():
    start = time.perf_counter()
    panel, event = risk_study_scenario()
    config = StudyConfig(formation=60, test=20, n_stocks=10, portfolios=500)
    ok = True
    details = []
    reference = None
    for stream, market in enumerate(panel.markets()):
        returns = log_returns(panel.market_panel(market))
        result = run_portfolio_study(returns, config, seed=777, market=market,
                                     stream=stream)
        n_windows = len({o.window_index for o in result.observations})
        report = quintile_report(result.observations, event)
        rho, p, n_post = report.post_shock
        q = report.quintile_mean_sigma_mvp
        monotone = all(q[k] > q[k + 1] for k in range(4))
        ok &= n_windows >= 10 and rho < 0.0 and p < 0.01 and monotone
        details.append(f"{market}: post rho={rho:.3f} (p={p:.1e}, n={n_post}), "
                       f"quintiles {'>'.join(f'{x:.1f}' for x in q)}")
        if stream == 0:
            reference = result.observations
    # Window independence: rerunning one market on a date-truncated panel
    # must reproduce the matching prefix of the observation list bit for bit.
    m1 = log_returns(panel.market_panel("M1"))
    cut = m1.n_dates // 2
    head = ReturnPanel(dates=m1.dates[:cut], tickers=list(m1.tickers), values=m1.values[:cut])
    redo = run_portfolio_study(head, config, seed=777, market="M1", stream=0)
    n_prefix = len({o.window_index for o in redo.observations})
    ok &= n_prefix >= 2
    ok &= redo.observations == [o for o in reference if o.window_index < n_prefix]
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    check(9, "synthetic risk study", ok,
          "; ".join(details) + f"; window-prefix invariant; {elapsed:.1f}s")


@pytest.mark.skipif(
    not (os.environ.get("MARKETGAP_G5_PRICES") and os.environ.get("MARKETGAP_G5_META")),
    reason="optional data-dependent track: set MARKETGAP_G5_PRICES and "
           "MARKETGAP_G5_META to a user-supplied 2025 close-price panel",
)
def test_criterion_10_user_supplied_panel_signs():
    prices = os.environ["MARKETGAP_G5_PRICES"]
    meta = os.environ["MARKETGAP_G5_META"]
    event = date.fromisoformat(os.environ.get("MARKETGAP_EVENT_DATE", "2025-04-02"))
    panel = load_price_panel(prices, metadata=meta)
    config = StudyConfig()
    ok = True
    details = []
    for stream, market in enumerate(panel.markets()):
        returns = log_returns(panel.market_panel(market))
        result = run_portfolio_study(returns, config, seed=20250402, market=market,
                                     stream=stream)
        report = quintile_report(result.observations, event)
        q = report.quintile_mean_sigma_mvp
        ok &= report.spearman_delta_mvp.rho < 0
        ok &= q[0] > q[4]
        ok &= report.ls_spread < 0
        details.append(f"{market}: rho={report.spearman_delta_mvp.rho:.3f}, "
                       f"spread={report.ls_spread:.3f}")
    check(10, "user-supplied panel signs", ok, "; ".join(details))
