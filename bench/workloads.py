"""The benchmark's workloads: the synth set-up command and the measured CLI commands.

Every input is made by `marketgap synth` from the workload seed, and every
command's parameters are spelled out on its command line, so the checker in
check.py knows them without reading the program's defaults.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
LARGE_PANEL_SCENARIO = BENCH_DIR / "large_panel.json"

WINDOW = 60
STEP = 1
FORMATION = 60
TEST = 20
N_STOCKS = 10
PORTFOLIOS = 500
ANNUALIZATION = 252.0


@dataclass(frozen=True)
class Command:
    """One `marketgap` CLI invocation and the parameters the checker needs."""

    label: str  # gap | heatmap | entropy | portfolio | synth
    argv: tuple[str, ...]  # arguments after `python -m marketgap.cli`
    out_dir: Path
    params: dict = field(default_factory=dict)


def synth(inputs: Path, seed: int, *source: str) -> Command:
    argv = ("synth", *source, "--seed", str(seed), "--out-dir", str(inputs))
    return Command("synth", argv, inputs)


def _inputs(inputs: Path) -> tuple[str, ...]:
    return ("--prices", str(inputs / "prices.csv"), "--meta", str(inputs / "meta.csv"))


def gap(inputs: Path, out: Path, window: int = WINDOW, step: int = STEP) -> Command:
    argv = ("gap", "--by-sector", *_inputs(inputs), "--window", str(window),
            "--step", str(step), "--out-dir", str(out))
    return Command("gap", argv, out, {"window": window, "step": step})


def heatmap(inputs: Path, out: Path, window: int = WINDOW, step: int = STEP) -> Command:
    argv = ("heatmap", *_inputs(inputs), "--window", str(window), "--step", str(step),
            "--out-dir", str(out))
    return Command("heatmap", argv, out, {"window": window, "step": step})


def entropy(inputs: Path, out: Path, event_date: str, window: int = WINDOW,
            step: int = STEP) -> Command:
    argv = ("entropy", *_inputs(inputs), "--window", str(window), "--step", str(step),
            "--event-date", event_date, "--out-dir", str(out))
    return Command("entropy", argv, out,
                   {"window": window, "step": step, "event_date": event_date})


def portfolio(inputs: Path, out: Path, seed: int, event_date: str,
              portfolios: int = PORTFOLIOS) -> Command:
    argv = ("portfolio", *_inputs(inputs), "--formation", str(FORMATION), "--test", str(TEST),
            "--n-stocks", str(N_STOCKS), "--portfolios", str(portfolios),
            "--annualization", repr(ANNUALIZATION), "--seed", str(seed),
            "--event-date", event_date, "--out-dir", str(out))
    params = {"formation": FORMATION, "test": TEST, "n_stocks": N_STOCKS,
              "portfolios": portfolios, "annualization": ANNUALIZATION}
    return Command("portfolio", argv, out, params)


def event_date(inputs: Path) -> str:
    with open(inputs / "truth.json", encoding="utf-8") as fh:
        return json.load(fh)["event_date"]


def _preset_daily(inputs: Path, out: Path, seed: int) -> list[Command]:
    return [gap(inputs, out / "gap"), heatmap(inputs, out / "heatmap"),
            entropy(inputs, out / "entropy", event_date(inputs))]


def _risk_study(inputs: Path, out: Path, seed: int) -> list[Command]:
    return [portfolio(inputs, out / "portfolio", seed, event_date(inputs))]


def _large_panel(inputs: Path, out: Path, seed: int) -> list[Command]:
    return [gap(inputs, out / "gap", step=20)]


@dataclass(frozen=True)
class Workload:
    name: str
    synth_source: tuple[str, ...]
    all_cpus: bool  # BLAS threads: one per CPU, or 1
    # (inputs, out, seed) -> the measured commands; call after set-up, as some read truth.json
    commands: Callable[[Path, Path, int], list[Command]]

    def setup(self, inputs: Path, seed: int) -> Command:
        return synth(inputs, seed, *self.synth_source)

    def blas_threads(self) -> int:
        return len(os.sched_getaffinity(0)) if self.all_cpus else 1


# Each workload puts the cost in different layers, so a change to one layer
# has a workload where it should move the numbers and one where it should
# not; BENCHMARK.json says why each was chosen.
WORKLOADS = {w.name: w for w in (
    Workload("preset-daily", ("--preset", "three-phase"), all_cpus=False,
             commands=_preset_daily),
    Workload("risk-study", ("--preset", "risk-study"), all_cpus=False, commands=_risk_study),
    # The only workload with BLAS calls large enough to gain from threads.
    Workload("large-panel",
             ("--scenario", str(LARGE_PANEL_SCENARIO.relative_to(BENCH_DIR.parent))),
             all_cpus=True, commands=_large_panel),
)}
