"""Benchmark of the marketgap CLI: end-to-end metrics, or per-layer metrics from a traced run.

Usage (from the repository root):

    python3 bench/run.py --workload preset-daily --seed 1 --seconds 20 --trace 0

Workloads are in workloads.py and metric names and units in BENCHMARK.json.
Each run makes its inputs with `marketgap synth --seed SEED`, so the same seed
gives the same inputs. With `--trace 0` a single client runs the workload's
commands one after another, each in a fresh interpreter so that start-up and
import count, repeating the whole list until SECONDS have passed (at least
twice), and reports medians. With `--trace 1` it alternates an untraced pass
and a traced pass (traced_cli.py) over the set-up command and the workload's
commands, and reports the per-layer metrics of the pass pair with the median
traced wall time.

Every run checks its outputs with check.py, outside the timed region, and
checks that every output file is byte-identical across the run's passes. The
last line of standard output is a JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the environment and the samples behind
each median go to bench/.work/WORKLOAD/result-traceN.json.

The CLI runs as `python -m marketgap.cli` with PYTHONPATH set to this tree's
`src`, and the run stops with exit code 2 before measuring anything unless
`marketgap` imports from there.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from check import Checker
from traced_cli import LAYERS
from workloads import WORKLOADS, Command, Workload

ROOT = Path(__file__).resolve().parent.parent
WORK = Path("bench") / ".work"  # relative to ROOT, so outputs name no absolute path
SETUP_REPEATS = 3
MIN_PASSES = 2
TIME_LIMIT_S = 150.0  # stop starting passes after this; the run must end within 180 s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")
COMMAND_LABELS = ("synth", "gap", "heatmap", "entropy", "portfolio")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Finished:
    """One child process: wall time, CPU time and peak RSS from os.wait4."""

    label: str
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    exit_code: int
    stderr: str


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in BLAS_THREAD_VARS:
        env[var] = str(threads)
    return env


def execute(argv: list[str], label: str, env: dict, deadline: float) -> Finished:
    """Run argv from ROOT, killing it at `deadline` (a perf_counter time)."""
    err_path = ROOT / WORK / "stderr.txt"
    start = time.perf_counter()
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    timer = threading.Timer(max(0.0, deadline - start), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    return Finished(label, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                    proc.returncode, err_path.read_text(encoding="utf-8", errors="replace"))


def cli_argv(command: Command) -> list[str]:
    return [sys.executable, "-m", "marketgap.cli", *command.argv]


def tree_digest(path: Path) -> dict[str, str]:
    full = ROOT / path
    return {str(p.relative_to(full)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(full.rglob("*")) if p.is_file()}


def reset(path: Path) -> None:
    shutil.rmtree(ROOT / path, ignore_errors=True)
    (ROOT / path).mkdir(parents=True)


# ---------- provenance ----------

PROBE = """
import json, os, sys, numpy, scipy, marketgap
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except Exception as exc:
    blas = f"unknown ({exc})"
print(json.dumps({"marketgap_file": os.path.realpath(marketgap.__file__),
                  "python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas}))
"""


def environment(workload: Workload) -> dict:
    """Check that marketgap comes from ROOT/src, and describe the numeric stack."""
    threads = workload.blas_threads()
    try:
        proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=child_env(threads),
                              capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        raise BenchError("importing marketgap took over 120 s") from None
    if proc.returncode != 0:
        raise BenchError(f"cannot import marketgap from {ROOT / 'src'}:\n{proc.stderr[-2000:]}")
    info = json.loads(proc.stdout)
    expected = (ROOT / "src" / "marketgap" / "__init__.py").resolve()
    if Path(info["marketgap_file"]) != expected:
        raise BenchError(f"marketgap imports from {info['marketgap_file']}, not {expected}")
    src_digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src_digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    info.update(nproc=len(os.sched_getaffinity(0)), blas_threads=threads,
                git_commit=git_commit(), src_sha256=src_digest.hexdigest())
    return info


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "not a git checkout"


# ---------- shared pieces of both modes ----------

class Tally:
    """Commands attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, finished: Finished, problems: list[str] = ()) -> None:
        self.attempted += 1
        reasons = list(problems)
        if finished.exit_code != 0:
            reasons.insert(0, f"exit code {finished.exit_code}: {finished.stderr[-500:].strip()}")
        if reasons:
            self.failures.append(f"{finished.label}: " + "; ".join(reasons))


def check_outputs(inputs: Path, commands: list[Command], seed: int) -> tuple[dict, int]:
    """Oracle errors per command label, and the spectral windows the outputs hold."""
    checker = Checker(ROOT / inputs, seed)
    errors, windows = {}, 0
    for command in commands:
        found, n = checker.check(
            Command(command.label, command.argv, ROOT / command.out_dir, command.params))
        errors[command.label] = found
        windows += n
    return errors, windows


def summarize(samples: list[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    n = len(samples)
    text = (f"median {statistics.median(samples):.6g} (n={n}, "
            f"min {min(samples):.6g}, max {max(samples):.6g}")
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        value = statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
        return text + f", p{pct} {value:.6g})"
    return text + ", no tail percentile below 20 samples)"


# ---------- --trace 0: end-to-end metrics ----------

def measured_run(workload: Workload, seed: int, seconds: float, start: float) -> dict:
    env = child_env(workload.blas_threads())
    inputs, out = WORK / workload.name / "inputs", WORK / workload.name / "out"
    deadline = start + 160.0
    tally = Tally()
    setup_s, input_digest = [], None
    for _ in range(SETUP_REPEATS):
        reset(inputs)
        done = execute(cli_argv(workload.setup(inputs, seed)), "synth", env, deadline)
        digest = tree_digest(inputs)
        tally.add(done, ["inputs differ from the first set-up"]
                  if input_digest not in (None, digest) else [])
        input_digest = input_digest or digest
        setup_s.append(done.wall_s)
    if tally.failures:
        return {"tally": tally, "samples": {"setup_s": setup_s}}

    commands = workload.commands(inputs, out, seed)
    passes, digests = [], []
    measure_start = time.perf_counter()
    while True:
        reset(out)
        passes.append([execute(cli_argv(c), c.label, env, deadline) for c in commands])
        digests.append({c.label: tree_digest(c.out_dir) for c in commands})
        now = time.perf_counter()
        pass_s = (now - measure_start) / len(passes)
        if len(passes) >= MIN_PASSES and now - measure_start >= seconds:
            break
        if now + pass_s > start + TIME_LIMIT_S:
            break

    errors, windows = check_outputs(inputs, commands, seed)
    for finished_pass, digest in zip(passes, digests):
        for done, command in zip(finished_pass, commands):
            problems = list(errors[command.label])
            if digest[command.label] != digests[0][command.label]:
                problems.append("outputs differ from the first pass")
            tally.add(done, problems)

    wall = [sum(d.wall_s for d in p) for p in passes]
    samples = {
        "wall_s": wall,
        "cpu_s": [sum(d.cpu_s for d in p) for p in passes],
        "peak_rss_mb": [max(d.maxrss_kb for d in p) / 1024.0 for p in passes],
        "setup_s": setup_s,
        "windows_per_s": [windows / w for w in wall],
    }
    for label in COMMAND_LABELS[1:]:
        per_command = [d.wall_s for p in passes for d in p if d.label == label]
        if per_command:
            samples[f"{label} command wall_s"] = per_command
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    return {"tally": tally, "samples": samples, "metrics": metrics}


# ---------- --trace 1: per-layer metrics ----------

def _in_scipy_stats(module: str) -> bool:
    return module == "scipy.stats" or module.startswith("scipy.stats.")


def scipy_stats_import_s(stderr: str) -> float:
    """Cumulative import time of the outermost scipy.stats modules in -X importtime output.

    Lines come children-first; a line's parent is the next line indented less.
    scipy imports `stats` lazily, so its own line can be missing; its
    submodules then sit directly under the importer and are summed instead.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = len(name) - len(name.lstrip())
        entries.append((depth, int(cumulative), name.strip()))
    total = 0
    for i, (depth, cumulative, name) in enumerate(entries):
        parent = next((e[2] for e in entries[i + 1:] if e[0] < depth), "")
        if _in_scipy_stats(name) and not _in_scipy_stats(parent):
            total += cumulative
    return total / 1e6


def traced_pass(commands: list[Command], env: dict, deadline: float):
    spans_path = ROOT / WORK / "spans.json"
    finished, spans = [], []
    for command in commands:
        spans_path.unlink(missing_ok=True)
        argv = [sys.executable, "-X", "importtime", str(Path("bench") / "traced_cli.py"),
                str(spans_path), *command.argv]
        done = execute(argv, command.label, env, deadline)
        finished.append(done)
        record = json.loads(spans_path.read_text(encoding="utf-8")) if spans_path.exists() else {}
        record["scipy_stats_import_s"] = scipy_stats_import_s(done.stderr)
        spans.append(record)
    return finished, spans


class Spans:
    """Per-function span totals summed over the commands of one traced pass."""

    def __init__(self, records: list[dict]):
        self.stats: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self.wrapped: set[str] = set()
        self.asked: set[str] = set()
        for record in records:
            self.wrapped.update(record.get("wrapped", ()))
            for name, (calls, incl, own) in record.get("stats", {}).items():
                total = self.stats.setdefault(name, [0, 0.0, 0.0])
                total[0] += calls
                total[1] += incl
                total[2] += own
            for name, value in record.get("counters", {}).items():
                before = self.counters.get(name, 0.0)
                # RSS growth is a per-process peak; every other counter adds up.
                self.counters[name] = (max(before, value) if name == "panel.load_rss_kb"
                                       else before + value)

    def _get(self, name: str, i: int):
        self.asked.add(name)
        return self.stats.get(name, [0, 0.0, 0.0])[i]

    def calls(self, name: str) -> int:
        return self._get(name, 0)

    def incl(self, *names: str) -> float:
        return sum(self._get(n, 1) for n in names)

    def own(self, name: str) -> float:
        return self._get(name, 2)

    def layer_self(self, layer: str) -> float:
        return sum(v[2] for k, v in self.stats.items() if k.split(".", 1)[0] == layer)

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)


def layer_metrics(untraced: list[Finished], traced: list[Finished], records: list[dict]):
    s = Spans(records)
    untraced_wall = sum(d.wall_s for d in untraced)
    traced_wall = sum(d.wall_s for d in traced)
    import_s = sum(r.get("import_s", 0.0) for r in records)
    main_s = s.incl("cli.main")
    layer_self = {layer: s.layer_self(layer) for layer in LAYERS}
    unattributed = untraced_wall - import_s - main_s
    load_s = s.incl("panel.load_price_panel")
    observations = s.counter("portfolio.observations")
    subsets = observations + s.counter("portfolio.skipped_portfolios")
    m = {
        "import.marketgap_s": import_s,
        "import.scipy_stats_s": sum(r["scipy_stats_import_s"] for r in records),
        "panel.load_price_panel_s": load_s,
        "panel.rows_per_s": s.counter("panel.rows") / load_s if load_s else 0.0,
        "panel.load_rss_mb": s.counter("panel.load_rss_kb") / 1024.0,
        "panel.log_returns_s": s.incl("panel.log_returns"),
        "panel.restrict_s": s.incl("panel.PricePanel.restrict"),
        "panel.standardize_window_s": s.incl("panel.standardize_window"),
        "panel.standardize_window.calls": s.calls("panel.standardize_window"),
        "panel.assets_dropped": s.counter("panel.assets_dropped"),
        "spectral.correlation_matrix_s": s.incl("spectral.correlation_matrix"),
        "spectral.eigen_spectrum_s": s.incl("spectral.eigen_spectrum"),
        "spectral.summary_self_s": layer_self["spectral"] - s.own("spectral.correlation_matrix")
        - s.own("spectral.eigen_spectrum"),
        "spectral.windows": s.counter("spectral.eig_matrices"),
        "spectral.eig_n3": s.counter("spectral.eig_n3"),
        "spectral.corr_bytes": s.counter("spectral.corr_bytes"),
        "regimes.gap_series_self_s": s.own("regimes.gap_series"),
        "regimes.gap_series.dropped": s.counter("regimes.gap_series.dropped"),
        "regimes.monthly_sector_heatmap_self_s": s.own("regimes.monthly_sector_heatmap"),
        "regimes.phase_segmentation_s": s.incl("regimes.phase_segmentation"),
        "regimes.serialize_s": s.incl("regimes.write_gap_csv", "regimes.write_gap_jsonl",
                                      "regimes.write_heatmap_csv"),
        "ordinal.entropy_series_s": s.incl("ordinal.entropy_series"),
        "ordinal.cross_section_distribution.calls": s.calls("ordinal.cross_section_distribution"),
        "ordinal.phase_statistics_s": s.incl("ordinal.phase_statistics"),
        "portfolio.study_s": s.incl("portfolio.run_portfolio_study"),
        "portfolio.study_self_s": s.own("portfolio.run_portfolio_study"),
        "portfolio.covariance_matrix_s": s.incl("portfolio.covariance_matrix"),
        "portfolio.mvp_weights_s": s.incl("portfolio.mvp_weights"),
        "portfolio.realized_volatility_s": s.incl("portfolio.realized_volatility"),
        "portfolio.observations": observations,
        "portfolio.skipped_portfolios": s.counter("portfolio.skipped_portfolios"),
        "portfolio.kept_ratio": observations / subsets if subsets else 0.0,
        "portfolio.quintile_report_s": s.incl("portfolio.quintile_report"),
        "portfolio.spearman_s": s.incl("portfolio.spearman"),
        "portfolio.serialize_s": s.incl("portfolio.write_observations_csv",
                                        "portfolio.report_to_dict"),
        "synth.generate_s": s.incl("synth.generate_factor_panel"),
        "synth.write_price_panel_s": s.incl("panel.write_price_panel"),
        "cli.self_s": layer_self["cli"],
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.unattributed_s": unattributed,
        # Zero when spans nest properly: the layers' self times partition main.
        "trace.residue_s": main_s - sum(layer_self.values()),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    for label in COMMAND_LABELS:
        m[f"command.{label}_s"] = sum(d.wall_s for d in untraced if d.label == label)
    absent = sorted(s.asked - s.wrapped)
    identity = (f"layers' self {sum(layer_self.values()):.4f} s"
                f" + residue {m['trace.residue_s']:.2e} s + import {import_s:.4f} s"
                f" + unattributed {unattributed:.4f} s + overhead {m['trace.overhead_s']:.4f} s = traced wall {traced_wall:.4f} s")
    return m, absent, identity


def traced_run(workload: Workload, seed: int, seconds: float, start: float) -> dict:
    env = child_env(workload.blas_threads())
    inputs, out = WORK / workload.name / "inputs", WORK / workload.name / "out"
    deadline = start + 160.0
    tally = Tally()
    setup = workload.setup(inputs, seed)
    pairs, commands, digests = [], None, []
    measure_start = time.perf_counter()
    while True:
        reset(inputs)
        reset(out)
        untraced = [execute(cli_argv(setup), "synth", env, deadline)]
        if untraced[0].exit_code != 0:
            tally.add(untraced[0])
            return {"tally": tally, "samples": {}}
        commands = commands or workload.commands(inputs, out, seed)
        untraced += [execute(cli_argv(c), c.label, env, deadline) for c in commands]
        digests.append((tree_digest(inputs), tree_digest(out)))
        reset(out)
        traced, records = traced_pass([setup, *commands], env, deadline)
        digests.append((tree_digest(inputs), tree_digest(out)))
        pairs.append((untraced, traced, records))
        now = time.perf_counter()
        pair_s = (now - measure_start) / len(pairs)
        if now - measure_start >= seconds or now + pair_s > start + TIME_LIMIT_S:
            break

    errors, _ = check_outputs(inputs, commands, seed)
    for k, (untraced, traced, _) in enumerate(pairs):
        for j, done in enumerate(untraced + traced):
            problems = list(errors.get(done.label, []))
            if digests[2 * k + j // len(untraced)] != digests[0]:
                problems.append("outputs differ from the first untraced pass")
            tally.add(done, problems)

    pairs.sort(key=lambda p: sum(d.wall_s for d in p[1]))
    untraced, traced, records = pairs[(len(pairs) - 1) // 2]
    metrics, absent, identity = layer_metrics(untraced, traced, records)
    return {"tally": tally, "metrics": metrics, "absent": absent, "identity": identity,
            "samples": {"traced wall_s": [sum(d.wall_s for d in p[1]) for p in pairs],
                        "untraced wall_s": [sum(d.wall_s for d in p[0]) for p in pairs]}}


# ---------- entry point ----------

def main(argv=None) -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workload = WORKLOADS[args.workload]
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if not (ROOT / "src" / "marketgap").is_dir():
            raise BenchError(f"no marketgap source tree at {ROOT / 'src'}")
        (ROOT / WORK).mkdir(parents=True, exist_ok=True)
        env = environment(workload)
    except (BenchError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    run = (traced_run if args.trace else measured_run)(workload, args.seed, args.seconds, start)
    tally = run["tally"]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    computed = run.get("metrics", {})
    metrics = {m["name"]: {"value": computed.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    correct = not tally.failures and all(m["name"] in computed for m in wanted)

    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    print(f"workload {workload.name}: {why}")
    print(f"seed {args.seed}, {args.seconds:g} s, trace {args.trace}, "
          f"BLAS threads {env['blas_threads']}, closed loop with one client")
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, values in run.get("samples", {}).items():
        print(f"  {name}: {summarize(values)}" if values else f"  {name}: no samples")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    if run.get("identity"):
        print("per-layer time of the median pass pair: " + run["identity"])
    if run.get("absent"):
        print("functions absent from this version (their metrics read 0): "
              + ", ".join(run["absent"]))
    print(f"failed_frac = {len(tally.failures)}/{tally.attempted}")
    for failure in tally.failures:
        print(f"FAILED {failure}")
    with open(ROOT / WORK / workload.name / f"result-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": args.seed, "environment": env,
                   "samples": run.get("samples", {}), "metrics": metrics,
                   "failures": tally.failures}, fh, indent=2, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": max(1, tally.attempted),
                      "failed": len(tally.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
