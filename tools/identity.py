"""The identity matrix: every run whose outputs must stay the same bytes.

    python tools/identity.py --tree DIR [--against DIR2] [--ci] [--work DIR]

`--tree DIR` runs the matrix with DIR's `src/` under OPENBLAS_NUM_THREADS=1
and =2, each in a run root of its own, `<work>/tree/t1` and `.../t2`, and
checks the relations between its runs (`Matrix`). Beside each root,
`t1.sha256` lists one `<run>/<file> <sha256>` line for each file a run
wrote, each manifest with the run root masked, so roots at different paths
compare; the two thread counts' listings must agree. `--against DIR2` runs
the matrix for DIR2 as well, under `<work>/against`, and lists every file
that differs between the trees at a thread count, or that only one wrote.
`--ci` runs the reduced matrix (README "Checking that a change keeps every
output"). `--work` defaults to a new temporary directory and must not hold
the run roots already. The exit status is 0 when every check holds and 1
otherwise.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

THREADS = (1, 2)
MASK = "<root>"
# Each preset's configured stabilized interval for `entropy --stabilized-start/-end`.
STABILIZED = {"three-phase": ("2025-10-01", "2025-12-31"),
              "risk-study": ("2026-01-05", "2026-02-27")}
WRITER = "price writer"  # the stage `synth` logs its part count under


def file_sha(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


def outputs(run: Path) -> list[str]:
    return json.loads((run / "manifest.json").read_text(encoding="utf-8"))["outputs"]


def listing(root: Path) -> dict[str, str]:
    """`<run>/<file>` -> sha256 of every file in each directory under `root` that
    holds a manifest.json, each manifest with the root masked."""
    digests = {}
    for manifest in sorted(root.rglob("manifest.json")):
        for path in sorted(manifest.parent.iterdir()):
            name = path.relative_to(root).as_posix()
            if path == manifest:
                text = path.read_text(encoding="utf-8").replace(str(root), MASK)
                digests[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
            else:
                digests[name] = file_sha(path)
    return digests


def compare(left: dict[str, str], right: dict[str, str], names: tuple[str, str]) -> int:
    """Print each file whose digest differs between two listings, or that only one
    holds; 1 if there is any, else 0."""
    lines = [f"differs: {name}" for name in sorted(left.keys() & right.keys())
             if left[name] != right[name]]
    lines += [f"only in {names[0]}: {name}" for name in sorted(left.keys() - right.keys())]
    lines += [f"only in {names[1]}: {name}" for name in sorted(right.keys() - left.keys())]
    for line in lines:
        print(line)
    return int(bool(lines))


class Matrix:
    """Runs a tree's CLI in one run root under one BLAS thread count, and checks
    the relations between its runs: every run holds exactly the outputs its
    manifest lists, plus the manifest, whose input digests are those of the
    files read, and each run and its `rerun` write the same outputs (`run`);
    two runs write the same outputs (`same`); and plain `gap`'s series are
    `gap --by-sector`'s market series (`same_series`)."""

    def __init__(self, tree: Path, root: Path, threads: int):
        self.root, self.failures = root, 0
        self.env = dict(os.environ, PYTHONPATH=str(tree / "src"),
                        OPENBLAS_NUM_THREADS=str(threads))

    def fail(self, message: str) -> None:
        print(f"FAIL {self.root}: {message}")
        self.failures += 1

    def _cli(self, out: Path, args: tuple, one_cpu: bool) -> None:
        """Run the CLI into `out`, its stdout and stderr into `out.log`."""
        argv = [sys.executable, "-m", "marketgap.cli", *map(str, args), "--out-dir", str(out)]
        log = out.parent / f"{out.name}.log"
        # The child takes this thread's CPU set, so it is pinned for the spawn.
        cpus = os.sched_getaffinity(0)
        if one_cpu:
            os.sched_setaffinity(0, {min(cpus)})
        try:
            with open(log, "w") as fh:
                done = subprocess.run(argv, env=self.env, cwd=self.root, stdout=fh, stderr=fh)
        finally:
            os.sched_setaffinity(0, cpus)
        if done.returncode:
            raise SystemExit(f"{' '.join(argv)} exited {done.returncode}; see {log}")
        self._holds_its_outputs(out)

    def run(self, name: str, *args, one_cpu: bool = False) -> Path:
        """Run the CLI with `args` into the run `name` and replay it into `name-rerun`;
        `one_cpu` pins the run to one CPU."""
        out = self.root / name
        out.parent.mkdir(parents=True, exist_ok=True)
        self._cli(out, args, one_cpu)
        rerun = out.with_name(f"{out.name}-rerun")
        self._cli(rerun, ("rerun", "--manifest", out / "manifest.json"), False)
        self.same(out, rerun)
        return out

    def _holds_its_outputs(self, run: Path) -> None:
        manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
        if sorted(p.name for p in run.iterdir()) != sorted([*manifest["outputs"], "manifest.json"]):
            self.fail(f"{run.name} does not hold exactly its outputs and manifest")
        if not manifest["inputs"] and manifest["command"] != "synth":
            self.fail(f"{run.name}'s manifest records no input")
        for path, digest in manifest["inputs"].items():
            if file_sha(Path(path)) != digest:
                self.fail(f"{run.name}'s manifest digest of {path} is not the file's")

    def same(self, a: Path, b: Path, names: list[str] | None = None) -> None:
        """b must hold a's outputs, or the given ones, with the same bytes."""
        if names is None:
            names = outputs(a)
            if sorted(names) != sorted(outputs(b)):
                self.fail(f"{b.name} lists other outputs than {a.name}")
        for name in names:
            if not (b / name).is_file() or file_sha(a / name) != file_sha(b / name):
                self.fail(f"{b.relative_to(self.root)}/{name} is not "
                          f"{a.relative_to(self.root)}/{name}")

    def writer_parts(self, all_cpus: Path, one_cpu: Path) -> None:
        """The debug logs of two `synth` runs: the run pinned to one CPU must log its
        price writer in one part, and the other in more where this process may run on
        more than one CPU. A tree whose writer logs no part count (one older than the
        forked writer) is reported and not checked."""
        logs = {run: (run.parent / f"{run.name}.log").read_text() for run in (all_cpus, one_cpu)}
        for run, log in logs.items():
            print(f"{run.relative_to(self.root)}:", *(line for line in log.splitlines()
                                                       if f"{WRITER} in" in line))
        if not any(f"{WRITER} in" in log for log in logs.values()):
            print(f"{all_cpus.relative_to(self.root)}: no {WRITER} part count logged")
            return
        one_part = f"{WRITER} in 1 part(s)"
        if one_part not in logs[one_cpu]:
            self.fail(f"the one-CPU run {one_cpu.name} did not log its {WRITER} in one part")
        if len(os.sched_getaffinity(0)) > 1 and one_part in logs[all_cpus]:
            self.fail(f"the all-CPU run {all_cpus.name} logged its {WRITER} in one part")

    def same_series(self, plain: Path, by_sector: Path) -> None:
        """Plain `gap`'s series must be `gap --by-sector`'s market series."""
        names = [name for name in outputs(plain) if name.startswith("gap_")]
        if not names:
            self.fail(f"{plain.name} wrote no gap series")
        self.same(plain, by_sector, names)


def _inputs(synth: Path, prices: Path | None = None) -> tuple:
    return "--prices", prices or synth / "prices.csv", "--meta", synth / "meta.csv"


def wide_copy(long: Path, wide: Path) -> None:
    """One column a ticker and an empty cell for a missing price."""
    with open(long, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    dates, tickers = sorted({r[0] for r in rows}), sorted({r[1] for r in rows})
    close = {(day, ticker): price for day, ticker, price in rows}
    with open(wide, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date"] + tickers)
        writer.writerows([day] + [close.get((day, t), "") for t in tickers] for day in dates)


def sector_hole_copy(synth: Path, copy: Path, sector: str, day: str) -> None:
    """The long file without `sector`'s prices on `day`."""
    with open(synth / "meta.csv", newline="") as fh:
        members = {row["ticker"] for row in csv.DictReader(fh) if row["sector"] == sector}
    with open(synth / "prices.csv") as src, open(copy, "w") as dst:
        dropped = 0
        for line in src:
            if line.startswith(f"{day},") and line.split(",")[1] in members:
                dropped += 1
            else:
                dst.write(line)
    if not dropped:
        raise SystemExit(f"{synth}: {sector} has no price on {day}")


def holed_copy(long: Path, copy: Path) -> None:
    """The long file with 30 assets missing a 1-10-day run each, and its first
    ticker at one price on its 101st to 200th dates."""
    import numpy as np

    with open(long) as fh:
        next(fh)
        dates, tickers = set(), set()
        for line in fh:
            day, ticker, _ = line.split(",")
            dates.add(day)
            tickers.add(ticker)
    dates, tickers = sorted(dates), sorted(tickers)
    rng = np.random.default_rng(0)
    holes = set()
    for ticker in rng.choice(tickers, 30, replace=False).tolist():
        start = int(rng.integers(0, len(dates) - 10))
        holes.update((day, ticker) for day in dates[start:start + int(rng.integers(1, 11))])
    flat = set(dates[100:200])
    with open(long) as src, open(copy, "w") as dst:
        dst.write(next(src))
        for line in src:
            day, ticker, close = line.rstrip("\n").split(",")
            if (day, ticker) not in holes:
                flat_close = ticker == tickers[0] and day in flat
                dst.write(f"{day},{ticker},{'100.0' if flat_close else close}\n")


def small_panel(m: Matrix, preset: str, seed: int | None, full: bool) -> None:
    """A preset's panel and every command on it."""
    panel = f"{preset}-{'default' if seed is None else seed}"
    synth = m.run(f"{panel}/synth", "synth", "--preset", preset,
                  *(() if seed is None else ("--seed", seed)))
    truth = json.loads((synth / "truth.json").read_text(encoding="utf-8"))
    event = truth["event_date"]
    inputs = _inputs(synth)
    gap = m.run(f"{panel}/gap", "gap", *inputs)
    by_sector = m.run(f"{panel}/gap-by-sector", "gap", "--by-sector", *inputs)
    m.same_series(gap, by_sector)
    m.run(f"{panel}/gap-abs-plain", "gap", "--rho-mode", "abs", "--norm-mode", "plain", *inputs)
    m.run(f"{panel}/heatmap", "heatmap", *inputs)
    m.run(f"{panel}/heatmap-plain", "heatmap", "--norm-mode", "plain", *inputs)
    m.run(f"{panel}/entropy", "entropy", *inputs)
    m.run(f"{panel}/entropy-event", "entropy", *inputs, "--event-date", event)
    start, end = STABILIZED[preset]
    m.run(f"{panel}/entropy-stabilized", "entropy", *inputs, "--event-date", event,
          "--stabilized-start", start, "--stabilized-end", end)
    m.run(f"{panel}/portfolio", "portfolio", *inputs, "--seed", 1, "--event-date", event)
    wide = m.root / panel / "wide.csv"
    wide_copy(synth / "prices.csv", wide)
    m.same(by_sector, m.run(f"{panel}/gap-by-sector-wide", "gap", "--by-sector",
                            "--layout", "wide", *_inputs(synth, wide)))
    if preset == "three-phase":
        # Some subset covariances of the default panel fail the weights'
        # certificate and take eigvalsh.
        m.run(f"{panel}/portfolio-50", "portfolio", *inputs, "--seed", 1, "--portfolios", 50)
    else:
        # Each window's study in three chunks under its stack cap.
        m.run(f"{panel}/portfolio-2000", "portfolio", *inputs, "--seed", 1,
              "--portfolios", 2000, "--event-date", event)
    if not full:
        return
    m.run(f"{panel}/gap-abs-plain-30", "gap", "--rho-mode", "abs", "--norm-mode", "plain",
          "--window", 30, "--step", 3, *inputs)
    m.run(f"{panel}/gap-by-sector-abs-30", "gap", "--by-sector", "--window", 30, "--step", 2,
          "--rho-mode", "abs", *inputs)
    m.run(f"{panel}/heatmap-plain-30", "heatmap", "--norm-mode", "plain", "--window", 30,
          *inputs)
    if preset == "three-phase":
        hole = m.root / panel / "sec0-hole.csv"
        sector_hole_copy(synth, hole, "SEC0", "2025-04-07")
        m.run(f"{panel}/sec0-hole-gap-by-sector", "gap", "--by-sector", *_inputs(synth, hole))
        m.run(f"{panel}/sec0-hole-heatmap", "heatmap", *_inputs(synth, hole))
        m.run(f"{panel}/sec0-hole-entropy", "entropy", *_inputs(synth, hole))
        # A one-day shock at the scripted false recovery's start, then a sustained run
        # at once: the phase statistics of an empty phase and of a single day.
        m.run(f"{panel}/entropy-empty-phases", "entropy", *inputs,
              "--event-date", truth["false_recovery"]["start"], "--shock-halfwidth", 0,
              "--sustain-days", 5, "--entropy-threshold", 0.3)
    else:
        m.run(f"{panel}/portfolio-5000", "portfolio", *inputs, "--seed", 1,
              "--portfolios", 5000, "--event-date", event)


def _column(table: Path, name: str) -> list[int]:
    """An integer column of a CSV output, after its units line."""
    with open(table, newline="") as fh:
        next(fh)
        return [int(row[name]) for row in csv.DictReader(fh)]


def large_panel(m: Matrix, tree: Path, full: bool) -> None:
    """`bench/large_panel.json` at seed 5, written and read on one and on all CPUs,
    and a holed copy."""
    scenario = m.root / "large_panel.json"
    shutil.copyfile(tree / "bench" / "large_panel.json", scenario)
    make = ("--log-level", "debug", "synth", "--scenario", scenario, "--seed", 5)
    synth = m.run("large-5/synth", *make)
    synth_one_cpu = m.run("large-5/synth-one-cpu", *make, one_cpu=True)
    m.same(synth, synth_one_cpu)
    m.writer_parts(synth, synth_one_cpu)
    large = ("--step", 20, *_inputs(synth))
    by_sector = m.run("large-5/gap-by-sector", "gap", "--by-sector", *large)
    m.same_series(m.run("large-5/gap", "gap", *large), by_sector)
    m.same(by_sector, m.run("large-5/gap-by-sector-one-cpu", "gap", "--by-sector", *large,
                            one_cpu=True))
    if full:
        m.run("large-5/heatmap", "heatmap", *large)
        # 1500 tickers: the study's picks are two bytes each.
        m.run("large-5/portfolio-50", "portfolio", *_inputs(synth), "--seed", 1,
              "--portfolios", 50)

    holed = m.root / "large-5" / "holed.csv"
    holed_copy(synth / "prices.csv", holed)
    holed_inputs = ("--step", 20, *_inputs(synth, holed))
    holed_by_sector = m.run("large-5/holed-gap-by-sector", "gap", "--by-sector", *holed_inputs)
    holed_gap = m.run("large-5/holed-gap", "gap", *holed_inputs)
    m.same_series(holed_gap, holed_by_sector)
    holed_entropy = m.run("large-5/holed-entropy", "entropy", *holed_inputs)
    with open(synth / "meta.csv") as fh:
        assets = sum(1 for _ in fh) - 1
    if min(_column(holed_gap / "gap_LARGE.csv", "n_assets")) >= assets:
        m.fail("no window of the holed large panel drops an asset")
    if min(_column(holed_entropy / "entropy_LARGE.csv", "n_stocks")) >= assets:
        m.fail("no date of the holed large panel's entropy drops a stock")


def run_tree(tree: Path, root: Path, threads: int, full: bool) -> tuple[dict[str, str], int]:
    """Run the matrix for `tree` into `root` and write its listing beside it; the
    listing and the number of failed checks."""
    root.mkdir(parents=True)
    m = Matrix(tree, root, threads)
    for preset, seeds in (("three-phase", (3, 11)), ("risk-study", (3, 11, 29))):
        for seed in (None, *seeds) if full else (None,):
            small_panel(m, preset, seed, full)
    large_panel(m, tree, full)
    digests = listing(root)
    root.with_suffix(".sha256").write_text(
        "".join(f"{name} {digest}\n" for name, digest in digests.items()), encoding="utf-8")
    runs = len({name.rsplit("/", 1)[0] for name in digests})
    print(f"{root}: {len(digests)} files in {runs} runs under OPENBLAS_NUM_THREADS={threads}, "
          f"{m.failures} failed checks")
    return digests, m.failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, required=True, help="the tree to check")
    parser.add_argument("--against", type=Path, help="a tree whose outputs must be the same")
    parser.add_argument("--ci", action="store_true", help="run the reduced matrix")
    parser.add_argument("--work", type=Path, help="where the run roots go (default: a new "
                                                   "temporary directory)")
    args = parser.parse_args(argv)
    work = (args.work or Path(tempfile.mkdtemp(prefix="identity-"))).resolve()
    sides = {"tree": args.tree}
    if args.against is not None:
        sides["against"] = args.against
    listings, failed = {}, 0
    for side, tree in sides.items():
        for n in THREADS:
            listings[side, n], failures = run_tree(tree.resolve(), work / side / f"t{n}", n,
                                                    not args.ci)
            failed |= bool(failures)
        failed |= compare(listings[side, 1], listings[side, 2], (f"{side} t1", f"{side} t2"))
    if args.against is not None:
        for n in THREADS:
            failed |= compare(listings["tree", n], listings["against", n],
                              (f"tree t{n}", f"against t{n}"))
    print(f"{'FAILED' if failed else 'OK'}: run roots and listings in {work}")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
