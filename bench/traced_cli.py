"""Run one `marketgap` CLI command in-process with every public function wrapped.

Usage: python -X importtime bench/traced_cli.py SPANS.json CLI-ARG...

The wrappers live here, not in the package: each public function (and each
public method of a public class) of the layer modules is replaced by a timing
wrapper in every module namespace, and in module-level dicts such as the
CLI's command table, that refers to it. A function that a later version of
the package deletes or renames is simply not wrapped, and its metrics read 0.
Spans keep a stack of their callers, so each span's self time is its duration
minus the time of the spans it called directly. Spans are only correct for
single-threaded runs, which is how the benchmark calls the CLI.

Writes per-function [calls, inclusive s, self s], counters, and the import
time of marketgap.cli to SPANS.json; exits with the CLI's exit code.
"""
from __future__ import annotations

import functools
import inspect
import json
import math
import resource
import sys
import time

LAYERS = ("panel", "spectral", "regimes", "ordinal", "portfolio", "synth", "cli")


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [span name, time spent in direct child spans]
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counters: dict[str, float] = {}
        self.hooks = {
            "panel.standardize_window": self._standardize_window,
            "panel.load_price_panel": self._load_price_panel,
            "regimes.gap_series": self._gap_series,
            "spectral.correlation_matrix": self._correlation_matrix,
            "portfolio.run_portfolio_study": self._portfolio_study,
        }

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def layer(self) -> str | None:
        return self.stack[-1][0].split(".", 1)[0] if self.stack else None

    def wrap(self, name: str, fn):
        stack, stats, hook = self.stack, self.stats, self.hooks.get(name)
        stats[name] = [0, 0.0, 0.0]
        rss = name == "panel.load_price_panel"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            outermost = all(f[0] != name for f in stack)
            rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if rss else 0
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                entry = stats[name]
                entry[0] += 1
                entry[2] += duration - frame[1]
                if outermost:
                    entry[1] += duration
                if stack:
                    stack[-1][1] += duration
            if rss:
                grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_before
                self.counters["panel.load_rss_kb"] = max(
                    self.counters.get("panel.load_rss_kb", 0.0), float(grown))
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def wrap_eig(self, fn):
        """Count eigendecompositions by the layer of the span that asked for them."""

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            layer = self.layer()
            if layer is not None:
                shape = getattr(a, "shape", ())
                if len(shape) >= 2:
                    matrices = math.prod(shape[:-2])
                    self.count(f"{layer}.eig_matrices", matrices)
                    self.count(f"{layer}.eig_n3", matrices * float(shape[-1]) ** 3)
            return fn(a, *args, **kwargs)

        return wrapper

    # ---------- counters read from results ----------

    def _standardize_window(self, result) -> None:
        self.count("panel.assets_dropped", len(result.dropped))

    def _load_price_panel(self, result) -> None:
        import numpy as np

        self.count("panel.rows", int(np.isfinite(result.close).sum()))

    def _gap_series(self, result) -> None:
        self.count("regimes.gap_series.dropped", len(result.dropped))

    def _correlation_matrix(self, result) -> None:
        self.count("spectral.corr_bytes", 8.0 * result.values.shape[0] ** 2)

    def _portfolio_study(self, result) -> None:
        self.count("portfolio.observations", len(result.observations))
        self.count("portfolio.skipped_portfolios", result.skipped_portfolios)


def public_callables(module):
    """(qualified name, owner, attribute, function) for the module's public API."""
    for attr, value in list(vars(module).items()):
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield attr, module, attr, value
        elif inspect.isclass(value):
            for meth, fn in list(vars(value).items()):
                if not meth.startswith("_") and inspect.isfunction(fn):
                    yield f"{attr}.{meth}", value, meth, fn


def install(tracer: Tracer, package) -> list[str]:
    """Wrap the layers' public functions; returns the wrapped names."""
    prefix = package.__name__ + "."
    modules = [m for name, m in sys.modules.items()
               if m is not None and (m is package or name.startswith(prefix))]
    replaced: dict[int, object] = {}
    for layer in LAYERS:
        module = sys.modules.get(prefix + layer)
        if module is None:
            continue
        for qualname, owner, attr, fn in public_callables(module):
            wrapper = tracer.wrap(f"{layer}.{qualname}", fn)
            setattr(owner, attr, wrapper)
            replaced[id(fn)] = wrapper
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in replaced:
                setattr(module, attr, replaced[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in replaced:
                        value[key] = replaced[id(item)]
    return sorted(tracer.stats)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import marketgap
    import marketgap.cli
    import_s = time.perf_counter() - start

    import numpy as np

    tracer = Tracer()
    wrapped = install(tracer, marketgap)
    np.linalg.eigh = tracer.wrap_eig(np.linalg.eigh)
    np.linalg.eigvalsh = tracer.wrap_eig(np.linalg.eigvalsh)
    code = marketgap.cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "exit_code": code, "wrapped": wrapped,
                   "stats": tracer.stats, "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
