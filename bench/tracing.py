"""Spans and counters recorded from outside the package, for the traced run.

A `Tracer` replaces selected public functions of `eulerchar` with wrappers
wherever the package looks them up at call time: every module attribute that
is bound to the original function object is swapped, so a call from
`estimator.recover_chi` to `truncated_sum`, from `orbits.trace_check` to
`re_fourier` or from the golden-section loop to `secular_matrix` passes
through a wrapper. Each wrapped call records a span (name, start, end,
parent, operation id) in memory; spans are written out once, when the run
ends. Counters (calls, k points, orbits, bytes written) are taken at the
same boundaries.

These outside wrappers are a stand-in. Once the package returns its own
diagnostics records (ROADMAP item 5), the traced run should read stage
timings and counters from those records, so that timing has one source.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# (span name, defining module, function name). The span name is
# "<layer>.<what>", where the layer is the eulerchar module.
TARGETS = (
    ("graph.summarize", "eulerchar.graph", "summarize"),
    ("graph.subdivide", "eulerchar.graph", "equilateral_subdivision"),
    ("planner.plan", "eulerchar.planner", "optimal_plan"),
    ("spectrum.secular", "eulerchar.spectrum", "secular_spectrum"),
    ("spectrum.matrix", "eulerchar.spectrum", "secular_matrix"),
    ("spectrum.von_below", "eulerchar.spectrum", "von_below_spectrum"),
    ("spectrum.validate", "eulerchar.spectrum", "validate_spectrum"),
    ("spectrum.compare", "eulerchar.spectrum", "compare_spectra"),
    ("testfn.re_fourier", "eulerchar.testfn", "re_fourier"),
    ("estimator.truncated_sum", "eulerchar.estimator", "truncated_sum"),
    ("estimator.perturb", "eulerchar.estimator", "perturb_spectrum"),
    ("estimator.recover", "eulerchar.estimator", "recover_chi"),
    ("orbits.trace_check", "eulerchar.orbits", "trace_check"),
    ("orbits.enumerate", "eulerchar.orbits", "enumerate_orbits"),
    ("svgplot.line_plot", "eulerchar.svgplot", "line_plot"),
    ("cli.experiment", "eulerchar.cli", "run_experiment"),
)

# Per-layer metrics of the traced run: name -> (unit, better). Counts and
# seconds are per cycle (one pass over the workload's operations); the
# *_max metrics are maxima over the traced run.
LAYER_METRICS = {
    "spectrum.secular.s": ("s", "lower"),
    "spectrum.secular.calls": ("count", "lower"),
    "spectrum.secular.failed": ("count", "lower"),
    "spectrum.values": ("count", "higher"),
    "spectrum.matrix.builds_scalar": ("count", "lower"),
    "spectrum.matrix.builds_batched": ("count", "lower"),
    "spectrum.matrix.k_points": ("count", "lower"),
    "spectrum.matrix.s": ("s", "lower"),
    "spectrum.values_per_k_point": ("ratio", "higher"),
    "spectrum.von_below.s": ("s", "lower"),
    "spectrum.validate.s": ("s", "lower"),
    "spectrum.crosscheck_dk_max": ("1/length", "lower"),
    "testfn.re_fourier.calls": ("count", "lower"),
    "testfn.re_fourier.points": ("count", "lower"),
    "testfn.re_fourier.s": ("s", "lower"),
    "estimator.truncated_sum.calls": ("count", "lower"),
    "estimator.truncated_sum.s": ("s", "lower"),
    "estimator.terms": ("count", "lower"),
    "estimator.perturb.s": ("s", "lower"),
    "estimator.recover.s": ("s", "lower"),
    "orbits.trace_check.s": ("s", "lower"),
    "orbits.enumerate.s": ("s", "lower"),
    "orbits.count": ("count", "lower"),
    "orbits.gap_over_bound_max": ("ratio", "lower"),
    "graph.summarize.s": ("s", "lower"),
    "graph.subdivide.s": ("s", "lower"),
    "graph.subdivide.edges": ("count", "lower"),
    "planner.plan.s": ("s", "lower"),
    "svgplot.line_plot.calls": ("count", "lower"),
    "svgplot.line_plot.s": ("s", "lower"),
    "cli.experiment.s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "bench.trace_overhead_s": ("s", "lower"),
}


def _tree_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _observe(tracer: "Tracer", name: str, args, kwargs, result) -> None:
    """Counters taken at a span boundary after the wrapped call returned."""
    counts, maxima = tracer.counts, tracer.maxima
    if name == "spectrum.secular":
        counts["spectrum.values"] += len(result.values)
    elif name == "spectrum.matrix":
        n = int(np.size(args[1]))
        counts["spectrum.matrix.k_points"] += n
        counts["spectrum.matrix.builds_scalar" if n == 1 else "spectrum.matrix.builds_batched"] += 1
    elif name == "spectrum.compare":
        maxima["spectrum.crosscheck_dk_max"] = max(maxima["spectrum.crosscheck_dk_max"], result)
    elif name == "testfn.re_fourier":
        counts["testfn.re_fourier.points"] += int(np.size(args[1]))
    elif name == "estimator.truncated_sum":
        J = kwargs["J"] if "J" in kwargs else args[3]
        counts["estimator.terms"] += J - 1
    elif name == "orbits.enumerate":
        counts["orbits.count"] += len(result)
    elif name == "orbits.trace_check":
        _lhs, _rhs, gap, bound = result
        ratio = gap / bound if bound > 0.0 else math.inf
        maxima["orbits.gap_over_bound_max"] = max(maxima["orbits.gap_over_bound_max"], ratio)
    elif name == "graph.subdivide":
        counts["graph.subdivide.edges"] += len(result[0].edges)
    elif name == "cli.experiment":
        config = args[0] if args else kwargs["config"]
        counts["cli.bytes_written"] += _tree_bytes(config.out_dir)


class Tracer:
    """In-memory span recorder; `install()` patches, `uninstall()` restores."""

    def __init__(self) -> None:
        # Span rows: [name, start, end, parent index or -1, op id, ok].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: defaultdict = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op_id, False])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, ok: bool) -> None:
        span = self.spans[idx]
        span[2] = perf_counter()
        span[5] = ok
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span[0]!r} closed out of order")

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self.close(idx, ok)
            _observe(self, name, args, kwargs, result)
            return result

        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Swap every eulerchar module attribute bound to a target function."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "eulerchar" or key.startswith("eulerchar."))]
        for name, module_name, attr in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child spans covered.

        Spans nest strictly in this single-threaded run, so the children of
        a span cover disjoint parts of it and their durations add up.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _ok in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _op, _ok) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def layer_metrics(self, cycles: int, overhead_s: float) -> dict[str, float]:
        """Every LAYER_METRICS value; counts and seconds are per cycle."""
        totals: Counter = Counter(self.counts)
        for name, _start, _end, _parent, _op, ok in self.spans:
            totals[f"{name}.calls"] += 1
            totals[f"{name}.failed"] += not ok
        for name, seconds in self.self_times().items():
            totals[f"{name}.s"] += seconds
        out = {metric: totals[metric] / cycles for metric in LAYER_METRICS}
        out.update(self.maxima)
        k_points = self.counts["spectrum.matrix.k_points"]
        out["spectrum.values_per_k_point"] = (
            self.counts["spectrum.values"] / k_points if k_points else 0.0
        )
        out["bench.trace_overhead_s"] = overhead_s
        return out

    def write(self, path: Path, header: dict) -> None:
        """Write the spans as JSON: a header, a name table and one row per span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], start - t0, end - t0, parent, op, ok]
                for n, start, end, parent, op, ok in self.spans]
        doc = dict(header, names=names,
                   columns=["name", "start_s", "end_s", "parent", "op", "ok"], spans=rows)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
