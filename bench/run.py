"""Benchmark of eulerchar: time from a metric graph to a certified chi.

Run from the repository root:

    python3 bench/run.py --workload recover --seed 1 --seconds 22 --trace 0
    python3 bench/run.py --workload all --trace 1

`--workload` is one of recover, spectrum-long, experiment, trace, or `all`
for the four in turn in this one process. The package is imported from
src/ of this checkout; nothing is installed. Each workload runs one client
in a closed loop for `--seconds` seconds and at least MIN_CYCLES cycles,
always finishing the cycle it is in, and checks every output (see
workloads.py). Every reported time is host-scaled: multiplied by how much
faster or slower than usual a fixed pure-Python loop ran just before and
after it (see REFERENCE_S and bench/README.md).

`--trace 0` prints the end-to-end metrics (E2E_METRICS). `--trace 1` first
repeats the untraced loop, then runs the same operations again with the
outside wrappers of tracing.py installed, prints the per-layer metrics
(tracing.LAYER_METRICS) and writes the spans to .bench_out/spans-<workload>.json.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

`correct` is false when an operation returned a wrong output (wrong chi, a
cross-check or trace gap out of tolerance, a bad experiment result). An
operation that raises is counted in `failed` but is not a wrong output:
at this commit K8 in `recover` raises SpectrumCountError on every cycle.
The exit code is 1 when `correct` is false, 2 when the package cannot be
found, 0 otherwise.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("recover", "spectrum-long", "experiment", "trace")
SETUP_REPEATS = 3
# A recover cycle takes about 20 s, most of it K8, and yields six successful
# operations; one cycle per run gave op_s_p50 an interquartile spread of
# 0.16-0.24 of its median over ten seeds on a shared 2-core Xeon host, so
# every run measures two or more.
MIN_CYCLES = 2

# End-to-end metrics of an untraced run: name -> (unit, better).
# ok_ratio is 1 - failed_ratio; failed_ratio is 0 on every workload but
# recover and a bound relative to a zero median means nothing, so the JSON
# carries ok_ratio and the human-readable lines print both.
E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "op_s_p50": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "ok_ratio": ("ratio", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}

# Host speed. On a shared host the same code runs faster or slower by a
# third or more from one minute to the next (README), so every time the
# benchmark reports is scaled to a host on which the fixed pure-Python
# loop of reference_seconds() takes REFERENCE_S; the loop is timed right
# before and right after what it scales.
REFERENCE_LOOP = 50_000
REFERENCE_S = 0.004

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import eulerchar; print(time.perf_counter() - t)"
)


class PackageNotFound(RuntimeError):
    """src/eulerchar is missing from the checkout the benchmark runs in."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def prepare() -> None:
    """Cap BLAS threads at nproc, then import eulerchar from src/ of this checkout.

    The cap goes into the environment before numpy is first imported, so it
    reaches the BLAS library of this process and of the import probes.
    """
    if not (SRC / "eulerchar" / "__init__.py").is_file():
        raise PackageNotFound(f"no package at {SRC / 'eulerchar'}")
    cores = nproc()
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, cores))
        except ValueError:
            wanted = cores
        os.environ[var] = str(min(max(wanted, 1), cores))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import eulerchar

    if not Path(eulerchar.__file__).resolve().is_relative_to(SRC.resolve()):
        raise PackageNotFound(f"eulerchar was imported from {eulerchar.__file__}, not {SRC}")


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc(),
        "cpu": cpu,
        "seed": seed,
    }


def warm_up() -> None:
    """The first SVD pays for BLAS start-up; keep that out of every timing."""
    import numpy as np
    from eulerchar import graph, spectrum

    np.linalg.svd(spectrum.secular_matrix(graph.preset("lasso"), 1.0), compute_uv=False)


def import_seconds() -> float:
    """Import time of eulerchar (numpy included) in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.strip())


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python loop that calls nothing of eulerchar."""
    t0 = perf_counter()
    x = 0
    for i in range(REFERENCE_LOOP):
        x += i * i
    return perf_counter() - t0


def host_scale(before: float, after: float) -> float:
    """Factor that takes a time measured between two reference loops to REFERENCE_S."""
    return 2.0 * REFERENCE_S / (before + after)


# ---------------------------------------------------------------------------
# The closed loop


@dataclass(frozen=True)
class Outcome:
    name: str
    seconds: float  # op.run, wall
    status: str  # "ok", "wrong" (check failed) or "error" (raised)
    detail: str = ""
    busy: float = 0.0  # collection, op.run and check, wall
    scale: float = 1.0  # host_scale around the operation


def run_op(op, tracer=None, workload: str = "") -> Outcome:
    """Time op.run, then check its output; a raise is a failure, not a crash.

    Garbage left by earlier operations is collected before the clock starts.
    Orbit enumeration, for one, leaves reference cycles (its recursive
    closure holds every orbit found) that only the cyclic collector frees;
    left alone, they are collected inside whichever later operation trips
    the collector's threshold, so an operation's time would depend on the
    shuffled order and the seed. Collections an operation triggers itself
    stay in its time.
    """
    gc.collect()
    span = tracer.open(f"op.{workload}") if tracer else None
    t0 = perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # the loop must go on: the failure is counted
        seconds = perf_counter() - t0
        if tracer:
            tracer.close(span, False)
        return Outcome(op.name, seconds, "error", f"{type(exc).__name__}: {exc}")
    seconds = perf_counter() - t0
    if tracer:
        tracer.close(span, True)
        span = tracer.open(f"check.{workload}")
    try:
        problem = op.check(result)
    except Exception as exc:  # a check that cannot read the output fails it
        problem = f"check raised {type(exc).__name__}: {exc}"
    if tracer:
        tracer.close(span, problem is None)
    return Outcome(op.name, seconds, "ok" if problem is None else "wrong", problem or "")


def measure(workload, ctx, seconds: float, seed: int, tracer=None, min_cycles: int = MIN_CYCLES):
    """Whole cycles until `seconds` have passed and `min_cycles` have run.

    The reference loop runs between operations; each outcome carries the
    host scale of the loops on either side of it. Returns (outcomes, wall
    seconds, cycles).
    """
    rng = random.Random(seed)
    outcomes: list[Outcome] = []
    cycles = 0
    before = reference_seconds()
    start = perf_counter()
    while True:
        for op in workload.cycle(ctx, rng):
            if tracer:
                tracer.op_id = len(outcomes)
            t0 = perf_counter()
            outcome = run_op(op, tracer, workload.name)
            busy = perf_counter() - t0
            after = reference_seconds()
            outcomes.append(replace(outcome, busy=busy, scale=host_scale(before, after)))
            before = after
        cycles += 1
        if cycles >= min_cycles and perf_counter() - start >= seconds:
            return outcomes, perf_counter() - start, cycles


def op_s_p50(outcomes: list[Outcome]) -> tuple[float, int]:
    """Median host-scaled seconds per successful operation and the sample count.

    The median is taken over operation kinds (an operation's name) of each
    kind's median time. Every cycle runs each kind once, and the kinds of a
    workload differ in cost by more than ten times, so a median over all
    samples pooled falls between two kinds and is set by the slowest samples
    of one and the fastest of the other; the median of the kinds' medians is
    set by the middle samples of each.
    """
    ok = [o for o in outcomes if o.status == "ok"]
    if not ok:  # nothing succeeded: fall back to every attempt
        ok = outcomes
    times: dict[str, list[float]] = {}
    for o in ok:
        times.setdefault(o.name, []).append(o.seconds * o.scale)
    return statistics.median(statistics.median(ts) for ts in times.values()), len(ok)


def ops_per_s(outcomes: list[Outcome]) -> float:
    """Successful operations per host-scaled second of the loop, failures included."""
    ok = sum(o.status == "ok" for o in outcomes)
    return ok / sum(o.busy * o.scale for o in outcomes)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# One workload, untraced or traced


def describe(outcomes: list[Outcome], wall: float, cycles: int) -> None:
    failed = [o for o in outcomes if o.status != "ok"]
    print(f"# ops: {len(outcomes)} attempted, {len(failed)} failed, "
          f"{cycles} cycles, {wall:.3f} s wall, host scale median "
          f"{statistics.median(o.scale for o in outcomes):.4g}")
    times: dict[str, list[float]] = {}
    for o in outcomes:
        times.setdefault(o.name, []).append(o.seconds * o.scale)
    print("#   median scaled s per op: " + ", ".join(
        f"{name} {statistics.median(ts):.4g}" for name, ts in sorted(times.items())))
    for (name, status, detail), n in Counter((o.name, o.status, o.detail) for o in failed).items():
        print(f"#   {status} x{n} {name}: {detail[:200]}")


def run_untraced(workload, seed: int, seconds: float) -> tuple[dict, list[Outcome]]:
    setups = []
    for _ in range(SETUP_REPEATS):
        before = reference_seconds()
        t0 = perf_counter()
        ctx = workload.setup()
        took = perf_counter() - t0 + import_seconds()
        setups.append(took * host_scale(before, reference_seconds()))
    outcomes, wall, cycles = measure(workload, ctx, seconds, seed)
    describe(outcomes, wall, cycles)
    p50, n = op_s_p50(outcomes)
    ok = sum(o.status == "ok" for o in outcomes)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s_p50": p50,
        "ops_per_s": ops_per_s(outcomes),
        "ok_ratio": ok / len(outcomes),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {"setup_s": f"median of {SETUP_REPEATS}", "op_s_p50": f"n={n}"}
    print(f"#   failed_ratio = {1 - ok / len(outcomes):.6f} ({len(outcomes) - ok}/{len(outcomes)})")
    for name, value in metrics.items():
        print(f"#   {name} = {value:.6g} {E2E_METRICS[name][0]} {notes.get(name, '')}".rstrip())
    return with_units(metrics, E2E_METRICS), outcomes


def run_traced(workload, seed: int, seconds: float, env: dict) -> tuple[dict, list[Outcome], bool]:
    import tracing

    ctx = workload.setup()
    plain, plain_wall, plain_cycles = measure(workload, ctx, seconds, seed)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, wall, cycles = measure(workload, ctx, seconds, seed, tracer)
    finally:
        tracer.uninstall()
    print("# untraced:")
    describe(plain, plain_wall, plain_cycles)
    print("# traced:")
    describe(traced, wall, cycles)
    n = min(len(plain), len(traced))
    same = [(o.name, o.status) for o in plain[:n]] == [(o.name, o.status) for o in traced[:n]]
    if not same:
        print("# traced and untraced operations gave different outcomes")
    overhead = op_s_p50(traced)[0] - op_s_p50(plain)[0]
    metrics = tracer.layer_metrics(cycles, overhead)
    for name, value in metrics.items():
        print(f"#   {name} = {value:.6g} {tracing.LAYER_METRICS[name][0]}")
    path = OUT / f"spans-{workload.name}.json"
    tracer.write(path, {"workload": workload.name, "env": env, "cycles": cycles})
    print(f"# spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    return with_units(metrics, tracing.LAYER_METRICS), plain + traced, same


def with_units(metrics: dict[str, float], declared: dict) -> dict[str, dict]:
    return {name: {"value": value, "unit": declared[name][0]} for name, value in metrics.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> bool:
    import workloads

    workload = workloads.workloads(OUT / "experiment")[name]
    env = environment(seed)
    print(f"# eulerchar benchmark: workload={name} seconds={seconds:g} trace={int(trace)}")
    print("# env: " + json.dumps(env))
    if trace:
        metrics, outcomes, same = run_traced(workload, seed, seconds, env)
    else:
        metrics, outcomes = run_untraced(workload, seed, seconds)
        same = True
    correct = same and not any(o.status == "wrong" for o in outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": sum(o.status != "ok" for o in outcomes),
        "metrics": metrics,
    }))
    return correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        prepare()
    except PackageNotFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    warm_up()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
