"""The four benchmark workloads: their inputs, operations and output checks.

Every workload is a closed loop with one client: the next operation starts
only when the previous one has finished. One cycle is one pass over the
workload's operation list, in an order shuffled from the seed; a run always
ends on a whole cycle, so failure counts compare across runs. Why each
workload was chosen, and which per-layer metric should move on which, is
recorded in bench/README.md.

An operation calls the public API of `eulerchar` through module attributes
(`spectrum.spectrum_with_count`, not a name imported here), so the traced
run sees these calls. Its check compares the outputs with values this file
knows independently of the package: chi = M - N of each graph, the von
Below lift, the trace-identity bound. A check returns None when the output
is right and a message when it is wrong.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from eulerchar import cli, estimator, graph, orbits, planner, spectrum, testfn

# chi = M - N, counted by hand: these are the oracles of every check.
CHI = {
    "lasso": 2 - 2,
    "k5": 5 - 10,
    "k5-pendant": 6 - 10,
    "k33": 6 - 9,
    "k6": 6 - 15,
    "k7": 7 - 21,
    "k8": 8 - 28,
}

# recover: the presets plus K6 and K7 (beta_1 = 10 and 15) for matrix size,
# and K8, the smallest complete graph whose secular scan fails the Weyl
# window today. K8 is an ordinary operation: its failure is counted.
RECOVER_GRAPHS = ("lasso", "k5", "k5-pendant", "k33", "k6", "k7", "k8")
NOISY_SPECTRA = 20
EPS_BAR = 0.25

SPECTRUM_LONG_COUNT = 500
VON_BELOW_TOL = 1e-8

EXPERIMENT_PRESETS = ("lasso", "k5")
EXPERIMENT_SEEDS = 100

# trace: t shrinks on lasso until orbit enumeration dominates (t = 0.06
# enumerates about 9,000 orbits); the other presets at t = 0.2 are cheap.
TRACE_CASES = (("lasso", 0.1), ("lasso", 0.07), ("lasso", 0.06),
               ("k5", 0.2), ("k33", 0.2), ("k5-pendant", 0.2))
TRACE_ORDER = 2
TRACE_SLACK = 1e-9
# The spectrum of verify-trace: everything below (M + 200) pi / L.
TRACE_EXTRA_VALUES = 200


@dataclass(frozen=True)
class Op:
    """One operation: `run` is timed, `check` returns None or what is wrong."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[], Any]
    cycle: Callable[[Any, random.Random], list[Op]]


def make_graph(name: str) -> graph.MetricGraph:
    if name in graph.PRESET_NAMES:
        return graph.preset(name)
    return graph.complete_graph(int(name[1:]))


def _nint(x: float) -> int:
    """Nearest integer, halves away from zero (the estimator's rounding)."""
    return math.floor(x + 0.5) if x >= 0.0 else math.ceil(x - 0.5)


# ---------------------------------------------------------------------------
# recover: graph -> certified chi


def recover_op(name: str, g: graph.MetricGraph, chi: int, noise_base: int) -> Op:
    """summarize, plan, scan, von Below cross-check, validate, recover 21 times."""

    def run():
        info = graph.summarize(g)
        plan = planner.optimal_plan(EPS_BAR, info.M, info.total_length, info.l_min)
        s = spectrum.spectrum_with_count(g, plan.J)
        # The cross-check of `eulerchar spectrum --method auto`.
        g_eq, _piece = graph.equilateral_subdivision(g)
        vb = spectrum.von_below_spectrum(g_eq, s.k_max_covered)
        dk = spectrum.compare_spectra(s, vb, count=len(s.values))
        report = spectrum.validate_spectrum(s, g)
        chis = [estimator.recover_chi(s, plan)]
        for i in range(NOISY_SPECTRA):
            noise = estimator.NoiseModel(plan.delta_max, noise_base + i)
            chis.append(estimator.recover_chi(estimator.perturb_spectrum(s, noise), plan))
        return info.chi, dk, s.tol + vb.tol + VON_BELOW_TOL, report, chis

    def check(result) -> str | None:
        summary_chi, dk, dk_tol, report, chis = result
        if summary_chi != chi:
            return f"summarize gives chi = {summary_chi}, expected {chi}"
        if not dk <= dk_tol:
            return f"von Below cross-check |dk| = {dk:.3e} exceeds {dk_tol:.3e}"
        if not report.ok:
            return "validate_spectrum: " + "; ".join(report.messages)
        wrong = [c for c in chis if c != chi]
        if wrong:
            return f"{len(wrong)}/{len(chis)} recoveries wrong (got {wrong[0]}, expected {chi})"
        return None

    return Op(name, run, check)


def _recover_setup():
    return {name: make_graph(name) for name in RECOVER_GRAPHS}


def _recover_cycle(graphs, rng: random.Random) -> list[Op]:
    names = list(graphs)
    rng.shuffle(names)
    return [recover_op(n, graphs[n], CHI[n], rng.getrandbits(32)) for n in names]


# ---------------------------------------------------------------------------
# spectrum-long: 500 eigenfrequencies per preset


def spectrum_long_op(name: str, g: graph.MetricGraph, chi: int,
                     reference: spectrum.Spectrum, plan: planner.RecoveryPlan) -> Op:
    def run():
        return spectrum.spectrum_with_count(g, SPECTRUM_LONG_COUNT)

    def check(s) -> str | None:
        if len(s.values) != SPECTRUM_LONG_COUNT:
            return f"{len(s.values)} values, expected {SPECTRUM_LONG_COUNT}"
        dk = spectrum.compare_spectra(s, reference, count=SPECTRUM_LONG_COUNT)
        if not dk <= VON_BELOW_TOL:
            return f"differs from von Below by {dk:.3e} > {VON_BELOW_TOL:g}"
        report = spectrum.validate_spectrum(s, g)
        if not report.ok:
            return "validate_spectrum: " + "; ".join(report.messages)
        S = estimator.truncated_sum(s, testfn.cosine_power(plan.d), plan.t, SPECTRUM_LONG_COUNT)
        if _nint(S) != chi:
            return f"truncated sum at J = {SPECTRUM_LONG_COUNT} is {S:.6f}, chi = {chi}"
        return None

    return Op(name, run, check)


def _spectrum_long_setup():
    """Graphs, plans and von Below reference spectra: the oracles of the check."""
    out = {}
    for name in graph.PRESET_NAMES:
        g = make_graph(name)
        info = graph.summarize(g)
        plan = planner.optimal_plan(EPS_BAR, info.M, info.total_length, info.l_min)
        g_eq, _piece = graph.equilateral_subdivision(g)
        k_max = (SPECTRUM_LONG_COUNT + info.M + 1) * math.pi / info.total_length
        reference = spectrum.von_below_spectrum(g_eq, k_max)
        if len(reference.values) < SPECTRUM_LONG_COUNT:
            raise RuntimeError(f"von Below reference of {name} is too short")
        out[name] = (g, reference, plan)
    return out


def _spectrum_long_cycle(ctx, rng: random.Random) -> list[Op]:
    names = list(ctx)
    rng.shuffle(names)
    return [spectrum_long_op(n, ctx[n][0], CHI[n], ctx[n][1], ctx[n][2]) for n in names]


# ---------------------------------------------------------------------------
# experiment: `eulerchar experiment PRESET --seeds 100` in-process


def experiment_op(name: str, chi: int, base_seed: int, scratch: Path) -> Op:
    def run():
        out = tempfile.TemporaryDirectory(dir=scratch)
        argv = ["experiment", name, "--seeds", str(EXPERIMENT_SEEDS),
                "--seed", str(base_seed), "-o", out.name]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        return code, stdout.getvalue(), stderr.getvalue(), out

    def check(result) -> str | None:
        code, stdout, stderr, out = result
        with out:
            if code != 0:
                return f"exit code {code}: {stderr.strip()}"
            expected = f"{EXPERIMENT_SEEDS}/{EXPERIMENT_SEEDS} correct"
            if expected not in stdout:
                return f"stdout does not report {expected}"
            lines = (Path(out.name) / "recovery.csv").read_text(encoding="utf-8").splitlines()
            rows = [line.split(",") for line in lines if line and line[0].isdigit()]
            if len(rows) != EXPERIMENT_SEEDS + 1:
                return f"recovery.csv has {len(rows)} rows, expected {EXPERIMENT_SEEDS + 1}"
            wrong = [r for r in rows if _nint(float(r[2])) != chi]
            if wrong:
                return f"recovery.csv: {len(wrong)} sums do not round to chi = {chi}"
        return None

    return Op(name, run, check)


def _experiment_cycle(scratch: Path, rng: random.Random) -> list[Op]:
    names = list(EXPERIMENT_PRESETS)
    rng.shuffle(names)
    return [experiment_op(n, CHI[n], rng.randrange(1_000_000), scratch) for n in names]


# ---------------------------------------------------------------------------
# trace: both sides of the trace identity


def trace_spectrum(g: graph.MetricGraph) -> spectrum.Spectrum:
    """The spectrum `eulerchar verify-trace` computes by default."""
    info = graph.summarize(g)
    return spectrum.secular_spectrum(g, (info.M + TRACE_EXTRA_VALUES) * math.pi / info.total_length)


def trace_op(name: str, g: graph.MetricGraph, s: spectrum.Spectrum, t: float) -> Op:
    def run():
        return orbits.trace_check(g, testfn.cosine_power(TRACE_ORDER), t, s)

    def check(result) -> str | None:
        _lhs, _rhs, gap, bound = result
        if not gap <= bound + TRACE_SLACK:
            return f"trace gap {gap:.3e} exceeds the certified bound {bound:.3e}"
        return None

    return Op(f"{name}@t={t:g}", run, check)


def _trace_setup():
    names = sorted({name for name, _t in TRACE_CASES})
    graphs = {n: make_graph(n) for n in names}
    return {n: (graphs[n], trace_spectrum(graphs[n])) for n in names}


def _trace_cycle(ctx, rng: random.Random) -> list[Op]:
    cases = list(TRACE_CASES)
    rng.shuffle(cases)
    return [trace_op(n, ctx[n][0], ctx[n][1], t) for n, t in cases]


def workloads(scratch: Path) -> dict[str, Workload]:
    """The workloads by name; `scratch` receives experiment output directories."""

    def experiment_setup():
        scratch.mkdir(parents=True, exist_ok=True)
        return scratch

    return {
        "recover": Workload("recover", _recover_setup, _recover_cycle),
        "spectrum-long": Workload("spectrum-long", _spectrum_long_setup, _spectrum_long_cycle),
        "experiment": Workload("experiment", experiment_setup, _experiment_cycle),
        "trace": Workload("trace", _trace_setup, _trace_cycle),
    }
