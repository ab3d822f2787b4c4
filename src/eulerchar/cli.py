"""Command line front end.

Subcommands:

* ``spectrum``: compute eigenfrequencies of a graph file to CSV.
* ``plan``: certified recovery parameters from priors or a graph.
* ``estimate``: recover chi from a spectrum CSV.
* ``perturb``: add reproducible uniform noise to a spectrum CSV.
* ``verify-trace``: check the trace identity orbit-side against a spectrum.
* ``experiment``: run a full preset study into a directory of CSV + SVG.

Exit codes: 0 success, 1 a certified bound or an exact eigenvalue count was
violated at runtime, 2 bad input. All randomness is seeded and all files are
written with fixed number formats, so identical invocations produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .estimator import (NoiseModel, _perturbed, _truncated_sums, certified_bound, certify,
                        certify_perturbed, perturb_spectrum, truncated_sum)
from .graph import GraphError, MetricGraph, PRESET_NAMES, parse_graph, preset, summarize
from .planner import PlanError, RecoveryPlan, beta_continuous, epsilon, optimal_plan
from .orbits import OrbitBudgetError, trace_check
from .spectrum import (
    _GRID_ENTRIES,
    SpectrumCountError,
    read_spectrum_csv,
    secular_spectrum,
    spectrum_csv_text,
    spectrum_with_count,
    validate_spectrum,
    write_spectrum_csv,
)
from .svgplot import line_plot
from .testfn import cosine_power, triangular

__all__ = ["main", "ExperimentConfig", "run_experiment", "plan_block"]

EXIT_OK = 0
EXIT_BOUND_VIOLATION = 1
EXIT_INPUT_ERROR = 2

EXPERIMENT_PRESETS = PRESET_NAMES + ("compare", "table")

# Of --eps, --seeds, --delta and --seed, what `experiment table` and `compare` read; a graph reads all.
EXPERIMENT_OPTIONS = {"table": ("--eps",), "compare": ()}

# Rows of the order/count table reproduced by `experiment table` (M_bar = 0).
TABLE_RHOS = (2.0, 15.6, 16.5, 421.0, 423.0, 1e4)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a full experiment run depends on."""

    preset: str  # a name in EXPERIMENT_PRESETS, or a graph JSON file
    eps_bar: float = 0.25
    seeds: int = 100
    delta: float | None = None  # None means the plan's delta_max
    out_dir: str = ""
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.seeds < 1:
            raise ValueError("seeds must be at least 1")


def _resolve_graph(name_or_path: str) -> MetricGraph:
    if name_or_path in PRESET_NAMES:
        return preset(name_or_path)
    return parse_graph(Path(name_or_path).read_text(encoding="utf-8"))


def plan_block(plan: RecoveryPlan) -> str:
    """The flat key=value serialization of a plan, one pair per line."""
    lines = [
        f"eps_bar={plan.eps_bar:.16g}",
        f"M_bar={plan.M_bar:.16g}",
        f"L_bar={plan.L_bar:.16g}",
        f"lmin_lower={plan.lmin_lower:.16g}",
        f"t={plan.t:.16g}",
        f"rho={plan.rho:.16g}",
        f"alpha_star={plan.alpha_star:.16g}",
        f"d={plan.d}",
        f"J={plan.J}",
        f"beta={plan.beta:.16g}",
        f"delta_max={plan.delta_max:.16g}",
        f"eps_value={plan.eps_value:.16g}",
    ]
    try:
        eps_prev = epsilon(plan.M_bar, plan.rho, plan.d, plan.J - 1)
        lines.append(f"eps_prev={eps_prev:.16g}")
    except PlanError:
        lines.append("eps_prev=undefined")
    return "\n".join(lines) + "\n"


def _order_boundary_note(plan: RecoveryPlan) -> str | None:
    """A note when a neighboring order nearly ties J*, so d* is rounding-sensitive."""
    for d in (plan.d - 1, plan.d + 1):
        if d < 1:
            continue
        try:
            j_other = math.ceil(beta_continuous(plan.eps_bar, plan.M_bar, plan.rho, d))
        except PlanError:
            continue
        if abs(j_other - plan.J) <= 2:
            return (
                f"note=order boundary: d={d} needs J={j_other}, within 2 of J={plan.J}; "
                "d* is sensitive to rounding in rho near this point"
            )
    return None


# ---------------------------------------------------------------------------
# Subcommands


def cmd_spectrum(args: argparse.Namespace) -> int:
    g = _resolve_graph(args.graph)
    if args.kmax is not None:
        s = secular_spectrum(g, args.kmax)
    else:
        s = spectrum_with_count(g, 60 if args.count is None else args.count)
    text = spectrum_csv_text(s, {"graph": g.name})
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {s.array.size} eigenfrequencies to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _priors(args: argparse.Namespace) -> tuple:
    """The graph of --graph and its (M, L, lmin), or None and each prior's option (None if not given)."""
    if not args.graph:
        return None, args.M, args.L, args.lmin
    given = [f"--{name}" for name in ("M", "L", "lmin") if getattr(args, name) is not None]
    if given:
        raise ValueError(f"--graph and {', '.join(given)} cannot be given together: "
                         "the graph supplies M, L and lmin")
    g = _resolve_graph(args.graph)
    summary = summarize(g)
    return g, summary.M, summary.total_length, summary.l_min


def _plan(eps: float | None, M: float | None, L: float | None, lmin: float | None) -> RecoveryPlan:
    if None in (M, L, lmin):
        raise PlanError("give either --graph or all of --M, --L, --lmin")
    return optimal_plan(0.25 if eps is None else eps, M, L, lmin)


def cmd_plan(args: argparse.Namespace) -> int:
    plan = _plan(args.eps, *_priors(args)[1:])
    sys.stdout.write(plan_block(plan))
    note = _order_boundary_note(plan)
    if note:
        print(note)
    return EXIT_OK


def cmd_estimate(args: argparse.Namespace) -> int:
    if (args.t is None) != (args.J is None) or (args.d is not None and args.t is None):
        raise ValueError("--t and --J must be given together, and --d only with them")
    if args.t is not None:
        for option, value in (("--lmin", args.lmin), ("--eps", args.eps)):
            if value is not None:
                raise ValueError(f"estimate with --t and --J does not read {option}")
        if (args.M is None) != (args.L is None):
            raise ValueError("--M and --L must be given together")
    g, M, L, lmin = _priors(args)
    d, t, J = 1 if args.d is None else args.d, args.t, args.J
    if t is None:
        plan = _plan(args.eps, M, L, lmin)
        d, t, J, M, L = plan.d, plan.t, plan.J, plan.M_bar, plan.L_bar
    s, _meta = read_spectrum_csv(args.spectrum)
    if g is not None:
        report = validate_spectrum(s, g)
        if not report.ok:
            print(f"error: {'; '.join(report.messages)}", file=sys.stderr)
            return EXIT_BOUND_VIOLATION
    est = certify(s, cosine_power(d), t, J, M, L)
    print(f"S={est.S:.16g}")
    print(f"chi_hat={est.chi_hat}")
    print(f"bound={est.bound:.16g}")
    if not est.certified:
        print("note=bound does not certify a unique integer")
    if abs(est.S - est.chi_hat) > est.bound:
        print("bound violation: the truncated sum is farther from every integer "
              "than the certified bound allows", file=sys.stderr)
        return EXIT_BOUND_VIOLATION
    return EXIT_OK


def cmd_perturb(args: argparse.Namespace) -> int:
    s, _meta = read_spectrum_csv(args.spectrum)
    noisy = perturb_spectrum(s, NoiseModel(args.delta, args.seed))
    metadata = {"delta": f"{args.delta:.16g}", "seed": str(args.seed), "source": s.method}
    text = spectrum_csv_text(noisy, metadata)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote perturbed spectrum to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify_trace(args: argparse.Namespace) -> int:
    g = _resolve_graph(args.graph)
    tf = triangular() if args.psi else cosine_power(1 if args.d is None else args.d)
    kmax = args.kmax
    if kmax is None:
        kmax = (len(g.vertices) + 200) * math.pi / g.total_length()
    s = secular_spectrum(g, kmax)
    lhs, rhs, gap, bound = trace_check(g, tf, args.t, s)
    print(f"lhs={lhs:.16g}")
    print(f"rhs={rhs:.16g}")
    print(f"gap={gap:.3e}")
    print(f"certified_bound={bound:.3e}")
    if gap > bound:
        print("trace identity violated beyond the certified bound", file=sys.stderr)
        return EXIT_BOUND_VIOLATION
    print("trace identity holds within the certified bound")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Experiments


def _figure(stem: Path, title: str, x: tuple[str, np.ndarray], ylabel: str,
            columns: list[tuple[str, str, np.ndarray]], **plot) -> None:
    """Write stem.csv and stem.svg from one column table, so a plot cannot drift from its data.

    x is (name, values), the CSV's first column and the plot's x axis; each
    column is (CSV header, legend label, values). Every cell is converted to a
    Python float once, for both files; x cells are written :.6g and value
    cells :.16e; plot takes line_plot's keywords.
    """
    x_name, xs = x[0], np.asarray(x[1], dtype=float).tolist()
    cols = [np.asarray(ys, dtype=float).tolist() for _, _, ys in columns]
    rows = [",".join([x_name] + [header for header, _, _ in columns])]
    rows += [f"{xv:.6g}," + ",".join(f"{v:.16e}" for v in row)
             for xv, *row in zip(xs, *cols, strict=True)]
    stem.with_suffix(".csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    line_plot(stem.with_suffix(".svg"), title, x_name, ylabel, xs,
              [(label, ys) for (_, label, _), ys in zip(columns, cols)], **plot)


def _experiment_table(out: Path, eps_bar: float) -> int:
    plans = [optimal_plan(eps_bar, 0.0, rho / 2.0, 1.0) for rho in TABLE_RHOS]
    out.mkdir(parents=True, exist_ok=True)
    for rho, plan in zip(TABLE_RHOS, plans):
        print(f"rho={rho:<8g} d*={plan.d} J*-M={plan.J}")
    rows = "".join(f"{rho:.16g},{plan.d},{plan.J}\n" for rho, plan in zip(TABLE_RHOS, plans))
    (out / "table.csv").write_text("rho,d,J_minus_M\n" + rows, encoding="utf-8")
    print(f"wrote {out / 'table.csv'}")
    return EXIT_OK


def _experiment_compare(out: Path) -> int:
    """Overlay of S_30(t) with d=1 for the three equal-total-chi-gap graphs."""
    out.mkdir(parents=True, exist_ok=True)
    J, d = 30, 1
    names = ("k5", "k5-pendant", "k33")
    ts = np.round(np.arange(0.02, 0.701, 0.01), 10)
    graphs = [preset(name) for name in names]
    chis = [summarize(g).chi for g in graphs]
    columns = [truncated_sum(spectrum_with_count(g, J), cosine_power(d), ts, J) for g in graphs]
    _figure(out / "compare", f"Truncated sums, d={d}, J={J}", ("t", ts), "S_J(t)",
            [(n.replace("-", "_"), n, c) for n, c in zip(names, columns)],
            hlines=tuple(float(c) for c in chis))
    for name, chi, col in zip(names, chis, columns):
        at_half = float(col[np.argmin(np.abs(ts - 0.5))])
        print(f"{name}: chi={chi}, S_{J}(0.5)={at_half:.4f}")
    print(f"wrote {out / 'compare.csv'} and compare.svg")
    return EXIT_OK


def run_experiment(config: ExperimentConfig) -> int:
    """Run one experiment; nothing is written before every input is checked."""
    name = config.preset if config.preset in EXPERIMENT_PRESETS else "custom"
    out = Path(config.out_dir or f"experiment-{name}")
    if config.preset == "table":
        return _experiment_table(out, config.eps_bar)
    if config.preset == "compare":
        return _experiment_compare(out)

    g = _resolve_graph(config.preset)
    summary = summarize(g)
    chi = summary.chi
    plan = optimal_plan(config.eps_bar, summary.M, summary.total_length, summary.l_min)
    delta = plan.delta_max if config.delta is None else config.delta
    # Each seed takes a noise model, a noisy copy of the listing and J - 1 transform terms.
    listed = plan.J + 20
    if config.seeds * listed > _GRID_ENTRIES:
        raise ValueError(f"{config.seeds} seeds need {config.seeds * listed} noisy values, {listed} "
                         f"per seed, above the budget of {_GRID_ENTRIES}")
    noise = [NoiseModel(delta, config.base_seed + i) for i in range(config.seeds)]
    tf = cosine_power(plan.d)
    s = spectrum_with_count(g, listed)

    # Every estimate, sweep and bound comes first, so that a refusal writes nothing.
    # Noisy recovery sweep; the seed=-1 row is the exact spectrum.
    plan_echo = "".join(f"# {line}\n" for line in plan_block(plan).strip().split("\n"))
    exact = certify(s, tf, plan.t, plan.J, plan.M_bar, plan.L_bar)
    noisy = certify_perturbed(s, tf, plan.t, plan.J, plan.M_bar, plan.L_bar, noise)
    rows = ["t,J,S,abs_err,bound,seed"] + [
        f"{plan.t:.16g},{plan.J},{est.S:.16e},{abs(est.S - chi):.16e},{est.bound:.16e},{seed}"
        for seed, est in [(-1, exact)] + [(m.seed, est) for m, est in zip(noise, noisy)]]
    correct = sum(est.chi_hat == chi for est in noisy)
    uncertified = sum(not est.certified for est in noisy)
    # Only a certified estimate that misses chi fails; an uncertified one promises nothing.
    failures = sum(est.certified and est.chi_hat != chi for est in noisy)

    # Sweep of S_J over the time scaling, exact and three noisy overlays, as one (4, len(t), J - 1)
    # grid; its noisy rows are perturb_spectrum's for the first three noise models.
    ts = np.round(np.linspace(0.1 * plan.t, 1.4 * plan.t, 53), 12)
    sweeps = _truncated_sums(np.vstack((s.array, _perturbed(s, noise[:3]))), tf, ts, plan.J)
    exact_sweep = sweeps[0]
    names = [f"S_noisy_seed{m.seed}" for m in noise[:3]]

    def sweep_bound(J: int, t: float) -> float:
        """The certified bound at (J, t), NaN outside the tail bound's domain."""
        try:
            return certified_bound(tf, J, summary.M, summary.total_length, t, s.tol)
        except PlanError:
            return math.nan

    # The J sweep at the plan's t. Like the t sweep's four rows, the J array goes to
    # _truncated_sums, not truncated_sum: bench/tracing.py counts J - 1 terms per truncated_sum
    # call, which needs a single J.
    js = range(2, s.array.size + 1)
    errors_J = np.abs(_truncated_sums(s.array, tf, plan.t, js) - chi)
    bounds_t, bounds_J = [sweep_bound(plan.J, float(t)) for t in ts], [sweep_bound(J, plan.t) for J in js]
    triangular_sweep = truncated_sum(s, triangular(), ts, plan.J)

    out.mkdir(parents=True, exist_ok=True)
    (out / "plan.txt").write_text(plan_block(plan), encoding="utf-8")
    write_spectrum_csv(out / "spectrum.csv", s, {"graph": g.name})
    (out / "recovery.csv").write_text(plan_echo + "\n".join(rows) + "\n", encoding="utf-8")
    _figure(out / "sweep_t", f"{g.name}: S_J(t), J={plan.J}, d={plan.d}, delta={delta:.2e}",
            ("t", ts), "S_J(t)",
            [("S_exact", "exact", exact_sweep)]
            + [(name, name, sweep) for name, sweep in zip(names, sweeps[1:])],
            hlines=(float(chi),))

    # Cosine power against the triangular function at the same J.
    _figure(out / "testfn_compare", f"{g.name}: test function comparison, J={plan.J}",
            ("t", ts), "S_J(t)",
            [("S_cosine_power", f"cosine power d={plan.d}", exact_sweep),
             ("S_triangular", "triangular", triangular_sweep)],
            hlines=(float(chi),))

    # Error against certified bound, sweeping t at fixed J, then J at the plan's t.
    _figure(out / "error_vs_t", f"{g.name}: |S_J(t) - chi| vs bound, J={plan.J}",
            ("t", ts), "absolute error",
            [("abs_err", "error", np.abs(exact_sweep - chi)), ("bound", "bound", bounds_t)],
            log_y=True)
    _figure(out / "error_vs_J", f"{g.name}: |S_J(t*) - chi| vs bound, t*={plan.t:.4g}",
            ("J", js), "absolute error", [("abs_err", "error", errors_J), ("bound", "bound", bounds_J)],
            log_y=True)

    print(f"graph {g.name}: chi={chi}, plan d={plan.d}, J={plan.J}, "
          f"t={plan.t:.6g}, delta_max={plan.delta_max:.3e}")
    print(f"exact S_J(t) = {exact.S:.6f} -> chi_hat = {exact.chi_hat}")
    print(f"noisy recovery at delta={delta:.3e}: "
          f"{correct}/{config.seeds} correct")
    if uncertified:
        print(f"note={uncertified}/{config.seeds} noisy bounds do not certify a unique integer")
    print(f"outputs in {out}/")
    if exact.chi_hat != chi or failures:
        print("recovery failed inside its certified regime", file=sys.stderr)
        return EXIT_BOUND_VIOLATION
    return EXIT_OK


def cmd_experiment(args: argparse.Namespace) -> int:
    options = {"--eps": args.eps, "--seeds": args.seeds, "--delta": args.delta, "--seed": args.seed}
    reads = EXPERIMENT_OPTIONS.get(args.preset, tuple(options))
    for option, value in options.items():
        if value is not None and option not in reads:
            raise ValueError(f"experiment {args.preset} does not read {option}")
    fields = {"eps_bar": args.eps, "seeds": args.seeds, "base_seed": args.seed,
              "delta": None if args.delta in (None, "auto") else float(args.delta)}
    config = ExperimentConfig(args.preset, out_dir=args.out or "",
                              **{k: v for k, v in fields.items() if v is not None})
    return run_experiment(config)


# ---------------------------------------------------------------------------
# Parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="eulerchar",
        description="Recover the Euler characteristic of a metric graph from "
        "finitely many Laplace eigenfrequencies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="compute eigenfrequencies to CSV")
    p.add_argument("graph", help="graph JSON file or preset name")
    extent = p.add_mutually_exclusive_group()
    extent.add_argument("--count", type=int, help="number of eigenfrequencies (default 60)")
    extent.add_argument("--kmax", type=float, help="compute everything up to this k instead")
    p.add_argument("--out", "-o", default="", help="output file")
    p.set_defaults(fn=cmd_spectrum)

    priors = argparse.ArgumentParser(add_help=False)
    priors.add_argument("--M", type=float, help="upper bound on the vertex count")
    priors.add_argument("--L", type=float, help="upper bound on the total length")
    priors.add_argument("--lmin", type=float, help="lower bound on the shortest orbit")
    priors.add_argument("--graph", default="", help="read all three priors off this graph instead")
    priors.add_argument("--eps", type=float, help="target bound eps_bar, in (0, 0.25] (default 0.25)")

    p = sub.add_parser("plan", parents=[priors], help="certified recovery parameters from priors")
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("estimate", parents=[priors], help="recover chi from a spectrum CSV")
    p.add_argument("--spectrum", required=True, help="spectrum CSV file")
    p.add_argument("--t", type=float, help="time scaling (with --J)")
    p.add_argument("--d", type=int, help="cosine power order, with --t and --J (default 1)")
    p.add_argument("--J", type=int, help="number of eigenfrequencies to use (with --t)")
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("perturb", help="add seeded uniform noise to a spectrum CSV")
    p.add_argument("--spectrum", required=True, help="spectrum CSV file")
    p.add_argument("--delta", type=float, required=True, help="noise half-width")
    p.add_argument("--seed", type=int, default=0, help="base seed for noise")
    p.add_argument("--out", "-o", default="", help="output file")
    p.set_defaults(fn=cmd_perturb)

    p = sub.add_parser("verify-trace", help="check the trace identity against a computed spectrum")
    p.add_argument("--graph", required=True, help="graph JSON file or preset name")
    p.add_argument("--t", type=float, required=True, help="time scaling")
    shape = p.add_mutually_exclusive_group()
    shape.add_argument("--d", type=int, help="cosine power order (default 1)")
    shape.add_argument("--psi", action="store_true", help="use the triangular function")
    p.add_argument("--kmax", type=float, help="spectral range (default about 200 values)")
    p.set_defaults(fn=cmd_verify_trace)

    p = sub.add_parser("experiment", help="run a full preset study into a directory")
    p.add_argument("preset",
                   help=f"one of {', '.join(EXPERIMENT_PRESETS)}, or a graph JSON file")
    p.add_argument("--seeds", type=int, help="noisy spectra per sweep (default 100)")
    p.add_argument("--delta", help="noise half-width, or `auto` for the plan's delta_max (default)")
    p.add_argument("--seed", type=int, help="base seed for noise (default 0)")
    p.add_argument("--eps", type=float, help="target bound eps_bar, in (0, 0.25] (default 0.25)")
    p.add_argument("--out", "-o", default="", help="output directory")
    p.set_defaults(fn=cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on usage errors and --help; surface the code as a
        # return value so programmatic callers see the same contract.
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except SpectrumCountError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND_VIOLATION
    except (GraphError, PlanError, OrbitBudgetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
