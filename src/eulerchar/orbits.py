"""Periodic orbits, scattering amplitudes, and the trace-formula certificate.

A periodic orbit is a closed path that changes direction only at vertices.
Orbits are directed step sequences modulo cyclic rotation; a reversed orbit
counts as a distinct orbit unless reversal gives the same cyclic sequence
(bounce paths are their own reversals). Repetitions of a primitive orbit are
separate orbits with the same primitive length. This counting convention is
certified by ``trace_check`` on the loop graph, where the identity reduces to
classical Poisson summation and any double counting would show up as a
factor-2 gap.

The geometric side of the trace identity is

    chi + sum over orbits of prim_length(p) * s_v(p) * t * f(t * length(p)),

and ``trace_check`` compares it against the spectral sum over a supplied
spectrum, reporting the gap together with a certified truncation bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .estimator import truncated_sum
from .graph import MetricGraph, summarize
from .planner import tail_envelope
from .spectrum import Spectrum
from .testfn import TestFunction, eval_time

__all__ = [
    "PeriodicOrbit",
    "OrbitBudgetError",
    "enumerate_orbits",
    "scattering_amplitude",
    "orbit_side",
    "trace_check",
]

DEFAULT_MAX_ORBITS = 10_000_000

# A step is (edge index, direction): +1 runs u -> v, -1 runs v -> u.
Step = tuple[int, int]


class OrbitBudgetError(RuntimeError):
    """Orbit enumeration exceeded the combinatorial budget."""


@dataclass(frozen=True)
class PeriodicOrbit:
    """One periodic orbit: steps modulo rotation, lengths, scattering amplitude."""

    steps: tuple[Step, ...]
    length: float
    prim_length: float
    s_v: float


def _reverse_step(step: Step) -> Step:
    return (step[0], -step[1])


def _step_tail(g: MetricGraph, step: Step) -> str:
    e = g.edges[step[0]]
    return e.u if step[1] > 0 else e.v


def _step_head(g: MetricGraph, step: Step) -> str:
    e = g.edges[step[0]]
    return e.v if step[1] > 0 else e.u


def _canonical_rotation(steps: tuple[Step, ...]) -> tuple[Step, ...]:
    rotations = [steps[i:] + steps[:i] for i in range(len(steps))]
    return min(rotations)


def _transition_coeff(g: MetricGraph, degree: dict[str, int], a: Step, b: Step) -> float:
    """Scattering coefficient for leaving step a into step b at their shared vertex."""
    v = _step_head(g, a)
    coeff = 2.0 / degree[v]
    if b == _reverse_step(a):
        coeff -= 1.0
    return coeff


def _primitive_period(steps: tuple[Step, ...]) -> int:
    n = len(steps)
    for p in range(1, n + 1):
        if n % p == 0 and all(steps[i] == steps[(i + p) % n] for i in range(n)):
            return p
    return n


def enumerate_orbits(
    g: MetricGraph,
    l_max: float,
    *,
    include_zero_amplitude: bool = False,
    max_orbits: int = DEFAULT_MAX_ORBITS,
) -> list[PeriodicOrbit]:
    """Every periodic orbit of length <= l_max, modulo cyclic rotation.

    Depth-first search over directed steps, rooted at each step in turn and
    never descending to a lexicographically smaller step, so each cyclic
    class is generated from its minimal step only; a canonical-rotation set
    removes the remaining duplicates from repeated minimal steps. Branches
    whose scattering amplitude is already 0 (back-reflection at a degree-2
    vertex) are pruned unless include_zero_amplitude asks for them.
    """
    if l_max <= 0.0:
        raise ValueError("l_max must be positive")
    degree = {v: g.degree(v) for v in g.vertices}
    steps_from: dict[str, list[Step]] = {v: [] for v in g.vertices}
    for i, e in enumerate(g.edges):
        steps_from[e.u].append((i, 1))
        steps_from[e.v].append((i, -1))

    seen: set[tuple[Step, ...]] = set()
    out: list[PeriodicOrbit] = []

    all_steps = sorted((i, d) for i in range(len(g.edges)) for d in (1, -1))

    def record(path: list[Step], length: float, amplitude: float) -> None:
        closing = _transition_coeff(g, degree, path[-1], path[0])
        if closing == 0.0 and not include_zero_amplitude:
            return
        canon = _canonical_rotation(tuple(path))
        if canon in seen:
            return
        seen.add(canon)
        p = _primitive_period(canon)
        out.append(
            PeriodicOrbit(
                steps=canon,
                length=length,
                prim_length=length * p / len(canon),
                s_v=amplitude * closing,
            )
        )
        if len(out) > max_orbits:
            raise OrbitBudgetError(
                f"more than {max_orbits} orbits below length {l_max}; "
                "raise max_orbits explicitly if this is intentional"
            )

    def descend(root: Step, path: list[Step], length: float, amplitude: float) -> None:
        here = _step_head(g, path[-1])
        if here == _step_tail(g, root):
            record(path, length, amplitude)
        for nxt in steps_from[here]:
            if nxt < root:
                continue
            step_len = g.edges[nxt[0]].length
            if length + step_len > l_max:
                continue
            coeff = _transition_coeff(g, degree, path[-1], nxt)
            if coeff == 0.0 and not include_zero_amplitude:
                continue
            path.append(nxt)
            descend(root, path, length + step_len, amplitude * coeff)
            path.pop()

    for root in all_steps:
        root_len = g.edges[root[0]].length
        if root_len > l_max:
            continue
        descend(root, [root], root_len, 1.0)

    out.sort(key=lambda o: (o.length, o.steps))
    return out


def scattering_amplitude(orbit: PeriodicOrbit, g: MetricGraph) -> float:
    """Recompute s_v as the product of the vertex coefficients along the orbit.

    Independent of the amplitude accumulated during enumeration; tests compare
    the two. At a vertex of degree v the back-reflection coefficient is
    2/v - 1 and every other outgoing direction gets 2/v.
    """
    degree = {v: g.degree(v) for v in g.vertices}
    product = 1.0
    n = len(orbit.steps)
    for i in range(n):
        product *= _transition_coeff(g, degree, orbit.steps[i], orbit.steps[(i + 1) % n])
    return product


def orbit_side(
    g: MetricGraph,
    tf: TestFunction,
    t: float,
    l_max: float | None = None,
    *,
    include_zero_amplitude: bool = False,
    max_orbits: int = DEFAULT_MAX_ORBITS,
) -> float:
    """Geometric side of the trace identity at time scaling t.

    Equals chi + sum of prim_length * s_v * t * f(t * length) over orbits up
    to l_max, which must cover the support [0, 1/t) of the scaled test
    function (and defaults to exactly that).
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    support = 1.0 / t
    if l_max is None:
        l_max = support
    elif l_max < support:
        raise ValueError(f"l_max = {l_max} does not cover the support 1/t = {support}")
    chi = summarize(g).chi
    orbits = enumerate_orbits(
        g, l_max, include_zero_amplitude=include_zero_amplitude, max_orbits=max_orbits
    )
    terms = [o.prim_length * o.s_v * t * eval_time(tf, t * o.length) for o in orbits]
    return chi + math.fsum(terms)


def trace_check(
    g: MetricGraph, tf: TestFunction, t: float, s: Spectrum
) -> tuple[float, float, float, float]:
    """Compare both sides of the trace identity on a finite spectrum.

    Returns (lhs, rhs, gap, certified_bound): lhs is the geometric orbit sum,
    rhs the spectral sum over every supplied eigenfrequency, gap their
    absolute difference, and certified_bound the truncation tail bound for
    the values beyond the supplied range; the identity holds iff
    gap <= certified_bound plus rounding slack.
    """
    summary = summarize(g)
    n = len(s.values)
    Lt = summary.total_length * t
    if tf.kind != "triangular" and n - summary.M <= 2.0 * Lt * tf.d:
        raise ValueError(
            f"spectrum too short to certify: need more than "
            f"M + 2*L*t*d = {summary.M + 2.0 * Lt * tf.d:.3g} values, got {n}"
        )
    certified = tail_envelope(tf, n - summary.M, Lt)
    lhs = orbit_side(g, tf, t)
    rhs = truncated_sum(s, tf, t, len(s.values))
    return lhs, rhs, abs(lhs - rhs), certified
