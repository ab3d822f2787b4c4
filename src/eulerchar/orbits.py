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

    chi + sum over orbits of prim_length(p) * s_v(p) * t * f(t * length(p)).

An orbit of n bonds repeating a primitive orbit r times is n/r closed walks of
the bond scattering matrix S whose first bonds add up to prim_length and whose
S products are s_v, so ``orbit_side`` sums closed walks of S instead of listing
orbits. The identity needs only the walks' total per length, so they are kept
by exact length alone, one matrix product per distinct length below 1/t.
``trace_check`` compares that sum with the spectral sum, within the estimator's
``certified_bound``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .estimator import certified_bound, truncated_sum
from .graph import MetricGraph
from .spectrum import Spectrum, _bonds_of
from .testfn import TestFunction, eval_time

__all__ = [
    "OrbitBudgetError",
    "orbit_side",
    "trace_check",
]

# Cap on orbit_side's walk table, its closed and pending lengths x (2N)^2 entries: refused in
# 0.02 s (K10 at t = 0.002) to 0.7 s (the lasso with its 5.0 edge at 1e-300, at t = 0.3).
MAX_WALK_ENTRIES = 2_000_000

# A step is (edge index e, direction): +1 runs u -> v (bond 2e of S), -1 back (bond 2e + 1).
Step = tuple[int, int]


class OrbitBudgetError(RuntimeError):
    """An orbit listing or walk table exceeded its combinatorial budget."""


# The orbit listing (PeriodicOrbit, enumerate_orbits, scattering_amplitude) is a
# test oracle for orbit_side, kept out of __all__.
@dataclass(frozen=True)
class PeriodicOrbit:
    """One periodic orbit: steps modulo rotation, lengths, scattering amplitude."""

    steps: tuple[Step, ...]
    length: float
    prim_length: float
    s_v: float


def _bond(step: Step) -> int:
    return 2 * step[0] + (step[1] < 0)


def _step_tail(g: MetricGraph, step: Step) -> str:
    e = g.edges[step[0]]
    return e.u if step[1] > 0 else e.v


def _step_head(g: MetricGraph, step: Step) -> str:
    e = g.edges[step[0]]
    return e.v if step[1] > 0 else e.u


def _canonical_rotation(steps: tuple[Step, ...]) -> tuple[Step, ...]:
    rotations = [steps[i:] + steps[:i] for i in range(len(steps))]
    return min(rotations)


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
    max_orbits: int = 10_000_000,
) -> list[PeriodicOrbit]:
    """Every periodic orbit of length <= l_max, modulo cyclic rotation.

    Depth-first search over directed steps, rooted at each step in turn and
    never descending to a lexicographically smaller step, so each cyclic
    class is generated from its minimal step only; a canonical-rotation set
    removes the remaining duplicates from repeated minimal steps. Branches
    whose scattering amplitude is already 0 (back-reflection at a degree-2
    vertex) are pruned.
    """
    if l_max <= 0.0:
        raise ValueError("l_max must be positive")
    S = _bonds_of(g).S.tolist()
    steps_from: dict[str, list[Step]] = {v: [] for v in g.vertices}
    for i, e in enumerate(g.edges):
        steps_from[e.u].append((i, 1))
        steps_from[e.v].append((i, -1))

    seen: set[tuple[Step, ...]] = set()
    out: list[PeriodicOrbit] = []

    all_steps = sorted((i, d) for i in range(len(g.edges)) for d in (1, -1))

    def record(path: list[Step], length: float, amplitude: float) -> None:
        closing = S[_bond(path[0])][_bond(path[-1])]
        if closing == 0.0:
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
            coeff = S[_bond(nxt)][_bond(path[-1])]
            if coeff == 0.0:
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
    """Recompute s_v as the product of the entries of S along the orbit.

    Independent of the amplitude accumulated during enumeration; tests compare
    the two.
    """
    S = _bonds_of(g).S.tolist()
    bonds = [_bond(step) for step in orbit.steps]
    return math.prod(S[c][b] for b, c in zip(bonds, bonds[1:] + bonds[:1]))


def orbit_side(g: MetricGraph, tf: TestFunction, t: float) -> float:
    """Geometric side of the trace identity at time scaling t, from closed walks of S.

    walks maps each walk length, exact as an integer multiple of 1/D (D from
    graph.length_units), to P[a, b], the sum of S products over the walks of
    that length, whatever their number of bonds, from bond a to bond b. The
    shortest length is popped off a heap of the pending lengths, its walks closed
    with sum(l[:, None] * S * P) and extended by P @ S.T onto each unit while
    t L < 1. Every walk extends a shorter one, so a popped length is complete. S,
    l[:, None] * S, the units and their masks come from g's table, built once per
    graph object, so only the walks depend on t.
    """
    if not 0.0 < t < math.inf:
        raise ValueError("t must be positive and finite")
    S, weight, D, masks = _bonds_of(g).walk(g)
    walks = {u: np.diag(m) for u, m in masks if t * (u / D) < 1.0}
    pending = sorted(walks)  # the lengths in walks, a heap
    closed_length, closed_weight = [], []
    while pending:
        if (len(closed_length) + len(pending)) * S.size > MAX_WALK_ENTRIES:  # closed and held
            raise OrbitBudgetError(f"orbit side at t={t:g} exceeds {MAX_WALK_ENTRIES} walk entries")
        length = heapq.heappop(pending)
        P = walks.pop(length)
        closed_length.append(length / D)
        closed_weight.append(np.vdot(weight, P))
        Q = P @ S.T
        for u, m in masks:
            if t * ((length + u) / D) < 1.0:
                if length + u not in walks:
                    heapq.heappush(pending, length + u)
                walks[length + u] = walks.get(length + u, 0.0) + Q * m
    terms = np.array(closed_weight) * t * eval_time(tf, t * np.array(closed_length))
    return len(g.vertices) - len(g.edges) + math.fsum(terms.tolist())


def trace_check(
    g: MetricGraph, tf: TestFunction, t: float, s: Spectrum
) -> tuple[float, float, float, float]:
    """Compare both sides of the trace identity on a finite spectrum.

    Returns (lhs, rhs, gap, certified_bound): lhs is the geometric orbit sum,
    rhs the spectral sum over every supplied eigenfrequency, gap their
    absolute difference, and certified_bound the estimator's certified_bound
    for the n supplied values; the identity holds iff gap <= certified_bound.
    Raises PlanError when the spectrum is too short for the tail bound.
    """
    if not 0.0 < t < math.inf:
        raise ValueError("t must be positive and finite")
    certified = certified_bound(tf, len(s.values), len(g.vertices), g.total_length(), t, s.tol)
    lhs = orbit_side(g, tf, t)
    rhs = truncated_sum(s, tf, t, len(s.values))
    return lhs, rhs, abs(lhs - rhs), certified
