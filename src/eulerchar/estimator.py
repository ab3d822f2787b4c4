"""Truncated spectral sums, noise injection, and integer recovery of chi.

The estimator evaluates S_J(t) = 2 f_hat(0) + 2 sum_{j=2..J} Re f_hat(k_j/t)
over the first J eigenfrequencies (the zero mode occupies slot j = 1 and
contributes the constant 2 analytically). When t is at most the reciprocal of
the shortest periodic orbit, every orbit term of the trace identity vanishes
and S_J(t) converges to chi as J grows; rounding to the nearest integer then
recovers chi exactly once the certified tail bound drops below 1/2.

Each sum takes one array evaluation of the transform over all its terms (and
over all time scalings of a sweep); the terms are then added with math.fsum,
whose correctly rounded result does not depend on their order. The tests hold
the sums bit for bit equal to one scalar transform call per term.

Noise is uniform on [-delta, +delta] per positive eigenfrequency, generated
by an in-repo 64-bit mixing recurrence (the SplitMix64 finalizer) so that
identical seeds give byte-identical spectra on every platform; numpy's
generators make no such cross-version promise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .planner import RecoveryPlan, tail_bound
from .spectrum import Spectrum
from .testfn import TestFunction, cosine_power, re_fourier

__all__ = [
    "NoiseModel",
    "truncated_sum",
    "estimate_bound",
    "tol_exceeds_plan",
    "perturb_spectrum",
    "recover_chi",
    "nint",
]

# Tolerance allowance for the numerical error of computed spectra stacked on
# top of the noise half-width when checking a plan's delta_max.
_TOL_SLACK = 1e-9

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


@dataclass(frozen=True)
class NoiseModel:
    """Uniform perturbation of half-width delta, reproducible from seed."""

    delta: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.delta < 0.0:
            raise ValueError("delta must be nonnegative")

    def sample(self, j: int) -> float:
        """The perturbation of the j-th eigenfrequency (1-based), in [-delta, delta].

        Each sample mixes seed and index independently, so perturbing a
        spectrum is order-independent and trivially parallel.
        """
        z = (self.seed + (j + 1) * _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        z = z ^ (z >> 31)
        u = (z >> 11) * 2.0**-53
        return self.delta * (2.0 * u - 1.0)


def nint(x: float) -> int:
    """Nearest integer, halves rounded away from zero."""
    return int(math.floor(x + 0.5)) if x >= 0.0 else int(math.ceil(x - 0.5))


def truncated_sum(
    s: Spectrum, tf: TestFunction, t: float | np.ndarray, J: int
) -> float | np.ndarray:
    """S_J(t) over the first J eigenfrequencies of s, for a scalar t or a 1-D array of t.

    The j = 1 slot is the exact zero mode contributing 2 f_hat(0) = 2; the
    rest add 2 Re f_hat(k_j / t). All terms come from one array evaluation of
    the transform, on the (len(t), J - 1) grid when t is an array, and each
    sum adds them with math.fsum, so the result is independent of the order
    or chunking of the evaluation. An array t gives an array of sums.
    """
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ValueError("t must be a scalar or a 1-D array")
    if not np.all(ts > 0.0):
        raise ValueError("t must be positive")
    if J < 1:
        raise ValueError("J must be at least 1")
    if len(s.values) < J:
        raise ValueError(f"spectrum has {len(s.values)} values, need J = {J}")
    k = np.asarray(s.values[1:J], dtype=float)
    terms = re_fourier(tf, k / ts[..., None])
    head = 2.0 * re_fourier(tf, 0.0)
    sums = [head + 2.0 * math.fsum(row) for row in np.atleast_2d(terms).tolist()]
    return sums[0] if ts.ndim == 0 else np.array(sums)


def estimate_bound(d: int, J: int, M: float, Lt: float, t: float, tol: float) -> float:
    """Certified bound on |S_J(t) - chi| for the order-d cosine power.

    The tail bound of the values beyond J (with vertex prior M and Lt = L t)
    plus 2 tol J / t, the most that a per-value error of tol can move the J
    terms, since |d/dk Re f_hat(k / t)| <= 1 / t.
    """
    return tail_bound(d, J - M, Lt) + 2.0 * tol * J / t


def tol_exceeds_plan(s: Spectrum, plan: RecoveryPlan) -> bool:
    """Whether the spectrum's tol is more per-value error than the plan certifies."""
    return s.tol > plan.delta_max + _TOL_SLACK


def perturb_spectrum(s: Spectrum, noise: NoiseModel) -> Spectrum:
    """Add independent uniform noise to every positive eigenfrequency.

    The zero mode is structurally exact and never perturbed. Results are
    clamped at 0 and re-sorted; the provenance becomes `external` and tol
    grows by delta, which is the guarantee |k_noisy - k| <= delta callers
    should rely on.
    """
    values = [s.values[0]]
    for j, k in enumerate(s.values[1:], start=2):
        if k > 0.0:
            values.append(max(0.0, k + noise.sample(j)))
        else:
            values.append(k)
    values.sort()
    return Spectrum(tuple(values), s.k_max_covered, "external", s.tol + noise.delta)


def recover_chi(s: Spectrum, plan: RecoveryPlan) -> int:
    """Recover the Euler characteristic following a certified plan.

    Evaluates the truncated sum with the plan's cosine power order, time
    scaling, and eigenfrequency count, then rounds to the nearest integer.
    The spectrum's tol must not exceed the plan's delta_max (plus a small
    allowance for the numerical tolerance of computed spectra), since the
    certification covers exactly that much per-value error.
    """
    if len(s.values) < plan.J:
        raise ValueError(f"plan needs J = {plan.J} eigenfrequencies, spectrum has {len(s.values)}")
    if tol_exceeds_plan(s, plan):
        raise ValueError(
            f"spectrum tolerance {s.tol:.3g} exceeds the plan's delta_max = "
            f"{plan.delta_max:.3g}; recovery is not certified"
        )
    return nint(truncated_sum(s, cosine_power(plan.d), plan.t, plan.J))
