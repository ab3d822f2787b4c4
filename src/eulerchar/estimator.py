"""Truncated spectral sums, noise injection, and integer recovery of chi.

The estimator evaluates S_J(t) = 2 f_hat(0) + 2 sum_{j=2..J} Re f_hat(k_j/t)
over the first J eigenfrequencies (the zero mode occupies slot j = 1 and
contributes the constant 2 analytically). When t is at most the reciprocal of
the shortest periodic orbit, every orbit term of the trace identity vanishes
and S_J(t) converges to chi as J grows; rounding to the nearest integer then
recovers chi exactly once the certified bound drops below 1/2.

``certified_bound`` (tail bound from the priors M and L plus 2 tol J / t) is
the one place that writes that bound and decides where it applies; ``certify``
pairs it with the sum in an ``Estimate``, certified iff the bound is below 1/2.

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

from .planner import PlanError, RecoveryPlan, tail_envelope
from .spectrum import Spectrum
from .testfn import TestFunction, cosine_power, re_fourier

__all__ = [
    "NoiseModel",
    "Estimate",
    "truncated_sum",
    "certified_bound",
    "certify",
    "perturb_spectrum",
    "recover_chi",
    "nint",
]

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


def certified_bound(tf: TestFunction, J: int, M: float, L: float, t: float, tol: float) -> float:
    """Certified bound on |S_J(t) - chi| from the priors M (vertices) and L (length).

    The tail envelope beyond J, which raises PlanError where it does not apply
    (J - M <= 2 L t d, or J <= M for the tent), plus 2 tol J / t, the most a
    per-value error of tol moves the J terms, as |d/dk Re f_hat(k / t)| <= 1 / t.
    """
    if not 0.0 <= M < math.inf:
        raise PlanError(f"M must be finite and nonnegative, got {M!r}")
    if not 0.0 < L < math.inf:
        raise PlanError(f"L must be positive and finite, got {L!r}")
    return tail_envelope(tf, J - M, L * t) + 2.0 * tol * J / t


@dataclass(frozen=True)
class Estimate:
    """A truncated sum S, its nearest integer chi_hat, and the bound on |S - chi|."""

    S: float
    chi_hat: int
    bound: float

    @property
    def certified(self) -> bool:
        """chi_hat is the only integer within the bound of S (never for a NaN bound)."""
        return self.bound < 0.5


def certify(s: Spectrum, tf: TestFunction, t: float, J: int,
            M: float | None, L: float | None) -> Estimate:
    """S_J(t) over s with its certified bound, or a NaN bound when M or L is None."""
    bound = math.nan if M is None or L is None else certified_bound(tf, J, M, L, t, s.tol)
    S = truncated_sum(s, tf, t, J)
    return Estimate(S, nint(S), bound)


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

    The nearest integer to the plan's truncated sum. Raises ValueError unless
    the certified bound from the plan's priors and the spectrum's tol is below
    1/2, which holds for every tol up to the plan's delta_max.
    """
    est = certify(s, cosine_power(plan.d), plan.t, plan.J, plan.M_bar, plan.L_bar)
    if not est.certified:
        raise ValueError(f"bound {est.bound:.3g} at tol {s.tol:.3g} is not below 1/2: uncertified")
    return est.chi_hat
