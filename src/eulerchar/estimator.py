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

Each sweep takes one array evaluation of the transform over all its terms: over
all time scalings t, truncations J or noise models at once; each sum adds its
terms with math.fsum, whose correctly rounded result does not depend on their
order. The tests hold the sums bit for bit equal to one scalar call per term.

Noise is uniform on [-delta, +delta] per positive eigenfrequency, generated
by an in-repo 64-bit mixing recurrence (the SplitMix64 finalizer) so that
identical seeds give byte-identical spectra on every platform; numpy's
generators make no such cross-version promise. The recurrence runs in exact
np.uint64 arithmetic over all (seed, index) pairs in one array pass; the tests
hold it bit for bit equal to the same steps on Python integers.
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
    "certify_perturbed",
    "perturb_spectrum",
    "recover_chi",
    "nint",
]

# SplitMix64 in np.uint64, whose arithmetic wraps mod 2^64. Every operand is
# a np.uint64: numpy 1.22 turns uint64 mixed with a Python int into float64.
_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


@dataclass(frozen=True)
class NoiseModel:
    """Uniform perturbation of half-width delta, reproducible from seed."""

    delta: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta < math.inf:
            raise ValueError("delta must be finite and nonnegative")

    def sample(self, j: int | np.ndarray) -> float | np.ndarray:
        """The perturbation of the j-th eigenfrequency (1-based), in [-delta, delta].

        j may be an array of indices, which gives an array in one pass; a
        scalar j gives a float. Each sample mixes seed and index independently,
        so perturbing a spectrum is order-independent.
        """
        z = np.atleast_1d(np.asarray(j, dtype=np.uint64))
        x = _noise(self.delta, np.uint64(self.seed & _MASK64), z)
        return float(x[0]) if np.ndim(j) == 0 else x


def _noise(delta, seed, j) -> np.ndarray:
    """SplitMix64 of seed and index j (both np.uint64) mapped to [-delta, delta], broadcast."""
    z = seed + (j + np.uint64(1)) * _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    z ^= z >> np.uint64(31)
    u = (z >> np.uint64(11)).astype(float) * 2.0**-53
    return delta * (2.0 * u - 1.0)


def _perturbed(values: tuple[float, ...], models: list[NoiseModel]) -> np.ndarray:
    """One row of values per model: noise on each positive k_j (j >= 2), clamped at 0, sorted."""
    seeds = np.array([m.seed & _MASK64 for m in models], dtype=np.uint64)[:, None]
    deltas = np.array([m.delta for m in models])[:, None]
    k = np.array(values[1:])
    noise = _noise(deltas, seeds, np.arange(2, k.size + 2, dtype=np.uint64))
    noisy = np.where(k > 0.0, np.maximum(0.0, k + noise), k)
    return np.sort(np.concatenate((np.full((len(models), 1), values[0]), noisy), axis=1), axis=1)


def nint(x: float) -> int:
    """Nearest integer, halves rounded away from zero."""
    return int(math.floor(x + 0.5)) if x >= 0.0 else int(math.ceil(x - 0.5))


def truncated_sum(
    s: Spectrum, tf: TestFunction, t: float | np.ndarray, J: int | np.ndarray
) -> float | np.ndarray:
    """S_J(t) over the first J eigenfrequencies of s, for a scalar or a 1-D array of t and of J.

    The j = 1 slot is the exact zero mode: 2 f_hat(0) is exactly 2 for every
    test function, so it adds the literal 2.0. The rest add 2 Re f_hat(k_j / t),
    all from one array evaluation of the transform at the largest J, on the
    (len(t), J - 1) grid when t is an array; each J then adds its prefix of the
    terms with math.fsum, so the result is independent of the order or chunking
    of the evaluation. The result is a float for scalar t and J, else an array
    of shape t.shape + J.shape. Each t must be positive and finite, each J in
    1..len(s.values), and k_J / t finite.
    """
    return _truncated_sums(np.array(s.values), tf, t, J)


def _truncated_sums(values: np.ndarray, tf: TestFunction, t, J) -> float | np.ndarray:
    """truncated_sum over each row of values, of shape values.shape[:-1] + t.shape + J.shape."""
    ts, Js = np.asarray(t, dtype=float), np.asarray(J)
    if ts.ndim > 1 or Js.ndim > 1:
        raise ValueError("t and J must be scalars or 1-D arrays")
    if not np.all((ts > 0.0) & (ts < math.inf)):
        raise ValueError("t must be positive and finite")
    if np.any(Js < 1):
        raise ValueError("J must be at least 1")
    J_max = int(Js.max(initial=1))
    if values.shape[-1] < J_max:
        raise ValueError(f"spectrum has {values.shape[-1]} values, need J = {J_max}")
    k = values[..., 1:J_max]
    k_J = k[..., -1].max() if k.size else 0.0
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(k_J / ts)):
            raise ValueError(f"k_J / t overflows a float: t is too small for k_J = {k_J:.6g}")
    terms = re_fourier(tf, k[..., None, :] / ts.reshape(-1, 1))
    rows = terms.reshape(math.prod(terms.shape[:-1]), J_max - 1).tolist()
    sums = [[2.0 + 2.0 * math.fsum(row[:j - 1]) for j in Js.ravel().tolist()] for row in rows]
    out = np.array(sums).reshape(values.shape[:-1] + ts.shape + Js.shape)
    return float(out) if out.ndim == 0 else out


def certified_bound(tf: TestFunction, J: int, M: float, L: float, t: float,
                    tol: float | np.ndarray) -> float | np.ndarray:
    """Certified bound on |S_J(t) - chi| from the priors M (vertices) and L (length).

    The tail envelope beyond J, which raises PlanError where it does not apply
    (J - M <= 2 L t d, or J <= M for the tent), plus 2 tol J / t, the most a
    per-value error of tol moves the J terms, as |d/dk Re f_hat(k / t)| <= 1 / t.
    Elementwise in tol: an array of tol gives an array of bounds.
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


def certify_perturbed(s: Spectrum, tf: TestFunction, t: float, J: int, M: float | None,
                      L: float | None, models: list[NoiseModel]) -> list[Estimate]:
    """[certify(perturb_spectrum(s, m), tf, t, J, M, L) for m in models], bit for bit.

    The noise of every model comes from one (models, index) grid and the sums
    from one (models, J - 1) evaluation of the transform; the bounds come from
    one certified_bound call over the models' tol, so the tail is evaluated once.
    """
    if M is None or L is None or not models:
        bounds = [math.nan] * len(models)
    else:
        bounds = certified_bound(tf, J, M, L, t, s.tol + np.array([m.delta for m in models])).tolist()
    sums = _truncated_sums(_perturbed(s.values, models), tf, t, J).tolist()
    return [Estimate(S, nint(S), bound) for S, bound in zip(sums, bounds)]


def perturb_spectrum(s: Spectrum, noise: NoiseModel) -> Spectrum:
    """Add independent uniform noise to every positive eigenfrequency.

    The zero mode is structurally exact and never perturbed. Results are
    clamped at 0 and re-sorted; the provenance becomes `external` and tol
    grows by delta, which is the guarantee |k_noisy - k| <= delta callers
    should rely on. certify_perturbed draws the same noise for many models.
    """
    values = _perturbed(s.values, [noise])[0]
    return Spectrum(tuple(values.tolist()), s.k_max_covered, "external", s.tol + noise.delta)


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
