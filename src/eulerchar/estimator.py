"""Truncated spectral sums, noise injection, and integer recovery of chi.

The estimator evaluates S_J(t) = 2 f_hat(0) + 2 sum_{j=2..J} Re f_hat(k_j/t)
over the first J eigenfrequencies (the zero mode occupies slot j = 1 and
contributes the constant 2 analytically). When t is at most the reciprocal of
the shortest periodic orbit, every orbit term of the trace identity vanishes
and S_J(t) converges to chi as J grows; rounding to the nearest integer then
recovers chi exactly once the certified bound drops below 1/2.

``certified_bound`` (tail bound from the priors M and L plus 2 tol J / t) is
the one place that writes that bound and decides where it applies; it refuses a
tol that is not finite and nonnegative before any arithmetic. ``certify`` is the
one pairing of a sum with that bound, in an ``Estimate``, certified iff the
bound is below 1/2: recoveries, ``estimate`` and the trace check
(``orbits.trace_check``) all certify through it, and ``certify_perturbed`` is
its bit-for-bit batch over noise models. ``_check_t_and_J`` holds the rule for
t and J that the sum, the bound and the orbit side share.

Each sweep takes one array evaluation of the transform over all its terms: over
all time scalings t, truncations J or noise models at once; each sum adds its
terms with math.fsum, whose correctly rounded result does not depend on their
order; a recovery's Python float t and int J are checked as Python numbers. The
tests hold the sums bit for bit equal to one scalar call per term and to arrays.

Noise is uniform on [-delta, +delta] per positive eigenfrequency, generated
by an in-repo 64-bit mixing recurrence (the SplitMix64 finalizer) so that
identical seeds give byte-identical spectra on every platform; numpy's
generators make no such cross-version promise. The recurrence runs in exact
np.uint64 arithmetic over all (seed, index) pairs in one pass, from shared index
steps; the tests hold it bit for bit equal to the same steps on Python integers.
Noise enters a listing only through ``_perturbed``, which first refuses a delta
that overflows the largest value or tol.
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

# SplitMix64 in np.uint64, whose arithmetic wraps mod 2^64. Every operand is a 0-d np.uint64
# array: numpy 1.22 turns uint64 mixed with a Python int into float64, a numpy scalar is slower.
_MASK64 = (1 << 64) - 1
_GOLDEN, _MIX1, _MIX2, _S11, _S27, _S30, _S31 = (np.array(n, np.uint64) for n in (
    0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 11, 27, 30, 31))
# (j + 1) golden mod 2^64 at j = 1, 2, ...: read-only, grown to the longest listing and sliced.
_steps = np.empty(0, np.uint64)


@dataclass(frozen=True)
class NoiseModel:
    """Uniform perturbation of half-width delta, reproducible from seed."""

    delta: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta < math.inf:
            raise ValueError("delta must be finite and nonnegative")


def _noise(delta, seed, steps) -> np.ndarray:
    """SplitMix64 of seed (np.uint64) at (j + 1) golden, mapped to [-delta, delta], broadcast."""
    z = seed + steps
    z ^= z >> _S30
    z *= _MIX1
    z ^= z >> _S27
    z *= _MIX2
    z ^= z >> _S31
    # 2 u - 1 for u = (z >> 11) 2^-53: z >> 11 < 2^53 is a float exactly, and so is 2^-52 times it.
    return delta * ((z >> _S11) * 2.0**-52 - 1.0)


def _perturbed(s: Spectrum, models: list[NoiseModel]) -> np.ndarray:
    """One row of s's values per model: noise j on each positive k_j, clamped at 0, sorted in place,
    after refusing the first delta whose sum with s's largest value or tol overflows a float."""
    global _steps
    k, k_last, tol = s.array, float(s.array[-1]), s.tol
    bad = [m.delta for m in models if not (k_last + m.delta < math.inf and tol + m.delta < math.inf)]
    if bad:
        raise ValueError(f"delta = {bad[0]:.6g} overflows the largest value {k_last:.6g} or tol")
    steps = _steps  # one read, so a concurrent call that grows it cannot shorten this one's
    if steps.size < k.size:
        steps = _steps = np.arange(2, k.size + 2, dtype=np.uint64) * _GOLDEN
        steps.flags.writeable = False
    if len(models) == 1:
        seeds, deltas = np.array(models[0].seed & _MASK64, np.uint64), models[0].delta
    else:
        seeds = np.array([m.seed & _MASK64 for m in models], dtype=np.uint64)[:, None]
        deltas = np.array([m.delta for m in models])[:, None]
    x = _noise(deltas, seeds, steps[:k.size])
    x += k
    np.maximum(x, 0.0, out=x)
    np.copyto(x, k, where=k <= 0.0)
    x.sort(axis=-1)
    return x.reshape(len(models), k.size)


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
    of shape t.shape + J.shape. It refuses a t that is not positive and finite, a
    J outside 1..s.array.size and an infinite k_J / t.
    """
    return _truncated_sums(s.array, tf, t, J)


def _check_t_and_J(tl: list, js: list) -> None:
    """The sum's checks of t and J, on their values as lists of Python numbers."""
    if not all(0.0 < x < math.inf for x in tl):
        raise ValueError("t must be positive and finite")
    if min(js, default=1) < 1:
        raise ValueError("J must be at least 1")


def _truncated_sums(values: np.ndarray, tf: TestFunction, t, J) -> float | np.ndarray:
    """truncated_sum over each row of values, of shape values.shape[:-1] + t.shape + J.shape."""
    if type(t) is float and type(J) is int:  # the recover path's t and J, checked as Python numbers
        tl, js, t_col, shape = [t], [J], t, values.shape[:-1]
    else:
        ts, Js = np.asarray(t, dtype=float), np.asarray(J)
        if ts.ndim > 1 or Js.ndim > 1:
            raise ValueError("t and J must be scalars or 1-D arrays")
        tl, js = ts.ravel().tolist(), Js.ravel().tolist()  # Python numbers check fastest
        # numpy holds an integer beyond 64 bits in an object array.
        if Js.dtype.kind not in "iuO" or not all(type(j) is int for j in js):
            raise ValueError(f"J must be an integer or a 1-D array of integers, got J = {J!r}")
        t_col, shape, values = ts.reshape(-1, 1), values.shape[:-1] + ts.shape + Js.shape, values[..., None, :]
    _check_t_and_J(tl, js)
    J_max = max(js, default=1)
    if values.shape[-1] < J_max:
        raise ValueError(f"spectrum has {values.shape[-1]} values, need J = {J_max}")
    # Rows are sorted, so k_J / t peaks at column J and the smallest t (as inf, no warning).
    k_Js, t_min = values[..., J_max - 1].ravel().tolist(), min(tl, default=math.inf)
    if not math.isfinite(max(k_Js, default=0.0) / t_min):
        k_J = next(k for k in k_Js if not math.isfinite(k / t_min))  # the first row's, as row by row
        raise ValueError(f"k_J / t overflows a float: t is too small for k_J = {k_J:.6g}")
    terms = re_fourier(tf, values[..., 1:J_max] / t_col)
    if not shape:
        return 2.0 + 2.0 * math.fsum(terms.ravel().tolist())
    rows = terms.reshape(math.prod(terms.shape[:-1]), J_max - 1).tolist()
    sums = np.fromiter((math.fsum(row[:j - 1]) for row in rows for j in js), float, len(rows) * len(js))
    sums *= 2.0  # 2 + 2 fsum in place, in the two roundings it takes on Python floats
    sums += 2.0
    return sums.reshape(shape)


def certified_bound(tf: TestFunction, J: int, M: float, L: float, t: float, tol: float) -> float:
    """Certified bound on |S_J(t) - chi| from the priors M (vertices) and L (length).

    The tail envelope beyond J, which raises PlanError where it does not apply
    (J - M <= 2 L t d, or J <= M for the tent), plus 2 tol J / t, the most a
    per-value error of tol moves the J terms, as |d/dk Re f_hat(k / t)| <= 1 / t;
    on Python floats, so a huge tol gives an infinite bound and no warning. A tol
    that is not finite and nonnegative is refused first, with Spectrum's message.
    Where the tail does not apply to a t or J that the sum refuses, the sum's
    ValueError names it.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    if not 0.0 <= M < math.inf:
        raise PlanError(f"M must be finite and nonnegative, got {M!r}")
    if not 0.0 < L < math.inf:
        raise PlanError(f"L must be positive and finite, got {L!r}")
    try:
        return tail_envelope(tf, J - M, L * t) + 2.0 * tol * J / t
    except PlanError:
        _check_t_and_J([t], [J])
        raise


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
    """[certify(perturb_spectrum(s, m), tf, t, J, M, L) for m in models], bit for bit, and so
    are its errors where the models share one delta. The rows are drawn and checked first, in
    one (models, index) grid; then each distinct delta takes one certified_bound call, as certify
    bounds before it sums; then one (models, J - 1) evaluation of the transform sums the rows.
    """
    rows = _perturbed(s, models)
    deltas = () if M is None or L is None else {m.delta for m in models}
    bounds = {delta: certified_bound(tf, J, M, L, t, s.tol + delta) for delta in deltas}
    sums = _truncated_sums(rows, tf, t, J).tolist()
    return [Estimate(S, nint(S), bounds.get(m.delta, math.nan)) for S, m in zip(sums, models)]


def perturb_spectrum(s: Spectrum, noise: NoiseModel) -> Spectrum:
    """Add independent uniform noise to every positive eigenfrequency.

    The zero mode is structurally exact and never perturbed. Results are
    clamped at 0 and re-sorted; the provenance becomes `external` and tol
    grows by delta, which is the guarantee |k_noisy - k| <= delta callers
    should rely on. The noise is _perturbed's row, as in certify_perturbed, so
    a delta that overflows the largest value or tol is refused before any noise.
    """
    # Checked s, noise clamped at 0, k <= 0 copied, sorted; _perturbed keeps k_last + delta finite.
    return Spectrum._of(_perturbed(s, [noise])[0], s.k_max_covered, "external", s.tol + noise.delta)


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
