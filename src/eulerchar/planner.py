"""Truncation error bounds and optimal recovery parameters.

Everything here is closed-form arithmetic on prior bounds about an unknown
graph: M_bar bounds the vertex count, L_bar the total length, lmin_lower the
shortest periodic orbit. From those the planner certifies how many
eigenfrequencies J and which test function order d make a truncated trace sum
land within eps_bar of the Euler characteristic, and how much per-eigenvalue
noise the nearest-integer rounding then survives.

The central quantities:

* ``tail_bound(d, x, Lt)``: certified bound on the absolute tail of the
  truncated sum for the order-d cosine power, with x = J - M.
* ``epsilon(mu, gamma, alpha, beta)``: smooth (Stirling-relaxed) upper
  envelope of tail_bound used for optimization; it only enlarges the bound.
* ``beta_continuous``: the exact real solution of epsilon(...) = eps_bar.
* ``alpha_star``: the real order minimizing beta_continuous, via the Lambert
  W value W(1) computed in-repo by Newton iteration.
* ``optimal_plan``: the integer minimizer (d*, J*) plus the admissible noise
  half-width delta_max = t/(8 J*).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .spectrum import Spectrum

__all__ = [
    "PlanError",
    "RecoveryPlan",
    "lambert_w_unit",
    "tail_bound",
    "triangular_tail",
    "tail_envelope",
    "epsilon",
    "beta_continuous",
    "alpha_star",
    "optimal_plan",
    "j_min",
    "length_bound",
]


class PlanError(ValueError):
    """Raised when plan inputs leave the certified domain of a bound."""


@dataclass(frozen=True)
class RecoveryPlan:
    """A certified recipe for recovering chi from J eigenfrequencies.

    t is the time scaling (1/lmin_lower, the largest scale whose test function
    support excludes every periodic orbit), d the cosine power order, J the
    number of eigenfrequencies counting the zero mode, delta_max the noise
    half-width under which nearest-integer rounding still recovers chi.
    alpha_star, beta, and eps_value record the continuous optimum and the
    certifying bound value at (d, J). The fields are declared in the order
    `eulerchar plan` prints them.
    """

    eps_bar: float
    M_bar: float
    L_bar: float
    lmin_lower: float
    t: float
    rho: float
    alpha_star: float
    d: int
    J: int
    beta: float
    delta_max: float
    eps_value: float


def lambert_w_unit() -> float:
    """W(1), the solution of w e^w = 1, by Newton iteration to 1e-15."""
    w = 0.5
    for _ in range(60):
        ew = math.exp(w)
        step = (w * ew - 1.0) / (ew * (1.0 + w))
        w -= step
        if abs(step) <= 1e-15:
            break
    return w


def tail_bound(d: int, x: float, Lt: float) -> float:
    """Certified tail bound (d!)^2 (2Lt)^(2d+1) / (2 pi d (x - 2Lt d)^(2d)).

    x = J - M is the eigenvalue budget beyond the vertex-count prior; the
    bound requires x > 2 Lt d, is strictly decreasing in x and increasing
    in Lt, and dominates the absolute truncation remainder of the order-d
    cosine power sum.
    """
    if d < 1:
        raise PlanError("order d must be a positive integer")
    if Lt <= 0.0:
        raise PlanError("Lt must be positive")
    if x <= 2.0 * Lt * d:
        raise PlanError(f"tail bound needs J - M > 2 L t d = {2.0 * Lt * d:.6g}, got J - M = {x:.6g}")
    try:
        fact2 = float(math.factorial(d)) ** 2
        return fact2 * (2.0 * Lt) ** (2 * d + 1) / (2.0 * math.pi * d * (x - 2.0 * Lt * d) ** (2 * d))
    except OverflowError:
        raise PlanError(f"tail bound overflows a float at d = {d}, x = {x:.6g}, Lt = {Lt:.6g}") from None


def triangular_tail(x: float, Lt: float) -> float:
    """Tail bound 32 (Lt)^2 / (pi^2 x) for the triangular test function.

    Comes from summing the 16/k^2 majorant over the Weyl lower bound
    k_j >= (j - M) pi / L; much slower decay than any cosine power, which is
    the point of the comparison experiments.
    """
    if Lt <= 0.0:
        raise PlanError("Lt must be positive")
    if x <= 0.0:
        raise PlanError(f"triangular tail needs J - M > 0, got J - M = {x:.6g}")
    return 32.0 * Lt * Lt / (math.pi * math.pi * x)


def tail_envelope(tf, x: float, Lt: float) -> float:
    """Dispatch the certified tail bound for either test function family."""
    if tf.kind == "triangular":
        return triangular_tail(x, Lt)
    return tail_bound(tf.d, x, Lt)


def epsilon(mu: float, gamma: float, alpha: float, beta: float) -> float:
    """Smooth envelope alpha^2a e^(-2a+1/6) gamma^(2a+1) / (beta-mu-gamma*a)^2a.

    (a = alpha.) Replaces the factorial in tail_bound by its Stirling upper
    bound, so epsilon >= tail_bound at matched arguments (mu=M, gamma=2Lt,
    alpha=d, beta=J) and is monotone in beta, which makes the continuous
    optimization solvable in closed form.
    """
    if alpha <= 0.0 or gamma <= 0.0:
        raise PlanError("epsilon needs alpha > 0 and gamma > 0")
    if beta <= mu + gamma * alpha:
        raise PlanError(
            f"epsilon needs beta > mu + gamma*alpha = {mu + gamma * alpha:.6g}, got {beta:.6g}"
        )
    try:
        return (
            alpha ** (2.0 * alpha)
            * math.exp(-2.0 * alpha + 1.0 / 6.0)
            * gamma ** (2.0 * alpha + 1.0)
            / (beta - mu - gamma * alpha) ** (2.0 * alpha)
        )
    except OverflowError:
        raise PlanError(f"epsilon overflows a float at mu = {mu:.6g}, gamma = {gamma:.6g}, "
                        f"alpha = {alpha:.6g}, beta = {beta:.6g}") from None


def beta_continuous(eps_bar: float, M: float, rho: float, alpha: float) -> float:
    """The unique beta > M + rho*alpha with epsilon(M, rho, alpha, beta) = eps_bar, if finite."""
    if not 0.0 < eps_bar < 1.0:
        raise PlanError("eps_bar must lie in (0, 1)")
    if alpha <= 0.0 or rho <= 0.0:
        raise PlanError("beta_continuous needs alpha > 0 and rho > 0")
    beta = M + rho * alpha * (
        1.0 + math.exp(-1.0) * (math.exp(1.0 / 6.0) * rho / eps_bar) ** (1.0 / (2.0 * alpha))
    )
    if beta == math.inf:
        raise PlanError(f"beta overflows a float at rho = {rho!r}")
    return beta


def alpha_star(eps_bar: float, rho: float) -> float:
    """The real order minimizing beta_continuous in alpha.

    Equals ln(e^(1/6) rho / eps_bar) / (2 (1 + W(1))); requires the log
    argument to exceed 1 so the optimum is positive.
    """
    if rho <= 0.0 or eps_bar <= 0.0:
        raise PlanError("alpha_star needs rho > 0 and eps_bar > 0")
    arg = math.exp(1.0 / 6.0) * rho / eps_bar
    if not 1.0 < arg < math.inf:
        raise PlanError(f"alpha_star needs 1 < e^(1/6) * rho / eps_bar < inf, got rho = {rho!r}")
    return math.log(arg) / (2.0 * (1.0 + lambert_w_unit()))


def optimal_plan(eps_bar: float, M_bar: float, L_bar: float, lmin_lower: float) -> RecoveryPlan:
    """Smallest certified eigenvalue count J* and the order d* achieving it.

    t = 1/lmin_lower and rho = 2 t L_bar are forced by the priors. J* is the
    minimum of ceil(beta_continuous) over the integer orders bracketing
    alpha_star (the floor clamped up to 1); d* is the smallest order in
    1..ceil(alpha_star) attaining J*. delta_max = t/(8 J*) is the noise
    half-width under which recovery is still certified: its noise term
    2 delta_max J / t = 1/4 leaves 1/4 for the tail, so eps_bar <= 1/4.
    """
    if not 0.0 < eps_bar <= 0.25:
        raise PlanError(f"eps_bar must lie in (0, 1/4], got {eps_bar!r}")
    if not 0.0 <= M_bar < math.inf:
        raise PlanError(f"M_bar must be finite and nonnegative, got {M_bar!r}")
    for name, x in (("L_bar", L_bar), ("lmin_lower", lmin_lower)):
        if not 0.0 < x < math.inf:
            raise PlanError(f"{name} must be positive and finite, got {x!r}")
    t = 1.0 / lmin_lower
    rho = 2.0 * t * L_bar
    if rho == math.inf:
        raise PlanError("rho = 2 L_bar / lmin_lower overflows")
    a_star = alpha_star(eps_bar, rho)
    lo = max(1, math.floor(a_star))
    hi = max(1, math.ceil(a_star))

    def ceil_beta(d: int) -> int:
        return math.ceil(beta_continuous(eps_bar, M_bar, rho, d))

    j_star = min(ceil_beta(d) for d in {lo, hi})
    d_star = next(d for d in range(1, hi + 1) if ceil_beta(d) == j_star)
    beta = beta_continuous(eps_bar, M_bar, rho, d_star)
    eps_value = epsilon(M_bar, rho, d_star, j_star)
    if eps_value > eps_bar:
        raise PlanError("internal certification failure: epsilon at the plan exceeds eps_bar")
    return RecoveryPlan(
        eps_bar=eps_bar,
        M_bar=M_bar,
        L_bar=L_bar,
        lmin_lower=lmin_lower,
        t=t,
        rho=rho,
        alpha_star=a_star,
        d=d_star,
        J=j_star,
        beta=beta,
        delta_max=t / (8.0 * j_star),
        eps_value=eps_value,
    )


def j_min(tf, M: float, Lt: float, threshold: float) -> int:
    """Smallest J > M whose certified tail envelope drops below threshold.

    For the order-d cosine power the count also has to clear the domain edge
    J - M > 2 Lt d before the bound applies; for the triangular function the
    envelope is valid for any J > M. Always terminates since both envelopes
    decrease to zero.
    """
    if not 0.0 < threshold < 1.0:
        raise PlanError("threshold must lie in (0, 1)")
    if tf.kind == "triangular":
        start = math.floor(M) + 1
    else:
        start = math.floor(M + 2.0 * Lt * tf.d) + 1
    J = max(start, math.floor(M) + 1)
    while True:
        x = J - M
        if (tf.kind == "triangular" or x > 2.0 * Lt * tf.d) and tail_envelope(tf, x, Lt) < threshold:
            return J
        J += 1


def length_bound(N_bar: int, s: "Spectrum", J: int) -> float:
    """Upper bound on the total length from the first J eigenfrequencies.

    With N_bar an upper bound on the edge count, Weyl counting gives
    L <= (j + N_bar) pi / k_j for every j >= 2, and the minimum over
    j = 2..J is returned. Useful when no length prior is available.
    """
    if J < 2:
        raise PlanError("length_bound needs J >= 2")
    if s.array.size < J:
        raise PlanError(f"spectrum has {s.array.size} values, need {J}")
    if s.array[1] <= 0.0:
        raise PlanError("length_bound needs k_2 > 0")
    return min((j + N_bar) * math.pi / k for j, k in enumerate(s.array[1:J].tolist(), start=2))
