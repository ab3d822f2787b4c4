"""Compactly supported test functions and the real parts of their Fourier transforms.

Two families of probability densities on [0, 1], one shared instance per order:

* ``triangular()``: the tent of height 2 centered at 1/2. Its transform decays
  like 1/k^2, which is enough for convergence experiments but too slow for
  sharp truncation bounds.
* ``cosine_power(d)``: c_d (1 - cos 2 pi l)^d on [0, 1], d >= 1. The transform
  decays like 1/k^(2d+1), which is what makes short truncated sums work.

Transforms follow the convention f_hat(k) = integral f(l) exp(i k l) dl, so
f_hat(0) = 1 for both families. f is real, so the spectral side of the trace
formula adds only Re f_hat, which ``re_fourier`` gives in closed form. For the
cosine power that is a quotient whose 2d + 1 factors are multiplied in one pass,
and a limit form on the few arguments inside its windows, found by one bound on
that product and evaluated one by one on Python floats. All evaluators accept
scalars or numpy arrays and return matching shapes; a scalar gets the same bits
as in an array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TestFunction",
    "triangular",
    "cosine_power",
    "normalization",
    "eval_time",
    "re_fourier",
    "majorant",
    "MAX_POWER",
]

MAX_POWER = 12

# The limit form's window about each zero k = 2 pi m; per order d, B_d bounds the product there.
_SINGULAR_WINDOW = 1e-4
_WINDOW_BOUND = tuple(1.6e-5 * math.factorial(2 * d) for d in range(MAX_POWER + 1))


@dataclass(frozen=True)
class TestFunction:
    """A test function identified by family kind and, for cosine powers, order d."""

    # Keep pytest from collecting this class when imported into test modules.
    __test__ = False

    kind: str
    d: int = 0

    def __post_init__(self) -> None:
        if self.kind == "triangular":
            if self.d != 0:
                raise ValueError("triangular test function takes no order")
        elif self.kind == "cosine-power":
            if not 1 <= self.d <= MAX_POWER:
                raise ValueError(f"cosine power order must be in 1..{MAX_POWER}, got {self.d}")
        else:
            raise ValueError(f"unknown test function kind {self.kind!r}")

    @property
    def c_d(self) -> float:
        """Normalization constant (1 for the tent, which is already a density)."""
        return 1.0 if self.kind == "triangular" else normalization(self.d)

    def label(self) -> str:
        return "triangular" if self.kind == "triangular" else f"cosine-power d={self.d}"


@functools.cache
def triangular() -> TestFunction:
    return TestFunction("triangular")


@functools.lru_cache(maxsize=None, typed=True)  # typed: cosine_power(1.0) keeps its d = 1.0
def cosine_power(d: int) -> TestFunction:
    return TestFunction("cosine-power", d)


def normalization(d: int) -> float:
    """c_d = 2^d (d!)^2 / (2d)!, making (1 - cos 2 pi l)^d integrate to 1.

    Computed in exact integer arithmetic, then converted; exact conversion is
    guaranteed well past the supported range of d.
    """
    if d < 1:
        raise ValueError("normalization is defined for d >= 1")
    f = math.factorial(d)
    return 2**d * f * f / math.factorial(2 * d)


def _sinc(u: np.ndarray) -> np.ndarray:
    """sin(u)/u; where |u| < 1e-8 (u = 0 included) its Taylor term 1 - u^2/6, which rounds to 1."""
    return np.divide(np.sin(u), u, out=np.ones(u.shape), where=np.abs(u) >= 1e-8)


def eval_time(tf: TestFunction, ell) -> np.ndarray | float:
    """Evaluate the test function itself at length(s) ell (zero outside [0, 1])."""
    arr = np.array(ell, dtype=float, ndmin=1)
    inside = (arr > 0.0) & (arr < 1.0)
    if tf.kind == "triangular":
        vals = np.where(inside, 2.0 - 4.0 * np.abs(arr - 0.5), 0.0)
    else:
        vals = np.where(inside, tf.c_d * (1.0 - np.cos(2.0 * math.pi * arr)) ** tf.d, 0.0)
    return vals if np.ndim(ell) else float(vals[0])


def _cosine_power_fourier(d: int, k: np.ndarray):
    """Closed-form real part of the transform of the order-d cosine power.

    Off the integer lattice it is the quotient (-1)^d (d!)^2 sin(k) / (2 pi full), full =
    prod_{j=-d..d}(x + j) at x = k/2pi, in one in-place pass. At a window point, |m| <= d and
    |u| < 1e-4 for m = rint(x), u = k - 2 pi m, the limit form cancels x - m against sin(k); the
    two agree to 1e-12 at the window's edge. There |full| < B_d = 1.6e-5 (2d)!: u and x - m are
    exact (Sterbenz), |x - m| <= (|u| + 2^-53 |2 pi m|) / 2 pi + 2^-53 |x| < 1.5916e-5, the
    other factors are at most |m + j| (1 + 1.5916e-5) before rounding, with prod |m + j| =
    (d + m)! (d - m)! <= (2d)!, and after 4d roundings |full| <= 1.5916e-5 (1 + 1.5916e-5)^24
    (1 + 2^-53)^48 (2d)! < 1.5923e-5 (2d)! < B_d, rounded too. Arguments under B_d take the
    exact test in the same IEEE steps on Python floats; a window point's reduced product runs
    left to right, (-1)^m for x - m, and cos(k/2) and sin(u/2) take one numpy call each, so
    both forms keep the bits of a per-factor loop.
    """
    c = (-1.0 if d % 2 else 1.0) * float(math.factorial(d)) ** 2
    x = k / (2.0 * math.pi)
    # Where full, or 2 pi times it, overflows the quotient is 0, the exact term below
    # (d!)^2 / 2^1024 < 1e-290. full is 0 only at a window point, whose quotient is replaced.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        full = x - d
        for j in range(1 - d, d + 1):
            full *= x + j if j else x  # x + 0 differs from x only at x = -0, a window point
        smooth = c * np.sin(k) / (2.0 * math.pi * full)
    at = np.nonzero(np.abs(full, out=full) < _WINDOW_BOUND[d])
    if not at[0].size:
        return smooth
    two_pi, pts = 2.0 * math.pi, []
    for i, ki in enumerate(k[at].tolist()):
        xi = ki / two_pi
        m = round(xi)  # half to even, as np.rint
        u = ki - two_pi * m
        if abs(u) < _SINGULAR_WINDOW and abs(m) <= d:
            factors = [xi + j for j in range(-d, d + 1)]
            factors[d - m] = -1.0 if m % 2 else 1.0
            pts.append((i, ki / 2.0, u / 2.0, math.prod(factors)))
    if pts:  # written back by index, in the order of smooth[mask], whatever the layout of k
        keep, k_half, u_half, reduced = zip(*pts)
        at = at if len(keep) == at[0].size else tuple(a[list(keep)] for a in at)
        smooth[at] = [c * ck * (su / h if abs(h) >= 1e-8 else 1.0) / p for ck, su, h, p
                      in zip(np.cos(k_half).tolist(), np.sin(u_half).tolist(), u_half, reduced)]
    return smooth


def re_fourier(tf: TestFunction, k) -> np.ndarray | float:
    """Re f_hat(k) = integral_0^1 f(l) cos(kl) dl, the quantity the truncated sums add up."""
    arr = np.atleast_1d(np.asarray(k, dtype=float))  # a float64 array as it is, never written
    if tf.kind == "triangular":
        vals = np.cos(arr / 2.0) * _sinc(arr / 4.0) ** 2
    else:
        vals = _cosine_power_fourier(tf.d, arr)
    return vals if np.ndim(k) else float(vals[0])


def majorant(tf: TestFunction, k) -> np.ndarray | float:
    """A nonincreasing bound dominating sup_{y >= k} |Re f_hat(y)| on the decay range.

    For the order-d cosine power the bound is
    (d!)^2 / (2 pi (k/2pi - d)^(2d+1)), valid for k > 2 pi d; asking below
    that threshold raises ValueError since no decay is certified there. For
    the triangular function the bound 16/k^2 holds for all k > 0.
    """
    arr = np.array(k, dtype=float, ndmin=1)
    if tf.kind == "triangular":
        if np.any(arr <= 0.0):
            raise ValueError("triangular majorant requires k > 0")
        vals = 16.0 / arr**2
    else:
        d = tf.d
        edge = 2.0 * math.pi * d
        if np.any(arr <= edge):
            raise ValueError(f"cosine power majorant requires k > 2 pi d = {edge:.6g}")
        fact2 = float(math.factorial(d)) ** 2
        vals = fact2 / (2.0 * math.pi * (arr / (2.0 * math.pi) - d) ** (2 * d + 1))
    return vals if np.ndim(k) else float(vals[0])
