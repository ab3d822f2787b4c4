"""Compactly supported test functions and their Fourier transforms in closed form.

Two families, both probability densities supported on [0, 1]:

* ``triangular()``: the tent of height 2 centered at 1/2. Its transform decays
  like 1/k^2, which is enough for convergence experiments but too slow for
  sharp truncation bounds.
* ``cosine_power(d)``: c_d (1 - cos 2 pi l)^d on [0, 1], d >= 1. The transform
  decays like 1/k^(2d+1), which is what makes short truncated sums work.

Transforms follow the convention f_hat(k) = integral f(l) exp(i k l) dl, so
f_hat(0) = 1 for both families. All evaluators accept scalars or numpy arrays
and return matching shapes; a scalar gets the same bits as in an array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TestFunction",
    "triangular",
    "cosine_power",
    "normalization",
    "eval_time",
    "fourier",
    "re_fourier",
    "majorant",
    "MAX_POWER",
]

MAX_POWER = 12

# Width of the window around each removable singularity k = 2 pi m inside
# which the transform is evaluated by its limit form instead of the quotient.
_SINGULAR_WINDOW = 1e-4


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
        if self.kind == "triangular":
            return 1.0
        return normalization(self.d)

    def label(self) -> str:
        if self.kind == "triangular":
            return "triangular"
        return f"cosine-power d={self.d}"


def triangular() -> TestFunction:
    return TestFunction("triangular")


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
    num = 2**d * f * f
    den = math.factorial(2 * d)
    return num / den


def _sinc(u: np.ndarray) -> np.ndarray:
    """sin(u)/u with the removable singularity filled by its Taylor series."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < 1e-8
    safe, tiny = np.where(small, 1.0, u), np.where(small, u, 0.0)
    return np.where(small, 1.0 - tiny * tiny / 6.0, np.sin(safe) / safe)


def eval_time(tf: TestFunction, ell) -> np.ndarray | float:
    """Evaluate the test function itself at length(s) ell (zero outside [0, 1])."""
    arr = np.array(ell, dtype=float, ndmin=1)
    inside = (arr > 0.0) & (arr < 1.0)
    if tf.kind == "triangular":
        vals = np.where(inside, 2.0 - 4.0 * np.abs(arr - 0.5), 0.0)
    else:
        vals = np.where(inside, tf.c_d * (1.0 - np.cos(2.0 * math.pi * arr)) ** tf.d, 0.0)
    return vals if np.ndim(ell) else float(vals[0])


def _cosine_power_fourier(d: int, k: np.ndarray, real_only: bool):
    """Closed-form transform of the order-d cosine power.

    Away from the integer lattice the quotient form is
    (-1)^d (d!)^2 exp(ik/2) sin(k/2) / (pi prod_{j=-d..d}(k/2pi + j)); the
    zeros of the product at k = 2 pi m, |m| <= d, are removable and handled by
    cancelling the vanishing factor against the sine inside a small window.
    The two branches agree to better than 1e-12 at the crossover. The limit
    form is evaluated only on the arguments inside a window.
    """
    fact2 = float(math.factorial(d)) ** 2
    sign = -1.0 if d % 2 else 1.0
    x = k / (2.0 * math.pi)
    m = np.rint(x)
    u = k - 2.0 * math.pi * m
    near = (np.abs(u) < _SINGULAR_WINDOW) & (np.abs(m) <= d)

    full = np.ones_like(x)
    # Where full overflows the quotient is 0, the exact term below (d!)^2 / (2 pi 2^1024) < 1e-291.
    with np.errstate(over="ignore"):
        for j in range(-d, d + 1):
            full = full * (x + j)

    safe_full = np.where(near, 1.0, full)
    if real_only:
        smooth = sign * fact2 * np.sin(k) / (2.0 * math.pi * safe_full)
    else:
        phase = np.exp(1j * k / 2.0)
        smooth = sign * fact2 * phase * np.sin(k / 2.0) / (math.pi * safe_full)
    if not near.any():
        return smooth

    x, m, u, k = x[near], m[near], u[near], k[near]
    reduced = np.ones_like(x)
    for j in range(-d, d + 1):
        reduced = reduced * np.where(m != -j, x + j, 1.0)
    alt = np.where(np.mod(m, 2.0) == 0.0, 1.0, -1.0)
    factor = np.cos(k / 2.0) if real_only else phase[near]
    # smooth is a numpy scalar for a scalar k; asarray makes it assignable.
    smooth = np.asarray(smooth)
    smooth[near] = sign * fact2 * factor * alt * _sinc(u / 2.0) / reduced
    return smooth


def fourier(tf: TestFunction, k) -> np.ndarray | complex:
    """The transform f_hat(k) = integral_0^1 f(l) exp(ikl) dl, complex valued."""
    arr = np.asarray(k, dtype=float)
    if tf.kind == "triangular":
        vals = np.exp(1j * arr / 2.0) * _sinc(arr / 4.0) ** 2
    else:
        vals = _cosine_power_fourier(tf.d, arr, real_only=False)
    return vals if np.ndim(k) else complex(vals)


def re_fourier(tf: TestFunction, k) -> np.ndarray | float:
    """Real part of the transform, the quantity the truncated sums add up."""
    arr = np.asarray(k, dtype=float)
    if tf.kind == "triangular":
        vals = np.cos(arr / 2.0) * _sinc(arr / 4.0) ** 2
    else:
        vals = _cosine_power_fourier(tf.d, arr, real_only=True)
    return vals if np.ndim(k) else float(vals)


def majorant(tf: TestFunction, k) -> np.ndarray | float:
    """A nonincreasing bound dominating sup_{y >= k} |f_hat(y)| on the decay range.

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
