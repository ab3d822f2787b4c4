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
and a limit form evaluated only on the arguments inside its windows, from
offsets and signs built once per order, with sin(h)/h in one masked divide. All
evaluators accept scalars or numpy arrays and return matching shapes; a scalar
gets the same bits as in an array.
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

# Width of the window around each removable singularity k = 2 pi m inside
# which the transform is evaluated by its limit form instead of the quotient.
_SINGULAR_WINDOW = 1e-4

# Window points per reduce of the limit form: its (2d + 1, block) factors stay under 13 MB.
_WINDOW_BLOCK = 1 << 16


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

    Away from the integer lattice the quotient form is (-1)^d (d!)^2 sin(k) /
    (2 pi prod_{j=-d..d}(k/2pi + j)), its product taken in one in-place pass over j. Its
    zeros at k = 2 pi m, |m| <= d, are removable: inside a small window the limit form
    cancels the vanishing factor against the sine, and one reduce over a leading j axis,
    (-1)^m in that factor's place, gives the window points' reduced product. Both branches
    run in one errstate block, and both products keep the bits of a factor-by-factor
    loop; the branches agree to 1e-12 at the crossover.
    """
    c = (-1.0 if d % 2 else 1.0) * float(math.factorial(d)) ** 2
    x = k / (2.0 * math.pi)
    m = np.rint(x)
    u = k - 2.0 * math.pi * m
    near = (np.abs(u) < _SINGULAR_WINDOW) & (np.abs(m) <= d)

    # Where full, or 2 pi times it, overflows the quotient is 0, the exact term below
    # (d!)^2 / 2^1024 < 1e-290. full is 0 only at a window point, whose quotient is replaced.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        full = x - d
        for j in range(1 - d, d + 1):
            full *= x + j if j else x  # x + 0 differs from x only at x = -0, a window point
        smooth = c * np.sin(k) / (2.0 * math.pi * full)
        if np.count_nonzero(near):
            x, m, u, k = x[near], m[near], u[near], k[near]
            (j, signs), reduced = _factors(d), np.empty_like(x)
            for b in range(0, x.size, _WINDOW_BLOCK):
                cols = slice(b, b + _WINDOW_BLOCK)
                np.multiply.reduce(np.where(j == -m[cols], signs, x[cols] + j), axis=0, out=reduced[cols])
            smooth[near] = c * np.cos(k / 2.0) * _sinc(u / 2.0) / reduced
    return smooth


@functools.cache
def _factors(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets j = -d..d as a column and (-1)^j, the limit's sign for j = -m: shared, never written."""
    j = np.arange(-d, d + 1.0)[:, None]
    return j, 1.0 - 2.0 * (j % 2.0)


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
