"""Tests for the compactly supported test functions and their transforms.

Expected transform values were frozen from independent quadrature of
integral(f(l) cos(k l), l=0..1), the real part of the transform; the
quadrature cross-check itself is repeated below on a coarser grid.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from eulerchar import (
    TestFunction,
    analytic_spectrum,
    cosine_power,
    eval_time,
    majorant,
    normalization,
    optimal_plan,
    re_fourier,
    recover_chi,
    triangular,
)
from eulerchar import testfn
from eulerchar.testfn import _SINGULAR_WINDOW, MAX_POWER, _sinc


def test_constructor_validation():
    with pytest.raises(ValueError):
        TestFunction(kind="gaussian", d=1)
    with pytest.raises(ValueError):
        cosine_power(0)
    with pytest.raises(ValueError):
        cosine_power(MAX_POWER + 1)
    assert cosine_power(MAX_POWER).d == MAX_POWER
    assert triangular().kind == "triangular"
    assert cosine_power(2).kind == "cosine-power"


@pytest.mark.parametrize("d", range(1, 7))
def test_normalization_matches_exact_rational(d):
    expected = Fraction(2**d) * Fraction(math.factorial(d)) ** 2 / Fraction(
        math.factorial(2 * d)
    )
    assert normalization(d) == pytest.approx(float(expected), rel=1e-15)


def test_normalization_frozen_values():
    assert normalization(1) == 1.0
    assert normalization(2) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert normalization(3) == pytest.approx(0.4, rel=1e-15)
    assert cosine_power(2).c_d == normalization(2)


def test_eval_time_tent():
    t = triangular()
    assert eval_time(t, 0.25) == 1.0
    assert eval_time(t, 0.5) == 2.0
    assert eval_time(t, 0.0) == 0.0
    assert eval_time(t, 1.0) == 0.0
    assert eval_time(t, -0.2) == 0.0
    assert eval_time(t, 1.3) == 0.0


def test_eval_time_cosine_power():
    p1 = cosine_power(1)
    assert eval_time(p1, 0.5) == 2.0  # c_1 (1 - cos pi) = 2
    assert eval_time(p1, 0.0) == 0.0
    assert eval_time(p1, 1.0) == pytest.approx(0.0, abs=1e-30)
    arr = eval_time(p1, np.array([0.25, 0.5, 2.0]))
    assert arr == pytest.approx([1.0, 2.0, 0.0], abs=1e-15)


@pytest.mark.parametrize("tf", [triangular()] + [cosine_power(d) for d in range(1, MAX_POWER + 1)],
                         ids=lambda tf: tf.label())
def test_scalar_and_array_give_the_same_bits(tf):
    ells = np.linspace(-0.25, 1.25, 3001)
    assert [eval_time(tf, x) for x in ells.tolist()] == eval_time(tf, ells).tolist()
    assert eval_time(tf, np.float64(ells[1000])) == eval_time(tf, ells)[1000]
    ks = 2.0 * math.pi * tf.d + np.linspace(0.01, 400.0, 3001)
    assert [majorant(tf, k) for k in ks.tolist()] == majorant(tf, ks).tolist()


@pytest.mark.parametrize("d", range(1, 7))
def test_unit_mass(d):
    tf = cosine_power(d)
    val, err = quad(lambda x: eval_time(tf, x), 0.0, 1.0, limit=200)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_unit_mass_tent():
    t = triangular()
    val, _ = quad(lambda x: eval_time(t, x), 0.0, 1.0)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_transform_frozen_values():
    p1, p2, p3 = cosine_power(1), cosine_power(2), cosine_power(3)
    t = triangular()
    assert re_fourier(p1, 1.0) == pytest.approx(0.863339633187881, abs=1e-14)
    assert re_fourier(p2, 3.0) == pytest.approx(0.06461298708155593, abs=1e-14)
    assert re_fourier(p1, math.pi) == pytest.approx(0.0, abs=1e-15)
    # Removable singularities: value at k = 2 pi m is finite and exact.
    assert re_fourier(p1, 2 * math.pi) == pytest.approx(-0.5, abs=1e-13)
    assert re_fourier(p2, 2 * math.pi) == pytest.approx(-2.0 / 3.0, abs=1e-13)
    assert re_fourier(p3, 0.0) == pytest.approx(1.0, abs=0.0)
    assert re_fourier(t, 2 * math.pi) == pytest.approx(-4 / math.pi**2, rel=1e-13)
    assert abs(re_fourier(t, 4 * math.pi)) < 1e-30
    # Transform at zero is the total mass for every order.
    for d in range(1, 7):
        assert re_fourier(cosine_power(d), 0.0) == pytest.approx(1.0, abs=1e-14)
    assert re_fourier(t, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_tent_transform_closed_form():
    t = triangular()
    for k in (0.5, 1.0, 3.7, 11.0, 200.0):
        expected = math.cos(k / 2) * (math.sin(k / 4) / (k / 4)) ** 2
        assert re_fourier(t, k) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("d", range(1, MAX_POWER + 1))
def test_transform_matches_quadrature(d):
    # Far arguments take the quotient form, those within the window of 2 pi m, |m| <= d, the limit form.
    tf = cosine_power(d)
    window = [2 * math.pi * m + e for m in range(d + 1) for e in (-5e-5, 0.0, 5e-5)]
    for k in [*np.geomspace(0.1, 1000.0, 25), *window]:
        re_val, _ = quad(
            lambda x: eval_time(tf, x), 0.0, 1.0, weight="cos", wvar=k, limit=400
        )
        assert re_fourier(tf, k) == pytest.approx(re_val, abs=1e-10)


def test_tent_transform_matches_quadrature():
    t = triangular()
    for k in np.geomspace(0.1, 1000.0, 25):
        re_val, _ = quad(
            lambda x: eval_time(t, x), 0.0, 1.0, weight="cos", wvar=k, limit=400
        )
        assert re_fourier(t, k) == pytest.approx(re_val, abs=1e-10)


def test_transform_near_singularity_continuous():
    # The series branch used in a small window around k = 2 pi m must agree
    # with the direct product formula at the window boundary.
    for m in (1, 2, 3):
        for d in (1, 2, 3):
            tf = cosine_power(d)
            if m > d:
                continue
            k0 = 2 * math.pi * m
            inside = re_fourier(tf, k0 + 0.9999999e-4)
            outside = re_fourier(tf, k0 + 1.0000001e-4)
            assert abs(inside - outside) < 1e-9
            inside = re_fourier(tf, k0 - 0.9999999e-4)
            outside = re_fourier(tf, k0 - 1.0000001e-4)
            assert abs(inside - outside) < 1e-9


def test_transform_scalar_and_array_agree():
    ks = np.array([0.3, 2 * math.pi, 17.0])
    for tf in (triangular(), cosine_power(2)):
        batch = re_fourier(tf, ks)
        assert batch.shape == (3,)
        for i, k in enumerate(ks):
            assert re_fourier(tf, float(k)) == pytest.approx(batch[i], abs=1e-15)
    assert isinstance(re_fourier(triangular(), 1.0), float)


@pytest.mark.parametrize("tf", [triangular()] + [cosine_power(d) for d in range(1, MAX_POWER + 1)],
                         ids=lambda tf: tf.label())
def test_zero_mode_transform_is_exactly_one(tf):
    # The truncated sums add the zero mode as the literal 2.0 = 2 Re f_hat(0).
    assert re_fourier(tf, 0.0) == 1.0


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("d", range(1, MAX_POWER + 1))
def test_window_and_far_arguments_mix_bit_for_bit(d):
    # The quotient-only path (no argument in a window) and the mixed path give the same bits,
    # and the limit form, evaluated on the window points alone, lands on each point's own
    # scalar bits in a 1-, 2- or 3-D array.
    tf = cosine_power(d)
    window = []
    for m in range(-d, d + 1):
        k0 = 2.0 * math.pi * m
        window += [k0, k0 + 1e-9, k0 - 1e-9, k0 + 5e-5, k0 - 5e-5, k0 + 0.9999999e-4,
                   k0 - 0.9999999e-4, k0 + 1.0000001e-4, k0 - 1.0000001e-4]
    edge = 2.0 * math.pi * (d + 1)
    far = [0.5, 3.7, -11.2, edge, edge + 5e-5, -edge - 5e-5, 100.3, 1e5, 1e300]
    ks = np.array(far[:3] + window + far[3:])
    scalar = [re_fourier(tf, k) for k in ks.tolist()]
    assert all(type(v) is float for v in scalar)
    assert _bits(re_fourier(tf, ks)) == _bits(scalar)
    assert _bits(re_fourier(tf, np.array(far))) == _bits(scalar[:3] + scalar[-6:])
    for shape in ((3, -1), (3, 1, -1)):
        got = re_fourier(tf, ks[::-1].reshape(shape))
        assert got.ndim == len(shape)
        assert _bits(got.ravel()) == _bits(scalar[::-1])
    # Window points in other layouts go back to their own places: Fortran order, a strided
    # view and 3-D, whose ufunc outputs keep the input's layout.
    grid = ks[::-1].reshape(6, -1)
    for arr in (np.asfortranarray(grid), grid[:, ::2], ks.reshape(2, 3, -1),
                np.asfortranarray(ks.reshape(2, 3, -1))):
        assert _in_window(d, arr).any()
        got = re_fourier(tf, arr)
        assert got.shape == arr.shape
        assert _bits(got.ravel()) == _bits(loop_cosine_power_fourier(d, arr).ravel())


@pytest.mark.parametrize("d", range(1, MAX_POWER + 1))
def test_transform_is_zero_where_2_pi_times_the_product_overflows(d):
    # At k = 2 pi 2^(1022 / (2d + 1)) the product of the 2d + 1 factors k / 2 pi + j is
    # about 2^1022, finite, and 2 pi times it is not; the term is below 1e-290, so +-0,
    # and no overflow warning (an error under the test settings) escapes.
    k = 2.0 * math.pi * 2.0 ** (1022 / (2 * d + 1))
    assert re_fourier(cosine_power(d), k) == 0.0
    assert re_fourier(cosine_power(d), np.array([-k, k])).tolist() == [0.0, 0.0]
    if d == 1:
        assert re_fourier(cosine_power(1), 2.5e103) == 0.0


def _in_window(d: int, k: np.ndarray) -> np.ndarray:
    """Where k is within the window of 2 pi m, |m| <= d: the transform's limit form."""
    m = np.rint(k / (2.0 * math.pi))
    return (np.abs(k - 2.0 * math.pi * m) < _SINGULAR_WINDOW) & (np.abs(m) <= d)


@pytest.mark.parametrize("d", range(1, MAX_POWER + 1))
def test_window_points_lie_below_the_product_bound(d):
    # The quotient's product at the window's edge, |u| = 0.9999999e-4 from 2 pi m, is below
    # B_d at m = 0 and m = +-d, and within 1% of it at m = +-d, where the other 2d factors
    # multiply to (2d)!.
    bound = testfn._WINDOW_BOUND[d]
    assert bound == 1.6e-5 * math.factorial(2 * d)
    for m in (-d, 0, d):
        k = 2.0 * math.pi * m + np.array([0.9999999e-4, -0.9999999e-4])
        assert _in_window(d, k).all()
        x = k / (2.0 * math.pi)
        full = x - d
        for j in range(1 - d, d + 1):
            full *= x + j if j else x
        assert (np.abs(full) < bound).all()
        if m:
            assert (np.abs(full) > 0.99 * bound).all()


def loop_cosine_power_fourier(d: int, k: np.ndarray):
    """The order-d transform with one array pass per factor of each product: the oracle.

    The quotient's product and the window's reduced product are formed one factor at a time,
    left to right over j = -d..d, with the vanishing factor of a window point replaced by 1.
    """
    fact2 = float(math.factorial(d)) ** 2
    sign = -1.0 if d % 2 else 1.0
    x = k / (2.0 * math.pi)
    m = np.rint(x)
    u = k - 2.0 * math.pi * m
    near = (np.abs(u) < _SINGULAR_WINDOW) & (np.abs(m) <= d)
    full = np.ones_like(x)
    with np.errstate(over="ignore"):
        for j in range(-d, d + 1):
            full = full * (x + j)
        smooth = sign * fact2 * np.sin(k) / (2.0 * math.pi * np.where(near, 1.0, full))
    if not near.any():
        return smooth
    x, m, u, k = x[near], m[near], u[near], k[near]
    reduced = np.ones_like(x)
    for j in range(-d, d + 1):
        reduced = reduced * np.where(m != -j, x + j, 1.0)
    alt = np.where(np.mod(m, 2.0) == 0.0, 1.0, -1.0)
    smooth = np.asarray(smooth)
    smooth[near] = sign * fact2 * np.cos(k / 2.0) * alt * _sinc(u / 2.0) / reduced
    return smooth


def transform_corpus(d: int) -> np.ndarray:
    """2 pi m + offsets across each window edge for |m| <= d + 1, far points, 1e300 and
    arguments whose product overflows, or whose product times 2 pi does (for d = 0, the
    tent, the points of d = 1)."""
    offsets = (0.0, 1e-9, -1e-9, 5e-5, -5e-5, 0.9999999e-4, -0.9999999e-4,
               1.0000001e-4, -1.0000001e-4)
    window = [2.0 * math.pi * m + o for m in range(-d - 1, d + 2) for o in offsets]
    edge = 2.0 * math.pi * 2.0 ** (1022 / (2 * max(d, 1) + 1))
    far = [0.5, 3.7, -11.2, 100.3, -2500.25, 1e5, 1e300, -1e300, edge, -edge, 2.5e103, 1e200]
    return np.array(window + far)


CORPUS_FUNCTIONS = [triangular()] + [cosine_power(d) for d in range(1, MAX_POWER + 1)]

# sha256 of re_fourier over transform_corpus for every function above, as 0-d, 1-D and 2-D
# arrays, in the little-endian float64 bytes; frozen from the per-factor loop.
TRANSFORM_DIGEST = "8695c254b5aacb6dd78cf8aa5c81eb0ea0027ceb32facc47a3fe0f6029f0bba1"


def _corpus_outputs(tf: TestFunction) -> list[np.ndarray]:
    ks = transform_corpus(tf.d)
    grid = np.stack([ks, ks[::-1]])
    scalars = [re_fourier(tf, np.asarray(k)) for k in ks.tolist()]
    assert all(type(v) is float for v in scalars)
    return [np.array(scalars), re_fourier(tf, ks), re_fourier(tf, grid)]


def test_transform_bits_are_frozen_over_the_corpus():
    digest = hashlib.sha256()
    for tf in CORPUS_FUNCTIONS:
        for out in _corpus_outputs(tf):
            digest.update(np.ascontiguousarray(out, dtype="<f8").tobytes())
    assert digest.hexdigest() == TRANSFORM_DIGEST


@pytest.mark.parametrize("d", range(1, MAX_POWER + 1))
def test_transform_is_the_per_factor_loop_bit_for_bit(d):
    ks = transform_corpus(d)
    scalars, got_1d, got_2d = _corpus_outputs(cosine_power(d))
    assert _bits(scalars) == _bits([loop_cosine_power_fourier(d, np.asarray(k)) for k in ks])
    assert _bits(got_1d) == _bits(loop_cosine_power_fourier(d, ks))
    grid = np.stack([ks, ks[::-1]])
    assert _bits(got_2d.ravel()) == _bits(loop_cosine_power_fourier(d, grid).ravel())
    spread = np.random.default_rng(d).uniform(-2.0 * math.pi * (d + 2), 400.0, (4, 250))
    assert _bits(re_fourier(cosine_power(d), spread).ravel()) == _bits(
        loop_cosine_power_fourier(d, spread).ravel())
    # Dense seeded arguments within 1.2e-4 of 2 pi m, |m| <= d + 1: window points, and others
    # whose product is below the bound B_d.
    rng = np.random.default_rng(100 + d)
    dense = 2.0 * math.pi * rng.integers(-d - 1, d + 2, 4000) + rng.uniform(-1.2e-4, 1.2e-4, 4000)
    assert _bits(re_fourier(cosine_power(d), dense)) == _bits(loop_cosine_power_fourier(d, dense))


@pytest.mark.parametrize("tf", [triangular(), cosine_power(1), cosine_power(3)], ids=lambda tf: tf.label())
def test_transform_reads_a_float64_array_and_never_writes_it(tf):
    # Window points of every order shown, and arguments away from them.
    k = np.concatenate([np.linspace(-40.0, 40.0, 81), 2.0 * math.pi * np.arange(-4.0, 5.0) + 1e-7])
    before = k.copy()
    vals = re_fourier(tf, k)
    assert vals is not k and k.tobytes() == before.tobytes()
    k.flags.writeable = False
    assert re_fourier(tf, k).tobytes() == vals.tobytes()
    assert re_fourier(tf, k.tolist()).tobytes() == vals.tobytes()


def test_each_order_is_one_shared_frozen_test_function(monkeypatch):
    assert triangular() is triangular() and cosine_power(3) is cosine_power(3)
    assert cosine_power(2) == TestFunction("cosine-power", 2) and cosine_power(1.0).d == 1.0
    with pytest.raises(AttributeError):
        cosine_power(2).d = 3
    built = []
    monkeypatch.setattr(TestFunction, "__post_init__", lambda self: built.append(self))
    s, plan = analytic_spectrum("loop", 60), optimal_plan(0.25, 1, 1, 1)
    for _ in range(3):
        recover_chi(s, plan)
    assert built == []


@pytest.mark.parametrize("tf", [triangular()] + [cosine_power(d) for d in (1, 2, 3, 4)])
def test_transform_bounded_by_one(tf):
    ks = np.linspace(0.0, 500.0, 20001)
    vals = np.abs(re_fourier(tf, ks))
    assert np.all(vals <= 1.0 + 1e-12)


def test_majorant_frozen_value():
    assert majorant(cosine_power(1), 4 * math.pi) == pytest.approx(
        1 / (2 * math.pi), rel=1e-15
    )


def test_majorant_triangular_form():
    t = triangular()
    for k in (0.5, 2.0, 100.0):
        assert majorant(t, k) == pytest.approx(16.0 / k**2, rel=1e-15)


def test_majorant_domain_errors():
    with pytest.raises(ValueError):
        majorant(triangular(), 0.0)
    with pytest.raises(ValueError):
        majorant(cosine_power(1), 2 * math.pi)  # boundary is excluded
    with pytest.raises(ValueError):
        majorant(cosine_power(3), 5.0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_majorant_dominates_real_part(d):
    tf = cosine_power(d)
    lo = 2 * math.pi * d * (1 + 1e-6)
    ks = np.geomspace(lo, 1e4, 12000)
    vals = np.abs(re_fourier(tf, ks))
    bounds = majorant(tf, ks)
    assert np.all(vals <= bounds * (1 + 1e-9) + 1e-300)


def test_majorant_dominates_tent():
    # For the tent the bound holds for every k > 0, not just on a decay range.
    t = triangular()
    ks = np.geomspace(1e-3, 1e4, 12000)
    assert np.all(np.abs(re_fourier(t, ks)) <= majorant(t, ks) * (1 + 1e-9))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_majorant_decreasing(d):
    tf = cosine_power(d)
    ks = np.geomspace(2 * math.pi * d * 1.01, 1e4, 4000)
    bounds = majorant(tf, ks)
    assert np.all(np.diff(bounds) < 0)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_smoothness_order_at_support_boundary(d):
    # phi_d vanishes to order exactly 2d at both endpoints: phi_d(h) ~
    # c_d (2 pi^2 h^2)^d, so phi_d(h)/h^(2d) has a finite positive limit.
    tf = cosine_power(d)
    c = normalization(d)
    target = c * (2 * math.pi**2) ** d
    for h in (1e-3, 5e-4):
        assert eval_time(tf, h) / h ** (2 * d) == pytest.approx(target, rel=5e-2)
        assert eval_time(tf, 1.0 - h) / h ** (2 * d) == pytest.approx(target, rel=5e-2)


def test_symmetry_about_midpoint():
    for tf in (triangular(), cosine_power(1), cosine_power(3)):
        for x in (0.1, 0.25, 0.4):
            assert eval_time(tf, x) == pytest.approx(eval_time(tf, 1.0 - x), rel=1e-12)
