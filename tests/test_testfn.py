"""Tests for the compactly supported test functions and their transforms.

Expected transform values were frozen from independent quadrature of
integral(f(l) exp(i k l), l=0..1); the quadrature cross-check itself is
repeated below on a coarser grid.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from eulerchar import (
    TestFunction,
    cosine_power,
    eval_time,
    fourier,
    majorant,
    normalization,
    re_fourier,
    triangular,
)
from eulerchar.testfn import MAX_POWER


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
    assert fourier(p1, 2 * math.pi) == pytest.approx(-0.5, abs=1e-13)
    assert fourier(p2, 2 * math.pi) == pytest.approx(-2.0 / 3.0, abs=1e-13)
    assert fourier(p3, 0.0) == pytest.approx(1.0, abs=0.0)
    assert re_fourier(t, 2 * math.pi) == pytest.approx(-4 / math.pi**2, rel=1e-13)
    assert abs(fourier(t, 4 * math.pi)) < 1e-30
    # Transform at zero is the total mass for every order.
    for d in range(1, 7):
        assert fourier(cosine_power(d), 0.0) == pytest.approx(1.0, abs=1e-14)
    assert fourier(t, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_tent_transform_closed_form():
    t = triangular()
    for k in (0.5, 1.0, 3.7, 11.0, 200.0):
        expected = np.exp(1j * k / 2) * (math.sin(k / 4) / (k / 4)) ** 2
        assert fourier(t, k) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_transform_matches_quadrature(d):
    tf = cosine_power(d)
    for k in np.geomspace(0.1, 1000.0, 25):
        re_val, _ = quad(
            lambda x: eval_time(tf, x), 0.0, 1.0, weight="cos", wvar=k, limit=400
        )
        im_val, _ = quad(
            lambda x: eval_time(tf, x), 0.0, 1.0, weight="sin", wvar=k, limit=400
        )
        got = fourier(tf, k)
        assert got.real == pytest.approx(re_val, abs=1e-10)
        assert got.imag == pytest.approx(im_val, abs=1e-10)


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
            inside = fourier(tf, k0 + 0.9999999e-4)
            outside = fourier(tf, k0 + 1.0000001e-4)
            assert abs(inside - outside) < 1e-9
            inside = fourier(tf, k0 - 0.9999999e-4)
            outside = fourier(tf, k0 - 1.0000001e-4)
            assert abs(inside - outside) < 1e-9


def test_transform_scalar_and_array_agree():
    ks = np.array([0.3, 2 * math.pi, 17.0])
    for tf in (triangular(), cosine_power(2)):
        batch = fourier(tf, ks)
        assert batch.shape == (3,)
        for i, k in enumerate(ks):
            assert fourier(tf, float(k)) == pytest.approx(batch[i], abs=1e-15)
        rb = re_fourier(tf, ks)
        assert rb == pytest.approx(batch.real, abs=1e-14)
    assert isinstance(re_fourier(triangular(), 1.0), float)
    assert isinstance(fourier(triangular(), 1.0), complex)


@pytest.mark.parametrize("tf", [triangular()] + [cosine_power(d) for d in range(1, MAX_POWER + 1)],
                         ids=lambda tf: tf.label())
def test_zero_mode_transform_is_exactly_one(tf):
    # The truncated sums add the zero mode as the literal 2.0 = 2 Re f_hat(0).
    assert re_fourier(tf, 0.0) == 1.0
    assert fourier(tf, 0.0) == 1.0


def _bits(values) -> list[int]:
    arr = np.asarray(values)
    parts = (arr.real, arr.imag) if np.iscomplexobj(arr) else (arr,)
    return [np.asarray(p, dtype=float).view(np.uint64).tolist() for p in parts]


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
    for evaluate, kind in ((re_fourier, float), (fourier, complex)):
        scalar = [evaluate(tf, k) for k in ks.tolist()]
        assert all(type(v) is kind for v in scalar)
        assert _bits(evaluate(tf, ks)) == _bits(scalar)
        assert _bits(evaluate(tf, np.array(far))) == _bits(scalar[:3] + scalar[-6:])
        for shape in ((3, -1), (3, 1, -1)):
            got = evaluate(tf, ks[::-1].reshape(shape))
            assert got.ndim == len(shape)
            assert _bits(got.ravel()) == _bits(scalar[::-1])


@pytest.mark.parametrize("tf", [triangular()] + [cosine_power(d) for d in (1, 2, 3, 4)])
def test_transform_bounded_by_one(tf):
    ks = np.linspace(0.0, 500.0, 20001)
    vals = np.abs(fourier(tf, ks))
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
    # For the tent the bound holds for the full modulus, not just Re.
    t = triangular()
    ks = np.geomspace(1e-3, 1e4, 12000)
    assert np.all(np.abs(fourier(t, ks)) <= majorant(t, ks) * (1 + 1e-9))


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
