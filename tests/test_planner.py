"""Tests for the tail bounds and the (d, J) planning optimizer."""

import math

import pytest

from eulerchar import (
    PlanError,
    alpha_star,
    analytic_spectrum,
    beta_continuous,
    cosine_power,
    epsilon,
    j_min,
    lambert_w_unit,
    length_bound,
    optimal_plan,
    tail_bound,
    tail_envelope,
    triangular,
    triangular_tail,
)


def test_lambert_w_unit():
    w = lambert_w_unit()
    assert w == pytest.approx(0.5671432904097838, abs=1e-15)
    assert w * math.exp(w) == pytest.approx(1.0, abs=1e-15)


def test_tail_bound_frozen():
    got = tail_bound(1, 46, 6)
    assert got == pytest.approx(12**3 / (2 * math.pi * 34**2), rel=1e-15)
    assert got == pytest.approx(0.23790635091937298, abs=1e-15)


def test_tail_bound_domain():
    with pytest.raises(PlanError):
        tail_bound(1, 12, 6)  # x = 2 Lt d boundary
    with pytest.raises(PlanError):
        tail_bound(2, 10, 6)


@pytest.mark.parametrize("d, x, Lt", [(1, 1e300, 6.0), (1, 1e201, 1e200), (200, 1e4, 1.0)])
def test_tail_bound_overflow_is_a_plan_error(d, x, Lt):
    with pytest.raises(PlanError, match="tail bound overflows a float"):
        tail_bound(d, x, Lt)


def test_tail_bound_monotonic():
    xs = [15, 20, 30, 50, 100, 400]
    vals = [tail_bound(1, x, 6) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    lts = [1.0, 2.0, 4.0, 6.0]
    vals = [tail_bound(1, 100, lt) for lt in lts]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_triangular_tail_frozen():
    assert triangular_tail(46, 6) == pytest.approx(
        32 * 36 / (math.pi**2 * 46), rel=1e-15
    )


def test_tail_envelope_dispatch():
    assert tail_envelope(cosine_power(1), 46, 6) == tail_bound(1, 46, 6)
    assert tail_envelope(triangular(), 46, 6) == triangular_tail(46, 6)


def test_epsilon_frozen_values():
    # These two evaluations certify that J = 48 is minimal for the first
    # benchmark plan: the bound just above 1/4 at 47, just below at 48.
    e47 = epsilon(2, 12, 1, 47)
    e48 = epsilon(2, 12, 1, 48)
    assert e47 == pytest.approx(0.2536934813826548, abs=1e-15)
    assert e48 == pytest.approx(0.23898979344784693, abs=1e-15)
    assert e47 > 0.25 > e48


def test_epsilon_domain():
    with pytest.raises(PlanError):
        epsilon(2, 12, 1, 14)  # beta = mu + gamma alpha boundary
    with pytest.raises(PlanError):
        epsilon(2, 12, 1, 10)


def test_epsilon_overflow_is_a_plan_error():
    # The plan at eps_bar = 1e-300: alpha ** (2 alpha) overflows a float.
    with pytest.raises(PlanError, match="^epsilon overflows a float at mu = 2, gamma = 12, "
                                        "alpha = 219, beta = 7339$"):
        epsilon(2, 12, 219, 7339)


def test_epsilon_decreasing_in_beta():
    vals = [epsilon(2, 12, 1, b) for b in range(15, 120, 3)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_beta_continuous_frozen():
    assert beta_continuous(0.25, 2, 12, 1) == pytest.approx(
        47.24287600227821, abs=1e-12
    )
    assert beta_continuous(0.25, 5, 10, 1) == pytest.approx(
        40.28871258721518, abs=1e-12
    )
    assert math.ceil(beta_continuous(0.25, 2, 12, 1)) == 48
    assert math.ceil(beta_continuous(0.25, 5, 10, 1)) == 41


@pytest.mark.parametrize(
    "eps_bar,M,rho,alpha",
    [
        (0.25, 2.0, 12.0, 1.0),
        (0.25, 5.0, 10.0, 1.0),
        (0.1, 0.0, 400.0, 2.0),
        (0.5, 3.0, 30.0, 1.7),
        (0.01, 1.0, 2.0, 1.0),
    ],
)
def test_beta_continuous_round_trip(eps_bar, M, rho, alpha):
    beta = beta_continuous(eps_bar, M, rho, alpha)
    assert epsilon(M, rho, alpha, beta) == pytest.approx(eps_bar, abs=1e-10)


def test_alpha_star_frozen():
    assert alpha_star(0.25, 12) == pytest.approx(1.2882892401366557, abs=1e-13)
    assert alpha_star(0.25, 10) == pytest.approx(1.230119206193467, abs=1e-13)


def test_alpha_star_domain():
    # Requires e^(1/6) rho / eps_bar > 1.
    with pytest.raises(PlanError):
        alpha_star(0.9, 0.5)


def test_alpha_star_minimizes_beta():
    for eps_bar, M, rho in [(0.25, 2.0, 12.0), (0.1, 0.0, 400.0)]:
        a = alpha_star(eps_bar, rho)
        center = beta_continuous(eps_bar, M, rho, a)
        for da in (-1e-3, 1e-3):
            assert beta_continuous(eps_bar, M, rho, a + da) > center


def test_optimal_plan_lasso():
    p = optimal_plan(0.25, 2, 6, 1)
    assert (p.t, p.d, p.J) == (1.0, 1, 48)
    assert p.rho == 12.0
    assert p.delta_max == pytest.approx(1 / 384, abs=0.0)
    assert p.alpha_star == pytest.approx(1.2882892401366557, abs=1e-13)
    assert p.beta == pytest.approx(47.24287600227821, abs=1e-12)
    assert p.eps_value == pytest.approx(0.23898979344784693, abs=1e-14)


def test_optimal_plan_k5():
    p = optimal_plan(0.25, 5, 10, 2)
    assert (p.t, p.d, p.J) == (0.5, 1, 41)
    assert p.rho == 10.0
    assert p.delta_max == pytest.approx(0.5 / 328, abs=0.0)


def test_optimal_plan_k5_pendant_and_k33():
    p = optimal_plan(0.25, 6, 10, 2)
    assert (p.t, p.d, p.J) == (0.5, 1, 42)
    q = optimal_plan(0.25, 6, 9, 2)
    assert (q.t, q.d, q.J) == (0.5, 1, 37)


TABLE_CASES = [
    (2.0, 1, 5),
    (15.6, 1, 65),
    (16.5, 2, 70),
    (421.0, 2, 2911),
    (423.0, 3, 2926),
    (1e4, 3, 96360),
]


@pytest.mark.parametrize("rho,d,j_minus_m", TABLE_CASES)
def test_order_table_rows(rho, d, j_minus_m):
    # M_bar = 0, lmin_lower = 1, so t = 1 and L_bar = rho / 2.
    p = optimal_plan(0.25, 0.0, rho / 2.0, 1.0)
    assert p.d == d
    assert p.J - 0 == j_minus_m


def test_order_transition_windows():
    # d* moves from 1 to 2 inside (15.6, 16.5) and from 2 to 3 inside
    # (421, 423). Near a transition the ceilings of the two candidate betas
    # cross at different grid points, so d* may flicker within the window;
    # the contract is only that the endpoints bracket the change and no
    # order outside the adjacent pair ever appears.
    def d_star(rho):
        return optimal_plan(0.25, 0.0, rho / 2.0, 1.0).d

    assert d_star(15.6) == 1
    assert d_star(16.5) == 2
    rho = 15.6
    while rho < 16.5:
        assert d_star(min(rho, 16.5)) in (1, 2)
        rho += 0.05

    assert d_star(421.0) == 2
    assert d_star(423.0) == 3
    rho = 421.0
    while rho < 423.0:
        assert d_star(min(rho, 423.0)) in (2, 3)
        rho += 0.1


PLAN_GRID = [
    (0.25, 2.0, 6.0, 1.0),
    (0.25, 5.0, 10.0, 2.0),
    (0.25, 0.0, 200.0, 1.0),
    (0.1, 3.0, 7.5, 0.5),
    (0.2, 1.0, 4.0, 1.0),
    (0.05, 0.0, 40.0, 1.0),
]


@pytest.mark.parametrize("eps_bar,M,L,lmin", PLAN_GRID)
def test_plan_certifies_minimality(eps_bar, M, L, lmin):
    p = optimal_plan(eps_bar, M, L, lmin)
    assert p.eps_value <= eps_bar
    assert epsilon(M, p.rho, p.d, p.J) == pytest.approx(p.eps_value, rel=1e-14)
    assert epsilon(M, p.rho, p.d, p.J - 1) > eps_bar
    # Both continuous candidates around alpha_star certify minimality too.
    lo = max(1, math.floor(p.alpha_star))
    hi = max(1, math.ceil(p.alpha_star))
    for d in {lo, hi}:
        beta = beta_continuous(eps_bar, M, p.rho, d)
        assert math.ceil(beta) >= p.J


@pytest.mark.parametrize("eps_bar,M,L,lmin", PLAN_GRID)
def test_plan_global_optimality_over_orders(eps_bar, M, L, lmin):
    p = optimal_plan(eps_bar, M, L, lmin)
    for d in range(1, math.ceil(p.alpha_star) + 4):
        beta = beta_continuous(eps_bar, M, p.rho, d)
        assert math.ceil(beta) >= p.J


@pytest.mark.parametrize("eps_bar,M,L,lmin", PLAN_GRID)
def test_tail_bound_below_epsilon(eps_bar, M, L, lmin):
    p = optimal_plan(eps_bar, M, L, lmin)
    Lt = L * p.t
    x = p.J - M
    if x > 2 * Lt * p.d:
        assert tail_bound(p.d, x, Lt) <= epsilon(M, p.rho, p.d, p.J) * (1 + 1e-12)


def test_j_star_monotone_in_rho():
    js = [optimal_plan(0.25, 0.0, L, 1.0).J for L in (1, 2, 5, 10, 50, 200, 1000)]
    assert all(a <= b for a, b in zip(js, js[1:]))


def test_j_star_monotone_in_precision():
    js = [optimal_plan(eb, 2.0, 6.0, 1.0).J for eb in (0.25, 0.2, 0.1, 0.05, 0.01)]
    assert all(a <= b for a, b in zip(js, js[1:]))


@pytest.mark.parametrize("eps_bar,M,L,lmin", PLAN_GRID)
def test_delta_max_relation_exact(eps_bar, M, L, lmin):
    p = optimal_plan(eps_bar, M, L, lmin)
    assert p.delta_max * 8 * p.J == p.t


def test_plan_domain_errors():
    with pytest.raises(PlanError):
        optimal_plan(0.0, 2, 6, 1)
    with pytest.raises(PlanError):
        optimal_plan(1.0, 2, 6, 1)
    with pytest.raises(PlanError):
        optimal_plan(0.25, 2, -6, 1)
    with pytest.raises(PlanError):
        optimal_plan(0.25, 2, 6, 0)
    with pytest.raises(PlanError, match="eps_bar must lie in"):
        optimal_plan(math.nan, 2, 6, 1)
    # delta_max = t / (8 J) spends 1/4 of the 1/2 budget on noise.
    for eps_bar in (0.2500001, 0.3, 0.4, 0.6):
        with pytest.raises(PlanError, match=r"eps_bar must lie in \(0, 1/4\]"):
            optimal_plan(eps_bar, 2, 6, 1)
    with pytest.raises(PlanError, match="overflows"):
        optimal_plan(0.25, 2, 6, 1e-320)


def test_j_min_frozen():
    assert j_min(cosine_power(1), 2, 6, 0.25) == 48
    assert j_min(cosine_power(1), 2, 6, 0.5) == 38
    assert j_min(cosine_power(1), 2, 6, 0.9) == 32


def test_j_min_matches_plan():
    # With the plan's own d, the threshold-1/4 requirement lands on J* = 48.
    assert j_min(cosine_power(1), 2, 6, 0.25) == optimal_plan(0.25, 2, 6, 1).J


def test_j_min_triangular_needs_more():
    # The tent transform decays like 1/k^2, so far more eigenfrequencies are
    # needed for the same certified precision.
    j_tent = j_min(triangular(), 2, 6, 0.25)
    assert j_tent == 469
    assert j_tent > 48


def test_j_min_monotone_in_threshold():
    js = [j_min(cosine_power(1), 2, 6, th) for th in (0.9, 0.5, 0.25, 0.1, 0.01)]
    assert all(a <= b for a, b in zip(js, js[1:]))
    assert j_min(cosine_power(1), 2, 6, 0.9) <= j_min(cosine_power(1), 2, 6, 0.25)


def test_j_min_exceeds_m():
    assert j_min(cosine_power(2), 10, 3, 0.5) > 10


def test_j_min_threshold_domain():
    with pytest.raises(PlanError):
        j_min(cosine_power(1), 2, 6, 0.0)
    with pytest.raises(PlanError):
        j_min(cosine_power(1), 2, 6, 1.0)


def test_length_bound_interval():
    s = analytic_spectrum("interval", 8)
    assert length_bound(1, s, 4) == pytest.approx(5.0 / 3.0, rel=1e-15)
    assert length_bound(1, s, 3) == pytest.approx(2.0, rel=1e-15)
    assert length_bound(1, s, 4) >= 1.0


def test_length_bound_loop():
    s = analytic_spectrum("loop", 8)
    assert length_bound(1, s, 3) == pytest.approx(1.5, rel=1e-15)


def test_length_bound_errors():
    s = analytic_spectrum("interval", 8)
    with pytest.raises(PlanError):
        length_bound(1, s, 1)
    with pytest.raises(PlanError):
        length_bound(1, s, 100)  # spectrum too short
