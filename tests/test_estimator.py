"""Tests for the truncated spectral sum, noise model, and chi recovery."""

import hashlib
import math

import numpy as np
import pytest

from eulerchar import (
    NoiseModel,
    Spectrum,
    analytic_spectrum,
    cli,
    complete_graph,
    cosine_power,
    estimator,
    nint,
    optimal_plan,
    perturb_spectrum,
    preset,
    re_fourier,
    recover_chi,
    secular_spectrum,
    spectrum_with_count,
    summarize,
    tail_bound,
    tail_envelope,
    trace_check,
    triangular,
    truncated_sum,
)
from eulerchar import spectrum as spectrum_module
from eulerchar.estimator import Estimate, certified_bound, certify, certify_perturbed
from eulerchar.planner import PlanError
from eulerchar.testfn import MAX_POWER
from secular_listing import search_listing

LASSO_PLAN = optimal_plan(0.25, 2, 6, 1)
K5_PLAN = optimal_plan(0.25, 5, 10, 2)


@pytest.fixture(scope="module")
def lasso_spectrum():
    return spectrum_with_count(preset("lasso"), 48)


@pytest.fixture(scope="module")
def k5_spectrum():
    return spectrum_with_count(preset("k5"), 41)


def test_nint_rounds_half_away_from_zero():
    assert nint(0.5) == 1
    assert nint(-0.5) == -1
    assert nint(0.49) == 0
    assert nint(-0.49) == 0
    assert nint(2.5) == 3
    assert nint(-2.5) == -3
    assert nint(0.0) == 0
    assert nint(-5.2) == -5


def test_truncated_sum_single_term():
    s = analytic_spectrum("loop", 5)
    # J = 1 keeps only the zero mode: 2 * re_fourier(tf, 0) = 2.
    assert truncated_sum(s, cosine_power(1), 1.0, 1) == 2.0
    assert truncated_sum(s, triangular(), 1.0, 1) == 2.0


def test_truncated_sum_loop_collapses_to_chi():
    s = analytic_spectrum("loop", 200)
    got = truncated_sum(s, cosine_power(1), 1.0, 200)
    assert got == pytest.approx(0.0, abs=1e-10)


def test_truncated_sum_interval_collapses_to_chi():
    s = analytic_spectrum("interval", 50)
    got = truncated_sum(s, cosine_power(1), 1.0, 50)
    assert got == pytest.approx(1.0, abs=1e-10)


def test_truncated_sum_frozen_values(lasso_spectrum, k5_spectrum):
    S = truncated_sum(lasso_spectrum, cosine_power(1), 1.0, 48)
    assert S == pytest.approx(0.008940398590236542, abs=1e-9)
    S5 = truncated_sum(k5_spectrum, cosine_power(1), 0.5, 41)
    assert S5 == pytest.approx(-5.003904056299979, abs=1e-9)


def test_truncated_sum_validation(lasso_spectrum):
    with pytest.raises(ValueError):
        truncated_sum(lasso_spectrum, cosine_power(1), 0.0, 10)
    with pytest.raises(ValueError):
        truncated_sum(lasso_spectrum, cosine_power(1), 1.0, 0)
    with pytest.raises(ValueError):
        truncated_sum(lasso_spectrum, cosine_power(1), 1.0, 49)  # only 48 values


ALL_TEST_FUNCTIONS = [triangular()] + [cosine_power(d) for d in range(1, MAX_POWER + 1)]
SWEEP_TS = np.round(np.linspace(0.05, 2.0, 14), 12)


def scalar_reference(s, tf, t, J):
    """S_J(t) with one scalar transform evaluation per eigenfrequency."""
    return 2 * re_fourier(tf, 0.0) + 2 * math.fsum([re_fourier(tf, k / t) for k in s.values[1:J]])


@pytest.mark.parametrize("tf", ALL_TEST_FUNCTIONS, ids=lambda tf: tf.label())
def test_truncated_sum_bit_identical_to_scalar_terms(k5_spectrum, tf):
    s = k5_spectrum
    for J in (1, 2, len(s.values)):
        expected = [scalar_reference(s, tf, float(t), J) for t in SWEEP_TS]
        assert [truncated_sum(s, tf, float(t), J) for t in SWEEP_TS] == expected
        swept = truncated_sum(s, tf, SWEEP_TS, J)
        assert isinstance(swept, np.ndarray) and swept.shape == SWEEP_TS.shape
        assert swept.tolist() == expected


def test_truncated_sum_shapes_follow_t(lasso_spectrum):
    tf = cosine_power(2)
    zero_d = truncated_sum(lasso_spectrum, tf, np.array(0.3), 48)
    assert isinstance(zero_d, float)
    assert zero_d == truncated_sum(lasso_spectrum, tf, 0.3, 48)
    assert truncated_sum(lasso_spectrum, tf, np.array([]), 48).shape == (0,)


def test_truncated_sum_over_an_array_of_J_is_bit_identical_to_one_call_per_J(k5_spectrum):
    s, n = k5_spectrum, len(k5_spectrum.values)
    js = np.array([n, 1, 2, 17, n - 1, 17])
    for tf in (cosine_power(1), cosine_power(3), triangular()):
        for t in (0.5, 1.3):
            swept = truncated_sum(s, tf, t, js)
            assert isinstance(swept, np.ndarray) and swept.shape == js.shape
            assert bits(swept) == bits([scalar_reference(s, tf, t, int(J)) for J in js])
            assert bits(swept) == bits([truncated_sum(s, tf, t, int(J)) for J in js])
        grid = truncated_sum(s, tf, SWEEP_TS, js)
        assert grid.shape == SWEEP_TS.shape + js.shape
        assert bits(grid) == bits([[scalar_reference(s, tf, float(t), int(J)) for J in js]
                                   for t in SWEEP_TS])
    tf = cosine_power(2)
    assert bits(truncated_sum(s, tf, 0.5, range(2, n + 1))) == bits(
        [truncated_sum(s, tf, 0.5, J) for J in range(2, n + 1)])
    assert truncated_sum(s, tf, 0.5, np.array([], dtype=int)).shape == (0,)


@pytest.mark.parametrize("js, message", [([3, 0, 5], "at least 1"), ([-2], "at least 1"),
                                         ([2, 49], "need J = 49"), ([[2, 3]], "1-D"),
                                         (48.0, "J must be"), (np.float64(48.0), "J must be"),
                                         (2.5, "J must be"), ([2, 48.0], "J must be"),
                                         (True, "J must be"), ([], "J must be"),
                                         ([2, None], "J must be"), (10**30, "need J = 10{30}$")])
def test_truncated_sum_rejects_bad_J_in_an_array(lasso_spectrum, js, message, re_fourier_calls):
    for J in (js, np.array(js)):
        with pytest.raises(ValueError, match=message):
            truncated_sum(lasso_spectrum, cosine_power(1), 1.0, J)
    assert re_fourier_calls == []


@pytest.mark.parametrize("bad", [math.nan, [0.5, 0.0], [-1.0], [0.2, math.nan], [[0.5]],
                                 math.inf, [0.5, math.inf], 1e-320, [0.5, 1e-320]])
def test_truncated_sum_rejects_bad_t(lasso_spectrum, bad):
    with pytest.raises(ValueError):
        truncated_sum(lasso_spectrum, cosine_power(1), np.array(bad), 10)


@pytest.mark.parametrize("t", [0.5, np.float64(0.5), np.array(0.5)], ids=["float", "float64", "0-d"])
@pytest.mark.parametrize("J", [41, np.int64(41)], ids=["int", "int64"])
def test_scalar_t_and_J_give_the_bits_of_the_array_path_as_a_python_float(k5_spectrum, t, J):
    # A Python float t with an int J is checked as Python numbers, everything else as arrays.
    tf = cosine_power(1)
    expected = truncated_sum(k5_spectrum, tf, np.array([0.5]), np.array([41]))[0]
    got = truncated_sum(k5_spectrum, tf, t, J)
    assert type(got) is float and bits([got]) == bits(expected)
    M, L = K5_PLAN.M_bar, K5_PLAN.L_bar
    est = certify(k5_spectrum, tf, t, J, M, L)
    assert type(est.S) is float and bits([est.S]) == bits(expected)
    assert bits([est.bound]) == bits([certify(k5_spectrum, tf, 0.5, 41, M, L).bound])


@pytest.mark.parametrize("bad, message", [(0.0, "positive and finite"), (-1.0, "positive and finite"),
                                          (math.nan, "positive and finite"),
                                          (math.inf, "positive and finite"), (1e-320, "overflows")])
def test_a_python_float_t_is_rejected_like_the_array_path(lasso_spectrum, bad, message, re_fourier_calls):
    for t in (bad, np.array(bad), np.array([bad])):
        with pytest.raises(ValueError, match=message):
            truncated_sum(lasso_spectrum, cosine_power(1), t, 10)
    assert re_fourier_calls == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_truncated_sum_at_a_huge_but_finite_k_over_t_does_not_overflow(lasso_spectrum):
    # k / t near 1e302: every term but the zero mode is below 1e-291.
    for tf in (cosine_power(1), cosine_power(MAX_POWER), triangular()):
        assert truncated_sum(lasso_spectrum, tf, 1e-300, 48) == 2.0


def test_trace_check_rhs_is_the_truncated_sum():
    g = preset("lasso")
    s = secular_spectrum(g, 60.0)
    for tf, t in ((cosine_power(1), 0.3), (triangular(), 0.25)):
        _lhs, rhs, _gap, _bound = trace_check(g, tf, t, s)
        assert rhs == truncated_sum(s, tf, t, len(s.values))
        assert rhs == scalar_reference(s, tf, t, len(s.values))


def test_experiment_sweep_matches_scalar_terms(tmp_path, capsys):
    for name in ("lasso", "k5"):
        out = tmp_path / name
        assert cli.main(["experiment", name, "--seeds", "3", "--seed", "5", "--out", str(out)]) == 0
        capsys.readouterr()
        g = preset(name)
        info = summarize(g)
        plan = optimal_plan(0.25, info.M, info.total_length, info.l_min)
        s = spectrum_with_count(g, plan.J + 20)
        noisy = [perturb_spectrum(s, NoiseModel(plan.delta_max, seed)) for seed in (5, 6, 7)]
        tf = cosine_power(plan.d)
        ts = np.round(np.linspace(0.1 * plan.t, 1.4 * plan.t, 53), 12)
        header, *lines = (out / "sweep_t.csv").read_text().splitlines()
        assert header == "t,S_exact,S_noisy_seed5,S_noisy_seed6,S_noisy_seed7"
        assert len(lines) == len(ts)
        for line, t in zip(lines, ts):
            t_cell, *cells = line.split(",")
            assert t_cell == f"{t:.6g}"
            assert cells == [f"{scalar_reference(x, tf, float(t), plan.J):.16e}" for x in [s] + noisy]
        header, *lines = (out / "testfn_compare.csv").read_text().splitlines()
        assert header == "t,S_cosine_power,S_triangular"
        assert len(lines) == len(ts)
        for line, t in zip(lines, ts):
            assert line.split(",") == [
                f"{t:.6g}", f"{scalar_reference(s, tf, float(t), plan.J):.16e}",
                f"{scalar_reference(s, triangular(), float(t), plan.J):.16e}"]


@pytest.fixture
def re_fourier_calls(monkeypatch):
    """Count the transform evaluations the estimator makes."""
    calls = []

    def counting(tf, k):
        calls.append(k)
        return re_fourier(tf, k)

    monkeypatch.setattr(estimator, "re_fourier", counting)
    return calls


def test_truncated_sum_evaluates_each_sum_in_one_array_call(lasso_spectrum, re_fourier_calls):
    truncated_sum(lasso_spectrum, cosine_power(1), 1.0, 48)
    assert len(re_fourier_calls) <= 2
    re_fourier_calls.clear()
    truncated_sum(lasso_spectrum, cosine_power(1), SWEEP_TS, 48)
    assert len(re_fourier_calls) <= 2


def test_experiment_makes_at_most_two_evaluations_per_sum(
    tmp_path, capsys, monkeypatch, re_fourier_calls
):
    # A sum is one _truncated_sums call, the batched evaluation behind truncated_sum,
    # certify_perturbed and the experiment's sweeps.
    sums = []
    batched = estimator._truncated_sums

    def counting_sum(*args):
        sums.append(args)
        return batched(*args)

    monkeypatch.setattr(cli, "_truncated_sums", counting_sum)
    monkeypatch.setattr(estimator, "_truncated_sums", counting_sum)
    assert cli.main(["experiment", "lasso", "--seeds", "2", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert sums
    assert len(re_fourier_calls) <= 2 * len(sums)


def test_experiment_transform_evaluations_do_not_grow_with_seeds(tmp_path, capsys, re_fourier_calls):
    counts = []
    for seeds in ("3", "60"):
        re_fourier_calls.clear()
        assert cli.main(["experiment", "lasso", "--seeds", seeds, "--out", str(tmp_path / seeds)]) == 0
        counts.append(len(re_fourier_calls))
    capsys.readouterr()
    assert counts[0] == counts[1] <= 5


RECOVER_GRAPHS = ("lasso", "k5", "k5-pendant", "k33", "K6", "K7", "K8")


def test_estimate_bound_is_tail_plus_noise_term():
    tol = 1e-10
    for name in RECOVER_GRAPHS:
        g = complete_graph(int(name[1:])) if name.startswith("K") else preset(name)
        info = summarize(g)
        p = optimal_plan(0.25, info.M, info.total_length, info.l_min)
        tf = cosine_power(p.d)
        # L_bar t is the rho / 2 that the planner and recover_chi used before.
        assert p.L_bar * p.t == p.rho / 2.0, name
        tail = tail_envelope(tf, p.J - p.M_bar, p.L_bar * p.t)
        assert certified_bound(tf, p.J, p.M_bar, p.L_bar, p.t, tol) == tail + 2.0 * tol * p.J / p.t
        assert certified_bound(tf, p.J, p.M_bar, p.L_bar, p.t, 0.0) == tail
    # At the lasso plan: the bound the estimate command printed before.
    p = LASSO_PLAN
    got = certified_bound(cosine_power(p.d), p.J, p.M_bar, p.L_bar, p.t, tol)
    assert got == tail_bound(p.d, p.J - p.M_bar, p.rho / 2.0) + 2.0 * tol * p.J / p.t
    assert got == pytest.approx(0.237906360519373, abs=1e-15)


@pytest.mark.parametrize("M, L", [(math.nan, 6.0), (math.inf, 6.0), (-1.0, 6.0),
                                  (2.0, math.nan), (2.0, math.inf), (2.0, 0.0)])
def test_certified_bound_rejects_bad_priors(M, L):
    with pytest.raises(PlanError, match="must be"):
        certified_bound(cosine_power(1), 48, M, L, 1.0, 0.0)


def test_certified_bound_outside_the_tail_domain():
    # J - M must exceed 2 L t d for the cosine power, and M for the tent.
    with pytest.raises(PlanError, match="^tail bound needs J - M > 2 L t d = 12, got J - M = 12$"):
        certified_bound(cosine_power(1), 14, 2.0, 6.0, 1.0, 0.0)
    with pytest.raises(PlanError, match="^triangular tail needs J - M > 0, got J - M = 0$"):
        certified_bound(triangular(), 2, 2.0, 6.0, 1.0, 0.0)
    assert certified_bound(triangular(), 3, 2.0, 6.0, 1.0, 0.0) > 0.0
    # A t or J outside the tail's domain because the sum refuses it: the sum's ValueError.
    for t, J, message in ((1.0, 0, "J must be at least 1"), (1.0, -5, "J must be at least 1"),
                          (-1.0, 48, "t must be positive"), (math.inf, 48, "t must be positive")):
        with pytest.raises(ValueError, match=message) as info:
            certified_bound(cosine_power(1), J, 2.0, 6.0, t, 0.0)
        assert type(info.value) is ValueError


@pytest.mark.parametrize("tol", [-1.0, -5e-324, math.nan, math.inf])
def test_certified_bound_refuses_a_bad_tol(tol):
    # A negative tol gave a negative "certified" bound (-95.76 at -1.0), a NaN tol a NaN one.
    with pytest.raises(ValueError, match=f"^tol must be finite and nonnegative, got {tol!r}$"):
        certified_bound(cosine_power(1), 48, 2.0, 6.0, 1.0, tol)
    with pytest.raises(ValueError, match=f"^tol must be finite and nonnegative, got {tol!r}$"):
        Spectrum([0.0], 0.0, "external", tol)
    # Before any other check: the priors and the tail's domain are bad too.
    with pytest.raises(ValueError, match="^tol must be"):
        certified_bound(cosine_power(1), 0, math.nan, 6.0, -1.0, tol)


def test_estimate_certified_iff_bound_below_half(lasso_spectrum):
    assert Estimate(0.1, 0, 0.4999).certified
    assert not Estimate(0.1, 0, 0.5).certified
    assert not Estimate(0.1, 0, math.nan).certified
    est = certify(lasso_spectrum, cosine_power(1), 1.0, 48, 2.0, 6.0)
    assert est.S == truncated_sum(lasso_spectrum, cosine_power(1), 1.0, 48)
    assert est.chi_hat == 0 and est.certified
    assert math.isnan(certify(lasso_spectrum, cosine_power(1), 1.0, 48, None, 6.0).bound)


def test_tol_exceeds_plan(lasso_spectrum):
    # A tol beyond the plan's delta_max = 1/384 = 0.0026 still certifies
    # while the bound stays below 1/2, and is refused once it does not.
    tf, p = cosine_power(LASSO_PLAN.d), LASSO_PLAN
    noisy = perturb_spectrum(lasso_spectrum, NoiseModel(delta=0.0027, seed=1))
    assert noisy.tol > p.delta_max
    assert certified_bound(tf, p.J, p.M_bar, p.L_bar, p.t, noisy.tol) < 0.5
    assert recover_chi(noisy, p) == 0
    tail = tail_bound(p.d, p.J - p.M_bar, p.L_bar * p.t)
    for tol in ((0.5 - tail) * p.t / (2.0 * p.J), 0.00275):
        at_edge = Spectrum(lasso_spectrum.values, lasso_spectrum.k_max_covered, "external", tol)
        assert certified_bound(tf, p.J, p.M_bar, p.L_bar, p.t, tol) >= 0.5
        with pytest.raises(ValueError, match="not below 1/2"):
            recover_chi(at_edge, p)


def test_trace_check_bound_includes_the_tol_term():
    g = preset("lasso")
    s = spectrum_with_count(g, 60)
    tf, t, info = cosine_power(2), 0.3, summarize(g)
    _lhs, _rhs, _gap, bound = trace_check(g, tf, t, s)
    tail = tail_envelope(tf, 60 - info.M, info.total_length * t)
    assert s.tol > 0.0
    assert bound == certified_bound(tf, 60, info.M, info.total_length, t, s.tol)
    assert bound == tail + 2.0 * s.tol * 60 / t


@pytest.mark.parametrize("J", [20, 30, 48])
def test_tail_domination(lasso_spectrum, J):
    info = summarize(preset("lasso"))
    t = 1.0
    S = truncated_sum(lasso_spectrum, cosine_power(1), t, J)
    bound = tail_envelope(cosine_power(1), J - info.M, info.total_length * t)
    assert abs(S - info.chi) <= bound


def test_envelope_convergence():
    g = preset("lasso")
    info = summarize(g)
    s = spectrum_with_count(g, 150)
    t = 1.0
    prev_bound = math.inf
    for J in (30, 60, 100, 150):
        S = truncated_sum(s, cosine_power(1), t, J)
        bound = tail_envelope(cosine_power(1), J - info.M, info.total_length * t)
        assert abs(S - info.chi) <= bound
        assert bound < prev_bound
        prev_bound = bound
    assert prev_bound < 0.02


def test_scale_invariance():
    a = analytic_spectrum("loop", 120, length=1.0)
    b = analytic_spectrum("loop", 120, length=2.0)
    for t in (0.4, 1.0):
        sa = truncated_sum(a, cosine_power(1), t, 120)
        sb = truncated_sum(b, cosine_power(1), t / 2.0, 120)
        assert sb == pytest.approx(sa, abs=1e-9)


def test_divergence_for_large_t(lasso_spectrum):
    # Pushing t far beyond 1/l_min makes every transform factor approach 1
    # and the sum approach 2J instead of chi.
    S = truncated_sum(lasso_spectrum, cosine_power(1), 100.0, 48)
    assert S == pytest.approx(95.71371393725762, abs=1e-6)
    assert S > summarize(preset("lasso")).chi + 1


def noise_at(noise: NoiseModel, j) -> list[float]:
    """estimator._noise of one model at the 1-based indices j, as _perturbed draws it for k_j."""
    steps = np.array([((i + 1) * 0x9E3779B97F4A7C15) % 2**64 for i in j], dtype=np.uint64)
    return estimator._noise(noise.delta, np.array(noise.seed % 2**64, np.uint64), steps).tolist()


def test_noise_model_validation(lasso_spectrum):
    for delta in (-0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="delta must be finite and nonnegative"):
            NoiseModel(delta=delta)
    m = NoiseModel(delta=0.0)
    assert noise_at(m, range(1, 200)) == [0.0] * 199
    row = estimator._perturbed(lasso_spectrum, [m])[0]
    assert bits(row) == bits(lasso_spectrum.array)


def test_noise_model_deterministic_and_bounded():
    m = NoiseModel(delta=2e-3, seed=7)
    xs = noise_at(m, range(2, 200))
    ys = noise_at(m, range(2, 200))
    assert xs == ys
    assert all(abs(x) <= 2e-3 for x in xs)
    # Different indices decorrelate: not all equal, both signs appear.
    assert len(set(xs)) > 150
    assert min(xs) < 0 < max(xs)
    other = NoiseModel(delta=2e-3, seed=8)
    assert noise_at(other, range(2, 200)) != xs


def test_perturb_spectrum_properties(lasso_spectrum):
    delta = LASSO_PLAN.delta_max
    noisy = perturb_spectrum(lasso_spectrum, NoiseModel(delta=delta, seed=3))
    again = perturb_spectrum(lasso_spectrum, NoiseModel(delta=delta, seed=3))
    assert noisy.values == again.values
    assert noisy.values[0] == 0.0
    assert noisy.method == "external"
    assert noisy.tol == pytest.approx(lasso_spectrum.tol + delta, abs=0.0)
    base = np.array(lasso_spectrum.values)
    pert = np.array(noisy.values)
    assert np.all(np.abs(pert - base) <= delta + 1e-15)
    assert np.all(np.diff(pert) >= 0)
    assert np.all(pert >= 0)
    other = perturb_spectrum(lasso_spectrum, NoiseModel(delta=delta, seed=4))
    assert other.values != noisy.values


def reference_sample(noise: NoiseModel, j: int) -> float:
    """The SplitMix64 steps of estimator._noise on Python integers, one index at a time."""
    mask = (1 << 64) - 1
    z = (noise.seed + (j + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    z ^= z >> 31
    return noise.delta * (2.0 * ((z >> 11) * 2.0**-53) - 1.0)


def bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("seed", [0, 7, -3, 2**64 + 5])
def test_noise_sample_is_bit_identical_to_the_python_int_recurrence(seed):
    noise = NoiseModel(delta=2e-3, seed=seed)
    j = range(1, 5001)
    expected = [reference_sample(noise, i) for i in j]
    assert bits(noise_at(noise, j)) == bits(expected)
    assert bits(noise_at(noise, [5])) == bits(expected[4:5])


def test_perturb_spectrum_is_bit_identical_to_the_per_value_loop():
    s = spectrum_with_count(preset("k5"), 500)
    noise = NoiseModel(delta=K5_PLAN.delta_max, seed=7)
    expected = [s.values[0]] + [max(0.0, k + reference_sample(noise, j)) if k > 0.0 else k
                                for j, k in enumerate(s.values[1:], start=2)]
    assert bits(perturb_spectrum(s, noise).values) == bits(sorted(expected))


@pytest.mark.parametrize("n", [1, 2, 68, 134, 500])
@pytest.mark.parametrize("count", [1, 100])
def test_perturbed_rows_are_the_python_int_recurrence(n, count):
    # Runs on the numpy 1.22 floor too, where a uint64 mixed with a Python int becomes a float64.
    k = np.linspace(0.0, 2.0 * n, n)
    models = [NoiseModel(delta=1e-3 * (1 + i % 3), seed=7919 * i - 50) for i in range(count)]
    rows = estimator._perturbed(Spectrum(k.tolist(), 2.0 * n, "external", 0.0), models)
    assert rows.shape == (count, n)
    for row, noise in zip(rows, models):
        expected = [k[0]] + [max(0.0, kj + reference_sample(noise, j)) for j, kj in enumerate(k[1:], 2)]
        assert bits(row) == bits(sorted(expected))


def test_golden_steps_are_one_shared_read_only_array(monkeypatch):
    monkeypatch.setattr(estimator, "_steps", np.empty(0, np.uint64))
    models = [NoiseModel(delta=1e-3, seed=7)]
    arrays = []
    for n in (68, 500, 68):
        s = Spectrum(np.linspace(0.0, 50.0, n).tolist(), 50.0, "external", 0.0)
        row = estimator._perturbed(s, models)[0]
        arrays.append(estimator._steps)
        assert bits(row) == bits(estimator._perturbed(s, models * 2)[1])
    assert arrays[0] is not arrays[1] is arrays[2]  # grown once, to the longest length asked for
    steps = estimator._steps
    assert steps.size == 500 and not steps.flags.writeable
    assert steps.tolist() == [((j + 1) * 0x9E3779B97F4A7C15) % 2**64 for j in range(1, 501)]


def test_perturbed_spectrum_array_is_its_values():
    s = spectrum_with_count(preset("k5"), 41)
    for seed in (0, 7, 2**64 + 5):
        noisy = perturb_spectrum(s, NoiseModel(delta=0.05, seed=seed))
        assert bits(noisy.array) == bits(noisy.values)
        assert not noisy.array.flags.writeable


def test_noisy_recoveries_convert_the_clean_values_once(lasso_spectrum, monkeypatch):
    conversions, array = [], spectrum_module.array
    monkeypatch.setattr(spectrum_module, "array",
                        lambda code, values: conversions.append(values) or array(code, values))
    # A copy from the caller's tuple, converted once as it is built; each noisy copy is built
    # from its own array, with no conversion.
    values = lasso_spectrum.values
    s = Spectrum(values, lasso_spectrum.k_max_covered, lasso_spectrum.method, lasso_spectrum.tol)
    assert len(conversions) == 1 and conversions[0] is values
    for seed in range(20):
        noisy = perturb_spectrum(s, NoiseModel(LASSO_PLAN.delta_max, seed))
        assert recover_chi(noisy, LASSO_PLAN) == 0
    assert len(conversions) == 1


BATCH_SEEDS = list(range(-50, 49)) + [2**64 + 5]


@pytest.mark.parametrize("name, plan", [("lasso", LASSO_PLAN), ("k5", K5_PLAN)])
@pytest.mark.parametrize("delta", ["plan", 0.3])
def test_certify_perturbed_is_bit_identical_to_one_certify_per_model(name, plan, delta):
    s = spectrum_with_count(preset(name), plan.J + 20)
    delta = plan.delta_max if delta == "plan" else delta
    models = [NoiseModel(delta, seed) for seed in BATCH_SEEDS]
    tf = cosine_power(plan.d)
    for M, L in ((plan.M_bar, plan.L_bar), (None, None)):
        expected = [certify(perturb_spectrum(s, m), tf, plan.t, plan.J, M, L) for m in models]
        got = certify_perturbed(s, tf, plan.t, plan.J, M, L, models)
        assert [e.chi_hat for e in got] == [e.chi_hat for e in expected]
        assert bits([e.S for e in got]) == bits([e.S for e in expected])
        assert bits([e.bound for e in got]) == bits([e.bound for e in expected])
    chi = summarize(preset(name)).chi
    wrong = sum(e.chi_hat != chi for e in expected)
    assert (wrong > 0) == (delta == 0.3)
    assert certify_perturbed(s, tf, plan.t, plan.J, M, L, []) == []


def test_certify_perturbed_mixes_models_and_raises_like_certify(lasso_spectrum):
    p, tf = LASSO_PLAN, cosine_power(1)
    models = [NoiseModel(0.0, 3), NoiseModel(1e-3, -1), NoiseModel(0.2, 2**63)]
    expected = [certify(perturb_spectrum(lasso_spectrum, m), tf, p.t, p.J, p.M_bar, p.L_bar)
                for m in models]
    assert certify_perturbed(lasso_spectrum, tf, p.t, p.J, p.M_bar, p.L_bar, models) == expected
    with pytest.raises(ValueError, match="need J = 49"):
        certify_perturbed(lasso_spectrum, tf, p.t, 49, None, None, models)
    with pytest.raises(PlanError):
        certify_perturbed(lasso_spectrum, tf, p.t, 10, p.M_bar, p.L_bar, models)


def test_perturb_zero_delta_is_identity(lasso_spectrum):
    noisy = perturb_spectrum(lasso_spectrum, NoiseModel(delta=0.0, seed=11))
    assert noisy.values == lasso_spectrum.values
    assert noisy.tol == lasso_spectrum.tol


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tol, delta", [(0.0, 1e308), (1.7e308, 1e308), (0.0, 2.0**1023)])
def test_perturb_refuses_a_delta_that_overflows_before_any_noise(tol, delta):
    # The largest value 1.5e308 or tol, plus delta, overflows a float for every seed.
    s = Spectrum((0.0, 1.0, 1.5e308), 1.6e308, "external", tol)
    for seed in range(20):
        with pytest.raises(ValueError) as caught:
            perturb_spectrum(s, NoiseModel(delta, seed))
        assert str(caught.value) == f"delta = {delta:.6g} overflows the largest value 1.5e+308 or tol"
    # Where the sums stay below the largest float, 1.8e308, every seed is listed.
    s = Spectrum(s.values, s.k_max_covered, s.method, 0.0)
    for seed in range(20):
        noisy = perturb_spectrum(s, NoiseModel(2e307, seed))
        assert np.isfinite(noisy.array).all() and noisy.tol == 2e307


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tol, delta", [(0.0, 1e308), (1.7e308, 1e308), (0.0, 2.0**1023)])
def test_certify_perturbed_refuses_an_overflowing_delta_as_perturb_spectrum_does(tol, delta):
    s = Spectrum((0.0, 1.0, 1.5e308), 1.6e308, "external", tol)
    message = f"delta = {delta:.6g} overflows the largest value 1.5e+308 or tol"
    # The first model that overflows is named, here after one that does not.
    for models in [NoiseModel(delta, seed) for seed in range(20)], [NoiseModel(0.0), NoiseModel(delta, 1)]:
        for M, L in ((2.0, 6.0), (None, None)):
            with pytest.raises(ValueError) as caught:
                certify_perturbed(s, cosine_power(1), 1.0, 3, M, L, models)
            assert str(caught.value) == message


def outcomes(run):
    """run()'s estimates as (chi_hat, bits of S, bits of bound), or its error's type and message."""
    try:
        return [(e.chi_hat, *bits([e.S, e.bound])) for e in run()]
    except (ValueError, PlanError) as error:
        return type(error), str(error)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("delta", [0.0, 1e307, 1e308, "overflow"])
@pytest.mark.parametrize("name, plan", [("lasso", LASSO_PLAN), ("k5", K5_PLAN)])
def test_certify_perturbed_is_one_certify_per_model_errors_included(name, plan, delta):
    s = spectrum_with_count(preset(name), plan.J + 20)
    if delta == "overflow":  # a listing that ends at 1.5e308, which 1e308 overflows
        s, delta = Spectrum(s.values[:-1] + (1.5e308,), 1.6e308, "external", s.tol), 1e308
    models = [NoiseModel(delta, seed) for seed in BATCH_SEEDS]
    tf = cosine_power(plan.d)
    # The plan's delta and 0.3 are checked above. At half k5's t, k_J / t overflows on some rows
    # at delta 1e308, and the first is named.
    for t, M, L in ((plan.t, plan.M_bar, plan.L_bar), (plan.t, None, None),
                    (plan.t / 2, plan.M_bar, plan.L_bar)):
        expected = outcomes(lambda: [certify(perturb_spectrum(s, m), tf, t, plan.J, M, L) for m in models])
        assert outcomes(lambda: certify_perturbed(s, tf, t, plan.J, M, L, models)) == expected
    if delta == 1e307:  # 2 tol J / t overflows to an infinite bound, on Python floats
        assert all(e.bound == math.inf for e in certify_perturbed(s, tf, plan.t, plan.J, plan.M_bar,
                                                                   plan.L_bar, models))


def test_certify_perturbed_bounds_each_distinct_delta_once(lasso_spectrum, monkeypatch):
    p, tf, calls = LASSO_PLAN, cosine_power(1), []
    monkeypatch.setattr(estimator, "certified_bound",
                        lambda *args: calls.append(args[-1]) or certified_bound(*args))
    models = [NoiseModel(p.delta_max, seed) for seed in range(100)]
    certify_perturbed(lasso_spectrum, tf, p.t, p.J, p.M_bar, p.L_bar, models)
    assert calls == [lasso_spectrum.tol + p.delta_max]
    calls.clear()
    mixed = [NoiseModel((0.0, 1e-3, 2e-3)[i % 3], i) for i in range(30)]
    got = certify_perturbed(lasso_spectrum, tf, p.t, p.J, p.M_bar, p.L_bar, mixed)
    assert sorted(calls) == [lasso_spectrum.tol + d for d in (0.0, 1e-3, 2e-3)]
    tols = [lasso_spectrum.tol + m.delta for m in mixed]
    assert [e.bound for e in got] == [certified_bound(tf, p.J, p.M_bar, p.L_bar, p.t, tol) for tol in tols]
    calls.clear()
    certify_perturbed(lasso_spectrum, tf, p.t, p.J, None, None, models)
    assert calls == []


@pytest.mark.parametrize("seed", range(8))
def test_noise_sensitivity_bound(lasso_spectrum, seed):
    delta = LASSO_PLAN.delta_max
    t, J = LASSO_PLAN.t, LASSO_PLAN.J
    S = truncated_sum(lasso_spectrum, cosine_power(1), t, J)
    noisy = perturb_spectrum(lasso_spectrum, NoiseModel(delta=delta, seed=seed))
    S_noisy = truncated_sum(noisy, cosine_power(1), t, J)
    # Lipschitz bound: each of the J-1 nonzero terms moves by at most
    # 2 delta / t in argument and the transforms have slope below 1.
    assert abs(S_noisy - S) <= 2 * delta * J / t


# sha256 of certify's (S, bound) over the exact and 20 perturbed spectra of each graph at its
# plan, and of the perturbed values, in the little-endian float64 bytes: for the secular
# listing, reached as for incommensurate lengths, and for the default one, which lists these
# graphs by von Below.
RECOVER_DIGESTS = {"secular": "af35741e5ebdacc83b8b685381fdd3aeff769aac532f6bd81c4a982e0a3254af",
                   "auto": "1e3461ecb108562ac19dadf564ade1260cec95d5227fd2d96c0c8bfb1b13b5c4"}


def recover_path_digest(lister):
    digest = hashlib.sha256()
    graphs = [preset(name) for name in ("lasso", "k5", "k5-pendant", "k33")]
    for g in graphs + [complete_graph(n) for n in (6, 7, 8)]:
        info = summarize(g)
        plan = optimal_plan(0.25, info.M, info.total_length, info.l_min)
        s = lister(g, plan.J)
        tf = cosine_power(plan.d)
        for p in [s] + [perturb_spectrum(s, NoiseModel(plan.delta_max, seed)) for seed in range(20)]:
            est = certify(p, tf, plan.t, plan.J, plan.M_bar, plan.L_bar)
            digest.update(np.array([*p.values, est.S, est.bound], dtype="<f8").tobytes())
    return digest.hexdigest()


def test_recover_path_bits_are_frozen():
    assert recover_path_digest(search_listing) == RECOVER_DIGESTS["secular"]


def test_default_recover_path_bits_are_frozen():
    assert recover_path_digest(spectrum_with_count) == RECOVER_DIGESTS["auto"]


def test_recover_chi_exact(lasso_spectrum, k5_spectrum):
    assert recover_chi(lasso_spectrum, LASSO_PLAN) == 0
    assert recover_chi(k5_spectrum, K5_PLAN) == -5


def test_recover_chi_pendant_and_bipartite():
    p = optimal_plan(0.25, 6, 10, 2)
    s = spectrum_with_count(preset("k5-pendant"), p.J)
    assert recover_chi(s, p) == -4
    q = optimal_plan(0.25, 6, 9, 2)
    s33 = spectrum_with_count(preset("k33"), q.J)
    assert recover_chi(s33, q) == -3


def test_recover_chi_noisy(lasso_spectrum):
    for seed in range(10):
        noisy = perturb_spectrum(
            lasso_spectrum, NoiseModel(delta=LASSO_PLAN.delta_max, seed=seed)
        )
        assert recover_chi(noisy, LASSO_PLAN) == 0


def test_recover_chi_rejects_short_spectrum():
    s = spectrum_with_count(preset("lasso"), 20)
    with pytest.raises(ValueError):
        recover_chi(s, LASSO_PLAN)


def test_recover_chi_rejects_excess_tolerance(lasso_spectrum):
    too_noisy = Spectrum(
        values=lasso_spectrum.values,
        k_max_covered=lasso_spectrum.k_max_covered,
        method="external",
        tol=LASSO_PLAN.delta_max * 2,
    )
    with pytest.raises(ValueError):
        recover_chi(too_noisy, LASSO_PLAN)
