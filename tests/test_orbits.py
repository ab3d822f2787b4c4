"""Tests for periodic orbit enumeration and the trace identity."""

import gc
import hashlib
import heapq
import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from eulerchar import (
    OrbitBudgetError,
    build_graph,
    complete_graph,
    cosine_power,
    equilateral_subdivision,
    eval_time,
    interval_graph,
    loop_graph,
    optimal_plan,
    orbit_side,
    parse_graph,
    preset,
    spectrum_with_count,
    star_graph,
    summarize,
    trace_check,
    to_document,
    triangular,
    validate_spectrum,
    von_below_spectrum,
)
from eulerchar import orbits
from eulerchar import spectrum as spectrum_module
from eulerchar.graph import PRESET_NAMES
from eulerchar.orbits import enumerate_orbits, scattering_amplitude
from eulerchar.spectrum import _Bonds, secular_spectrum
from secular_listing import search_listing


def test_loop_orbits():
    orbits = enumerate_orbits(loop_graph(1.0), 2.0)
    assert len(orbits) == 4
    assert sorted(o.length for o in orbits) == [1.0, 1.0, 2.0, 2.0]
    for o in orbits:
        assert o.s_v == 1.0
        assert o.prim_length == 1.0  # doubles are repetitions of the primitive


def test_loop_zero_amplitude_orbit_is_pruned():
    # Out and back around the loop has length 2 but a degree-2 reflection, of amplitude 0.
    orbits = enumerate_orbits(loop_graph(1.0), 2.0)
    assert ((0, -1), (0, 1)) not in [o.steps for o in orbits]
    assert all(o.s_v != 0.0 for o in orbits)


def test_interval_bounce():
    orbits = enumerate_orbits(interval_graph(1.0), 4.0)
    assert len(orbits) == 2
    bounce, double = orbits
    assert bounce.length == 2.0
    assert bounce.prim_length == 2.0
    assert bounce.s_v == 1.0  # two endpoint reflections, coefficient 1 each
    assert double.length == 4.0
    assert double.prim_length == 2.0
    assert double.s_v == 1.0


def test_star_orbit_census():
    orbits = enumerate_orbits(star_graph(3), 4.0)
    assert len(orbits) == 9
    bounces = [o for o in orbits if o.length == 2.0]
    assert len(bounces) == 3
    for o in bounces:
        # One reflection at the leaf (coefficient 1) and one at the center
        # (2/3 - 1 = -1/3); each bounce is its own reversal so it appears once.
        assert o.s_v == pytest.approx(-1.0 / 3.0, rel=1e-15)
        assert o.prim_length == 2.0
    doubles = [o for o in orbits if o.length == 4.0 and o.prim_length == 2.0]
    assert len(doubles) == 3
    for o in doubles:
        assert o.s_v == pytest.approx(1.0 / 9.0, rel=1e-15)
    pairs = [o for o in orbits if o.prim_length == 4.0]
    assert len(pairs) == 3
    for o in pairs:
        # leaf -> center -> other leaf -> center: two transmissions (2/3)
        # and two leaf reflections (1).
        assert o.s_v == pytest.approx(4.0 / 9.0, rel=1e-15)


def test_lasso_orbit_census():
    orbits = enumerate_orbits(preset("lasso"), 2.0)
    assert len(orbits) == 5
    singles = [o for o in orbits if o.length == 1.0]
    assert len(singles) == 2  # the loop, once per orientation
    for o in singles:
        assert o.s_v == pytest.approx(2.0 / 3.0, rel=1e-15)
    turn = [o for o in orbits if o.prim_length == 2.0]
    assert len(turn) == 1  # loop out, reflect, loop back
    assert turn[0].s_v == pytest.approx(1.0 / 9.0, rel=1e-15)
    repeats = [o for o in orbits if o.length == 2.0 and o.prim_length == 1.0]
    assert len(repeats) == 2
    for o in repeats:
        assert o.s_v == pytest.approx(4.0 / 9.0, rel=1e-15)


def test_lasso_below_shortest_orbit_is_empty():
    assert enumerate_orbits(preset("lasso"), 0.9) == []


def test_l_max_validation():
    with pytest.raises(ValueError):
        enumerate_orbits(loop_graph(1.0), 0.0)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_min_orbit_length_equals_l_min(name):
    g = preset(name)
    info = summarize(g)
    orbits = enumerate_orbits(g, info.l_min + 0.5)
    assert orbits
    assert min(o.length for o in orbits) == pytest.approx(info.l_min, rel=1e-12)


def test_min_orbit_length_simple_graphs():
    for g, expected in [
        (loop_graph(1.0), 1.0),
        (interval_graph(1.0), 2.0),
        (star_graph(3), 2.0),
    ]:
        orbits = enumerate_orbits(g, expected + 0.1)
        assert min(o.length for o in orbits) == pytest.approx(expected, rel=1e-12)
        assert summarize(g).l_min == pytest.approx(expected, rel=1e-12)


def test_scattering_amplitude_matches_enumeration():
    for g, l_max in [
        (loop_graph(1.0), 3.0),
        (star_graph(3), 4.0),
        (preset("lasso"), 3.0),
        (preset("k5"), 4.0),
    ]:
        for o in enumerate_orbits(g, l_max):
            assert scattering_amplitude(o, g) == pytest.approx(o.s_v, rel=1e-13)


def test_reversal_pairing():
    g = preset("lasso")
    orbits = enumerate_orbits(g, 3.0)
    table = {o.steps: o for o in orbits}
    for o in orbits:
        rev = tuple((e, -d) for e, d in reversed(o.steps))
        # canonical rotation of the reversal must be present with identical
        # length and amplitude (time-reversal symmetry)
        candidates = [
            rot
            for rot in (rev[i:] + rev[:i] for i in range(len(rev)))
            if rot in table
        ]
        assert candidates
        mate = table[candidates[0]]
        assert mate.length == o.length
        assert mate.s_v == pytest.approx(o.s_v, rel=1e-15)


def test_repetition_budget_error():
    with pytest.raises(OrbitBudgetError):
        enumerate_orbits(preset("k5"), 8.0, max_orbits=50)


def test_orbit_side_loop_hand_value():
    # t = 1/3 on the unit loop: orbits of length 1, 2 contribute
    # (2/3)(phi(1/3) + phi(2/3)) and phi_1(1/3) = phi_1(2/3) = 3/2.
    got = orbit_side(loop_graph(1.0), cosine_power(1), 1.0 / 3.0)
    assert got == pytest.approx(2.0, rel=1e-13)
    assert eval_time(cosine_power(1), 1.0 / 3.0) == pytest.approx(1.5, rel=1e-15)


def test_orbit_side_equals_chi_when_support_is_short():
    # With 1/t below the shortest orbit the sum is empty and only chi is left.
    assert orbit_side(preset("lasso"), cosine_power(1), 1.25) == 0.0
    assert orbit_side(preset("k5"), cosine_power(1), 1.0) == -5.0
    assert orbit_side(preset("k33"), cosine_power(2), 0.75) == -3.0
    assert orbit_side(interval_graph(1.0), triangular(), 0.75) == 1.0


def test_orbit_side_subdivision_invariant():
    g = preset("lasso")
    sub, _ = equilateral_subdivision(g)
    for t in (0.4, 0.6):
        a = orbit_side(g, cosine_power(1), t)
        b = orbit_side(sub, cosine_power(1), t)
        assert b == pytest.approx(a, abs=1e-9)


def _incommensurate_graph():
    # Two loops, two parallel edges and no common divisor of the lengths.
    return build_graph("odd", ["a", "b"], [("a", "a", math.sqrt(2)), ("b", "b", 0.45),
                                          ("a", "b", 1.0), ("a", "b", 1.7)])


WALK_GRAPHS = {
    "loop": loop_graph(1.0),
    "interval": interval_graph(1.0),
    "star3": star_graph(3),
    **{name: preset(name) for name in PRESET_NAMES},
    "odd": _incommensurate_graph(),
}


# Listing the orbits of k5, k5-pendant and k33 below 1/0.15, or of odd below 1/0.1, takes too long.
@pytest.mark.parametrize("name,t", [
    (name, t) for name in WALK_GRAPHS for t in (0.15, 0.25, 0.4, 0.7)
    if t > 0.15 or name not in ("k5", "k5-pendant", "k33")
] + [(name, t) for name in ("loop", "interval", "star3", "lasso") for t in (0.1, 0.07)])
def test_orbit_side_equals_the_orbit_listing(name, t):
    g = WALK_GRAPHS[name]
    listing = enumerate_orbits(g, 1.0 / t)
    for tf in (cosine_power(1), cosine_power(2), cosine_power(5), triangular()):
        oracle = summarize(g).chi + math.fsum(
            o.prim_length * o.s_v * t * eval_time(tf, t * o.length) for o in listing
        )
        assert orbit_side(g, tf, t) == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("name,t", [("lasso", 0.06), ("lasso", 0.002), ("odd", 0.03)])
def test_trace_check_does_not_list_orbits(monkeypatch, name, t):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_orbits called")

    monkeypatch.setattr(orbits, "enumerate_orbits", refuse)
    g = WALK_GRAPHS[name]
    info = summarize(g)
    s = secular_spectrum(g, (info.M + 200) * math.pi / info.total_length)
    _lhs, _rhs, gap, bound = trace_check(g, cosine_power(2), t, s)
    assert gap <= bound + 1e-9


def test_orbit_side_closes_each_length_once(monkeypatch):
    # Lasso's walk lengths are the whole numbers below 1/0.002: 499 of them, each
    # closed once however many numbers of bonds reach it.
    seen = []

    def counting(tf, x):
        seen.append(len(x))
        return eval_time(tf, x)

    monkeypatch.setattr(orbits, "eval_time", counting)
    orbit_side(preset("lasso"), cosine_power(2), 0.002)
    assert seen == [499]


def test_orbit_side_walk_budget(monkeypatch):
    # K10 at t = 0.002: 499 lengths x 90^2 entries.
    with pytest.raises(OrbitBudgetError):
        orbit_side(complete_graph(10), cosine_power(2), 0.002)
    monkeypatch.setattr(orbits, "MAX_WALK_ENTRIES", 1000)
    with pytest.raises(OrbitBudgetError):
        orbit_side(preset("k5"), cosine_power(2), 0.2)
    assert orbit_side(loop_graph(1.0), cosine_power(2), 0.2) == pytest.approx(2.0, abs=1e-12)


def held_walks(monkeypatch) -> list[int]:
    """Lengths orbit_side has closed plus those it holds pending, recorded before each pop."""
    held = []

    def heappop(pending):
        held.append(len(held) + len(pending))
        return heapq.heappop(pending)

    monkeypatch.setattr(orbits, "heapq", SimpleNamespace(heappop=heappop, heappush=heapq.heappush))
    return held


def test_orbit_side_walk_budget_counts_the_walks_it_holds(monkeypatch):
    # The lasso with its 5.0 edge at 1e-300: walks that differ in the short edge have distinct
    # lengths, so the pending lengths far outnumber the closed ones before the budget is reached.
    g = parse_graph(to_document(preset("lasso")).replace("5.0", "1e-300"))
    held = held_walks(monkeypatch)
    monkeypatch.setattr(orbits, "MAX_WALK_ENTRIES", 16_000)
    with pytest.raises(OrbitBudgetError, match="^orbit side at t=0.3 exceeds 16000 walk entries$"):
        orbit_side(g, cosine_power(1), 0.3)
    # At the refusal the closed lengths alone hold half the budget; counted alone, they ran on.
    assert max(held) * (2 * len(g.edges)) ** 2 <= 16_000


@pytest.mark.parametrize("name, t", [("lasso", 0.1), ("lasso", 0.07), ("lasso", 0.06),
                                     ("k5", 0.2), ("k33", 0.2), ("k5-pendant", 0.2)])
def test_trace_workload_cases_stay_within_the_walk_budget(name, t, monkeypatch):
    held = held_walks(monkeypatch)
    g = preset(name)
    assert math.isfinite(orbit_side(g, cosine_power(2), t))
    # At most 1,600 entries: three orders of magnitude inside the budget.
    assert max(held) * (2 * len(g.edges)) ** 2 <= orbits.MAX_WALK_ENTRIES // 1000


@pytest.mark.parametrize("t", [0.0, -0.5, math.nan, math.inf])
def test_orbit_side_and_trace_check_reject_bad_t(t):
    g = preset("lasso")
    with pytest.raises(ValueError, match="t must be positive and finite"):
        orbit_side(g, cosine_power(1), t)
    with pytest.raises(ValueError, match="t must be positive and finite"):
        trace_check(g, cosine_power(1), t, spectrum_with_count(g, 30))


@pytest.fixture(scope="module")
def trace_spectra():
    graphs = {
        "loop": loop_graph(1.0),
        "interval": interval_graph(1.0),
        "star": star_graph(3),
        "lasso": preset("lasso"),
    }
    return {name: (g, spectrum_with_count(g, 60)) for name, g in graphs.items()}


@pytest.mark.parametrize("name", ["loop", "interval", "star", "lasso"])
@pytest.mark.parametrize("t", [0.3, 0.4, 0.6])
@pytest.mark.parametrize("d", [1, 2])
def test_trace_identity_certified(trace_spectra, name, t, d):
    g, s = trace_spectra[name]
    lhs, rhs, gap, bound = trace_check(g, cosine_power(d), t, s)
    assert gap <= bound + 1e-9
    assert math.isfinite(lhs) and math.isfinite(rhs)


def test_trace_identity_triangular():
    g = loop_graph(1.0)
    s = spectrum_with_count(g, 60)
    lhs, rhs, gap, bound = trace_check(g, triangular(), 0.4, s)
    assert gap <= bound + 1e-9


def test_trace_check_requires_enough_values():
    g = preset("lasso")
    s = spectrum_with_count(g, 10)
    with pytest.raises(ValueError):
        trace_check(g, cosine_power(2), 0.6, s)  # needs > M + 2 L t d = 16.4


def test_a_graph_builds_its_tables_once_and_drops_them_with_it(monkeypatch):
    # The listing, which scans a 12-arm star twice as its first k_max falls short, the
    # validation, the trace checks, the orbit side and the orbit oracles of one graph share
    # one _Bonds, and it goes with the graph. So do the repeated listings, lifts and
    # validations of a lifted graph, with one subdivision and one discrete eigensolve.
    built, scans, subdivided, solved = [], [], [], []
    real_init, real_scan = _Bonds.__init__, spectrum_module.secular_spectrum
    real_subdivision, real_eigvalsh = spectrum_module.equilateral_subdivision, np.linalg.eigvalsh
    monkeypatch.setattr(_Bonds, "__init__",
                        lambda self, g: built.append(g.name) or real_init(self, g))
    monkeypatch.setattr(spectrum_module, "secular_spectrum",
                        lambda g, k_max: scans.append(k_max) or real_scan(g, k_max))
    monkeypatch.setattr(spectrum_module, "equilateral_subdivision",
                        lambda g: subdivided.append(g.name) or real_subdivision(g))
    monkeypatch.setattr(np.linalg, "eigvalsh",  # a batch of vertex matrices is 3-d
                        lambda a: (a.ndim == 2 and solved.append(len(a))) or real_eigvalsh(a))
    g = star_graph(12, name="table-star")
    s = spectrum_with_count(g, 2)  # 13 vertices in the subdivision: the secular search
    assert len(scans) == 2
    assert validate_spectrum(s, g).ok
    s = secular_spectrum(g, 40.0 * math.pi / g.total_length())
    for t in (0.1, 0.2, 0.3):
        _lhs, _rhs, gap, bound = trace_check(g, cosine_power(2), t, s)
        assert gap <= bound + 1e-9
    assert orbit_side(g, cosine_power(2), 0.15) == trace_check(g, cosine_power(2), 0.15, s)[0]
    for o in enumerate_orbits(g, 4.0):
        assert scattering_amplitude(o, g) == pytest.approx(o.s_v, rel=1e-15)
    lifted = preset("k5-pendant")
    for count in (42, 42, 500):
        s = spectrum_with_count(lifted, count)
        assert validate_spectrum(s, lifted).ok
    lift = von_below_spectrum(lifted, s.k_max_covered).values
    assert lift == s.values[: len(lift)]
    assert built == ["table-star", "k5-pendant"] and subdivided == built
    assert solved == [len(equilateral_subdivision(lifted)[0].vertices)]
    graphs = [weakref.ref(x) for x in (g, lifted)]
    tables = [weakref.ref(spectrum_module._bonds_of(x)) for x in (g, lifted)]
    del g, lifted
    gc.collect()
    assert all(ref() is None for ref in graphs + tables)


def test_a_graph_keeps_its_table_when_an_equal_graph_goes(monkeypatch):
    # Each graph object keeps its own table, so one that outlives an equal graph lists and
    # validates without building another.
    built = []
    real_init = _Bonds.__init__
    monkeypatch.setattr(_Bonds, "__init__", lambda self, g: built.append(g.name) or real_init(self, g))
    g, twin = preset("k33"), preset("k33")
    assert g == twin and hash(g) == hash(twin)
    for graph in (g, twin):
        assert validate_spectrum(spectrum_with_count(graph, 30), graph).ok
    assert built == ["k33", "k33"]
    del g, graph
    gc.collect()
    assert validate_spectrum(spectrum_with_count(twin, 30), twin).ok
    assert built == ["k33", "k33"]


# sha256 of orbit_side at the trace workload's cases, lasso at t = 0.002 and odd at t = 0.03,
# and of the planned-J listings and their validation reports, each computed twice, the second
# time from the filled table; float64 values in little-endian bytes.
TABLE_DIGEST = "10f44206c9401757992b300ce9fe5b5f6e3934694233d31ebf27e94659de5fb4"


def test_shared_tables_keep_the_bits():
    digest = hashlib.sha256()
    cases = [(preset(name), t) for name, t in (("lasso", 0.1), ("lasso", 0.07), ("lasso", 0.06),
                                               ("k5", 0.2), ("k33", 0.2), ("k5-pendant", 0.2),
                                               ("lasso", 0.002))]
    for g, t in cases + [(_incommensurate_graph(), 0.03)]:
        for _ in range(2):
            digest.update(np.array([orbit_side(g, cosine_power(2), t)], dtype="<f8").tobytes())
    graphs = [preset(name) for name in ("lasso", "k5", "k5-pendant", "k33")]
    for g in graphs + [complete_graph(n) for n in (6, 7, 8)]:
        info = summarize(g)
        J = optimal_plan(0.25, info.M, info.total_length, info.l_min).J
        for _ in range(2):
            s = search_listing(g, J)
            r = validate_spectrum(s, g)
            digest.update(np.array([*s.values, s.k_max_covered, s.tol], dtype="<f8").tobytes())
            digest.update(repr((s.method, r.weyl_lower_ok, r.zero_mode_ok, r.count_ok,
                                r.messages)).encode())
    assert digest.hexdigest() == TABLE_DIGEST
