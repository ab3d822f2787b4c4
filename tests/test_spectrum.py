"""Tests for the three spectrum backends and their cross-validation."""

import copy
import dataclasses
import math
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from eulerchar import (
    GraphError,
    Spectrum,
    SpectrumCountError,
    analytic_spectrum,
    build_graph,
    cli,
    compare_spectra,
    complete_bipartite_graph,
    complete_graph,
    equilateral_subdivision,
    interval_graph,
    loop_graph,
    optimal_plan,
    preset,
    read_spectrum_csv,
    recover_chi,
    secular_spectrum,
    spectrum_csv_text,
    spectrum_with_count,
    star_graph,
    subdivide_edge,
    summarize,
    to_document,
    two_colouring,
    validate_spectrum,
    von_below_spectrum,
    write_spectrum_csv,
)
from eulerchar import spectrum as spectrum_module
from eulerchar.estimator import NoiseModel, perturb_spectrum
from eulerchar.graph import PRESET_NAMES
from eulerchar.spectrum import (ROOT_TOL, _GRID_ENTRIES, _Bonds, _cluster_starts, _grid,
                                _grid_counts, secular_matrix)
from secular_listing import search_listing


def r2_graph():
    """Four 4-decimal lengths and a loop; a scan of singular-value minima
    misses its roots at 8.866, 9.806 and one of the close pair near 11.82."""
    return build_graph(
        "r2",
        ["v0", "v1", "v2", "v3"],
        [("v0", "v1", 0.8332), ("v1", "v2", 0.6381), ("v2", "v3", 1.7894),
         ("v1", "v1", 1.9432), ("v3", "v2", 0.3367)],
    )


def test_spectrum_constructor_validation():
    with pytest.raises(ValueError):
        Spectrum(values=(), k_max_covered=1.0, method="analytic", tol=0.0)
    with pytest.raises(ValueError):
        Spectrum(values=(1.0, 2.0), k_max_covered=3.0, method="analytic", tol=0.0)
    with pytest.raises(ValueError):
        Spectrum(values=(0.0, 2.0, 1.0), k_max_covered=3.0, method="analytic", tol=0.0)
    with pytest.raises(ValueError):
        Spectrum(values=(0.0, -1.0), k_max_covered=3.0, method="analytic", tol=0.0)
    with pytest.raises(ValueError):
        Spectrum(
            values=(0.0, float("nan")), k_max_covered=3.0, method="analytic", tol=0.0
        )
    with pytest.raises(ValueError):
        Spectrum(values=(0.0, 1.0), k_max_covered=3.0, method="magic", tol=0.0)
    with pytest.raises(ValueError):
        Spectrum(values=(0.0, 1.0), k_max_covered=3.0, method="analytic", tol=-1e-3)
    s = Spectrum(values=(0.0, 1.0, 1.0), k_max_covered=2.0, method="external", tol=0.1)
    assert s.values == (0.0, 1.0, 1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            Spectrum(values=(0.0, 1.0), k_max_covered=3.0, method="external", tol=bad)
        with pytest.raises(ValueError):
            Spectrum(values=(0.0, 1.0), k_max_covered=bad, method="external", tol=0.0)
    # Each rejection of a caller's values keeps its type and message. A lister's array is not
    # checked: test_every_lister_path_proves_the_array_checks holds its proofs.
    for values, error, message in REJECTED_VALUES:
        with pytest.raises(error) as caught:
            Spectrum(values, 3.0, "external", 0.0)
        assert type(caught.value) is error and str(caught.value) == message
    # Values that are not floats but that math.isfinite reads come back as floats.
    for values in ((0, 1, 2), (0.0, Fraction(1, 3), Decimal("0.5")), (-0.0, True)):
        s = Spectrum(values, 3.0, "external", 0.0)
        assert s.values == tuple(float(v) for v in values)
        assert {type(v) for v in s.values} == {float}
        assert _bits(s.array) == _bits([float(v) for v in values])


# np.fromiter would read "1.5" as 1.5, None as NaN and 2**60 + 1 as 2.0**60, which would pass
# the array's checks or fail them with another error.
REJECTED_VALUES = [
    ((0.0, math.nan), ValueError, "eigenfrequency nan is not a finite nonnegative real"),
    ((0.0, 1.0, math.nan, 2.0), ValueError, "eigenfrequency nan is not a finite nonnegative real"),
    ((0.0, math.inf), ValueError, "eigenfrequency inf is not a finite nonnegative real"),
    ((0.0, -1.0), ValueError, "eigenfrequency -1.0 is not a finite nonnegative real"),
    ((0.0, 2.0, 1.0), ValueError, "eigenfrequencies must be nondecreasing"),
    ((1.0, 2.0), ValueError, "spectra must start at k_1 = 0, got 1.0"),
    ((math.nan,), ValueError, "spectra must start at k_1 = 0, got nan"),
    (("0", 1.0), ValueError, "spectra must start at k_1 = 0, got '0'"),
    ((0.0, "1.5"), TypeError, "must be real number, not str"),
    ((0.0, None), TypeError, "must be real number, not NoneType"),
    ((0.0, 10**400), OverflowError, "int too large to convert to float"),
    ((0.0, 2**60 + 1, 2.0**60), ValueError, "eigenfrequencies must be nondecreasing"),
]


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


# A signed zero, a subnormal, repeats and values with no short decimal form.
ARRAY_VALUES = (-0.0, 5e-324, 0.1, 1.0 / 3.0, 1.0 / 3.0, math.pi, 2.0**60 + 2.0**8)


def counted_conversions(monkeypatch) -> list:
    """The values each later Spectrum construction converts, in order: the constructor alone
    converts, through array("d")."""
    conversions, array = [], spectrum_module.array
    monkeypatch.setattr(spectrum_module, "array",
                        lambda code, values: conversions.append(values) or array(code, values))
    return conversions


def test_spectrum_array_is_the_values_read_only_built_once(monkeypatch):
    conversions = counted_conversions(monkeypatch)
    s = Spectrum(ARRAY_VALUES, 4.0, "external", 1e-10)
    a = vars(s)["array"]  # built at construction, from one conversion of the values
    assert len(conversions) == 1 and conversions[0] is ARRAY_VALUES
    assert "values" not in vars(s)  # the array is the one representation
    assert s.array is a
    assert a.dtype == np.float64
    assert _bits(a) == _bits(ARRAY_VALUES)
    assert not a.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        a[1] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.values = ()
    assert s.values == ARRAY_VALUES and _bits(s.values) == _bits(ARRAY_VALUES)
    assert s.values is not s.values  # a tuple built on each read
    assert len(conversions) == 1


def _tiny_lasso():
    """The lasso with its 5.0 edge at 5e-324: pi / 5e-324 overflows a float."""
    return build_graph("tiny", ["a", "b"], [("a", "a", 1.0), ("a", "b", 5e-324)])


@pytest.mark.parametrize("path", ["von-below", "secular", "cut", "secular-cut", "perturb", "csv",
                                  "replace", "pickle", "tuple", "analytic"])
def test_every_constructor_gives_its_values_as_a_read_only_array(tmp_path, path):
    k5 = spectrum_with_count(preset("k5"), 500)
    make = {
        "von-below": lambda: von_below_spectrum(preset("k5"), 30.0),
        "secular": lambda: secular_spectrum(preset("lasso"), 20.0),
        "cut": lambda: k5,
        "secular-cut": lambda: spectrum_with_count(_tiny_lasso(), 20),
        "perturb": lambda: perturb_spectrum(k5, NoiseModel(1e-3, 7)),
        "csv": lambda: write_spectrum_csv(tmp_path / "k5.csv", k5)
                       or read_spectrum_csv(tmp_path / "k5.csv")[0],
        "replace": lambda: dataclasses.replace(k5, tol=0.5),
        "pickle": lambda: pickle.loads(pickle.dumps(k5)),
        "tuple": lambda: Spectrum(ARRAY_VALUES, 4.0, "external", 1e-10),
        "analytic": lambda: analytic_spectrum("equilateral-star", 40),
    }
    s = make[path]()
    assert {type(v) for v in s.values} == {float}
    a = vars(s)["array"]
    assert a.dtype == np.float64 and a.shape == (len(s.values),)
    assert _bits(a) == _bits(s.values)
    assert not a.flags.writeable


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_listing_and_its_certificate_convert_no_tuple_to_an_array(monkeypatch, name):
    conversions = counted_conversions(monkeypatch)
    g = preset(name)
    s = spectrum_with_count(g, 500)
    assert validate_spectrum(s, g).ok and compare_spectra(s, s) == 0.0
    assert s.array.size == 500 and conversions == []


def _weird_lasso():
    """The lasso with its 5.0 edge at 5.000000001: no usable common divisor, so it is listed by
    the secular search."""
    return build_graph("weird", ["a", "b"], [("a", "a", 1.0), ("a", "b", 5.000000001)])


def _noisy_at_delta_max(g):
    """g's listing at its plan's J, perturbed at the plan's delta_max."""
    info = summarize(g)
    plan = optimal_plan(0.25, info.M, info.total_length, info.l_min)
    return perturb_spectrum(spectrum_with_count(g, plan.J), NoiseModel(plan.delta_max, 3))


LISTER_PATHS = {
    **{f"von-below-{name}": (lambda name=name: spectrum_with_count(preset(name), 500), "von-below")
       for name in PRESET_NAMES},
    "von-below-direct": (lambda: von_below_spectrum(preset("k33"), 60.0), "von-below"),
    "thirds": (lambda: spectrum_with_count(thirds_graph(), 40), "von-below"),
    "secular": (lambda: spectrum_with_count(_weird_lasso(), 60), "secular"),
    "secular-direct": (lambda: secular_spectrum(_weird_lasso(), 30.0), "secular"),
    "cut": (lambda: spectrum_with_count(_tiny_lasso(), 20), "secular"),
    "perturb-delta-max": (lambda: _noisy_at_delta_max(complete_graph(6)), "external"),
    "perturb-1e307": (lambda: perturb_spectrum(spectrum_with_count(preset("lasso"), 48),
                                               NoiseModel(1e307, 5)), "external"),
}


@pytest.mark.parametrize("path", sorted(LISTER_PATHS))
def test_every_lister_path_proves_the_array_checks(path):
    # Spectrum._of leaves the array unchecked, on its callers' proofs; these hold them.
    make, method = LISTER_PATHS[path]
    s = make()
    a = s.array
    assert s.method == method
    assert a.dtype == np.float64 and a.ndim == 1 and not a.flags.writeable
    assert a[0] == 0.0 and np.isfinite(a).all() and (a >= 0.0).all() and (a[1:] >= a[:-1]).all()
    assert math.isfinite(s.tol) and math.isfinite(s.k_max_covered)
    assert Spectrum(a, s.k_max_covered, s.method, s.tol) == s  # the constructor's checks pass


@pytest.mark.parametrize("tol", [0.0, 1e-10, 0.3])
def test_cluster_starts_equal_the_first_differences_from_minus_inf(tol):
    rng = random.Random(11)
    listings = [np.zeros(0), np.zeros(1), spectrum_with_count(preset("k5"), 120).array]
    for size in (2, 3, 40):
        listings.append(np.sort([rng.choice((0.0, 0.5, 1.0)) + rng.choice((0.0, 1e-10, 1e-8))
                                 for _ in range(size)]))
    for values in listings:
        expected = np.flatnonzero(np.diff(values, prepend=-math.inf) > 2.0 * (tol + ROOT_TOL))
        got = _cluster_starts(values, tol)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


def test_spectrum_array_leaves_equality_hash_and_repr_alone():
    built, fresh = (Spectrum(ARRAY_VALUES, 4.0, "external", 1e-10) for _ in range(2))
    built.array
    assert built == fresh and fresh == built
    assert hash(built) == hash(fresh)
    assert repr(built) == repr(fresh)
    assert spectrum_csv_text(built) == spectrum_csv_text(fresh)
    assert built != Spectrum(ARRAY_VALUES[:-1], 4.0, "external", 1e-10)


def test_spectrum_array_survives_pickle_copy_and_replace():
    s = Spectrum(ARRAY_VALUES, 4.0, "external", 1e-10)
    s.array
    copies = [pickle.loads(pickle.dumps(s, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(s), copy.deepcopy(s), dataclasses.replace(s)]
    for c in copies:
        assert c == s and hash(c) == hash(s)
        assert _bits(c.values) == _bits(s.values)
        assert _bits(c.array) == _bits(s.values)
        assert not c.array.flags.writeable
    moved = dataclasses.replace(s, values=ARRAY_VALUES[:3])
    assert _bits(moved.array) == _bits(ARRAY_VALUES[:3])


def test_analytic_interval():
    s = analytic_spectrum("interval", 5)
    assert s.values == pytest.approx(
        [0.0, math.pi, 2 * math.pi, 3 * math.pi, 4 * math.pi], abs=1e-15
    )
    assert s.method == "analytic"
    assert s.tol == 0.0


def test_analytic_loop_multiplicity_two():
    s = analytic_spectrum("loop", 7)
    two_pi = 2 * math.pi
    assert s.values == pytest.approx(
        [0.0, two_pi, two_pi, 2 * two_pi, 2 * two_pi, 3 * two_pi, 3 * two_pi],
        abs=1e-15,
    )


def test_analytic_star():
    s = analytic_spectrum("equilateral-star", 7, arms=3)
    h = math.pi / 2
    assert s.values == pytest.approx(
        [0.0, h, h, 2 * h, 3 * h, 3 * h, 4 * h], abs=1e-14
    )


def test_analytic_length_scaling():
    a = analytic_spectrum("interval", 5, length=1.0)
    b = analytic_spectrum("interval", 5, length=2.0)
    assert np.array(b.values) == pytest.approx(np.array(a.values) / 2.0, abs=1e-15)


def test_analytic_unknown_family():
    with pytest.raises(ValueError):
        analytic_spectrum("moebius", 5)


@pytest.mark.parametrize(
    "family,graph",
    [
        ("interval", interval_graph(1.0)),
        ("loop", loop_graph(1.0)),
        ("equilateral-star", star_graph(3)),
    ],
)
def test_secular_matches_analytic(family, graph):
    exact = analytic_spectrum(family, 12)
    k_max = exact.values[-1] + 0.5
    got = secular_spectrum(graph, k_max)
    n = min(len(got.values), 12)
    assert n >= 10
    diff = np.abs(np.array(got.values[:n]) - np.array(exact.values[:n]))
    assert np.max(diff) < 1e-10


def test_secular_loop_multiplicities():
    s = secular_spectrum(loop_graph(1.0), 14.0)
    two_pi = 2 * math.pi
    assert s.values == pytest.approx(
        [0.0, two_pi, two_pi, 2 * two_pi, 2 * two_pi], abs=1e-9
    )


def test_secular_lasso_frozen_head():
    s = secular_spectrum(preset("lasso"), 3.0)
    expected = [
        0.0,
        0.529025835751,
        1.081366643542,
        1.656815884582,
        2.246241932004,
        2.842473451923,
    ]
    assert s.values[:6] == pytest.approx(expected, abs=1e-9)


def test_von_below_interval():
    s = von_below_spectrum(interval_graph(1.0), 7.0)
    assert s.values == pytest.approx([0.0, math.pi, 2 * math.pi], abs=1e-12)
    assert s.method == "von-below"


def test_von_below_star():
    s = von_below_spectrum(star_graph(3), 7.0)
    h = math.pi / 2
    assert s.values == pytest.approx(
        [0.0, h, h, 2 * h, 3 * h, 3 * h, 4 * h], abs=1e-12
    )


def test_von_below_k5_head():
    s = von_below_spectrum(preset("k5"), 8.0)
    a = math.acos(-0.25)
    expected = (
        [0.0]
        + [a] * 4
        + [math.pi] * 5
        + [2 * math.pi - a] * 4
    )
    assert s.values[: len(expected)] == pytest.approx(expected, abs=1e-12)


LIFTED_GRAPHS = {
    "lasso": preset("lasso"),
    "loop": loop_graph(1.0),
    "triangle": build_graph("triangle", ["a", "b", "c"],
                            [("a", "b", 0.3), ("b", "c", 0.5), ("c", "a", 0.2)]),
    "long-lasso": build_graph("long-lasso", ["a", "b"], [("a", "a", 1.01), ("a", "b", 8.99)]),
}


def fresh_copy(g):
    """A graph equal to g with no table of its own yet: never listed, lifted or counted."""
    return build_graph(g.name, list(g.vertices), [(e.u, e.v, e.length) for e in g.edges])


@pytest.mark.parametrize("name", sorted(LIFTED_GRAPHS))
def test_von_below_lifts_the_subdivision(name):
    g = LIFTED_GRAPHS[name]
    lifted = von_below_spectrum(equilateral_subdivision(g)[0], 20.0)
    assert von_below_spectrum(g, 20.0).values == lifted.values


def test_von_below_rejects_lengths_without_a_usable_divisor():
    g = build_graph("lasso", ["a", "b"], [("a", "a", 1.0), ("a", "b", 5.000000001)])
    with pytest.raises(GraphError, match="common divisor too small"):
        von_below_spectrum(g, 5.0)


def von_below_by_loops(g, k_max):
    """von Below's lift with a loop per branch and per lattice point, each run until
    it passes k_max: the reference for the array form in von_below_spectrum."""
    g, a = equilateral_subdivision(g)
    index = {v: i for i, v in enumerate(g.vertices)}
    adjacency = np.zeros((len(index), len(index)))
    for e in g.edges:
        adjacency[index[e.u], index[e.v]] += 1.0
        adjacency[index[e.v], index[e.u]] += 1.0
    scale = 1.0 / np.sqrt(adjacency.sum(axis=1))
    mu = np.linalg.eigvalsh(scale[:, None] * adjacency * scale[None, :])
    colour = two_colouring(g)
    bipartite = all(colour[e.u] != colour[e.v] for e in g.edges)
    values = [0.0]
    for m in mu[int(bipartite) : -1]:
        phi = math.acos(float(m))
        n = 0
        while (phi + 2.0 * math.pi * n) / a <= k_max or (2.0 * math.pi * (n + 1) - phi) / a <= k_max:
            values += [k for k in ((phi + 2.0 * math.pi * n) / a, (2.0 * math.pi * (n + 1) - phi) / a)
                       if k <= k_max]
            n += 1
    n_minus_m = len(g.edges) - len(g.vertices)
    lattice = 1
    while lattice * math.pi / a <= k_max:
        multiplicity = n_minus_m + 2 if bipartite or lattice % 2 == 0 else n_minus_m
        values += [lattice * math.pi / a] * multiplicity
        lattice += 1
    return tuple(sorted(values))


@pytest.mark.parametrize("g, k_max", [
    *((preset(name), k_max) for name in ("lasso", "k5", "k5-pendant", "k33")
      for k_max in (3.0, math.pi, 25.0, 170.0, 300.0)),
    *((complete_graph(n), k_max) for n in (6, 8, 10) for k_max in (5 * math.pi, 45.0)),
    *((g, k_max) for g in (star_graph(5), interval_graph(0.7), loop_graph(0.3),
                           build_graph("banana", ["a", "b"], [("a", "b", 1.0), ("a", "b", 2.0)]),
                           build_graph("lasso-1.5", ["a", "b"], [("a", "a", 1.5), ("a", "b", 5.0)]),
                           build_graph("double-triangle", ["a", "b", "c"],
                                       [("a", "b", 1.0), ("b", "c", 1.3), ("c", "a", 0.8),
                                        ("a", "b", 1.1)]))
      for k_max in (2 * math.pi, 30.0)),
], ids=lambda x: x.name if hasattr(x, "name") else f"{x:.6g}")
def test_von_below_equals_its_loop_form(g, k_max):
    assert von_below_spectrum(g, k_max).values == von_below_by_loops(g, k_max)


@pytest.mark.parametrize("g", [
    *(preset(name) for name in PRESET_NAMES), interval_graph(1.0), star_graph(4), loop_graph(1.0),
    build_graph("triangle", ["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)]),
], ids=lambda g: g.name)
def test_von_below_budget_is_the_size_of_the_lift(monkeypatch, g):
    # The count checked against the budget is that of the values the lift builds before
    # it drops those above k_max: the budget is exact.
    built, concatenate = [], np.concatenate
    monkeypatch.setattr(np, "concatenate", lambda arrays: built.append(concatenate(arrays)) or built[-1])
    s = von_below_spectrum(g, 30.0)
    size = built[-1].size
    monkeypatch.setattr(spectrum_module, "_GRID_ENTRIES", size)
    assert von_below_spectrum(g, 30.0) == s
    monkeypatch.setattr(spectrum_module, "_GRID_ENTRIES", size - 1)
    with pytest.raises(ValueError, match=f"needs {size} lifted values, above the budget of {size - 1}"):
        von_below_spectrum(g, 30.0)


def test_von_below_refuses_before_the_discrete_spectrum(monkeypatch):
    # The budget is checked before the adjacency matrix of the 999 pieces is built and solved.
    g = build_graph("fine", ["a", "b"], [("a", "b", 0.5), ("a", "b", 0.499)])

    def eigvalsh(matrix):
        raise AssertionError("eigvalsh ran on a refused lift")

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    with pytest.raises(ValueError, match="needs 3.17992e[+]11 lifted values, above the budget"):
        von_below_spectrum(g, 1e12)


@pytest.mark.parametrize("g, k_max, size", [
    (preset("lasso"), 1e12, "1.90986e+12 lifted values"),
    (preset("lasso"), 1e308, "too many lifted values to count in a float"),
    # The edge of length 4 is one piece of the lift, and k_max times its length overflows.
    (build_graph("edge", ["a", "b"], [("a", "b", 4.0)]), 1e308,
     "too many lifted values to count in a float"),
], ids=["lasso-1e12", "lasso-1e308", "edge-1e308"])
def test_von_below_names_the_size_of_a_refused_lift(g, k_max, size):
    with pytest.raises(ValueError) as refusal:
        von_below_spectrum(g, k_max)
    assert str(refusal.value) == f"k_max = {k_max:.6g} needs {size}, above the budget of 4194304"


def test_von_below_count_runs_on_the_callers_graph(monkeypatch, tmp_path, capsys):
    # The lift of the lasso's 1,000 pieces, at 1,000 values, is certified by counts on the
    # lasso itself: the only _Bonds built, once per graph object, has its 2 edges.
    g = fresh_copy(LIFTED_GRAPHS["long-lasso"])
    sizes = []

    class Recorded(_Bonds):
        def __init__(self, graph):
            sizes.append(len(graph.edges))
            super().__init__(graph)

    monkeypatch.setattr(spectrum_module, "_Bonds", Recorded)
    s = spectrum_with_count(g, 1000)
    assert len(s.values) == 1000 and s.method == "von-below"
    doc = tmp_path / "long-lasso.json"
    doc.write_text(to_document(g))
    assert cli.main(["spectrum", str(doc), "--count", "1000"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("1000,")
    assert sizes == [2, 2]


def test_von_below_handles_parallel_edges():
    g = build_graph("banana", ["a", "b"], [("a", "b", 1.0), ("a", "b", 1.0)])
    s = von_below_spectrum(g, 7.0)
    c = secular_spectrum(g, 7.0)
    n = min(len(s.values), len(c.values))
    assert n >= 4
    assert np.max(np.abs(np.array(s.values[:n]) - np.array(c.values[:n]))) < 1e-8


def test_von_below_matches_secular_on_k5():
    vb = von_below_spectrum(preset("k5"), 8.0)
    sec = secular_spectrum(preset("k5"), 8.0)
    n = min(len(vb.values), len(sec.values))
    assert n >= 20
    assert np.max(np.abs(np.array(vb.values[:n]) - np.array(sec.values[:n]))) < 1e-8


def test_von_below_on_subdivided_lasso_matches_secular():
    sub, piece = equilateral_subdivision(preset("lasso"))
    assert piece == pytest.approx(0.5, abs=0.0)
    vb = von_below_spectrum(sub, 10.0)
    sec = secular_spectrum(preset("lasso"), 10.0)
    n = min(len(vb.values), len(sec.values))
    assert n >= 15
    assert np.max(np.abs(np.array(vb.values[:n]) - np.array(sec.values[:n]))) < 1e-8


def _secular_nullity(g, k):
    """Nullity of the vertex-condition matrix, read against a rank threshold."""
    sigma = np.linalg.svd(secular_matrix(g, k), compute_uv=False)
    return int(np.sum(sigma < 1e-7 * max(float(sigma[0]), 1.0)))


LATTICE_GRAPHS = {
    "interval": interval_graph(1.0),
    "path3": build_graph("path3", ["a", "b", "c", "d"],
                         [("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0)]),
    "star3": star_graph(3),
    "star5": star_graph(5),
    **{f"k{n}": complete_graph(n) for n in range(3, 9)},
    "k33": complete_bipartite_graph(3, 3),
    "k24": complete_bipartite_graph(2, 4),
    "banana": build_graph("banana", ["a", "b"], [("a", "b", 1.0)] * 2),
    "theta": build_graph("theta", ["a", "b"], [("a", "b", 1.0)] * 3),
    "doubled-triangle": build_graph("dt", ["a", "b", "c"],
                                    [("a", "b", 1.0), ("a", "b", 1.0), ("b", "c", 1.0),
                                     ("c", "a", 1.0)]),
    "k5-pendant": preset("k5-pendant"),
    "loop": equilateral_subdivision(loop_graph(1.0))[0],
    "lasso": equilateral_subdivision(preset("lasso"))[0],
    "odd-lasso": equilateral_subdivision(
        build_graph("ol", ["a", "b"], [("a", "a", 1.5), ("a", "b", 1.0)]))[0],
    "mix": equilateral_subdivision(build_graph(
        "mix", ["a", "b", "c"],
        [("a", "a", 0.3), ("a", "b", 0.5), ("a", "b", 0.2), ("b", "c", 0.5)]))[0],
}


@pytest.mark.parametrize("name", sorted(LATTICE_GRAPHS))
def test_von_below_lattice_multiplicities_equal_secular_nullity(name):
    g = LATTICE_GRAPHS[name]
    a = g.edges[0].length
    s = von_below_spectrum(g, 8.5 * math.pi / a)
    for n in range(1, 9):
        k = n * math.pi / a
        assert s.values.count(k) == _secular_nullity(g, k), (name, n)


def test_secular_invariant_under_degree_two_vertex():
    g = interval_graph(1.0)
    h = subdivide_edge(g, 0, 0.3)
    a = secular_spectrum(g, 16.0)
    b = secular_spectrum(h, 16.0)
    n = min(len(a.values), len(b.values))
    assert n >= 5
    assert np.max(np.abs(np.array(a.values[:n]) - np.array(b.values[:n]))) < 1e-9


def test_secular_scaling():
    a = secular_spectrum(loop_graph(1.0), 14.0)
    b = secular_spectrum(loop_graph(2.0), 7.0)
    n = min(len(a.values), len(b.values))
    assert n >= 4
    assert np.array(b.values[:n]) == pytest.approx(
        np.array(a.values[:n]) / 2.0, abs=1e-9
    )


def test_spectrum_with_count():
    for count, method in ((12, "von-below"), (11, "secular")):
        # The lasso's subdivision into 12 pieces of 1/2 has 12 vertices, so 12 values are
        # lifted and 11 are searched for.
        s = spectrum_with_count(preset("lasso"), count)
        assert len(s.values) == count
        assert s.method == method
        assert validate_spectrum(s, preset("lasso")).ok
    s = spectrum_with_count(preset("lasso"), 12)
    # 2 pi is a double eigenfrequency of the lasso and the cut at 12 splits
    # it, so completeness is claimed only below it.
    assert s.values[-1] == pytest.approx(2 * math.pi, abs=1e-12)
    assert s.values[-2] < s.k_max_covered < s.values[-1]
    assert search_listing(preset("lasso"), 12).method == "secular"
    t = spectrum_with_count(preset("k5"), 12)
    assert len(t.values) == 12
    assert t.method == "von-below"


def test_weyl_lower_bound_on_presets():
    for name in ("lasso", "k5", "k33"):
        g = preset(name)
        info = summarize(g)
        s = spectrum_with_count(g, 25)
        for j, k in enumerate(s.values, start=1):
            assert k >= (j - info.M) * math.pi / info.total_length - 1e-9


def test_validate_spectrum_accepts_good():
    g = preset("lasso")
    s = spectrum_with_count(g, 20)
    report = validate_spectrum(s, g)
    assert report.ok
    assert report.weyl_lower_ok
    assert report.zero_mode_ok
    assert report.count_ok


def test_validate_spectrum_flags_repeated_zero():
    g = preset("lasso")
    s = Spectrum(values=(0.0, 0.0, 1.0), k_max_covered=1.5, method="external", tol=0.0)
    report = validate_spectrum(s, g)
    assert not report.zero_mode_ok
    assert not report.ok
    assert report.messages


def test_validate_spectrum_flags_weyl_violation():
    g = preset("lasso")
    # Far too many eigenvalues below 1: impossible for total length 6.
    values = (0.0,) + tuple(0.1 + 0.01 * i for i in range(30))
    s = Spectrum(values=values, k_max_covered=1.0, method="external", tol=0.0)
    report = validate_spectrum(s, g)
    assert not report.weyl_lower_ok
    assert not report.ok


def test_compare_spectra():
    a = analytic_spectrum("interval", 10)
    b = analytic_spectrum("interval", 10)
    assert compare_spectra(a, b) == 0.0
    shifted = Spectrum(
        values=tuple(v + (1e-4 if v > 0 else 0.0) for v in a.values),
        k_max_covered=a.k_max_covered,
        method="external",
        tol=1e-4,
    )
    assert compare_spectra(a, shifted) == pytest.approx(1e-4, rel=1e-9)
    assert compare_spectra(a, shifted, count=1) == 0.0


def test_csv_round_trip_exact(tmp_path):
    s = spectrum_with_count(preset("lasso"), 10)
    path = tmp_path / "lasso.csv"
    write_spectrum_csv(path, s, metadata={"graph": "lasso"})
    loaded, meta = read_spectrum_csv(path)
    assert loaded.values == s.values  # bit-exact via 17 significant digits
    assert loaded.method == s.method
    assert loaded.tol == s.tol
    assert loaded.k_max_covered == s.k_max_covered
    assert meta["graph"] == "lasso"


def test_csv_text_shape():
    s = analytic_spectrum("interval", 3)
    text = spectrum_csv_text(s)
    lines = text.strip().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == "j,k"
    assert data[1].startswith("1,0")
    assert len(data) == 4


def test_csv_defaults_to_external_method(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("j,k\n1,0.0\n2,3.5\n")
    loaded, meta = read_spectrum_csv(path)
    assert loaded.method == "external"
    assert loaded.values == (0.0, 3.5)


@pytest.mark.parametrize(
    "graph",
    [interval_graph(1.0), loop_graph(1.0), star_graph(4), preset("lasso"),
     preset("k5-pendant"), preset("k33"), complete_graph(8), r2_graph()],
    ids=lambda g: g.name,
)
def test_scattering_matrix_eigenvalue_one_has_multiplicity_beta1_plus_1(graph):
    # The constant of the exact count rests on this multiplicity.
    bonds = _Bonds(graph)
    n = bonds.S.shape[0]
    assert np.allclose(bonds.S @ bonds.S.T, np.eye(n), atol=1e-14)
    sigma = np.linalg.svd(np.eye(n) - bonds.S, compute_uv=False)
    assert int(np.sum(sigma < 1e-9)) == summarize(graph).beta1 + 1


def test_exact_count_matches_analytic_spectra():
    # Interval (k = j pi), loop (2 pi n twice), 3-star (pi/2 odd twice, pi n once).
    assert list(_Bonds(interval_graph(1.0)).count([3.0, 3.2, 10.0])) == [0, 1, 3]
    assert list(_Bonds(loop_graph(1.0)).count([6.2, 6.3, 12.6])) == [0, 2, 4]
    assert list(_Bonds(star_graph(3)).count([1.5, 1.6, 3.2, 4.8])) == [0, 2, 3, 5]


def test_secular_r2_finds_every_root():
    g = r2_graph()
    s = secular_spectrum(g, 13.0)
    assert len(s.values) == 23
    for k in (8.8657899071, 9.8057279223, 11.8210532095, 11.8257067462):
        assert min(abs(v - k) for v in s.values) < 1e-9
    assert validate_spectrum(s, g).ok
    info = summarize(g)
    plan = optimal_plan(0.25, info.M, info.total_length, info.l_min)
    assert recover_chi(spectrum_with_count(g, plan.J), plan) == info.chi == -1


@pytest.mark.parametrize("name", ["lasso", "k5", "k5-pendant", "k33"])
def test_secular_matches_von_below_at_500(name):
    g = preset(name)
    s = search_listing(g, 500)
    sub, _piece = equilateral_subdivision(g)
    vb = von_below_spectrum(sub, s.values[-1] + 0.1)
    assert compare_spectra(s, vb, count=500) < 1e-10
    assert validate_spectrum(s, g).ok


def test_complete_graphs_with_many_cycles_match_von_below():
    k8 = complete_graph(8)
    info = summarize(k8)
    plan = optimal_plan(0.25, info.M, info.total_length, info.l_min)
    s = search_listing(k8, plan.J)
    vb = von_below_spectrum(k8, s.values[-1] + 0.1)
    assert compare_spectra(s, vb, count=plan.J) < 1e-10
    assert validate_spectrum(s, k8).ok
    assert recover_chi(s, plan) == info.chi

    k10 = complete_graph(10)
    assert summarize(k10).beta1 == 36
    s = secular_spectrum(k10, 3.0)
    vb = von_below_spectrum(k10, 3.0)
    assert len(s.values) == len(vb.values) == 10
    assert compare_spectra(s, vb) < 1e-10


def test_spectrum_with_count_covers_only_below_a_split_cluster():
    g = preset("k5")
    s = spectrum_with_count(g, 3)
    a = math.acos(-0.25)  # multiplicity 4
    assert s.values == pytest.approx((0.0, a, a), abs=1e-12)
    assert 0.0 < s.k_max_covered < a
    assert validate_spectrum(s, g).ok


@pytest.mark.parametrize("name", ["k5", "k33"])
def test_a_cluster_at_k_max_is_listed_whole_or_not_at_all(name):
    # Both have five eigenvalues at pi, and fl(pi) lies 1.2e-16 below it, where N(k)
    # counted one of k5's five: the listing had pi once. k_1 = 0 stays at a tiny k_max.
    g = preset(name)
    for k_max, n in ((math.pi, 5), (math.pi + 1e-10, 10), (1e-12, 1)):
        s = secular_spectrum(g, k_max)
        assert len(s.values) == n
        assert validate_spectrum(s, g).ok


def cluster_points(s):
    """lo - d and hi + d of every cluster of the values of s in (0, K], d = tol + ROOT_TOL,
    and K - d where it lies above them all, each with the number of values listed below it,
    by a loop over the values."""
    d, K = s.tol + ROOT_TOL, s.k_max_covered
    v = [k for k in s.values[1:] if k <= K]
    points = []
    for i, k in enumerate(v):
        if i == 0 or k - v[i - 1] > 2.0 * d:
            points.append((k - d, i))
        if i == len(v) - 1 or v[i + 1] - k > 2.0 * d:
            points.append((k + d, i + 1))
    if K - d > (points[-1][0] if points else 0.0):
        points.append((K - d, len(v)))
    return points


@pytest.mark.parametrize("name", ["lasso", "k5", "k5-pendant", "k33"])
def test_validate_spectrum_counts_both_ends_in_one_call(monkeypatch, name):
    # The reports are those of counting below and above every cluster, and below K where that
    # lies above them all, one point at a time, N being 0 below pi / L, on listings that
    # pass, miss a value, repeat one, and end below pi / L or straddle it.
    g = preset(name)
    s = spectrum_with_count(g, planned_j(g))
    bonds, L = _Bonds(g), g.total_length()
    cases = [s, Spectrum(s.values[:5] + s.values[6:], s.k_max_covered, s.method, s.tol),
             Spectrum(s.values[:6] + s.values[5:], s.k_max_covered, s.method, s.tol),
             Spectrum((0.0,), 0.5 * math.pi / L, "external", 1e-10),
             Spectrum((0.0,), math.pi / L, "external", 1e-10)]
    real = _Bonds.count
    covered = np.array([k for k in s.values[1:] if k <= s.k_max_covered])
    clusters = 1 + np.sum(np.diff(covered) > 2.0 * (s.tol + ROOT_TOL))
    above = s.k_max_covered > covered[-1] + 2.0 * (s.tol + ROOT_TOL)
    assert len(cluster_points(s)) == 2 * clusters + above
    for case, ok in zip(cases, [True, False, False, True, True]):
        calls = []
        monkeypatch.setattr(_Bonds, "count",
                            lambda self, k, newton=False: calls.append(k.size) or real(self, k, newton))
        report = validate_spectrum(case, g)
        monkeypatch.undo()
        points = cluster_points(case)
        counted = sum(p >= math.pi / L for p, _listed in points)
        assert calls == ([counted] if counted else [])
        exact = [int(real(bonds, p)[0]) if p >= math.pi / L else 0 for p, _listed in points]
        wrong = [(p, listed, n) for (p, listed), n in zip(points, exact) if n != listed]
        assert report.count_ok == (not wrong) == ok
        if wrong:
            p, listed, n = wrong[0]
            assert report.messages[-1].startswith(
                f"{listed} eigenfrequencies listed in (0, {p:.12g}], the exact count gives {n}, ")


def test_validate_spectrum_flags_dropped_value():
    g = preset("lasso")
    s = spectrum_with_count(g, 20)
    dropped = Spectrum(s.values[:10] + s.values[11:], s.k_max_covered, s.method, s.tol)
    report = validate_spectrum(dropped, g)
    assert not report.count_ok
    assert not report.ok
    assert report.messages[-1] == (
        "9 eigenfrequencies listed in (0, 6.28318530707], the exact count gives 10, below the "
        "cluster k_11 to k_12 at 6.28318530718")


def misplaced(s):
    """s with one value, or two adjacent ones, of k_2, k_3, ... in (0, K] moved up or down by
    10%, 30%, 50%, 70% or 90% of the gap to the next value that way, where that value lies
    in [0, K] and outside the moved values' clusters: listings in order whose every value
    but the moved ones is right."""
    v, n, d = s.values, sum(1 for k in s.values if k <= s.k_max_covered), s.tol + ROOT_TOL
    for j in range(1, n):
        for last in (j, j + 1):
            for step in ((v[last + 1] - v[last]) if last + 1 < n else 0.0, v[j - 1] - v[j]):
                for f in (0.1, 0.3, 0.5, 0.7, 0.9) if abs(step) > 2.0 * d else ():
                    moved = v[:j] + tuple(k + f * step for k in v[j : last + 1]) + v[last + 1 :]
                    yield Spectrum(moved, s.k_max_covered, s.method, s.tol)


@pytest.mark.parametrize("name", ["lasso", "k5", "k5-pendant", "k33"])
def test_validate_spectrum_sees_every_misplaced_value(name):
    # A move keeps the number of values in (0, K], so one count next to K, the check before
    # the cluster counts, passed 1,062 of the lasso's 1,065 moved listings and all of k5's
    # 190, k5-pendant's 425 and k33's 190; with some of k33's, estimate certified a wrong chi.
    g = preset(name)
    s = spectrum_with_count(g, planned_j(g) + 12)
    reports = [validate_spectrum(m, g) for m in misplaced(s)]
    assert len(reports) >= 190
    assert not any(r.count_ok for r in reports)


# ---------------------------------------------------------------------------
# The vertex (Dirichlet-to-Neumann) count against the eigenphase count


def random_graph(seed, m, n_edges):
    """A connected graph on m vertices: a random tree, then random edges,
    loops and parallel edges included, of lengths in (0.3, 1.7)."""
    rng = random.Random(seed)
    vs = [f"v{i}" for i in range(m)]
    edges = [(vs[i], vs[rng.randrange(i)], rng.uniform(0.3, 1.7)) for i in range(1, m)]
    while len(edges) < n_edges:
        edges.append((rng.choice(vs), rng.choice(vs), rng.uniform(0.3, 1.7)))
    return build_graph(f"random-{seed}", vs, edges)


def scan_k_max(monkeypatch, g, count):
    """The k_max up to which the secular search of spectrum_with_count(g, count) scans."""
    seen = []
    real = spectrum_module.secular_spectrum
    monkeypatch.setattr(spectrum_module, "secular_spectrum",
                        lambda g, k_max: seen.append(k_max) or real(g, k_max))
    search_listing(g, count)
    monkeypatch.undo()
    return seen[0]


def assert_vertex_count_exact(g, grid, truth=None):
    """The certified vertex count and count() equal the true count at every k of grid[1:],
    by default the eigenphase count, and so do the grid's two-pass counts at every point."""
    bonds, k = _Bonds(g), grid[1:]
    n, sure = bonds._index_count(k, False)
    truth = bonds._phase_count(k) if truth is None else truth
    assert np.array_equal(n[sure], truth[sure])
    assert np.array_equal(bonds.count(k), truth)
    assert np.array_equal(_grid_counts(bonds, grid, g.name), np.concatenate(([0], truth)))
    return sure


def record_vertex_counts(monkeypatch):
    """The newton flag of every count on g's own A(k), one per count() call, in order."""
    flags = []
    real = _Bonds._index_count

    def recorded(self, k, cut, newton=False):
        if not cut:
            flags.append(newton)
        return real(self, k, cut, newton)

    monkeypatch.setattr(_Bonds, "_index_count", recorded)
    return flags


def planned_j(g):
    info = summarize(g)
    return optimal_plan(0.25, info.M, info.total_length, info.l_min).J


@pytest.mark.parametrize("name", ["lasso", "k5", "k5-pendant", "k33"])
def test_spectrum_with_count_counts_only_on_its_grid(monkeypatch, name):
    # One scan, to Weyl's estimate, whose grid takes the two counts without Newton targets.
    g = preset(name)
    seen = []
    real = spectrum_module.secular_spectrum
    monkeypatch.setattr(spectrum_module, "secular_spectrum",
                        lambda graph, k_max: seen.append(k_max) or real(graph, k_max))
    flags = record_vertex_counts(monkeypatch)
    j, excess = planned_j(g), max(len(g.edges) - len(g.vertices), 0)
    search_listing(g, j)
    assert seen == [pytest.approx((j + 3.125 + excess) * math.pi / g.total_length())]
    assert flags.count(False) <= 2


def test_spectrum_with_count_lists_a_long_cycle_near_weyls_estimate(monkeypatch):
    # A cycle of 1,000 unit edges is a loop of length 1,000: 0, then 2 pi n / 1000
    # twice. Its grid to Weyl's estimate has 253 points times 2N = 2,000; to the
    # Dirichlet bound, (60 + 1001) pi / L, it would have 4,245, over the budget.
    vs = [f"v{i}" for i in range(1000)]
    g = build_graph("cycle", vs, [(v, vs[i - 1], 1.0) for i, v in enumerate(vs)])
    seen = []

    def loop_listing(graph, k_max):
        seen.append(k_max)
        n = 2 * int(k_max * 1000.0 / (2.0 * math.pi)) + 1
        return Spectrum(analytic_spectrum("loop", n, length=1000.0).values, k_max, "secular", 1e-10)

    monkeypatch.setattr(spectrum_module, "secular_spectrum", loop_listing)
    s = search_listing(g, 60)
    assert s.values == analytic_spectrum("loop", 60, length=1000.0).values
    assert seen == [pytest.approx(63.125 * math.pi / 1000.0)]
    assert (4.0 * 1000.0 * seen[0] / math.pi + 1.0) * 2000 < _GRID_ENTRIES / 8


def test_spectrum_with_count_lists_to_the_dirichlet_bound_when_weyls_estimate_falls_short(
        monkeypatch):
    # The 19-fold cluster at pi / 2 of a 20-arm star lies beyond Weyl's
    # estimate for 5 values, (5 + 3.125) pi / 20, so the star is listed twice.
    g = star_graph(20)
    seen = []
    real = spectrum_module.secular_spectrum
    monkeypatch.setattr(spectrum_module, "secular_spectrum",
                        lambda graph, k_max: seen.append(k_max) or real(graph, k_max))
    s = search_listing(g, 5)
    assert seen == [pytest.approx(8.125 * math.pi / 20.0), pytest.approx(26.125 * math.pi / 20.0)]
    assert compare_spectra(s, analytic_spectrum("equilateral-star", 5, arms=20)) < 1e-10
    assert validate_spectrum(s, g).ok


@pytest.mark.parametrize("name", ["lasso", "k5", "k5-pendant", "k33", "K6", "K7", "K8"])
def test_vertex_count_on_the_recover_grids(monkeypatch, name):
    g = complete_graph(int(name[1:])) if name.startswith("K") else preset(name)
    grid = _grid(_Bonds(g), scan_k_max(monkeypatch, g, planned_j(g)))
    assert assert_vertex_count_exact(g, grid).mean() >= 0.95


@pytest.mark.parametrize("name", ["lasso", "k5", "k5-pendant", "k33"])
def test_vertex_count_on_the_grids_to_500_values(monkeypatch, name):
    g = preset(name)
    grid = _grid(_Bonds(g), scan_k_max(monkeypatch, g, 500))
    assert assert_vertex_count_exact(g, grid).mean() >= 0.95


IRREGULAR_GRAPHS = [
    build_graph("loops", ["a", "b", "c"], [("a", "b", math.sqrt(2.0)), ("b", "c", 0.45),
                                         ("a", "a", 0.7), ("c", "c", 0.3)]),
    build_graph("lasso-1.5", ["a", "b"], [("a", "a", 1.5), ("a", "b", 5.0)]),
    build_graph("double-triangle", ["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 1.3),
                                                     ("c", "a", 0.8), ("a", "b", 1.1)]),
    random_graph(1, 8, 12),
    random_graph(2, 10, 20),
]


@pytest.mark.parametrize("g", IRREGULAR_GRAPHS, ids=lambda g: g.name)
def test_vertex_count_on_irregular_grids(g):
    grid = _grid(_Bonds(g), 15.0)
    assert assert_vertex_count_exact(g, grid).mean() >= 0.95
    assert validate_spectrum(secular_spectrum(g, 15.0), g).ok


def test_vertex_count_on_k10_to_45():
    # K10 is equilateral, so von Below's listing, within 1e-10 of the truth and far
    # from every grid point, gives the exact count there.
    k10 = complete_graph(10)
    grid = _grid(_Bonds(k10), 45.0)
    k = grid[1:]
    assert k.size == 2579
    vb = von_below_spectrum(k10, 45.0)
    assert np.min(np.abs(k[:, None] - vb.values)) > 2.9e-4
    truth = np.searchsorted(vb.values, k, "right") - 1
    assert assert_vertex_count_exact(k10, grid, truth).mean() >= 0.95
    s = secular_spectrum(k10, 45.0)
    assert len(s.values) == 631
    assert compare_spectra(s, vb) < 1e-10


# k5's edges all have length 1: within 3e-11 of n pi every cot and csc is
# about 1e11 and the vertex matrix cancels catastrophically.
K5_DIRICHLET_PROBES = np.concatenate(
    [np.arange(1, 25) * math.pi + d for d in (-1e-11, 1e-11, -3e-11, 3e-11)])


def test_count_next_to_dirichlet_points():
    bonds = _Bonds(preset("k5"))
    k = K5_DIRICHLET_PROBES
    assert k.size == 96
    assert np.array_equal(bonds.count(k), bonds._phase_count(k))
    # At the Dirichlet points themselves nothing is certified, and nothing warns.
    dirichlet = np.arange(1, 25) * math.pi
    assert not bonds._index_count(dirichlet, False)[1].any()
    assert np.array_equal(bonds.count(dirichlet), bonds._phase_count(dirichlet))


def test_count_with_newton_targets_is_the_count():
    # The probes of a refinement round take counts and targets from one call; on k5 next
    # to and at its Dirichlet points that call runs A(k), the cut and the eigenphases.
    bonds = _Bonds(preset("k5"))
    k = np.concatenate((_grid(bonds, 75.0)[1:], K5_DIRICHLET_PROBES, np.arange(1, 25) * math.pi))
    sure = bonds._index_count(k, False)[1]
    assert not sure.all() and not bonds._index_count(k[~sure], True)[1].all()
    count, target = bonds.count(k, newton=True)
    assert np.array_equal(count, bonds.count(k))
    assert np.array_equal(target, bonds._index_count(k, False, True)[2], equal_nan=True)


def test_certificate_has_teeth(monkeypatch):
    # Accepting every vertex count makes count() wrong next to Dirichlet points.
    bonds = _Bonds(preset("k5"))
    k = K5_DIRICHLET_PROBES
    by_phases = bonds._phase_count(k)
    real = _Bonds._index_count
    monkeypatch.setattr(_Bonds, "_index_count", lambda self, k, cut, newton=False: (
        real(self, k, cut) if cut else (real(self, k, cut)[0], np.ones(k.shape, dtype=bool))))
    assert np.any(bonds.count(k) != by_phases)


def test_a_probe_count_out_of_order_raises(monkeypatch):
    # One certified probe count one too high puts N out of order in its
    # bracket; the solver must refuse rather than repair it (repaired, k5 to
    # k = 8 lists 21 values that validate_spectrum accepts).
    real = _Bonds._index_count
    bumped = []

    def one_too_high(self, k, cut, newton=False):
        count, sure, *rest = real(self, k, cut, newton)
        if newton and not bumped:
            bumped.append(np.flatnonzero(sure)[0])
            count[bumped[0]] += 1
        return (count, sure, *rest)

    monkeypatch.setattr(_Bonds, "_index_count", one_too_high)
    with pytest.raises(SpectrumCountError, match="eigenvalue count of 'k5' decreases"):
        secular_spectrum(preset("k5"), 8.0)
    assert bumped


@pytest.mark.parametrize("grid_pass", [0, 1])
def test_a_grid_count_out_of_order_raises(monkeypatch, grid_pass):
    # A certified count one too high where N is flat, on every 4th point or inside a
    # cell, is above the next computed count, so the grid's check refuses it.
    real = _Bonds._index_count
    calls, bumped = [], []

    def one_too_high(self, k, cut, newton=False):
        count, sure, *rest = real(self, k, cut, newton)
        if not (cut or newton):
            calls.append(k.size)
            if len(calls) == grid_pass + 1:
                bumped.append(np.flatnonzero(sure[:-1] & sure[1:] & (count[:-1] == count[1:]))[0])
                count[bumped[0]] += 1
        return (count, sure, *rest)

    monkeypatch.setattr(_Bonds, "_index_count", one_too_high)
    bonds = _Bonds(preset("k5"))
    with pytest.raises(SpectrumCountError, match="eigenvalue count of 'k5' decreases"):
        _grid_counts(bonds, _grid(bonds, 8.0), "k5")
    assert bumped and len(calls) == 2


@pytest.mark.parametrize("name, share", [("k5", 0.45), ("K10", 0.35)])
def test_grid_counts_skip_the_cells_where_n_is_flat(monkeypatch, name, share):
    # Measured when the two passes came in: 812 of k5's 2,033 grid points at 500
    # values, 729 of K10's 2,579 to k = 45.
    if name == "K10":
        g, k_max = complete_graph(10), 45.0
    else:
        g = preset(name)
        k_max = scan_k_max(monkeypatch, g, 500)
    bonds = _Bonds(g)
    grid = _grid(bonds, k_max)
    counted = []
    real = _Bonds.count
    monkeypatch.setattr(_Bonds, "count",
                        lambda self, k, newton=False: counted.append(k.size) or real(self, k, newton))
    _grid_counts(bonds, grid, g.name)
    assert len(counted) == 2 and sum(counted) <= share * (grid.size - 1)


def test_grid_sends_only_fallback_points_to_the_eigenphases(monkeypatch):
    # On the grid and at the refinement probes alike, a k reaches the quarter-wave
    # cut only where A(k) has just failed there, and the eigenphases only where the
    # cut has just failed there too.
    k8 = complete_graph(8)
    k_max = scan_k_max(monkeypatch, k8, planned_j(k8))
    grid = _grid(_Bonds(k8), k_max)
    events, grid_events = [], []
    real_count, real_phases = _Bonds._index_count, _Bonds._phase_count

    def index_count(self, k, cut, newton=False):
        out = real_count(self, k, cut, newton)
        events.append(("cut" if cut else "vertex", k, out[1]))
        if not (cut or newton):  # the grid's
            grid_events.append((k, out[1]))
        return out

    monkeypatch.setattr(_Bonds, "_index_count", index_count)
    monkeypatch.setattr(_Bonds, "_phase_count",
                        lambda self, k: events.append(("phases", k, None)) or real_phases(self, k))
    secular_spectrum(k8, k_max)
    # The grid is counted on every 4th point and the last, and on some of the others, at or above
    # pi / L: below it N is 0 uncounted (K8's grid[4] lies just below it).
    k, sure = (np.concatenate(a) for a in zip(*grid_events))
    above = grid[grid >= math.pi / k8.total_length()]
    coarse = np.intersect1d(np.append(grid[4::4], grid[-1]), above)
    assert grid[4] not in above and np.all(np.isin(k, above)) and np.all(np.isin(coarse, k))
    assert np.sum(~sure) <= 0.05 * k.size
    secular_spectrum(random_graph(2, 10, 20), 15.0)
    assert {kind for kind, _k, _sure in events} == {"vertex", "cut", "phases"}
    for (kind, k, _sure), (prev, prev_k, prev_sure) in zip(events[1:], events):
        if kind != "vertex":
            assert prev == {"cut": "vertex", "phases": "cut"}[kind]
            assert np.array_equal(k, prev_k[~prev_sure])


def eigenphase_probes(monkeypatch, listing):
    """The number of k that listing() sends to the eigenphases."""
    sent = []
    real = _Bonds._phase_count
    monkeypatch.setattr(_Bonds, "_phase_count", lambda self, k: sent.append(k.size) or real(self, k))
    listing()
    monkeypatch.undo()
    return sum(sent)


def test_the_cut_keeps_probes_from_the_eigenphases(monkeypatch):
    # Measured when the quarter-wave cut came in; before it the eigenphases took
    # 14 probes of K10 to k = 45, 8, 4, 4 and 8 at the planned J, and 136, 51, 90
    # and 114 at 500 values. The counts at 500 values hang on LAPACK's last bits,
    # so they are ceilings.
    k10 = complete_graph(10)
    assert eigenphase_probes(monkeypatch, lambda: secular_spectrum(k10, 45.0)) == 0
    for name, at_500 in (("lasso", 2), ("k5", 0), ("k5-pendant", 4), ("k33", 0)):
        g = preset(name)
        j = planned_j(g)
        assert eigenphase_probes(monkeypatch, lambda: search_listing(g, j)) == 0
        assert eigenphase_probes(monkeypatch,
                                 lambda: search_listing(g, 500)) <= at_500


def quarter_wave(k, lengths):
    """The first pieces of the quarter-wave cut: min(pi / (2 k), l_e / 2) rounded down
    to a multiple of ulp(l_e)."""
    ulp = np.spacing(lengths)
    return np.floor(np.minimum(0.5 * math.pi / k[:, None], 0.5 * lengths) / ulp) * ulp


def dirichlet_points(g, k_max):
    """The Dirichlet points m pi / l_e of g in (0, k_max]."""
    return np.unique(np.concatenate(
        [np.arange(1, int(k_max * e.length / math.pi) + 1) * math.pi / e.length for e in g.edges]))


def test_quarter_wave_cut_is_exactly_the_callers_graph():
    g = build_graph("odd", ["a", "b", "c"], [("a", "b", math.sqrt(2.0)), ("b", "c", 1e-3),
                                             ("c", "a", 1e3), ("a", "a", 0.7)])
    lengths = np.array([e.length for e in g.edges])
    k = np.concatenate((np.linspace(0.01, 60.0, 2001), [1e3, 12345.678, 1e6]))
    first = quarter_wave(k, lengths)
    second = lengths - first
    assert all(Fraction(a) + Fraction(b) == Fraction(c)
               for a, b, c in zip(first.ravel(), second.ravel(), np.broadcast_to(lengths, first.shape).ravel()))
    assert np.all((first > 0.0) & (first <= 0.5 * lengths))
    # Above the first Dirichlet point the first piece is a quarter wave, to k ulp(l_e).
    long = k[:, None] * lengths > math.pi
    slack = k[:, None] * np.spacing(lengths) + 1e-12
    assert np.all((np.abs(k[:, None] * first - 0.5 * math.pi) <= slack)[long])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = _Bonds(g).vertex_matrix(k, cut=True)[0]
    assert np.array_equal(x, k[:, None] * np.stack((first, second), axis=2).reshape(k.size, -1))


# A graph with parallel edges: a cycle of length 3 whose edge of length 2 has its
# Dirichlet points at the odd multiples of pi / 2, where the cut of the other one has
# poles.
BANANA = build_graph("banana", ["a", "b"], [("a", "b", 1.0), ("a", "b", 2.0)])


@pytest.mark.parametrize("g", [preset("k5"), preset("lasso"), BANANA, star_graph(5)] + IRREGULAR_GRAPHS,
                         ids=lambda g: g.name)
def test_cut_count_equals_the_eigenphase_count(monkeypatch, g):
    bonds = _Bonds(g)
    points = dirichlet_points(g, 15.0)
    k = np.concatenate([_grid(bonds, 15.0)[1:]] + [points + d for d in (-3e-11, -1e-11, 1e-11, 3e-11)])
    if g.name == "k5":
        k = np.concatenate((k, K5_DIRICHLET_PROBES))
    count, sure = bonds._index_count(k, True)
    by_phases = bonds._phase_count(k)
    assert np.array_equal(count[sure], by_phases[sure])
    assert np.array_equal(bonds.count(k), by_phases)
    # The fallback chain alone, the cut then the eigenphases, is exact too.
    real = _Bonds._index_count
    monkeypatch.setattr(_Bonds, "_index_count", lambda self, k, cut, newton=False: (
        real(self, k, cut) if cut else (real(self, k, cut)[0], np.zeros(k.shape, dtype=bool))))
    assert np.array_equal(bonds.count(k), by_phases)
    # Next to a Dirichlet point of an edge the cut is certified unless another edge
    # puts a pole of the cut there too, as the banana's does at half of them.
    near = np.isin(k, np.concatenate([points + d for d in (-1e-11, 1e-11)]))
    assert sure[near].mean() >= (0.5 if g is BANANA else 0.9)


PI = Fraction(Decimal("3.14159265358979323846264338327950288419716939937510"))


def test_cut_certificate_has_teeth(monkeypatch):
    # Within 4 ulps of the lattice points m pi, where k5 has eigenvalues and A(k) has
    # poles, accepting every cut count makes count() wrong. N steps at the exact m pi,
    # so the side of it on which k lies, read exactly, gives the true count.
    bonds = _Bonds(preset("k5"))
    m = np.arange(1, 25)
    k, lo, hi = [m * math.pi], m * math.pi, m * math.pi
    for _ in range(4):
        lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)
        k += [lo, hi]
    k, m = np.concatenate(k), np.tile(m, 9)
    above = np.array([Fraction(float(a)) > int(b) * PI for a, b in zip(k, m)])
    truth = np.where(above, bonds.count(m * math.pi + 1e-9), bonds.count(m * math.pi - 1e-9))
    count, sure = bonds._index_count(k, True)
    assert not np.any(sure & (count != truth))
    real = _Bonds._index_count
    monkeypatch.setattr(_Bonds, "_index_count", lambda self, k, cut, newton=False: (
        (real(self, k, cut)[0], np.ones(k.shape, dtype=bool)) if cut else real(self, k, cut, newton)))
    assert np.any(bonds.count(k) != truth)


def pieces_of(bonds, k, cut):
    """Lengths per k, ends, loop flags and vertex count of the pieces of bonds' graph
    or of its quarter-wave cut."""
    lengths, m = bonds.lengths[::2], bonds.n_vertices
    ends, loops = [tuple(e) for e in bonds.ends], bonds.loops
    if cut:
        first = quarter_wave(k, lengths)
        lengths = np.stack((first, lengths - first), axis=2).reshape(k.size, -1)
        ends = [p for e, (a, b) in enumerate(ends) for p in ((a, m + e), (m + e, b))]
        loops, m = np.zeros(len(ends)), m + len(bonds.ends)
    return np.broadcast_to(lengths, (k.size, len(ends))), ends, loops, m


def extended_vertex_matrix(bonds, k, cut):
    """A(k) of bonds' graph or of its quarter-wave cut in np.longdouble, entry by entry."""
    lengths, ends, loops, m = pieces_of(bonds, k, cut)
    x = k.astype(np.longdouble)[:, None] * lengths.astype(np.longdouble)
    s, c = np.sin(x), np.cos(x)
    A = np.zeros((k.size, m, m), dtype=np.longdouble)
    for p, (a, b) in enumerate(ends):
        if loops[p]:
            A[:, a, a] += 2 * (1 - c[:, p]) / s[:, p]
        else:
            A[:, a, a] -= c[:, p] / s[:, p]
            A[:, b, b] -= c[:, p] / s[:, p]
            A[:, a, b] += 1 / s[:, p]
            A[:, b, a] += 1 / s[:, p]
    return A


BOUND_CASES = [(preset("k5"), 75.0), (preset("lasso"), 40.0), (complete_graph(10), 45.0)] + [
    (g, 15.0) for g in IRREGULAR_GRAPHS]


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 2.0**-53, reason="no extended precision")
@pytest.mark.parametrize("g, k_max", BOUND_CASES, ids=[g.name for g, _k_max in BOUND_CASES])
def test_rounding_bound_of_the_vertex_matrices_holds(g, k_max):
    # The first term of certificate (2), the smaller of the sum over all pieces and
    # the largest row sum, bounds ||B - A(k)|| for g and for its quarter-wave cut,
    # at probes 1e-11 and 3e-12 from Dirichlet points and from eigenvalues, and it
    # is the term that _index_count's certificate uses.
    bonds, u = _Bonds(g), 2.0**-53
    centres = np.concatenate((dirichlet_points(g, k_max), np.unique(secular_spectrum(g, k_max).values[1:])))
    k = np.concatenate([centres + d for d in (-1e-11, -3e-12, 3e-12, 1e-11)])
    for cut in (False, True):
        _lengths, ends, _loops, m = pieces_of(bonds, k, cut)
        incidence = np.zeros((len(ends), m))
        for p, (a, b) in enumerate(ends):
            incidence[p, a] += 1.0
            incidence[p, b] += 1.0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x, s, far, B = bonds.vertex_matrix(k, cut=cut)
            inv = 1.0 / s**2
            total = np.sum((1.0 + len(ends) + x) / s**2, axis=1)
            rows = (((1.0 + x) * inv) @ incidence + (inv @ incidence) * incidence.sum(axis=0)).max(axis=1)
        bound = 64.0 * u * np.minimum(total, rows)
        error = (B.astype(np.longdouble) - extended_vertex_matrix(bonds, k, cut)).astype(float)
        assert far.mean() >= 0.9
        assert np.all(np.linalg.norm(error[far], 2, axis=(1, 2)) <= bound[far])
        if cut or g.name in ("k5", "k10"):
            assert np.all(rows[far] < total[far])  # the row sums are what is tested
        gap = np.min(np.abs(np.linalg.eigvalsh(B)), axis=1) - 16.0 * m * u * np.linalg.norm(B, axis=(1, 2))
        clear = far & (np.abs(gap - bound) > 1e-9 * bound)
        assert np.array_equal(bonds._index_count(k, cut)[1][clear], (gap > bound)[clear])


@pytest.mark.parametrize("g", IRREGULAR_GRAPHS, ids=lambda g: g.name)
def test_vertex_matrix_derivative_is_a_positive_definite_central_difference(g):
    bonds = _Bonds(g)
    k, h = np.linspace(0.5, 15.0, 301), 1e-6
    _x, s, far, _A, dA = bonds.vertex_matrix(k, derivative=True)
    assert far.all()
    assert np.all(np.linalg.eigvalsh(dA)[:, 0] > 0.0)
    # Central differences are accurate only well away from the poles.
    smooth = np.min(np.abs(s), axis=1) > 0.1
    assert smooth.sum() >= 50
    k, dA = k[smooth], dA[smooth]
    difference = (bonds.vertex_matrix(k + h)[3] - bonds.vertex_matrix(k - h)[3]) / (2.0 * h)
    assert np.allclose(difference, dA, rtol=1e-6, atol=1e-6)


def test_the_solver_makes_no_complex_eig_call(monkeypatch):
    def eig(*_args, **_kwargs):
        raise AssertionError("np.linalg.eig called")

    monkeypatch.setattr(np.linalg, "eig", eig)
    for name in ("lasso", "k5", "k5-pendant", "k33"):
        s = search_listing(preset(name), 500)
        assert len(s.values) == 500
        assert validate_spectrum(s, preset(name)).ok
    for g, k_max in ((complete_graph(10), 45.0), (random_graph(2, 10, 20), 15.0)):
        assert validate_spectrum(secular_spectrum(g, k_max), g).ok


@pytest.mark.parametrize("name", ["lasso", "k5", "k5-pendant", "k33", "K10"])
def test_refinement_takes_few_rounds(monkeypatch, name):
    # Bisection alone would need about 33 rounds to cut a grid cell of
    # pi / (4 L) down to ROOT_TOL. The ceilings are the rounds taken when every
    # bracket was probed on both sides every round.
    rounds = {"lasso": 5, "k5": 4, "k5-pendant": 4, "k33": 3, "K10": 3}[name]
    if name == "K10":
        g, k_max = complete_graph(10), 45.0
    else:
        g = preset(name)
        k_max = scan_k_max(monkeypatch, g, 500)
    calls = record_vertex_counts(monkeypatch)
    s = secular_spectrum(g, k_max)
    assert len(s.values) >= 500
    # At most two calls count the grid, then each round counts and targets all its probes
    # at once.
    grid_calls = calls.index(True)
    assert 1 <= grid_calls <= 2 and not any(calls[:grid_calls]) and all(calls[grid_calls:])
    assert 1 <= len(calls) - grid_calls <= rounds


def newton_probes(monkeypatch, listing):
    """The number of probes and of rounds, one count with Newton targets each, that listing()
    refines with."""
    sizes = []
    real = _Bonds._index_count

    def recorded(self, k, cut, newton=False):
        if newton and not cut:
            sizes.append(k.size)
        return real(self, k, cut, newton)

    monkeypatch.setattr(_Bonds, "_index_count", recorded)
    listing()
    monkeypatch.undo()
    return sum(sizes), len(sizes)


@pytest.mark.parametrize("name, at_j, at_500, rounds", [
    ("lasso", 230, 2350, 5), ("k5", 40, 430, 4), ("k5-pendant", 96, 990, 4), ("k33", 34, 410, 3)])
def test_refinement_probes_once_per_bracket_until_newton_has_converged(
        monkeypatch, name, at_j, at_500, rounds):
    # Probing every open bracket on both sides every round took 340, 54, 129 and 46
    # probes at the planned J, and 3,419, 584, 1,327 and 560 at 500 values, in the same
    # rounds; one probe per bracket until Newton has converged took 222, 39, 92 and 32,
    # and 2,254, 417, 951 and 392. The counts hang on LAPACK's last bits, so they are
    # ceilings, each at most 3/4 of the two-sided count.
    g = preset(name)
    for count, most in ((planned_j(g), at_j), (500, at_500)):
        probes, taken = newton_probes(monkeypatch, lambda: search_listing(g, count))
        assert probes <= most and taken <= rounds


def test_a_bracket_is_probed_above_x_where_below_it_falls_outside():
    lo, hi = np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.5, 2.5, 3.5, 4.5])
    x = np.array([1.0 + 0.5 * ROOT_TOL, 2.25, 3.25, 4.5 - 0.5 * ROOT_TOL])
    probe, inside = spectrum_module._probes(lo, hi, x, np.array([False, False, True, True]))
    assert np.array_equal(probe, x[:, None] + [-ROOT_TOL, ROOT_TOL])
    assert inside.tolist() == [[False, True], [True, False], [True, True], [True, False]]
    # Paired or not, a bracket whose x lies at its lower end is probed above it only.
    assert spectrum_module._probes(lo, hi, x, np.ones(4, bool))[1][0].tolist() == [False, True]


def test_the_one_sided_probe_lists_lasso_to_500(monkeypatch):
    # At 500 values some brackets of the lasso have x within ROOT_TOL of their lower end.
    one_sided = []
    real = spectrum_module._probes

    def probes(lo, hi, x, paired):
        probe, inside = real(lo, hi, x, paired)
        one_sided.append(int(np.sum(~inside[:, 0] & inside[:, 1])))
        return probe, inside

    monkeypatch.setattr(spectrum_module, "_probes", probes)
    s = search_listing(preset("lasso"), 500)
    assert sum(one_sided) >= 1
    assert validate_spectrum(s, preset("lasso")).ok


def test_a_bracket_without_a_probe_raises(monkeypatch):
    # Every open bracket is wider than 3 ROOT_TOL, so one of x -+ ROOT_TOL lies inside it;
    # a bracket without a probe would otherwise read another bracket's count.
    real = spectrum_module._probes

    def none_in_the_first(lo, hi, x, paired):
        probe, inside = real(lo, hi, x, paired)
        inside[0] = False
        return probe, inside

    monkeypatch.setattr(spectrum_module, "_probes", none_in_the_first)
    with pytest.raises(SpectrumCountError, match="a bracket of 'k5' has no probe inside it"):
        secular_spectrum(preset("k5"), 8.0)


def test_bonds_build_the_scattering_matrix_only_for_its_readers():
    # A refused grid and counts that A certifies never read S, so it is not built.
    vs = [f"v{i}" for i in range(3000)]
    bonds = _Bonds(build_graph("cycle", vs, [(v, vs[i - 1], 1.0) for i, v in enumerate(vs)]))
    with pytest.raises(ValueError, match="needs 3.81972e\\+09 grid points"):
        _grid(bonds, 1e6)
    assert "S" not in vars(bonds)
    bonds, k = _Bonds(preset("lasso")), np.array([0.5, 1.3, 2.7, 10.1])
    assert bonds._index_count(k, False)[1].all()
    assert list(bonds.count(k)) == [0, 2, 4, 18]
    assert "S" not in vars(bonds)
    bonds._phase_count(k)
    assert "S" in vars(bonds)


@pytest.mark.parametrize("name", ["lasso", "k5-pendant"])
def test_shared_tables_are_read_only(name):
    # Every listing, lift, validation and orbit side of the graph reads this one table, so an
    # in-place write to any of its arrays raises instead of changing their results.
    g = preset(name)
    bonds = spectrum_module._bonds_of(g)
    _S, weight, _D, masks = bonds.walk(g)
    arrays = [bonds.S, bonds.lengths, bonds.ends, bonds.loops, weight, *(m for _u, m in masks),
              *bonds.pieces(False)[1:], *bonds.pieces(True)[1:], bonds.interior(g)]
    assert len(arrays) == 16 + len(masks)
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] += 1
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 0
    assert validate_spectrum(spectrum_with_count(g, 30), g).ok


@pytest.mark.parametrize("count", [10**400, 10**308], ids=["beyond-floats", "k-max-overflows"])
def test_a_count_whose_scan_overflows_a_float_is_over_the_budget(count):
    # 10^400 does not convert to a float; 10^308 does, but its k_max overflows.
    with pytest.raises(ValueError) as refusal:
        spectrum_with_count(preset("lasso"), count)
    assert str(refusal.value) == (f"count = {count} needs too many listed values to count in a "
                                  "float, above the budget of 4194304")


def test_grid_budget_refuses_before_allocating(monkeypatch):
    # The largest grid in the tests, demos and bench is K10 to k = 45.
    assert _GRID_ENTRIES >= 10 * _grid(_Bonds(complete_graph(10)), 45.0).size * 90
    with pytest.raises(ValueError, match="grid points, times 2N = 4 above the budget"):
        search_listing(preset("lasso"), 10**9)
    with pytest.raises(ValueError, match="above the budget"):
        secular_spectrum(preset("lasso"), 1e308)
    # The budget is exact: lasso has 2N = 4.
    points = _grid(_Bonds(preset("lasso")), 25.0).size
    monkeypatch.setattr(spectrum_module, "_GRID_ENTRIES", 4 * points)
    assert validate_spectrum(secular_spectrum(preset("lasso"), 25.0), preset("lasso")).ok
    monkeypatch.setattr(spectrum_module, "_GRID_ENTRIES", 4 * points - 1)
    with pytest.raises(ValueError, match="above the budget"):
        secular_spectrum(preset("lasso"), 25.0)


# ---------------------------------------------------------------------------
# The default listing: von Below, certified by the cluster counts, where it is small


def assert_same_listing(s, reference):
    """s and reference list the same values within 1e-13, in the same clusters."""
    a, b = np.array(s.values), np.array(reference.values)
    assert a.size == b.size and np.max(np.abs(a - b)) <= 1e-13
    assert np.array_equal(_cluster_starts(a, s.tol), _cluster_starts(b, s.tol))


SELECTED_GRAPHS = [preset(name) for name in PRESET_NAMES] + [complete_graph(n) for n in (6, 7, 8)]


def assert_lift_is_the_secular_listing(g, count):
    s = spectrum_with_count(g, count)
    assert s.method == "von-below"
    assert_same_listing(s, search_listing(g, count))
    assert validate_spectrum(s, g).ok


@pytest.mark.parametrize("g", SELECTED_GRAPHS, ids=lambda g: g.name)
def test_the_default_listing_is_the_certified_lift(g):
    for count in (planned_j(g), 500):
        assert_lift_is_the_secular_listing(g, count)


def random_commensurate_graph(seed):
    """A connected graph on 2 to 6 vertices with 1 to 8 edges, loops and parallel edges
    included, each 1 to 3 units of 1/4, 3/10, 2/5 or 1/2 long: at most 48 pieces, so its
    subdivision has fewer vertices than 60."""
    rng = random.Random(seed)
    m = rng.randint(2, 6)
    unit = rng.choice((0.25, 0.3, 0.4, 0.5))
    vs = [f"v{i}" for i in range(m)]
    edges = [(vs[i], vs[rng.randrange(i)]) for i in range(1, m)]
    edges += [(rng.choice(vs), rng.choice(vs)) for _ in range(rng.randint(0, 8 - len(edges)))]
    return build_graph(f"commensurate-{seed}", vs,
                       [(u, v, round(rng.randint(1, 3) * unit, 12)) for u, v in edges])


# All 200 graphs of seeds 0-199, listed to count 60 both ways, take about 3 s; these 40, 0.6 s.
RANDOM_COMMENSURATE_SEEDS = range(0, 200, 5)


@pytest.mark.parametrize("seed", RANDOM_COMMENSURATE_SEEDS)
def test_the_lift_is_the_secular_listing_on_random_commensurate_graphs(seed):
    assert_lift_is_the_secular_listing(random_commensurate_graph(seed), 60)


def test_the_secular_search_lists_where_the_lift_is_refused_or_too_large():
    # Uniform lengths have no usable common divisor; the star's 448 pieces of 1/100 have
    # 449 vertices, more than the 60 values asked for.
    star = build_graph("star", ["c", "a", "b", "d"], [("c", "a", 1.0), ("c", "b", 1.37),
                                                      ("c", "d", 2.11)])
    assert len(equilateral_subdivision(star)[0].vertices) == 449
    for g in (random_graph(1, 8, 12), star):
        s = spectrum_with_count(g, 60)
        assert s.method == "secular"
        assert s == search_listing(g, 60)


def test_a_lift_that_fails_its_certificate_raises(monkeypatch):
    real = spectrum_module.von_below_spectrum

    def moved(g, k_max):
        s = real(g, k_max)
        values = list(s.values)
        values[7] += 0.5 * (values[8] - values[7])
        return Spectrum(tuple(values), s.k_max_covered, s.method, s.tol)

    monkeypatch.setattr(spectrum_module, "von_below_spectrum", moved)
    with pytest.raises(SpectrumCountError,
                       match="the von Below listing of 'lasso' fails its certificate: .* k_8 at"):
        spectrum_with_count(preset("lasso"), 20)


# ---------------------------------------------------------------------------
# The count of a lifted graph from the lift's own eigenvalues


def lifted_points(g, count):
    """g listed to count by its lift, and the validation points of that listing that are
    counted and the lattice points n pi / a -+ (tol + ROOT_TOL) below its k_max_covered."""
    s = spectrum_with_count(g, count)
    assert s.method == "von-below"
    a, d = spectrum_module._bonds_of(g).subdivision(g)[1], s.tol + ROOT_TOL
    lattice = np.arange(1, s.k_max_covered * a / math.pi + 1) * math.pi / a
    points = [p for p, _listed in cluster_points(s) if p >= math.pi / g.total_length()]
    return np.concatenate((points, lattice - d, lattice + d))


def assert_lift_count_is_the_count(g, count):
    """At every point of lifted_points the lift's count, where certified, and count() are the
    count of a copy of g never lifted; returns where the lift's count is certified."""
    k = lifted_points(g, count)
    bonds = spectrum_module._bonds_of(g)
    n, sure = bonds._lift_count(k)
    truth = _Bonds(fresh_copy(g)).count(k)
    assert np.array_equal(n[sure], truth[sure]) and np.array_equal(bonds.count(k), truth)
    return sure


@pytest.mark.parametrize("g", SELECTED_GRAPHS, ids=lambda g: g.name)
def test_the_lift_count_certifies_the_selected_listings_alone(monkeypatch, g):
    # Certifying each listing, at the planned J and at 500 values, builds no vertex matrix.
    real = _Bonds._index_count
    for count in (planned_j(g), 500):
        calls, copy = [], fresh_copy(g)
        monkeypatch.setattr(_Bonds, "_index_count", lambda self, k, cut, newton=False: (
            calls.append(k.size) or real(self, k, cut, newton)))
        spectrum_with_count(copy, count)
        monkeypatch.undo()
        assert calls == [] and spectrum_module._bonds_of(copy).subdivision(copy)[2] == 0.0
        assert assert_lift_count_is_the_count(copy, count).all()


def test_the_lift_count_is_the_count_on_random_commensurate_graphs(monkeypatch):
    # 86 of the 200 graphs have an edge that is not exactly a whole number of pieces in floats,
    # as 0.9 is not three pieces of 0.3: their length margin eta covers it. Listing and
    # certifying all 200 builds no vertex matrix, and the lift certifies every point tried.
    graphs = [random_commensurate_graph(seed) for seed in range(200)]
    calls, real = [], _Bonds._index_count
    monkeypatch.setattr(_Bonds, "_index_count", lambda self, k, cut, newton=False: (
        calls.append(k.size) or real(self, k, cut, newton)))
    for g in graphs:
        lifted_points(g, 60)
    monkeypatch.undo()
    assert calls == []
    eta = [spectrum_module._bonds_of(g).subdivision(g)[2] for g in graphs]
    assert sum(e > 0.0 for e in eta) == 86 and max(eta) <= 2.0**-52
    for g in graphs:
        assert assert_lift_count_is_the_count(g, 60).all()


def thirds_graph():
    """A triangle on units of 0.3, cut into pieces of fl(0.3): fl(0.9) is not 3 of them."""
    return build_graph("thirds", ["a", "b", "c"], [("a", "b", 0.3), ("b", "c", 0.9),
                                                   ("c", "a", 0.6)])


def test_a_graph_whose_edges_are_not_whole_pieces_counts_from_its_lift(monkeypatch):
    # g is not g-hat, the graph of its subdivision, but within its length margin eta of it, so
    # the lift lists and certifies g alone, and counts as a copy of g never lifted.
    g = thirds_graph()
    monkeypatch.setattr(_Bonds, "_index_count", lambda self, k, cut, newton=False: pytest.fail(
        "counted by the vertex matrix"))
    k = lifted_points(g, 40)
    bonds = spectrum_module._bonds_of(g)
    assert 0.0 < bonds.subdivision(g)[2] <= 2.0**-52
    assert bonds._lift_count(k)[1].all()
    n = bonds.count(k)
    monkeypatch.undo()
    assert np.array_equal(n, _Bonds(fresh_copy(g)).count(k))


def test_a_wider_length_margin_leaves_its_points_to_the_vertex_count(monkeypatch):
    # With eta raised to 1e-12, points beside the lattice points fail (1') and points beside
    # the lifted values fail (2'); count takes A(k) there and still counts as a fresh copy.
    g = thirds_graph()
    k = lifted_points(g, 40)
    bonds = spectrum_module._bonds_of(g)
    sub, a, _eta, bipartite = bonds.subdivision(g)
    assert bonds._lift_count(k)[1].all()
    monkeypatch.setattr(bonds, "_lift", (sub, a, 1e-12, bipartite))
    sure = bonds._lift_count(k)[1]
    lattice = np.abs(np.sin(k * a)) < 1e-9
    assert sure.any() and not sure[lattice].all() and not sure[~lattice].all()
    flags = record_vertex_counts(monkeypatch)
    n = bonds.count(k)
    assert flags == [False]
    assert np.array_equal(n, _Bonds(fresh_copy(g)).count(k))


def test_a_lift_one_lattice_copy_short_raises(monkeypatch):
    # k5's lift lists five copies of pi. With one dropped, the count from the eigenvalues the
    # lift itself used finds five in the cluster, where four are listed.
    real = spectrum_module.von_below_spectrum

    def short(g, k_max):
        s = real(g, k_max)
        values = list(s.values)
        values.remove(math.pi)
        return Spectrum(tuple(values), s.k_max_covered, s.method, s.tol)

    monkeypatch.setattr(spectrum_module, "von_below_spectrum", short)
    monkeypatch.setattr(_Bonds, "_index_count", lambda self, k, cut, newton=False: pytest.fail(
        "counted by the vertex matrix"))
    with pytest.raises(SpectrumCountError, match="the von Below listing of 'k5' fails its "
                       "certificate: 8 eigenfrequencies listed in .* the exact count gives 9, "
                       "above the cluster k_6 to k_9 at 3.14159265359"):
        spectrum_with_count(preset("k5"), 41)


@pytest.mark.parametrize("name", ["k5", "lasso", "k33"])
def test_a_point_the_lift_count_cannot_certify_falls_back(monkeypatch, name):
    # At a lifted value cos ka is an eigenvalue mu, and at the first lattice point,
    # fl(pi) / a, ka = fl(pi) fails (1'): there count takes A(k), its cut and the
    # eigenphases, as on a graph never lifted, within the listed values' clusters.
    g = preset(name)
    values = np.array(spectrum_with_count(g, 40).values)
    bonds = spectrum_module._bonds_of(g)
    a = bonds.subdivision(g)[1]
    k = np.append([(math.acos(m) + 2.0 * math.pi) / a for m in bonds.interior(g)], math.pi / a)
    assert not bonds._lift_count(k)[1].any()
    flags = record_vertex_counts(monkeypatch)
    n = bonds.count(k)
    monkeypatch.undo()
    assert flags == [False]
    assert np.array_equal(n, _Bonds(fresh_copy(g)).count(k))
    assert np.all(np.searchsorted(values, k - 1e-9) - 1 <= n)
    assert np.all(n <= np.searchsorted(values, k + 1e-9, "right") - 1)
