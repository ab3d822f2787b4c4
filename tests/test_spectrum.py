"""Tests for the three spectrum backends and their cross-validation."""

import math
import random

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
    validate_spectrum,
    von_below_spectrum,
    write_spectrum_csv,
)
from eulerchar import spectrum as spectrum_module
from eulerchar.spectrum import _GRID_ENTRIES, _Bonds, _grid, secular_matrix


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


@pytest.mark.parametrize("name", sorted(LIFTED_GRAPHS))
def test_von_below_lifts_the_subdivision(name):
    g = LIFTED_GRAPHS[name]
    lifted = von_below_spectrum(equilateral_subdivision(g)[0], 20.0)
    assert von_below_spectrum(g, 20.0).values == lifted.values


def test_von_below_rejects_lengths_without_a_usable_divisor():
    g = build_graph("lasso", ["a", "b"], [("a", "a", 1.0), ("a", "b", 5.000000001)])
    with pytest.raises(GraphError, match="common divisor too small"):
        von_below_spectrum(g, 5.0)


def test_von_below_count_runs_on_the_callers_graph(monkeypatch, tmp_path, capsys):
    # The bisection for k_max counts on the 2-edge lasso, not on its 1,000 pieces.
    g = LIFTED_GRAPHS["long-lasso"]
    sizes = []

    class Recorded(_Bonds):
        def __init__(self, graph):
            sizes.append(len(graph.edges))
            super().__init__(graph)

    monkeypatch.setattr(spectrum_module, "_Bonds", Recorded)
    assert len(spectrum_with_count(g, 60, "von-below").values) == 60
    doc = tmp_path / "long-lasso.json"
    doc.write_text(to_document(g))
    assert cli.main(["spectrum", str(doc), "--count", "60", "--method", "von-below"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("60,")
    assert sizes and max(sizes) == len(g.edges)


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
    s = spectrum_with_count(preset("lasso"), 12)
    assert len(s.values) == 12
    # 2 pi is a double eigenfrequency of the lasso and the cut at 12 splits
    # it, so completeness is claimed only below it.
    assert s.values[-1] == pytest.approx(2 * math.pi, abs=1e-12)
    assert s.values[-2] < s.k_max_covered < s.values[-1]
    assert validate_spectrum(s, preset("lasso")).ok
    assert s.method == "secular"
    t = spectrum_with_count(preset("k5"), 12, method="von-below")
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
    s = spectrum_with_count(g, 500)
    sub, _piece = equilateral_subdivision(g)
    vb = von_below_spectrum(sub, s.values[-1] + 0.1)
    assert compare_spectra(s, vb, count=500) < 1e-10
    assert validate_spectrum(s, g).ok


def test_complete_graphs_with_many_cycles_match_von_below():
    k8 = complete_graph(8)
    info = summarize(k8)
    plan = optimal_plan(0.25, info.M, info.total_length, info.l_min)
    s = spectrum_with_count(k8, plan.J)
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


def test_validate_spectrum_flags_dropped_value():
    g = preset("lasso")
    s = spectrum_with_count(g, 20)
    dropped = Spectrum(s.values[:10] + s.values[11:], s.k_max_covered, s.method, s.tol)
    report = validate_spectrum(dropped, g)
    assert not report.count_ok
    assert not report.ok
    assert "exact count gives 19 to 19" in report.messages[-1]


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
    """The k_max up to which spectrum_with_count(g, count) scans."""
    seen = []
    real = spectrum_module.secular_spectrum
    monkeypatch.setattr(spectrum_module, "secular_spectrum",
                        lambda g, k_max: seen.append(k_max) or real(g, k_max))
    spectrum_with_count(g, count)
    monkeypatch.undo()
    return seen[0]


def assert_vertex_count_exact(g, k):
    """The certified vertex count and count() equal the eigenphase count at every k."""
    bonds = _Bonds(g)
    n, sure = bonds.vertex_count(k)
    by_phases = bonds.count(k, bonds.phases(k))
    assert np.array_equal(n[sure], by_phases[sure])
    assert np.array_equal(bonds.count(k), by_phases)
    return sure


def planned_j(g):
    info = summarize(g)
    return optimal_plan(0.25, info.M, info.total_length, info.l_min).J


@pytest.mark.parametrize("name", ["lasso", "k5", "k5-pendant", "k33", "K6", "K7", "K8"])
def test_vertex_count_on_the_recover_grids(monkeypatch, name):
    g = complete_graph(int(name[1:])) if name.startswith("K") else preset(name)
    grid = _grid(_Bonds(g), scan_k_max(monkeypatch, g, planned_j(g)))
    assert assert_vertex_count_exact(g, grid[1:]).mean() >= 0.95


@pytest.mark.parametrize("name", ["lasso", "k5", "k5-pendant", "k33"])
def test_vertex_count_on_the_grids_to_500_values(monkeypatch, name):
    g = preset(name)
    grid = _grid(_Bonds(g), scan_k_max(monkeypatch, g, 500))
    assert assert_vertex_count_exact(g, grid[1:]).mean() >= 0.95


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
    assert assert_vertex_count_exact(g, grid[1:]).mean() >= 0.95
    assert validate_spectrum(secular_spectrum(g, 15.0), g).ok


def test_vertex_count_on_k10_to_45():
    k10 = complete_graph(10)
    grid = _grid(_Bonds(k10), 45.0)
    assert grid.size == 2580
    assert assert_vertex_count_exact(k10, grid[1:]).mean() >= 0.95
    s = secular_spectrum(k10, 45.0)
    assert len(s.values) == 631
    assert compare_spectra(s, von_below_spectrum(k10, 45.0)) < 1e-10


# k5's edges all have length 1: within 3e-11 of n pi every cot and csc is
# about 1e11 and the vertex matrix cancels catastrophically.
K5_DIRICHLET_PROBES = np.concatenate(
    [np.arange(1, 25) * math.pi + d for d in (-1e-11, 1e-11, -3e-11, 3e-11)])


def test_count_next_to_dirichlet_points():
    bonds = _Bonds(preset("k5"))
    k = K5_DIRICHLET_PROBES
    assert k.size == 96
    assert np.array_equal(bonds.count(k), bonds.count(k, bonds.phases(k)))
    # At the Dirichlet points themselves nothing is certified, and nothing warns.
    dirichlet = np.arange(1, 25) * math.pi
    assert not bonds.vertex_count(dirichlet)[1].any()
    assert np.array_equal(bonds.count(dirichlet), bonds.count(dirichlet, bonds.phases(dirichlet)))


def test_certificate_has_teeth(monkeypatch):
    # Accepting every vertex count makes count() wrong next to Dirichlet points.
    bonds = _Bonds(preset("k5"))
    k = K5_DIRICHLET_PROBES
    by_phases = bonds.count(k, bonds.phases(k))
    real = _Bonds.vertex_count
    monkeypatch.setattr(_Bonds, "vertex_count",
                        lambda self, k: (real(self, k)[0], np.ones(k.shape, dtype=bool)))
    assert np.any(bonds.count(k) != by_phases)


def test_a_probe_count_out_of_order_raises(monkeypatch):
    # One certified probe count one too high puts N out of order in its
    # bracket; the solver must refuse rather than repair it (repaired, k5 to
    # k = 8 lists 21 values that validate_spectrum accepts).
    real = _Bonds.vertex_count
    bumped = []

    def one_too_high(self, k, newton=False):
        count, sure, *rest = real(self, k, newton)
        if newton and not bumped:
            bumped.append(np.flatnonzero(sure)[0])
            count[bumped[0]] += 1
        return (count, sure, *rest)

    monkeypatch.setattr(_Bonds, "vertex_count", one_too_high)
    with pytest.raises(SpectrumCountError, match="eigenvalue count of 'k5' decreases"):
        secular_spectrum(preset("k5"), 8.0)
    assert bumped


def test_grid_sends_only_fallback_points_to_the_eigenphases(monkeypatch):
    # On the grid and at the refinement probes alike, a k reaches the
    # eigenphases only where the vertex certificate has just failed there.
    k8 = complete_graph(8)
    k_max = scan_k_max(monkeypatch, k8, planned_j(k8))
    grid = _grid(_Bonds(k8), k_max)[1:]
    events = []
    real_count, real_phases = _Bonds.vertex_count, _Bonds.phases

    def vertex_count(self, k, newton=False):
        out = real_count(self, k, newton)
        events.append(("vertex", k, out[1]))
        return out

    monkeypatch.setattr(_Bonds, "vertex_count", vertex_count)
    monkeypatch.setattr(_Bonds, "phases",
                        lambda self, k: events.append(("phases", k, None)) or real_phases(self, k))
    secular_spectrum(k8, k_max)
    assert np.array_equal(events[0][1], grid)
    assert np.sum(~events[0][2]) <= 0.05 * grid.size
    assert sum(kind == "vertex" for kind, _k, _sure in events) >= 2  # the grid and the probes
    for (kind, k, _sure), (prev, prev_k, prev_sure) in zip(events[1:], events):
        if kind == "phases":
            assert prev == "vertex" and np.array_equal(k, prev_k[~prev_sure])


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
        s = spectrum_with_count(preset(name), 500)
        assert len(s.values) == 500
        assert validate_spectrum(s, preset(name)).ok
    for g, k_max in ((complete_graph(10), 45.0), (random_graph(2, 10, 20), 15.0)):
        assert validate_spectrum(secular_spectrum(g, k_max), g).ok


@pytest.mark.parametrize("name", ["lasso", "k5", "k5-pendant", "k33", "K10"])
def test_refinement_takes_few_rounds(monkeypatch, name):
    # Bisection alone would need about 33 rounds to cut a grid cell of
    # pi / (4 L) down to ROOT_TOL.
    if name == "K10":
        g, k_max = complete_graph(10), 45.0
    else:
        g = preset(name)
        k_max = scan_k_max(monkeypatch, g, 500)
    calls = []
    real = _Bonds.vertex_count
    monkeypatch.setattr(_Bonds, "vertex_count",
                        lambda self, k, newton=False: calls.append(newton) or real(self, k, newton))
    s = secular_spectrum(g, k_max)
    assert len(s.values) >= 500
    # One call counts the grid, then each round counts and targets all its probes at once.
    assert calls[0] is False and all(calls[1:])
    assert 1 <= len(calls) - 1 <= 8


def test_grid_budget_refuses_before_allocating(monkeypatch):
    # The largest grid in the tests, demos and bench is K10 to k = 45.
    assert _GRID_ENTRIES >= 10 * _grid(_Bonds(complete_graph(10)), 45.0).size * 90
    with pytest.raises(ValueError, match="above the budget"):
        spectrum_with_count(preset("lasso"), 10**9)
    with pytest.raises(ValueError, match="above the budget"):
        secular_spectrum(preset("lasso"), 1e308)
    # The budget is exact: lasso has 2N = 4.
    points = _grid(_Bonds(preset("lasso")), 25.0).size
    monkeypatch.setattr(spectrum_module, "_GRID_ENTRIES", 4 * points)
    assert validate_spectrum(secular_spectrum(preset("lasso"), 25.0), preset("lasso")).ok
    monkeypatch.setattr(spectrum_module, "_GRID_ENTRIES", 4 * points - 1)
    with pytest.raises(ValueError, match="above the budget"):
        secular_spectrum(preset("lasso"), 25.0)
