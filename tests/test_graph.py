"""Tests for metric graph construction, summaries, and subdivision."""

import heapq
import math
import random

import pytest

from eulerchar import (
    GraphError,
    MetricGraph,
    attach_loop,
    build_graph,
    complete_bipartite_graph,
    complete_graph,
    equilateral_subdivision,
    interval_graph,
    loop_graph,
    parse_graph,
    preset,
    star_graph,
    subdivide_edge,
    summarize,
    to_document,
)
from eulerchar.graph import PRESET_NAMES
from test_spectrum import IRREGULAR_GRAPHS


def test_build_graph_basic():
    g = build_graph("path", ["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 2.0)])
    assert g.vertices == ("a", "b", "c")
    assert len(g.edges) == 2
    assert g.degree("b") == 2
    assert g.degree("a") == 1
    assert g.total_length() == 3.0


def test_loop_counts_twice_in_degree():
    g = build_graph("lollipop", ["a", "b"], [("a", "a", 1.0), ("a", "b", 5.0)])
    assert g.degree("a") == 3
    assert g.degree("b") == 1


def test_vertices_sorted_regardless_of_input_order():
    g = build_graph("g", ["z", "a", "m"], [("z", "a", 1.0), ("a", "m", 1.0)])
    assert g.vertices == ("a", "m", "z")


def test_build_graph_rejects_duplicate_vertices():
    with pytest.raises(GraphError):
        build_graph("g", ["a", "a"], [("a", "a", 1.0)])


def test_build_graph_rejects_unknown_endpoint():
    with pytest.raises(GraphError):
        build_graph("g", ["a", "b"], [("a", "c", 1.0)])


@pytest.mark.parametrize("length", [0.0, -1.0, float("inf"), float("nan")])
def test_build_graph_rejects_bad_length(length):
    with pytest.raises(GraphError, match="lengths must be positive and finite"):
        build_graph("g", ["a", "b"], [("a", "b", length)])


def test_build_graph_rejects_disconnected():
    with pytest.raises(GraphError):
        build_graph("g", ["a", "b", "c", "d"], [("a", "b", 1.0), ("c", "d", 1.0)])


def test_build_graph_rejects_no_edges():
    with pytest.raises(GraphError):
        build_graph("g", ["a"], [])


def test_parse_and_serialize_round_trip():
    g = preset("lasso")
    text = to_document(g)
    h = parse_graph(text)
    assert h == g


def test_parse_graph_rejects_malformed():
    with pytest.raises(GraphError):
        parse_graph("not json")
    with pytest.raises(GraphError):
        parse_graph('{"name": "g", "vertices": ["a"]}')
    with pytest.raises(GraphError):
        parse_graph('{"name": "g", "vertices": ["a", "b"], "edges": [{"u": "a"}]}')
    for doc, reason in MALFORMED_DOCUMENTS.values():
        with pytest.raises(GraphError, match=reason):
            parse_graph(doc)


def _loop_document(**fields):
    edge = {"u": '"a"', "v": '"a"', "length": "1.0", **fields}
    body = ", ".join(f'"{key}": {value}' for key, value in edge.items())
    return f'{{"name": "g", "vertices": ["a"], "edges": [{{{body}}}]}}'


# Graph documents with a field of the wrong JSON type, a name that is not one line or nesting
# too deep to parse, each with the reason parse_graph gives.
MALFORMED_DOCUMENTS = {
    "edges-int": ('{"name": "g", "vertices": ["a"], "edges": 5}', "'edges' must be an array of objects"),
    "vertices-int": ('{"name": "g", "vertices": 5, "edges": []}', "'vertices' must be an array of strings"),
    "vertices-str": ('{"name": "g", "vertices": "ab", "edges": []}', "'vertices' must be an array of strings"),
    "vertex-int": ('{"name": "g", "vertices": ["a", 3], "edges": [{"u": "a", "v": "a", "length": 1.0}]}',
                   "vertex id must be a nonempty string, got 3"),
    "u-list": (_loop_document(u='["a"]'), "edge 0 field 'u' must be a string"),
    "v-int": (_loop_document(v="7"), "edge 0 field 'v' must be a string"),
    "length-null": (_loop_document(length="null"), "edge 0 field 'length' must be a number"),
    "length-list": (_loop_document(length="[1]"), "edge 0 field 'length' must be a number"),
    "length-bool": (_loop_document(length="true"), "edge 0 field 'length' must be a number"),
    "length-str": (_loop_document(length='"2.5"'), "edge 0 field 'length' must be a number"),
    "length-1e400": (_loop_document(length="1e400"), "edge 0 has length inf: lengths must be positive and finite"),
    "length-int-1e400": (_loop_document(length="1" + "0" * 400),
                         "edge 0 has length inf: lengths must be positive and finite"),
    "nested-100000": ("[" * 100000 + "]" * 100000, "graph document is nested too deeply to parse"),
    "name-newline": (_loop_document().replace('"g"', '"x\\n9,1.5"'), "graph 'name' must not hold a line break"),
    "name-object": (_loop_document().replace('"g"', '{"x": 1}'), "graph document 'name' must be a string"),
}


def test_lasso_summary():
    s = summarize(preset("lasso"))
    assert (s.M, s.N, s.chi, s.beta1) == (2, 2, 0, 1)
    assert s.total_length == 6.0
    assert s.l_min == 1.0


def test_k5_summary():
    s = summarize(preset("k5"))
    assert (s.M, s.N, s.chi, s.beta1) == (5, 10, -5, 6)
    assert s.total_length == 10.0
    assert s.l_min == 2.0


def test_k5_pendant_summary():
    s = summarize(preset("k5-pendant"))
    assert (s.M, s.N, s.chi, s.beta1) == (6, 10, -4, 5)
    assert s.total_length == 10.0
    assert s.l_min == 2.0


def test_k33_summary():
    s = summarize(preset("k33"))
    assert (s.M, s.N, s.chi, s.beta1) == (6, 9, -3, 4)
    assert s.total_length == 9.0
    assert s.l_min == 2.0


def test_interval_summary_l_min_is_twice_edge():
    s = summarize(interval_graph(0.7))
    assert (s.M, s.N, s.chi) == (2, 1, 1)
    assert s.l_min == pytest.approx(1.4, abs=0.0)


def test_loop_summary_l_min_is_loop_length():
    s = summarize(loop_graph(1.0))
    assert (s.M, s.N, s.chi) == (1, 1, 0)
    assert s.l_min == 1.0


def test_star_summary():
    s = summarize(star_graph(arms=3, length=1.0))
    assert (s.M, s.N, s.chi) == (4, 3, 1)
    assert s.l_min == 2.0
    assert s.total_length == 3.0


def test_preset_names_and_unknown():
    assert PRESET_NAMES == ("lasso", "k5", "k5-pendant", "k33")
    for name in PRESET_NAMES:
        g = preset(name)
        assert isinstance(g, MetricGraph)
    with pytest.raises(GraphError):
        preset("mystery")


def test_complete_graph_counts():
    g = complete_graph(4)
    s = summarize(g)
    assert (s.M, s.N, s.chi) == (4, 6, -2)


def test_complete_bipartite_counts():
    g = complete_bipartite_graph(2, 3)
    s = summarize(g)
    assert (s.M, s.N, s.chi) == (5, 6, -1)
    assert s.l_min == 2.0


def test_shortest_cycle_beats_doubled_edge():
    # Triangle with sides 0.4: cycle 1.2 > 2 * 0.4 = 0.8.
    g = build_graph(
        "triangle",
        ["a", "b", "c"],
        [("a", "b", 0.4), ("b", "c", 0.4), ("c", "a", 0.4)],
    )
    assert summarize(g).l_min == pytest.approx(0.8, abs=0.0)
    # Triangle with sides 3: cycle 9 > 6, doubled edge wins again; shrink one
    # side so the cycle wins instead.
    h = build_graph(
        "triangle2",
        ["a", "b", "c"],
        [("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 0.3)],
    )
    # shortest cycle 2.3, doubled shortest edge 0.6.
    assert summarize(h).l_min == pytest.approx(0.6, abs=0.0)
    wide = build_graph(
        "triangle3",
        ["a", "b", "c"],
        [("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)],
    )
    # cycle 3 vs doubled edge 2.
    assert summarize(wide).l_min == 2.0


def test_parallel_edges_form_cycle():
    g = build_graph("banana", ["a", "b"], [("a", "b", 1.0), ("a", "b", 1.5)])
    s = summarize(g)
    assert (s.M, s.N, s.chi) == (2, 2, 0)
    assert s.l_min == 2.0  # cycle 2.5 vs doubled shortest edge 2.0


def test_subdivide_edge_preserves_chi_and_length():
    g = preset("lasso")
    before = summarize(g)
    h = subdivide_edge(g, 1, 2.0)
    after = summarize(h)
    assert after.chi == before.chi
    assert after.total_length == pytest.approx(before.total_length, abs=1e-12)
    assert after.M == before.M + 1
    assert after.N == before.N + 1
    new_vertex = set(h.vertices) - set(g.vertices)
    assert len(new_vertex) == 1
    assert h.degree(new_vertex.pop()) == 2


def test_subdivide_edge_splits_loop():
    g = loop_graph(1.0)
    h = subdivide_edge(g, 0, 0.25)
    s = summarize(h)
    assert (s.M, s.N, s.chi) == (2, 2, 0)
    lengths = sorted(e.length for e in h.edges)
    assert lengths == pytest.approx([0.25, 0.75], abs=0.0)


def test_subdivide_edge_validates_arguments():
    g = preset("lasso")
    with pytest.raises(GraphError):
        subdivide_edge(g, 5, 0.5)
    with pytest.raises(GraphError):
        subdivide_edge(g, 0, 0.0)
    with pytest.raises(GraphError):
        subdivide_edge(g, 0, 1.0)  # at or beyond the far end


def test_attach_loop():
    g = attach_loop(preset("k5"), "v1", 10.0)
    s = summarize(g)
    assert (s.M, s.N, s.chi) == (5, 11, -6)
    assert s.l_min == 2.0  # new loop of length 10 does not shorten anything
    with pytest.raises(GraphError):
        attach_loop(g, "nobody", 1.0)
    with pytest.raises(GraphError):
        attach_loop(g, "v1", 0.0)


def test_attach_small_loop_shrinks_l_min():
    g = attach_loop(preset("lasso"), "b", 0.02)
    s = summarize(g)
    assert s.chi == -1
    assert s.l_min == pytest.approx(0.02, abs=0.0)


def test_equilateral_subdivision_lasso():
    g, piece = equilateral_subdivision(preset("lasso"))
    assert piece == pytest.approx(0.5, abs=0.0)
    s = summarize(g)
    assert s.N == 12
    assert s.M == 12
    assert s.chi == 0
    assert s.total_length == pytest.approx(6.0, abs=1e-12)
    assert all(e.length == pytest.approx(0.5, abs=1e-15) for e in g.edges)
    assert all(e.u != e.v for e in g.edges)  # loops are gone


def test_equilateral_subdivision_already_equilateral():
    k5 = preset("k5")
    g, piece = equilateral_subdivision(k5)
    assert piece == 1.0
    assert g is k5  # no loops, whole edges kept


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_equilateral_subdivision_returns_a_subdivision_itself(name):
    h, piece = equilateral_subdivision(preset(name))
    again, a = equilateral_subdivision(h)
    assert again is h and a == piece


def test_equilateral_subdivision_loop_halved():
    # A bare loop must be cut into at least two pieces.
    g, piece = equilateral_subdivision(loop_graph(1.0))
    assert piece == pytest.approx(0.5, abs=0.0)
    s = summarize(g)
    assert (s.M, s.N) == (2, 2)


def test_equilateral_subdivision_mixed_lengths():
    g = build_graph("g", ["a", "b", "c"], [("a", "b", 0.75), ("b", "c", 0.5)])
    h, piece = equilateral_subdivision(g)
    assert piece == pytest.approx(0.25, abs=0.0)
    assert summarize(h).N == 5
    assert summarize(h).chi == summarize(g).chi


def _subdivision_by_cuts(g, a):
    """The subdivision as successive subdivide_edge cuts: the last edge first,
    each edge from its v end, so earlier edge indices stay valid."""
    out = g
    for i in reversed(range(len(g.edges))):
        for cut in range(round(g.edges[i].length / a) - 1, 0, -1):
            out = subdivide_edge(out, i, a * cut)
    return out


@pytest.mark.parametrize("g, a", [
    (preset("lasso"), 0.5),
    (preset("k5"), 1.0),
    (preset("k5-pendant"), 1.0),
    (preset("k33"), 1.0),
    (loop_graph(1.0), 0.5),
    (build_graph("mix", ["a", "b", "c"],
                 [("a", "a", 0.3), ("a", "b", 0.5), ("a", "b", 0.2), ("b", "c", 0.5)]), 0.1),
    (build_graph("taken", ["s0", "s2", "x"], [("s0", "x", 0.75), ("x", "s2", 0.5)]), 0.25),
])
def test_equilateral_subdivision_matches_successive_cuts(g, a):
    h, piece = equilateral_subdivision(g)
    assert piece == a
    ref = _subdivision_by_cuts(g, a)
    assert h.vertices == ref.vertices
    assert [(e.u, e.v) for e in h.edges] == [(e.u, e.v) for e in ref.edges]
    assert all(e.length == piece for e in h.edges)


def test_equilateral_subdivision_budget():
    g = build_graph("g", ["a", "b"], [("a", "b", 1.0), ("a", "b", 1e-5)])
    with pytest.raises(GraphError):
        equilateral_subdivision(g)


def test_scaling_summary():
    c = 2.5
    g = preset("lasso")
    scaled = build_graph(
        "scaled", list(g.vertices), [(e.u, e.v, c * e.length) for e in g.edges]
    )
    s0 = summarize(g)
    s1 = summarize(scaled)
    assert (s1.M, s1.N, s1.chi) == (s0.M, s0.N, s0.chi)
    assert s1.total_length == pytest.approx(c * s0.total_length, rel=1e-15)
    assert s1.l_min == pytest.approx(c * s0.l_min, rel=1e-15)


def test_chi_equals_vertices_minus_edges_everywhere():
    for name in PRESET_NAMES:
        g = preset(name)
        s = summarize(g)
        assert s.chi == len(g.vertices) - len(g.edges)
        assert s.beta1 == 1 - s.chi
        assert math.isclose(
            s.total_length, sum(e.length for e in g.edges), rel_tol=1e-15
        )


# ---------------------------------------------------------------------------
# l_min against a search over every cycle


def _shortest_path_avoiding(g, source, target, skip_edge):
    """Dijkstra distance from source to target ignoring edge index skip_edge and every loop."""
    adj = {v: [] for v in g.vertices}
    for i, e in enumerate(g.edges):
        if i == skip_edge or e.u == e.v:
            continue
        adj[e.u].append((e.v, e.length))
        adj[e.v].append((e.u, e.length))
    dist = {source: 0.0}
    queue = [(0.0, source)]
    while queue:
        d, v = heapq.heappop(queue)
        if v == target:
            return d
        if d > dist.get(v, math.inf):
            continue
        for w, length in adj[v]:
            nd = d + length
            if nd < dist.get(w, math.inf):
                dist[w] = nd
                heapq.heappush(queue, (nd, w))
    return math.inf


def oracle_l_min(g):
    """min(2 * shortest edge, shortest cycle): loops at their own length, every other
    edge (u, v) closing its shortest cycle with the shortest u-v path avoiding it."""
    cycles = [e.length if e.u == e.v else e.length + _shortest_path_avoiding(g, e.u, e.v, i)
              for i, e in enumerate(g.edges)]
    return min(2.0 * min(e.length for e in g.edges), *cycles)


LENGTHS = (1 / 3, 0.1 + 0.2, math.sqrt(2.0), 1e-3, 1e3, 0.7, 2.5, 1.0)


def random_multigraph(seed):
    """A random tree on 1-8 vertices, then up to 8 more edges: loops, parallel
    edges or random pairs, of lengths from LENGTHS or uniform in (0.01, 3)."""
    rng = random.Random(seed)
    vs = [f"v{i}" for i in range(rng.randint(1, 8))]

    def length():
        return rng.choice(LENGTHS) if rng.random() < 0.5 else rng.uniform(0.01, 3.0)

    edges = [(vs[i], vs[rng.randrange(i)], length()) for i in range(1, len(vs))]
    extra = rng.choice((0, 0, 1, 2, 4, 8))
    if not edges:  # a single vertex needs a loop
        extra = max(extra, 1)
    for _ in range(extra):
        kind = rng.random()
        if kind < 0.3 or not edges:
            u = rng.choice(vs)
            edges.append((u, u, length()))
        elif kind < 0.6:
            u, v, _ = rng.choice(edges)
            edges.append((u, v, length()))
        else:
            edges.append((rng.choice(vs), rng.choice(vs), length()))
    return build_graph(f"multi-{seed}", vs, edges)


def assert_l_min_is_the_oracles(g):
    assert summarize(g).l_min.hex() == oracle_l_min(g).hex(), g.name


@pytest.mark.parametrize("g", [preset(name) for name in PRESET_NAMES] + IRREGULAR_GRAPHS
                         + [complete_graph(n) for n in range(6, 11)], ids=lambda g: g.name)
def test_l_min_matches_the_cycle_search(g):
    assert_l_min_is_the_oracles(g)


def test_l_min_matches_the_cycle_search_on_random_multigraphs():
    graphs = [random_multigraph(seed) for seed in range(300)]
    # The sample holds every kind of edge the formula has to handle.
    assert sum(any(e.u == e.v for e in g.edges) for g in graphs) >= 50
    assert sum(len({(e.u, e.v) for e in g.edges}) < len(g.edges) for g in graphs) >= 50
    assert sum(len(g.edges) == len(g.vertices) - 1 for g in graphs) >= 50
    for g in graphs:
        assert_l_min_is_the_oracles(g)


def test_l_min_matches_the_cycle_search_with_many_more_edges_than_vertices():
    rng = random.Random(7)
    vs = [f"v{i}" for i in range(10)]
    edges = [(vs[i], vs[i - 1], rng.choice(LENGTHS)) for i in range(1, 10)]
    edges += [(rng.choice(vs), rng.choice(vs), rng.uniform(0.01, 3.0)) for _ in range(291)]
    assert_l_min_is_the_oracles(build_graph("dense", vs, edges))


@pytest.mark.parametrize("edges, l_min", [
    # Two parallel shortest edges: their cycle and the out-and-back walk both have length 0.6.
    ([("a", "b", 0.3), ("a", "b", 0.3), ("b", "c", 0.5)], 0.6),
    # A loop shorter than twice the shortest edge is the shortest orbit ...
    ([("a", "b", 0.4), ("b", "c", 1 / 3), ("a", "a", 0.5)], 0.5),
    # ... and one longer than that is not.
    ([("a", "b", 0.4), ("b", "c", 1 / 3), ("c", "c", 0.7)], 2.0 / 3),
])
def test_l_min_of_parallel_edges_and_loops(edges, l_min):
    g = build_graph("g", ["a", "b", "c"], edges)
    assert summarize(g).l_min == l_min
    assert_l_min_is_the_oracles(g)
