"""Compact metric graphs: parsing, editing, and geometric summaries.

A metric graph is a finite multigraph whose edges carry positive lengths.
Loops and parallel edges are allowed; the vertex degree counts a loop twice.
Graphs are immutable value objects; editing operations return new graphs.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Edge",
    "MetricGraph",
    "GraphSummary",
    "GraphError",
    "parse_graph",
    "to_document",
    "build_graph",
    "summarize",
    "two_colouring",
    "length_units",
    "subdivide_edge",
    "attach_loop",
    "equilateral_subdivision",
    "interval_graph",
    "loop_graph",
    "star_graph",
    "complete_graph",
    "complete_bipartite_graph",
    "preset",
    "PRESET_NAMES",
]

# Maximum edge count produced by automatic equilateral subdivision. The von
# Below lift on it is a dense eigenproblem of that order: it lists 73 values of
# a graph cut into 999 pieces in 0.12 s, where the secular search, which
# `spectrum_with_count` takes there, needs 0.016 s (2-core Xeon).
MAX_SUBDIVIDED_EDGES = 1_000


class GraphError(ValueError):
    """Raised for malformed graph documents or invalid graph operations."""


@dataclass(frozen=True)
class Edge:
    """One edge: endpoint vertex ids and a positive length (u == v is a loop)."""

    u: str
    v: str
    length: float


@dataclass(frozen=True)
class MetricGraph:
    """A connected metric graph with named vertices and indexed edges.

    Vertices are stored sorted lexicographically so every iteration order
    derived from the graph is deterministic. Edges keep their given order and
    are addressed by index.
    """

    name: str
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def degree(self, vertex: str) -> int:
        """Number of edge ends at `vertex` (a loop contributes two)."""
        d = 0
        for e in self.edges:
            d += (e.u == vertex) + (e.v == vertex)
        return d

    def total_length(self) -> float:
        return math.fsum(e.length for e in self.edges)


@dataclass(frozen=True)
class GraphSummary:
    """Counts and the geometric quantities the recovery pipeline needs.

    chi is the Euler characteristic M - N, beta1 = 1 - chi the number of
    independent cycles, and l_min the length of the shortest periodic orbit,
    which equals min(2m, shortest loop length) for m the shortest edge
    length. The out-and-back walk on the shortest edge has length 2m, and a
    loop is an orbit of its own length. Any other closed walk has k >= 2
    steps and is at least k times its own shortest edge, so never below 2m;
    in floats too, a sum of terms each >= m rounds to at least
    fl(m + m) = 2m. So no cycle of two or more edges is ever the minimum.
    """

    M: int
    N: int
    chi: int
    beta1: int
    total_length: float
    l_min: float


def build_graph(name: str, vertices: list[str], edges: list[tuple[str, str, float]]) -> MetricGraph:
    """Validate and construct a MetricGraph.

    Raises GraphError on duplicate or empty vertex ids, unknown endpoints,
    nonpositive or nonfinite lengths, empty vertex/edge sets, or a
    disconnected graph.
    """
    if not vertices:
        raise GraphError("graph has no vertices")
    if not edges:
        raise GraphError("graph has no edges")
    seen = set()
    for v in vertices:
        if not isinstance(v, str) or not v:
            raise GraphError(f"vertex id must be a nonempty string, got {v!r}")
        if v in seen:
            raise GraphError(f"duplicate vertex id {v!r}")
        seen.add(v)
    built = []
    for i, (u, v, length) in enumerate(edges):
        if u not in seen:
            raise GraphError(f"edge {i} references unknown vertex {u!r}")
        if v not in seen:
            raise GraphError(f"edge {i} references unknown vertex {v!r}")
        length = float(length)
        if not math.isfinite(length) or length <= 0.0:
            raise GraphError(f"edge {i} has nonpositive length {length!r}")
        built.append(Edge(u, v, length))
    g = MetricGraph(str(name), tuple(sorted(seen)), tuple(built))
    reached = two_colouring(g)
    if len(reached) != len(g.vertices):
        missing = sorted(seen - set(reached))
        raise GraphError(f"graph is not connected (unreached vertices: {missing})")
    return g


def two_colouring(g: MetricGraph) -> dict[str, int]:
    """Colour 0 or 1 of every vertex reached from the first edge, each opposite to
    the one it is reached from; g is bipartite iff every edge joins two colours."""
    colour = {g.edges[0].u: 0}
    frontier = [g.edges[0].u]
    adj: dict[str, list[str]] = {v: [] for v in g.vertices}
    for e in g.edges:
        adj[e.u].append(e.v)
        adj[e.v].append(e.u)
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in colour:
                colour[w] = 1 - colour[v]
                frontier.append(w)
    return colour


def parse_graph(text: str) -> MetricGraph:
    """Parse the JSON graph document.

    Expected shape::

        {"name": "lasso",
         "vertices": ["a", "b"],
         "edges": [{"u": "a", "v": "a", "length": 1.0},
                   {"u": "a", "v": "b", "length": 5.0}]}
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphError("graph document must be a JSON object")
    for key in ("name", "vertices", "edges"):
        if key not in doc:
            raise GraphError(f"graph document missing {key!r}")
    edges = []
    for i, e in enumerate(doc["edges"]):
        if not isinstance(e, dict) or not {"u", "v", "length"} <= set(e):
            raise GraphError(f"edge {i} must be an object with u, v, length")
        edges.append((e["u"], e["v"], e["length"]))
    return build_graph(doc["name"], list(doc["vertices"]), edges)


def to_document(g: MetricGraph) -> str:
    """Serialize back to the JSON document format (inverse of parse_graph)."""
    doc = {
        "name": g.name,
        "vertices": list(g.vertices),
        "edges": [{"u": e.u, "v": e.v, "length": e.length} for e in g.edges],
    }
    return json.dumps(doc, indent=2) + "\n"


def summarize(g: MetricGraph) -> GraphSummary:
    """Counts, Euler characteristic, total length, shortest orbit length."""
    M = len(g.vertices)
    N = len(g.edges)
    chi = M - N
    l_min = min(e.length if e.u == e.v else 2.0 * e.length for e in g.edges)
    return GraphSummary(
        M=M,
        N=N,
        chi=chi,
        beta1=1 - chi,
        total_length=g.total_length(),
        l_min=l_min,
    )


def _fresh_vertex(g: MetricGraph, hint: str = "s") -> str:
    taken = set(g.vertices)
    n = 0
    while f"{hint}{n}" in taken:
        n += 1
    return f"{hint}{n}"


def subdivide_edge(g: MetricGraph, edge_id: int, position: float) -> MetricGraph:
    """Split edge edge_id at distance `position` from its u end.

    Inserts a fresh degree-2 vertex; total length and Euler characteristic are
    unchanged. 0 < position < length is required.
    """
    if not 0 <= edge_id < len(g.edges):
        raise GraphError(f"no edge with index {edge_id}")
    e = g.edges[edge_id]
    if not 0.0 < position < e.length:
        raise GraphError(f"position {position} is not inside (0, {e.length})")
    mid = _fresh_vertex(g)
    edges = [(f.u, f.v, f.length) for f in g.edges]
    edges[edge_id : edge_id + 1] = [(e.u, mid, position), (mid, e.v, e.length - position)]
    return build_graph(g.name, list(g.vertices) + [mid], edges)


def attach_loop(g: MetricGraph, vertex: str, length: float) -> MetricGraph:
    """Attach a loop of the given length at an existing vertex."""
    if vertex not in g.vertices:
        raise GraphError(f"unknown vertex {vertex!r}")
    edges = [(e.u, e.v, e.length) for e in g.edges] + [(vertex, vertex, float(length))]
    return build_graph(g.name, list(g.vertices), edges)


def length_units(g: MetricGraph) -> tuple[list[int], int]:
    """Each edge length as an exact integer number of units 1/D, and D, the common
    denominator of the Fraction(repr(l)); units / D gives l back, correctly rounded."""
    exact = [Fraction(repr(e.length)) for e in g.edges]
    D = math.lcm(*(x.denominator for x in exact))
    return [x.numerator * (D // x.denominator) for x in exact], D


def equilateral_subdivision(g: MetricGraph) -> tuple[MetricGraph, float]:
    """Subdivide every edge into pieces of one common length.

    The piece length is the greatest common divisor of the edge lengths
    (computed exactly from their decimal representations), halved once if a
    loop would otherwise survive as a single piece; the result therefore has
    no loops, though parallel edges may remain. A graph with no edge to cut
    is returned itself; otherwise each edge becomes, in place, a path of
    pieces of exactly the returned length, through new vertices named as
    subdivide_edge would name them cutting the last edge first, each from its
    v end. Raises GraphError when the lengths have no usable common
    divisor (irrational ratios, or a divisor so small the subdivision would
    exceed MAX_SUBDIVIDED_EDGES pieces).
    """
    a = g.edges[0].length
    if all(e.length == a and e.u != e.v for e in g.edges):
        return g, a
    units, D = length_units(g)
    step = math.gcd(*units)
    if any(e.u == e.v and n == step for e, n in zip(g.edges, units)):
        units, D = [2 * n for n in units], 2 * D
    pieces = [n // step for n in units]
    total = sum(pieces)
    if total > MAX_SUBDIVIDED_EDGES:
        raise GraphError(
            f"common divisor too small: {total} pieces exceed the cap of {MAX_SUBDIVIDED_EDGES}"
        )
    a = float(Fraction(step, D))
    names = (f"s{n}" for n in itertools.count() if f"s{n}" not in g.vertices)
    inner: list[list[str]] = [[] for _ in pieces]
    for i in reversed(range(len(pieces))):
        inner[i] = [next(names) for _ in range(pieces[i] - 1)][::-1]
    paths = [[e.u, *mid, e.v] for e, mid in zip(g.edges, inner)]
    edges = [(p[j], p[j + 1], a) for p in paths for j in range(len(p) - 1)]
    return build_graph(g.name, [*g.vertices, *(v for mid in inner for v in mid)], edges), a


# ---------------------------------------------------------------------------
# Stock graphs


def interval_graph(length: float = 1.0, name: str = "interval") -> MetricGraph:
    return build_graph(name, ["a", "b"], [("a", "b", length)])


def loop_graph(length: float = 1.0, name: str = "loop") -> MetricGraph:
    return build_graph(name, ["a"], [("a", "a", length)])


def star_graph(arms: int = 3, length: float = 1.0, name: str = "") -> MetricGraph:
    if arms < 3:
        raise GraphError("a star needs at least 3 arms")
    leaves = [f"l{i}" for i in range(1, arms + 1)]
    return build_graph(name or f"star{arms}", ["c"] + leaves,
                       [("c", leaf, length) for leaf in leaves])


def complete_graph(n: int = 5, length: float = 1.0, name: str = "") -> MetricGraph:
    if n < 3:
        raise GraphError("complete graph needs at least 3 vertices")
    vs = [f"v{i}" for i in range(1, n + 1)]
    edges = [(vs[i], vs[j], length) for i in range(n) for j in range(i + 1, n)]
    return build_graph(name or f"k{n}", vs, edges)


def complete_bipartite_graph(m: int = 3, n: int = 3, length: float = 1.0,
                             name: str = "") -> MetricGraph:
    left = [f"a{i}" for i in range(1, m + 1)]
    right = [f"b{i}" for i in range(1, n + 1)]
    edges = [(u, v, length) for u in left for v in right]
    return build_graph(name or f"k{m}{n}", left + right, edges)


def _lasso() -> MetricGraph:
    return build_graph("lasso", ["a", "b"], [("a", "a", 1.0), ("a", "b", 5.0)])


def _k5_pendant() -> MetricGraph:
    """K5 with one edge detached at one end and reattached to a new leaf."""
    vs = [f"v{i}" for i in range(1, 6)]
    edges = [(vs[i], vs[j], 1.0) for i in range(5) for j in range(i + 1, 5)]
    edges[0] = ("v1", "w", 1.0)
    return build_graph("k5-pendant", vs + ["w"], edges)


PRESET_NAMES = ("lasso", "k5", "k5-pendant", "k33")


def preset(name: str) -> MetricGraph:
    """The named stock graphs used throughout the experiments."""
    if name == "lasso":
        return _lasso()
    if name == "k5":
        return complete_graph(5)
    if name == "k5-pendant":
        return _k5_pendant()
    if name == "k33":
        return complete_bipartite_graph(3, 3)
    raise GraphError(f"unknown preset {name!r} (available: {', '.join(PRESET_NAMES)})")
