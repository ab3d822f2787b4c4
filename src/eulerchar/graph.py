"""Compact metric graphs: parsing, editing, and geometric summaries.

A metric graph is a finite multigraph whose edges carry positive lengths.
Loops and parallel edges are allowed; the vertex degree counts a loop twice.
Graphs are immutable value objects; editing operations return new graphs.
"""

from __future__ import annotations

import heapq
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

# Maximum edge count produced by automatic equilateral subdivision. The
# subdivision is quadratic in the piece count and the von Below lift on it
# is dense: `eulerchar spectrum --count 73` with its cross-check takes about
# 1.3 s at 1,000 pieces, 6.3 s at 2,000 and 25 s at 4,000 (2-core Xeon).
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

    def vertex_index(self, vertex: str) -> int:
        return self.vertices.index(vertex)


@dataclass(frozen=True)
class GraphSummary:
    """Counts and the geometric quantities the recovery pipeline needs.

    chi is the Euler characteristic M - N, beta1 = 1 - chi the number of
    independent cycles, and l_min the length of the shortest periodic orbit,
    which equals min(shortest cycle length, 2 * shortest edge length).
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
    _check_connected(g)
    return g


def _check_connected(g: MetricGraph) -> None:
    reached = {g.edges[0].u}
    frontier = [g.edges[0].u]
    adj: dict[str, list[str]] = {v: [] for v in g.vertices}
    for e in g.edges:
        adj[e.u].append(e.v)
        adj[e.v].append(e.u)
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in reached:
                reached.add(w)
                frontier.append(w)
    if len(reached) != len(g.vertices):
        missing = sorted(set(g.vertices) - reached)
        raise GraphError(f"graph is not connected (unreached vertices: {missing})")


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


def _shortest_path_avoiding(g: MetricGraph, source: str, target: str, skip_edge: int) -> float:
    """Dijkstra distance from source to target ignoring edge index skip_edge."""
    adj: dict[str, list[tuple[str, float]]] = {v: [] for v in g.vertices}
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


def _shortest_cycle(g: MetricGraph) -> float:
    """Length of the shortest cycle (inf for trees).

    Loops count with their own length; every other edge e = (u, v) closes the
    shortest cycle through it at length(e) + dist(u, v) in the graph minus e.
    Parallel edges are covered by that formula (the path may use the twin).
    """
    best = math.inf
    for i, e in enumerate(g.edges):
        if e.u == e.v:
            best = min(best, e.length)
        else:
            back = _shortest_path_avoiding(g, e.u, e.v, i)
            best = min(best, e.length + back)
    return best


def summarize(g: MetricGraph) -> GraphSummary:
    """Counts, Euler characteristic, total length, shortest orbit length."""
    M = len(g.vertices)
    N = len(g.edges)
    chi = M - N
    shortest_edge = min(e.length for e in g.edges)
    l_min = min(2.0 * shortest_edge, _shortest_cycle(g))
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


def _common_divisor(lengths: list[float]) -> Fraction:
    fracs = []
    for length in lengths:
        try:
            fracs.append(Fraction(repr(length)))
        except ValueError as exc:
            raise GraphError(f"length {length!r} is not a finite decimal") from exc
    a = fracs[0]
    for f in fracs[1:]:
        a = Fraction(math.gcd(a.numerator * f.denominator, f.numerator * a.denominator),
                     a.denominator * f.denominator)
    return a


def equilateral_subdivision(g: MetricGraph) -> tuple[MetricGraph, float]:
    """Subdivide every edge into pieces of one common length.

    The piece length is the greatest common divisor of the edge lengths
    (computed exactly from their decimal representations), halved once if a
    loop would otherwise survive as a single piece; the result therefore has
    no loops, though parallel edges may remain. Raises GraphError when the
    lengths have no usable common divisor (irrational ratios, or a divisor so
    small the subdivision would exceed an edge budget).
    """
    a = _common_divisor([e.length for e in g.edges])
    if any(e.u == e.v and Fraction(repr(e.length)) == a for e in g.edges):
        a = a / 2
    pieces = [Fraction(repr(e.length)) / a for e in g.edges]
    if any(p.denominator != 1 for p in pieces):
        raise GraphError("edge lengths have no exact common divisor")
    total = sum(int(p) for p in pieces)
    if total > MAX_SUBDIVIDED_EDGES:
        raise GraphError(
            f"common divisor too small: {total} pieces exceed the cap of {MAX_SUBDIVIDED_EDGES}"
        )
    out = g
    for orig_index in range(len(g.edges) - 1, -1, -1):
        # Work backwards so earlier edge indices stay valid while we split.
        n = int(pieces[orig_index])
        edge_id = orig_index
        for cut in range(n - 1, 0, -1):
            out = subdivide_edge(out, edge_id, float(a * cut))
    return out, float(a)


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
