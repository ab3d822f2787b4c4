"""Eigenfrequencies of the standard Laplacian on a metric graph.

Two independent numerical methods plus closed-form oracles:

* ``secular_spectrum``: works on any graph. The exact count N(k) of eigenfrequencies
  in (0, k] comes from the vertex Dirichlet-to-Neumann matrix where a rounding-error
  certificate holds, else from that of the graph cut a quarter wave into each edge,
  else from the eigenphases of U(k) = S diag(e^{i k l_b}), S the bond scattering
  matrix (Kottos and Smilansky, Ann. Phys. 274, 1999; Berkolaiko and Kuchment, 2013,
  ch. 2). Roots are bracketed by N on a grid, counted only where N can step, refined
  by Newton on the vertex matrix and accepted only where N steps, so the listing is
  complete.
* ``von_below_spectrum``: commensurate graphs, through their equilateral
  subdivision of piece length a. Eigenvalues mu of the degree-normalized
  adjacency matrix of the discrete graph are lifted through cos(ka) = mu;
  the lattice points k = n pi / a take von Below's exact multiplicities
  (Linear Algebra Appl. 71, 1985) from N, M and whether the graph is
  bipartite.
* ``analytic_spectrum``: textbook spectra for intervals, loops, and
  equilateral stars, used as oracles in tests.

``validate_spectrum`` checks a listing from any source against N, counted at both ends of
every cluster of its values (on a lifted graph, from the lift's eigenvalues), and so sees
every value. ``spectrum_with_count`` takes its lister from the graph alone, so every listing
it returns is certified: von Below where the subdivision is small enough, certified so, else
the secular search, whose brackets certify it by the same counts. ``secular_matrix``, a
second encoding of the conditions, is a test oracle only.
Every spectrum lists k_1 = 0 explicitly (inserted analytically, never found
numerically) and repeats eigenfrequencies by multiplicity. Each also holds them as a read-only
float64 array, built and checked at construction: a lister's own, from which the tuple is derived.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import GraphError, MetricGraph, equilateral_subdivision, length_units, two_colouring

__all__ = [
    "Spectrum",
    "SpectrumCountError",
    "ValidationReport",
    "METHODS",
    "secular_spectrum",
    "von_below_spectrum",
    "analytic_spectrum",
    "spectrum_with_count",
    "validate_spectrum",
    "compare_spectra",
    "read_spectrum_csv",
    "spectrum_csv_text",
    "write_spectrum_csv",
]

METHODS = ("von-below", "secular", "analytic", "external")

# Roots are isolated to within ROOT_TOL: distinct eigenfrequencies closer
# than this are listed as one value with their combined multiplicity.
ROOT_TOL = 1e-11

# A bracket is probed on both sides of its next x, to cut the root out, only once Newton has
# converged there: its target lies less than this from the probe it came from. Before that
# both probes give the same target, so one is enough.
PAIR_STEP = 1e-4

# Batches of U(k), or of the vertex matrix A(k) and A'(k), hold at most this many entries each.
_BATCH_ENTRIES = 1 << 18

# secular_spectrum refuses a grid whose points times 2N exceed this, von_below_spectrum a lift
# that would build more values.
_GRID_ENTRIES = 1 << 22


class SpectrumCountError(RuntimeError):
    """A computed listing disagrees with the exact eigenvalue count."""


@dataclass(frozen=True)
class Spectrum:
    """Ordered eigenfrequencies k_j >= 0, repeated by multiplicity.

    k_max_covered is the threshold up to which the listing claims
    completeness; method records provenance; tol bounds the per-value error.
    ``array``, no field, is values as a read-only float64 array, built and checked at
    construction. A lister hands over its own sorted array (_of), and values is derived from
    it; a caller's values are converted once. A pickle or copy runs the constructor again.
    """

    values: tuple[float, ...]
    k_max_covered: float
    method: str
    tol: float

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not self.values:
            raise ValueError("spectrum is empty")
        a = vars(self).get("array")  # handed over by _of
        if a is None and {float}.issuperset(map(type, self.values)):
            a = np.fromiter(self.values, float, len(self.values))
        # a[0] = 0, no step down (NaN fails every comparison) and a last value below inf: every
        # value is finite, nonnegative and nondecreasing. Else, or for values not all floats,
        # which np.fromiter would convert ('1.5' to 1.5), the per-value checks decide.
        if a is None or not (a[0] == 0.0 and a[-1] < math.inf and (a[1:] >= a[:-1]).all()):
            if self.values[0] != 0.0:
                raise ValueError(f"spectra must start at k_1 = 0, got {self.values[0]!r}")
            prev = 0.0
            for v in self.values:
                if not math.isfinite(v) or v < 0.0:
                    raise ValueError(f"eigenfrequency {v!r} is not a finite nonnegative real")
                if v < prev:
                    raise ValueError("eigenfrequencies must be nondecreasing")
                prev = v
            a = np.fromiter(self.values, float, len(self.values))
        vars(self)["array"] = _read_only(a)
        for name, x in (("tol", self.tol), ("k_max_covered", self.k_max_covered)):
            if not (math.isfinite(x) and x >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {x!r}")

    @classmethod
    def _of(cls, a: np.ndarray, k_max_covered: float, method: str, tol: float,
            values: tuple[float, ...] | None = None) -> Spectrum:
        """The Spectrum of a lister's sorted float64 array a; values, a's floats, if given."""
        s = cls.__new__(cls)
        vars(s)["array"] = a
        s.__init__(tuple(a.tolist()) if values is None else values, k_max_covered, method, tol)
        return s

    def __reduce__(self):
        return type(self), (self.values, self.k_max_covered, self.method, self.tol)


@dataclass(frozen=True)
class ValidationReport:
    """Checks of a spectrum against the graph it claims to come from.

    weyl_lower_ok: k_j >= (j - M) pi / L for every j (a proved estimate).
    zero_mode_ok: the graph being connected, k_2 > tol, so the zero mode k_1 = 0,
    which Spectrum requires, is simple.
    count_ok: the values in (0, k_max_covered], grouped into clusters whose gaps are at
    most 2 d, d = tol + ROOT_TOL, leave below lo - d and hi + d of each cluster [lo, hi],
    and below k_max_covered - d, exactly as many values as the exact count N(k) of the
    graph there (the last point only where it lies above every cluster's). A correct
    listing, each value within tol of its eigenvalue, passes: no eigenvalue lies within
    d of a point. Conversely the counts put the j-th value of a cluster and the j-th
    eigenvalue both in [lo - d, hi + d], so a value alone in its cluster lies within d of
    its eigenvalue, and a missed, extra or misplaced value fails.
    """

    weyl_lower_ok: bool
    zero_mode_ok: bool
    count_ok: bool
    messages: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.weyl_lower_ok and self.zero_mode_ok and self.count_ok


# ---------------------------------------------------------------------------
# The vertex-condition matrix: a test oracle only, independent of S


def _edge_ends(g: MetricGraph) -> dict[str, list[tuple[int, int]]]:
    """Map vertex -> incident (edge index, end) pairs; a loop contributes both ends."""
    ends: dict[str, list[tuple[int, int]]] = {v: [] for v in g.vertices}
    for i, e in enumerate(g.edges):
        ends[e.u].append((i, 0))
        ends[e.v].append((i, 1))
    return ends


def secular_matrix(g: MetricGraph, k) -> np.ndarray:
    """The 2N x 2N vertex-condition system A(k); k may be a scalar or 1-d array.

    Unknowns are (a_e, b_e) per edge in columns (2e, 2e+1). Each vertex of
    degree dv contributes dv - 1 continuity rows (value at one end minus
    value at a reference end) and one balance row (sum of derivatives taken
    into the edges, divided by k to keep the matrix entire in k).
    """
    karr = np.atleast_1d(np.asarray(k, dtype=float))
    nk = karr.shape[0]
    n2 = 2 * len(g.edges)
    lengths = np.array([e.length for e in g.edges])
    cos_kl = np.cos(karr[:, None] * lengths[None, :])
    sin_kl = np.sin(karr[:, None] * lengths[None, :])
    ones = np.ones(nk)
    zeros = np.zeros(nk)

    def value_coeffs(edge: int, end: int) -> tuple[np.ndarray, np.ndarray]:
        if end == 0:
            return ones, zeros
        return cos_kl[:, edge], sin_kl[:, edge]

    def deriv_coeffs(edge: int, end: int) -> tuple[np.ndarray, np.ndarray]:
        if end == 0:
            return zeros, ones
        return sin_kl[:, edge], -cos_kl[:, edge]

    A = np.zeros((nk, n2, n2))
    ends = _edge_ends(g)
    row = 0
    for v in g.vertices:
        incident = ends[v]
        e0, end0 = incident[0]
        a0, b0 = value_coeffs(e0, end0)
        for e1, end1 in incident[1:]:
            a1, b1 = value_coeffs(e1, end1)
            A[:, row, 2 * e1] += a1
            A[:, row, 2 * e1 + 1] += b1
            A[:, row, 2 * e0] -= a0
            A[:, row, 2 * e0 + 1] -= b0
            row += 1
        for e1, end1 in incident:
            da, db = deriv_coeffs(e1, end1)
            A[:, row, 2 * e1] += da
            A[:, row, 2 * e1 + 1] += db
        row += 1
    assert row == n2
    return A if np.ndim(k) else A[0]


# ---------------------------------------------------------------------------
# Bond scattering and the exact eigenvalue count


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _Bonds:
    """The standard vertex conditions of g as the vertex matrix A(k) of g or of its
    quarter-wave cut, which count N(k) (see count), as the bond scattering matrix S, built on
    first use, for counts neither A certifies and for orbit_side, and the lift's tables: the
    subdivision with its length margin eta, and its eigenvalues mu, which count N(k) once built.
    It depends on g alone: _bonds_of builds it once per graph object and keeps it on g, so it
    goes with g. Its arrays are read-only, so a stray write raises.

    Bond 2e runs along edge e from u to v, bond 2e + 1 back. S[c, b] scatters
    bond b into bond c at the vertex v where b ends: 2/d_v, minus 1 when c is
    b reversed. S is real orthogonal, so its eigenphases in [0, 2 pi) pair up
    to 2 pi except at -1 (pi) and 1 (0); 1 has multiplicity beta_1 + 1
    (constants plus the Kirchhoff currents on cycles), so the phases sum to
    2 pi offset with offset = (2N - beta_1 - 1) / 2 = (N + M - 2) / 2.
    """

    def __init__(self, g: MetricGraph) -> None:
        index = {v: i for i, v in enumerate(g.vertices)}
        self.ends = _read_only(np.array([(index[e.u], index[e.v]) for e in g.edges]))
        self.lengths = _read_only(np.repeat([e.length for e in g.edges], 2))
        self.total_length = g.total_length()
        self.offset = 0.5 * (len(g.edges) + len(g.vertices) - 2)
        self.n_vertices = len(g.vertices)
        self.loops = _read_only(np.array([float(e.u == e.v) for e in g.edges]))
        self._pieces: dict[bool, tuple] = {}
        self._walk = self._lift = self._mu = None  # see walk, subdivision and interior

    @functools.cached_property
    def S(self) -> np.ndarray:
        start, end = self.ends.ravel(), self.ends[:, ::-1].ravel()
        S = (start[:, None] == end) * (2.0 / np.bincount(start)[end])
        b = np.arange(start.size)
        S[b ^ 1, b] -= 1.0
        return _read_only(S)

    def pieces(self, cut: bool):
        """m, the order of A on the pieces (g's edges, or with cut its quarter-wave cut's,
        e cut at a new vertex M + e), the entries of A they touch, the constant scatter of
        the pieces' terms to them, the ends at each vertex, their count and each length's ulp."""
        if cut not in self._pieces:
            n, m, ends = len(self.ends), self.n_vertices, self.ends
            if cut:
                mid, m = m + np.arange(n), m + n
                ends = np.column_stack((ends[:, 0], mid, mid, ends[:, 1])).reshape(2 * n, 2)
            (a, b), p = ends.T, ends.shape[0]
            entry = np.concatenate((a * m + a, a * m + b, b * m + b, b * m + a))
            touched, column = np.unique(entry, return_inverse=True)
            scatter = np.zeros((2 * p, touched.size))
            np.add.at(scatter, (np.arange(4 * p) % (2 * p), column), 1.0)  # both ends of a loop
            # Every vertex has an edge, so its diagonal entry a (m + 1) is touched.
            ends = scatter[:p, touched % (m + 1) == 0]
            self._pieces[cut] = (m, *map(_read_only, (touched, scatter, ends, ends.sum(axis=0),
                                                      np.spacing(self.lengths[::2]))))
        return self._pieces[cut]

    def walk(self, g: MetricGraph):
        """orbit_side's tables of g, these bonds' graph: S, the weights l_b S[c, b], D of
        graph.length_units and, per distinct bond length u / D, u and the mask of its bonds."""
        if self._walk is None:
            edge_units, D = length_units(g)
            units = [u for u in edge_units for _ in (0, 1)]
            masks = tuple((u, _read_only(np.array([v == u for v in units], dtype=float)))
                          for u in dict.fromkeys(units))
            self._walk = (self.S, _read_only(self.lengths[:, None] * self.S), D, masks)
        return self._walk

    def subdivision(self, g: MetricGraph):
        """equilateral_subdivision(g) of g, these bonds' graph, its piece length a, the relative
        length margin eta = max_e |l_e - n_e a| / (n_e a) of _lift_count, exact in Fraction and
        rounded up, and whether it is bipartite, kept once built; GraphError where
        equilateral_subdivision raises it. Each edge e is, in place, a path of n_e pieces from
        e.u; where the subdivision is g, n_e is 1 and eta 0."""
        if self._lift is None:
            sub, a = equilateral_subdivision(g)
            start = [i for i, e in enumerate(sub.edges) if e.u in g.vertices] + [len(sub.edges)]
            eta = 0 if sub is g else max(abs(Fraction(e.length) / ((j - i) * Fraction(a)) - 1)
                                         for e, i, j in zip(g.edges, start, start[1:]))
            eta = math.nextafter(float(eta), math.inf) if float(eta) < eta else float(eta)
            colour = two_colouring(sub)
            self._lift = sub, a, eta, all(colour[e.u] != colour[e.v] for e in sub.edges)
        return self._lift

    def interior(self, g: MetricGraph) -> np.ndarray:
        """The sorted eigenvalues mu of B = Deg^-1/2 Adj Deg^-1/2 of subdivision(g) but its ends, 1
        and, where it is bipartite, -1: the lift's, computed once. count reads them from then on."""
        if self._mu is None:
            sub, _a, _eta, bipartite = self.subdivision(g)
            index = {v: i for i, v in enumerate(sub.vertices)}
            ends = np.array([(index[e.u], index[e.v]) for e in sub.edges]).T
            adjacency = np.zeros((len(index), len(index)))
            np.add.at(adjacency, (ends, ends[::-1]), 1.0)  # both ways, parallel edges counted
            scale = 1.0 / np.sqrt(adjacency.sum(axis=1))
            mu = np.linalg.eigvalsh(scale[:, None] * adjacency * scale[None, :])
            self._mu = _read_only(mu[int(bipartite) : -1])
        return self._mu

    def vertex_matrix(self, k: np.ndarray, derivative: bool = False, cut: bool = False):
        """x_p = k l_p, s_p = sin x_p, where (1) of _index_count holds, and the vertex
        matrix A(k) and, if asked, A'(k), zero where (1) fails, per k > 0, of pieces(cut).

        A_uu = -sum cot x_p over the non-loop pieces at u plus 2 tan(x_p / 2) per loop
        at u; A_uv = sum csc x_p over the pieces from u to v. A'(k) =
        sum_p l_p / s_p^2 [[1 - loop c_p, -(1 - loop) c_p], [., 1 - loop c_p]] on the
        ends of p, c_p = cos x_p, is positive definite, so every eigenvalue of A rises
        between poles. The cut's first piece of e has l_1 = min(pi / (2 k), l_e / 2) rounded
        down to a multiple of ulp(l_e), so l_e - l_1 is exact; at a Dirichlet point of e
        both its sines are +-1. Call under np.errstate."""
        m, touched, scatter, _, _, ulp = self.pieces(cut)
        l, loops = self.lengths[::2], 0.0 if cut else self.loops
        if cut:
            first = np.floor(np.minimum(0.5 * math.pi / k[:, None], 0.5 * l) / ulp) * ulp
            l = np.stack((first, l - first), axis=2).reshape(k.shape[0], -1)
        x = k[:, None] * l
        s, c = np.sin(x), np.cos(x)
        far = np.all(np.abs(s) > 16.0 * 2.0**-53 * (1.0 + x), axis=1)
        # Each end of a loop adds tan(x / 2) = (1 - cos x) / sin x, and no csc.
        terms = np.empty((1 + derivative, k.shape[0], 2, x.shape[1]))
        terms[0, :, 0], terms[0, :, 1] = (loops - c) / s, (1.0 - loops) / s
        if derivative:
            terms[1] = np.stack((l * (1.0 - loops * c), l * (loops - 1.0) * c), 1) / s[:, None]**2
        terms[:, ~far] = 0.0
        A = np.zeros((1 + derivative, k.shape[0], m * m))
        A[..., touched] = terms.reshape(1 + derivative, k.shape[0], -1) @ scatter
        return (x, s, far, *A.reshape(1 + derivative, k.shape[0], m, m))

    def _index_count(self, k: np.ndarray, cut: bool, newton: bool = False):
        """N(k) per k > 0 from the m x m vertex matrix A(k) (vertex_matrix) of g or, with
        cut, of its quarter-wave cut, whether that count is certified and, with newton, the
        Newton targets k - w / w' of the eigenvalues w of A(k).

        Away from Dirichlet points (sin k l_e = 0) and eigenvalues, N(k) =
        sum_p floor(k l_p / pi) + #{eigenvalues of A(k) > 0} - 1 (Friedlander,
        ARMA 116, 1991; Berkolaiko, Cox and Marzuola, Lett. Math. Phys. 109, 2019), on
        g or its quarter-wave cut: P = N or 2N pieces, m = M or M + N.

        With u = 2^-53, x_p = fl(k l_p), s_p = fl(sin x_p), d_a the degree of a and
        w the eigenvalues of the computed matrix B, the count is certified where
          (1) |s_p| > 16 u (1 + x_p) for every piece p, and
          (2) min |w| > 64 u min(sum_p (1 + P + x_p) / s_p^2, max_a sum over the
              ends at a of (1 + d_a + x_p) / s_p^2) + 16 m u ||B||_F.
        (1) puts k l_p and x_p, at most u x_p apart, and x_p / pi in one cell between
        multiples of pi, so the floors are exact, with |sin| > 5/6 |s_p| between k l_p
        and x_p. A term moves by at most 4 csc^2 per unit of x there, so with sin and
        cos within 4 units in the last place the terms of a piece at an end are within
        16 u (1 + x_p) / s_p^2 of exact and at most 2 / s_p^2 in size. The scatter
        rounds only its sums, of at most P nonzero terms in an entry and d_a in an entry
        of row a. So the first bound in (2) bounds ||B - A(k)||, and so does the second:
        B - A(k) is symmetric, so its norm is at most its largest absolute row sum,
        which the pieces at a bound. eigvalsh and eigh (LAPACK's syevd without and with
        vectors) return the eigenvalues of B + E with ||E|| <= 8 m (2 u) ||B|| (LAPACK
        Users' Guide, section 4.7, which bounds every symmetric driver). By Weyl's
        inequality each eigenvalue of the exact A(k) lies within the right side of (2)
        of its w, so it has the sign of w and is not zero.

        The targets take the slope w' = v^T A'(k) v of each eigenvalue, v its
        unit eigenvector (Hellmann-Feynman); they are 0 / 0 = NaN where (1) fails.
        """
        m, _, _, ends, degree, _ = self.pieces(cut)
        n, u = (1 + cut) * len(self.ends), 2.0**-53
        count, sure, target = np.empty(len(k), int), np.empty(len(k), bool), np.empty((len(k), m))
        batch = max(1, _BATCH_ENTRIES // max(m * m, 2 * n))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for lo in range(0, k.shape[0], batch):
                kb = k[lo : lo + batch]
                x, s, far, A, *dA = self.vertex_matrix(kb, newton, cut)
                if newton:
                    w, V = np.linalg.eigh(A)
                    slope = np.sum(V * (dA[0] @ V), axis=1)
                    target[lo : lo + batch] = kb[:, None] - w / slope
                else:
                    w = np.linalg.eigvalsh(A)
                gap = np.min(np.abs(w), axis=1) - 16.0 * m * u * np.linalg.norm(A, axis=(1, 2))
                inv = 1.0 / s**2
                rows = ((1.0 + x) * inv) @ ends + (inv @ ends) * degree
                bound = np.minimum(np.sum((1.0 + n + x) / s**2, axis=1), rows.max(axis=1))
                sure[lo : lo + batch] = far & (gap > 64.0 * u * bound)
                count[lo : lo + batch] = (np.floor(x / math.pi).sum(axis=1)
                                          + np.sum(w > 0.0, axis=1) - 1)
        return (count, sure, target) if newton else (count, sure)

    def _phase_count(self, k: np.ndarray) -> np.ndarray:
        """N(k) per k > 0 from the eigenphases of U(k), in batches that bound memory: each
        rises in k and passes 0 mod 2 pi once per eigenfrequency, so 2 pi N(k) is the
        unwrapped phase sum 2 pi offset + 2 L k minus the wrapped one. A fractional part
        above 1e-6 means the eigensolver failed."""
        wrapped = np.empty(k.shape[0])
        batch = max(1, _BATCH_ENTRIES // self.lengths.size**2)
        for lo in range(0, k.shape[0], batch):
            U = self.S * np.exp(1j * k[lo : lo + batch, None, None] * self.lengths)
            phase = np.angle(np.linalg.eigvals(U))
            wrapped[lo : lo + batch] = np.mod(phase, 2.0 * math.pi).sum(axis=1)
        exact = self.total_length * k / math.pi + self.offset - wrapped / (2.0 * math.pi)
        count = np.rint(exact)
        if np.any(np.abs(exact - count) > 1e-6):
            raise SpectrumCountError("eigenphase count is not an integer; the eigensolver failed")
        return count.astype(int)

    def _lift_count(self, k: np.ndarray):
        """N(k) per k > 0 from interior's mu, and whether that count is certified: the index
        formula of _index_count on g-hat, g with each edge set to exactly its n_e pieces of
        length a of subdivision(g), with the length margin eta to cover g.

        On g-hat, of P pieces of length a and no loops, A(k) = csc(ka) (Adj - cos(ka) Deg),
        congruent through Deg^1/2 to csc(ka) (B - cos(ka) I), so by Sylvester's law of inertia
        N(k) = P floor(ka / pi) - 1 plus the number of eigenvalues of B above cos ka where
        sin ka > 0, below it where sin ka < 0, if none is cos ka.

        Stretching an edge q >= 1 times raises no eigenvalue: u(y) -> u(y / q) on it keeps
        continuity, divides its share of the energy by q and multiplies its share of the norm by
        q, so it raises no Rayleigh quotient, and by min-max no k_j (the lengthening principle of
        Berkolaiko, Kennedy, Kurasov and Mugnolo, Trans. AMS 372, 2019). Scaling every length by
        q divides every k_j by q. As (1 - eta) n_e a <= l_e <= (1 + eta) n_e a, N_g-hat((1 - eta)
        k) <= N_g(k) <= N_g-hat((1 + eta) k): N_g(k) is the count above wherever that takes one
        value at every y in [(1 - eta) ka, (1 + eta) ka] in place of ka. Where eta is 0, g is g-hat.

        With u = 2^-53, x = fl(ka), c = fl(cos x), r = fl(2 eta x) and m the order of B, it is
        certified by
          (1') |fl(sin x)| > 16 u (1 + x) + r: for r = 0, (1) of _index_count, so floor(x / pi) is
               floor(ka / pi) and fl(sin x) has the sign of sin ka. x lies at least |sin x| from
               every multiple of pi, and |sin x| > r + 2 u x after (1')'s roundings, while every y
               lies within (eta + u) ka < r + 2 u x of x: so every y lies in x's cell, and
          (2') no computed interior mu within dmu + dc + r of c: dmu = 16 (m + 1) u,
               dc = 8 u (1 + x).
        B's entries, d_i^-1/2 d_j^-1/2 times whole numbers, are formed within 7 u of their size;
        B >= 0 has norm 1, so the matrix eigvalsh solves is within 8 u of B in norm, and the
        eigenvalues it returns, in order, within 8 m (2 u) (1 + 8 u) + 8 u <= dmu of B's
        (LAPACK's bound, as in _index_count, and Weyl's inequality). x is within u x of ka and
        cos within 4 units in the last place, so c is within dc of cos ka, and every cos y within
        eta ka < r of cos ka: each interior eigenvalue lies on the side of every cos y its mu
        lies of c, and the window c -+ 2 (dmu + dc + r) covers the rounding of its ends. B's
        ends are exact: 1, simple as g is connected, and -1, present and simple exactly when the
        subdivision is bipartite; (1') keeps every cos y off both. Where eta >= 1/2, r >= x >=
        fl(sin x), so (1') certifies nothing: wherever it holds, (1 - eta) k > 0."""
        (sub, a, eta, bipartite), mu, u = self._lift, self._mu, 2.0**-53
        x = k * a
        s, c, r = np.sin(x), np.cos(x), 2.0 * eta * x
        window = 2.0 * (16.0 * (len(sub.vertices) + 1) * u + 8.0 * u * (1.0 + x) + r)
        below, above = np.searchsorted(mu, c - window), np.searchsorted(mu, c + window, "right")
        sure = (np.abs(s) > 16.0 * u * (1.0 + x) + r) & (below == above)
        crossed = np.where(s > 0.0, mu.size - above + 1, below + bipartite)
        cells = np.floor(np.where(sure, x, 0.0) / math.pi)  # a certified x is below 1 / (16 u)
        return (len(sub.edges) * cells + crossed - 1).astype(int), sure

    def count(self, k, newton: bool = False):
        """Exact number N(k) of eigenfrequencies in (0, k], with multiplicity, per k > 0, and with
        newton A(k)'s Newton targets: without newton, once g is lifted (interior), from the lift's
        mu where _lift_count certifies it; else from A(k) where its certificate holds, else from
        A of the quarter-wave cut (degree-2 vertices change nothing), else _phase_count."""
        k = np.atleast_1d(np.asarray(k, dtype=float))
        lifted = self._mu is not None and not newton
        count, sure, *target = self._lift_count(k) if lifted else self._index_count(k, False, newton)
        if lifted and not sure.all():
            count[~sure], sure[~sure] = self._index_count(k[~sure], False)
        if not sure.all():
            rest, cut_sure = self._index_count(k[~sure], True)
            if not cut_sure.all():
                rest[~cut_sure] = self._phase_count(k[~sure][~cut_sure])
            count[~sure] = rest
        return (count, *target) if newton else count


def _bonds_of(g: MetricGraph) -> _Bonds:
    """g's _Bonds, built on first use and kept in g's __dict__: a frozen MetricGraph has no
    slots, and its eq and hash read its fields only."""
    bonds = g.__dict__.get("_bonds")
    if bonds is None:
        bonds = g.__dict__["_bonds"] = _Bonds(g)
    return bonds


def _over_budget(subject: str, size: float, what: str, factor: str = "") -> ValueError:
    """The error that refuses a listing needing `size` `what` (inf if it overflowed a float)."""
    need = f"{size:.6g} {what}" if math.isfinite(size) else f"too many {what} to count in a float"
    return ValueError(f"{subject} needs {need}, {factor}above the budget of {_GRID_ENTRIES}")


def _cluster_starts(values: np.ndarray, tol: float) -> np.ndarray:
    """Where clusters of the sorted values start: after each gap over 2 (tol + ROOT_TOL)."""
    starts = np.flatnonzero(values[1:] - values[:-1] > 2.0 * (tol + ROOT_TOL)) + 1
    return np.concatenate(([0], starts)) if values.size else starts


def _grid(bonds: _Bonds, k_max: float) -> np.ndarray:
    """The bracketing grid of step pi / (4 L) on [0, k_max], refused before it
    is allocated when its points times 2N exceed _GRID_ENTRIES."""
    steps = k_max / (math.pi / (4.0 * bonds.total_length))
    points = math.ceil(steps) + 1 if steps < _GRID_ENTRIES else steps + 1.0
    if points * bonds.lengths.shape[0] > _GRID_ENTRIES:
        raise _over_budget(f"k_max = {k_max:.6g}", points, "grid points",
                           f"times 2N = {bonds.lengths.shape[0]} ")
    return np.linspace(0.0, k_max, points)


def _grid_counts(bonds: _Bonds, grid: np.ndarray, name: str) -> np.ndarray:
    """N at every point of a grid from 0 (N(0) = 0), counted at few of them.

    N never decreases, so a cell whose ends have equal counts has that count at every
    point inside it. count runs on every 4th point and the last, a step of about pi / L,
    the mean level spacing, then on the inner points of each of those cells whose ends
    differ; every other point takes the count of the counted point before it. So every
    pair of adjacent points between which N steps has both ends counted, and the counts
    equal a count at every point. Computed counts that decrease in k raise
    SpectrumCountError."""
    counts, known = np.zeros(grid.size, int), np.zeros(grid.size, bool)
    known[::4] = known[-1] = True
    coarse = np.flatnonzero(known)
    counts[coarse[1:]] = bonds.count(grid[coarse[1:]])
    inner = (coarse[:-1][np.diff(counts[coarse]) != 0, None] + np.arange(1, 4)).ravel()
    inner = inner[inner < grid.size - 1]
    counts[inner], known[inner] = bonds.count(grid[inner]), True
    if np.any(np.diff(counts[known]) < 0):
        raise SpectrumCountError(f"eigenvalue count of {name!r} decreases; eigensolver failed")
    return np.maximum.accumulate(counts)


def _probes(lo: np.ndarray, hi: np.ndarray, x: np.ndarray, paired: np.ndarray):
    """The probes x -+ ROOT_TOL of the brackets (lo, hi) and which of them are used: both
    where paired, else x - ROOT_TOL, or x + ROOT_TOL where only that one lies inside."""
    probe = x[:, None] + np.array([-ROOT_TOL, ROOT_TOL])
    inside = (probe > lo[:, None]) & (probe < hi[:, None])
    inside[:, 1] &= paired | ~inside[:, 0]
    return probe, inside


def secular_spectrum(g: MetricGraph, k_max: float) -> Spectrum:
    """All eigenfrequencies in [0, k_max] with multiplicities, any graph.

    The exact count N on a grid of step pi / (4 L) brackets the roots; a grid of more
    than _GRID_ENTRIES points times 2N is refused. N comes from _Bonds.count, there and
    at the probes. N never decreases, so _grid_counts counts the grid in two passes,
    on every 4th point and the last, then inside only those cells between them over
    which N steps: a cell with equal counts at its ends has that count throughout. The
    brackets, the adjacent grid points between which N steps, are those of a count at
    every point, and every count either pass computes is checked, in order of k, for a
    decrease, which raises SpectrumCountError. Each round probes all open brackets at
    once, each at x - ROOT_TOL, or at x + ROOT_TOL where only that one lies inside it, and
    at both where x has converged: a Dirichlet point, or a Newton target less than
    PAIR_STEP from its probe, where the pair cuts the root out. Never at x itself, where
    a root leaves every certificate uncertified. The probes cut the brackets into pieces;
    N decreasing across them raises SpectrumCountError too. A piece over which N does not
    step is dropped. In the others, x becomes the Dirichlet point m pi / l_e nearest to
    the probe at the piece's end, where A has a pole, else the Newton target k - w / w' of
    A(k) from that probe nearest to it, inside the piece (every fifth round, or with
    neither, the midpoint). A piece at most 3 ROOT_TOL wide, too narrow to probe again, is
    a root at x whose multiplicity is the step of N: the listing is complete by
    construction. Roots above k_max - 3 ROOT_TOL are dropped, as N(k_max) may count part of
    their cluster (k5's five at pi, k_max = fl(pi)). The probes need no budget: each kept
    piece holds an eigenvalue, so a round has at most 2 N(k_max) probes, about half the
    grid points, and one per open bracket until its x has converged; count builds their
    matrices in batches.
    """
    if not 0.0 < k_max < math.inf:
        raise ValueError("k_max must be positive and finite")
    bonds = _bonds_of(g)
    grid = _grid(bonds, k_max)
    counts = _grid_counts(bonds, grid, g.name)
    # Open brackets (lo, hi) with N(lo), N(hi), their next probe centres x, and whether x
    # has converged, so that both of its probes are used.
    i = np.nonzero(np.diff(counts))[0]
    lo, hi, n_lo, n_hi = grid[i], grid[i + 1], counts[i], counts[i + 1]
    x, paired = 0.5 * (lo + hi), np.zeros(lo.size, bool)
    roots = [np.zeros(0)]
    # On an edge below pi over the largest float the spacing overflows to inf, and the edge's
    # candidates below are NaN or inf, which ok drops: the listing is right, so nothing warns.
    with np.errstate(over="ignore"):
        spacing = math.pi / bonds.lengths[::2]  # of the Dirichlet points of each edge
    rnd = 0
    while lo.size:
        rnd += 1
        probe, inside = _probes(lo, hi, x, paired)
        if not inside.any(axis=1).all():
            raise SpectrumCountError(f"a bracket of {g.name!r} has no probe inside it")
        # Probes outside their bracket, or unused, are padded with its ends: lo, p1, p2, hi.
        ends = np.column_stack((lo, np.where(inside, probe, np.column_stack((lo, hi))), hi))
        flat = probe[inside]
        n_probe, target = bonds.count(flat, newton=True)
        n = np.column_stack((n_lo, n_lo, n_hi, n_hi))
        n[:, 1:3][inside] = n_probe
        step = np.diff(n, axis=1)
        if np.any(step < 0):
            raise SpectrumCountError(f"eigenvalue count of {g.name!r} decreases; eigensolver failed")
        i, j = np.nonzero(step)  # the pieces over which N steps
        a, b, narrow = ends[i, j], ends[i, j + 1], ends[i, j + 1] - ends[i, j] <= 3.0 * ROOT_TOL
        # The row in flat of each piece's probe: p1, or p2 for (p2, hi] and where p1 is padded.
        q = (np.cumsum(inside) - 1).reshape(inside.shape)[i, ((j == 2) | ~inside[i, 0]).astype(int)]
        p = flat[q][:, None]
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite spacing, as above
            m = np.floor(p / spacing)
            cand = np.concatenate((m * spacing, (m + 1.0) * spacing, target[q]), axis=1)
        # Dirichlet points first; a root at the probe may lie a rounding error outside the piece.
        ok = (cand > a[:, None] - ROOT_TOL) & (cand < b[:, None] + ROOT_TOL)
        ok[:, 2 * spacing.size :] &= ~ok[:, : 2 * spacing.size].any(axis=1, keepdims=True)
        best = np.argmin(np.where(ok, np.abs(cand - p), np.inf), axis=1)
        targeted = ok.any(axis=1) & ((rnd % 5 != 0) | narrow)  # else the midpoint
        x = np.where(targeted, np.clip(cand[np.arange(best.size), best], a, b), 0.5 * (a + b))
        paired = targeted & ((best < 2 * spacing.size) | (np.abs(x - p[:, 0]) < PAIR_STEP))
        roots.append(np.repeat(x[narrow], (n[i, j + 1] - n[i, j])[narrow]))
        lo, hi, n_lo, n_hi, x, paired = (v[~narrow]
                                         for v in (a, b, n[i, j], n[i, j + 1], x, paired))
    found = np.sort(np.concatenate(roots))
    values = np.concatenate(([0.0], found[found <= k_max - 3.0 * ROOT_TOL]))  # k_1 = 0
    return Spectrum._of(values, float(k_max), "secular", 1e-10)


# ---------------------------------------------------------------------------
# von Below lift for commensurate graphs


def von_below_spectrum(g: MetricGraph, k_max: float) -> Spectrum:
    """Eigenfrequencies of a commensurate graph through the discrete spectrum.

    The lift runs on equilateral_subdivision(g), which has the spectrum of g,
    piece length a and no loops (parallel edges are fine: the adjacency matrix
    just counts them), and raises GraphError where that does. Each discrete
    eigenvalue mu in (-1, 1) of its degree-normalized adjacency lifts to
    k = (arccos mu + 2 pi n)/a and k = (-arccos mu + 2 pi (n+1))/a. Those are
    all eigenvalues but the top one, mu = 1 (simple, g being connected), and,
    when g is bipartite, the bottom one, mu = -1, so they are dropped by
    position. The lattice points k = n pi / a have multiplicity N - M + 2,
    except N - M at odd n when g is not bipartite (von Below 1985). A lift that would
    generate more than _GRID_ENTRIES values is refused before any of them is built.
    """
    if not 0.0 < k_max < math.inf:
        raise ValueError("k_max must be positive and finite")
    bonds = _bonds_of(g)
    sub, a, _eta, bipartite = bonds.subdivision(g)

    # Branch and lattice indices run past the last k <= k_max; the filter drops the rest. The
    # sizes are counted in floats, where a k_max a that overflows gives inf or NaN, not an error.
    branches = k_max * a / (2.0 * math.pi) // 1.0 + 3.0
    lattice_points = k_max * a / math.pi // 1.0 + 2.0
    n_minus_m = len(sub.edges) - len(sub.vertices)
    odd = 0.0 if bipartite else (lattice_points + 1.0) // 2.0
    lifted = (1.0 + 2.0 * (len(sub.vertices) - 1 - bipartite) * branches
              + (n_minus_m + 2) * lattice_points - 2.0 * odd)
    if not lifted <= _GRID_ENTRIES:
        raise _over_budget(f"k_max = {k_max:.6g}", lifted, "lifted values")
    branches, lattice_points = int(branches), int(lattice_points)

    phi = np.array([math.acos(float(m)) for m in bonds.interior(g)])[:, None]
    n = np.arange(branches)
    lattice = np.arange(1, lattice_points + 1)
    multiplicity = np.where(bipartite | (lattice % 2 == 0), n_minus_m + 2, n_minus_m)
    k = np.concatenate([[0.0], ((phi + 2.0 * math.pi * n) / a).ravel(),
                        ((2.0 * math.pi * (n + 1) - phi) / a).ravel(),
                        np.repeat(lattice * math.pi / a, multiplicity)])
    return Spectrum._of(np.sort(k[k <= k_max]), float(k_max), "von-below", 1e-10)


# ---------------------------------------------------------------------------
# Closed-form oracles


def analytic_spectrum(family: str, count: int, *, length: float = 1.0, arms: int = 3) -> Spectrum:
    """First `count` eigenfrequencies of an interval, loop, or equilateral star.

    Interval of length L: (j - 1) pi / L. Loop of length l: 0, then 2 pi n / l
    twice each. Star with `arms` edges of length a: 0, then (pi/2 + n pi)/a
    with multiplicity arms - 1 interleaved with n pi / a simple.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if length <= 0.0:
        raise ValueError("length must be positive")
    values: list[float]
    if family == "interval":
        values = [(j * math.pi) / length for j in range(count)]
    elif family == "loop":
        values = [0.0]
        n = 1
        while len(values) < count:
            values.extend([2.0 * math.pi * n / length] * 2)
            n += 1
        values = values[:count]
    elif family == "equilateral-star":
        if arms < 3:
            raise ValueError("a star needs at least 3 arms")
        values = [0.0]
        n = 0
        while len(values) < count:
            values.extend([(math.pi / 2.0 + n * math.pi) / length] * (arms - 1))
            values.append((n + 1) * math.pi / length)
            n += 1
        values = values[:count]
    else:
        raise ValueError(f"unknown family {family!r}")
    return Spectrum(tuple(values), values[-1], "analytic", 0.0)


def spectrum_with_count(g: MetricGraph, count: int) -> Spectrum:
    """The first `count` eigenfrequencies, by the lister g calls for, certified.

    g is listed by von_below_spectrum(g) where the subdivision g's table keeps has at most
    `count` vertices, so that the lift's dense eigvalsh computes no more numbers than the
    listing keeps, and that listing is certified by validate_spectrum's exact counts (from
    its eigenvalues), raising SpectrumCountError where they fail; else by the secular search,
    which its own brackets certify. A count whose scan overflows a float is over the budget.

    Listed up to Weyl's estimate (count + 3 + max(N - M, 0)) pi / L, as N(k)
    averages L k / pi + (M - N) / 2 - 1 and equilateral complete graphs lag it
    by up to (N - M) / 2; where that falls short (a star lags more), up to
    (count + N + 1) pi / L, where Dirichlet bracketing gives N >= count. Both
    add 1/8, so that grids of step pi / (4 L) miss the Dirichlet points of equilateral
    graphs, where the graph's own A(k) is never certified and the count falls back on its
    quarter-wave cut. k_max_covered is halfway from the last kept value to the next, or,
    where the cut splits a cluster of values (_cluster_starts, as validate_spectrum groups
    them), into the gap below that cluster.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    try:
        lift = len(_bonds_of(g).subdivision(g)[0].vertices) <= count
    except GraphError:
        lift = False
    lister = von_below_spectrum if lift else secular_spectrum
    n_edges, length = len(g.edges), g.total_length()
    try:
        hi = (count + n_edges + 1.125) * math.pi / length
        weyl = (count + 3.125 + max(n_edges - len(g.vertices), 0)) * math.pi / length
    except OverflowError:  # count is beyond the float range
        hi = weyl = math.inf
    if max(hi, weyl) == math.inf:
        raise _over_budget(f"count = {count}", math.inf, "listed values")
    for k_max in sorted({weyl, hi}):
        s = lister(g, k_max)
        if len(s.values) > count:
            break
    else:
        raise SpectrumCountError(f"{s.method} listed {len(s.values)} values below k = {hi:.6g}, "
                                 f"the Dirichlet bound gives at least {count + 1}")
    v = s.values
    i = 1 + _cluster_starts(s.array[1 : count + 1], s.tol)[-1]
    s = Spectrum._of(s.array[:count], 0.5 * (v[i - 1] + v[i]), s.method, s.tol, v[:count])
    if lift:
        report = validate_spectrum(s, g)
        if not report.ok:
            raise SpectrumCountError(f"the von Below listing of {g.name!r} fails its certificate: "
                                     + "; ".join(report.messages))
    return s


# ---------------------------------------------------------------------------
# Validation and file format


def validate_spectrum(s: Spectrum, g: MetricGraph) -> ValidationReport:
    """Check a spectrum against a proved estimate and the exact count of g (see
    ValidationReport), counting N at every point in one call (once g is lifted, from its mu)."""
    bonds = _bonds_of(g)
    M, L = len(g.vertices), bonds.total_length
    values = s.array
    messages: list[str] = []

    lower = (np.arange(1, values.size + 1) - M) * math.pi / L
    below = np.flatnonzero(values < lower - s.tol)
    weyl_lower_ok = below.size == 0
    if not weyl_lower_ok:
        j = below[0]
        messages.append(f"k_{j + 1} = {values[j]:.12g} violates the bound "
                        f"(j - M) pi / L = {lower[j]:.12g}")

    zero_mode_ok = values.size < 2 or bool(values[1] > s.tol)
    if not zero_mode_ok:
        messages.append(f"k_2 = {values[1]:.12g} is within tol of 0, so k_1 = 0 is not simple")

    # The clusters of k_2, k_3, ... up to K, as runs of positions [first, last), and the
    # points lo - d and hi + d of each, then K - d where it lies above them all. N is 0
    # below pi / L, the lowest possible k_2.
    K, d = s.k_max_covered, s.tol + ROOT_TOL
    v = values[1 : np.searchsorted(values, K, "right")]  # values is sorted, values[0] = 0 <= K
    first = _cluster_starts(v, s.tol)
    last = np.append(first[1:], v.size)[: first.size]
    points = np.column_stack((v[first] - d, v[last - 1] + d)).ravel()
    listed = np.column_stack((first, last)).ravel()
    if K - d > (points[-1] if points.size else 0.0):
        points, listed = np.append(points, K - d), np.append(listed, v.size)
    n, counted = np.zeros(points.size, int), points >= math.pi / L
    if counted.any():
        n[counted] = bonds.count(points[counted])
    wrong = np.flatnonzero(n != listed)
    count_ok = wrong.size == 0
    if not count_ok:
        w = wrong[0]
        p, side = divmod(int(w), 2)
        if p == first.size:
            where = "tol + ROOT_TOL below k_max_covered"
        else:
            lo, hi = f"{v[first[p]]:.12g}", f"{v[last[p] - 1]:.12g}"
            run = (f"k_{first[p] + 2}" if last[p] - first[p] == 1
                   else f"k_{first[p] + 2} to k_{last[p] + 1}")
            span = lo if lo == hi else f"[{lo}, {hi}]"
            where = f"{('below', 'above')[side]} the cluster {run} at {span}"
        messages.append(f"{listed[w]} eigenfrequencies listed in (0, {points[w]:.12g}], "
                        f"the exact count gives {n[w]}, {where}")
    return ValidationReport(weyl_lower_ok, zero_mode_ok, count_ok, tuple(messages))


def compare_spectra(a: Spectrum, b: Spectrum, count: int | None = None) -> float:
    """Max elementwise |k difference| over the first count shared values."""
    n = min(len(a.values), len(b.values), len(a.values) if count is None else count)
    if n == 0:
        raise ValueError("no shared values to compare")
    return float(np.max(np.abs(a.array[:n] - b.array[:n])))


def spectrum_csv_text(s: Spectrum, metadata: dict | None = None) -> str:
    """The CSV serialization: `# key=value` provenance, `j,k` header, value rows.

    Eigenfrequencies are written with 17 significant digits, enough to
    round-trip doubles exactly.
    """
    lines = [
        f"# method={s.method}",
        f"# tol={s.tol:.16e}",
        f"# k_max_covered={s.k_max_covered:.16e}",
    ]
    for key, value in (metadata or {}).items():
        lines.append(f"# {key}={value}")
    lines.append("j,k")
    for j, k in enumerate(s.values, start=1):
        lines.append(f"{j},{k:.16e}")
    return "\n".join(lines) + "\n"


def write_spectrum_csv(path, s: Spectrum, metadata: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(spectrum_csv_text(s, metadata))


def read_spectrum_csv(path) -> tuple[Spectrum, dict[str, str]]:
    """Read the CSV format of write_spectrum_csv; bare files become `external`.

    Unknown `#` keys are returned in the metadata dict untouched.
    """
    metadata: dict[str, str] = {}
    values: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    metadata[key.strip()] = value.strip()
                continue
            if line.lower().startswith("j,"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"malformed spectrum row {line!r}")
            values.append(float(parts[1]))
    method = metadata.get("method", "external")
    if method not in METHODS:
        method = "external"
    tol = float(metadata.get("tol", "0"))
    k_max = float(metadata.get("k_max_covered", values[-1] if values else 0.0))
    return Spectrum(tuple(values), k_max, method, tol), metadata
