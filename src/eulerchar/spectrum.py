"""Eigenfrequencies of the standard Laplacian on a metric graph.

Two independent numerical methods plus closed-form oracles:

* ``secular_spectrum``: works on any graph. The vertex conditions are
  encoded once, in the bond scattering matrix S (Kottos and Smilansky, Ann.
  Phys. 274, 1999; Berkolaiko and Kuchment, Introduction to Quantum Graphs,
  2013, ch. 2). The eigenphases of U(k) = S diag(e^{i k l_b}) turn
  counterclockwise in k and give the exact count N(k) of eigenfrequencies
  in (0, k]. Roots are bracketed by N on a grid, refined by Newton on the
  eigenphases and accepted only where N steps, so the listing is complete.
* ``von_below_spectrum``: equilateral graphs only. Eigenvalues mu of the
  degree-normalized adjacency matrix of the discrete graph are lifted through
  cos(ka) = mu; the lattice points k = n pi / a take their multiplicities
  from the nullity of the vertex-condition matrix A(k) (``secular_matrix``),
  an encoding of the same conditions independent of S.
* ``analytic_spectrum``: textbook spectra for intervals, loops, and
  equilateral stars, used as oracles in tests.

``validate_spectrum`` checks a listing from any source against N.
Every spectrum lists k_1 = 0 explicitly (inserted analytically, never found
numerically) and repeats eigenfrequencies by multiplicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import GraphError, MetricGraph, summarize

__all__ = [
    "Spectrum",
    "SpectrumCountError",
    "ValidationReport",
    "METHODS",
    "secular_matrix",
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

# Singular values below RANK_TOL * max(sigma_max, 1) count toward the nullity.
# The floor at 1 matters: at a loop's eigenfrequencies the whole secular
# matrix vanishes, so a purely relative threshold would report nullity 0.
RANK_TOL = 1e-7

# Roots are isolated to within ROOT_TOL: distinct eigenfrequencies closer
# than this are listed as one value with their combined multiplicity.
ROOT_TOL = 1e-11

# Batches of U(k) hold at most this many complex entries (4 MiB).
_BATCH_ENTRIES = 1 << 18


class SpectrumCountError(RuntimeError):
    """A computed listing disagrees with the exact eigenvalue count."""


@dataclass(frozen=True)
class Spectrum:
    """Ordered eigenfrequencies k_j >= 0, repeated by multiplicity.

    k_max_covered is the threshold up to which the listing claims
    completeness; method records provenance; tol bounds the per-value error.
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
        if self.values[0] != 0.0:
            raise ValueError(f"spectra must start at k_1 = 0, got {self.values[0]!r}")
        prev = 0.0
        for v in self.values:
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"eigenfrequency {v!r} is not a finite nonnegative real")
            if v < prev:
                raise ValueError("eigenfrequencies must be nondecreasing")
            prev = v
        for name, x in (("tol", self.tol), ("k_max_covered", self.k_max_covered)):
            if not (math.isfinite(x) and x >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {x!r}")


@dataclass(frozen=True)
class ValidationReport:
    """Checks of a spectrum against the graph it claims to come from.

    weyl_lower_ok: k_j >= (j - M) pi / L for every j (a proved estimate).
    zero_mode_ok: k_1 = 0 and, the graph being connected, k_2 > 0.
    count_ok: the number of listed values in (0, k_max_covered] equals the
    exact eigenvalue count N(k_max_covered) of the graph, read with the
    spectrum's tol on both sides of k_max_covered. A missed or an extra
    value fails it.
    """

    weyl_lower_ok: bool
    zero_mode_ok: bool
    count_ok: bool
    messages: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.weyl_lower_ok and self.zero_mode_ok and self.count_ok


# ---------------------------------------------------------------------------
# The vertex-condition matrix: an oracle for lattice multiplicities and tests


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


def _nullity(g: MetricGraph, k: float) -> int:
    sigma = np.linalg.svd(secular_matrix(g, np.array([k]))[0], compute_uv=False)
    threshold = RANK_TOL * max(float(sigma[0]), 1.0)
    return int(np.sum(sigma < threshold))


# ---------------------------------------------------------------------------
# Bond scattering and the exact eigenvalue count


class _Bonds:
    """The bond scattering matrix S of the standard vertex conditions of g.

    Bond 2e runs along edge e from u to v, bond 2e + 1 back. S[c, b] scatters
    bond b into bond c at the vertex v where b ends: 2/d_v, minus 1 when c is
    b reversed. S is real orthogonal, so its eigenphases in [0, 2 pi) pair up
    to 2 pi except at -1 (pi) and 1 (0); 1 has multiplicity beta_1 + 1
    (constants plus the Kirchhoff currents on cycles), so the phases sum to
    2 pi offset with offset = (2N - beta_1 - 1) / 2 = (N + M - 2) / 2.
    """

    def __init__(self, g: MetricGraph) -> None:
        n = 2 * len(g.edges)
        start = [v for e in g.edges for v in (e.u, e.v)]
        end = [v for e in g.edges for v in (e.v, e.u)]
        self.S = np.zeros((n, n))
        for b in range(n):
            out = [c for c in range(n) if start[c] == end[b]]
            self.S[out, b] = 2.0 / len(out)
            self.S[b ^ 1, b] -= 1.0
        self.lengths = np.repeat([e.length for e in g.edges], 2)
        self.total_length = g.total_length()
        self.offset = 0.5 * (len(g.edges) + len(g.vertices) - 2)

    def phases(self, k: np.ndarray, slopes: bool = False):
        """Eigenphases in (-pi, pi] of U(k) per k and, if asked, their k-slopes
        v* diag(l_b) v > 0 (Hellmann-Feynman), in batches that bound memory."""
        n = self.lengths.shape[0]
        phase = np.empty((k.shape[0], n))
        slope = np.empty((k.shape[0], n)) if slopes else None
        batch = max(1, _BATCH_ENTRIES // (n * n))
        for lo in range(0, k.shape[0], batch):
            U = self.S * np.exp(1j * k[lo : lo + batch, None, None] * self.lengths)
            if slopes:
                w, V = np.linalg.eig(U)
                slope[lo : lo + batch] = np.einsum("b,kbj->kj", self.lengths, np.abs(V) ** 2)
            else:
                w = np.linalg.eigvals(U)
            phase[lo : lo + batch] = np.angle(w)
        return phase, slope

    def count(self, k, phase: np.ndarray | None = None) -> np.ndarray:
        """Exact number N(k) of eigenfrequencies in (0, k], with multiplicity, per k > 0.

        Each phase rises in k and passes 0 mod 2 pi once per eigenfrequency, so
        2 pi N(k) is the unwrapped phase sum 2 pi offset + 2 L k minus the
        wrapped one. A fractional part above 1e-6 means the eigensolver failed.
        """
        k = np.atleast_1d(np.asarray(k, dtype=float))
        if phase is None:
            phase, _ = self.phases(k)
        wrapped = np.mod(phase, 2.0 * math.pi).sum(axis=1)
        exact = self.total_length * k / math.pi + self.offset - wrapped / (2.0 * math.pi)
        count = np.rint(exact)
        if np.any(np.abs(exact - count) > 1e-6):
            raise SpectrumCountError("eigenphase count is not an integer; the eigensolver failed")
        return count.astype(int)


def secular_spectrum(g: MetricGraph, k_max: float) -> Spectrum:
    """All eigenfrequencies in [0, k_max] with multiplicities, any graph.

    The exact count N on a grid of step pi / (4 L) brackets the roots. Each
    round then probes every open bracket at x -+ ROOT_TOL, which cuts it into
    pieces. A piece over which N does not step is dropped. In the others, x
    becomes the Newton step on the eigenphases, from the probe at the
    piece's end, that lands nearest to it inside the piece (every fifth
    round, or with none inside, the midpoint). A piece at most 3 ROOT_TOL
    wide, too narrow to probe again, is a root at x whose multiplicity is
    the step of N: the listing is complete by construction.
    """
    if not 0.0 < k_max < math.inf:
        raise ValueError("k_max must be positive and finite")
    bonds = _Bonds(g)
    h = math.pi / (4.0 * bonds.total_length)
    grid = np.linspace(0.0, k_max, math.ceil(k_max / h) + 1)
    counts = np.concatenate(([0], bonds.count(grid[1:])))
    if np.any(np.diff(counts) < 0):
        raise SpectrumCountError(f"eigenvalue count of {g.name!r} decreases; eigensolver failed")
    roots = []
    # Open brackets: (a, N(a), b, N(b), next probe centre, round).
    open_ = [(grid[i], counts[i], grid[i + 1], counts[i + 1], 0.5 * (grid[i] + grid[i + 1]), 0)
             for i in np.nonzero(np.diff(counts))[0]]
    while open_:
        probes = [[p for p in (x - ROOT_TOL, x + ROOT_TOL) if a < p < b]
                  for a, _na, b, _nb, x, _rnd in open_]
        flat = np.array([p for pts in probes for p in pts])
        phase, slope = bonds.phases(flat, slopes=True)
        n_flat, targets = bonds.count(flat, phase), flat[:, None] - phase / slope
        nxt, row = [], 0
        for (a, na, b, nb, _x, rnd), pts in zip(open_, probes):
            ends = [a, *pts, b]
            ns = np.minimum(np.maximum.accumulate([na, *n_flat[row : row + len(pts)], nb]), nb)
            for j in np.nonzero(np.diff(ns))[0]:  # the pieces over which N steps
                lo, hi, narrow = ends[j], ends[j + 1], ends[j + 1] - ends[j] <= 3.0 * ROOT_TOL
                q = row + max(j - 1, 0)  # the probe at an end of this piece
                # A root at the probe may lie a rounding error outside the piece.
                t = targets[q][(targets[q] > lo - ROOT_TOL) & (targets[q] < hi + ROOT_TOL)]
                x = 0.5 * (lo + hi)
                if t.size and ((rnd + 1) % 5 or narrow):
                    x = min(max(float(t[np.argmin(np.abs(t - flat[q]))]), lo), hi)
                if narrow:
                    roots.append((x, int(ns[j + 1] - ns[j])))
                else:
                    nxt.append((lo, ns[j], hi, ns[j + 1], x, rnd + 1))
            row += len(pts)
        open_ = nxt
    values = [0.0] + sorted(k for k, m in roots for _ in range(m))
    return Spectrum(tuple(values), float(k_max), "secular", 1e-10)


# ---------------------------------------------------------------------------
# von Below lift for equilateral graphs


def _equilateral_length(g: MetricGraph) -> float:
    a = g.edges[0].length
    for e in g.edges:
        if abs(e.length - a) > 1e-12 * a:
            raise GraphError("von Below lift needs an equilateral graph")
    return a


def von_below_spectrum(g: MetricGraph, k_max: float) -> Spectrum:
    """Eigenfrequencies of an equilateral graph through the discrete spectrum.

    Loops must be subdivided away first (their halves become parallel edges,
    which are fine: the adjacency matrix just counts them). Each discrete
    eigenvalue mu in (-1, 1) of the degree-normalized adjacency lifts to
    k = (arccos mu + 2 pi n)/a and k = (-arccos mu + 2 pi (n+1))/a; the
    lattice points k = n pi / a take their multiplicities from the secular
    nullity, deferring the one genuinely convention-laden case to the method
    that needs no convention.
    """
    if k_max <= 0.0:
        raise ValueError("k_max must be positive")
    if any(e.u == e.v for e in g.edges):
        raise GraphError("subdivide loops before the von Below lift")
    a = _equilateral_length(g)

    n = len(g.vertices)
    index = {v: i for i, v in enumerate(g.vertices)}
    adjacency = np.zeros((n, n))
    for e in g.edges:
        i, j = index[e.u], index[e.v]
        adjacency[i, j] += 1.0
        adjacency[j, i] += 1.0
    degree = adjacency.sum(axis=1)
    scale = 1.0 / np.sqrt(degree)
    mu = np.linalg.eigvalsh(scale[:, None] * adjacency * scale[None, :])

    values = [0.0]
    interior = mu[(mu > -1.0 + 1e-9) & (mu < 1.0 - 1e-9)]
    for m in interior:
        phi = math.acos(float(m))
        n_branch = 0
        while True:
            k_up = (phi + 2.0 * math.pi * n_branch) / a
            k_down = (2.0 * math.pi * (n_branch + 1) - phi) / a
            if k_up > k_max and k_down > k_max:
                break
            if k_up <= k_max:
                values.append(k_up)
            if k_down <= k_max:
                values.append(k_down)
            n_branch += 1
    lattice = 1
    while lattice * math.pi / a <= k_max:
        k = lattice * math.pi / a
        values.extend([k] * _nullity(g, k))
        lattice += 1
    values.sort()
    return Spectrum(tuple(values), float(k_max), "von-below", 1e-10)


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


def spectrum_with_count(g: MetricGraph, count: int, method: str = "secular") -> Spectrum:
    """The first `count` eigenfrequencies by the chosen method.

    k_max is where the exact count first reaches `count`, to pi / (4 L), so
    at least count + 1 values are listed and k_max_covered falls between
    two; when the cut splits a cluster of equal values, below the cluster.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    bonds = _Bonds(g)
    # Dirichlet bracketing: N(k) >= L k / pi - N - 1, so N(hi) >= count.
    lo, hi = 0.0, (count + len(g.edges) + 1) * math.pi / bonds.total_length
    while hi - lo > math.pi / (4.0 * bonds.total_length):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if bonds.count(mid)[0] >= count else (mid, hi)
    s = {"secular": secular_spectrum, "von-below": von_below_spectrum}[method](g, hi)
    if len(s.values) <= count:
        raise SpectrumCountError(f"{s.method} listed {len(s.values)} values below k = {hi:.6g}, "
                                 f"the exact count gives at least {count + 1}")
    cut = s.values[count - 1]
    if s.values[count] - cut > s.tol:
        covered = 0.5 * (cut + s.values[count])
    else:
        covered = 0.5 * (cut + max(v for v in s.values if v < cut - s.tol))
    return Spectrum(s.values[:count], covered, s.method, s.tol)


# ---------------------------------------------------------------------------
# Validation and file format


def validate_spectrum(s: Spectrum, g: MetricGraph) -> ValidationReport:
    """Check a spectrum against a proved estimate and the exact count of g."""
    summary = summarize(g)
    messages: list[str] = []

    weyl_lower_ok = True
    for j, k in enumerate(s.values, start=1):
        lower = (j - summary.M) * math.pi / summary.total_length
        if k < lower - s.tol:
            weyl_lower_ok = False
            messages.append(f"k_{j} = {k:.12g} violates the bound (j - M) pi / L = {lower:.12g}")
            break

    zero_mode_ok = s.values[0] == 0.0 and (len(s.values) < 2 or s.values[1] > s.tol)
    if not zero_mode_ok:
        messages.append("zero eigenfrequency missing or not simple")

    # Values within tol of their true counterparts, listed completely up to
    # K, leave between N(K - tol) and N(K + tol) of them in (0, K]. N is 0
    # below pi / L, the lowest possible k_2.
    bonds = _Bonds(g)
    K = s.k_max_covered
    low, high = (int(bonds.count(k)[0]) if k >= math.pi / summary.total_length else 0
                 for k in (K - s.tol - ROOT_TOL, K + s.tol + ROOT_TOL))
    listed = sum(1 for k in s.values[1:] if k <= K)
    count_ok = low <= listed <= high
    if not count_ok:
        messages.append(f"{listed} eigenfrequencies listed in (0, {K:.12g}], "
                        f"the exact count gives {low} to {high}")
    return ValidationReport(weyl_lower_ok, zero_mode_ok, count_ok, tuple(messages))


def compare_spectra(a: Spectrum, b: Spectrum, count: int | None = None) -> float:
    """Max elementwise |k difference| over the first count shared values."""
    n = min(len(a.values), len(b.values))
    if count is not None:
        n = min(n, count)
    if n == 0:
        raise ValueError("no shared values to compare")
    av = np.array(a.values[:n])
    bv = np.array(b.values[:n])
    return float(np.max(np.abs(av - bv)))


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
