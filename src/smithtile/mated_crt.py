"""Mated-CRT maps with sphere topology from correlated lattice excursions.

An excursion is a pair of piecewise-linear paths (L, R) with n Gaussian
increment steps each, bridged to end at (0, 0) and conditioned (by rejection)
to stay nonnegative.  Cells j = 1..n are the strips [(j-1)/n, j/n]; two cells
are adjacent when a horizontal segment fits under L (lower arc) or over R
(upper arc) between their strips, with consecutive cells always joined by a
single line edge.  The planar structure is the arc diagram: vertices on a
line, lower arcs below, upper arcs above, rotation given by the tangent order
of nested semicircles; the Euler check in the map constructor fails loudly if
that order is ever inconsistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .map_core import CombMap, MapError, build_map as assemble_map
from .rng import make_rng

LINE, LOWER, UPPER = 0, 1, 2


class SampleError(RuntimeError):
    """Rejection sampling exhausted its attempt budget."""


@dataclass
class Excursion:
    n: int
    dl: np.ndarray      # increments of L, length n
    dr: np.ndarray
    l: np.ndarray       # lattice values, length n+1, l[0] = l[n] = 0
    r: np.ndarray
    attempts: int = 1

    def check(self, tol: float = 1e-12) -> None:
        if abs(self.l[0]) > 0 or abs(self.r[0]) > 0:
            raise ValueError("excursion must start at the origin")
        if abs(self.l[-1]) > tol or abs(self.r[-1]) > tol:
            raise ValueError("excursion must return to the origin")
        if self.l.min() < -tol or self.r.min() < -tol:
            raise ValueError("excursion leaves the first quadrant")


def excursion_from_increments(dl, dr, attempts: int = 1) -> Excursion:
    dl = np.asarray(dl, dtype=np.float64)
    dr = np.asarray(dr, dtype=np.float64)
    if dl.shape != dr.shape or dl.ndim != 1 or len(dl) < 2:
        raise ValueError("increment arrays must be equal-length 1-d, n >= 2")
    lv = np.concatenate([[0.0], np.cumsum(dl)])
    rv = np.concatenate([[0.0], np.cumsum(dr)])
    exc = Excursion(len(dl), dl, dr, lv, rv, attempts)
    exc.check()
    return exc


def sample_excursion(gamma: float, n: int, seed: int,
                     max_attempts: int = 200_000) -> Excursion:
    """Bridge-plus-rejection sampler for the correlated excursion.

    Per-step covariance [[1, rho], [rho, 1]] / n with rho = -cos(pi gamma^2/4);
    the bridge transform subtracts the mean increment, and a draw is accepted
    iff both coordinates stay >= 0.  Unbiased for the positivity conditioning.
    """
    if not (0.0 < gamma < 2.0):
        raise ValueError("gamma must lie in (0, 2)")
    if n < 2:
        raise ValueError("need at least two cells")
    rho = -math.cos(math.pi * gamma * gamma / 4.0)
    root = math.sqrt(max(0.0, 1.0 - rho * rho))
    rng = make_rng(seed)
    for attempt in range(1, max_attempts + 1):
        z = rng.standard_normal((2, n)) / math.sqrt(n)
        dl = z[0]
        dr = rho * z[0] + root * z[1]
        dl = dl - dl.mean()
        dr = dr - dr.mean()
        lv = np.concatenate([[0.0], np.cumsum(dl)])
        rv = np.concatenate([[0.0], np.cumsum(dr)])
        lv[-1] = 0.0
        rv[-1] = 0.0
        if lv.min() >= 0.0 and rv.min() >= 0.0:
            return Excursion(n, dl, dr, lv, rv, attempt)
    raise SampleError(
        f"no excursion in {max_attempts} attempts at n={n} "
        f"(acceptance rate below {1.0 / max_attempts:.2e}; lower n)")


# -- adjacency ---------------------------------------------------------------

def _condition(C: np.ndarray, j1: int, j2: int) -> bool:
    """Adjacency test for 1-based cells j1 < j2 on lattice values C.

    The gap between the cells is the union of the intermediate cells, so
    consecutive cells (empty gap) are always adjacent.  Both cell minima must
    sit at or below the gap minimum; a chord may graze the path only at its
    own attachment, so the configuration where the binding cell minimum lies
    on the shared boundary point and ties the gap minimum is excluded (both
    sides of such a pinch would otherwise be accepted, and the two chords
    through one path point must cross)."""
    if j2 == j1 + 1:
        return True
    cm1 = min(C[j1 - 1], C[j1])
    cm2 = min(C[j2 - 1], C[j2])
    gap = C[j1:j2].min()    # lattice points j1 .. j2-1
    if max(cm1, cm2) > gap:
        return False
    if cm2 >= cm1 and cm2 == C[j2 - 1] == gap:
        return False
    if cm1 >= cm2 and cm1 == C[j1] == gap:
        return False
    return True


def adjacency_oracle(exc: Excursion, x1: int, x2: int) -> tuple:
    """Direct evaluation of both adjacency inequalities for vertices x1, x2
    (0-based cell indices).  Symmetric in argument order."""
    if x1 == x2:
        raise ValueError("adjacency needs two distinct vertices")
    j1, j2 = sorted((int(x1) + 1, int(x2) + 1))
    return _condition(exc.l, j1, j2), _condition(exc.r, j1, j2)


def _arc_pairs(C: np.ndarray) -> list:
    """All non-consecutive 1-based cell pairs joined under C (same rule as
    _condition), by a scan with running gap minima; the inner loop breaks once
    the gap falls below the left cell's minimum (it can only keep falling)."""
    n = len(C) - 1
    cmin = [0.0] + [min(C[j - 1], C[j]) for j in range(1, n + 1)]
    pairs = []
    for j1 in range(1, n + 1):
        cm1 = cmin[j1]
        g = math.inf
        for j2 in range(j1 + 1, n + 1):
            g = min(g, C[j2 - 1])
            if g < cm1:
                break
            if j2 == j1 + 1:
                continue    # consecutive cells carry a line edge, not an arc
            cm2 = cmin[j2]
            if max(cm1, cm2) > g:
                continue
            if cm2 >= cm1 and cm2 == C[j2 - 1] == g:
                continue
            if cm1 >= cm2 and cm1 == C[j1] == g:
                continue
            pairs.append((j1, j2))
    return pairs


@dataclass
class MatedCrtMap:
    map: CombMap
    exc: Excursion
    kind: np.ndarray      # per edge: LINE, LOWER, UPPER

    @property
    def n(self) -> int:
        return self.exc.n

    def x_value(self, vertex: int) -> float:
        return (vertex + 1) / self.exc.n


def build_map(exc: Excursion) -> MatedCrtMap:
    """Assemble the arc-diagram planar map of an excursion.

    Vertex i (0-based) is cell i+1.  Edges: line edges between consecutive
    cells, a lower arc per L-adjacent non-consecutive pair, an upper arc per
    R-adjacent pair; unit conductances.  Rotation at each vertex,
    counterclockwise from the rightward line edge: upper-right arcs by
    increasing far endpoint, upper-left arcs by increasing far endpoint,
    leftward line edge, lower-left arcs by decreasing far endpoint,
    lower-right arcs by decreasing far endpoint (tangent order of nested
    semicircles).  The Euler check rejects any inconsistency.
    """
    exc.check()
    n = exc.n
    edges = []
    kind = []
    lower_at = [[] for _ in range(n)]   # (far_vertex, edge_index)
    upper_at = [[] for _ in range(n)]
    for j in range(1, n):
        edges.append((j - 1, j, 1.0))
        kind.append(LINE)
    for (j1, j2) in _arc_pairs(exc.l):
        k = len(edges)
        edges.append((j1 - 1, j2 - 1, 1.0))
        kind.append(LOWER)
        lower_at[j1 - 1].append((j2 - 1, k))
        lower_at[j2 - 1].append((j1 - 1, k))
    for (j1, j2) in _arc_pairs(exc.r):
        k = len(edges)
        edges.append((j1 - 1, j2 - 1, 1.0))
        kind.append(UPPER)
        upper_at[j1 - 1].append((j2 - 1, k))
        upper_at[j2 - 1].append((j1 - 1, k))

    rotation = []
    for i in range(n):
        cyc = []
        if i < n - 1:
            cyc.append(2 * i)                 # line edge i -> i+1, tail side
        for far, k in sorted(p for p in upper_at[i] if p[0] > i):
            cyc.append(2 * k)                 # i is the tail of the arc
        for far, k in sorted(p for p in upper_at[i] if p[0] < i):
            cyc.append(2 * k + 1)
        if i > 0:
            cyc.append(2 * (i - 1) + 1)       # line edge i-1 -> i, head side
        for far, k in sorted((p for p in lower_at[i] if p[0] < i), reverse=True):
            cyc.append(2 * k + 1)
        for far, k in sorted((p for p in lower_at[i] if p[0] > i), reverse=True):
            cyc.append(2 * k)
        rotation.append(cyc)

    try:
        m = assemble_map(n, edges, rotation)
    except MapError as err:
        raise MapError(f"arc-diagram rotation inconsistent: {err}") from err
    return MatedCrtMap(m, exc, np.array(kind, dtype=np.int8))


def mark_vertices(mm: MatedCrtMap, policy: str = "uniform-pair",
                  seed: int = 0) -> MatedCrtMap:
    """Pick the two marked vertices; returns a new map with (v0, v1) set."""
    n = mm.n
    if n < 2:
        raise ValueError("need at least two vertices to mark")
    if policy == "uniform-pair":
        rng = make_rng(seed)
        v0 = int(rng.integers(n))
        v1 = int(rng.integers(n - 1))
        if v1 >= v0:
            v1 += 1
    elif policy == "first-last":
        v0, v1 = 0, n - 1
    else:
        raise ValueError(f"unknown marking policy {policy!r}")
    base = mm.map
    marked = CombMap(base.num_vertices, base.edge_tail, base.edge_head,
                     base.conductance, base.next_dart, v0=v0, v1=v1)
    return MatedCrtMap(marked, mm.exc, mm.kind)


# -- structural reports --------------------------------------------------------

def face_degree_histogram(m: CombMap) -> np.ndarray:
    """Face degree -> count, as a bincount array.  Reported, not asserted:
    the ends of the sequence can produce non-triangular faces."""
    return np.bincount(np.diff(m.face_ptr))
