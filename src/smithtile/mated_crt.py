"""Mated-CRT maps with sphere topology from correlated lattice excursions.

An excursion is a pair of piecewise-linear paths (L, R) with n Gaussian
increment steps each, bridged to end at (0, 0) and conditioned to stay
nonnegative.  The sampler gets L's conditioning for free from the cycle
lemma (shift the bridge to start at its minimum) and rejects on R alone,
within MAX_ATTEMPTS attempts; see sample_excursion.  Cells j = 1..n are
the strips [(j-1)/n, j/n]; two cells are adjacent when a horizontal
segment fits under L (lower arc) or over R (upper arc) between their
strips, with consecutive cells always joined by a single line edge.
The planar structure is the arc diagram: vertices on a line, lower arcs
below, upper arcs above, rotation given by the tangent order of nested
semicircles; the Euler check in the map constructor fails loudly if that
order is ever inconsistent.

The arcs of each path come from its chains of weak records: from each left
cell, the lattice points that reach a new running minimum, up to the first
point below the cell's minimum.  Every chain advances at once, one array
step per record, over a next-point-at-or-below table found by binary
lifting on a sparse table of range minima; the cost is O(n log n) plus the
pairs met, instead of an O(n^2) scan.  The rotations come from one lexsort
of all darts.  tests/oracles.py keeps the loops these replaced as
references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .map_core import INDEX, CombMap, MapError, check_size, next_dart_from
from .rng import make_rng

LINE, LOWER, UPPER = 0, 1, 2
# Place in the counterclockwise rotation of a dart, by [kind, dart & 1]:
# line-right, upper-right, upper-left, line-left, lower-left, lower-right.
_ROTATION_GROUP = np.array([[0, 3], [5, 4], [1, 2]], dtype=np.int8)
# Most normals drawn at once by the sampler: 64 attempts (about 1 MB) at n = 1024.
BLOCK_NORMALS = 1 << 17
# Most attempts the sampler makes before it raises SampleError.
MAX_ATTEMPTS = 200_000


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

    def check(self) -> None:
        tol = 1e-12
        if abs(self.l[0]) > 0 or abs(self.r[0]) > 0:
            raise ValueError("excursion must start at the origin")
        if abs(self.l[-1]) > tol or abs(self.r[-1]) > tol:
            raise ValueError("excursion must return to the origin")
        if self.l.min() < -tol or self.r.min() < -tol:
            raise ValueError("excursion leaves the first quadrant")


def excursion_from_increments(dl, dr) -> Excursion:
    dl = np.asarray(dl, dtype=np.float64)
    dr = np.asarray(dr, dtype=np.float64)
    if dl.shape != dr.shape or dl.ndim != 1 or len(dl) < 2:
        raise ValueError("increment arrays must be equal-length 1-d, n >= 2")
    if not (np.all(np.isfinite(dl)) and np.all(np.isfinite(dr))):
        raise ValueError("increments must be finite")
    lv = np.concatenate([[0.0], np.cumsum(dl)])
    rv = np.concatenate([[0.0], np.cumsum(dr)])
    exc = Excursion(len(dl), dl, dr, lv, rv)
    exc.check()
    return exc


def sample_excursion(gamma: float, n: int, seed: int) -> Excursion:
    """Exact sampler for the correlated excursion: cycle lemma on L,
    rejection on R.

    The lattice walk has per-step covariance [[1, rho], [rho, 1]] / n with
    rho = -cos(pi gamma^2/4), bridged to return to (0, 0) and conditioned to
    stay >= 0.  Write R = rho L + sqrt(1 - rho^2) W with L and W independent
    Gaussian bridges.  One attempt draws z of shape (2, n), centres each row
    and scales it by 1/sqrt(n), which gives the increments of L and of W.
    Bridge increments are exchangeable, so by the cycle lemma (Vervaat 1979)
    exactly one cyclic shift of L, the one that starts at its first minimum
    k, stays nonnegative, and that shift has exactly the law of L
    conditioned to stay nonnegative.  L's lattice values become
    l[j] = L[(k + j) mod n] - L[k], which IEEE subtraction keeps >= 0 (it
    rounds monotonically), with l[0] = l[n] = 0 exactly, and dl = diff(l).
    W is independent of L, so the pair (shifted L, W) has the law of (L, W)
    given L >= 0; accepting iff R's lattice values stay >= 0 then gives
    exactly the law of (L, R) given both stay >= 0, which plain rejection of
    both paths gave.  R's last lattice value is set to 0.

    Only R is rejected, so ``attempts`` counts the (2, n) draws until R
    stayed nonnegative: about 1 / P(R >= 0 | L >= 0), a handful at gamma
    1.8 against about n times as many for plain rejection.  Attempts are
    drawn in blocks, each one (b, 2, n) array, doubling from one attempt up
    to about BLOCK_NORMALS normals, so an excursion found in a few attempts
    draws few normals; the last block is cut at MAX_ATTEMPTS.  Row i of a
    block is the draw that the (done + i + 1)-th single (2, n) draw would
    have made, and goes through the same float operations, so the result
    does not depend on the block sizes.
    """
    if not (0.0 < gamma < 2.0):
        raise ValueError("gamma must lie in (0, 2)")
    if n < 2:
        raise ValueError("need at least two cells")
    rho = -math.cos(math.pi * gamma * gamma / 4.0)
    root = math.sqrt(max(0.0, 1.0 - rho * rho))
    rng = make_rng(seed)
    scale = math.sqrt(n)
    cap = max(1, BLOCK_NORMALS // (2 * n))
    shift = np.arange(n + 1)
    block, done = 1, 0
    while done < MAX_ATTEMPTS:
        b = min(block, MAX_ATTEMPTS - done)
        block = min(2 * block, cap)
        z = rng.standard_normal((b, 2, n))
        zl = z[:, 0] / scale
        lv = np.zeros((b, n))
        np.cumsum((zl - zl.mean(axis=1, keepdims=True))[:, :-1], axis=1,
                  out=lv[:, 1:])
        k = lv.argmin(axis=1)
        rows = np.arange(b)[:, None]
        l = lv[rows, (k[:, None] + shift) % n] - lv[rows, k[:, None]]
        dl = np.diff(l, axis=1)
        zw = z[:, 1] / scale
        dr = rho * dl + root * (zw - zw.mean(axis=1, keepdims=True))
        rv = np.cumsum(dr, axis=1)
        # the last lattice value is set to 0, so only the first n-1 count
        hit = np.flatnonzero(rv[:, :-1].min(axis=1) >= 0.0)
        if len(hit):
            i = hit[0]
            return Excursion(n, dl[i].copy(), dr[i].copy(), l[i].copy(),
                             _lattice(rv[i]), done + int(i) + 1)
        done += b
    raise SampleError(
        f"no excursion in {MAX_ATTEMPTS} attempts at n={n} "
        f"(acceptance rate below {1.0 / MAX_ATTEMPTS:.2e}; lower n)")


def _lattice(partial: np.ndarray) -> np.ndarray:
    """Lattice values 0, partial sums..., with the last one set to 0."""
    out = np.concatenate([[0.0], partial])
    out[-1] = 0.0
    return out


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


def _next_at_or_below(C: np.ndarray) -> np.ndarray:
    """For each lattice point q = 0..n, the first p > q with C[p] <= C[q],
    or n + 1 if there is none.

    A sparse table holds min C over the blocks [i, i + 2^k) for k < K, where
    2^K > n, with C extended by -inf at n + 1 (so a block reaching past n
    holds -inf and is never skipped).  Binary lifting then moves every
    search at once, largest block first, past each block whose minimum lies
    above the search's value: K vectorized rounds."""
    n = len(C) - 1
    K = max(1, n.bit_length())
    table = [np.append(C, -np.inf)]
    for k in range(1, K):
        a, h = table[-1], 1 << (k - 1)
        table.append(np.append(np.minimum(a[:-h], a[h:]), np.full(h, -np.inf)))
    pos = np.arange(1, n + 2)
    for k in range(K - 1, -1, -1):
        pos += (table[k][pos] > C) << k
    return pos


def _arc_pairs(C: np.ndarray) -> np.ndarray:
    """All non-consecutive 1-based cell pairs (j1, j2) joined under C (same
    rule as _condition), as a (pairs, 2) array in lexicographic order.

    For a left cell j1, let R be the first lattice point below cmin[j1]
    (n + 1 if none): the gap minimum of (j1, j2) stays at or above cmin[j1]
    exactly while j2 <= R.  Walk the chain of weak records of C from j1,
    q -> nse(q), the first later point at or below C[q]; it ends at R.  The
    gap minimum of (j1, j2) is C at the last record before j2, and a cell
    j2 can have cmin[j2] at or below it only if j2 - 1 or j2 is a record.
    So each record q < R gives the candidates j2 = q + 1 (for q > j1) and
    j2 = nse(q) (when that is not q + 1), both with gap C[q]; every other
    j2 fails the max-min test.  The candidates then meet _condition's
    max-min test and both pinch exclusions unchanged.

    nse comes from _next_at_or_below, and all chains advance together, one
    round per record.  Each record after the first gives a candidate j2 =
    q + 1 that passes the max-min test, so the work is O(n log n) for the
    table plus one step per pair met (the arcs and the pinches they
    exclude).  A chain emits its candidates in increasing j2, so a stable
    sort by j1 puts the pairs in lexicographic order.
    """
    n = len(C) - 1
    nse = _next_at_or_below(C)
    Cx = np.append(C, -np.inf)
    cmin = np.concatenate([[np.inf], np.minimum(C[:-1], C[1:])])
    j1 = np.arange(1, n - 1)
    lo, q = cmin[j1], j1
    left, right, gap = [j1[:0]], [j1[:0]], [C[:0]]
    while len(q):
        nq, g = nse[q], C[q]
        b = (q > j1) & (q < n)
        a = (nq > q + 1) & (nq <= n)
        left += [j1[b], j1[a]]
        right += [q[b] + 1, nq[a]]
        gap += [g[b], g[a]]
        go = Cx[nq] >= lo           # nq < R
        j1, lo, q = j1[go], lo[go], nq[go]
    j1, j2, g = map(np.concatenate, (left, right, gap))
    cm1, cm2, c1, c2 = cmin[j1], cmin[j2], C[j1], C[j2 - 1]
    keep = ((np.maximum(cm1, cm2) <= g)
            & ~((cm2 >= cm1) & (cm2 == c2) & (c2 == g))
            & ~((cm1 >= cm2) & (cm1 == c1) & (c1 == g)))
    j1, j2 = j1[keep], j2[keep]
    order = np.argsort(j1, kind="stable")
    return np.stack([j1[order], j2[order]], axis=1)


@dataclass
class MatedCrtMap:
    map: CombMap
    exc: Excursion
    kind: np.ndarray      # per edge: LINE, LOWER, UPPER

    @property
    def n(self) -> int:
        return self.exc.n


def _arc_edges(exc: Excursion) -> tuple:
    """(tail, head, kind) of the edges of ``build_map``: the 1-based cells
    of each kind's ends, cast once to INDEX, then moved to the 0-based
    vertices in place."""
    n = exc.n
    check_size(2 * (n - 1), n)
    low = _arc_pairs(exc.l)
    up = _arc_pairs(exc.r)
    kind = np.repeat(np.array([LINE, LOWER, UPPER], dtype=np.int8),
                     [n - 1, len(low), len(up)])
    cells = np.arange(1, n, dtype=INDEX)
    tail = np.concatenate([cells, low[:, 0], up[:, 0]], dtype=INDEX)
    head = np.concatenate([cells + 1, low[:, 1], up[:, 1]], dtype=INDEX)
    tail -= 1
    head -= 1
    return tail, head, kind


def _arc_rotations(n: int, tail, head, kind) -> np.ndarray:
    """The next_dart of ``build_map``'s rotations, from one lexsort of the
    darts by (vertex, group, far endpoint)."""
    # dart 2k sits at the tail of edge k and points right (tail < head),
    # dart 2k+1 at its head and points left
    at = np.stack([tail, head], axis=1).ravel()
    far = np.stack([head, tail], axis=1).ravel()
    group = _ROTATION_GROUP[kind].ravel()
    order = np.lexsort((np.where(np.repeat(kind, 2) == LOWER, -far, far), group, at))
    return next_dart_from(order.astype(INDEX), np.bincount(at, minlength=n), len(at))


def build_map(exc: Excursion) -> MatedCrtMap:
    """Assemble the arc-diagram planar map of an excursion.

    Vertex i (0-based) is cell i+1.  Edges: line edges between consecutive
    cells, a lower arc per L-adjacent non-consecutive pair, an upper arc per
    R-adjacent pair, in that order and each kind in lexicographic order;
    unit conductances.  Rotation at each vertex, counterclockwise from the
    rightward line edge: upper-right arcs by increasing far endpoint,
    upper-left arcs by increasing far endpoint, leftward line edge,
    lower-left arcs by decreasing far endpoint, lower-right arcs by
    decreasing far endpoint (tangent order of nested semicircles).  One
    lexsort of the darts by (vertex, group, far endpoint) gives every
    rotation at once.  The Euler check rejects any inconsistency.
    """
    exc.check()
    n = exc.n
    tail, head, kind = _arc_edges(exc)
    nxt = _arc_rotations(n, tail, head, kind)
    try:
        m = CombMap(n, tail, head, np.ones(len(tail)), nxt)
    except MapError as err:
        raise MapError(f"arc-diagram rotation inconsistent: {err}") from err
    return MatedCrtMap(m, exc, kind)


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
    return MatedCrtMap(mm.map.with_marks(v0, v1), mm.exc, mm.kind)


# -- structural reports --------------------------------------------------------

def face_degree_histogram(m: CombMap) -> np.ndarray:
    """Face degree -> count, as a bincount array.  Reported, not asserted:
    the ends of the sequence can produce non-triangular faces."""
    return np.bincount(np.diff(m.face_ptr))
