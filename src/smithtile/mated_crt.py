"""Mated-CRT maps with sphere topology from correlated lattice excursions.

An excursion is a pair of piecewise-linear paths (L, R) with n Gaussian
increment steps each, bridged to end at (0, 0) and conditioned to stay
nonnegative.  The sampler gets L's conditioning for free from the cycle
lemma (shift the bridge to start at its minimum) and rejects on R alone;
see sample_excursion.  Cells j = 1..n are the strips [(j-1)/n, j/n]; two
cells are adjacent when a horizontal segment fits under L (lower arc) or
over R (upper arc) between their strips, with consecutive cells always
joined by a single line edge.  The planar structure is the arc diagram:
vertices on a line, lower arcs below, upper arcs above, rotation given by
the tangent order of nested semicircles; the Euler check in the map
constructor fails loudly if that order is ever inconsistent.

The arcs of each path come from one sweep with a monotone stack of the left
cells that can still be joined, in O(n) plus the pairs it meets, instead of
an O(n^2) scan.  The rotations come from one lexsort of all darts.
tests/oracles.py keeps the loops these replaced as references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .map_core import CombMap, MapError
from .rng import make_rng

LINE, LOWER, UPPER = 0, 1, 2
# Place in the counterclockwise rotation of a dart, by [kind, dart & 1]:
# line-right, upper-right, upper-left, line-left, lower-left, lower-right.
_ROTATION_GROUP = np.array([[0, 3], [5, 4], [1, 2]])
# Most normals drawn at once by the sampler: 64 attempts (about 1 MB) at n = 1024.
BLOCK_NORMALS = 1 << 17


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


def excursion_from_increments(dl, dr) -> Excursion:
    dl = np.asarray(dl, dtype=np.float64)
    dr = np.asarray(dr, dtype=np.float64)
    if dl.shape != dr.shape or dl.ndim != 1 or len(dl) < 2:
        raise ValueError("increment arrays must be equal-length 1-d, n >= 2")
    lv = np.concatenate([[0.0], np.cumsum(dl)])
    rv = np.concatenate([[0.0], np.cumsum(dr)])
    exc = Excursion(len(dl), dl, dr, lv, rv)
    exc.check()
    return exc


def sample_excursion(gamma: float, n: int, seed: int,
                     max_attempts: int = 200_000) -> Excursion:
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
    draws few normals; the last block is cut at max_attempts.  Row i of a
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
    while done < max_attempts:
        b = min(block, max_attempts - done)
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
        f"no excursion in {max_attempts} attempts at n={n} "
        f"(acceptance rate below {1.0 / max_attempts:.2e}; lower n)")


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


def _arc_pairs(C: np.ndarray) -> np.ndarray:
    """All non-consecutive 1-based cell pairs (j1, j2) joined under C (same
    rule as _condition), as a (pairs, 2) array in lexicographic order.

    One sweep over the lattice points p = 1..n-1 keeps a stack of the live
    left cells: those whose minimum is at or below every lattice value from
    their own right end to p.  A cell dies once a value falls below its
    minimum and can never join a later cell, so the stack's minima never
    decrease upward.  At p, first pop the cells whose minimum exceeds C[p],
    then read off the pairs with j2 = p + 1, then push cell p (pushing first
    would bury the cells that C[p] kills).

    Each stack entry also carries the minimum of C over the lattice points
    from its cell's right end to the next entry's (for the top entry, to p),
    so the gap minimum of (j1, j2) is the running minimum walking down from
    the top.  A popped entry's values are at or above its own minimum, hence
    above C[p], which the new top takes in; so nothing is merged on a pop.
    The running minimum only falls, so the walk stops at the first gap below
    cell j2's minimum; the two pinch exclusions are applied unchanged on the
    way.  Cost: O(n) for the sweep, one step per pair met (the arcs and the
    pinches they exclude) and a sort of the arcs.
    """
    n = len(C) - 1
    c = C.tolist()
    cmin = [0.0] + np.minimum(C[:-1], C[1:]).tolist()
    cells, gaps = [], []                # the stack, bottom first
    pairs = []
    for p in range(1, n):
        x = c[p]
        while cells and cmin[cells[-1]] > x:
            cells.pop()
            gaps.pop()
        if gaps and x < gaps[-1]:
            gaps[-1] = x
        j2 = p + 1
        cm2 = cmin[j2]
        g = math.inf
        for k in range(len(cells) - 1, -1, -1):
            if gaps[k] < g:
                g = gaps[k]
            if g < cm2:
                break
            j1 = cells[k]
            cm1 = cmin[j1]
            if cm2 >= cm1 and cm2 == x == g:
                continue
            if cm1 >= cm2 and cm1 == c[j1] == g:
                continue
            pairs.append((j1, j2))
        cells.append(p)
        gaps.append(x)
    out = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return out[np.lexsort((out[:, 1], out[:, 0]))]


@dataclass
class MatedCrtMap:
    map: CombMap
    exc: Excursion
    kind: np.ndarray      # per edge: LINE, LOWER, UPPER

    @property
    def n(self) -> int:
        return self.exc.n


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
    low = _arc_pairs(exc.l) - 1
    up = _arc_pairs(exc.r) - 1
    line = np.arange(n - 1)
    tail = np.concatenate([line, low[:, 0], up[:, 0]])
    head = np.concatenate([line + 1, low[:, 1], up[:, 1]])
    kind = np.repeat(np.array([LINE, LOWER, UPPER], dtype=np.int8),
                     [n - 1, len(low), len(up)])
    # dart 2k sits at the tail of edge k and points right (tail < head),
    # dart 2k+1 at its head and points left
    at = np.stack([tail, head], axis=1).ravel()
    far = np.stack([head, tail], axis=1).ravel()
    dkind = np.repeat(kind, 2)
    group = _ROTATION_GROUP[dkind, np.arange(len(at)) & 1]
    order = np.lexsort((np.where(dkind == LOWER, -far, far), group, at))
    deg = np.bincount(at, minlength=n)
    start = np.cumsum(deg) - deg
    succ = np.arange(1, len(at) + 1)
    succ[start + deg - 1] = start       # each rotation closes on its first dart
    nxt = np.empty(len(at), dtype=np.int64)
    nxt[order] = order[succ]
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
