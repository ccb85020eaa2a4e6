"""Half-edge planar maps with conductances, cylinder embeddings, duals, refinement.

A map is stored as a rotation system: edge k owns darts 2k (tail -> head) and
2k + 1 (head -> tail), twin(h) = h ^ 1, and ``next_dart[h]`` is the next dart
counterclockwise around tail(h).  Faces are the orbits of h -> next_dart[h ^ 1];
the face of an orbit lies to the RIGHT of each of its darts (bounded faces are
traversed clockwise).  Each fact is stored once: ``edge_tail`` and
``edge_head`` are views of the even and odd entries of ``dart_tail``.  A map
drawn on the cylinder carries two marked vertices pinned to the two ends at
infinity; those vertices have no finite coordinates and every edge touching
them has horizontal displacement zero.

Both cycle systems are stored CSR-style, as one dart array and one offset
array: the rotation at vertex v is ``vert_dart[vert_ptr[v]:vert_ptr[v + 1]]``
and face f is ``face_dart[face_ptr[f]:face_ptr[f + 1]]``, with ``face_of``
naming the face right of each dart.  Every cycle starts at its smallest dart
and follows the permutation from there; faces are numbered in the order of
their smallest darts.  The cycles are found by pointer doubling over the
whole permutation at once (``_cycles``), the faces on first read.
``vertex_darts`` and ``face_darts`` are the same cycles as lists of arrays,
built on first use; a map marked anew (``with_marks``) shares what of these
is found with the map it marks.

Every index array of a map (vertex, edge, dart and face ids, and the CSR
offsets) is int32, and so is every array the builders assemble them from:
a map has fewer than 2^31 darts and vertices, else MapError, so each id and
each offset fits.  A product or sum of index values that can pass 2^31,
such as a row id times a column count in a sparse key, is formed in int64.
numpy gathers through intp (int64) indices on a fast path that int32 ones
miss, so an array that a loop indexes with round after round (the pointers
of ``_cycles`` and ``components``, the face orbits of ``_face_mean_lifts``,
the face slots of ``_dual_map``) is a transient intp array; what a map
keeps stays int32.

The dual takes its rotations from the primal's faces, with no cycle search
and no topology check, since the dual of a connected sphere map is one too:
its vertices are the primal faces and its faces the primal vertices
(Brooks, Smith, Stone and Tutte, 1940).  Dual dart h keeps its id and runs
from the face right of primal dart h to the face left of it, and its next
dart is next^-1(h) ^ 1, by the inverse of ``next_dart`` that only duals
build.  So each dual rotation is a primal face read backward from its
smallest dart.  Only the check that every reciprocal conductance is
positive and finite runs again.

``bfs_tree`` is the breadth-first search of a FIFO queue that pops a vertex
and scans its darts in rotation order, taking each dart to an unseen vertex
into the tree.  That queue is scipy's compiled traversal
(``csgraph.breadth_first_order``) on the adjacency whose rows list the
heads of the rotations slot by slot: it pops vertices first in, first out
and scans each row in column order.  It returns the visiting order and
each vertex's parent.  The tree dart of a vertex is then the first dart in
its parent's rotation that reaches it, picked for all vertices in one pass
over the darts.  The fronts, the vertices of each depth in queue order, are
slices of the visiting order: since the queue pops the parents in order,
a front ends just before the first vertex whose parent lies past the end
of the front before.  ``bfs_tree`` returns the fronts because the sums
along the tree (the conjugate's) run one depth at a time: each vertex of a
front adds its tree dart's term to its parent's value, which the front
before has fixed.

Per-cycle sums run in the order a loop over each cycle would run them:
``by_position`` visits the darts position by position, over the cycles
sorted by length so that the cycles still open at position j are a prefix,
and ``segment_sums`` adds each segment as ``np.sum`` adds it alone.  Results
are therefore bit-identical to the cycle-by-cycle loops.

Refinement (``insert_vertices``) splits edge k at fractions t_1 < ... < t_j
of its tail -> head length into a chain of sub-edges, the one from t_i to
t_(i+1) with conductance c_k / (t_(i+1) - t_i).  By the series law every
voltage on the original vertices stays the same.  The sub-edges keep the
edge's orientation and are numbered in edge order, then along the chain, so
``edge_origin`` is nondecreasing; the inserted vertices follow the original
ones in (edge, fraction) order, whatever the order of the points.  The
rotations are the original's, with no search or check (a split edge keeps a
sphere map one): dart 2k, now the first sub-edge's, and 2k + 1, the last's,
keep their slots, and an inserted vertex holds the darts back and forward
along its chain.  An inserted vertex takes the angle and height of the
straight line along its edge.  A mark's side lies one unit beyond the
largest finite |height| hmax: v0's at -(hmax + 1), v1's at hmax + 1,
whichever way the edge runs.  On an edge with one marked end
the vertex sits at the finite end's angle, on the line from that end's
height to the mark's side; on an edge joining the two marks it sits at
angle 0, on the line between their sides.  Sub-edges of an edge at a mark
carry displacement zero.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

TWO_PI = 2.0 * math.pi
# dtype of every index array of a map, and the bound its counts stay below
INDEX = np.int32
INDEX_LIMIT = 2**31


class MapError(ValueError):
    """Structural contract violation in map data."""


def mod_array(x, period: float) -> np.ndarray:
    """Elementwise ``smith_tiling.reduce_mod``: reduce to [0, period);
    ``np.fmod`` is exact, like ``math.fmod``."""
    r = np.fmod(x, period)
    r = np.where(r < 0, r + period, r)
    return np.where(r >= period, 0.0, r)


def wrap_signed_array(x) -> np.ndarray:
    """Reduce an angle to (-pi, pi]; ``np.fmod`` is exact."""
    r = np.fmod(x, TWO_PI)
    return np.where(r <= -math.pi, r + TWO_PI, np.where(r > math.pi, r - TWO_PI, r))


def by_position(lens):
    """Yield (j, seg) for j = 0, 1, ...: the indices of the segments longer
    than j, longest first.  Each ``seg`` is a prefix of one order, so a loop
    over j touches every position of every segment once."""
    lens = np.asarray(lens)
    order = np.argsort(-lens, kind="stable")
    longer = np.searchsorted(-lens[order], -np.arange(lens.max(initial=0)), side="left")
    for j, n in enumerate(longer.tolist()):
        yield j, order[:n]


def segment_sums(values, ptr) -> np.ndarray:
    """Sum of ``values[ptr[i]:ptr[i + 1]]`` for each i, each added as
    ``np.sum`` adds it alone (numpy's pairwise order): segments of one
    length are rows of one matrix, summed along the rows."""
    lens = np.diff(ptr)
    out = np.zeros(len(lens))
    for n in np.unique(lens[lens > 0]).tolist():
        seg = np.flatnonzero(lens == n)
        out[seg] = values[ptr[seg, None] + np.arange(n)].sum(axis=1)
    return out


def check_size(num_darts: int, num_vertices: int) -> None:
    """MapError unless a map of this many darts and vertices fits INDEX."""
    if num_darts >= INDEX_LIMIT or num_vertices >= INDEX_LIMIT:
        raise MapError(f"map too large: {num_darts} darts and {num_vertices} "
                       "vertices, need fewer than 2**31 of each")


def _indices(a, error) -> np.ndarray:
    """a as an INDEX array, a itself if it is one; MapError(error) if a
    value does not fit."""
    a = np.asarray(a)
    if a.dtype == INDEX:
        return a
    out = a.astype(INDEX)
    if not np.array_equal(out, a):
        raise MapError(error)
    return out


def _owned(a, given) -> np.ndarray:
    """a, or a copy if it is the caller's writable ``given`` itself."""
    return a.copy() if a is given and a.flags.writeable else a


def _offsets(counts) -> np.ndarray:
    """The INDEX offsets 0, c0, c0 + c1, ... of consecutive runs of the
    given lengths."""
    ptr = np.zeros(len(counts) + 1, dtype=INDEX)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def _twins(a) -> np.ndarray:
    """a[h ^ 1] for every dart h, read pairwise with no index array."""
    return a.reshape(-1, 2)[:, ::-1].ravel()


def _layout(owner, size, steps) -> tuple:
    """(ptr, darts) of cycles stored CSR-style: dart h, steps[h] steps from
    its root (``_cycles``), lies that many slots before it in cycle owner[h]."""
    ptr, d = _offsets(size), size[owner]
    darts = np.empty(len(owner), dtype=INDEX)
    darts[ptr[owner] + (d - steps) % d] = np.arange(len(owner), dtype=INDEX)
    return ptr, darts


def _cycles(perm):
    """(root, steps) of each element of a permutation: the smallest element
    of its cycle and the number of steps from it forward to that root.

    Pointer doubling: after round k, root[h] is the smallest element among
    the 2^k starting at h.  A round that changes nothing means every window
    already holds its cycle's minimum."""
    root = np.arange(len(perm), dtype=INDEX)
    steps = np.zeros(len(perm), dtype=INDEX)
    jump, stride = perm.astype(np.intp), 1
    while True:
        ahead = root[jump]
        better = ahead < root
        if not better.any():
            return root, steps
        root = np.where(better, ahead, root)
        steps = np.where(better, steps[jump] + stride, steps)
        jump, stride = jump[jump], 2 * stride


def components(num_vertices, tail, head) -> np.ndarray:
    """The smallest vertex of each vertex's connected component in the graph
    of the edges tail[k] -- head[k].

    Hooking and pointer jumping: each root hooks under the smallest root it
    shares an edge with, then every vertex jumps to its root; each component
    ends as one star whose root is its smallest vertex."""
    root = np.arange(num_vertices)
    tail, head = tail.astype(np.intp), head.astype(np.intp)
    while True:
        a, b = root[tail], root[head]
        cross = a != b
        if not cross.any():
            return root
        np.minimum.at(root, np.maximum(a, b)[cross], np.minimum(a, b)[cross])
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up


class CombMap:
    """Connected planar map of sphere topology given by a rotation system.

    ``CombMap(...)`` searches both cycle systems and checks that they make a
    connected sphere map; ``dual`` and ``insert_vertices`` derive rotations
    from their parent's (``_from_cycles``) and do neither.  Faces are found
    on first read.  A map owns what it freezes: it copies a writable
    ``next_dart`` or ``conductance`` of its caller's, and shares a read-only one.

    Parameters
    ----------
    num_vertices : int
    edge_tail, edge_head : arrays of vertex indices, one per edge
    conductance : positive weights, one per edge
    next_dart : permutation of darts; next_dart[h] is CCW-next around tail(h)
    v0, v1 : marked vertices (bottom and top end of the cylinder), or None
    """

    def __init__(self, num_vertices, edge_tail, edge_head, conductance,
                 next_dart, v0=None, v1=None):
        self.num_vertices = int(num_vertices)
        E = len(edge_tail)
        check_size(2 * E, self.num_vertices)
        self.conductance = _owned(np.asarray(conductance, dtype=np.float64), conductance)
        self.next_dart = _owned(_indices(next_dart, "next_dart is not a permutation of the darts"),
                                next_dart)
        self.v0 = None if v0 is None else int(v0)
        self.v1 = None if v1 is None else int(v1)

        self.num_edges = E
        self.num_darts = 2 * E
        # dart_tail[2k] = edge_tail[k], dart_tail[2k+1] = edge_head[k], as views
        self.dart_tail = np.empty(2 * E, dtype=INDEX)
        self.dart_tail[0::2] = _indices(edge_tail, "edge tail out of range")
        self.dart_tail[1::2] = _indices(edge_head, "edge head out of range")
        self.edge_tail, self.edge_head = self.dart_tail[0::2], self.dart_tail[1::2]
        self.dart_head = _twins(self.dart_tail)

        self._check_structure()

        self._build_rotations()
        self._check_topology()
        self._freeze()

    # the index arrays of a map, all INDEX; they and the conductances are
    # read-only once it is built, the face arrays (last) once they are found
    INDEX_ARRAYS = ("edge_tail", "edge_head", "next_dart", "dart_tail", "dart_head",
                    "vert_ptr", "vert_dart", "face_of", "face_ptr", "face_dart")
    ARRAYS = ("conductance",) + INDEX_ARRAYS

    def _freeze(self):
        for name in self.ARRAYS[:-3]:
            getattr(self, name).flags.writeable = False

    @classmethod
    def _from_cycles(cls, num_vertices, conductance, next_dart, dart_tail,
                     vert_ptr, vert_dart, v0=None, v1=None):
        """A map from rotations already known to be those of a sphere map
        (see ``dual`` and ``insert_vertices``): no cycle search, and no check
        but the conductances'."""
        m = cls.__new__(cls)
        m.num_vertices = int(num_vertices)
        m.num_edges = len(conductance)
        m.num_darts = 2 * m.num_edges
        m.v0, m.v1 = v0, v1
        m.edge_tail, m.edge_head = dart_tail[0::2], dart_tail[1::2]
        m.conductance, m.next_dart = conductance, next_dart
        m.dart_tail, m.dart_head = dart_tail, _twins(dart_tail)
        m.vert_ptr, m.vert_dart = vert_ptr, vert_dart
        m._check_conductance()
        m._freeze()
        return m

    def with_marks(self, v0, v1) -> CombMap:
        """The same map marked at (v0, v1).  It shares this map's read-only
        arrays and whatever it has found of its faces, its rotation, face and
        step lists and ``pi_weight``; only ``marked`` is its own."""
        m = copy.copy(self)
        m.v0 = None if v0 is None else int(v0)
        m.v1 = None if v1 is None else int(v1)
        m.__dict__.pop("marked", None)
        m._check_marks()
        return m

    # -- construction checks ------------------------------------------------

    def _check_structure(self):
        E = self.num_edges
        if E == 0:
            raise MapError("map must have at least one edge")
        for arr, name in ((self.edge_tail, "tail"), (self.edge_head, "head")):
            if arr.min(initial=0) < 0 or arr.max(initial=-1) >= self.num_vertices:
                raise MapError(f"edge {name} out of range")
        self._check_conductance()
        nd = self.next_dart
        if (len(nd) != 2 * E or nd.min() < 0 or nd.max() >= 2 * E
                or np.any(np.bincount(nd, minlength=2 * E) != 1)):
            raise MapError("next_dart is not a permutation of the darts")
        if np.any(self.dart_tail[nd] != self.dart_tail):
            raise MapError("rotation moves a dart to a different vertex")
        self._check_marks()

    def _check_conductance(self):
        if np.any(self.conductance <= 0) or not np.all(np.isfinite(self.conductance)):
            raise MapError("conductances must be positive and finite")

    def _check_marks(self):
        if self.v0 is not None and self.v1 is not None and self.v0 == self.v1:
            raise MapError("marked vertices must be distinct")
        for v in (self.v0, self.v1):
            if v is not None and not (0 <= v < self.num_vertices):
                raise MapError("marked vertex out of range")

    def _build_rotations(self):
        """Rotation cycle at each vertex, starting from its smallest dart."""
        tail = self.dart_tail
        deg = np.bincount(tail, minlength=self.num_vertices).astype(INDEX)
        root, steps = _cycles(self.next_dart)
        # the rotation keeps each dart at its tail, so each cycle lies at one
        # vertex; count the cycles (their roots) at each vertex
        cycles = np.bincount(tail[root == np.arange(len(tail), dtype=INDEX)], minlength=len(deg))
        bad = np.flatnonzero(cycles != 1)
        if len(bad):
            v = int(bad[0])
            if deg[v] == 0:
                raise MapError(f"vertex {v} has no incident dart")
            raise MapError(f"rotation at vertex {v} is not a single cycle")
        self.vert_ptr, self.vert_dart = _layout(tail, deg, steps)

    @cached_property
    def _faces(self) -> tuple:
        """(face_of, face_ptr, face_dart), read-only: the orbits of
        h -> next_dart[twin(h)], each the face right of its darts."""
        root, steps = _cycles(_twins(self.next_dart))
        roots = root == np.arange(self.num_darts, dtype=INDEX)
        number = np.cumsum(roots, dtype=INDEX) - 1     # the rank of each root
        face_of = number[root]
        faces = (face_of,) + _layout(face_of, np.bincount(face_of).astype(INDEX), steps)
        for a in faces:
            a.flags.writeable = False
        return faces

    face_of = property(lambda self: self._faces[0])
    face_ptr = property(lambda self: self._faces[1])
    face_dart = property(lambda self: self._faces[2])
    num_faces = property(lambda self: len(self._faces[1]) - 1)

    def _check_topology(self):
        if components(self.num_vertices, self.edge_tail, self.edge_head).any():
            raise MapError("map is not connected")
        euler = self.num_vertices - self.num_edges + self.num_faces
        if euler != 2:
            raise MapError(f"Euler characteristic {euler} != 2: not a sphere map")

    # -- basic accessors ----------------------------------------------------

    @cached_property
    def vertex_darts(self) -> list:
        """Rotation at each vertex as a list of arrays (views of vert_dart)."""
        return np.split(self.vert_dart, self.vert_ptr[1:-1])

    @cached_property
    def face_darts(self) -> list:
        """Darts of each face as a list of arrays (views of face_dart)."""
        return np.split(self.face_dart, self.face_ptr[1:-1])

    @cached_property
    def marked(self) -> np.ndarray:
        """Boolean mask of the marked vertices."""
        mask = np.zeros(self.num_vertices, dtype=bool)
        mask[[v for v in (self.v0, self.v1) if v is not None]] = True
        mask.flags.writeable = False
        return mask

    def degree(self, v: int) -> int:
        return int(self.vert_ptr[v + 1] - self.vert_ptr[v])

    @cached_property
    def pi_weight(self) -> np.ndarray:
        """Total conductance at each vertex, darts counted individually (a
        self-loop contributes twice), added in dart order: the walk's
        stationary weight.  Read-only, summed once per map."""
        w = np.bincount(self.dart_tail, weights=np.repeat(self.conductance, 2),
                        minlength=self.num_vertices)
        w.flags.writeable = False
        return w

    def is_marked(self, v: int) -> bool:
        return v == self.v0 or v == self.v1

    @cached_property
    def step_rows(self) -> list:
        """One row per vertex for the walk kernel, as Python lists: (cumulative
        conductance over the darts in rotation order, the total, and the pair
        (dart, head) of each dart).  The cumulative sums add left to right, as
        ``np.cumsum`` does.  The pair list repeats its last pair, so a draw
        that rounds up to the total, which ``bisect_right`` places one past
        the last sum, still picks the last dart.  Built on the first walk, so
        only maps that are walked hold it."""
        ptr = self.vert_ptr.tolist()
        pairs = list(zip(self.vert_dart.tolist(), self.dart_head[self.vert_dart].tolist()))
        cond = self.conductance[self.vert_dart >> 1].tolist()
        rows = []
        for a, b in zip(ptr, ptr[1:]):
            cum = list(accumulate(cond[a:b]))
            rows.append((cum, cum[-1], pairs[a:b] + [pairs[b - 1]]))
        return rows

    def __repr__(self):
        return (f"CombMap(V={self.num_vertices}, E={self.num_edges}, "
                f"F={self.num_faces}, marked=({self.v0}, {self.v1}))")


def next_dart_from(darts, lens, num_darts) -> np.ndarray:
    """The next_dart permutation of rotation cycles listed back to back:
    cycle i is the next lens[i] entries of darts, in CCW order, and each
    dart is followed by the next one of its cycle, the last by the first.

    The darts must be distinct and in [0, num_darts); MapError if they are
    fewer than num_darts."""
    if len(darts) != num_darts:
        raise MapError("rotation data does not cover every dart")
    start = _offsets(lens)[:-1]
    succ = np.arange(1, len(darts) + 1, dtype=INDEX)
    succ[(start + lens - 1)[lens > 0]] = start[lens > 0]
    nxt = np.empty(num_darts, dtype=INDEX)
    nxt[darts] = darts[succ]
    return nxt


# -- cylinder embedding -----------------------------------------------------

@dataclass
class CylinderEmbedding:
    """Coordinates on the 2*pi cylinder plus per-edge horizontal displacements.

    theta, height are nan at marked vertices (they sit at the two infinities).
    dtheta[k] is the real horizontal displacement of dart 2k in the universal
    cover; it must reduce to theta[head] - theta[tail] mod 2*pi, and is zero
    on edges incident to a marked vertex by convention.
    """
    theta: np.ndarray
    height: np.ndarray
    dtheta: np.ndarray

    def dart_dtheta(self, h):
        h = np.asarray(h)
        return np.where(h & 1, -self.dtheta[h >> 1], self.dtheta[h >> 1])


def check_embedding(m: CombMap, emb: CylinderEmbedding) -> None:
    """Raise MapError if the embedding data is inconsistent with the map,
    within 1e-9 radians, or, as the JSON reader does, holds a value that is
    not finite away from the marks; the first bad vertex is named, else
    edge, else face."""
    tol = 1e-9
    V = m.num_vertices
    if len(emb.theta) != V or len(emb.height) != V or len(emb.dtheta) != m.num_edges:
        raise MapError("embedding arrays have wrong length")
    bad = np.flatnonzero(~m.marked & ~(np.isfinite(emb.theta) & np.isfinite(emb.height)))
    if len(bad):
        raise MapError(f"vertex {int(bad[0])}: coordinates must be finite")
    bad = np.flatnonzero(~np.isfinite(emb.dtheta))
    if len(bad):
        raise MapError(f"edge {int(bad[0])}: dtheta must be finite")
    t, h = m.edge_tail, m.edge_head
    pole = m.marked[t] | m.marked[h]
    with np.errstate(invalid="ignore"):     # a gap that overflows fails below
        gap = np.abs(wrap_signed_array(emb.theta[h] - emb.theta[t] - emb.dtheta))
    bad = np.flatnonzero(np.where(pole, emb.dtheta != 0.0, ~(gap <= tol)))
    if len(bad):
        k = int(bad[0])
        if pole[k]:
            raise MapError(f"edge {k} touches a marked vertex but has dtheta != 0")
        raise MapError(f"edge {k}: dtheta inconsistent with theta difference")
    # bounded-face cycles (no marked corner) must sum to zero
    at_pole = np.bincount(m.face_of[m.marked[m.dart_tail]], minlength=m.num_faces) > 0
    s = segment_sums(emb.dart_dtheta(m.face_dart), m.face_ptr)
    bad = np.flatnonzero(~at_pole & (np.abs(s) > tol))
    if len(bad):
        f = int(bad[0])
        raise MapError(f"face {f}: displacement cycle sum {float(s[f])} != 0")


# -- dual map ---------------------------------------------------------------

@dataclass
class DualMap:
    """Dual of a cylinder map.

    The dual reuses the primal dart ids: dual dart h runs from the face right
    of primal dart h to the face left of it (the primal dart rotated CCW), so
    dual edge k keeps index k with conductance 1/c_k.  With an embedding,
    rep_height gives each face a representative height, by which the dual
    walks of the invariance diagnostic stop, and base, where ``conjugate``
    puts w = 0, is the face nearest angle 0, then of least |rep_height|, then
    of least id; without one, base is face 0.  pole_faces lists the faces
    around v0 and around v1.
    """
    primal: CombMap
    map: CombMap
    rep_height: np.ndarray | None
    pole_faces: tuple
    base: int


def _face_means(m: CombMap, values, keep, darts) -> np.ndarray:
    """Mean of the kept values of each face (0 where none is kept), each as
    ``np.mean`` takes it alone; ``values`` and ``keep`` run over ``darts``,
    which lists the faces one after another."""
    counts = np.bincount(m.face_of[darts[keep]], minlength=m.num_faces)
    sums = segment_sums(values[keep], np.concatenate([[0], np.cumsum(counts)]))
    return np.divide(sums, counts, out=np.zeros(m.num_faces), where=counts > 0)


def _face_mean_lifts(m: CombMap, emb: CylinderEmbedding) -> np.ndarray:
    """Mean lifted angle of the finite corners of each face (0 without any).

    Each face orbit is traversed from a dart whose tail is marked when one
    exists (placing the lift's cut at the pole, where horizontal displacement
    has no meaning); the lift is anchored so the first finite corner sits at
    its theta in [0, 2*pi)."""
    F = m.num_faces
    ptr, darts = m.face_ptr.astype(np.intp), m.face_dart.astype(np.intp)   # loop indices
    size = np.diff(ptr)
    pole = m.marked[m.dart_tail[darts]]
    # each orbit starts at its first dart with a marked tail, else its first dart
    at = np.flatnonzero(pole)
    face = m.face_of[darts[at]]
    first = np.diff(face, prepend=-1) != 0
    start = np.zeros(F, dtype=np.intp)
    start[face[first]] = at[first] - ptr[face[first]]
    dd = emb.dart_dtheta(np.arange(m.num_darts))
    x = np.zeros(F)
    shift = np.zeros(F)
    seen = np.zeros(F, dtype=bool)
    lift = np.empty(m.num_darts)           # x at each dart of the orbit walk
    walk = np.empty(m.num_darts, dtype=np.intp)    # the orbits from their starts
    for j, f in by_position(size):
        slot = ptr[f] + (start[f] + j) % size[f]
        h = darts[slot]
        walk[ptr[f] + j] = h
        lift[h] = x[f]
        new = ~seen[f] & ~pole[slot]
        g = f[new]
        shift[g] = mod_array(emb.theta[m.dart_tail[h[new]]], TWO_PI) - x[g]
        seen[g] = True
        x[f] = x[f] + dd[h]
    return _face_means(m, lift[walk] + shift[m.face_of[walk]],
                       ~m.marked[m.dart_tail[walk]], walk)


def _dual_map(m: CombMap) -> CombMap:
    """The dual's CombMap, its rotations read off the primal's faces (module
    docstring); its next dart next^-1(h) ^ 1 inverts the face permutation."""
    n = m.num_darts
    nxt = np.empty(n, dtype=INDEX)
    nxt[m.next_dart] = np.arange(n, dtype=INDEX) ^ 1
    # slot i > 0 of a face, read backward, is slot d - i: an involution; the
    # slots index, so they are intp (module docstring)
    ptr = m.face_ptr.astype(np.intp)
    back = np.repeat(ptr[:-1] + ptr[1:], np.diff(ptr)) - np.arange(n)
    back[ptr[:-1]] = ptr[:-1]
    return CombMap._from_cycles(m.num_faces, 1.0 / m.conductance, nxt, m.face_of,
                                m.face_ptr, m.face_dart[back])


def dual(m: CombMap, emb: CylinderEmbedding | None = None) -> DualMap:
    """Construct the dual map; with an embedding, also each face's
    representative height and, by its mean lifted corner angle, the base
    face."""
    dmap = _dual_map(m)
    F = m.num_faces

    pole_faces = (None, None)
    at_v0 = at_v1 = np.zeros(F, dtype=bool)
    if m.v0 is not None:
        at_v0, at_v1 = (np.bincount(m.face_of[m.dart_tail == v], minlength=F) > 0
                        for v in (m.v0, m.v1))
        pole_faces = (np.flatnonzero(at_v0).tolist(), np.flatnonzero(at_v1).tolist())

    if emb is None:
        return DualMap(m, dmap, None, pole_faces, 0)

    rep_theta = mod_array(_face_mean_lifts(m, emb), TWO_PI)
    hmax = float(np.nanmax(np.abs(emb.height))) if np.any(np.isfinite(emb.height)) else 0.0
    corner = m.dart_tail[m.face_dart]
    mean = _face_means(m, emb.height[corner], ~m.marked[corner], m.face_dart)
    rep_height = np.where(at_v0 & ~at_v1, -(hmax + 1.0),
                          np.where(at_v1 & ~at_v0, hmax + 1.0, mean))
    score = np.minimum(rep_theta, TWO_PI - rep_theta)
    base = int(np.lexsort((np.arange(F), np.abs(rep_height), score))[0])
    return DualMap(m, dmap, rep_height, pole_faces, base)


def bfs_tree(m: CombMap, root: int) -> tuple:
    """(tree_dart, fronts) of the breadth-first search from ``root`` (see the
    module docstring): the dart that first reaches each vertex (-1 at the
    root and at unreached vertices), and the vertices first reached at each
    depth, each front in the order the FIFO queue finds them."""
    V, ptr, darts = m.num_vertices, m.vert_ptr, m.vert_dart
    # slot i of the rotations runs from tail[i] to head[i]
    head = m.dart_head[darts]
    tail = np.repeat(np.arange(V, dtype=INDEX), np.diff(ptr))
    graph = csr_matrix((np.ones(len(head)), head, ptr), shape=(V, V))
    order, pred = breadth_first_order(graph, root, directed=True, return_predecessors=True)
    # the slots from a vertex's parent to it, the first in rotation order
    # written last; the root and unreached vertices have a negative parent
    at = np.flatnonzero(pred[head] == tail)[::-1]
    tree_dart = np.full(V, -1, dtype=np.int64)
    tree_dart[head[at]] = darts[at]
    # front k + 1 ends before the first vertex whose parent lies past front k
    order = order.astype(np.int64)
    pos = np.empty(V, dtype=np.int64)
    pos[order] = np.arange(len(order))
    up = pos[pred[order[1:]]]
    ends = [1]
    while ends[-1] < len(order):
        ends.append(int(np.searchsorted(up, ends[-1])) + 1)
    return tree_dart, [order[a:b] for a, b in zip([0] + ends, ends)]


def marked_cut_path(m: CombMap) -> np.ndarray:
    """A dart path from v0 to v1 (BFS); used as a homology cut of the cylinder."""
    if m.v0 is None or m.v1 is None:
        raise MapError("cut path needs both marked vertices")
    tree_dart = bfs_tree(m, m.v0)[0]
    path = []
    v = m.v1
    while tree_dart[v] != -1:
        path.append(int(tree_dart[v]))
        v = m.dart_tail[path[-1]]
    return np.array(path[::-1], dtype=np.int64)


# -- refinement -------------------------------------------------------------

def insert_vertices(m: CombMap, emb: CylinderEmbedding | None, points):
    """Split edges at interior points, preserving the electrical network.

    ``points`` holds (edge, fraction) pairs, as a sequence or an (n, 2)
    array in any order, each fraction in (0, 1) along the stored tail -> head
    orientation.  Returns (map, embedding, edge_origin): vertex V + i is the
    i-th point in (edge, fraction) order, and edge_origin names the original
    edge of each new edge (see the module docstring); the embedding is None
    without ``emb``.  Raises MapError for a fraction outside (0, 1) (the
    first in input order), an edge id that is not an integer in [0, E), or
    two fractions of one edge less than 1e-15 apart (the edge that appears
    first in ``points``).
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    e, t = pts[:, 0], pts[:, 1]
    bad = np.flatnonzero(~((t > 0.0) & (t < 1.0)))
    if len(bad):
        raise MapError(f"fraction {points[bad[0]][1]} not in (0, 1)")
    V, E, n = m.num_vertices, m.num_edges, len(t)
    bad = np.flatnonzero(~((e >= 0) & (e < E) & (e == np.floor(e))))
    if len(bad):
        i = int(bad[0])
        k, f = points[i]
        raise MapError(f"point {i} ({k}, {f}): edge id is not an integer in [0, {E})")
    given = e.astype(np.int64)
    order = np.lexsort((t, given))
    e, t = given[order], t[order]
    close = (e[1:] == e[:-1]) & (t[1:] - t[:-1] < 1e-15)
    if close.any():
        k = int(given[np.isin(given, e[1:][close])][0])
        raise MapError(f"edge {k}: fractions not strictly increasing")

    # edge k becomes cnt[k] + 1 sub-edges, numbered from start[k] on; the
    # inserted vertex at the head of every sub-edge g but the last of its
    # edge is V + g - origin[g], point g - origin[g] in (edge, fraction) order
    check_size(2 * (E + n), V + n)
    cnt = np.bincount(e, minlength=E).astype(INDEX)
    start = _offsets(cnt + 1)[:-1]
    origin = np.repeat(np.arange(E, dtype=INDEX), cnt + 1)
    g = np.arange(E + n, dtype=INDEX)
    pos = g - start[origin]
    first, last = pos == 0, pos == cnt[origin]
    inner = V + (g - origin)
    dart_tail = np.column_stack([np.where(first, m.edge_tail[origin], inner - 1),
                                 np.where(last, m.edge_head[origin], inner)]).ravel()
    lo, hi = np.zeros(E + n), np.ones(E + n)
    lo[~first] = t
    hi[~last] = t
    dt = hi - lo

    # original darts keep their rotation slots, dart 2k now the first sub-edge's
    # and 2k + 1 the last's; lead is increasing, so each rotation still starts
    # at its smallest dart.  Inserted vertex V + i holds (fwd[i] - 1, fwd[i])
    lead = np.empty(2 * E, dtype=INDEX)
    lead[0::2] = 2 * start
    lead[1::2] = 2 * (start + cnt) + 1
    nxt = np.empty(2 * (E + n), dtype=INDEX)
    nxt[lead] = lead[m.next_dart]
    fwd = 2 * g[~first]
    nxt[fwd], nxt[fwd - 1] = fwd - 1, fwd
    vert_ptr = np.concatenate([m.vert_ptr, m.vert_ptr[-1] + 2 * np.arange(1, n + 1, dtype=INDEX)])
    vert_dart = np.concatenate([lead[m.vert_dart], np.column_stack([fwd - 1, fwd]).ravel()])
    m2 = CombMap._from_cycles(V + n, m.conductance[origin] / dt, nxt, dart_tail,
                              vert_ptr, vert_dart, m.v0, m.v1)
    if emb is None:
        return m2, None, origin

    hmax = float(np.nanmax(np.abs(emb.height))) if np.any(np.isfinite(emb.height)) else 0.0
    u, w = m.edge_tail[e], m.edge_head[e]
    um, wm = m.marked[u], m.marked[w]
    th, h = emb.theta, emb.height
    # the height of a mark's side, read at the marks only
    side = np.where(np.arange(V) == m.v0, -(hmax + 1.0), hmax + 1.0)
    theta = mod_array(np.where(um, th[w], np.where(wm, th[u], th[u] + t * emb.dtheta[e])),
                      TWO_PI)
    theta[um & wm] = 0.0
    height = np.select(
        [um & wm, um & (side[u] < 0), um, wm & (side[w] > 0), wm],
        [side[u] + t * (side[w] - side[u]),
         h[w] - (1.0 - t) * (h[w] + hmax + 1.0), h[w] + (1.0 - t) * (hmax + 1.0 - h[w]),
         h[u] + t * (hmax + 1.0 - h[u]), h[u] - t * (h[u] + hmax + 1.0)],
        h[u] + t * (h[w] - h[u]))
    pole = (m.marked[m.edge_tail] | m.marked[m.edge_head])[origin]
    dtheta = np.where(pole & (cnt[origin] > 0), 0.0, emb.dtheta[origin] * dt)
    emb2 = CylinderEmbedding(np.concatenate([th, theta]), np.concatenate([h, height]), dtheta)
    return m2, emb2, origin
