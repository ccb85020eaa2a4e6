"""Half-edge planar maps with conductances, cylinder embeddings, duals, refinement.

A map is stored as a rotation system: edge k owns darts 2k (tail -> head) and
2k + 1 (head -> tail), twin(h) = h ^ 1, and ``next_dart[h]`` is the next dart
counterclockwise around tail(h).  Faces are the orbits of h -> next_dart[h ^ 1];
the face of an orbit lies to the RIGHT of each of its darts (bounded faces are
traversed clockwise).  A map drawn on the cylinder carries two marked vertices
pinned to the two ends at infinity; those vertices have no finite coordinates
and every edge touching them has horizontal displacement zero.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


class MapError(ValueError):
    """Structural contract violation in map data."""


def wrap_angle(x: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    r = math.fmod(x, TWO_PI)
    if r < 0:
        r += TWO_PI
    # r + TWO_PI can round up to TWO_PI when r is a tiny negative
    return 0.0 if r >= TWO_PI else r


def wrap_signed(x: float, period: float = TWO_PI) -> float:
    """Reduce to (-period/2, period/2]."""
    r = math.fmod(x, period)
    if r <= -period / 2:
        r += period
    elif r > period / 2:
        r -= period
    return r


class CombMap:
    """Connected planar map of sphere topology given by a rotation system.

    Parameters
    ----------
    num_vertices : int
    edge_tail, edge_head : arrays of vertex indices, one per edge
    conductance : positive weights, one per edge
    next_dart : permutation of darts; next_dart[h] is CCW-next around tail(h)
    v0, v1 : marked vertices (bottom and top end of the cylinder), or None
    """

    def __init__(self, num_vertices, edge_tail, edge_head, conductance,
                 next_dart, v0=None, v1=None, check=True):
        self.num_vertices = int(num_vertices)
        self.edge_tail = np.asarray(edge_tail, dtype=np.int64)
        self.edge_head = np.asarray(edge_head, dtype=np.int64)
        self.conductance = np.asarray(conductance, dtype=np.float64)
        self.next_dart = np.asarray(next_dart, dtype=np.int64)
        self.v0 = None if v0 is None else int(v0)
        self.v1 = None if v1 is None else int(v1)

        E = len(self.edge_tail)
        self.num_edges = E
        self.num_darts = 2 * E
        # dart_tail[2k] = edge_tail[k], dart_tail[2k+1] = edge_head[k]
        self.dart_tail = np.empty(2 * E, dtype=np.int64)
        self.dart_tail[0::2] = self.edge_tail
        self.dart_tail[1::2] = self.edge_head
        self.dart_head = self.dart_tail[np.arange(2 * E) ^ 1] if E else np.empty(0, dtype=np.int64)

        if check:
            self._check_structure()

        self.prev_dart = np.empty_like(self.next_dart)
        self.prev_dart[self.next_dart] = np.arange(self.num_darts)
        self._build_vertex_darts()
        self._build_faces()

        if check:
            self._check_topology()
        for a in (self.edge_tail, self.edge_head, self.conductance,
                  self.next_dart, self.prev_dart, self.dart_tail,
                  self.dart_head, self.face_of):
            a.flags.writeable = False
        self._walk_tables = None

    # -- construction checks ------------------------------------------------

    def _check_structure(self):
        E = self.num_edges
        if E == 0:
            raise MapError("map must have at least one edge")
        for arr, name in ((self.edge_tail, "tail"), (self.edge_head, "head")):
            if arr.min(initial=0) < 0 or arr.max(initial=-1) >= self.num_vertices:
                raise MapError(f"edge {name} out of range")
        if np.any(self.conductance <= 0) or not np.all(np.isfinite(self.conductance)):
            raise MapError("conductances must be positive and finite")
        if sorted(self.next_dart.tolist()) != list(range(2 * E)):
            raise MapError("next_dart is not a permutation of the darts")
        if np.any(self.dart_tail[self.next_dart] != self.dart_tail):
            raise MapError("rotation moves a dart to a different vertex")
        if self.v0 is not None and self.v1 is not None and self.v0 == self.v1:
            raise MapError("marked vertices must be distinct")
        for v in (self.v0, self.v1):
            if v is not None and not (0 <= v < self.num_vertices):
                raise MapError("marked vertex out of range")

    def _build_vertex_darts(self):
        """Rotation cycle at each vertex, starting from its smallest dart."""
        order = np.argsort(self.dart_tail, kind="stable")
        bounds = np.searchsorted(self.dart_tail[order], np.arange(self.num_vertices + 1))
        self.vertex_darts = []
        for v in range(self.num_vertices):
            mine = order[bounds[v]:bounds[v + 1]]
            if len(mine) == 0:
                raise MapError(f"vertex {v} has no incident dart")
            cyc = [int(mine.min())]
            while True:
                nxt = int(self.next_dart[cyc[-1]])
                if nxt == cyc[0]:
                    break
                cyc.append(nxt)
                if len(cyc) > len(mine):
                    raise MapError(f"rotation at vertex {v} is not a single cycle")
            if len(cyc) != len(mine):
                raise MapError(f"rotation at vertex {v} is not a single cycle")
            self.vertex_darts.append(np.array(cyc, dtype=np.int64))

    def _build_faces(self):
        """Orbits of h -> next_dart[twin(h)]; each orbit is the face right of its darts."""
        n = self.num_darts
        self.face_of = np.full(n, -1, dtype=np.int64)
        self.face_darts = []
        for h0 in range(n):
            if self.face_of[h0] >= 0:
                continue
            f = len(self.face_darts)
            orbit = []
            h = h0
            while True:
                self.face_of[h] = f
                orbit.append(h)
                h = int(self.next_dart[h ^ 1])
                if h == h0:
                    break
            self.face_darts.append(np.array(orbit, dtype=np.int64))
        self.num_faces = len(self.face_darts)

    def _check_topology(self):
        seen = np.zeros(self.num_vertices, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            v = stack.pop()
            for h in self.vertex_darts[v]:
                w = int(self.dart_head[h])
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        if not seen.all():
            raise MapError("map is not connected")
        euler = self.num_vertices - self.num_edges + self.num_faces
        if euler != 2:
            raise MapError(f"Euler characteristic {euler} != 2: not a sphere map")

    # -- basic accessors ----------------------------------------------------

    def twin(self, h: int) -> int:
        return h ^ 1

    def edge_of(self, h: int) -> int:
        return h >> 1

    def degree(self, v: int) -> int:
        return len(self.vertex_darts[v])

    @property
    def pi_weight(self):
        """Total conductance at each vertex, darts counted individually
        (a self-loop contributes twice)."""
        w = np.zeros(self.num_vertices)
        np.add.at(w, self.dart_tail, self.conductance[np.arange(self.num_darts) >> 1])
        return w

    def is_marked(self, v: int) -> bool:
        return v == self.v0 or v == self.v1

    def walk_tables(self):
        """Python lists for the walk kernel: head per dart, darts per vertex,
        and cumulative conductance over each vertex's darts."""
        if self._walk_tables is None:
            self._walk_tables = (
                self.dart_head.tolist(),
                [d.tolist() for d in self.vertex_darts],
                [np.cumsum(self.conductance[d >> 1]).tolist() for d in self.vertex_darts])
        return self._walk_tables

    def __repr__(self):
        return (f"CombMap(V={self.num_vertices}, E={self.num_edges}, "
                f"F={self.num_faces}, marked=({self.v0}, {self.v1}))")


def build_map(num_vertices, edges, rotation, marked=None) -> CombMap:
    """Build a CombMap from an edge list and per-vertex CCW dart cycles.

    ``edges`` is a sequence of (tail, head, conductance); edge k has darts
    2k and 2k+1.  ``rotation[v]`` lists the darts with tail v in CCW order.
    """
    E = len(edges)
    tails = [e[0] for e in edges]
    heads = [e[1] for e in edges]
    cond = [e[2] for e in edges]
    nxt = np.full(2 * E, -1, dtype=np.int64)
    for v, cyc in enumerate(rotation):
        for i, h in enumerate(cyc):
            if nxt[h] != -1:
                raise MapError(f"dart {h} appears twice in rotation data")
            nxt[h] = cyc[(i + 1) % len(cyc)]
    if np.any(nxt < 0):
        raise MapError("rotation data does not cover every dart")
    v0, v1 = (None, None) if marked is None else marked
    return CombMap(num_vertices, tails, heads, cond, nxt, v0=v0, v1=v1)


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


def check_embedding(m: CombMap, emb: CylinderEmbedding, tol: float = 1e-9) -> None:
    """Raise MapError if the embedding data is inconsistent with the map."""
    if len(emb.theta) != m.num_vertices or len(emb.dtheta) != m.num_edges:
        raise MapError("embedding arrays have wrong length")
    for k in range(m.num_edges):
        t, h = int(m.edge_tail[k]), int(m.edge_head[k])
        if m.is_marked(t) or m.is_marked(h):
            if emb.dtheta[k] != 0.0:
                raise MapError(f"edge {k} touches a marked vertex but has dtheta != 0")
            continue
        want = wrap_signed(emb.theta[h] - emb.theta[t] - emb.dtheta[k])
        if abs(want) > tol:
            raise MapError(f"edge {k}: dtheta inconsistent with theta difference")
    # bounded-face cycles (no marked corner) must sum to zero
    for f, orbit in enumerate(m.face_darts):
        if any(m.is_marked(int(m.dart_tail[h])) for h in orbit):
            continue
        s = float(np.sum(emb.dart_dtheta(orbit)))
        if abs(s) > tol:
            raise MapError(f"face {f}: displacement cycle sum {s} != 0")


def lift_path(m: CombMap, emb: CylinderEmbedding, darts) -> np.ndarray:
    """Cumulative real horizontal lift along a dart path, starting at 0."""
    darts = np.asarray(darts, dtype=np.int64)
    if len(darts) == 0:
        return np.zeros(1)
    heads = m.dart_head[darts[:-1]]
    tails = m.dart_tail[darts[1:]]
    if np.any(heads != tails):
        raise MapError("darts do not form a path")
    out = np.zeros(len(darts) + 1)
    out[1:] = np.cumsum(emb.dart_dtheta(darts))
    return out


def path_winding(m: CombMap, emb: CylinderEmbedding, darts) -> float:
    lifts = lift_path(m, emb, darts)
    return (lifts[-1] - lifts[0]) / TWO_PI


# -- dual map ---------------------------------------------------------------

@dataclass
class DualMap:
    """Dual of a cylinder map.

    The dual reuses the primal dart ids: dual dart h runs from the face right
    of primal dart h to the face left of it (the primal dart rotated CCW), so
    dual edge k keeps index k with conductance 1/c_k.  With an embedding,
    rep_theta/rep_height give a representative point per face: ``conjugate``
    picks its base face by them, and the dual walks of the invariance
    diagnostic stop by rep_height.  pole_faces lists the faces around v0 and
    around v1.
    """
    primal: CombMap
    map: CombMap
    rep_theta: np.ndarray | None
    rep_height: np.ndarray | None
    pole_faces: tuple


def _face_mean_lifts(m: CombMap, emb: CylinderEmbedding) -> np.ndarray:
    """Mean lifted angle of the finite corners of each face (0 without any).

    Each face orbit is traversed from a dart whose tail is marked when one
    exists (placing the lift's cut at the pole, where horizontal displacement
    has no meaning); the lift is anchored so the first finite corner sits at
    its theta in [0, 2*pi)."""
    out = np.zeros(m.num_faces)
    dd = emb.dart_dtheta(np.arange(m.num_darts))
    for f, orbit in enumerate(m.face_darts):
        orbit = list(orbit)
        start = next((i for i, h in enumerate(orbit)
                      if m.is_marked(int(m.dart_tail[h]))), 0)
        x = 0.0
        lifts = []
        for h in orbit[start:] + orbit[:start]:
            if not m.is_marked(int(m.dart_tail[h])):
                if not lifts:
                    shift = wrap_angle(emb.theta[m.dart_tail[h]]) - x
                lifts.append(x)
            x += dd[h]
        if lifts:
            out[f] = float(np.mean([u + shift for u in lifts]))
    return out


def dual(m: CombMap, emb: CylinderEmbedding | None = None) -> DualMap:
    """Construct the dual map; with an embedding, also representative points."""
    E = m.num_edges
    dual_next = (m.prev_dart ^ 1).copy()
    # dual dart h: tail = face_of[h], head = face_of[h^1]
    d_tail = m.face_of[2 * np.arange(E)]
    d_head = m.face_of[2 * np.arange(E) + 1]
    dmap = CombMap(m.num_faces, d_tail, d_head, 1.0 / m.conductance, dual_next)
    if dmap.num_faces != m.num_vertices:
        raise MapError("dual face count does not match primal vertex count")

    pole_faces = (None, None)
    if m.v0 is not None:
        f0 = {int(m.face_of[h]) for h in m.vertex_darts[m.v0]}
        f1 = {int(m.face_of[h]) for h in m.vertex_darts[m.v1]}
        pole_faces = (sorted(f0), sorted(f1))

    if emb is None:
        return DualMap(m, dmap, None, None, pole_faces)

    rep_theta = np.array([wrap_angle(x) for x in _face_mean_lifts(m, emb)])
    hmax = float(np.nanmax(np.abs(emb.height))) if np.any(np.isfinite(emb.height)) else 0.0
    rep_height = np.zeros(m.num_faces)
    for f, orbit in enumerate(m.face_darts):
        hs = [emb.height[m.dart_tail[h]] for h in orbit
              if not m.is_marked(int(m.dart_tail[h]))]
        at_v0 = m.v0 is not None and any(int(m.dart_tail[h]) == m.v0 for h in orbit)
        at_v1 = m.v1 is not None and any(int(m.dart_tail[h]) == m.v1 for h in orbit)
        if at_v0 and not at_v1:
            rep_height[f] = -(hmax + 1.0)
        elif at_v1 and not at_v0:
            rep_height[f] = hmax + 1.0
        else:
            rep_height[f] = float(np.mean(hs)) if hs else 0.0
    return DualMap(m, dmap, rep_theta, rep_height, pole_faces)


def marked_cut_path(m: CombMap) -> np.ndarray:
    """A dart path from v0 to v1 (BFS); used as a homology cut of the cylinder."""
    if m.v0 is None or m.v1 is None:
        raise MapError("cut path needs both marked vertices")
    parent = {m.v0: -1}
    queue = deque([m.v0])
    while queue:
        v = queue.popleft()
        if v == m.v1:
            break
        for h in m.vertex_darts[v]:
            w = int(m.dart_head[h])
            if w not in parent:
                parent[w] = int(h)
                queue.append(w)
    darts = []
    v = m.v1
    while parent[v] != -1:
        h = parent[v]
        darts.append(h)
        v = int(m.dart_tail[h])
    return np.array(darts[::-1], dtype=np.int64)


def dual_cycle_winding_cut(dual_map: DualMap, cycle_darts, cut=None) -> int:
    """Winding of a closed dual cycle around the cylinder via signed crossings
    of a fixed primal path from v0 to v1.  Purely combinatorial."""
    m = dual_map.primal
    if cut is None:
        cut = marked_cut_path(m)
    sign = {}
    for h in cut:
        sign[int(h)] = -1     # dual dart h crosses the upward path right-to-left
        sign[int(h) ^ 1] = 1
    return sum(sign.get(int(h), 0) for h in cycle_darts)


# -- refinement -------------------------------------------------------------

def insert_vertices(m: CombMap, emb: CylinderEmbedding | None, points):
    """Split edges at interior points, preserving the electrical network.

    ``points`` is a sequence of (edge, fraction) with fractions in (0, 1)
    measured along the stored tail -> head orientation.  A sub-edge of length
    t (as a fraction of the unit-length edge) gets conductance c / t, so the
    series law keeps voltages on original vertices unchanged.  Returns
    (map, embedding, edge_origin) where edge_origin maps new edge index to the
    original edge it came from; inserted vertices are appended after the
    original ones in insertion order.
    """
    by_edge = {}
    for e, t in points:
        e = int(e)
        if not (0.0 < t < 1.0):
            raise MapError(f"fraction {t} not in (0, 1)")
        by_edge.setdefault(e, []).append(float(t))
    for e, ts in by_edge.items():
        ts.sort()
        if any(b - a < 1e-15 for a, b in zip(ts, ts[1:])):
            raise MapError(f"edge {e}: fractions not strictly increasing")

    V = m.num_vertices
    new_theta, new_height = [], []
    hmax = 0.0
    if emb is not None and np.any(np.isfinite(emb.height)):
        hmax = float(np.nanmax(np.abs(emb.height)))

    tails, heads, conds, dthetas, origin = [], [], [], [], []
    # darts of the chain replacing each original dart
    first_dart = np.empty(m.num_darts, dtype=np.int64)
    last_dart = np.empty(m.num_darts, dtype=np.int64)
    chain_vertices = {}

    def edge_coords(k, t):
        u, w = int(m.edge_tail[k]), int(m.edge_head[k])
        if emb is None:
            return math.nan, math.nan
        um, wm = m.is_marked(u), m.is_marked(w)
        if um and wm:
            return math.nan, math.nan
        if um:
            # pole at t = 0: come up from one unit below the deepest vertex
            hh = emb.height[w] - (1.0 - t) * (emb.height[w] + hmax + 1.0)
            return wrap_angle(emb.theta[w]), hh
        if wm:
            return wrap_angle(emb.theta[u]), emb.height[u] + t * (hmax + 1.0 - emb.height[u])
        th = wrap_angle(emb.theta[u] + t * emb.dtheta[k])
        return th, emb.height[u] + t * (emb.height[w] - emb.height[u])

    next_vertex = V
    for k in range(m.num_edges):
        ts = by_edge.get(k)
        if not ts:
            e_new = len(tails)
            tails.append(int(m.edge_tail[k]))
            heads.append(int(m.edge_head[k]))
            conds.append(float(m.conductance[k]))
            dthetas.append(0.0 if emb is None else float(emb.dtheta[k]))
            origin.append(k)
            first_dart[2 * k] = 2 * e_new
            last_dart[2 * k] = 2 * e_new
            first_dart[2 * k + 1] = 2 * e_new + 1
            last_dart[2 * k + 1] = 2 * e_new + 1
            continue
        vs = []
        for t in ts:
            th, hh = edge_coords(k, t)
            new_theta.append(th)
            new_height.append(hh)
            vs.append(next_vertex)
            next_vertex += 1
        chain_vertices[k] = vs
        nodes = [int(m.edge_tail[k])] + vs + [int(m.edge_head[k])]
        fr = [0.0] + ts + [1.0]
        seg_edges = []
        for i in range(len(nodes) - 1):
            e_new = len(tails)
            seg_edges.append(e_new)
            dt = fr[i + 1] - fr[i]
            tails.append(nodes[i])
            heads.append(nodes[i + 1])
            conds.append(float(m.conductance[k]) / dt)
            if emb is None:
                dthetas.append(0.0)
            else:
                um = m.is_marked(int(m.edge_tail[k]))
                wm = m.is_marked(int(m.edge_head[k]))
                base = 0.0 if (um or wm) else float(emb.dtheta[k])
                dthetas.append(base * dt)
            origin.append(k)
        first_dart[2 * k] = 2 * seg_edges[0]
        last_dart[2 * k] = 2 * seg_edges[-1]
        first_dart[2 * k + 1] = 2 * seg_edges[-1] + 1
        last_dart[2 * k + 1] = 2 * seg_edges[0] + 1

    # rotations: original vertices keep their cyclic order with chain darts
    # substituted; inserted vertices get the 2-cycle along their chain.
    E_new = len(tails)
    nxt = np.full(2 * E_new, -1, dtype=np.int64)
    for v in range(V):
        cyc = [int(first_dart[h]) for h in m.vertex_darts[v]]
        for i, h in enumerate(cyc):
            nxt[h] = cyc[(i + 1) % len(cyc)]
    for k, vs in chain_vertices.items():
        # chain darts: along nodes i -> i+1 the forward dart is
        # first_dart[2k] + 2*i when edges were appended consecutively
        e0 = first_dart[2 * k] >> 1
        for i, v in enumerate(vs):
            fwd = 2 * (e0 + i + 1)      # dart v -> next node
            bwd = 2 * (e0 + i) + 1      # dart v -> previous node
            nxt[fwd] = bwd
            nxt[bwd] = fwd

    m2 = CombMap(next_vertex, tails, heads, conds, nxt, v0=m.v0, v1=m.v1)
    emb2 = None
    if emb is not None:
        emb2 = CylinderEmbedding(
            theta=np.concatenate([emb.theta, np.array(new_theta)]),
            height=np.concatenate([emb.height, np.array(new_height)]),
            dtheta=np.array(dthetas),
        )
    return m2, emb2, np.array(origin, dtype=np.int64)
