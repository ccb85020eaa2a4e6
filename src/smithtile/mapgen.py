"""Randomized weighted cylinder maps for tests and demos.

Starts from a lattice, jitters the a priori coordinates by up to JITTER
of the column spacing, randomizes conductances, splits edges, adds face
diagonals, and deletes non-bridge edges, keeping the map/embedding pair
consistent throughout.

Each edit works on the current map's face and rotation arrays and builds
one ``CombMap``.  The draws come in a fixed order, so a map's bytes depend
only on the seed and the shape constants; a test pins those bytes.
"""

from __future__ import annotations

import numpy as np

from .map_core import (INDEX, CombMap, CylinderEmbedding, TWO_PI, check_embedding,
                       insert_vertices, mod_array, next_dart_from)
from .convergence import make_lattice
from .rng import make_rng

# Every map's lattice columns and half-height, then its splits, diagonals and deletions.
N, H = 7, 2.5
SPLITS, DIAGONALS, DELETIONS = 4, 3, 2
# Largest jitter of a coordinate, as a fraction of the column spacing 2 pi / N.
JITTER = 0.12


def _jitter(m: CombMap, emb: CylinderEmbedding, rng, amount: float):
    eps = rng.uniform(-amount, amount, m.num_vertices)
    eph = rng.uniform(-amount, amount, m.num_vertices)
    theta = np.where(m.marked, emb.theta, mod_array(emb.theta + eps, TWO_PI))
    height = np.where(m.marked, emb.height, emb.height + eph)
    t, h = m.edge_tail, m.edge_head
    pole = m.marked[t] | m.marked[h]        # marked edges keep dtheta = 0
    dth = np.where(pole, emb.dtheta, emb.dtheta + (eps[h] - eps[t]))
    return CylinderEmbedding(theta, height, dth)


def _diagonal_faces(m: CombMap) -> np.ndarray:
    """Mask of the faces a diagonal may cross: >= 4 corners, none at a mark."""
    marked = np.bincount(m.face_of[m.marked[m.dart_tail]], minlength=m.num_faces)
    return (np.diff(m.face_ptr) >= 4) & (marked == 0)


def _deletable_edges(m: CombMap) -> np.ndarray:
    """Mask of the non-bridge, non-loop edges whose ends have degree > 2."""
    deg = np.diff(m.vert_ptr)
    t, h = m.edge_tail, m.edge_head
    return (m.face_of[0::2] != m.face_of[1::2]) & (t != h) & (deg[t] > 2) & (deg[h] > 2)


def _add_diagonal(m: CombMap, emb: CylinderEmbedding, rng):
    """Splice one new edge across a bounded face with >= 4 corners.

    The corner of a face at the tail of orbit dart h sits between
    prev-orbit-dart^1 and h in the rotation, so the splice below leaves both
    sides of the new edge as single face cycles."""
    faces = np.flatnonzero(_diagonal_faces(m))
    if not len(faces):
        return m, emb
    f = faces[rng.integers(len(faces))]
    orbit = m.face_dart[m.face_ptr[f]:m.face_ptr[f + 1]]
    d = len(orbit)
    for _ in range(32):
        i1 = int(rng.integers(d))
        i2 = (i1 + 2 + int(rng.integers(d - 3))) % d
        i1, i2 = min(i1, i2), max(i1, i2)     # 2 <= i2 - i1 <= d - 2
        u = int(m.dart_tail[orbit[i1]])
        x = int(m.dart_tail[orbit[i2]])
        if u != x:
            break
    else:
        return m, emb

    E = m.num_edges
    p, q = 2 * E, 2 * E + 1
    nxt = np.concatenate([m.next_dart, [0, 0]], dtype=INDEX)
    nxt[int(orbit[i1 - 1]) ^ 1] = p
    nxt[p] = int(orbit[i1])
    nxt[int(orbit[i2 - 1]) ^ 1] = q
    nxt[q] = int(orbit[i2])
    tails = np.concatenate([m.edge_tail, [u]], dtype=INDEX)
    heads = np.concatenate([m.edge_head, [x]], dtype=INDEX)
    cond = np.concatenate([m.conductance, [10.0 ** rng.uniform(-1.0, 1.0)]])
    m2 = CombMap(m.num_vertices, tails, heads, cond, nxt, v0=m.v0, v1=m.v1)
    # the new edge is homotopic to the orbit segment it cuts off
    seg = float(np.sum(emb.dart_dtheta(np.asarray(orbit[i1:i2]))))
    return m2, CylinderEmbedding(emb.theta, emb.height, np.concatenate([emb.dtheta, [seg]]))


def _delete_edge(m: CombMap, emb: CylinderEmbedding, rng):
    """Remove one non-bridge, non-loop edge whose endpoints keep degree >= 2."""
    cand = np.flatnonzero(_deletable_edges(m))
    if not len(cand):
        return m, emb
    k = int(cand[rng.integers(len(cand))])
    darts = m.vert_dart[(m.vert_dart >> 1) != k]
    lens = np.bincount(m.dart_tail[darts], minlength=m.num_vertices)
    darts -= 2 * ((darts >> 1) > k)         # later edges move down by one
    m2 = CombMap(m.num_vertices, np.delete(m.edge_tail, k), np.delete(m.edge_head, k),
                 np.delete(m.conductance, k), next_dart_from(darts, lens, len(darts)),
                 v0=m.v0, v1=m.v1)
    return m2, CylinderEmbedding(emb.theta, emb.height, np.delete(emb.dtheta, k))


def random_map(seed: int):
    """Random connected doubly marked weighted cylinder map of the module's
    shape with a consistent a priori embedding.  Deterministic in the seed."""
    rng = make_rng(seed)
    m, emb = make_lattice(N, H)
    emb = _jitter(m, emb, rng, JITTER * TWO_PI / N)
    m = CombMap(m.num_vertices, m.edge_tail, m.edge_head,
                10.0 ** rng.uniform(-1.0, 1.0, m.num_edges), m.next_dart,
                v0=m.v0, v1=m.v1)

    picks = np.sort(rng.choice(m.num_edges, size=SPLITS, replace=False))
    points = np.column_stack([picks, rng.uniform(0.25, 0.75, len(picks))])
    m, emb, _ = insert_vertices(m, emb, points)

    for _ in range(DIAGONALS):
        m, emb = _add_diagonal(m, emb, rng)
    for _ in range(DELETIONS):
        m, emb = _delete_edge(m, emb, rng)

    check_embedding(m, emb)
    return m, emb
