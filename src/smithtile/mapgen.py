"""Randomized weighted cylinder maps for tests and demos.

Starts from a lattice, jitters the a priori coordinates, randomizes
conductances, splits edges, adds face diagonals, and deletes non-bridge
edges, keeping the map/embedding pair consistent throughout.
"""

from __future__ import annotations

import numpy as np

from .map_core import (CombMap, CylinderEmbedding, TWO_PI, build_map,
                       check_embedding, insert_vertices, mod_array)
from .convergence import make_lattice
from .rng import make_rng


def _with_conductances(m: CombMap, cond) -> CombMap:
    return CombMap(m.num_vertices, m.edge_tail, m.edge_head, cond,
                   m.next_dart, v0=m.v0, v1=m.v1)


def _jitter(m: CombMap, emb: CylinderEmbedding, rng, amount: float):
    eps = rng.uniform(-amount, amount, m.num_vertices)
    eph = rng.uniform(-amount, amount, m.num_vertices)
    theta = np.where(m.marked, emb.theta, mod_array(emb.theta + eps, TWO_PI))
    height = np.where(m.marked, emb.height, emb.height + eph)
    t, h = m.edge_tail, m.edge_head
    pole = m.marked[t] | m.marked[h]        # marked edges keep dtheta = 0
    dth = np.where(pole, emb.dtheta, emb.dtheta + (eps[h] - eps[t]))
    return CylinderEmbedding(theta, height, dth)


def _add_diagonal(m: CombMap, emb: CylinderEmbedding, rng):
    """Splice one new edge across a bounded face with >= 4 corners.

    The corner of a face at the tail of orbit dart h sits between
    prev-orbit-dart^1 and h in the rotation, so the splice below leaves both
    sides of the new edge as single face cycles."""
    faces = [orbit for orbit in m.face_darts
             if len(orbit) >= 4
             and not any(m.is_marked(int(m.dart_tail[g])) for g in orbit)]
    if not faces:
        return m, emb
    orbit = faces[rng.integers(len(faces))]
    d = len(orbit)
    for _ in range(32):
        i1 = int(rng.integers(d))
        i2 = (i1 + 2 + int(rng.integers(d - 3))) % d
        if i2 < i1:
            i1, i2 = i2, i1
        if i2 - i1 < 2 or i2 - i1 > d - 2:
            continue
        u = int(m.dart_tail[orbit[i1]])
        x = int(m.dart_tail[orbit[i2]])
        if u != x:
            break
    else:
        return m, emb

    E = m.num_edges
    p, q = 2 * E, 2 * E + 1
    nxt = np.concatenate([m.next_dart, [0, 0]])
    nxt[int(orbit[i1 - 1]) ^ 1] = p
    nxt[p] = int(orbit[i1])
    nxt[int(orbit[i2 - 1]) ^ 1] = q
    nxt[q] = int(orbit[i2])
    tails = np.concatenate([m.edge_tail, [u]])
    heads = np.concatenate([m.edge_head, [x]])
    cond = np.concatenate([m.conductance, [10.0 ** rng.uniform(-1.0, 1.0)]])
    m2 = CombMap(m.num_vertices, tails, heads, cond, nxt, v0=m.v0, v1=m.v1)
    # the new edge is homotopic to the orbit segment it cuts off
    seg = float(np.sum(emb.dart_dtheta(np.asarray(orbit[i1:i2]))))
    emb2 = CylinderEmbedding(emb.theta, emb.height,
                             np.concatenate([emb.dtheta, [seg]]))
    return m2, emb2


def _delete_edge(m: CombMap, emb: CylinderEmbedding, rng):
    """Remove one non-bridge, non-loop edge whose endpoints keep degree >= 2."""
    cand = [k for k in range(m.num_edges)
            if m.face_of[2 * k] != m.face_of[2 * k + 1]
            and m.edge_tail[k] != m.edge_head[k]
            and m.degree(int(m.edge_tail[k])) > 2
            and m.degree(int(m.edge_head[k])) > 2]
    if not cand:
        return m, emb
    k = cand[int(rng.integers(len(cand)))]

    def remap(h):
        e, side = h >> 1, h & 1
        return 2 * (e - (1 if e > k else 0)) + side

    edges = [(int(m.edge_tail[e]), int(m.edge_head[e]), float(m.conductance[e]))
             for e in range(m.num_edges) if e != k]
    rotation = [[remap(int(h)) for h in m.vertex_darts[v] if (int(h) >> 1) != k]
                for v in range(m.num_vertices)]
    marked = None if m.v0 is None else (m.v0, m.v1)
    m2 = build_map(m.num_vertices, edges, rotation, marked=marked)
    emb2 = CylinderEmbedding(emb.theta, emb.height, np.delete(emb.dtheta, k))
    return m2, emb2


def random_map(seed: int, n: int = 7, H: float = 2.5, jitter: float = 0.12,
               splits: int = 4, diagonals: int = 3, deletions: int = 2):
    """Random connected doubly marked weighted cylinder map with a consistent
    a priori embedding.  Deterministic in the seed."""
    rng = make_rng(seed)
    m, emb = make_lattice(n, H)
    emb = _jitter(m, emb, rng, jitter * TWO_PI / n)
    m = _with_conductances(m, 10.0 ** rng.uniform(-1.0, 1.0, m.num_edges))

    if splits > 0:
        picks = rng.choice(m.num_edges, size=min(splits, m.num_edges),
                           replace=False)
        points = [(int(e), float(rng.uniform(0.25, 0.75))) for e in sorted(picks)]
        m, emb, _ = insert_vertices(m, emb, points)

    for _ in range(diagonals):
        m, emb = _add_diagonal(m, emb, rng)
    for _ in range(deletions):
        m, emb = _delete_edge(m, emb, rng)

    check_embedding(m, emb)
    return m, emb
