"""Slow, direct checks that the tests hold the program's results against.

Each one restates a rule the program applies in bulk: the harmonic
orientation of one edge, the adjacency of touching rectangles, the
noncrossing of the arcs of a mated-CRT map, the winding of a dual cycle by
its crossings of a cut path, the stdlib JSON encoder, the JSON readers
checking one record at a time, (below) the loop forms of the steps that
now run as array code, and the per-step loops of the Monte Carlo walks.
``build_map`` builds the small maps that the tests write out by hand, and
``small_random_map`` the random maps of ``SMALL_SHAPE``.
"""

import json
import math
from collections import defaultdict, deque
from itertools import chain

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from smithtile import mapgen, walk_lab
from smithtile.convergence import AffineFit, lattice_shape
from smithtile.map_core import (TWO_PI, CombMap, CylinderEmbedding, DualMap,
                                MapError, next_dart_from)
from smithtile.mated_crt import (LINE, LOWER, UPPER, Excursion, MatedCrtMap,
                                 SampleError)
from smithtile.electrical import Conjugate, Voltage, harmonic_darts, snap_clusters
from smithtile.io_json import SCHEMA, DiagramData, Rotation, SchemaError, Table
from smithtile.rng import make_rng
from smithtile.smith_tiling import (SmithDiagram, SmithEmbedding, TilingError,
                                    TilingReport, _circle_pieces, reduce_mod)
from smithtile.walk_lab import (Augmented, LevelMeasure, LevelNotVertexed,
                               _merge_levels, realized_levels)


# mapgen's shape constants for maps small enough for the dense exact-law
# recursions
SMALL_SHAPE = dict(N=5, H=1.2, SPLITS=2, DIAGONALS=1, DELETIONS=1)


def small_random_map(seed: int) -> tuple:
    """``mapgen.random_map(seed)`` with the shape constants of SMALL_SHAPE."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in SMALL_SHAPE.items():
            mp.setattr(mapgen, name, value)
        return mapgen.random_map(seed)


def dart_flow(v: Voltage, h) -> np.ndarray:
    """Signed flow c_e * (h(head) - h(tail)) along darts h, from the
    voltage's values and the conductances, not from ``Voltage.flows``."""
    h = np.asarray(h)
    m = v.map
    return m.conductance[h >> 1] * (v.values[m.dart_head[h]] - v.values[m.dart_tail[h]])


def wrap_angle(x: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    r = math.fmod(x, TWO_PI)
    if r < 0:
        r += TWO_PI
    # r + TWO_PI can round up to TWO_PI when r is a tiny negative
    return 0.0 if r >= TWO_PI else r


def harmonic_dart(v: Voltage, k: int) -> int:
    """The dart of edge k oriented from lower to higher voltage; zero-gradient
    edges (and self-loops) take the orientation with the lexicographically
    smaller (tail, head) pair."""
    m = v.map
    t, h = v.values[m.edge_tail[k]], v.values[m.edge_head[k]]
    if h > t:
        return 2 * k
    if h < t:
        return 2 * k + 1
    a, b = int(m.edge_tail[k]), int(m.edge_head[k])
    return 2 * k if (a, b) <= (b, a) else 2 * k + 1


def contact_violations(d: SmithDiagram, tol: float = 1e-9) -> int:
    """Count adjacency mismatches: rectangles meeting along a horizontal
    stretch must come from edges sharing a vertex; along a vertical stretch,
    from edges sharing a face.  tol gates which stretches are significant;
    the touch test itself is machine-scale, since genuine contacts are exact
    while weakly coupled clusters pack distinct boundaries closer than any
    geometric tolerance."""
    m, eta = d.map, d.eta
    bad = 0
    E = m.num_edges
    zw = 1e-12 * max(1.0, eta)

    def arc_overlap(i, j):
        pi = _circle_pieces(float(d.rect_x0[i]), float(d.rect_width[i]), eta)
        pj = _circle_pieces(float(d.rect_x0[j]), float(d.rect_width[j]), eta)
        return sum(max(0.0, min(q1, q2) - max(p1, p2))
                   for p1, q1 in pi for p2, q2 in pj)

    for i in range(E):
        for j in range(E):
            if i == j:
                continue
            if d.rect_y1[i] == d.rect_y0[j] and arc_overlap(i, j) > tol:
                if m.dart_head[d.harm[i]] != m.dart_tail[d.harm[j]]:
                    bad += 1
    for i in range(E):
        for j in range(i + 1, E):
            yy = min(d.rect_y1[i], d.rect_y1[j]) - max(d.rect_y0[i], d.rect_y0[j])
            if yy <= tol:
                continue
            li = reduce_mod(d.rect_x0[i] + d.rect_width[i], eta)
            lj = reduce_mod(d.rect_x0[j] + d.rect_width[j], eta)
            touch_ij = abs(reduce_mod(li - d.rect_x0[j] + eta / 2, eta) - eta / 2) <= zw
            touch_ji = abs(reduce_mod(lj - d.rect_x0[i] + eta / 2, eta) - eta / 2) <= zw
            if touch_ij and m.face_of[d.harm[i]] != m.face_of[d.harm[j] ^ 1]:
                bad += 1
            if touch_ji and m.face_of[d.harm[j]] != m.face_of[d.harm[i] ^ 1]:
                bad += 1
    return bad


def arc_sets(mm: MatedCrtMap) -> tuple:
    """(lower, upper) lists of vertex pairs, for the noncrossing checks."""
    lows, ups = [], []
    for k in range(mm.map.num_edges):
        pair = (int(mm.map.edge_tail[k]), int(mm.map.edge_head[k]))
        if mm.kind[k] == LOWER:
            lows.append(pair)
        elif mm.kind[k] == UPPER:
            ups.append(pair)
    return lows, ups


def noncrossing(pairs) -> bool:
    """Arcs on a line cross iff they interleave: a1 < a2 < b1 < b2."""
    ps = [tuple(sorted(p)) for p in pairs]
    for i in range(len(ps)):
        a1, b1 = ps[i]
        for j in range(i + 1, len(ps)):
            a2, b2 = ps[j]
            if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1:
                return False
    return True


def records(obj):
    """A ``Table`` or ``Rotation`` as ``json.loads`` reads it back: a
    table's rows as dicts of Python scalars, None where null, and a
    rotation's dart lists keyed by ``str(v)``.  As the stdlib encoder's
    ``default`` it raises TypeError on anything else."""
    if type(obj) is Table:
        cols = []
        for a, null in zip(obj.cols, obj.null):
            col = a.tolist()
            if null is not None:
                for i in np.flatnonzero(null).tolist():
                    col[i] = None
            cols.append(col)
        return [dict(zip(obj.fields, row)) for row in zip(*cols)]
    if type(obj) is Rotation:
        darts, ptr = obj.dart.tolist(), obj.ptr.tolist()
        return {str(v): darts[ptr[v]:ptr[v + 1]] for v in range(len(ptr) - 1)}
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dump_json(obj) -> str:
    """``io_json.dump_json`` by the stdlib's indenting encoder, a ``Table``
    or ``Rotation`` written as its records, at any depth."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False,
                      default=records) + "\n"


def _is_int(u) -> bool:
    return isinstance(u, int) and not isinstance(u, bool)


def _is_number(u) -> bool:
    return isinstance(u, (int, float)) and not isinstance(u, bool)


def _finite(u) -> bool:
    """A number held by a finite double; an integer beyond the doubles is
    not one."""
    try:
        return _is_number(u) and math.isfinite(u)
    except OverflowError:
        return False


def _check_fields(obj, where, required, errors):
    if not isinstance(obj, dict):
        errors.append(f"{where}: expected an object")
        return False
    for f in sorted(set(obj) - set(required)):
        errors.append(f"{where}: unknown field {f!r}")
    ok = True
    for f in required:
        if f not in obj:
            errors.append(f"{where}: missing field {f!r}")
            ok = False
    return ok


def map_from_json(obj) -> tuple:
    """``io_json.map_from_json`` checking one record at a time."""
    errors = []
    if not _check_fields(obj, "map", ("schema", "kind", "num_vertices",
                                      "marked", "vertices", "edges",
                                      "rotation"), errors):
        raise SchemaError(errors)
    if obj.get("schema") != SCHEMA:
        errors.append(f"schema: expected {SCHEMA!r}, got {obj.get('schema')!r}")
    if obj.get("kind") != "map":
        errors.append(f"kind: expected 'map', got {obj.get('kind')!r}")
    V = obj.get("num_vertices")
    if not _is_int(V) or V < 2:
        errors.append("num_vertices: need an integer >= 2")
        raise SchemaError(errors)

    marked = obj.get("marked")
    v0 = v1 = None
    if _check_fields(marked, "marked", ("v0", "v1"), errors):
        v0, v1 = marked.get("v0"), marked.get("v1")
        for name, v in (("v0", v0), ("v1", v1)):
            if not _is_int(v) or not (0 <= v < V):
                errors.append(f"marked.{name}: not a vertex id")
                v0 = v1 = None
        if v0 is not None and v0 == v1:
            errors.append("marked: v0 and v1 must differ")
            v0 = v1 = None

    coords = {}
    verts = obj.get("vertices")
    sized = isinstance(verts, list) and len(verts) == V
    if not sized:
        errors.append(f"vertices: expected a list of {V} entries")
    else:
        for i, rec in enumerate(verts):
            if not _check_fields(rec, f"vertices[{i}]",
                                 ("id", "theta", "height"), errors):
                continue
            if isinstance(rec.get("id"), bool) or rec.get("id") != i:
                errors.append(f"vertices[{i}]: id must be {i}")
            th, hh = rec.get("theta"), rec.get("height")
            if (th is None) != (hh is None):
                errors.append(f"vertices[{i}]: theta and height must both be "
                              "numbers or both null")
                continue
            if th is not None and not all(_finite(u) for u in (th, hh)):
                errors.append(f"vertices[{i}]: coordinates must be finite")
                continue
            coords[i] = (th, hh)

    edges_json = obj.get("edges")
    edges = []
    dthetas = []
    dart_tail = {}          # the vertex a dart starts at, where its edge gives one
    if not isinstance(edges_json, list) or not edges_json:
        errors.append("edges: expected a nonempty list")
        edges_json = []
    for k, rec in enumerate(edges_json):
        if not _check_fields(rec, f"edges[{k}]",
                             ("id", "tail", "head", "conductance", "dtheta"),
                             errors):
            continue
        if isinstance(rec.get("id"), bool) or rec.get("id") != k:
            errors.append(f"edges[{k}]: id must be {k}")
        t, h, c = rec.get("tail"), rec.get("head"), rec.get("conductance")
        bad = False
        for name, v, dart in (("tail", t, 2 * k), ("head", h, 2 * k + 1)):
            if not _is_int(v) or not (0 <= v < V):
                errors.append(f"edges[{k}].{name}: not a vertex id")
                bad = True
            else:
                dart_tail[dart] = v
        if not _finite(c) or not (c > 0):
            errors.append(f"edges[{k}].conductance: need a finite positive number")
            bad = True
        dt = rec.get("dtheta")
        if dt is not None and not _finite(dt):
            errors.append(f"edges[{k}].dtheta: need a finite number or null")
            bad = True
        if not bad:
            edges.append((t, h, float(c)))
            dthetas.append(dt)

    rot_json = obj.get("rotation")
    rotation = {}
    if not isinstance(rot_json, dict):
        errors.append("rotation: expected an object keyed by vertex id")
        rot_json = {}
    seen_darts = set()
    for key, cyc in sorted(rot_json.items()):
        try:
            v = int(key)
        except ValueError:
            errors.append(f"rotation[{key!r}]: key is not a vertex id")
            continue
        if str(v) != key or not (0 <= v < V):
            errors.append(f"rotation[{key!r}]: key is not a vertex id")
            continue
        if not isinstance(cyc, list) or not cyc:
            errors.append(f"rotation[{key}]: expected a nonempty dart list")
            continue
        good = []
        for h in cyc:
            if not _is_int(h) or not (0 <= h < 2 * len(edges_json)):
                errors.append(f"rotation[{key}]: invalid dart {h!r}")
                continue
            if h in seen_darts:
                errors.append(f"rotation[{key}]: dart {h} listed twice")
            else:
                seen_darts.add(h)
                good.append(h)
            if dart_tail.get(h, v) != v:
                errors.append(f"rotation[{key}]: dart {h} does not start at vertex {key}")
        rotation[v] = good
    for v in range(V if sized else 0):
        if str(v) not in rot_json:
            errors.append(f"rotation: vertex {v} missing")

    if errors:
        raise SchemaError(errors)

    m = build_map(V, edges, [rotation[v] for v in range(V)], marked=(v0, v1))

    have = [coords.get(x, (None, None))[0] is not None
            for x in range(V) if not m.is_marked(x)]
    have_dt = [dt is not None for dt in dthetas]
    if not any(have) and not any(have_dt):
        return m, None
    if not all(have) or not all(have_dt):
        raise SchemaError(["embedding: coordinates and dtheta must be all "
                           "present or all null"])
    for x in (v0, v1):
        if coords.get(x, (None, None))[0] is not None:
            raise SchemaError([f"vertices[{x}]: marked vertices must have "
                               "null coordinates"])
    theta = np.full(V, math.nan)
    height = np.full(V, math.nan)
    for x, (th, hh) in coords.items():
        if th is not None:
            theta[x], height[x] = th, hh
    emb = CylinderEmbedding(theta, height, np.array(dthetas, dtype=np.float64))
    check_embedding(m, emb)
    return m, emb


def diagram_from_json(obj) -> DiagramData:
    """``io_json.diagram_from_json`` checking one record at a time."""
    errors = []
    if not _check_fields(obj, "diagram", ("schema", "kind", "eta", "rects",
                                          "hsegs", "vsegs"), errors):
        raise SchemaError(errors)
    if obj.get("schema") != SCHEMA:
        errors.append(f"schema: expected {SCHEMA!r}, got {obj.get('schema')!r}")
    if obj.get("kind") != "diagram":
        errors.append(f"kind: expected 'diagram', got {obj.get('kind')!r}")
    eta = obj.get("eta")
    if not _finite(eta) or not (eta > 0):
        errors.append("eta: need a positive number")

    def table(name, fields):
        rows = obj.get(name)
        if not isinstance(rows, list):
            errors.append(f"{name}: expected a list")
            return [[] for _ in fields[1:]]
        cols = [[] for _ in fields[1:]]
        for i, rec in enumerate(rows):
            if not _check_fields(rec, f"{name}[{i}]", fields, errors):
                continue
            if isinstance(rec.get(fields[0]), bool) or rec.get(fields[0]) != i:
                errors.append(f"{name}[{i}]: {fields[0]} must be {i}")
            for j, f in enumerate(fields[1:]):
                u = rec.get(f)
                if not _finite(u):
                    errors.append(f"{name}[{i}].{f}: need a finite number")
                    u = 0.0
                cols[j].append(float(u))
        return cols

    rx0, rw, ry0, ry1 = table("rects", ("edge", "x0", "width", "y0", "y1"))
    hs, hl, hlev = table("hsegs", ("vertex", "start", "length", "level"))
    vx, vy0, vy1 = table("vsegs", ("face", "x", "y0", "y1"))
    if errors:
        raise SchemaError(errors)
    arr = lambda a: np.array(a, dtype=np.float64)
    return DiagramData(float(eta), arr(rx0), arr(rw), arr(ry0), arr(ry1),
                       arr(hs), arr(hl), arr(hlev), arr(vx), arr(vy0), arr(vy1))


def relabel_edges(m, perm, flip):
    """The same map with edge k renamed perm[k], its darts swapped where
    flip[k]; returns the map and the new id of each old dart.  Rotations
    start at each vertex's smallest dart, so the chains start elsewhere."""
    h = np.arange(m.num_darts)
    new = 2 * perm[h >> 1] + ((h & 1) ^ flip[h >> 1])
    tail = np.empty(m.num_edges, dtype=np.int64)
    head = np.empty(m.num_edges, dtype=np.int64)
    cond = np.empty(m.num_edges)
    tail[perm] = np.where(flip, m.edge_head, m.edge_tail)
    head[perm] = np.where(flip, m.edge_tail, m.edge_head)
    cond[perm] = m.conductance
    nxt = np.empty(m.num_darts, dtype=np.int64)
    nxt[new] = new[m.next_dart]
    return CombMap(m.num_vertices, tail, head, cond, nxt, v0=m.v0, v1=m.v1), new


# -- the cycle-by-cycle loops that the array code replaced --------------------
#
# Each function below is the loop form of a program step, kept as it was
# before that step became array code; the tests require the two to agree
# exactly, in their results and in the first error they report.

def map_cycles(num_vertices, edge_tail, edge_head, conductance, next_dart,
               v0=None, v1=None):
    """``CombMap``'s checks and cycles, one vertex and one dart at a time:
    (vertex_darts, face_of, face_darts), or the MapError it raises."""
    edge_tail = np.asarray(edge_tail, dtype=np.int64)
    edge_head = np.asarray(edge_head, dtype=np.int64)
    conductance = np.asarray(conductance, dtype=np.float64)
    next_dart = np.asarray(next_dart, dtype=np.int64)
    E = len(edge_tail)
    dart_tail = np.empty(2 * E, dtype=np.int64)
    dart_tail[0::2] = edge_tail
    dart_tail[1::2] = edge_head
    dart_head = dart_tail[np.arange(2 * E) ^ 1] if E else np.empty(0, dtype=np.int64)

    if E == 0:
        raise MapError("map must have at least one edge")
    for arr, name in ((edge_tail, "tail"), (edge_head, "head")):
        if arr.min(initial=0) < 0 or arr.max(initial=-1) >= num_vertices:
            raise MapError(f"edge {name} out of range")
    if np.any(conductance <= 0) or not np.all(np.isfinite(conductance)):
        raise MapError("conductances must be positive and finite")
    if sorted(next_dart.tolist()) != list(range(2 * E)):
        raise MapError("next_dart is not a permutation of the darts")
    if np.any(dart_tail[next_dart] != dart_tail):
        raise MapError("rotation moves a dart to a different vertex")
    if v0 is not None and v1 is not None and v0 == v1:
        raise MapError("marked vertices must be distinct")
    for v in (v0, v1):
        if v is not None and not (0 <= v < num_vertices):
            raise MapError("marked vertex out of range")

    order = np.argsort(dart_tail, kind="stable")
    bounds = np.searchsorted(dart_tail[order], np.arange(num_vertices + 1))
    vertex_darts = []
    for v in range(num_vertices):
        mine = order[bounds[v]:bounds[v + 1]]
        if len(mine) == 0:
            raise MapError(f"vertex {v} has no incident dart")
        cyc = [int(mine.min())]
        while True:
            nxt = int(next_dart[cyc[-1]])
            if nxt == cyc[0]:
                break
            cyc.append(nxt)
            if len(cyc) > len(mine):
                raise MapError(f"rotation at vertex {v} is not a single cycle")
        if len(cyc) != len(mine):
            raise MapError(f"rotation at vertex {v} is not a single cycle")
        vertex_darts.append(np.array(cyc, dtype=np.int64))

    n = 2 * E
    face_of = np.full(n, -1, dtype=np.int64)
    face_darts = []
    for h0 in range(n):
        if face_of[h0] >= 0:
            continue
        f = len(face_darts)
        orbit = []
        h = h0
        while True:
            face_of[h] = f
            orbit.append(h)
            h = int(next_dart[h ^ 1])
            if h == h0:
                break
        face_darts.append(np.array(orbit, dtype=np.int64))

    seen = np.zeros(num_vertices, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        v = stack.pop()
        for h in vertex_darts[v]:
            w = int(dart_head[h])
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    if not seen.all():
        raise MapError("map is not connected")
    euler = num_vertices - E + len(face_darts)
    if euler != 2:
        raise MapError(f"Euler characteristic {euler} != 2: not a sphere map")
    return vertex_darts, face_of, face_darts


def diagonal_faces(m: CombMap) -> list:
    """``mapgen``'s faces a diagonal may cross, one orbit at a time: those
    with >= 4 corners and no corner at a mark."""
    return [f for f, orbit in enumerate(m.face_darts)
            if len(orbit) >= 4
            and not any(m.is_marked(int(m.dart_tail[g])) for g in orbit)]


def deletable_edges(m: CombMap) -> list:
    """``mapgen``'s edges it may delete, one edge at a time: darts on two
    faces, not a loop, both ends of degree > 2."""
    return [k for k in range(m.num_edges)
            if m.face_of[2 * k] != m.face_of[2 * k + 1]
            and m.edge_tail[k] != m.edge_head[k]
            and m.degree(int(m.edge_tail[k])) > 2
            and m.degree(int(m.edge_head[k])) > 2]


def build_map(num_vertices, edges, rotation, marked=None) -> CombMap:
    """A CombMap from an edge list and per-vertex CCW dart cycles.

    ``edges`` is a sequence of (tail, head, conductance); edge k has darts
    2k and 2k+1.  ``rotation[v]`` lists the darts with tail v in CCW order.
    """
    E = len(edges)
    tails, heads, cond = zip(*edges) if E else ((), (), ())
    lens = np.fromiter(map(len, rotation), dtype=np.int64, count=len(rotation))
    flat = np.fromiter(chain.from_iterable(rotation), dtype=np.int64, count=int(lens.sum()))
    outside = np.flatnonzero((flat < 0) | (flat >= 2 * E))
    if len(outside):
        raise MapError(f"dart {flat[outside[0]]} in rotation data is not a dart of the map")
    _, first = np.unique(flat, return_index=True)
    again = np.ones(len(flat), dtype=bool)
    again[first] = False
    if again.any():
        raise MapError(f"dart {flat[np.argmax(again)]} appears twice in rotation data")
    v0, v1 = (None, None) if marked is None else marked
    return CombMap(num_vertices, tails, heads, cond, next_dart_from(flat, lens, 2 * E),
                   v0=v0, v1=v1)


def rotation_next(edges, rotation) -> np.ndarray:
    """``build_map``'s next_dart, one listed dart at a time."""
    E = len(edges)
    nxt = np.full(2 * E, -1, dtype=np.int64)
    for v, cyc in enumerate(rotation):
        for i, h in enumerate(cyc):
            if nxt[h] != -1:
                raise MapError(f"dart {h} appears twice in rotation data")
            nxt[h] = cyc[(i + 1) % len(cyc)]
    if np.any(nxt < 0):
        raise MapError("rotation data does not cover every dart")
    return nxt


def lattice(n: int, H: float) -> tuple:
    """``make_lattice`` one vertex and one edge at a time: (num_vertices,
    edges, rotation, marked, theta, height, dtheta)."""
    M, s = lattice_shape(n, H)
    V = n * M + 2
    v0, v1 = n * M, n * M + 1

    def vid(r, j):
        return r * n + (j % n)

    edges = []
    dtheta = []
    for r in range(M):
        for j in range(n):
            edges.append((vid(r, j), vid(r, j + 1), 1.0))
            dtheta.append(s)
    eh = len(edges)
    for r in range(M - 1):
        for j in range(n):
            edges.append((vid(r, j), vid(r + 1, j), 1.0))
            dtheta.append(0.0)
    eb = len(edges)
    for j in range(n):
        edges.append((v0, vid(0, j), 1.0))
        dtheta.append(0.0)
    et = len(edges)
    for j in range(n):
        edges.append((vid(M - 1, j), v1, 1.0))
        dtheta.append(0.0)

    rotation = []
    for r in range(M):
        for j in range(n):
            east = 2 * (r * n + j)
            west = 2 * (r * n + (j - 1) % n) + 1
            north = 2 * (eh + r * n + j) if r < M - 1 else 2 * (et + j)
            south = 2 * (eh + (r - 1) * n + j) + 1 if r > 0 else 2 * (eb + j) + 1
            rotation.append([east, north, west, south])
    rotation.append([2 * (eb + j) for j in range(n - 1, -1, -1)])
    rotation.append([2 * (et + j) + 1 for j in range(n)])

    theta = np.empty(V)
    height = np.empty(V)
    for r in range(M):
        for j in range(n):
            theta[vid(r, j)] = TWO_PI * j / n
            height[vid(r, j)] = (r - (M - 1) / 2.0) * s
    theta[v0] = theta[v1] = math.nan
    height[v0] = height[v1] = math.nan
    return V, edges, rotation, (v0, v1), theta, height, np.array(dtheta)


def wrap_signed(x: float) -> float:
    """``map_core.wrap_signed_array`` on one float: reduce to (-pi, pi]."""
    r = math.fmod(x, TWO_PI)
    if r <= -math.pi:
        r += TWO_PI
    elif r > math.pi:
        r -= TWO_PI
    return r


def check_embedding(m: CombMap, emb: CylinderEmbedding, tol: float = 1e-9) -> None:
    """``map_core.check_embedding`` one vertex, one edge and one face at a
    time."""
    if (len(emb.theta), len(emb.height), len(emb.dtheta)) != \
            (m.num_vertices, m.num_vertices, m.num_edges):
        raise MapError("embedding arrays have wrong length")
    for x in range(m.num_vertices):
        if not m.is_marked(x) and not (math.isfinite(emb.theta[x])
                                       and math.isfinite(emb.height[x])):
            raise MapError(f"vertex {x}: coordinates must be finite")
    for k in range(m.num_edges):
        if not math.isfinite(emb.dtheta[k]):
            raise MapError(f"edge {k}: dtheta must be finite")
    for k in range(m.num_edges):
        t, h = int(m.edge_tail[k]), int(m.edge_head[k])
        if m.is_marked(t) or m.is_marked(h):
            if emb.dtheta[k] != 0.0:
                raise MapError(f"edge {k} touches a marked vertex but has dtheta != 0")
            continue
        want = wrap_signed(emb.theta[h] - emb.theta[t] - emb.dtheta[k])
        if abs(want) > tol:
            raise MapError(f"edge {k}: dtheta inconsistent with theta difference")
    for f, orbit in enumerate(m.face_darts):
        if any(m.is_marked(int(m.dart_tail[h])) for h in orbit):
            continue
        s = float(np.sum(emb.dart_dtheta(orbit)))
        if abs(s) > tol:
            raise MapError(f"face {f}: displacement cycle sum {s} != 0")


def face_mean_lifts(m: CombMap, emb: CylinderEmbedding) -> np.ndarray:
    """``map_core._face_mean_lifts`` one face and one dart at a time."""
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


def dual_points(m: CombMap, emb: CylinderEmbedding) -> tuple:
    """(rep_theta, rep_height, pole_faces) of ``map_core.dual``, one face at
    a time; rep_theta, each face's representative angle in [0, 2 pi), is
    local to ``dual``, which picks the base face by it."""
    f0 = {int(m.face_of[h]) for h in m.vertex_darts[m.v0]}
    f1 = {int(m.face_of[h]) for h in m.vertex_darts[m.v1]}
    pole_faces = (sorted(f0), sorted(f1))
    rep_theta = np.array([wrap_angle(x) for x in face_mean_lifts(m, emb)])
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
    return rep_theta, rep_height, pole_faces


def dirichlet_system(m: CombMap) -> tuple:
    """``electrical.dirichlet_system`` one edge at a time."""
    V = m.num_vertices
    interior = np.array([v for v in range(V) if not m.is_marked(v)], dtype=np.int64)
    idx = np.full(V, -1, dtype=np.int64)
    idx[interior] = np.arange(len(interior))

    rows, cols, vals = [], [], []
    b = np.zeros(len(interior))
    diag = np.zeros(len(interior))
    for k in range(m.num_edges):
        u, w = int(m.edge_tail[k]), int(m.edge_head[k])
        c = float(m.conductance[k])
        if u == w:
            continue
        for a, bb in ((u, w), (w, u)):
            if idx[a] >= 0:
                diag[idx[a]] += c
                if idx[bb] >= 0:
                    rows.append(idx[a])
                    cols.append(idx[bb])
                    vals.append(-c)
                elif bb == m.v1:
                    b[idx[a]] += c

    n = len(interior)
    A = sp.csr_matrix((vals + list(diag), (rows + list(range(n)),
                                           cols + list(range(n)))), shape=(n, n))
    return interior, A, b, diag


def jacobi_cg_voltage(m: CombMap) -> tuple:
    """Jacobi-CG on all n unknowns, the preconditioner handed to CG as
    M = diag^-1, with ``electrical.solve_voltage``'s tolerance and budget:
    (voltage, the number of CG iterations), the reference for the
    red-black Schur CG.  The residual checks are left out."""
    interior, A, b, diag = dirichlet_system(m)
    n = len(interior)
    iters = []
    x, info = spla.cg(A, b, rtol=1e-13, atol=0.0, M=sp.diags(1.0 / diag),
                      maxiter=10 * math.ceil(math.sqrt(n)), callback=iters.append)
    assert info == 0
    h = np.zeros(m.num_vertices)
    h[m.v1] = 1.0
    h[interior] = np.clip(x, 0.0, 1.0)
    v = Voltage(m, snap_clusters(m, h), 0.0, 0.0, 0.0)
    v.eta = float(np.sum(dart_flow(v, m.vertex_darts[m.v0])))
    return v, len(iters)


def dual_map(m: CombMap) -> CombMap:
    """``map_core.dual``'s map built through ``CombMap``: dual dart h runs
    from the face right of primal dart h to the face left of it, and its
    next dart is g ^ 1 for the dart g that next_dart takes to h: the
    inverse permutation, by sorting."""
    return CombMap(m.num_faces, m.face_of[0::2], m.face_of[1::2], 1.0 / m.conductance,
                   np.argsort(m.next_dart) ^ 1)


def build_diagram(m: CombMap, dmap: DualMap, v: Voltage, c: Conjugate,
                  tol: float = 1e-9) -> SmithDiagram:
    """``smith_tiling.build_diagram`` one vertex and one face at a time."""
    E = m.num_edges
    eta = v.eta
    h = v.values
    harm = harmonic_darts(v)
    widths = dart_flow(v, harm)
    if np.any(widths < -tol):
        raise TilingError("negative width on a harmonically oriented edge")
    widths = np.maximum(widths, 0.0)
    y0 = h[m.dart_tail[harm]]
    y1 = h[m.dart_head[harm]]
    # the face left of the upward dart carries the smaller w
    x0 = np.array([reduce_mod(c.w_lift[m.face_of[harm[k] ^ 1]], eta) for k in range(E)])

    flows = dart_flow(v, np.arange(m.num_darts))
    hseg_start = np.zeros(m.num_vertices)
    hseg_len = np.zeros(m.num_vertices)
    sheet = np.zeros(m.num_darts, dtype=np.int64)
    scale = max(1.0, eta)
    # machine-scale flow floor: it only needs to separate exactly-symmetric
    # dead clusters (roundoff-size flows) from genuine weak currents, and the
    # contiguity checks below absorb anything between the two scales
    zf = 1e-12 * max(1.0, float(np.abs(flows).max()))
    # each flow carries cancellation noise ~ eps * conductance, so the chain
    # checks around a vertex cannot resolve below the incident conductance sum;
    # w values inherit the integration error bound carried by the conjugate
    eps = float(np.finfo(np.float64).eps)
    vs = float(max(1.0, np.abs(h).max()))
    werr = c.w_err

    for x in range(m.num_vertices):
        if m.is_marked(x):
            hseg_start[x] = 0.0
            hseg_len[x] = eta
            continue
        darts = m.vertex_darts[x]
        fl = flows[darts]
        noise = 8.0 * eps * vs * float(np.sum(m.conductance[np.asarray(darts) >> 1]))
        # classify with a flow tolerance: exact symmetries leave whole clusters
        # at one potential, where rounding noise must not masquerade as current;
        # a one-sided star cannot carry balanced current, so it is noise too
        cls = np.where(fl > zf, 1, np.where(fl < -zf, -1, 0))
        if not ((cls > 0).any() and (cls < 0).any()):
            # all incident flows vanish: degenerate point segment
            hseg_start[x] = reduce_mod(c.w_lift[m.face_of[darts[0]]], eta)
            hseg_len[x] = 0.0
            for g in darts:
                k = int(g) >> 1
                a = hseg_start[x]
                sheet[g] = round((a - x0[k]) / eta)
            continue
        # the chain starts where a falling run begins: at the first falling
        # dart whose previous dart of nonzero class is rising (a zero-class
        # dart inside a falling run does not end the run); one exists, as
        # the vertex has darts of both classes
        n = len(darts)
        for start_i in np.flatnonzero(cls < 0).tolist():
            j = start_i - 1
            while cls[j] == 0:      # negative indices wrap around the rotation
                j -= 1
            if cls[j] > 0:
                break
        anchor = reduce_mod(c.w_lift[m.face_of[darts[start_i]]], eta)
        werr_a = float(werr[m.face_of[darts[start_i]]])
        # crossing a dart CCW moves from its right face to its left, where w
        # is smaller by the flow
        pos = 0.0
        lo = hi = 0.0
        up_lo, up_hi = math.inf, -math.inf
        dn_lo, dn_hi = math.inf, -math.inf
        for j in range(n):
            i = (start_i + j) % n
            g = int(darts[i])
            f = float(flows[g])
            nxt = pos - f
            rlo = min(pos, nxt)
            lo, hi = min(lo, nxt), max(hi, nxt)
            if cls[i] > 0:
                up_lo, up_hi = min(up_lo, rlo), max(up_hi, rlo + f)
            elif cls[i] < 0:
                dn_lo, dn_hi = min(dn_lo, rlo), max(dn_hi, rlo - f)
            k = g >> 1
            s = round((anchor + rlo - x0[k]) / eta)
            allow = tol * scale + noise + 8.0 * (werr_a + float(werr[m.face_of[harm[k] ^ 1]]))
            if abs(anchor + rlo - x0[k] - s * eta) > allow:
                raise TilingError(f"vertex {x}: rectangle of edge {k} misaligned "
                                  "with the segment chain")
            sheet[g] = s
            pos = nxt
        if abs(pos) > tol * scale + noise:
            raise TilingError(f"vertex {x}: flows do not balance around the rotation")
        if lo < -tol * scale - noise:
            raise TilingError(f"vertex {x}: segment union not contiguous modulo eta")
        if dn_lo < math.inf and (abs(up_lo - dn_lo) > tol * scale + noise
                                 or abs(up_hi - dn_hi) > tol * scale + noise):
            raise TilingError(f"vertex {x}: incoming and outgoing unions differ")
        hseg_start[x] = reduce_mod(anchor + up_lo, eta) if up_lo < math.inf else anchor
        hseg_len[x] = max(0.0, hi - lo)
        if hseg_len[x] > eta + tol * scale + noise:
            raise TilingError(f"vertex {x}: segment longer than the circumference")
        # sheets refer to the stored segment frame: the reduction above may
        # move the chain origin by whole periods, and lifted drifts compare
        # tail and head frames through the shared rectangle
        r = round((anchor + up_lo - hseg_start[x]) / eta) if up_lo < math.inf else 0
        if r:
            for g in darts:
                sheet[int(g)] -= r

    # vertical segments: union of edge voltage intervals on each side of a face
    F = m.num_faces
    vx = np.array([reduce_mod(c.w_lift[f], eta) for f in range(F)])
    vy0 = np.full(F, np.nan)
    vy1 = np.full(F, np.nan)
    east, west = [[] for _ in range(F)], [[] for _ in range(F)]
    for k in range(E):
        iv = (float(y0[k]), float(y1[k]))
        east[int(m.face_of[harm[k] ^ 1])].append(iv)   # rect east of its left face
        west[int(m.face_of[harm[k]])].append(iv)       # rect west of its right face
    for f in range(F):
        spans = []
        for ivs in (east[f], west[f]):
            if not ivs:
                continue
            ivs.sort()
            lo, hi = ivs[0]
            for a, b in ivs[1:]:
                if a > hi + tol:
                    raise TilingError(f"face {f}: vertical segment union not contiguous")
                hi = max(hi, b)
            spans.append((lo, hi))
        if not spans:
            raise TilingError(f"face {f}: no incident edges")
        if len(spans) == 2 and (abs(spans[0][0] - spans[1][0]) > tol
                                or abs(spans[0][1] - spans[1][1]) > tol):
            raise TilingError(f"face {f}: left and right unions differ")
        vy0[f], vy1[f] = spans[0]

    return SmithDiagram(m, dmap, v, c, eta, harm, x0, widths, y0, y1,
                        hseg_start, hseg_len, h.copy(), vx, vy0, vy1, sheet)


def face_side_unions(m: CombMap, h) -> list:
    """Per face, the unions of the voltage intervals of the rectangles east
    and west of it, one edge at a time: each a sorted list of disjoint
    closed intervals, where touching intervals merge, and empty for a side
    with no rectangle.  ``h`` is any voltage per vertex."""
    h = np.asarray(h, dtype=np.float64)
    harm = harmonic_darts(Voltage(m, h, 0.0, 1.0, 0.0))
    sides = [([], []) for _ in range(m.num_faces)]
    for k in range(m.num_edges):
        iv = (float(h[m.dart_tail[harm[k]]]), float(h[m.dart_head[harm[k]]]))
        sides[int(m.face_of[harm[k] ^ 1])][0].append(iv)   # rect east of its left face
        sides[int(m.face_of[harm[k]])][1].append(iv)       # rect west of its right face
    out = []
    for east, west in sides:
        merged = ([], [])
        for ivs, union in zip((east, west), merged):
            for a, b in sorted(ivs):
                if union and a <= union[-1][1]:
                    union[-1] = (union[-1][0], max(union[-1][1], b))
                else:
                    union.append((a, b))
        out.append(merged)
    return out


def smith_embedding(d: SmithDiagram) -> np.ndarray:
    """The points of ``smith_tiling.smith_embedding``, one vertex at a time."""
    V = d.map.num_vertices
    pts = np.zeros((V, 2))
    for x in range(V):
        if d.map.is_marked(x):
            pts[x] = (0.0, 0.0 if x == d.map.v0 else 1.0)
        else:
            pts[x] = (reduce_mod(d.hseg_start[x] + d.hseg_len[x] / 2.0, d.eta),
                      d.hseg_level[x])
    return pts


def dart_drift(d: SmithDiagram, dart: int) -> float:
    """Lifted displacement of segment midpoints across one walk step, read
    off the tiling of the map the dart belongs to.  Held against
    ``walk_lab._graded_drift`` with ``d`` the tiling of the graded map.

    Sums of drifts telescope: around any closed dart cycle they add up to
    eta times the cycle's winding.
    """
    m = d.map
    x, y = int(m.dart_tail[dart]), int(m.dart_head[dart])
    mid_x = d.hseg_start[x] + d.hseg_len[x] / 2.0
    mid_y = d.hseg_start[y] + d.hseg_len[y] / 2.0
    shift = int(d.sheet[dart]) - int(d.sheet[dart ^ 1])
    return mid_y - mid_x + d.eta * shift


def cover_defects(d) -> dict:
    """The cover defect D(a) of ``smith_tiling.validate`` at each level a,
    level by level: sort the breakpoints of the pieces that start or end
    at a, and on each gap between consecutive ones count the pieces of
    either kind that cover it."""
    eta = d.eta
    start, end = defaultdict(list), defaultdict(list)
    start[1.0].append((0.0, eta))
    end[0.0].append((0.0, eta))
    for k in range(len(d.rect_x0)):
        if d.rect_width[k] > 0 and d.rect_y1[k] > d.rect_y0[k]:
            pieces = _circle_pieces(float(d.rect_x0[k]), float(d.rect_width[k]), eta)
            start[float(d.rect_y0[k])].extend(pieces)
            end[float(d.rect_y1[k])].extend(pieces)
    out = {}
    for a in sorted(set(start) | set(end)):
        points = sorted({x for piece in start[a] + end[a] for x in piece})
        out[a] = 0.0
        for p, q in zip(points[:-1], points[1:]):
            n_start = sum(1 for lo, hi in start[a] if lo <= p and hi >= q)
            n_end = sum(1 for lo, hi in end[a] if lo <= p and hi >= q)
            out[a] += abs(n_start - n_end) * (q - p)
    return out


def slab_sweep(d) -> tuple:
    """The overlap area and the coverage defect |eta - covered area| of a
    diagram, slab by slab between consecutive distinct rectangle levels:
    mask the active rectangles of each slab and merge their sorted pieces
    through a running right end.  Independent of ``validate``'s cover
    check, whose defects sum to at least the sum of these two."""
    eta = d.eta
    ys = np.unique(np.concatenate([d.rect_y0, d.rect_y1]))
    overlap_area = 0.0
    covered = 0.0
    for a, b in zip(ys[:-1], ys[1:]):
        act = np.flatnonzero((d.rect_y0 <= a) & (d.rect_y1 >= b) & (d.rect_width > 0))
        pieces = []
        for k in act:
            pieces.extend(_circle_pieces(float(d.rect_x0[k]), float(d.rect_width[k]), eta))
        pieces.sort()
        total = sum(q - p for p, q in pieces)
        union = 0.0
        cur_lo, cur_hi = None, None
        for p, q in pieces:
            if cur_hi is None or p > cur_hi:
                if cur_hi is not None:
                    union += cur_hi - cur_lo
                cur_lo, cur_hi = p, q
            else:
                cur_hi = max(cur_hi, q)
        if cur_hi is not None:
            union += cur_hi - cur_lo
        overlap_area += (total - union) * (b - a)
        covered += union * (b - a)
    return overlap_area, abs(eta * 1.0 - covered)


def reference_validate(d):
    """``smith_tiling.validate`` with loops: ``cover_defects`` for the cover
    check, and each vertex level masked separately."""
    eta = d.eta
    heights = d.rect_y1 - d.rect_y0
    aspect = np.abs(d.rect_width - d.map.conductance * heights)
    max_aspect = float(aspect.max()) if len(aspect) else 0.0
    area_defect = abs(float(np.sum(d.rect_width * heights)) - eta)
    max_level = 0.0
    for a in np.unique(d.hseg_level):
        seg = float(np.sum(d.hseg_len[d.hseg_level == a]))
        span = float(np.sum(d.rect_width[(d.rect_y0 < a) & (d.rect_y1 > a)]))
        max_level = max(max_level, abs(seg + span - eta))
    return TilingReport(eta, max(cover_defects(d).values()), area_defect,
                        max_aspect, max_level, float(d.hseg_len.max()))


def fit_affine(se: SmithEmbedding, emb: CylinderEmbedding,
               band: float = 1.0) -> AffineFit:
    """``convergence.fit_affine`` one vertex at a time."""
    m = se.diagram.map
    eta = se.eta
    K = [x for x in range(m.num_vertices)
         if not m.is_marked(x) and np.isfinite(emb.height[x])
         and abs(emb.height[x]) <= band]
    if len(K) < 2:
        raise ValueError("band contains fewer than two vertices")
    s_re = se.points[K, 0]
    s_im = se.points[K, 1]
    if np.ptp(s_im) <= 1e-15:
        raise ValueError("degenerate fit: single Smith height in the band")
    A = np.stack([s_im, np.ones(len(K))], axis=1)
    sol, *_ = np.linalg.lstsq(A, emb.height[K], rcond=None)
    c_h, b_h = float(sol[0]), float(sol[1])

    alpha = emb.theta[K] - (TWO_PI / eta) * s_re
    b_w = math.atan2(float(np.mean(np.sin(alpha))), float(np.mean(np.cos(alpha))))
    b_w = wrap_angle(b_w)

    herr = np.abs(c_h * s_im + b_h - emb.height[K])
    aerr = np.array([abs(wrap_signed((TWO_PI / eta) * s_re[i] + b_w - emb.theta[K[i]]))
                     for i in range(len(K))])
    sup = float(np.max(np.hypot(aerr, herr)))
    return AffineFit(c_h, b_h, b_w, eta, band, len(K), sup,
                     float(herr.max()), float(aerr.max()))


# -- the mated-CRT steps one at a time, and plain rejection ----------------------

def sample_excursion(gamma: float, n: int, seed: int,
                     max_attempts: int = 200_000) -> Excursion:
    """Plain rejection, one draw at a time: both bridges drawn and the pair
    accepted iff both stay >= 0.  Its excursions have the law of
    ``mated_crt.sample_excursion``'s but are other draws; the regression
    fixtures build their maps from it, so their known outputs stay put."""
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


def sample_shifted_excursion(gamma: float, n: int, seed: int,
                             max_attempts: int = 200_000) -> Excursion:
    """``mated_crt.sample_excursion`` one attempt, one draw at a time: L's
    bridge restarted at its first minimum, R = rho dl + root (centred z1)
    accepted iff it stays >= 0."""
    if not (0.0 < gamma < 2.0):
        raise ValueError("gamma must lie in (0, 2)")
    if n < 2:
        raise ValueError("need at least two cells")
    rho = -math.cos(math.pi * gamma * gamma / 4.0)
    root = math.sqrt(max(0.0, 1.0 - rho * rho))
    rng = make_rng(seed)
    for attempt in range(1, max_attempts + 1):
        z = rng.standard_normal((2, n)) / math.sqrt(n)
        lv = np.concatenate([[0.0], np.cumsum(z[0] - z[0].mean())[:-1]])
        k = int(np.argmin(lv))
        l = np.concatenate([lv[k:], lv[:k + 1]]) - lv[k]
        dl = np.diff(l)
        dr = rho * dl + root * (z[1] - z[1].mean())
        rv = np.concatenate([[0.0], np.cumsum(dr)])
        rv[-1] = 0.0
        if rv.min() >= 0.0:
            return Excursion(n, dl, dr, l, rv, attempt)
    raise SampleError(
        f"no excursion in {max_attempts} attempts at n={n} "
        f"(acceptance rate below {1.0 / max_attempts:.2e}; lower n)")


def arc_pairs(C: np.ndarray) -> list:
    """``mated_crt._arc_pairs`` by the O(n^2) scan with running gap minima:
    for each left cell, the right cells in order until the gap falls below
    the left cell's minimum (it can only keep falling)."""
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


def mated_map(exc: Excursion) -> tuple:
    """``mated_crt.build_map`` with per-vertex sorted lists: (n, edges,
    rotation, kind), the arguments of ``build_map`` for the same map."""
    exc.check()
    n = exc.n
    edges = []
    kind = []
    lower_at = [[] for _ in range(n)]   # (far_vertex, edge_index)
    upper_at = [[] for _ in range(n)]
    for j in range(1, n):
        edges.append((j - 1, j, 1.0))
        kind.append(LINE)
    for (j1, j2) in arc_pairs(exc.l):
        k = len(edges)
        edges.append((j1 - 1, j2 - 1, 1.0))
        kind.append(LOWER)
        lower_at[j1 - 1].append((j2 - 1, k))
        lower_at[j2 - 1].append((j1 - 1, k))
    for (j1, j2) in arc_pairs(exc.r):
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
    return n, edges, rotation, kind


# -- the BFS tree, the cut winding and refinement before they ran as array code

def bfs_tree(m: CombMap, root: int) -> tuple:
    """The queue loop ``map_core.bfs_tree`` replaced: (tree_dart, depth, order),
    with depth -1 at unreached vertices and order the vertices as the queue
    pops them."""
    head, darts, ptr = m.dart_head.tolist(), m.vert_dart.tolist(), m.vert_ptr.tolist()
    tree = [-1] * m.num_vertices
    depth = [-1] * m.num_vertices
    depth[root] = 0
    order = []
    queue = deque([root])
    while queue:
        f = queue.popleft()
        order.append(f)
        for h in darts[ptr[f]:ptr[f + 1]]:
            g = head[h]
            if depth[g] < 0:
                depth[g] = depth[f] + 1
                tree[g] = h
                queue.append(g)
    return np.array(tree, dtype=np.int64), np.array(depth), order


def components(num_vertices: int, tail, head) -> np.ndarray:
    """``map_core.components`` by breadth-first search from each unreached
    vertex in increasing order, which is then its component's smallest."""
    adj = [[] for _ in range(num_vertices)]
    for a, b in zip(np.asarray(tail).tolist(), np.asarray(head).tolist()):
        adj[a].append(b)
        adj[b].append(a)
    root = [-1] * num_vertices
    for s in range(num_vertices):
        if root[s] >= 0:
            continue
        root[s] = s
        queue = deque([s])
        while queue:
            for y in adj[queue.popleft()]:
                if root[y] < 0:
                    root[y] = s
                    queue.append(y)
    return np.array(root, dtype=np.int64)


def marked_cut_path(m: CombMap) -> np.ndarray:
    """``map_core.marked_cut_path`` as a queue loop that stops at v1."""
    if m.v0 is None or m.v1 is None:
        raise MapError("cut path needs both marked vertices")
    darts, ptr, head = m.vert_dart.tolist(), m.vert_ptr.tolist(), m.dart_head.tolist()
    parent = {m.v0: -1}
    queue = deque([m.v0])
    while queue:
        v = queue.popleft()
        if v == m.v1:
            break
        for h in darts[ptr[v]:ptr[v + 1]]:
            w = head[h]
            if w not in parent:
                parent[w] = h
                queue.append(w)
    path = []
    v = m.v1
    while parent[v] != -1:
        h = parent[v]
        path.append(h)
        v = int(m.dart_tail[h])
    return np.array(path[::-1], dtype=np.int64)


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


def insert_vertices(m: CombMap, emb: CylinderEmbedding | None, points):
    """``map_core.insert_vertices`` edge by edge: a dict of fractions per
    edge, one chain of sub-edges per split edge, then the chains' 2-cycles."""
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

        def side(x):
            # v0 sits one unit below the deepest vertex, v1 one unit above
            return -(hmax + 1.0) if x == m.v0 else hmax + 1.0

        if um and wm:
            return 0.0, side(u) + t * (side(w) - side(u))
        if um and u == m.v0:
            # pole at t = 0: come up from one unit below the deepest vertex
            hh = emb.height[w] - (1.0 - t) * (emb.height[w] + hmax + 1.0)
            return wrap_angle(emb.theta[w]), hh
        if um:
            return wrap_angle(emb.theta[w]), emb.height[w] + (1.0 - t) * (hmax + 1.0 - emb.height[w])
        if w == m.v1:
            return wrap_angle(emb.theta[u]), emb.height[u] + t * (hmax + 1.0 - emb.height[u])
        if wm:
            return wrap_angle(emb.theta[u]), emb.height[u] - t * (emb.height[u] + hmax + 1.0)
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
    nxt[first_dart] = first_dart[m.next_dart]
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


def augment_all_levels(m: CombMap, v: Voltage, extra=()) -> Augmented:
    """``walk_lab.augment_all_levels`` edge by edge, through the loop
    ``insert_vertices`` above, at tol ``walk_lab.LEVEL_TOL``."""
    tol = walk_lab.LEVEL_TOL
    extra = np.atleast_1d(np.asarray(extra, dtype=np.float64))
    if not np.all(np.isfinite(extra)):
        raise ValueError("heights must be finite")
    if np.any((extra <= 0.0) | (extra >= 1.0)):
        raise ValueError("heights must lie strictly between 0 and 1")
    levels = _merge_levels(list(realized_levels(m, v)) + extra.tolist())
    points, new_vals = [], []
    for k in range(m.num_edges):
        ht = float(v.values[m.edge_tail[k]])
        hh = float(v.values[m.edge_head[k]])
        lo, hi = min(ht, hh), max(ht, hh)
        if hi - lo <= 2 * tol:
            continue
        inside = levels[(levels > lo + tol) & (levels < hi - tol)]
        ts = sorted((float((a - ht) / (hh - ht)), float(a)) for a in inside)
        for t, a in ts:
            points.append((k, t))
            new_vals.append(a)
    if not points:
        return Augmented(m, v, m, np.arange(m.num_edges))
    m2, _emb, origin = insert_vertices(m, None, points)
    # insert_vertices numbers new vertices in (edge, fraction) order = points order
    vals2 = np.concatenate([v.values, np.array(new_vals)])
    v2 = Voltage(m2, vals2, v.residual, v.eta, v.eta_mismatch)
    return Augmented(m2, v2, m, origin)


def assert_same_map(m, ref) -> None:
    """Every field of m, cached lists included, equals ref's, with the same
    dtypes, and m's arrays are read-only."""
    for f in ("num_vertices", "num_edges", "num_darts", "num_faces", "v0", "v1"):
        assert getattr(m, f) == getattr(ref, f), f
    for f in CombMap.ARRAYS + ("marked",):
        a, b = getattr(m, f), getattr(ref, f)
        assert a.dtype == b.dtype and np.array_equal(a, b), f
        assert not a.flags.writeable, f
    for f in ("vertex_darts", "face_darts"):
        assert len(getattr(m, f)) == len(getattr(ref, f))
        assert all(np.array_equal(a, b) for a, b in zip(getattr(m, f), getattr(ref, f))), f
    assert m.step_rows == ref.step_rows


def assert_same_refinement(m, emb, m_ref, emb_ref) -> None:
    """Two refined maps and their embeddings (or None) agree array for array."""
    assert (m.num_vertices, m.v0, m.v1) == (m_ref.num_vertices, m_ref.v0, m_ref.v1)
    for name in ("edge_tail", "edge_head", "conductance", "next_dart"):
        assert np.array_equal(getattr(m, name), getattr(m_ref, name)), name
    assert (emb is None) == (emb_ref is None)
    if emb is not None:
        for name in ("theta", "height", "dtheta"):
            assert np.array_equal(getattr(emb, name), getattr(emb_ref, name),
                                  equal_nan=True), name


# -- the walk-layer steps before they ran as array code ------------------------

def step_law(m: CombMap, x: int) -> dict:
    """One-step distribution over neighbours: P(y) = sum c_xy / pi(x), each
    sum added dart by dart in rotation order."""
    darts = m.vertex_darts[x]
    c = m.conductance[darts >> 1]
    tot = float(c.sum())
    law: dict = {}
    for h, w in zip(darts, c):
        y = int(m.dart_head[h])
        law[y] = law.get(y, 0.0) + float(w) / tot
    return law


def level_set(m: CombMap, v: Voltage, a: float, tol: float = 1e-12) -> np.ndarray:
    """Non-marked vertices within tol of level a, in ascending id, one vertex
    at a time (``walk_lab.level_sets`` of one level)."""
    return np.array([x for x in range(m.num_vertices)
                     if not m.is_marked(x) and abs(v.values[x] - a) <= tol],
                    dtype=np.int64)


def level_measure(m: CombMap, v: Voltage, a: float, tol: float = 1e-12,
                  balance_tol: float = 1e-9) -> LevelMeasure:
    """``walk_lab.level_measures`` of the one level a, vertex by vertex."""
    ht, hh = v.values[m.edge_tail], v.values[m.edge_head]
    crossing = (np.minimum(ht, hh) + tol < a) & (a < np.maximum(ht, hh) - tol)
    if crossing.any():
        k = int(np.argmax(crossing))
        raise LevelNotVertexed(f"edge {k} crosses level {a} away from a vertex")
    verts = level_set(m, v, a, tol)
    if len(verts) == 0:
        raise ValueError(f"level {a} is not realized by any vertex")
    mass = np.zeros(len(verts))
    for i, x in enumerate(verts):
        fl = dart_flow(v, m.vertex_darts[x])
        inflow = -float(fl[fl < 0].sum())
        outflow = float(fl[fl > 0].sum())
        csum = float(np.sum(m.conductance[np.asarray(m.vertex_darts[x]) >> 1]))
        if abs(inflow - outflow) > balance_tol * max(1.0, inflow, csum):
            raise ValueError(f"vertex {x}: flow imbalance {inflow - outflow}")
        mass[i] = inflow / v.eta
    return LevelMeasure(a, verts, mass)


def absorption_probs(m: CombMap, absorbing) -> tuple:
    """Exact absorption distribution: rows P(X hits w first | start v), the
    absorbing set in ascending id.  A dense solve of (I - P_free) X =
    P_free->absorbing, with P and B filled dart by dart."""
    absorbing = sorted(set(int(x) for x in absorbing))
    if not absorbing:
        raise ValueError("absorbing set must be nonempty")
    V = m.num_vertices
    col = {w: j for j, w in enumerate(absorbing)}
    free = [x for x in range(V) if x not in col]
    fidx = {x: i for i, x in enumerate(free)}
    nf, na = len(free), len(absorbing)
    P = np.zeros((nf, nf))
    B = np.zeros((nf, na))
    pi = m.pi_weight
    for i, x in enumerate(free):
        for g in m.vertex_darts[x]:
            y = int(m.dart_head[g])
            p = float(m.conductance[g >> 1]) / pi[x]
            if y in col:
                B[i, col[y]] += p
            else:
                P[i, fidx[y]] += p
    out = np.zeros((V, na))
    for w, j in col.items():
        out[w, j] = 1.0
    if nf:
        out[free] = np.linalg.solve(np.eye(nf) - P, B)
    return out, np.array(absorbing, dtype=np.int64)


def projected_step_law(m: CombMap, originals, x: int) -> dict:
    """``walk_lab.projected_step_law`` one row at a time: for the start x,
    one dense absorption solve at the originals other than x, x left free so
    that returns to it are summed by the solve."""
    originals = set(int(s) for s in originals)
    targets = sorted(originals - {int(x)})
    probs, order = absorption_probs(m, targets)
    return {int(w): float(probs[int(x), j]) for j, w in enumerate(order)}


# -- the Monte Carlo walks before they shared walk_lab.walk --------------------
# A numpy search over the cumulative conductances and one rng.random() per
# step: the walk kernel must reproduce these loops bit for bit.

def ref_sample_dart(m, rng, v):
    at = m.vertex_darts[v]
    cum = np.cumsum(m.conductance[at >> 1])
    r = rng.random() * cum[-1]
    i = min(int(np.searchsorted(cum, r, side="right")), len(at) - 1)
    return int(at[i])


def ref_simulate(m, start, stop, seed):
    rng = make_rng(seed)
    verts, darts = [start], []
    v = start
    while v not in stop:
        h = ref_sample_dart(m, rng, v)
        v = int(m.dart_head[h])
        darts.append(h)
        verts.append(v)
    return darts, verts


def ref_invariance(m, height, starts, h_lo, h_hi, walks, seed):
    """Top-exit frequencies and the longest single walk."""
    lo = {x for x in range(m.num_vertices) if height[x] <= h_lo + 1e-9}
    hi = {x for x in range(m.num_vertices) if height[x] >= h_hi - 1e-9}
    stop = lo | hi
    rng = make_rng(seed)
    p_hat, longest = [], 0
    for s in starts:
        hits = 0
        for _ in range(walks):
            v, steps = s, 0
            while v not in stop:
                steps += 1
                v = int(m.dart_head[ref_sample_dart(m, rng, v)])
            longest = max(longest, steps)
            hits += v in hi
        p_hat.append(hits / walks)
    return np.array(p_hat), longest
