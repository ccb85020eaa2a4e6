"""JSON serialization, schema "smith/1".

Documents (all carry "schema" and "kind"):

map: {"schema", "kind": "map", "num_vertices", "marked": {"v0", "v1"},
      "vertices": [{"id", "theta", "height"}],       coords null at marked
      "edges": [{"id", "tail", "head", "conductance", "dtheta"}],
      "rotation": {"<vertex>": [darts CCW]}}
      Either every vertex coordinate and edge dtheta is a number (an a priori
      embedding) or all of them are null (combinatorial map only).

solution: {"schema", "kind": "solution", "eta", "residual",
           "h": [per vertex], "w": [per face, reduced mod eta]}

diagram: {"schema", "kind": "diagram", "eta",
          "rects": [{"edge", "x0", "width", "y0", "y1"}],
          "hsegs": [{"vertex", "start", "length", "level"}],
          "vsegs": [{"face", "x", "y0", "y1"}]}

Numbers are written by Python's float repr (shortest string that round-trips
the IEEE double), so a document parsed back from ``dump_json`` is bit-exact.
``dump_json`` is deterministic: sorted keys, two-space indent, trailing
newline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .map_core import CombMap, CylinderEmbedding, build_map

SCHEMA = "smith/1"


class SchemaError(ValueError):
    """Carries the full list of violations in .errors."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


def dump_json(obj) -> str:
    """The bytes of ``json.dumps(obj, indent=2, sort_keys=True,
    allow_nan=False) + "\n"``, written without the stdlib's pure-Python
    indenting encoder.

    Scalars are encoded by ``float.__repr__``, ``int.__repr__`` and
    ``encode_basestring_ascii``, a whole column of one type at a time; a list
    of dicts with one key set (the records of a table) fills one %-template
    per record.  What this writer does not cover (keys that are not strings,
    scalar subclasses, unknown types, non-finite floats) goes to the stdlib,
    which encodes it or raises its own error."""
    try:
        return _encode(obj, "\n") + "\n"
    except _Unsupported:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


class _Unsupported(Exception):
    """A value that dump_json leaves to the stdlib encoder."""


def _floats(col):
    if not all(map(math.isfinite, col)):
        raise _Unsupported
    return list(map(float.__repr__, col))


# encoders of a list of scalars of one exact type
_COLUMN = {
    float: _floats,
    int: lambda col: list(map(int.__repr__, col)),
    str: lambda col: list(map(encode_basestring_ascii, col)),
    bool: lambda col: ["true" if u else "false" for u in col],
    type(None): lambda col: ["null"] * len(col),
}


def _column(col, nl):
    """The encoded items of a nonempty list, their nested lines starting
    with nl."""
    kinds = set(map(type, col))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind in _COLUMN:
        return _COLUMN[kind](col)
    if kind is dict and col[0] and all(map(col[0].keys().__eq__, map(dict.keys, col))):
        return _records(col, nl)
    return [_encode(u, nl) for u in col]


def _records(rows, nl):
    """Dicts that share one key set, by one %-template filled per record."""
    if not all(type(k) is str for k in rows[0]):
        raise _Unsupported
    keys = sorted(rows[0])
    inner = nl + "  "
    cols = [_column([rec[k] for rec in rows], inner) for k in keys]
    template = "{" + inner + ("," + inner).join(
        encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys) + nl + "}"
    return [template % values for values in zip(*cols)]


def _encode(obj, nl) -> str:
    """One value whose first line is already placed and whose nested lines
    start with nl."""
    enc = _COLUMN.get(type(obj))
    if enc is not None:
        return enc([obj])[0]
    inner = nl + "  "
    if type(obj) is dict:
        if not obj:
            return "{}"
        if not all(type(k) is str for k in obj):
            raise _Unsupported
        return "{" + inner + ("," + inner).join(
            encode_basestring_ascii(k) + ": " + _encode(obj[k], inner)
            for k in sorted(obj)) + nl + "}"
    if type(obj) in (list, tuple):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join(_column(obj, inner)) + nl + "]"
    raise _Unsupported


# -- map ------------------------------------------------------------------------

def map_to_json(m: CombMap, emb: CylinderEmbedding | None = None) -> dict:
    if m.v0 is None:
        raise ValueError("map JSON requires the marked pair")
    verts = []
    for x in range(m.num_vertices):
        th = hh = None
        if emb is not None and not m.is_marked(x):
            th, hh = float(emb.theta[x]), float(emb.height[x])
        verts.append({"id": x, "theta": th, "height": hh})
    edges = []
    for k in range(m.num_edges):
        edges.append({
            "id": k,
            "tail": int(m.edge_tail[k]),
            "head": int(m.edge_head[k]),
            "conductance": float(m.conductance[k]),
            "dtheta": None if emb is None else float(emb.dtheta[k]),
        })
    darts, ptr = m.vert_dart.tolist(), m.vert_ptr.tolist()
    rotation = {str(v): darts[ptr[v]:ptr[v + 1]] for v in range(m.num_vertices)}
    return {
        "schema": SCHEMA,
        "kind": "map",
        "num_vertices": m.num_vertices,
        "marked": {"v0": m.v0, "v1": m.v1},
        "vertices": verts,
        "edges": edges,
        "rotation": rotation,
    }


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
    """Validate exhaustively, then build.  Returns (map, embedding-or-None)."""
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
    if not isinstance(V, int) or V < 2:
        errors.append("num_vertices: need an integer >= 2")
        raise SchemaError(errors)

    marked = obj.get("marked")
    v0 = v1 = None
    if _check_fields(marked, "marked", ("v0", "v1"), errors):
        v0, v1 = marked.get("v0"), marked.get("v1")
        for name, v in (("v0", v0), ("v1", v1)):
            if not isinstance(v, int) or not (0 <= v < V):
                errors.append(f"marked.{name}: not a vertex id")
                v0 = v1 = None
        if v0 is not None and v0 == v1:
            errors.append("marked: v0 and v1 must differ")
            v0 = v1 = None

    coords = {}
    verts = obj.get("vertices")
    if not isinstance(verts, list) or len(verts) != V:
        errors.append(f"vertices: expected a list of {V} entries")
    else:
        for i, rec in enumerate(verts):
            if not _check_fields(rec, f"vertices[{i}]",
                                 ("id", "theta", "height"), errors):
                continue
            if rec.get("id") != i:
                errors.append(f"vertices[{i}]: id must be {i}")
            th, hh = rec.get("theta"), rec.get("height")
            if (th is None) != (hh is None):
                errors.append(f"vertices[{i}]: theta and height must both be "
                              "numbers or both null")
                continue
            if th is not None and not all(
                    isinstance(u, (int, float)) and math.isfinite(u)
                    for u in (th, hh)):
                errors.append(f"vertices[{i}]: coordinates must be finite")
                continue
            coords[i] = (th, hh)

    edges_json = obj.get("edges")
    edges = []
    dthetas = []
    if not isinstance(edges_json, list) or not edges_json:
        errors.append("edges: expected a nonempty list")
        edges_json = []
    for k, rec in enumerate(edges_json):
        if not _check_fields(rec, f"edges[{k}]",
                             ("id", "tail", "head", "conductance", "dtheta"),
                             errors):
            continue
        if rec.get("id") != k:
            errors.append(f"edges[{k}]: id must be {k}")
        t, h, c = rec.get("tail"), rec.get("head"), rec.get("conductance")
        bad = False
        for name, v in (("tail", t), ("head", h)):
            if not isinstance(v, int) or not (0 <= v < V):
                errors.append(f"edges[{k}].{name}: not a vertex id")
                bad = True
        if not isinstance(c, (int, float)) or not (c > 0) or not math.isfinite(c):
            errors.append(f"edges[{k}].conductance: need a finite positive number")
            bad = True
        dt = rec.get("dtheta")
        if dt is not None and not (isinstance(dt, (int, float)) and math.isfinite(dt)):
            errors.append(f"edges[{k}].dtheta: need a finite number or null")
            bad = True
        if not bad:
            edges.append((t, h, float(c)))
            dthetas.append(dt)

    rot_json = obj.get("rotation")
    rotation = [[] for _ in range(V)]
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
        if not (0 <= v < V):
            errors.append(f"rotation[{key!r}]: key is not a vertex id")
            continue
        if not isinstance(cyc, list) or not cyc:
            errors.append(f"rotation[{key}]: expected a nonempty dart list")
            continue
        good = []
        for h in cyc:
            if not isinstance(h, int) or not (0 <= h < 2 * len(edges_json)):
                errors.append(f"rotation[{key}]: invalid dart {h!r}")
            elif h in seen_darts:
                errors.append(f"rotation[{key}]: dart {h} listed twice")
            else:
                seen_darts.add(h)
                good.append(h)
        rotation[v] = good
    for v in range(V):
        if isinstance(rot_json, dict) and str(v) not in rot_json:
            errors.append(f"rotation: vertex {v} missing")

    if errors:
        raise SchemaError(errors)

    m = build_map(V, edges, rotation, marked=(v0, v1))

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
    return m, emb


# -- solution ---------------------------------------------------------------------

def solution_to_json(v, c=None) -> dict:
    out = {
        "schema": SCHEMA,
        "kind": "solution",
        "eta": float(v.eta),
        "residual": float(v.residual),
        "h": [float(u) for u in v.values],
    }
    if c is not None:
        out["w"] = c.w(np.arange(len(c.w_lift))).tolist()
    return out


# -- diagram ----------------------------------------------------------------------

def diagram_to_json(d) -> dict:
    rects = [{"edge": k,
              "x0": float(d.rect_x0[k]),
              "width": float(d.rect_width[k]),
              "y0": float(d.rect_y0[k]),
              "y1": float(d.rect_y1[k])}
             for k in range(len(d.rect_x0))]
    hsegs = [{"vertex": x,
              "start": float(d.hseg_start[x]),
              "length": float(d.hseg_len[x]),
              "level": float(d.hseg_level[x])}
             for x in range(len(d.hseg_start))]
    vsegs = [{"face": f,
              "x": float(d.vseg_x[f]),
              "y0": float(d.vseg_y0[f]),
              "y1": float(d.vseg_y1[f])}
             for f in range(len(d.vseg_x))]
    return {"schema": SCHEMA, "kind": "diagram", "eta": float(d.eta),
            "rects": rects, "hsegs": hsegs, "vsegs": vsegs}


@dataclass
class DiagramData:
    """Geometry-only stand-in for a tiling, enough to render."""
    eta: float
    rect_x0: np.ndarray
    rect_width: np.ndarray
    rect_y0: np.ndarray
    rect_y1: np.ndarray
    hseg_start: np.ndarray
    hseg_len: np.ndarray
    hseg_level: np.ndarray
    vseg_x: np.ndarray
    vseg_y0: np.ndarray
    vseg_y1: np.ndarray


def diagram_from_json(obj) -> DiagramData:
    errors = []
    if not _check_fields(obj, "diagram", ("schema", "kind", "eta", "rects",
                                          "hsegs", "vsegs"), errors):
        raise SchemaError(errors)
    if obj.get("schema") != SCHEMA:
        errors.append(f"schema: expected {SCHEMA!r}, got {obj.get('schema')!r}")
    if obj.get("kind") != "diagram":
        errors.append(f"kind: expected 'diagram', got {obj.get('kind')!r}")
    eta = obj.get("eta")
    if not isinstance(eta, (int, float)) or not (eta > 0):
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
            if rec.get(fields[0]) != i:
                errors.append(f"{name}[{i}]: {fields[0]} must be {i}")
            for j, f in enumerate(fields[1:]):
                u = rec.get(f)
                if not isinstance(u, (int, float)) or not math.isfinite(u):
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

