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
``dump_json`` writes the stdlib's bytes: sorted keys, two-space indent,
trailing newline.  ``map_to_json`` and ``diagram_to_json`` hold their tables
(``vertices``, ``edges``, ``rects``, ``hsegs``, ``vsegs``) as ``Table``s:
one array per field, with a null mask for a float field.  The ``rotation``
is a ``Rotation``, held by the map's ``vert_ptr`` and ``vert_dart``.  Of a
document's top-level entries, each ``Table`` and the ``Rotation`` fill one
%-template, and a list of floats (a solution's ``h`` and ``w``) is written
as one column.  Their floats are formatted together, once per distinct bit
pattern, since a vertex voltage reappears as a segment level and as
rectangle and segment bounds; 0.0 and -0.0 keep their own reprs.  Every
other entry, and a document that is not a dict with string keys, goes to
``json.dumps``.  So a ``Table`` or ``Rotation`` is written only as a
top-level entry of a dict document, where the writers put them; one
anywhere else raises TypeError, as any object the stdlib cannot encode
does.

The readers check each table (``vertices``, ``edges``, ``rotation``,
``rects``, ``hsegs``, ``vsegs``) a column at a time: the field set of every
record, the id sequence 0, 1, 2, ..., the type of every value, and, with
numpy, ranges, finiteness, repeated darts and darts listed under a vertex
they do not start at.  Only ``str(v)`` names vertex v in the rotation.
They report every violation in one SchemaError, record by record in
document order.  A JSON boolean is neither a number nor an id, though
Python counts it as an int, and an integer too large for a double is not a
finite number.  ``map_from_json`` then builds the map from the columns its
checks made: the tail, head and conductance arrays, and ``next_dart`` from
the rotation's darts and list lengths by ``map_core.next_dart_from``.  An a
priori embedding must then pass ``map_core.check_embedding``.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from .map_core import (INDEX, INDEX_LIMIT, CombMap, CylinderEmbedding, check_embedding,
                       next_dart_from)

SCHEMA = "smith/1"


class SchemaError(ValueError):
    """Carries the full list of violations in .errors."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


def dump_json(obj) -> str:
    """The bytes of ``json.dumps(obj, indent=2, sort_keys=True,
    allow_nan=False) + "\n"``, where a top-level ``Table`` entry stands for
    its records (one dict per row, None where null) and a top-level
    ``Rotation`` entry for its dart lists keyed by ``str(v)``.

    A dict with string keys is written entry by entry in sorted key order:
    a ``Table`` by ``_table`` and a ``Rotation`` by ``_rotation``, a
    nonempty list of exact floats as one float column, and anything else
    by the stdlib, each line it writes indented once more.  The float
    columns of the tables and of the lists are formatted together by
    ``_table_text``.  Any other ``obj`` goes to the stdlib whole.  The
    stdlib raises TypeError on a ``Table`` or ``Rotation`` it meets."""
    if type(obj) is not dict or not obj or not all(type(k) is str for k in obj):
        return _stdlib(obj) + "\n"
    keys = sorted(obj)
    values = [obj[k] for k in keys]
    lists = [type(u) is list and set(map(type, u)) == {float} for u in values]
    values = [Table({"": u}) if f else u for u, f in zip(values, lists)]
    text = _table_text([u for u in values if type(u) is Table])
    out = ["{"]
    for k, u, f in zip(keys, values, lists):
        if f:
            v = "[\n    " + ",\n    ".join(text[id(u)][0]) + "\n  ]"
        elif type(u) is Table:
            v = _table(u, text[id(u)], "\n  ")
        elif type(u) is Rotation:
            v = _rotation(u, "\n  ")
        else:
            v = _stdlib(u).replace("\n", "\n  ")
        out += ["\n  ", encode_basestring_ascii(k), ": ", v, ","]
    out[-1] = "\n}\n"
    return "".join(out)         # each entry is copied once, into the result


def _stdlib(obj) -> str:
    """The stdlib's indenting encoder."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


class Table:
    """A table of a document (``vertices``, ``edges``, ``rects``, ...) held
    by column for ``dump_json``: one record per row, the field names in
    sorted order.

    ``cols`` holds one int or float array per field, all of one length;
    ``null`` per field None, or for a float column a boolean mask of the
    entries written as null, whose array values are ignored."""

    def __init__(self, columns: dict, null: dict | None = None):
        null = null or {}
        self.fields = sorted(columns)
        self.cols = [np.asarray(columns[f]) for f in self.fields]
        self.null = [None if null.get(f) is None else np.asarray(null[f], dtype=bool)
                     for f in self.fields]
        n = len(self.cols[0])
        for f, a, mask in zip(self.fields, self.cols, self.null):
            if a.ndim != 1 or a.dtype.kind not in "iuf" or len(a) != n:
                raise TypeError(f"table column {f!r}: need a 1-d int or float "
                                "array as long as the others")
            if mask is not None and (a.dtype.kind != "f" or mask.shape != a.shape):
                raise TypeError(f"table column {f!r}: a null mask needs a float "
                                "column of its length")

    def __len__(self) -> int:
        return len(self.cols[0])


class Rotation:
    """A map's rotation object held by its arrays for ``dump_json``: the
    darts of vertex v in counterclockwise order are ``dart[ptr[v]:ptr[v +
    1]]``, keyed by ``str(v)``."""

    def __init__(self, ptr, dart):
        self.ptr = np.asarray(ptr, dtype=INDEX)
        self.dart = np.asarray(dart, dtype=INDEX)


def _table_text(tables) -> dict:
    """The column values of each table as the %-operands of ``_table``, by
    the table's id: the ints of an int column, the encoded entries of a
    float column.

    The floats of all the tables are formatted together, ``float.__repr__``
    running once per distinct bit pattern (so 0.0 and -0.0 stay apart);
    null entries are written as null."""
    floats = [a if null is None else a[~null]
              for t in tables for a, null in zip(t.cols, t.null) if a.dtype.kind == "f"]
    if floats:
        flat = np.concatenate(floats, dtype=np.float64)
        if not np.isfinite(flat).all():
            raise ValueError("Out of range float values are not JSON compliant")
        bits, inverse = np.unique(flat.view(np.int64), return_inverse=True)
        reprs = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())),
                         dtype=object)[inverse]
        floats = iter(np.split(reprs, np.cumsum(list(map(len, floats)))[:-1]))
    out = {}
    for t in tables:
        cols = out[id(t)] = []
        for a, null in zip(t.cols, t.null):
            if a.dtype.kind != "f":
                cols.append(a.tolist())
            elif null is None:
                cols.append(next(floats).tolist())
            else:
                col = np.full(len(a), "null", dtype=object)
                col[~null] = next(floats)
                cols.append(col.tolist())
    return out


def _table(t, cols, nl) -> str:
    """A table's records, filled into one %-template: ints by %d, which
    writes int.__repr__'s digits, and floats and nulls by %s from their
    encoded entries."""
    if not len(t):
        return "[]"
    inner, field = nl + "  ", nl + "    "
    spec = [": %s" if a.dtype.kind == "f" else ": %d" for a in t.cols]
    record = "{" + field + ("," + field).join(
        encode_basestring_ascii(f).replace("%", "%%") + s
        for f, s in zip(t.fields, spec)) + inner + "}"
    return ("[" + inner + ("," + inner).join([record] * len(t)) + nl + "]") % tuple(
        chain.from_iterable(zip(*cols)))


def _rotation(r, nl) -> str:
    """A rotation object, filled into one %-template: in the order of the
    sorted keys, each vertex's id and then its darts, under a template that
    depends on its degree only."""
    V = len(r.ptr) - 1
    if not V:
        return "{}"
    inner, item = nl + "  ", nl + "    "
    keys = np.argsort(np.arange(V).astype(str), kind="stable")
    deg = np.diff(r.ptr)[keys]
    form = {k: '"%d": [' + item + ("," + item).join(["%d"] * k) + inner + "]" if k
            else '"%d": []' for k in set(deg.tolist())}
    first = np.cumsum(deg) - deg            # each vertex's first dart in key order
    at = np.arange(int(deg.sum())) + np.repeat(r.ptr[keys] - first, deg)
    values = np.insert(r.dart[at], first, keys)
    return ("{" + inner + ("," + inner).join(map(form.__getitem__, deg.tolist()))
            + nl + "}") % tuple(values.tolist())


def _numbered(key, floats, ints=None, null=None) -> Table:
    """A table numbered by the field key from 0, with float and int
    columns."""
    cols = {f: np.asarray(a, dtype=np.float64) for f, a in floats.items()}
    n = len(next(iter(cols.values())))
    return Table({key: np.arange(n), **cols, **(ints or {})}, null)


# -- reading tables -----------------------------------------------------------------

def _int_type(t) -> bool:
    return issubclass(t, int) and t is not bool


def _number_type(t) -> bool:
    return issubclass(t, (int, float)) and t is not bool


def _null_type(t) -> bool:
    return t is type(None)


def _typed(col, accept, types=None) -> np.ndarray:
    """Mask of the entries of col whose type passes accept, which is asked
    once per distinct type; ``types`` is the set of col's types if known."""
    types = set(map(type, col)) if types is None else types
    ok = {t for t in types if accept(t)}
    if len(ok) == len(types) or not ok:
        return np.full(len(col), bool(ok))
    return np.fromiter(map(ok.__contains__, map(type, col)), dtype=bool, count=len(col))


def _double(u) -> float:
    try:
        return float(u)
    except OverflowError:
        return math.nan


def _numbers(col, ok=None) -> np.ndarray:
    """col as float64, nan at each entry that is not a number and at each
    integer too large for a double; ``ok`` is the mask of the numbers if
    known."""
    ok = _typed(col, _number_type) if ok is None else ok
    vals = col if ok.all() else list(compress(col, ok))
    out = np.full(len(col), np.nan)
    try:
        out[ok] = vals
    except OverflowError:
        out[ok] = list(map(_double, vals))
    return out


def _nullable(col) -> tuple:
    """(col as ``_numbers`` reads it, the mask of its nulls), from one scan
    of the types: in a column of numbers and nulls only, the nulls are the
    entries that are not numbers."""
    types = set(map(type, col))
    ok = _typed(col, _number_type, types)
    if all(_number_type(t) or _null_type(t) for t in types):
        null = ~ok
    else:
        null = _typed(col, _null_type, types)
    return _numbers(col, ok), null


def _below(col, hi) -> np.ndarray:
    """col as INDEX, -1 at each entry that is not an integer in [0, hi);
    no map has INDEX_LIMIT vertices or darts, so no id reaches it."""
    ok = _typed(col, _int_type)
    v = np.array(col if ok.all() else list(compress(col, ok)))  # float64 or object beyond int64
    inside = (v >= 0) & (v < min(hi, INDEX_LIMIT))
    out = np.full(len(col), -1, dtype=INDEX)
    out[np.flatnonzero(ok)[inside]] = v[inside]
    return out


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


def _header(obj, kind, fields) -> list:
    """Check a document's fields ("schema", "kind" and fields) and its
    schema and kind.  SchemaError at once if obj is not an object or lacks
    a field; else the errors found, for the caller to extend."""
    errors = []
    if not _check_fields(obj, kind, ("schema", "kind", *fields), errors):
        raise SchemaError(errors)
    if obj.get("schema") != SCHEMA:
        errors.append(f"schema: expected {SCHEMA!r}, got {obj.get('schema')!r}")
    if obj.get("kind") != kind:
        errors.append(f"kind: expected {kind!r}, got {obj.get('kind')!r}")
    return errors


def _fields(records, fields) -> list:
    """One list per field of its values over the records; KeyError if a
    record lacks one."""
    return [list(map(dict.__getitem__, records, repeat(f))) for f in fields]


class _Table:
    """The records of one table, checked a column at a time.

    A record that is not an object or lacks a field is reported and left
    out; ``rows`` numbers the records kept and ``cols`` maps each field to
    its values over them.  ``flag`` reports the kept records a mask marks.
    ``errors`` lists the reports by record, and within a record in the
    order of the checks that made them."""

    def __init__(self, rows, where, fields):
        self.where = where
        self._found = []
        kept = _typed(rows, lambda t: issubclass(t, dict))
        objs = list(compress(rows, kept))
        try:
            cols = _fields(objs, fields)
            clean = kept.all() and sum(map(len, objs)) == len(fields) * len(objs)
        except KeyError:
            clean = False
        if not clean:
            want = dict.fromkeys(fields).keys()
            odd = ~kept
            odd[kept] = list(map(want.__ne__, map(dict.keys, objs)))
            for i in np.flatnonzero(odd).tolist():
                msgs = []
                kept[i] = _check_fields(rows[i], f"{where}[{i}]", fields, msgs)
                self._found += [(i, e) for e in msgs]
            cols = _fields(list(compress(rows, kept)), fields)
        self.rows = np.flatnonzero(kept)
        self.cols = dict(zip(fields, cols))

    def flag(self, bad, text):
        """Report each kept record that the mask bad marks, by its name and
        text, where {} stands for the record's number."""
        self._found += [(i, f"{self.where}[{i}]" + text.format(i))
                        for i in self.rows[bad].tolist()]

    def ids(self, field):
        """Report the records whose field is not their number."""
        self.flag(_numbers(self.cols[field]) != self.rows, f": {field} must be {{}}")

    def errors(self) -> list:
        return [e for _, e in sorted(self._found, key=operator.itemgetter(0))]


def _vertex_key(key):
    """The vertex a rotation key names: v for the key str(v) only."""
    try:
        v = int(key)
    except ValueError:
        return None
    return v if str(v) == key else None


def _vertex_ids(keys, V) -> np.ndarray:
    """The vertex each rotation key names as INDEX, -1 where the key is not
    str(v) for a vertex v.  The keys are read as integers in one pass and
    written back in another; only a batch in which some key does not come
    back the same is read key by key."""
    try:
        ids = list(map(int, keys))
    except (TypeError, ValueError):
        ids = None
    if ids is None or list(map(str, ids)) != keys:
        ids = list(map(_vertex_key, keys))
    return _below(ids, V)


# -- map ------------------------------------------------------------------------

def map_to_json(m: CombMap, emb: CylinderEmbedding | None = None) -> dict:
    if m.v0 is None:
        raise ValueError("map JSON requires the marked pair")
    V, E = m.num_vertices, m.num_edges
    if emb is None:
        theta = height = np.zeros(V)
        dtheta = np.zeros(E)
        unplaced, no_dt = np.ones(V, dtype=bool), np.ones(E, dtype=bool)
    else:
        theta, height, dtheta = emb.theta, emb.height, emb.dtheta
        unplaced, no_dt = m.marked, None
    return {
        "schema": SCHEMA,
        "kind": "map",
        "num_vertices": V,
        "marked": {"v0": m.v0, "v1": m.v1},
        "vertices": _numbered("id", {"theta": theta, "height": height},
                              null={"theta": unplaced, "height": unplaced}),
        "edges": _numbered("id", {"conductance": m.conductance, "dtheta": dtheta},
                           ints={"tail": m.edge_tail, "head": m.edge_head},
                           null={"dtheta": no_dt}),
        "rotation": Rotation(m.vert_ptr, m.vert_dart),
    }


def map_from_json(obj) -> tuple:
    """Validate exhaustively, then build.  Returns (map, embedding-or-None).

    An embedding must also pass ``map_core.check_embedding``, whose MapError
    names the first vertex, edge or face that breaks it."""
    errors = _header(obj, "map", ("num_vertices", "marked", "vertices", "edges",
                                  "rotation"))
    V = obj.get("num_vertices")
    if not _int_type(type(V)) or V < 2:
        errors.append("num_vertices: need an integer >= 2")
        raise SchemaError(errors)

    marked = obj.get("marked")
    v0 = v1 = None
    if _check_fields(marked, "marked", ("v0", "v1"), errors):
        v0, v1 = marked.get("v0"), marked.get("v1")
        for name, v in (("v0", v0), ("v1", v1)):
            if not _int_type(type(v)) or not (0 <= v < V):
                errors.append(f"marked.{name}: not a vertex id")
                v0 = v1 = None
        if v0 is not None and v0 == v1:
            errors.append("marked: v0 and v1 must differ")
            v0 = v1 = None

    verts = obj.get("vertices")
    sized = isinstance(verts, list) and len(verts) == V
    if not sized:
        errors.append(f"vertices: expected a list of {V} entries")
        verts = []
    vt = _Table(verts, "vertices", ("id", "theta", "height"))
    vt.ids("id")
    theta, null = _nullable(vt.cols["theta"])
    height, null_height = _nullable(vt.cols["height"])
    paired = null == null_height
    vt.flag(~paired, ": theta and height must both be numbers or both null")
    vt.flag(paired & ~null & ~(np.isfinite(theta) & np.isfinite(height)),
            ": coordinates must be finite")
    errors += vt.errors()

    edges_json = obj.get("edges")
    if not isinstance(edges_json, list) or not edges_json:
        errors.append("edges: expected a nonempty list")
        edges_json = []
    et = _Table(edges_json, "edges", ("id", "tail", "head", "conductance", "dtheta"))
    et.ids("id")
    ends = [_below(et.cols[name], V) for name in ("tail", "head")]
    for name, end in zip(("tail", "head"), ends):
        et.flag(end < 0, f".{name}: not a vertex id")
    cond = _numbers(et.cols["conductance"])
    et.flag(~(np.isfinite(cond) & (cond > 0)),
            ".conductance: need a finite positive number")
    dtheta, no_dt = _nullable(et.cols["dtheta"])
    et.flag(~no_dt & ~np.isfinite(dtheta), ".dtheta: need a finite number or null")
    errors += et.errors()

    rot_json = obj.get("rotation")
    if not isinstance(rot_json, dict):
        errors.append("rotation: expected an object keyed by vertex id")
        rot_json = {}
    keys = sorted(rot_json)
    ids = _vertex_ids(keys, V)
    cycles = list(map(rot_json.__getitem__, keys))
    is_list = _typed(cycles, lambda t: issubclass(t, list))
    lens = np.zeros(len(keys), dtype=INDEX)
    lens[is_list] = list(map(len, compress(cycles, is_list)))
    used = (ids >= 0) & (lens > 0)
    lens = lens[used]
    darts = list(chain.from_iterable(compress(cycles, used)))
    owner = np.repeat(np.flatnonzero(used).astype(INDEX), lens)
    flat = _below(darts, 2 * len(edges_json))
    valid = flat >= 0
    _, first = np.unique(flat[valid], return_index=True)
    again = valid.copy()
    again[np.flatnonzero(valid)[first]] = False
    # the vertex each dart starts at, -1 where its edge's end is not known
    dart_tail = np.full((len(edges_json), 2), -1, dtype=INDEX)
    dart_tail[et.rows] = np.stack(ends, axis=1)
    at = dart_tail.ravel()[flat[valid]]
    astray = valid.copy()
    astray[valid] = (at >= 0) & (at != ids[owner[valid]])
    owner = owner.tolist()
    found = [(k, 0, f"rotation[{keys[k]!r}]: key is not a vertex id")
             for k in np.flatnonzero(ids < 0).tolist()]
    found += [(k, 0, f"rotation[{keys[k]}]: expected a nonempty dart list")
              for k in np.flatnonzero((ids >= 0) & ~used).tolist()]
    found += [(owner[j], j, f"rotation[{keys[owner[j]]}]: invalid dart {darts[j]!r}")
              for j in np.flatnonzero(~valid).tolist()]
    found += [(owner[j], j, f"rotation[{keys[owner[j]]}]: dart {darts[j]} listed twice")
              for j in np.flatnonzero(again).tolist()]
    found += [(owner[j], j, f"rotation[{keys[owner[j]]}]: dart {darts[j]} does not "
               f"start at vertex {keys[owner[j]]}") for j in np.flatnonzero(astray).tolist()]
    errors += [e for *_, e in sorted(found, key=operator.itemgetter(0, 1))]
    if sized:
        # V is only as trusted as the vertex list: a bare count must not
        # cost an error per vertex
        missing = np.ones(V, dtype=bool)
        missing[ids[ids >= 0]] = False
        errors += [f"rotation: vertex {v} missing" for v in np.flatnonzero(missing).tolist()]

    if errors:
        raise SchemaError(errors)

    # every key is a vertex's and every dart in its key's list once, so the
    # checked columns are the map: the key order of the cycles does not matter
    m = CombMap(V, *ends, cond, next_dart_from(flat, lens, 2 * len(edges_json)), v0, v1)

    have = ~null[~m.marked]
    if not have.any() and no_dt.all():
        return m, None
    if not have.all() or no_dt.any():
        raise SchemaError(["embedding: coordinates and dtheta must be all "
                           "present or all null"])
    for x in (v0, v1):
        if not null[x]:
            raise SchemaError([f"vertices[{x}]: marked vertices must have "
                               "null coordinates"])
    emb = CylinderEmbedding(theta, height, dtheta)
    check_embedding(m, emb)
    return m, emb


# -- solution ---------------------------------------------------------------------

def solution_to_json(v, c) -> dict:
    return {"schema": SCHEMA, "kind": "solution", "eta": float(v.eta),
            "residual": float(v.residual), "h": v.values.tolist(),
            "w": c.w(np.arange(len(c.w_lift))).tolist()}


# -- diagram ----------------------------------------------------------------------

def diagram_to_json(d) -> dict:
    return {"schema": SCHEMA, "kind": "diagram", "eta": float(d.eta),
            "rects": _numbered("edge", {"x0": d.rect_x0, "width": d.rect_width,
                                        "y0": d.rect_y0, "y1": d.rect_y1}),
            "hsegs": _numbered("vertex", {"start": d.hseg_start, "length": d.hseg_len,
                                          "level": d.hseg_level}),
            "vsegs": _numbered("face", {"x": d.vseg_x, "y0": d.vseg_y0, "y1": d.vseg_y1})}


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
    errors = _header(obj, "diagram", ("eta", "rects", "hsegs", "vsegs"))
    eta = obj.get("eta")
    if not _number_type(type(eta)) or not 0 < _double(eta) < math.inf:
        errors.append("eta: need a positive number")

    def table(name, fields):
        rows = obj.get(name)
        if not isinstance(rows, list):
            errors.append(f"{name}: expected a list")
            rows = []
        t = _Table(rows, name, fields)
        t.ids(fields[0])
        cols = [_numbers(t.cols[f]) for f in fields[1:]]
        for f, a in zip(fields[1:], cols):
            t.flag(~np.isfinite(a), f".{f}: need a finite number")
        errors.extend(t.errors())
        return cols

    rects = table("rects", ("edge", "x0", "width", "y0", "y1"))
    hsegs = table("hsegs", ("vertex", "start", "length", "level"))
    vsegs = table("vsegs", ("face", "x", "y0", "y1"))
    if errors:
        raise SchemaError(errors)
    return DiagramData(float(eta), *rects, *hsegs, *vsegs)
