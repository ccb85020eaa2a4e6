"""JSON schema round-trips and the command-line interface."""

import copy
import hashlib
import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import build_map
from smithtile import (conjugate, dual, make_lattice, render_svg, solve_voltage,
                       tile)
from smithtile import cli
from smithtile.cli import _read_map, main
from smithtile.io_json import (SCHEMA, Rotation, SchemaError, Table, diagram_from_json,
                               diagram_to_json, dump_json, map_from_json,
                               map_to_json, solution_to_json)
from smithtile.map_core import CylinderEmbedding, MapError


# -- json schema ---------------------------------------------------------------

def test_dump_json_format():
    s = dump_json({"b": 1, "a": [1.5, None]})
    assert s == '{\n  "a": [\n    1.5,\n    null\n  ],\n  "b": 1\n}\n'
    for bad in (float("nan"), float("inf"), -float("inf")):
        for obj in ({"x": bad}, [1.0, bad], [{"a": 1.0}, {"a": bad}], bad,
                    {"h": [1.0, bad]}, {"h": [0.5, bad]}):
            with pytest.raises(ValueError, match="not JSON compliant"):
                dump_json(obj)
    with pytest.raises(TypeError, match="not JSON serializable"):
        dump_json({"x": [np.int64(3)]})


class Level(int):
    pass


EDGE_DOCUMENTS = [
    {}, [], "", 0, -0.0, 1e300, -1e-300, 5e-324, 2**70, -(2**70), True, False, None,
    {"a": [], "b": {}, "c": [[]], "d": [{}], "e": [{}, {}]},
    {"nested": {"deeper": [[1, [2.5, {"x": None}]], {"y": [True, False]}]}},
    {"caf\u00e9 \u2603 \U0001f600": "\"quoted\"\\ back\tslash\n\x00\x1f\u2028"},
    {"%s": 1, "100%": "50%", "%(x)s": [{"%": 1, "%%": 2}]},
    [{"a": 1, "b": 2.0}, {"b": 3.0, "a": 4}, {"a": None, "b": -0.0}],
    [{"a": 1}, {"a": 1, "b": 2}, {"b": [1, 2]}, {}],
    [{"a": 1}, {"a": 2, "b": 3}],
    [{"a": 1, "b": 2}, {"a": 1, "c": 2}],
    [{"rec": {"in": [1, 2]}, "t": (1, 2)}, {"rec": {"in": []}, "t": ()}],
    [1, 1.0, True, None, "1", [1], {"1": 1}, (1.5, "x")],
    {"tuple": (1, (2, 3)), "ints": [1, 2, 3], "floats": [0.1, 0.2, 1e16]},
    {"subclasses": [Level(3), np.float64(0.5)], "bools": [True, True]},
    {3: "int key", 2.5: "float key"},
    {"z": [{1: "a"}, {1: "b"}]},
    # 0.0 == -0.0 must not share a repr, within a column,
    # across columns and across tables; repeated values reuse one
    [0.0, -0.0, 0.0, -0.0],
    [-0.0, 0.0],
    {"a": [-0.0, 1.5], "b": [0.0, 1.5], "c": -0.0, "d": 0.0},
    [{"x": 0.0, "y": -0.0}, {"x": -0.0, "y": 0.0}, {"x": 0.0, "y": 0.0}],
    {"rects": [{"y0": 0.1, "y1": 5e-324}, {"y0": 1e16, "y1": 0.1}],
     "hsegs": [{"level": 5e-324}, {"level": 1e16}, {"level": -0.0}],
     "eta": 0.1, "rows": [[0.1, 5e-324], [1e16, 0.0], [-0.0, 0.1]]},
    {"h": [[0.0], [-0.0, [0.0, -0.0]], (), [5e-324, -5e-324]], "w": (1e16, -1e16, 1e16)},
    # a top-level list is one float column only if every item is exactly a float
    {"h": [1.0, 2, -0.0]},
    {"h": [0.5, True]},
    {"h": [5e-324, -0.0, 0.0, 5e-324]},
]


@pytest.mark.parametrize("obj", EDGE_DOCUMENTS, ids=range(len(EDGE_DOCUMENTS)))
def test_dump_json_matches_stdlib_on_edge_cases(obj):
    assert dump_json(obj) == oracles.dump_json(obj)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)
                   | st.lists(st.fixed_dictionaries(
                       {"a": inner, "%b": st.floats(allow_nan=False,
                                                    allow_infinity=False)}),
                       max_size=4)),
    max_leaves=30)


@settings(max_examples=150, deadline=None)
@given(json_values)
def test_dump_json_matches_stdlib_on_nested_values(obj):
    assert dump_json(obj) == oracles.dump_json(obj)


def test_dump_json_matches_stdlib_on_documents(random_maps, mated_crt64, lattice8,
                                               tmp_path):
    m, emb = random_maps[0]
    d = tile(solve_voltage(m), emb)
    v, c = d.voltage, d.conjugate
    lm, lemb = lattice8
    docs = [map_to_json(m, emb), map_to_json(m), map_to_json(mated_crt64),
            solution_to_json(v, c), diagram_to_json(d),
            map_to_json(lm, lemb), diagram_to_json(tile(solve_voltage(lm), lemb)),
            diagram_to_json(tile(solve_voltage(mated_crt64)))]
    mp = write_map_file(tmp_path, m, emb)
    rep = tmp_path / "report.json"
    assert main(["verify", mp, "-o", str(rep)]) == 0
    docs.append(json.loads(rep.read_text()))
    for obj in docs:
        assert dump_json(obj) == oracles.dump_json(obj)


def table(**cols):
    return Table({f: np.asarray(a) for f, a in cols.items()})


TABLE_DOCUMENTS = [
    # 0.0 == -0.0 must not share a repr, within a column, across columns
    # and across tables; repeated values reuse one
    {"t": table(id=np.arange(4), x=[0.0, -0.0, 0.0, -0.0], y=[-0.0, 0.0, 1.5, -0.0]),
     "u": table(z=[-0.0, 0.0, 5e-324, -5e-324], w=[1e16, 0.1, 0.1, -0.0]),
     "eta": -0.0},
    # empty tables, alone and beside others
    {"t": table(id=np.arange(0), x=np.zeros(0))},
    {"t": table(x=np.zeros(0)), "u": table(id=np.arange(2), x=[0.5, 0.25]),
     "v": table(k=np.zeros(0, dtype=np.int64))},
    # int and float columns of other widths, fields that need escaping
    {"t": table(**{"%s": np.arange(3, dtype=np.int32), "caf\u00e9": np.float32([0.1, 2, 3]),
                   "%(x)d": np.uint8([0, 7, 255]), "q\"": [2**62, -(2**62), 0]})},
    # a table beside nested plain values and float lists, whose floats it
    # formats together with its own
    {"a": {"x": [0.1, -0.0]}, "b": [0.1, 0.25, -0.0], "c": [[0.1], 2],
     "t": table(id=np.arange(2), x=[0.1, -0.0])},
    # table keys that need escaping, sorted among other entries
    {"caf\u00e9": table(x=[0.5]), "\"q\"": [0.5], "%s": "x", "t": table(y=[0.2, 0.1])},
    # a table as the only entry
    {"t": table(id=np.arange(3), x=[1.0, 2.0, 3.0])},
    # rotations: keys sort as strings ("10" before "2"), an empty dart list
    {"rotation": Rotation(np.cumsum([0, 1, 3, 0, 2, 1, 1, 1, 1, 1, 1, 4, 2]),
                          np.arange(18)[::-1]),
     "empty": Rotation([0], []), "pair": Rotation([0, 2], [1, 0])},
]


@pytest.mark.parametrize("obj", TABLE_DOCUMENTS, ids=range(len(TABLE_DOCUMENTS)))
def test_dump_json_writes_tables_as_the_stdlib_writes_records(obj):
    assert dump_json(obj) == oracles.dump_json(obj)


def test_dump_json_writes_tables_only_at_the_top_level():
    # below the top level of a dict document with string keys, a Table or
    # Rotation is no JSON value to the stdlib
    for obj in ({"a": {"t": table(x=[0.1])}}, {"b": [table(x=[0.1])]},
                {"nested": [Rotation([0, 2], [1, 0])]}, {1: table(x=[0.1])},
                [table(x=[0.1, 0.2])], table(id=np.arange(3), x=[1.0, 2.0, 3.0])):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            dump_json(obj)


def test_table_nulls_and_non_finite_values(random_maps, path_map):
    t = Table({"id": np.arange(3), "x": [np.nan, 0.0, -np.inf]},
              null={"x": np.array([True, False, True])})
    assert oracles.records(t) == [{"id": 0, "x": None}, {"id": 1, "x": 0.0},
                                  {"id": 2, "x": None}]
    assert dump_json({"t": t}) == oracles.dump_json({"t": t})
    # a NaN outside the mask is not JSON, as in the stdlib with allow_nan=False
    t.null[1] = np.array([True, False, False])
    with pytest.raises(ValueError, match="not JSON compliant"):
        dump_json({"t": t})
    with pytest.raises(TypeError, match="not JSON serializable"):
        dump_json({"t": table(x=[0.5]), "x": np.int64(3)})
    with pytest.raises(TypeError, match="int or float array"):
        Table({"id": np.arange(2), "x": [True, False]})
    with pytest.raises(TypeError, match="null mask"):
        Table({"id": np.arange(2)}, null={"id": [True, False]})
    # a map's coordinates are nan at the marked vertices, under the mask,
    # and a nan at an unmarked vertex or edge fails the write
    m, emb = random_maps[0]
    assert np.isnan(emb.theta[m.v0]) and np.isnan(emb.height[m.v1])
    x = next(i for i in range(m.num_vertices) if not m.is_marked(i))
    for field in ("theta", "height", "dtheta"):
        bad = {f: getattr(emb, f).copy() for f in ("theta", "height", "dtheta")}
        bad[field][0 if field == "dtheta" else x] = np.nan
        with pytest.raises(ValueError, match="not JSON compliant"):
            dump_json(map_to_json(m, CylinderEmbedding(**bad)))
    # records are the tables and rotation as json.loads reads them back
    for obj in (map_to_json(m, emb), map_to_json(path_map)):
        back = json.loads(dump_json(obj))
        for name in ("vertices", "edges", "rotation"):
            assert oracles.records(obj[name]) == back[name]


def test_map_roundtrip_bit_exact(random_maps, tmp_path):
    m, emb = random_maps[0]
    blob = dump_json(map_to_json(m, emb))
    m2, emb2 = map_from_json(json.loads(blob))
    assert m2.num_vertices == m.num_vertices
    assert np.array_equal(m2.edge_tail, m.edge_tail)
    assert np.array_equal(m2.edge_head, m.edge_head)
    assert np.array_equal(m2.conductance, m.conductance)
    assert np.array_equal(m2.next_dart, m.next_dart)
    assert (m2.v0, m2.v1) == (m.v0, m.v1)
    for x in range(m.num_vertices):
        if not m.is_marked(x):
            assert emb2.theta[x] == emb.theta[x]
            assert emb2.height[x] == emb.height[x]
    assert np.array_equal(emb2.dtheta, emb.dtheta)
    assert dump_json(map_to_json(m2, emb2)) == blob
    # file round-trip through the command line's reader
    p = tmp_path / "map.json"
    p.write_text(blob)
    m3, _ = _read_map(str(p))
    assert np.array_equal(m3.next_dart, m.next_dart)


def test_map_roundtrip_without_embedding(path_map):
    obj = json.loads(dump_json(map_to_json(path_map)))
    assert all(v["theta"] is None for v in obj["vertices"])
    assert all(e["dtheta"] is None for e in obj["edges"])
    m2, emb2 = map_from_json(obj)
    assert emb2 is None
    assert np.array_equal(m2.next_dart, path_map.next_dart)


def test_map_to_json_requires_marks():
    m = build_map(2, [(0, 1, 1.0)], [[0], [1]])
    with pytest.raises(ValueError, match="marked"):
        map_to_json(m)


def schema_errors(obj):
    with pytest.raises(SchemaError) as exc:
        map_from_json(obj)
    return exc.value.errors


def test_map_schema_violations(path_map):
    base = json.loads(dump_json(map_to_json(path_map)))

    obj = dict(base, extra=1)
    assert any("unknown field 'extra'" in e for e in schema_errors(obj))

    obj = dict(base, schema="smith/2")
    assert any("expected 'smith/1'" in e for e in schema_errors(obj))

    obj = dict(base, kind="graph")
    assert any("kind" in e for e in schema_errors(obj))

    obj = dict(base, marked={"v0": 0})
    assert any("missing field 'v1'" in e for e in schema_errors(obj))

    obj = dict(base, marked={"v0": 0, "v1": 0})
    assert any("must differ" in e for e in schema_errors(obj))

    obj = json.loads(dump_json(base))
    obj["vertices"][1]["id"] = 7
    assert any("id must be 1" in e for e in schema_errors(obj))

    obj = json.loads(dump_json(base))
    obj["edges"][0]["conductance"] = -1.0
    assert any("conductance" in e for e in schema_errors(obj))

    obj = json.loads(dump_json(base))
    del obj["rotation"]["2"]
    assert any("vertex 2 missing" in e for e in schema_errors(obj))

    obj = json.loads(dump_json(base))
    obj["rotation"]["0"] = [0, 0]
    assert any("listed twice" in e for e in schema_errors(obj))

    # a JSON boolean is neither a number nor an id, though True == 1
    for path, value, message in [
            (("edges", 0, "conductance"), True,
             "edges[0].conductance: need a finite positive number"),
            (("vertices", 1, "id"), True, "vertices[1]: id must be 1"),
            (("edges", 1, "id"), True, "edges[1]: id must be 1"),
            (("edges", 1, "tail"), True, "edges[1].tail: not a vertex id"),
            (("edges", 0, "head"), True, "edges[0].head: not a vertex id"),
            (("marked", "v1"), True, "marked.v1: not a vertex id"),
            (("rotation", "0", 0), False, "rotation[0]: invalid dart False")]:
        obj = json.loads(dump_json(base))
        *where, last = path
        rec = obj
        for key in where:
            rec = rec[key]
        rec[last] = value
        assert schema_errors(obj) == [message], path

    # an integer too large for a double is not a finite number
    text = dump_json(base).replace('"conductance": 1.0', '"conductance": 1' + "0" * 400, 1)
    obj = json.loads(text)
    assert schema_errors(obj) == ["edges[0].conductance: need a finite positive number"]


def test_map_reader_reports_a_bare_vertex_count_once():
    # num_vertices is not backed by a vertex list, so no error or array
    # may grow with it
    text = ('{"schema": "smith/1", "kind": "map", "num_vertices": 300000, '
            '"marked": {"v0": 0, "v1": 1}, "vertices": [], "edges": [], "rotation": {}}')
    obj = json.loads(text)
    start = time.perf_counter()
    errors = schema_errors(obj)
    assert time.perf_counter() - start < 0.1
    assert 0 < len(errors) < 10
    assert "vertices: expected a list of 300000 entries" in errors
    assert _outcome(oracles.map_from_json, obj) == ("SchemaError", errors)


def test_map_roundtrip_keeps_every_array(lattice8, random_maps, mated_crt64):
    """Reading a written map gives back every array of the map bit for bit,
    dtype included, and both readers give back the document's bytes, on
    lattice, random and mated-CRT maps; the embedding check on read passes
    every embedding these generators make."""
    for m, emb in [lattice8, make_lattice(8, 1.0), *random_maps, (mated_crt64, None)]:
        blob = dump_json(map_to_json(m, emb))
        m2, emb2 = map_from_json(json.loads(blob))
        assert (m2.num_vertices, m2.num_faces, m2.v0, m2.v1) == \
            (m.num_vertices, m.num_faces, m.v0, m.v1)
        for name in m.ARRAYS:
            assert _arrays_equal(getattr(m2, name), getattr(m, name)), name
        assert dump_json(map_to_json(m2, emb2)) == blob
        assert dump_json(map_to_json(*oracles.map_from_json(json.loads(blob)))) == blob


def test_map_reader_checks_the_embedding(tmp_path, capsys):
    """An a priori embedding that breaks check_embedding is a MapError of
    both readers, and tile and verify exit 1 with its message."""
    m, emb = make_lattice(8, 1.0)
    pole = int(np.flatnonzero(m.marked[m.edge_tail] | m.marked[m.edge_head])[0])
    assert not (m.marked[m.edge_tail[3]] or m.marked[m.edge_head[3]])
    for k, message in [(3, "edge 3: dtheta inconsistent with theta difference"),
                       (pole, f"edge {pole} touches a marked vertex but has dtheta != 0")]:
        obj = json.loads(dump_json(map_to_json(m, emb)))
        obj["edges"][k]["dtheta"] += 1.0
        assert _outcome(map_from_json, obj) == ("MapError", message)
        assert _outcome(oracles.map_from_json, obj) == ("MapError", message)
        p = tmp_path / "bad.json"
        p.write_text(dump_json(obj))
        for cmd in ("tile", "verify"):
            assert main([cmd, str(p), "-o", str(tmp_path / "out.json")]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"


def test_map_reader_rejects_a_rotation_that_leaves_a_dart_out(path_map):
    # every key names a vertex and every listed dart is its own, but one
    # dart of the map is listed nowhere
    obj = json.loads(dump_json(map_to_json(path_map)))
    rot = obj["rotation"]
    v = next(k for k in sorted(rot) if len(rot[k]) > 1)
    rot[v].pop()
    want = ("MapError", "rotation data does not cover every dart")
    assert _outcome(map_from_json, obj) == want
    assert _outcome(oracles.map_from_json, obj) == want


def test_map_reader_rejects_rotation_lists_under_the_wrong_key(random_maps):
    """A dart listed under a vertex it does not start at is reported, not
    left for the map's cycle check, which passes when two whole lists trade
    places."""
    m, emb = random_maps[1]
    obj = json.loads(dump_json(map_to_json(m, emb)))
    rot = obj["rotation"]
    rot["0"], rot["1"] = rot["1"], rot["0"]
    want = ([f"rotation[0]: dart {h} does not start at vertex 0" for h in rot["0"]]
            + [f"rotation[1]: dart {h} does not start at vertex 1" for h in rot["1"]])
    assert schema_errors(obj) == want
    assert _outcome(oracles.map_from_json, obj) == ("SchemaError", want)

    # one dart moved into another vertex's list, in document order with
    # the other rotation errors
    obj = json.loads(dump_json(map_to_json(m, emb)))
    rot = obj["rotation"]
    h = rot["1"].pop()
    rot["0"].append(h)
    rot["0"].insert(0, -1)
    want = ["rotation[0]: invalid dart -1",
            f"rotation[0]: dart {h} does not start at vertex 0"]
    assert schema_errors(obj) == want
    assert _outcome(oracles.map_from_json, obj) == ("SchemaError", want)


@pytest.mark.parametrize("key", ["00", " 1", "1 ", "+1", "1_0", "01", "\u0661", "-0"])
def test_map_reader_takes_only_canonical_vertex_keys(random_maps, key):
    """Only str(v) names vertex v: a key that int() reads as a vertex id but
    is not its canonical form is reported as such, not as a second list of
    that vertex's darts."""
    m, emb = random_maps[1]
    base = json.loads(dump_json(map_to_json(m, emb)))
    v = str(int(key))
    obj = copy.deepcopy(base)
    obj["rotation"][key] = list(obj["rotation"][v])
    want = [f"rotation[{key!r}]: key is not a vertex id"]
    assert schema_errors(obj) == want
    assert _outcome(oracles.map_from_json, obj) == ("SchemaError", want)

    obj = copy.deepcopy(base)
    obj["rotation"][key] = obj["rotation"].pop(v)
    want = [f"rotation[{key!r}]: key is not a vertex id", f"rotation: vertex {v} missing"]
    assert schema_errors(obj) == want
    assert _outcome(oracles.map_from_json, obj) == ("SchemaError", want)


def test_map_schema_embedding_rules(random_maps):
    m, emb = random_maps[0]
    base = map_to_json(m, emb)

    # coordinates must be all present or all null across unmarked vertices
    obj = json.loads(dump_json(base))
    x = next(i for i in range(m.num_vertices) if not m.is_marked(i))
    obj["vertices"][x]["theta"] = None
    obj["vertices"][x]["height"] = None
    assert any("all present or all null" in e for e in schema_errors(obj))

    # theta and height must be null together per vertex
    obj = json.loads(dump_json(base))
    obj["vertices"][x]["height"] = None
    assert any("both" in e for e in schema_errors(obj))

    # marked vertices carry no coordinates
    obj = json.loads(dump_json(base))
    obj["vertices"][m.v0]["theta"] = 0.0
    obj["vertices"][m.v0]["height"] = 0.0
    assert any("null coordinates" in e for e in schema_errors(obj))

    # booleans are not coordinates or displacements
    obj = json.loads(dump_json(base))
    obj["vertices"][x]["theta"] = True
    obj["edges"][2]["dtheta"] = False
    assert schema_errors(obj) == [f"vertices[{x}]: coordinates must be finite",
                                  "edges[2].dtheta: need a finite number or null"]


def test_solution_json(path_map):
    v = solve_voltage(path_map)
    c = conjugate(dual(path_map), v)
    obj = solution_to_json(v, c)
    assert obj["schema"] == SCHEMA
    assert obj["kind"] == "solution"
    assert obj["eta"] == pytest.approx(0.5)
    assert obj["h"] == pytest.approx([0.0, 0.5, 1.0])
    assert len(obj["w"]) == path_map.num_faces


def test_solution_w_is_the_diagram_vseg_x(lattice8, random_maps, mated_crt64, tmp_path):
    # a tiny negative lift reduces to 0.0, not to eta: lattice8 has four
    # faces whose w a plain floating mod would round up to eta
    for m, emb in [lattice8, (mated_crt64, None)] + list(random_maps):
        d = tile(solve_voltage(m), emb)
        v, c = d.voltage, d.conjugate
        w = np.array(json.loads(dump_json(solution_to_json(v, c)))["w"])
        assert np.all((w >= 0.0) & (w < v.eta))
        assert np.array_equal(w, d.vseg_x)
    m, emb = lattice8
    out = tmp_path / "sol.json"
    assert main(["solve", write_map_file(tmp_path, m, emb), "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert max(obj["w"]) < obj["eta"] and min(obj["w"]) == 0.0


def test_diagram_roundtrip(parallel3_map):
    d = tile(solve_voltage(parallel3_map))
    obj = json.loads(dump_json(diagram_to_json(d)))
    dd = diagram_from_json(obj)
    assert dd.eta == d.eta
    assert np.array_equal(dd.rect_x0, d.rect_x0)
    assert np.array_equal(dd.rect_width, d.rect_width)
    assert np.array_equal(dd.hseg_len, d.hseg_len)
    assert len(dd.rect_x0) == parallel3_map.num_edges
    assert len(dd.hseg_start) == parallel3_map.num_vertices
    # geometry-only data renders identically to the live diagram
    assert render_svg(dd) == render_svg(d)


def test_diagram_schema_violations(parallel3_map):
    d = tile(solve_voltage(parallel3_map))
    base = json.loads(dump_json(diagram_to_json(d)))

    for eta in (-1.0, 0.0, float("inf"), float("nan"), 10**400):
        with pytest.raises(SchemaError) as exc:
            diagram_from_json(dict(base, eta=eta))
        assert exc.value.errors == ["eta: need a positive number"]

    obj = json.loads(dump_json(base))
    del obj["rects"]
    with pytest.raises(SchemaError) as exc:
        diagram_from_json(obj)
    assert any("missing field 'rects'" in e for e in exc.value.errors)

    obj = json.loads(dump_json(base))
    obj["hsegs"][0]["length"] = "wide"
    with pytest.raises(SchemaError) as exc:
        diagram_from_json(obj)
    assert any("finite number" in e for e in exc.value.errors)

    # a JSON boolean is neither a number nor an id
    obj = json.loads(dump_json(base))
    obj["eta"] = True
    obj["rects"][1]["edge"] = True
    obj["hsegs"][0]["level"] = False
    obj["vsegs"][0]["x"] = True
    with pytest.raises(SchemaError) as exc:
        diagram_from_json(obj)
    assert exc.value.errors == ["eta: need a positive number",
                                "rects[1]: edge must be 1",
                                "hsegs[0].level: need a finite number",
                                "vsegs[0].x: need a finite number"]


# values a mutation writes: wrong types, booleans, ids out of range, numbers
# beyond the doubles and the non-finite numbers json.loads accepts
ODD_VALUES = [None, True, False, 0, 1, -1, 2.5, -0.0, 2**70, 10**400, "1", "x",
              [], [1], {}, {"id": 0}, float("inf"), float("nan")]
# small enough that no reader loops over a huge num_vertices
TOP_VALUES = [None, True, False, 0, 1, 3, -1, 2.5, "map", "smith/1", [], {},
              {"v0": 0}, {"v0": 0, "v1": 1}, {"v0": True, "v1": 1}]
FIELD_NAMES = ["extra", "id", "ID", "theta", "x0", "tail", "level"]
# fresh copies: a drawn list must not carry one example's edits into the next
ODD = st.sampled_from(ODD_VALUES).map(copy.deepcopy)
TOP = st.sampled_from(TOP_VALUES).map(copy.deepcopy)


def _mutate(data, obj, tables):
    """Apply one to three drawn schema violations (or harmless edits) to obj
    in place: fields dropped, added or renamed, odd values, repeated or
    out-of-range ids, records replaced, rotation keys and darts changed,
    partial embeddings."""
    for _ in range(data.draw(st.integers(1, 3))):
        what = data.draw(st.sampled_from(
            ["top", "drop", "add", "rename", "value", "id", "null", "unplace",
             "place", "record", "copy", "key", "dart"]))
        if what == "top":
            obj[data.draw(st.sampled_from(sorted(obj) + ["extra"]))] = \
                data.draw(TOP)
            continue
        if what in ("key", "dart"):
            rot = obj.get("rotation")
            if not isinstance(rot, dict) or not rot:
                continue
            k = data.draw(st.sampled_from(sorted(rot)))
            if what == "key":
                op = data.draw(st.sampled_from(["drop", "add", "value"]))
                if op == "drop":
                    del rot[k]
                elif op == "add":
                    new = data.draw(st.sampled_from(["x", "-1", "999", "0" + k, " " + k, k + " "]))
                    rot[new] = list(rot[k]) if isinstance(rot[k], list) else rot[k]
                else:
                    rot[k] = data.draw(ODD)
                continue
            cyc = rot[k]
            if not isinstance(cyc, list) or not cyc:
                continue
            j = data.draw(st.integers(0, len(cyc) - 1))
            op = data.draw(st.sampled_from(["value", "repeat", "append"]))
            if op == "value":
                cyc[j] = data.draw(ODD)
            elif op == "repeat":
                other = rot[data.draw(st.sampled_from(sorted(rot)))]
                if isinstance(other, list) and other:
                    cyc[j] = other[data.draw(st.integers(0, len(other) - 1))]
            else:
                cyc.append(cyc[j])
            continue
        table = obj.get(data.draw(st.sampled_from(tables)))
        if not isinstance(table, list) or not table:
            continue
        i = data.draw(st.integers(0, len(table) - 1))
        rec = table[i]
        if what == "record":
            table[i] = data.draw(st.sampled_from([5, None, [], "record", {}]))
            continue
        if what == "copy":
            table[i] = table[data.draw(st.integers(0, len(table) - 1))]
            continue
        if not isinstance(rec, dict) or not rec:
            continue
        f = data.draw(st.sampled_from(sorted(rec)))
        if what == "drop":
            del rec[f]
        elif what == "add":
            rec[data.draw(st.sampled_from(FIELD_NAMES))] = data.draw(ODD)
        elif what == "rename":
            rec[data.draw(st.sampled_from(FIELD_NAMES))] = rec.pop(f)
        elif what == "value":
            rec[f] = data.draw(ODD)
        elif what == "id":
            rec[f] = data.draw(st.sampled_from([i - 1, i + 1, 0, len(table), -1, 2**64, float(i)]))
        elif what == "null":
            rec[f] = None
        elif what == "unplace":
            rec.update({k: None for k in ("theta", "height") if k in rec})
        else:
            rec.update({k: 0.5 for k in ("theta", "height") if k in rec})


def _outcome(read, obj):
    try:
        return "built", read(obj)
    except SchemaError as e:
        return "SchemaError", e.errors
    except (MapError, OverflowError, TypeError, ValueError) as e:
        return type(e).__name__, str(e)


def _arrays_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def schema_documents(lattice8, random_maps, mated_crt64):
    maps = [lattice8, random_maps[1], (mated_crt64, None)]
    texts = [dump_json(map_to_json(m, emb)) for m, emb in maps]
    diagrams = [dump_json(diagram_to_json(tile(solve_voltage(m), emb))) for m, emb in maps]
    return texts, diagrams


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_map_reader_matches_the_record_oracle(schema_documents, data):
    """On mutated lattice, random and mated-CRT map documents, map_from_json
    raises the oracle's SchemaError with the same errors in the same order,
    or builds the same map and embedding bit for bit."""
    obj = json.loads(data.draw(st.sampled_from(schema_documents[0])))
    _mutate(data, obj, ["vertices", "edges"])
    got, want = _outcome(map_from_json, obj), _outcome(oracles.map_from_json, obj)
    assert got[0] == want[0]
    if got[0] != "built":
        assert got[1] == want[1]
        return
    (m, emb), (m_ref, emb_ref) = got[1], want[1]
    assert (m.num_vertices, m.v0, m.v1) == (m_ref.num_vertices, m_ref.v0, m_ref.v1)
    for f in ("edge_tail", "edge_head", "conductance", "next_dart"):
        assert _arrays_equal(getattr(m, f), getattr(m_ref, f)), f
    assert (emb is None) == (emb_ref is None)
    if emb is not None:
        for f in ("theta", "height", "dtheta"):
            assert _arrays_equal(getattr(emb, f), getattr(emb_ref, f)), f


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_diagram_reader_matches_the_record_oracle(schema_documents, data):
    """The same for diagram_from_json on the diagrams of those maps."""
    obj = json.loads(data.draw(st.sampled_from(schema_documents[1])))
    _mutate(data, obj, ["rects", "hsegs", "vsegs"])
    got, want = _outcome(diagram_from_json, obj), _outcome(oracles.diagram_from_json, obj)
    assert got[0] == want[0]
    if got[0] != "built":
        assert got[1] == want[1]
        return
    assert got[1].eta == want[1].eta
    for f in ("rect_x0", "rect_width", "rect_y0", "rect_y1", "hseg_start",
              "hseg_len", "hseg_level", "vseg_x", "vseg_y0", "vseg_y1"):
        assert _arrays_equal(getattr(got[1], f), getattr(want[1], f)), f


# -- cli ------------------------------------------------------------------------

def write_map_file(tmp_path, m, emb=None, name="map.json"):
    p = tmp_path / name
    p.write_text(dump_json(map_to_json(m, emb)))
    return str(p)


def test_cli_solve(path_map, tmp_path, capsys):
    mp = write_map_file(tmp_path, path_map)
    out = tmp_path / "sol.json"
    assert main(["solve", mp, "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["kind"] == "solution"
    assert obj["h"] == pytest.approx([0.0, 0.5, 1.0])


def test_cli_tile_and_render(path_map, tmp_path):
    mp = write_map_file(tmp_path, path_map)
    dj = tmp_path / "diag.json"
    assert main(["tile", mp, "-o", str(dj)]) == 0
    obj = json.loads(dj.read_text())
    assert obj["kind"] == "diagram"
    assert len(obj["rects"]) == 2
    svg = tmp_path / "out.svg"
    assert main(["render", str(dj), "-o", str(svg)]) == 0
    text = svg.read_text()
    assert text.startswith("<svg")
    assert main(["render", str(dj), "-o", str(svg), "--color-by", "size",
                 "--no-segments", "--width", "400"]) == 0
    assert "<line" not in svg.read_text()


def test_cli_tile_deterministic(tmp_path, random_maps):
    m, emb = random_maps[1]
    mp = write_map_file(tmp_path, m, emb)
    d1, d2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["tile", mp, "-o", str(d1)]) == 0
    assert main(["tile", mp, "-o", str(d2)]) == 0
    assert d1.read_bytes() == d2.read_bytes()


def test_cli_verify_passes(parallel3_map, tmp_path, capsys):
    mp = write_map_file(tmp_path, parallel3_map)
    rep = tmp_path / "report.json"
    rc = main(["verify", mp, "-o", str(rep), "--sequences", "3"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert lines == ["tiling: pass", "level-measure: pass",
                     "hitting-law: pass", "zero-winding: pass",
                     "projection: pass"]
    obj = json.loads(rep.read_text())
    assert obj["kind"] == "verify-report"
    assert obj["passed"] is True
    assert obj["eta"] == pytest.approx(3.0)


def test_cli_verify_passes_with_a_leaf_on_v0(tmp_path, capsys):
    # the leaf sits at v0's voltage 0 in v0's cluster, so it is no level:
    # no sequence holds the height 0, and no level of mass 0 is checked
    leaf = build_map(3, [(0, 1, 1.0), (0, 2, 1.0)], [[0, 2], [1], [3]], marked=(0, 1))
    path = build_map(4, [(0, 2, 1.0), (2, 1, 1.0), (0, 3, 1.0)],
                     [[0, 4], [3], [1, 2], [5]], marked=(0, 1))
    for m in (leaf, path):
        assert main(["verify", write_map_file(tmp_path, m)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "tiling: pass", "level-measure: pass", "hitting-law: pass",
            "zero-winding: pass", "projection: pass"]


def test_cli_verify_passes_with_a_self_loop(tmp_path, capsys):
    # the jump chain never takes the loop at vertex 2, so the projection
    # check holds it against the one-step law conditioned on moving
    m = build_map(3, [(0, 2, 1.0), (2, 1, 1.0), (2, 2, 1.0)], [[0], [3], [1, 4, 5, 2]],
                  marked=(0, 1))
    assert main(["verify", write_map_file(tmp_path, m)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "tiling: pass", "level-measure: pass", "hitting-law: pass",
        "zero-winding: pass", "projection: pass"]


def test_cli_mated_crt(tmp_path, capsys):
    out = tmp_path / "mated.json"
    rc = main(["mated-crt", "--gamma", "1.8", "--n", "24", "--seed", "3",
               "--mark", "first-last", "-o", str(out)])
    err = capsys.readouterr().err
    assert rc == 0
    assert "acceptance: 1/" in err
    assert "face degrees:" in err
    obj = json.loads(out.read_text())
    assert obj["kind"] == "map"
    assert obj["num_vertices"] == 24
    assert obj["marked"] == {"v0": 0, "v1": 23}


def test_cli_mated_crt_needs_seed(capsys):
    assert main(["mated-crt"]) == 1
    assert "--seed is required" in capsys.readouterr().err


def test_cli_mated_crt_increments(tmp_path, capsys):
    inc = tmp_path / "inc.json"
    inc.write_text(json.dumps({"dl": [1.0, -1.0, 1.0, -1.0],
                               "dr": [2.0, -1.0, -0.5, -0.5]}))
    out = tmp_path / "m.json"
    rc = main(["mated-crt", "--increments", str(inc), "--mark", "first-last",
               "-o", str(out)])
    capsys.readouterr()
    assert rc == 0
    obj = json.loads(out.read_text())
    assert obj["num_vertices"] == 4
    assert len(obj["edges"]) == 6
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dl": [1.0, -1.0]}))
    assert main(["mated-crt", "--increments", str(bad)]) == 1
    assert "'dl' and 'dr'" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity",
                                 pytest.param("1" + "0" * 400, id="int-beyond-doubles")])
def test_cli_mated_crt_rejects_non_finite_increments(tmp_path, capsys, bad):
    # json.load takes these non-standard literals and integers of any size,
    # so the excursion refuses them
    inc = tmp_path / "inc.json"
    inc.write_text(f'{{"dl": [0.5, {bad}, -0.5], "dr": [0.5, 0.0, -0.5]}}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["mated-crt", "--increments", str(inc), "--mark", "first-last"])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err == "error: increments must be finite\n"


@pytest.mark.parametrize("key, bad", [("dl", "{}"), ("dl", '"0.5, -0.5"'),
                                      ("dr", "[true, -1]"), ("dl", "[0.5, null]"),
                                      ("dl", "null"), ("dr", "[[0.5], -0.5]")])
def test_cli_mated_crt_rejects_increments_that_are_not_numbers(tmp_path, capsys, key, bad):
    # a JSON boolean is no number, as io_json reads one
    inc = tmp_path / "inc.json"
    arrays = {"dl": "[0.5, -0.5]", "dr": "[0.5, -0.5]", key: bad}
    inc.write_text(f'{{"dl": {arrays["dl"]}, "dr": {arrays["dr"]}}}')
    rc = main(["mated-crt", "--increments", str(inc), "--mark", "first-last"])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err == f"error: {inc}: '{key}' must be an array of numbers\n"


def test_cli_converge_csv(tmp_path):
    out = tmp_path / "rows.csv"
    rc = main(["converge", "--n-list", "8,12", "--height", "2.0",
               "-o", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,eta,c_h,b_h,b_w,sup_err_height,sup_err_angle"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert int(first[0]) == 8
    assert float(first[1]) == pytest.approx(1.0, abs=1e-10)


def test_cli_converge_bad_lists(capsys):
    assert main(["converge", "--n-list", "a,b"]) == 1
    assert "comma-separated" in capsys.readouterr().err
    assert main(["converge", "--n-list", "2,8"]) == 1
    assert ">= 3" in capsys.readouterr().err


def test_cli_malformed_json(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"schema": "smith/1", ')
    assert main(["solve", str(p)]) == 1
    err = capsys.readouterr().err
    assert "malformed JSON at byte offset" in err


def test_cli_schema_error_reported(tmp_path, capsys, path_map):
    obj = map_to_json(path_map)
    obj["marked"] = {"v0": 0, "v1": 0}
    p = tmp_path / "bad_map.json"
    p.write_text(dump_json(obj))
    assert main(["solve", str(p)]) == 1
    assert "must differ" in capsys.readouterr().err


def test_cli_render_rejects_infinite_eta(tmp_path, capsys):
    # an infinite circumference would scale every rectangle to 0 x 0
    mp, dj, svg = (str(tmp_path / f) for f in ("map.json", "diag.json", "out.svg"))
    assert main(["mated-crt", "--gamma", "1.8", "--n", "24", "--seed", "3", "-o", mp]) == 0
    assert main(["tile", mp, "-o", dj]) == 0
    obj = json.loads((tmp_path / "diag.json").read_text())
    obj["eta"] = float("inf")
    (tmp_path / "diag.json").write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["render", dj, "-o", svg]) == 1
    assert capsys.readouterr().err == "error: eta: need a positive number\n"
    assert not (tmp_path / "out.svg").exists()


def test_cli_invalid_topology_reported(tmp_path, capsys):
    # schema-valid JSON whose interleaved self-loops give a torus rotation
    obj = {
        "schema": SCHEMA,
        "kind": "map",
        "num_vertices": 2,
        "marked": {"v0": 0, "v1": 1},
        "vertices": [{"id": 0, "theta": None, "height": None},
                     {"id": 1, "theta": None, "height": None}],
        "edges": [
            {"id": 0, "tail": 0, "head": 0, "conductance": 1.0, "dtheta": None},
            {"id": 1, "tail": 0, "head": 0, "conductance": 1.0, "dtheta": None},
            {"id": 2, "tail": 0, "head": 1, "conductance": 1.0, "dtheta": None},
        ],
        "rotation": {"0": [0, 2, 1, 3, 4], "1": [5]},
    }
    p = tmp_path / "torus.json"
    p.write_text(dump_json(obj))
    assert main(["tile", str(p)]) == 1
    assert "Euler characteristic" in capsys.readouterr().err


def test_cli_usage_and_help(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("solve", "tile", "render", "verify", "mated-crt",
                 "converge"):
        assert name in out


OUT_OF_RANGE = [
    (["mated-crt", "--seed", "-1"], "in [0, 2**64)"),
    (["mated-crt", "--seed", str(2**64)], "in [0, 2**64)"),
    (["verify", "--seed", "-1"], "in [0, 2**64)"),
    (["verify", "--seed", str(2**64)], "in [0, 2**64)"),
    (["verify", "--sequences", "0"], ">= 1"),
    (["verify", "--length", "1"], ">= 2"),
    (["render", "--width", "0"], ">= 1"),
    (["render", "--width", "-5"], ">= 1")]


@pytest.mark.parametrize("argv, need", OUT_OF_RANGE,
                         ids=[" ".join(argv) for argv, _ in OUT_OF_RANGE])
def test_cli_rejects_out_of_range_arguments(argv, need, capsys):
    """Each is a usage error, reported in one line before any input is read."""
    assert main(argv + ["/nonexistent/input.json"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"smith {argv[0]}: error: argument {argv[1]}: need an integer {need}, got {argv[2]}"]


BAD_FLOATS = [
    # a NaN bound would switch the residual check off, an infinite one every
    # geometric check, and an infinite height overflows make_lattice
    ["solve", "--tol", "nan"],
    ["solve", "--tol", "0"],
    ["tile", "--tol", "inf"],
    ["tile", "--tol-algebraic", "-1"],
    ["verify", "--tol", "-0.5"],
    ["verify", "--tol-algebraic", "nan"],
    ["converge", "--n-list", "8", "--height", "inf"],
    ["converge", "--n-list", "8", "--height", "-2.5"]]


@pytest.mark.parametrize("argv", BAD_FLOATS, ids=map(" ".join, BAD_FLOATS))
def test_cli_rejects_floats_that_are_not_finite_and_positive(argv, capsys):
    flag, value = argv[-2:]
    source = [] if argv[0] == "converge" else ["/nonexistent/input.json"]
    assert main(argv + source) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"smith {argv[0]}: error: argument {flag}: need a finite number > 0, got {value}"]


def _usage_errors(argv, capsys):
    """The "error:" lines of a call that must exit 2 with no traceback."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return [line for line in err.splitlines() if "error:" in line]


@pytest.mark.parametrize("value", ["0", "2", "-0.5", "2.5", "nan", "inf"])
def test_cli_rejects_gamma_outside_open_interval(value, capsys):
    # checked before the increments file is read
    assert _usage_errors(["mated-crt", "--gamma", value, "--seed", "1",
                          "--increments", "/nonexistent/inc.json"], capsys) == [
        f"smith mated-crt: error: argument --gamma: need a number in (0, 2), got {value}"]


@pytest.mark.parametrize("value", ["1", "0", "-3"])
def test_cli_rejects_fewer_than_two_cells(value, capsys):
    assert _usage_errors(["mated-crt", "--n", value, "--seed", "1",
                          "--increments", "/nonexistent/inc.json"], capsys) == [
        f"smith mated-crt: error: argument --n: need an integer >= 2, got {value}"]


@pytest.mark.parametrize("value", ["0", "-0.0", "-1", "nan"])
def test_cli_rejects_band_not_above_zero(value, capsys):
    assert _usage_errors(["converge", "--n-list", "8", "--band", value], capsys) == [
        f"smith converge: error: argument --band: need a number > 0, got {value}"]


def test_cli_accepts_the_edge_seeds(tmp_path, capsys):
    out = str(tmp_path / "map.json")
    for seed in ("0", str(2**64 - 1)):
        assert main(["mated-crt", "--n", "8", "--seed", seed, "-o", out]) == 0
    capsys.readouterr()


def test_cli_help_example_pipes(tmp_path, capsys):
    """The pipe in ``smith --help`` runs, stage by stage, in process."""
    line = next(t for t in cli.__doc__.splitlines() if t.strip().startswith("smith "))
    stages = [stage.split()[1:] for stage in line.split("|")]
    assert [s[0] for s in stages] == ["mated-crt", "tile", "render"]
    files = [str(tmp_path / f"stage{i}") for i in range(len(stages))]
    for i, argv in enumerate(stages):
        if "-o" in argv:
            argv = argv[:argv.index("-o")]
        assert main(argv + ([files[i - 1]] if i else []) + ["-o", files[i]]) == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "stage1").read_text())["kind"] == "diagram"
    assert (tmp_path / "stage2").read_text().startswith("<svg")


def test_cli_missing_file(capsys):
    assert main(["solve", "/nonexistent/map.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_subprocess_pipeline(tmp_path):
    """mated-crt | tile | render through real processes and stdio."""
    mp = tmp_path / "m.json"
    r1 = subprocess.run(
        [sys.executable, "-m", "smithtile.cli", "mated-crt", "--gamma", "1.8",
         "--n", "16", "--seed", "2", "--mark", "first-last", "-o", str(mp)],
        capture_output=True, text=True)
    assert r1.returncode == 0, r1.stderr
    r2 = subprocess.run(
        [sys.executable, "-m", "smithtile.cli", "tile", str(mp)],
        capture_output=True, text=True)
    assert r2.returncode == 0, r2.stderr
    r3 = subprocess.run(
        [sys.executable, "-m", "smithtile.cli", "render", "-", "-o",
         str(tmp_path / "m.svg")],
        input=r2.stdout, capture_output=True, text=True)
    assert r3.returncode == 0, r3.stderr
    assert (tmp_path / "m.svg").read_text().startswith("<svg")


def test_cli_mated_crt_default_pipes_through_tile():
    """``smith mated-crt --seed 7`` at its defaults, gamma = 1.0 and n = 32,
    finds an excursion, and its map tiles."""
    cli = [sys.executable, "-m", "smithtile.cli"]
    r1 = subprocess.run(cli + ["mated-crt", "--seed", "7"], capture_output=True)
    assert r1.returncode == 0, r1.stderr
    assert json.loads(r1.stdout)["num_vertices"] == 32
    r2 = subprocess.run(cli + ["tile"], input=r1.stdout, capture_output=True)
    assert r2.returncode == 0, r2.stderr
    assert json.loads(r2.stdout)["kind"] == "diagram"


def test_cli_mated_crt_golden_bytes():
    """The bytes of ``mated-crt --gamma 1.8 --n 256 --seed 3`` and of that map
    through ``tile``, pinned by hash: a change to the sampler's random stream,
    the arc rule, the rotations or the writers fails here."""
    cli = [sys.executable, "-m", "smithtile.cli"]
    r1 = subprocess.run(cli + ["mated-crt", "--gamma", "1.8", "--n", "256",
                               "--seed", "3"], capture_output=True)
    assert r1.returncode == 0, r1.stderr
    r2 = subprocess.run(cli + ["tile"], input=r1.stdout, capture_output=True)
    assert r2.returncode == 0, r2.stderr
    assert hashlib.sha256(r1.stdout).hexdigest() == \
        "979ec252dda220f97fde6bd65386877271f7fab0c0dcb1d2dc9ee16c1c325a08"
    assert hashlib.sha256(r2.stdout).hexdigest() == \
        "e992e8c40ef8c0df2418a00f643b75ae37d8b49a7bfc9f857b07bf446799a466"


def test_cli_solve_bytes_do_not_depend_on_blas_threads(tmp_path):
    """``solve`` writes the same bytes under one BLAS thread and under two,
    on the gamma = 1.8, n = 256 mated-CRT map of seed 3 and on
    make_lattice(16, 2.0): both systems are below LU_LIMIT, where a dense
    LAPACK solve would move their last bits with the thread count."""
    cli = [sys.executable, "-m", "smithtile.cli"]
    crt = str(tmp_path / "crt.json")
    r = subprocess.run(cli + ["mated-crt", "--gamma", "1.8", "--n", "256", "--seed", "3",
                              "-o", crt], capture_output=True)
    assert r.returncode == 0, r.stderr
    lattice = write_map_file(tmp_path, *make_lattice(16, 2.0), name="lattice.json")
    for mp in (crt, lattice):
        out = []
        for threads in ("1", "2"):
            r = subprocess.run(cli + ["solve", mp], capture_output=True,
                               env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
            assert r.returncode == 0, r.stderr
            out.append(r.stdout)
        assert out[0] == out[1], mp


# seed: (exit code, sha256 of the report) for `mated-crt --increments FILE
# --seed s`, FILE holding the increments of the gamma = 1.8, n = 48
# plain-rejection sample of that seed
VERIFY_GOLDEN = {
    1: (1, "06dc0a98a1cf46c4b33c1734020ba307d09ec1865babe9dbb338ea36aa065baa"),
    2: (1, "86e6b1b0bbc9f32abc1eb276ccfe95032d38eb144ea62ba3b814ad96728e9ca6"),
    3: (0, "04dbe5ac08575618f00f7587c7f2861a0053b4fac31773cfd8fab46d8cb21bc3"),
    4: (1, "e4fcc31a5e9007a4db5ebb4ab42f4b2cd9f5423528df439a2a4b1f0720e7e81f"),
    5: (0, "93db77a4b52ad4df883c2198c12f4d63df973a268f39ff6df42bc54826077725"),
    6: (0, "9b79e52772766f4a1168c086ecf95dc602499d4332c97ae6209987f1e7c931fc"),
}


def test_cli_verify_golden_bytes(random_maps, tmp_path, capsys):
    """The bytes and exit codes of ``verify -o`` on the gamma = 1.8, n = 48
    mated-CRT maps of seeds 1-6, on random_map(1) with its embedding and on
    the `mated-crt --gamma 1.8 --n 512 --seed 3` map, whose realized levels
    lie as close as 1.9e-12, pinned by hash: a change to the refinement,
    the level augmentation, the laws or the tiling the winding law reads its
    drifts off fails here.  Seeds 1, 2 and 4 fail the hitting law (and seed
    2 the zero winding, at 4.9e-6) through their zero-gradient edges."""
    inc = tmp_path / "inc.json"
    mp = str(tmp_path / "map.json")
    rep = tmp_path / "report.json"
    for seed, (code, digest) in VERIFY_GOLDEN.items():
        exc = oracles.sample_excursion(1.8, 48, seed)
        inc.write_text(json.dumps({"dl": exc.dl.tolist(), "dr": exc.dr.tolist()}))
        assert main(["mated-crt", "--increments", str(inc), "--seed", str(seed),
                     "-o", mp]) == 0
        assert main(["verify", mp, "-o", str(rep)]) == code
        assert hashlib.sha256(rep.read_bytes()).hexdigest() == digest, seed
    m, emb = random_maps[1]
    assert main(["verify", write_map_file(tmp_path, m, emb), "-o", str(rep)]) == 0
    assert hashlib.sha256(rep.read_bytes()).hexdigest() == \
        "9d9ae05ee5b41b0cdcef46150fc1a88cd0bef836aac9f1ce6bc988f64446c7f6"
    assert main(["mated-crt", "--gamma", "1.8", "--n", "512", "--seed", "3", "-o", mp]) == 0
    assert main(["verify", mp, "-o", str(rep)]) == 0
    assert hashlib.sha256(rep.read_bytes()).hexdigest() == \
        "19f7adbb28b49603205b4e9160ae239b87ff17647c7e603144b4c4b96cad545f"
    capsys.readouterr()


def test_cli_verify_winding_is_sharp(tmp_path, capsys):
    """The zero-winding check on the `mated-crt --gamma 1.8 --n 48 --seed 3`
    map reads rounding, 1.2e-15: its drifts come off the map's own tiling,
    not a tiling of the level-graded map, whose huge sub-edge conductances
    put 2.2e-10 of noise into the same check."""
    mp = str(tmp_path / "map.json")
    rep = tmp_path / "report.json"
    assert main(["mated-crt", "--gamma", "1.8", "--n", "48", "--seed", "3", "-o", mp]) == 0
    assert main(["verify", mp, "-o", str(rep)]) == 0
    assert json.loads(rep.read_text())["laws"]["winding_max_abs"] <= 1e-13
    capsys.readouterr()


def test_cli_tile_and_converge_golden_bytes(tmp_path):
    """The bytes of ``tile`` on the make_lattice(16, 2.0) map with its
    embedding, and of ``converge --n-list 8,16,32``, pinned by hash: the
    embedding picks the conjugate's base face, so a tiling stage that lost
    it would move every abscissa here, and b_w in the table."""
    mp = write_map_file(tmp_path, *make_lattice(16, 2.0))
    with open(mp, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == \
            "6fb5924cf9f8d5cfbff07263bfa8abd8462e633f1140f42ca4c08530be3e040d"
    out = tmp_path / "out"
    assert main(["tile", mp, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "5ae1b3fdf2c94fa5e68b4d3814cf822f1a5cb8e3e42ff540d4e29cb5febc9350"
    assert main(["converge", "--n-list", "8,16,32", "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "8497f8aea7e5e0a39b434c97d10f8d0cf0632c2131b51b860a735f53a47df3aa"
