"""Rotation-system maps: construction checks, duality, refinement, random maps."""

import gc
import hashlib
import inspect
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smithtile import (CombMap, CylinderEmbedding, MapError, augment_all_levels,
                       check_embedding, dual, insert_vertices, io_json,
                       make_lattice, random_map, solve_voltage)
from smithtile import map_core, mapgen, mated_crt
from smithtile.map_core import (bfs_tree, components, marked_cut_path, mod_array,
                                wrap_signed_array)

import oracles
from oracles import assert_same_map, build_map, relabel_edges, wrap_angle

TWO_PI = 2.0 * math.pi


# -- construction and Euler counting ---------------------------------------

def test_counts_path(path_map):
    m = path_map
    assert (m.num_vertices, m.num_edges, m.num_faces) == (3, 2, 1)
    assert (m.v0, m.v1) == (0, 2)


def test_counts_parallel3(parallel3_map):
    m = parallel3_map
    assert (m.num_vertices, m.num_edges, m.num_faces) == (2, 3, 3)


def test_counts_rung(rung_map):
    m = rung_map
    assert (m.num_vertices, m.num_edges, m.num_faces) == (4, 5, 3)


def test_counts_triangle(triangle_map):
    m = triangle_map
    assert (m.num_vertices, m.num_edges, m.num_faces) == (3, 3, 2)


def test_twin_and_edge_of(path_map):
    m = path_map
    for h in range(m.num_darts):
        assert m.dart_tail[h] == m.dart_head[h ^ 1]
        assert m.dart_tail[h] == (m.edge_tail, m.edge_head)[h & 1][h >> 1]


def test_face_orbits_are_closed_walks(parallel3_map):
    m = parallel3_map
    for orbit in m.face_darts:
        for i, h in enumerate(orbit):
            g = orbit[(i + 1) % len(orbit)]
            assert m.dart_head[h] == m.dart_tail[g]


def test_torus_rotation_rejected():
    # one vertex, two self-loops interleaved: V - E + F = 1 - 2 + 1 = 0.
    with pytest.raises(MapError, match="Euler characteristic 0"):
        build_map(1, [(0, 0, 1.0), (0, 0, 1.0)], [[0, 2, 1, 3]])


def test_rotation_must_stay_at_vertex():
    with pytest.raises(MapError, match="different vertex"):
        build_map(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)],
                  [[0, 5], [1, 2], [3, 4]])


def test_rotation_must_cover_all_darts():
    with pytest.raises(MapError, match="does not cover"):
        build_map(3, [(0, 1, 1.0), (1, 2, 1.0)], [[0], [1, 2], []])


def test_rotation_duplicate_dart_rejected():
    with pytest.raises(MapError, match="appears twice"):
        build_map(3, [(0, 1, 1.0), (1, 2, 1.0)], [[0, 0], [1, 2], [3]])


def test_no_edges_rejected():
    with pytest.raises(MapError, match="at least one edge"):
        build_map(1, [], [[]])


def test_nonpositive_conductance_rejected():
    with pytest.raises(MapError, match="positive"):
        build_map(2, [(0, 1, 0.0)], [[0], [1]])
    with pytest.raises(MapError, match="positive"):
        build_map(2, [(0, 1, -2.0)], [[0], [1]])
    with pytest.raises(MapError, match="positive"):
        build_map(2, [(0, 1, math.inf)], [[0], [1]])


def test_disconnected_rejected():
    with pytest.raises(MapError, match="not connected"):
        build_map(4, [(0, 1, 1.0), (2, 3, 1.0)], [[0], [1], [2], [3]])


def test_marked_vertices_validated():
    with pytest.raises(MapError, match="distinct"):
        build_map(2, [(0, 1, 1.0)], [[0], [1]], marked=(0, 0))
    with pytest.raises(MapError, match="out of range"):
        build_map(2, [(0, 1, 1.0)], [[0], [1]], marked=(0, 5))


# (num_vertices, edges as (tail, head), next_dart, error)
STRUCTURAL_ERRORS = [
    (3, [(0, 1)], [0, 1], "vertex 2 has no incident dart"),
    (2, [(0, 1), (0, 1)], [0, 3, 2, 1], "rotation at vertex 0 is not a single cycle"),
    (3, [(0, 1), (1, 2), (1, 2)], [0, 1, 4, 5, 2, 3], "rotation at vertex 1 is not a single cycle"),
    (2, [(0, 1)], [0, 0], "next_dart is not a permutation of the darts"),
    (2, [(0, 1)], [0], "next_dart is not a permutation of the darts"),
    (2, [(0, 1)], [0, 2], "next_dart is not a permutation of the darts"),
    (2, [(0, 1)], [1, 0], "rotation moves a dart to a different vertex"),
    (4, [(0, 1), (2, 3)], [0, 1, 2, 3], "map is not connected"),
    (1, [(0, 0), (0, 0)], [2, 3, 1, 0], "Euler characteristic 0 != 2: not a sphere map"),
    # ids past int32 must not wrap round into range
    (2, [(2**32, 1)], [0, 1], "edge tail out of range"),
    (2, [(0, 2**32 + 1)], [0, 1], "edge head out of range"),
    (2, [(0, 1)], [0, 2**32 + 1], "next_dart is not a permutation of the darts"),
]


def map_error(fn, *args):
    try:
        fn(*args)
    except MapError as e:
        return str(e)
    return None


@pytest.mark.parametrize("V, edges, nxt, message", STRUCTURAL_ERRORS)
def test_structural_errors_match_loop_checks(V, edges, nxt, message):
    tail, head = zip(*edges)
    args = (V, tail, head, np.ones(len(edges)), nxt)
    assert map_error(CombMap, *args) == message
    assert map_error(oracles.map_cycles, *args) == message


def test_build_map_matches_loop_rotation(random_maps, mated_crt64):
    for m in [mated_crt64] + [m for m, _ in random_maps[:5]]:
        edges = list(zip(m.edge_tail.tolist(), m.edge_head.tolist(), m.conductance.tolist()))
        rotation = [d.tolist() for d in m.vertex_darts]
        m2 = build_map(m.num_vertices, edges, rotation, marked=(m.v0, m.v1))
        assert np.array_equal(m2.next_dart, oracles.rotation_next(edges, rotation))
        assert np.array_equal(m2.next_dart, m.next_dart)


def test_build_map_rejects_darts_outside_the_map():
    with pytest.raises(MapError, match="dart 2 in rotation data is not a dart"):
        build_map(2, [(0, 1, 1.0)], [[0, 2], [1]])


def same_cycles(m):
    vd, face_of, fd = oracles.map_cycles(m.num_vertices, m.edge_tail, m.edge_head,
                                         m.conductance, m.next_dart, m.v0, m.v1)
    assert np.array_equal(m.vert_ptr, np.cumsum([0] + [len(d) for d in vd]))
    assert np.array_equal(m.vert_dart, np.concatenate(vd))
    assert np.array_equal(m.face_ptr, np.cumsum([0] + [len(d) for d in fd]))
    assert np.array_equal(m.face_dart, np.concatenate(fd))
    assert np.array_equal(m.face_of, face_of)
    assert m.num_faces == len(fd)
    assert all(np.array_equal(a, b) for a, b in zip(m.vertex_darts, vd))
    assert all(np.array_equal(a, b) for a, b in zip(m.face_darts, fd))


def relabel_embedding(emb, perm, flip):
    dtheta = np.empty(len(perm))
    dtheta[perm] = np.where(flip, -emb.dtheta, emb.dtheta)
    return CylinderEmbedding(emb.theta, emb.height, dtheta)


@pytest.fixture(scope="module")
def relabel_maps(random_maps, rung_map, mated_crt64):
    return [random_maps[0], random_maps[7], (rung_map, None), (mated_crt64, None)]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_cycles_and_dual_match_loops_under_relabeling(relabel_maps, seed):
    rng = np.random.default_rng(seed)
    for m, emb in relabel_maps:
        perm = rng.permutation(m.num_edges)
        flip = rng.integers(0, 2, m.num_edges)
        m2, _ = relabel_edges(m, perm, flip)
        same_cycles(m2)
        emb2 = None if emb is None else relabel_embedding(emb, perm, flip)
        dm = dual(m2, emb2)
        same_cycles(dm.map)
        assert_same_map(dm.map, oracles.dual_map(m2))
        f0 = sorted({int(m2.face_of[h]) for h in m2.vertex_darts[m2.v0]})
        f1 = sorted({int(m2.face_of[h]) for h in m2.vertex_darts[m2.v1]})
        assert dm.pole_faces == (f0, f1)
        if emb2 is not None:
            rep_theta, rep_height, _ = oracles.dual_points(m2, emb2)
            assert np.array_equal(mod_array(map_core._face_mean_lifts(m2, emb2), TWO_PI),
                                  rep_theta)
            assert np.array_equal(dm.rep_height, rep_height)
            assert dm.base == base_face(m2, emb2)


def base_face(m, emb) -> int:
    """The face nearest angle 0, then of least |rep_height|, then of least
    id, over ``oracles.dual_points``."""
    theta, height, _ = oracles.dual_points(m, emb)
    return min(range(m.num_faces),
               key=lambda f: (min(theta[f], TWO_PI - theta[f]), abs(height[f]), f))


def test_dual_base_face(random_maps, mated_crt64):
    cases = [make_lattice(n, H) for n, H in ((3, 0.5), (8, 2.0), (7, 2.5), (16, 4.0))]
    for m, emb in cases + list(random_maps):
        assert dual(m, emb).base == base_face(m, emb)
        assert dual(m).base == 0
    assert dual(mated_crt64).base == 0


@pytest.mark.parametrize("n, H", [(3, 0.5), (8, 2.0), (7, 2.5), (16, 4.0)])
def test_make_lattice_matches_loop_construction(n, H):
    m, emb = make_lattice(n, H)
    V, edges, rotation, marked, theta, height, dtheta = oracles.lattice(n, H)
    assert (m.num_vertices, (m.v0, m.v1)) == (V, marked)
    assert np.array_equal(m.edge_tail, [e[0] for e in edges])
    assert np.array_equal(m.edge_head, [e[1] for e in edges])
    assert np.array_equal(m.conductance, [e[2] for e in edges])
    assert np.array_equal(m.next_dart, oracles.rotation_next(edges, rotation))
    assert np.array_equal(emb.theta, theta, equal_nan=True)
    assert np.array_equal(emb.height, height, equal_nan=True)
    assert np.array_equal(emb.dtheta, dtheta)
    same_cycles(m)


def test_pi_weight_counts_self_loops_twice():
    m = build_map(2, [(0, 1, 1.0), (0, 0, 2.0)], [[0, 2, 3], [1]],
                  marked=(0, 1))
    assert m.pi_weight[0] == pytest.approx(1.0 + 2.0 * 2.0)
    assert m.pi_weight[1] == pytest.approx(1.0)


def test_pi_weight_is_summed_once(random_maps, mated_crt64, crt48_maps, lattice8_solved):
    # cached, read-only, shared by the marked copies, and the bits of the
    # np.add.at loop over the darts it replaced
    m, _, v = lattice8_solved
    loop = build_map(2, [(0, 1, 1.0), (0, 0, 2.0), (1, 1, 0.3)], [[0, 2, 3], [1, 4, 5]],
                     marked=(0, 1))
    maps = ([mm for mm, _ in random_maps] + [mated_crt64] + crt48_maps
            + [augment_all_levels(m, v).map, loop])
    for mm in maps:
        want = np.zeros(mm.num_vertices)
        np.add.at(want, mm.dart_tail, mm.conductance[np.arange(mm.num_darts) >> 1])
        pi = mm.pi_weight
        assert pi.tobytes() == want.tobytes()
        assert mm.pi_weight is pi and mm.with_marks(None, None).pi_weight is pi
        with pytest.raises(ValueError):
            pi[0] = 1.0


def test_arrays_are_frozen(path_map):
    with pytest.raises(ValueError):
        path_map.conductance[0] = 5.0


def _index_arrays_are_int32_read_only_and_stored_once(m):
    assert len(CombMap.INDEX_ARRAYS) == 10
    for name in CombMap.INDEX_ARRAYS:
        a = getattr(m, name)
        assert a.dtype == np.int32, name
        assert not a.flags.writeable, name
    # the edge ends are the even and odd entries of dart_tail, held once
    for ends in (m.edge_tail, m.edge_head):
        assert np.shares_memory(ends, m.dart_tail)
    assert np.array_equal(m.edge_tail, m.dart_tail[0::2])
    assert np.array_equal(m.edge_head, m.dart_tail[1::2])
    assert not hasattr(m, "prev_dart")


def test_every_map_builder_makes_int32_index_arrays():
    m, emb = make_lattice(8, 2.0)
    maps = [m, m.with_marks(3, 7), dual(m).map, dual(m, emb).map,
            insert_vertices(m, emb, [(0, 0.5), (3, 0.25), (3, 0.75)])[0],
            insert_vertices(m, None, [(5, 0.5)])[0],
            io_json.map_from_json(json.loads(io_json.dump_json(io_json.map_to_json(m, emb))))[0],
            random_map(3)[0],
            mated_crt.build_map(mated_crt.sample_excursion(1.8, 64, 1)).map]
    # the constructor casts int64 arrays and lists of ids
    maps.append(CombMap(m.num_vertices, m.edge_tail.astype(np.int64),
                        m.edge_head.tolist(), m.conductance,
                        m.next_dart.astype(np.int64), v0=m.v0, v1=m.v1))
    for mm in maps:
        _index_arrays_are_int32_read_only_and_stored_once(mm)
    for name in CombMap.INDEX_ARRAYS:
        assert np.array_equal(getattr(maps[-1], name), getattr(m, name))
    # a map copies the caller's int32 edge ends and leaves them writable
    tails, heads = m.edge_tail.copy(), m.edge_head.copy()
    mm = CombMap(m.num_vertices, tails, heads, m.conductance, m.next_dart, v0=m.v0, v1=m.v1)
    for given in (tails, heads):
        assert given.flags.writeable and not np.shares_memory(given, mm.dart_tail)


def test_built_map_holds_each_fact_once():
    """The gamma = 1.8, n = 4096 seed-1 map, marked, holds 60.6 B per edge
    under tracemalloc (76.7 B while it kept prev_dart and edge-end arrays
    of its own), bounded at 66 B, about 10% above.  numpy reports its
    allocations to tracemalloc, so the figure does not depend on the host."""
    exc = mated_crt.sample_excursion(1.8, 4096, 1)
    tracemalloc.start()
    try:
        m = mated_crt.mark_vertices(mated_crt.build_map(exc), seed=1).map
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held / m.num_edges <= 66


def test_map_keeps_its_callers_arrays_apart():
    # a writable next_dart or conductance is copied, so the caller may edit
    # it after; a read-only one is shared, as random_map shares next_dart
    m, _ = make_lattice(8, 2.0)
    nd, c = m.next_dart.copy(), m.conductance.copy()
    mm = CombMap(m.num_vertices, m.edge_tail, m.edge_head, c, nd, v0=m.v0, v1=m.v1)
    assert nd.flags.writeable and c.flags.writeable
    assert mm.next_dart is not nd and mm.conductance is not c
    nd[0], c[0] = nd[1], 5.0
    assert_same_map(mm, m)
    shared = CombMap(m.num_vertices, m.edge_tail, m.edge_head, m.conductance,
                     m.next_dart, v0=m.v0, v1=m.v1)
    assert shared.next_dart is m.next_dart and shared.conductance is m.conductance


def test_dual_peak_memory_per_edge():
    """The tracemalloc peak of dualizing the gamma = 1.8, n = 4096 seed-1
    map, per edge: 60.9 B with the dual's faces left unfound until read
    (119.9 B while the dual derived them), bounded 10% above."""
    m = mated_crt.mark_vertices(mated_crt.build_map(mated_crt.sample_excursion(1.8, 4096, 1)),
                                seed=1).map
    tracemalloc.start()
    try:
        dual(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / m.num_edges <= 67


def test_maps_past_the_index_limit_are_refused(monkeypatch):
    # the limit is 2^31, int32's; it is lowered here so that a check that
    # did not fire would build a small map rather than allocate gigabytes
    assert map_core.INDEX_LIMIT == 2**31 == np.iinfo(map_core.INDEX).max + 1
    m, _ = make_lattice(8, 2.0)
    assert (m.num_darts, m.num_vertices) == (240, 58)
    args = (m.num_vertices, m.edge_tail, m.edge_head, m.conductance, m.next_dart)
    exc = mated_crt.sample_excursion(1.8, 64, 1)
    monkeypatch.setattr(map_core, "INDEX_LIMIT", 241)
    CombMap(*args)
    make_lattice(8, 2.0)
    with pytest.raises(MapError, match="^map too large: 242 darts and 59 vertices, "
                                      r"need fewer than 2\*\*31 of each$"):
        insert_vertices(m, None, [(0, 0.5)])
    monkeypatch.setattr(map_core, "INDEX_LIMIT", 240)
    for build in (lambda: CombMap(*args), lambda: make_lattice(8, 2.0)):
        with pytest.raises(MapError, match="^map too large: 240 darts and 58 vertices"):
            build()
    monkeypatch.setattr(map_core, "INDEX_LIMIT", 58)
    with pytest.raises(MapError, match="240 darts and 58 vertices"):
        CombMap(*args)
    with pytest.raises(MapError, match="^map too large: 126 darts and 64 vertices"):
        mated_crt.build_map(exc)


# -- angle helpers ----------------------------------------------------------

def test_wrap_angle_range():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(TWO_PI) == pytest.approx(0.0, abs=1e-12)
    assert wrap_angle(-0.1) == pytest.approx(TWO_PI - 0.1)
    assert 0.0 <= wrap_angle(123.456) < TWO_PI


def test_wrap_signed_halves():
    assert wrap_signed_array(0.0) == 0.0
    assert wrap_signed_array(math.pi + 0.1) == pytest.approx(0.1 - math.pi)
    # half-turn ties land on the closed upper end of (-pi, pi]
    assert wrap_signed_array(math.pi) == math.pi
    assert wrap_signed_array(-math.pi) == math.pi
    assert abs(wrap_signed_array(7.7)) <= math.pi
    x = np.array([0.0, math.pi + 0.1, -math.pi, 7.7])
    assert np.array_equal(wrap_signed_array(x), [oracles.wrap_signed(a) for a in x])


# -- embeddings --------------------------------------------------------------

def test_dart_dtheta_antisymmetric(lattice8):
    m, emb = lattice8
    hs = np.arange(m.num_darts)
    dt = emb.dart_dtheta(hs)
    assert np.allclose(dt, -emb.dart_dtheta(hs ^ 1), atol=0.0)


def test_check_embedding_accepts_and_rejects(lattice8):
    m, emb = lattice8
    check_embedding(m, emb)
    bad = CylinderEmbedding(emb.theta.copy(), emb.height.copy(),
                            emb.dtheta.copy())
    # find an edge with both endpoints unmarked and tamper with it
    for k in range(m.num_edges):
        t, h = int(m.edge_tail[k]), int(m.edge_head[k])
        if not (m.is_marked(t) or m.is_marked(h)):
            bad.dtheta[k] += 0.5
            break
    with pytest.raises(MapError):
        check_embedding(m, bad)


def test_check_embedding_errors_match_loop_check(random_maps):
    # a shifted edge fails at the edge; a whole turn added to an edge passes
    # the edge check and fails at the first bounded face it borders
    rng = np.random.default_rng(3)
    seen = set()
    for m, emb in random_maps[:6]:
        for shift in (0.5, 1e-6, TWO_PI, -TWO_PI):
            dtheta = emb.dtheta.copy()
            dtheta[rng.integers(m.num_edges)] += shift
            bad = CylinderEmbedding(emb.theta, emb.height, dtheta)
            got = map_error(check_embedding, m, bad)
            assert got == map_error(oracles.check_embedding, m, bad)
            seen.add(None if got is None else got.split(" ")[0])
    assert {"edge", "face"} <= seen


def test_check_embedding_wrong_lengths(path_map):
    emb = CylinderEmbedding(np.zeros(2), np.zeros(2), np.zeros(2))
    with pytest.raises(MapError, match="wrong length"):
        check_embedding(path_map, emb)


def test_check_embedding_rejects_short_height():
    # a height array three short passed every check, and dual then failed
    # with a bare IndexError
    m, emb = make_lattice(8, 1.0)
    bad = CylinderEmbedding(emb.theta, emb.height[:-3], emb.dtheta)
    for check in (check_embedding, oracles.check_embedding):
        assert map_error(check, m, bad) == "embedding arrays have wrong length"


def test_check_embedding_rejects_values_that_are_not_finite(lattice8):
    # the JSON reader refuses these, and so does the check; the marks keep
    # their nan coordinates
    m, emb = lattice8
    x = int(np.flatnonzero(~m.marked)[5])
    k = int(np.flatnonzero(~(m.marked[m.edge_tail] | m.marked[m.edge_head]))[7])
    pole = int(np.flatnonzero(m.marked[m.edge_tail] | m.marked[m.edge_head])[0])
    assert np.isnan(emb.theta[m.marked]).all()
    cases = []
    for bad in (math.nan, math.inf, -math.inf):
        for name in ("theta", "height"):
            arrays = {"theta": emb.theta.copy(), "height": emb.height.copy(),
                      "dtheta": emb.dtheta}
            arrays[name][x] = bad
            cases.append((CylinderEmbedding(**arrays), f"vertex {x}: coordinates must be finite"))
        for edge in (k, pole):
            dtheta = emb.dtheta.copy()
            dtheta[edge] = bad
            cases.append((CylinderEmbedding(emb.theta, emb.height, dtheta),
                          f"edge {edge}: dtheta must be finite"))
    for emb_bad, message in cases:
        for check in (check_embedding, oracles.check_embedding):
            assert map_error(check, m, emb_bad) == message


# -- duality ----------------------------------------------------------------

def test_dual_of_parallel3_is_triangle_cycle(parallel3_map):
    dm = dual(parallel3_map)
    d = dm.map
    assert (d.num_vertices, d.num_edges, d.num_faces) == (3, 3, 2)
    assert np.allclose(d.conductance, 1.0)
    # every dual vertex has degree 2: a single 3-cycle
    assert all(d.degree(v) == 2 for v in range(3))


def test_dual_conductance_is_reciprocal(random_maps):
    for m, _ in random_maps[:5]:
        d = dual(m).map
        assert np.allclose(d.conductance * m.conductance, 1.0, atol=1e-12)


def test_dual_reuses_dart_ids(rung_map):
    dm = dual(rung_map)
    d = dm.map
    assert d.num_darts == rung_map.num_darts
    for h in range(rung_map.num_darts):
        # dual dart h leaves the face right of primal dart h
        assert d.dart_tail[h] == rung_map.face_of[h]


def test_double_dual_counts(random_maps):
    for m, _ in random_maps[:5]:
        d = dual(m).map
        dd = dual(d).map
        assert dd.num_vertices == m.num_vertices
        assert dd.num_edges == m.num_edges
        assert dd.num_faces == m.num_faces
        assert np.allclose(dd.conductance, m.conductance, rtol=1e-12)


def test_double_dual_faces_partition_by_primal_head(random_maps):
    # faces of the dual correspond to primal vertices: each dual face orbit
    # collects exactly the darts pointing at one primal vertex.
    for m, _ in random_maps[:5]:
        d = dual(m).map
        assert d.num_faces == m.num_vertices
        for orbit in d.face_darts:
            heads = {int(m.dart_head[h]) for h in orbit}
            assert len(heads) == 1
            assert len(orbit) == m.degree(heads.pop())


def test_dual_pole_faces_flank_marked_vertices(lattice8):
    # pole_faces lists exactly the faces incident to each marked vertex
    m, emb = lattice8
    dm = dual(m, emb)
    bot, top = dm.pole_faces
    assert bot == sorted({int(m.face_of[h]) for h in m.vertex_darts[m.v0]})
    assert top == sorted({int(m.face_of[h]) for h in m.vertex_darts[m.v1]})
    for f in bot:
        orbit = m.face_darts[f]
        assert any(int(m.dart_tail[h]) == m.v0 for h in orbit)
    assert not set(bot) & set(top)


def test_dual_map_matches_its_combmap_build(random_maps, mated_crt64, path_map,
                                            parallel3_map):
    # lattices, random maps, a mated-CRT map, self-loops (the loop map and
    # the dual of path_map) and parallel edges (the loop map, parallel3_map)
    maps = [make_lattice(n, 4.0)[0] for n in range(3, 17)] + [m for m, _ in random_maps]
    maps += [mated_crt64, path_map, parallel3_map, _loop_and_parallel_map()]
    for m in maps:
        d = dual(m).map
        assert_same_map(d, oracles.dual_map(m))
        assert_same_map(dual(d).map, oracles.dual_map(d))


def _searched(m) -> CombMap:
    """m rebuilt by ``CombMap(...)``, which searches and checks its cycles."""
    return CombMap(m.num_vertices, m.edge_tail.copy(), m.edge_head.copy(),
                   m.conductance.copy(), m.next_dart.copy(), m.v0, m.v1)


def test_derived_maps_are_searched_maps(monkeypatch):
    # duals, half-edge and random refinements and level-graded maps take
    # their rotations from their parent's and check nothing but the
    # conductances; each equals the map the full search builds, faces and
    # marks included.  None of them runs the cycle search
    cases = [random_map(seed) for seed in range(1, 30, 2)]
    cases += [make_lattice(n, 2.0) for n in (3, 5, 8, 17)]
    cases += [(mated_crt.mark_vertices(mated_crt.build_map(
        mated_crt.sample_excursion(1.8, n, s)), seed=s).map, None)
              for n in (64, 1024) for s in (1, 2, 3)]
    rng = np.random.default_rng(5)
    cycles = map_core._cycles
    for m, emb in cases:
        v, E = solve_voltage(m), m.num_edges
        m.face_of                       # random_map's own map is a refinement
        random_points = [(int(k), float(t)) for k in rng.choice(E, E // 3 + 1, replace=False)
                         for t in np.sort(rng.uniform(0.05, 0.95, rng.integers(1, 4)))]
        monkeypatch.setattr(map_core, "_cycles", None)
        duals = [dual(m).map, dual(m, emb).map]
        refined = [augment_all_levels(m, v).map]
        for pts in ([(k, 0.5) for k in range(E)], random_points):
            refined += [insert_vertices(m, e, pts)[0] for e in (emb, None)]
        monkeypatch.setattr(map_core, "_cycles", cycles)
        for d in duals + refined:
            assert (d.v0, d.v1) == ((None, None) if d in duals else (m.v0, m.v1))
            assert_same_map(d, _searched(d))


def test_dual_rejects_a_conductance_whose_reciprocal_overflows(path_map):
    m = CombMap(3, path_map.edge_tail, path_map.edge_head, [1.0, 1e-320],
                path_map.next_dart, v0=0, v1=2)
    with np.errstate(over="ignore"), pytest.raises(
            MapError, match="conductances must be positive and finite"):
        dual(m)


def test_with_marks_matches_a_full_build(mated_crt64, lattice8):
    for m in (mated_crt64, lattice8[0]):
        m.step_rows, m.vertex_darts, m.face_darts      # cached on the base map
        before = (m.v0, m.v1, m.marked.copy())
        for marks in ((1, 0), (0, m.num_vertices - 1), (None, 2), (None, None)):
            got = m.with_marks(*marks)
            assert_same_map(got, CombMap(m.num_vertices, m.edge_tail, m.edge_head,
                                         m.conductance, m.next_dart, *marks))
            assert got.vertex_darts is m.vertex_darts and got.vert_dart is m.vert_dart
        assert (m.v0, m.v1) == before[:2] and np.array_equal(m.marked, before[2])
        for marks in ((3, 3), (0, m.num_vertices), (-1, 2)):
            want = map_error(CombMap, m.num_vertices, m.edge_tail, m.edge_head,
                             m.conductance, m.next_dart, *marks)
            assert want is not None and map_error(m.with_marks, *marks) == want


def test_marked_cut_path_runs_bottom_to_top(lattice8):
    m, _ = lattice8
    cut = marked_cut_path(m)
    assert int(m.dart_tail[cut[0]]) == m.v0
    assert int(m.dart_head[cut[-1]]) == m.v1
    for a, b in zip(cut[:-1], cut[1:]):
        assert m.dart_head[a] == m.dart_tail[b]


def _loop_and_parallel_map():
    # v0 joins vertex 1 by two parallel edges; vertex 1 carries a self-loop
    # (an empty face) and joins v1
    return build_map(3, [(0, 1, 1.0), (0, 1, 2.0), (1, 1, 1.5), (1, 2, 1.0)],
                     [[0, 2], [1, 3, 4, 5, 6], [7]], marked=(0, 2))


def _first_dart_map():
    # v0 = 0 carries a self-loop (darts 8, 9) and reaches vertex 2 first by
    # dart 4, though dart 2 also runs from it to vertex 2; v1 = 1
    return build_map(3, [(0, 1, 1.0), (0, 2, 1.0), (0, 2, 2.0), (1, 2, 1.0), (0, 0, 1.5)],
                     [[0, 8, 9, 4, 2], [1, 6], [3, 5, 7]], marked=(0, 1))


def _bfs_cases(random_maps, mated_crt64, path_map, parallel3_map):
    """Maps with marks and their duals: lattices, random maps, a mated-CRT
    map, self-loops (the loop map, and the dual of path_map) and parallel
    edges (the loop map, parallel3_map and the first-dart map)."""
    primal = [make_lattice(n, 4.0)[0] for n in (3, 8, 16)] + [m for m, _ in random_maps[:6]]
    primal += [mated_crt64, path_map, parallel3_map, _loop_and_parallel_map(),
               _first_dart_map()]
    return primal, [dual(m).map for m in primal]


def _assert_bfs_matches_queue_loop(m, roots):
    for root in roots:
        tree_dart, fronts = bfs_tree(m, root)
        want, depth, order = oracles.bfs_tree(m, root)
        assert tree_dart.dtype == np.int64
        assert all(f.dtype == np.int64 for f in fronts)
        assert np.array_equal(tree_dart, want)
        assert np.concatenate(fronts).tolist() == order
        assert [set(depth[f].tolist()) for f in fronts] == [{i} for i in range(len(fronts))]


def test_bfs_tree_matches_queue_loop(random_maps, mated_crt64, path_map, parallel3_map):
    primal, duals = _bfs_cases(random_maps, mated_crt64, path_map, parallel3_map)
    for m in primal + duals:
        _assert_bfs_matches_queue_loop(m, sorted({0, m.num_vertices // 2, m.num_vertices - 1}))
    # deep trees: the n=16 lattice from v0 and its dual from every face, and
    # random_map(1) with every level vertexed, whose inserted chains make
    # long paths
    lattice, lattice_dual = primal[2], duals[2]
    _assert_bfs_matches_queue_loop(lattice, [lattice.v0])
    _assert_bfs_matches_queue_loop(lattice_dual, range(lattice_dual.num_vertices))
    m, _ = random_maps[1]
    aug = augment_all_levels(m, solve_voltage(m)).map
    assert aug.num_vertices > m.num_vertices
    _assert_bfs_matches_queue_loop(aug, sorted({aug.v0, aug.v1, aug.num_vertices - 1}))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_components_match_bfs_oracle(random_maps, lattice8, data):
    """Components over drawn subsets of a map's edges; the loop map brings
    a self-loop and parallel edges."""
    maps = [lattice8[0], _loop_and_parallel_map()] + [m for m, _ in random_maps[:4]]
    m = data.draw(st.sampled_from(maps))
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=m.num_edges,
                                       max_size=m.num_edges)), dtype=bool)
    t, h = m.edge_tail[keep], m.edge_head[keep]
    assert np.array_equal(components(m.num_vertices, t, h),
                          oracles.components(m.num_vertices, t, h))


def test_bfs_tree_leaves_unreached_vertices_out():
    # a CombMap is connected, so the graph (a triangle and a separate edge)
    # is given as bare CSR arrays
    class Graph:
        num_vertices = 5
        vert_ptr = np.array([0, 2, 4, 6, 7, 8])
        vert_dart = np.array([0, 5, 1, 2, 3, 4, 6, 7])
        dart_head = np.array([1, 0, 2, 1, 0, 2, 4, 3])
    tree_dart, fronts = bfs_tree(Graph, 0)
    assert tree_dart.tolist() == [-1, 0, 5, -1, -1]
    assert [f.tolist() for f in fronts] == [[0], [1, 2]]


def test_marked_cut_path_matches_list_queue_bfs(random_maps, mated_crt64, path_map,
                                                parallel3_map):
    # the BFS visiting order fixes which shortest path is the cut
    for m in _bfs_cases(random_maps, mated_crt64, path_map, parallel3_map)[0]:
        assert marked_cut_path(m).tolist() == oracles.marked_cut_path(m).tolist()


def test_marked_cut_path_requires_marks(triangle_map):
    m = build_map(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)],
                  [[0, 4], [1, 2], [3, 5]])
    with pytest.raises(MapError, match="marked"):
        marked_cut_path(m)


# -- refinement -------------------------------------------------------------

def test_insert_midpoint_splits_conductance(path_map):
    m2, _, origin = insert_vertices(path_map, None, [(0, 0.5)])
    assert m2.num_vertices == 4
    assert m2.num_edges == 3
    new = [k for k in range(3) if origin[k] == 0]
    assert sorted(m2.conductance[new].tolist()) == [2.0, 2.0]


def test_insert_fraction_conductances():
    m = build_map(2, [(0, 1, 3.0)], [[0], [1]], marked=(0, 1))
    m2, _, origin = insert_vertices(m, None, [(0, 1.0 / 3.0)])
    assert sorted(m2.conductance.tolist()) == pytest.approx([4.5, 9.0])


def test_insert_preserves_series_conductance(random_maps):
    m, emb = random_maps[0]
    pts = [(k, 0.3) for k in range(0, m.num_edges, 7)]
    m2, emb2, origin = insert_vertices(m, emb, pts)
    check_embedding(m2, emb2)
    inv = np.zeros(m.num_edges)
    np.add.at(inv, origin, 1.0 / m2.conductance)
    assert np.allclose(1.0 / inv, m.conductance, rtol=1e-12)


def test_insert_appends_vertices_in_order(path_map):
    m2, _, _ = insert_vertices(path_map, None, [(1, 0.25), (0, 0.75)])
    # originals keep ids 0..2; new ids 3 (edge 0) and 4 (edge 1)
    assert m2.num_vertices == 5
    tails = set(map(int, m2.edge_tail)) | set(map(int, m2.edge_head))
    assert tails == {0, 1, 2, 3, 4}
    assert (m2.v0, m2.v1) == (path_map.v0, path_map.v1)


def test_insert_rejects_bad_fractions(path_map):
    with pytest.raises(MapError, match="not in"):
        insert_vertices(path_map, None, [(0, 0.0)])
    with pytest.raises(MapError, match="not in"):
        insert_vertices(path_map, None, [(0, 1.0)])
    with pytest.raises(MapError, match="strictly increasing"):
        insert_vertices(path_map, None, [(0, 0.5), (0, 0.5)])


def test_insert_rejects_bad_edge_ids(path_map):
    # an id outside [0, E) used to be dropped, a fractional one truncated
    for k in (99, 2, -1, 0.7):
        for i, pts in enumerate(([(k, 0.5)], [(0, 0.5), (k, 0.25)])):
            with pytest.raises(MapError) as err:
                insert_vertices(path_map, None, pts)
            f = pts[i][1]
            assert str(err.value) == \
                f"point {i} ({k}, {f}): edge id is not an integer in [0, 2)"


def test_insert_errors_name_the_first_offender(path_map):
    # a bad fraction: the first in input order; close fractions: the edge
    # that appears first in the points; both as the loop reports them
    cases = [([(0, 0.5), (1, 1.5), (0, 0.0)], "fraction 1.5 not in (0, 1)"),
             ([(1, 0.5), (0, 0.3), (0, 0.3), (1, 0.5)],
              "edge 1: fractions not strictly increasing"),
             ([(1, 0.25), (0, 0.5), (0, 0.5 + 1e-16)],
              "edge 0: fractions not strictly increasing")]
    for pts, msg in cases:
        for insert in (insert_vertices, oracles.insert_vertices):
            with pytest.raises(MapError) as err:
                insert(path_map, None, pts)
            assert str(err.value) == msg


def test_insert_euler_still_sphere(random_maps):
    m, emb = random_maps[1]
    m2, emb2, _ = insert_vertices(m, emb, [(0, 0.5), (0, 0.75), (1, 0.1)])
    assert m2.num_vertices - m2.num_edges + m2.num_faces == 2


def test_insert_on_a_pole_edge_goes_toward_its_mark():
    # a vertex on an edge at a mark heads for that mark's side, v0's below
    # every vertex and v1's above, whichever way the edge runs: flipping the
    # edge moves its t-vertex to where 1 - t was.  The flipped top edge once
    # put its midpoint at -0.5, below its finite end at 0.785
    m, emb = make_lattice(8, 1.0)
    pole = np.flatnonzero(m.marked[m.edge_tail] | m.marked[m.edge_head])
    bottom, top = int(pole[0]), int(pole[-1])
    assert m.edge_tail[bottom] == m.v0 and m.edge_head[top] == m.v1
    for flip in ([bottom, top], [top]):
        mask = np.isin(np.arange(m.num_edges), flip).astype(np.int64)
        mf, _ = relabel_edges(m, np.arange(m.num_edges), mask)
        ef = CylinderEmbedding(emb.theta, emb.height, np.where(mask, -emb.dtheta, emb.dtheta))
        for t in (0.25, 0.5):
            pts = [(k, 1.0 - t if k in flip else t) for k in (bottom, top)]
            _, e1, _ = insert_vertices(m, emb, [(bottom, t), (top, t)])
            m2, e2, _ = insert_vertices(mf, ef, pts)
            assert e2.height[-2:].tobytes() == e1.height[-2:].tobytes()
            assert e2.theta[-2:].tobytes() == e1.theta[-2:].tobytes()
            assert e2.height[-2] < emb.height[m.edge_head[bottom]]
            assert e2.height[-1] > emb.height[m.edge_tail[top]]
            check_embedding(m2, e2)


def test_insert_between_the_marks_has_finite_coordinates(parallel3_map):
    # on an edge joining v0 to v1 a vertex sits at angle 0, on the line
    # from -(hmax + 1) to hmax + 1; the refined map checks and round-trips
    # through its JSON bytes
    poles_only = CylinderEmbedding(np.full(2, np.nan), np.full(2, np.nan), np.zeros(3))
    flip = np.array([0, 1, 0])
    flipped, _ = relabel_edges(parallel3_map, np.arange(3), flip)
    for m, heights in ((parallel3_map, [0.0, -0.5]), (flipped, [0.0, 0.5])):
        m2, e2, _ = insert_vertices(m, poles_only, [(0, 0.5), (1, 0.25)])
        assert e2.theta[2:].tolist() == [0.0, 0.0]
        assert e2.height[2:].tolist() == heights
        check_embedding(m2, e2)
        text = io_json.dump_json(io_json.map_to_json(m2, e2))
        m3, e3 = io_json.map_from_json(json.loads(text))
        assert_same_map(m3, m2)
        for name in ("theta", "height", "dtheta"):
            assert np.array_equal(getattr(e3, name), getattr(e2, name), equal_nan=True)
        assert io_json.dump_json(io_json.map_to_json(m3, e3)) == text


def test_insert_matches_loop(refinement_cases):
    # pole edges, several points per edge, shuffled input, the half-edge
    # refinement and no points, with and without the embedding; as a list
    # of pairs and as an (n, 2) array
    rng = np.random.default_rng(0)
    for m, emb in refinement_cases:
        pole = m.marked[m.edge_tail] | m.marked[m.edge_head]
        point_sets = [[(k, 0.5) for k in range(m.num_edges)], []]
        for _ in range(4):
            edges = np.flatnonzero(pole | (rng.random(m.num_edges) < 0.3))
            pts = [(int(k), float(t)) for k in edges
                   for t in rng.uniform(0.05, 0.95, rng.integers(1, 4))]
            point_sets.append([pts[i] for i in rng.permutation(len(pts))])
        for pts in point_sets:
            for e in (emb, None):
                m1, e1, o1 = oracles.insert_vertices(m, e, pts)
                for given in (pts, np.array(pts)):
                    m2, e2, o2 = insert_vertices(m, e, given)
                    oracles.assert_same_refinement(m2, e2, m1, e1)
                    assert np.array_equal(o2, o1)


# -- random maps --------------------------------------------------------------

# sha256 of dump_json(map_to_json(m, emb)) of random_map(seed) and then of
# oracles.small_random_map(seed) for seeds 0-59, written back to back; taken
# while mapgen still edited maps through per-face and per-edge loops
RANDOM_MAP_BYTES = "244ea5b01cd8faacddb3a57cfc395812c6d0f31301fdc8fb464b2128dcd5a376"


def test_random_map_bytes_are_pinned():
    h = hashlib.sha256()
    for seed in range(60):
        for build in (random_map, oracles.small_random_map):
            m, emb = build(seed)
            h.update(io_json.dump_json(io_json.map_to_json(m, emb)).encode())
    assert h.hexdigest() == RANDOM_MAP_BYTES
    # the shape lives in mapgen's constants; the small one is undone after
    assert list(inspect.signature(random_map).parameters) == ["seed"]
    assert (mapgen.N, mapgen.H, mapgen.SPLITS, mapgen.DIAGONALS, mapgen.DELETIONS) \
        == (7, 2.5, 4, 3, 2)


def test_random_map_candidates_match_loop_rules(random_maps, small_random_maps, lattice8):
    # the loop-and-parallel map adds a loop and a face with a marked corner
    maps = [m for m, _ in random_maps[:8] + small_random_maps + [lattice8]]
    faces = edges = 0
    for m in maps + [_loop_and_parallel_map()]:
        face_mask, edge_mask = mapgen._diagonal_faces(m), mapgen._deletable_edges(m)
        assert np.flatnonzero(face_mask).tolist() == oracles.diagonal_faces(m)
        assert np.flatnonzero(edge_mask).tolist() == oracles.deletable_edges(m)
        faces += face_mask.sum() * (~face_mask).sum()
        edges += edge_mask.sum() * (~edge_mask).sum()
    assert faces and edges      # both masks split some map
