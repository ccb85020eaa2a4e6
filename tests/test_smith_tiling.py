"""Rectangle tilings: geometry, validation report, adjacency, rendering."""

import dataclasses
import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smithtile import (TilingReport, build_diagram, conjugate, dual,
                       make_lattice, mark_vertices, reduce_mod, render_svg,
                       sample_excursion, smith_embedding, solve_voltage, tile,
                       validate)
from smithtile.mated_crt import build_map as build_mated
from smithtile import smith_tiling
from smithtile.electrical import Conjugate, Voltage
from smithtile.smith_tiling import TilingError

import oracles
from oracles import (build_map, contact_violations, dart_drift,
                     reference_validate, relabel_edges)


def report_is_exact(rep, tol=1e-12):
    return (rep.max_cover_defect <= tol and rep.area_defect <= tol
            and rep.max_aspect_defect <= tol and rep.max_level_defect <= tol)


# -- closed-form diagrams ----------------------------------------------------

def test_reduce_mod_range():
    assert reduce_mod(5.5, 3.0) == pytest.approx(2.5)
    assert reduce_mod(-0.5, 3.0) == pytest.approx(2.5)
    assert reduce_mod(3.0, 3.0) == 0.0
    for x in (-7.1, 0.0, 2.9, 123.4):
        assert 0.0 <= reduce_mod(x, 3.0) < 3.0


def test_path_diagram_two_belts(path_map):
    # both rectangles wrap the whole circumference eta = 1/2
    d = tile(solve_voltage(path_map))
    assert d.eta == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(d.rect_width, [0.5, 0.5], atol=1e-12)
    assert np.allclose(d.rect_x0, [0.0, 0.0], atol=1e-12)
    assert np.allclose(sorted(zip(d.rect_y0, d.rect_y1)),
                       [(0.0, 0.5), (0.5, 1.0)], atol=1e-12)
    assert report_is_exact(validate(d))
    assert contact_violations(d) == 0


def test_path_smith_points(path_map):
    d = tile(solve_voltage(path_map))
    se = smith_embedding(d)
    assert np.allclose(se.points, [[0.0, 0.0], [0.25, 0.5], [0.0, 1.0]],
                       atol=1e-12)
    assert se.eta == d.eta


def test_parallel3_diagram_unit_squares(parallel3_map):
    d = tile(solve_voltage(parallel3_map))
    assert d.eta == pytest.approx(3.0, abs=1e-12)
    assert np.allclose(d.rect_width, 1.0, atol=1e-12)
    assert np.allclose(d.rect_y0, 0.0, atol=0.0)
    assert np.allclose(d.rect_y1, 1.0, atol=0.0)
    assert sorted(d.rect_x0.tolist()) == pytest.approx([0.0, 1.0, 2.0],
                                                       abs=1e-12)
    # marked vertices own full-circumference boundary arcs
    assert d.hseg_len[parallel3_map.v0] == pytest.approx(3.0)
    assert d.hseg_len[parallel3_map.v1] == pytest.approx(3.0)
    rep = validate(d)
    assert report_is_exact(rep)
    assert rep.max_seg_length == pytest.approx(3.0)
    assert contact_violations(d) == 0


def test_rung_keeps_degenerate_rectangle(rung_map):
    # the symmetric rung carries no current: its rectangle has zero width
    # but is still present, and the tiling remains exact
    d = tile(solve_voltage(rung_map))
    assert d.eta == pytest.approx(1.0, abs=1e-12)
    assert d.rect_width[4] == 0.0
    assert np.allclose(np.sort(d.rect_width), [0.0, 0.5, 0.5, 0.5, 0.5],
                       atol=1e-12)
    assert report_is_exact(validate(d))
    assert contact_violations(d) == 0


def test_report_passed_gate():
    good = TilingReport(1.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    assert good.passed(1e-9)
    bad = TilingReport(1.0, 0.1, 0.0, 0.0, 0.0, 1.0)
    assert not bad.passed(1e-9)


# -- the tiling stage ----------------------------------------------------------

def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_tile_is_the_stage_sequence(lattice8, random_maps, mated_crt64, rung_map):
    """tile gives, bit for bit, the diagram and conjugate of dual ->
    conjugate -> build_diagram, with the embedding picking the base face."""
    cases = [lattice8, *random_maps[:4], (mated_crt64, None), (rung_map, None)]
    for m, emb in cases:
        v = solve_voltage(m)
        dm = dual(m, emb)
        c = conjugate(dm, v)
        want = build_diagram(m, dm, v, c)
        got = tile(v, emb)
        assert got.map is m and got.voltage is v and got.eta == want.eta
        for f in dataclasses.fields(want):
            if isinstance(getattr(want, f.name), np.ndarray):
                assert same_bits(getattr(got, f.name), getattr(want, f.name)), f.name
        assert same_bits(got.conjugate.w_lift, c.w_lift)
        assert got.dual.base == dm.base
    m, emb = lattice8
    v = solve_voltage(m)
    assert tile(v).dual.base != tile(v, emb).dual.base


def test_tile_passes_tol_to_both_stages(lattice8, monkeypatch):
    seen = []
    for name in ("conjugate", "build_diagram"):
        def record(*args, _f=getattr(smith_tiling, name), _name=name, **kwargs):
            seen.append((_name, kwargs.get("tol")))
            return _f(*args, **kwargs)
        monkeypatch.setattr(smith_tiling, name, record)
    m, emb = lattice8
    v = solve_voltage(m)
    tile(v, emb)
    tile(v, emb, tol=3e-7)
    assert seen == [("conjugate", 1e-9), ("build_diagram", 1e-9),
                    ("conjugate", 3e-7), ("build_diagram", 3e-7)]


# -- generic maps ------------------------------------------------------------

def test_solve_and_tile_peak_memory_per_edge():
    """The tracemalloc peak of solving and tiling the gamma = 1.8, n = 4096
    seed-1 map, per edge: 412.7-415.0 B with each face's segment read off
    its corners (456.1 B with the face-union sweep; 474.9 B while the dual
    derived its faces; 481.7 B with prev_dart, edge-end arrays of the map's
    own and a second flow formula; 603.3 B with int64 index arrays),
    bounded about 10% above, below the sweep's figure.  numpy reports its
    allocations to tracemalloc, so the figure does not depend on the host."""
    m = mark_vertices(build_mated(sample_excursion(1.8, 4096, 1)), seed=1).map
    tracemalloc.start()
    try:
        tile(solve_voltage(m))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / m.num_edges < 452


def test_random_maps_tile_exactly(random_maps):
    for m, emb in random_maps:
        d = tile(solve_voltage(m), emb)
        rep = validate(d)
        assert rep.passed(1e-9), rep
        assert contact_violations(d) == 0


def test_rect_widths_are_flows(random_maps):
    m, emb = random_maps[0]
    v = solve_voltage(m)
    d = tile(v, emb)
    assert np.allclose(d.rect_width, np.abs(v.flows[2 * np.arange(m.num_edges)]),
                       atol=1e-12)
    assert np.all(d.rect_y1 >= d.rect_y0)


# -- segment chain start ------------------------------------------------------

def pendant_map():
    """Vertex 1 has two falling darts to v0 with the dead pendant edge to
    vertex 3 between them, then its rising dart to v1."""
    return build_map(4, [(0, 1, 1.0), (0, 1, 2.0), (1, 2, 1.0), (1, 3, 1.0)],
                     [[0, 2], [1, 6, 3, 4], [5], [7]], marked=(0, 2))


def circle_gap(a, b, eta):
    d = np.mod(a - b, eta)
    return np.minimum(d, eta - d)


@pytest.fixture(scope="module")
def chain_maps(rung_map, random_maps, mated_crt64):
    maps = [pendant_map(), rung_map, random_maps[0][0], mated_crt64]
    return [(m, tile(solve_voltage(m))) for m in maps]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_diagram_independent_of_rotation_start(chain_maps, seed):
    rng = np.random.default_rng(seed)
    for m, d in chain_maps:
        perm = rng.permutation(m.num_edges)
        flip = rng.integers(0, 2, m.num_edges)
        m2, new = relabel_edges(m, perm, flip)
        face = np.empty(m.num_faces, dtype=np.int64)
        face[m.face_of] = m2.face_of[new]
        v2 = solve_voltage(m2)
        # the same base face, so that both conjugates share their zero
        dm2 = dataclasses.replace(dual(m2), base=int(face[d.dual.base]))
        d2 = build_diagram(m2, dm2, v2, conjugate(dm2, v2))
        eta = d.eta
        for got, want in ((circle_gap(d2.rect_x0[perm], d.rect_x0, eta), 0.0),
                          (d2.rect_width[perm], d.rect_width),
                          (d2.rect_y0[perm], d.rect_y0),
                          (d2.rect_y1[perm], d.rect_y1),
                          (circle_gap(d2.hseg_start, d.hseg_start, eta), 0.0),
                          (d2.hseg_len, d.hseg_len),
                          (circle_gap(d2.vseg_x[face], d.vseg_x, eta), 0.0),
                          (d2.vseg_y0[face], d.vseg_y0),
                          (d2.vseg_y1[face], d.vseg_y1)):
            assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("map_seed, mark_seed", [(4, 3004), (5, 11005)])
def test_weak_current_does_not_split_a_falling_run(map_seed, mark_seed):
    # a genuine current below the flow floor is classed zero; at vertex 614
    # (map 4) and 778 (map 5) it sits inside a falling run, where the chain
    # must not start
    m = mark_vertices(build_mated(oracles.sample_excursion(1.8, 1024, seed=map_seed)),
                      seed=mark_seed).map
    rep = validate(tile(solve_voltage(m)))
    assert rep.passed(1e-9), rep


@pytest.mark.parametrize("seed, x, flows", [(18, 61, (-2.05e-12, 9.1e-13)),
                                            (30, 105, (4.11e-12, -9.1e-13))])
def test_flow_floor_keeps_one_sided_noise_a_point_segment(seed, x, flows):
    # the gamma = 1.8, n = 256 maps of `smith mated-crt --seed 18` and `30`:
    # vertex x of a snapped cluster keeps two rounding-noise flows of
    # opposite signs, one above the flow floor (1e-12) and one below it.
    # Classed against the floor, its darts carry one class only, so its
    # segment is a point of length exactly 0; classed against 0 it would
    # open to the larger flow, 2.1e-12 and 4.1e-12.
    m = mark_vertices(build_mated(sample_excursion(1.8, 256, seed)), seed=seed).map
    v = solve_voltage(m)
    d = tile(v)
    fl = v.flows[m.vertex_darts[x]]
    assert fl[fl != 0.0] == pytest.approx(flows, rel=0.01)
    assert d.hseg_len[x] == 0.0
    assert validate(d).passed(1e-9)


# -- array code against the loop oracle ----------------------------------------

def tiling_error(fn, *args):
    try:
        fn(*args)
    except TilingError as e:
        return str(e)
    return None


def test_diagram_errors_match_loop_oracle(random_maps, mated_crt64):
    """Inputs perturbed three ways fail at the same first vertex, with the
    same text, as the vertex-by-vertex loop; unperturbed and harmlessly
    perturbed ones give the same diagram."""
    kinds = set()
    for m, emb in (random_maps[2], (mated_crt64, None)):
        v = solve_voltage(m)
        dm = dual(m, emb)
        c = conjugate(dm, v)
        cases = [(v, c), (dataclasses.replace(v, eta=v.eta / 2), c)]
        # a zero-width chain: a vertex takes a neighbour's voltage
        for x in range(24):
            for y in m.dart_head[m.vertex_darts[x]]:
                h = v.values.copy()
                h[x] = h[y]
                cases.append((dataclasses.replace(v, values=h), c))
        for f in range(0, m.num_faces, 9):
            w = c.w_lift.copy()
            w[f] += 1e-3 * v.eta
            cases.append((v, dataclasses.replace(c, w_lift=w)))
        for x in range(1, m.num_vertices, 9):
            h = v.values.copy()
            h[x] = min(1.0, h[x] + 1e-6)
            cases.append((dataclasses.replace(v, values=h), c))
        for v2, c2 in cases:
            got = tiling_error(build_diagram, m, dm, v2, c2)
            assert got == tiling_error(oracles.build_diagram, m, dm, v2, c2)
            if got is None:
                d, want = build_diagram(m, dm, v2, c2), oracles.build_diagram(m, dm, v2, c2)
                for f in dataclasses.fields(d):
                    if isinstance(getattr(d, f.name), np.ndarray):
                        assert np.array_equal(getattr(d, f.name), getattr(want, f.name)), f.name
            kinds.add(got if got is None else got.split(": ", 1)[1].split(" of edge")[0])
    assert {None, "rectangle", "flows do not balance around the rotation",
            "segment longer than the circumference"} <= kinds


def _saddle(spokes):
    """A hand-made saddle at vertex 0: spokes of conductance 10 to vertices
    1-4, in that CCW order, at the voltages ``spokes`` around 0.5, a rim of
    conductance 1, and the marks 5 and 6 as pendants of vertices 3 and 2.
    The voltage is not harmonic; the conjugate's faces around vertex 0 take
    the running sums of its flows from the face right of dart 0, and every
    other face w = 0."""
    edges = [(0, 1, 10.0), (0, 2, 10.0), (0, 3, 10.0), (0, 4, 10.0), (1, 2, 1.0),
             (2, 3, 1.0), (3, 4, 1.0), (4, 1, 1.0), (5, 3, 1.0), (2, 6, 1.0)]
    rotation = [[0, 2, 4, 6], [8, 1, 15], [18, 10, 3, 9], [5, 11, 17, 12],
                [14, 7, 13], [16], [19]]
    m = build_map(7, edges, rotation, marked=(5, 6))
    v = Voltage(m, np.array([0.5, *spokes, 0.0, 1.0]), 0.0, 4.0, 0.0)
    w = np.zeros(m.num_faces)
    for g in (0, 2, 4):
        w[m.face_of[g + 2]] = w[m.face_of[g]] - v.flows[g]
    dm = dual(m)
    c = Conjugate(dm, v, w, 0.0, np.full(m.num_faces, -1), np.zeros(m.num_faces))
    return m, dm, v, c


def test_saddle_whose_chain_dips_is_not_contiguous():
    # falling, rising, falling, rising with flows 1, 2, 2 and 1: the chain
    # starts at the fall of 1, so its running sum dips to -1 after the rise
    # of 2, and vertex 0's segment union is not contiguous
    m, dm, v, c = _saddle([0.4, 0.7, 0.3, 0.6])
    assert np.allclose(v.flows[[0, 2, 4, 6]], [-1.0, 2.0, -2.0, 1.0])
    msg = "vertex 0: segment union not contiguous modulo eta"
    with pytest.raises(TilingError, match=msg):
        build_diagram(m, dm, v, c)
    assert tiling_error(oracles.build_diagram, m, dm, v, c) == msg
    # the limit of that check: with the non-dipping fall first (flows 2, 1,
    # 1 and 2) the running sum stays in [0, 2], every check of vertex 0
    # passes, and the error names a later vertex
    m, dm, v, c = _saddle([0.3, 0.6, 0.4, 0.7])
    assert np.allclose(v.flows[[0, 2, 4, 6]], [-2.0, 1.0, -1.0, 2.0])
    msg = "vertex 2: rectangle of edge 1 misaligned with the segment chain"
    assert tiling_error(build_diagram, m, dm, v, c) == msg
    assert tiling_error(oracles.build_diagram, m, dm, v, c) == msg


def test_smith_embedding_matches_loop_oracle(lattice8, random_maps, mated_crt64):
    for m, emb in [lattice8, random_maps[3], (mated_crt64, None)]:
        d = tile(solve_voltage(m), emb)
        assert np.array_equal(smith_embedding(d).points, oracles.smith_embedding(d))


# -- lattice geometry --------------------------------------------------------

def test_lattice_squares(lattice8_solved):
    m, emb, v = lattice8_solved
    d = tile(solve_voltage(m), emb)
    n = 8
    M = (m.num_vertices - 2) // n
    side = 1.0 / (M + 1)
    dh = np.abs(v.values[m.edge_head] - v.values[m.edge_tail])
    flat = dh < 1e-12
    assert np.all(d.rect_width[flat] <= 1e-12)
    assert np.allclose(d.rect_width[~flat], side, atol=1e-10)
    assert np.allclose(d.rect_y1[~flat] - d.rect_y0[~flat], side, atol=1e-10)
    assert report_is_exact(validate(d), tol=1e-10)


def test_lattice_columns_aligned(lattice8_solved):
    # segment midpoints in one lattice column share an abscissa mod eta, and
    # neighboring columns sit eta/n apart
    m, emb, v = lattice8_solved
    d = tile(solve_voltage(m), emb)
    se = smith_embedding(d)
    n = 8
    M = (m.num_vertices - 2) // n
    eta = d.eta
    cols = []
    for j in range(n):
        xs = np.array([se.points[r * n + j, 0] for r in range(M)])
        rel = np.mod(xs - xs[0] + eta / 2, eta) - eta / 2
        assert np.max(np.abs(rel)) < 1e-9
        cols.append(xs[0])
    for j in range(n):
        gap = reduce_mod(cols[(j + 1) % n] - cols[j], eta)
        assert gap == pytest.approx(eta / n, abs=1e-9)


# -- midpoint drift ----------------------------------------------------------

def test_drift_telescopes_around_faces(random_maps):
    m, emb = random_maps[1]
    d = tile(solve_voltage(m), emb)
    for orbit in m.face_darts:
        if any(m.is_marked(int(m.dart_tail[h])) for h in orbit):
            continue
        s = sum(dart_drift(d, int(h)) for h in orbit)
        assert abs(s) < 1e-12


def test_drift_row_cycle_winds_once(lattice8_solved):
    m, emb, v = lattice8_solved
    d = tile(solve_voltage(m), emb)
    row = [2 * (3 * 8 + j) for j in range(8)]
    s = sum(dart_drift(d, h) for h in row)
    assert s == pytest.approx(d.eta, abs=1e-12)


def test_sheet_puts_each_rectangle_inside_its_tail_segment(random_maps, lattice8,
                                                           mated_crt64, crt48_maps):
    # the frame the winding law reads its drifts in: the rectangle of a
    # dart's edge, lifted by sheet * eta, lies inside the segment of the
    # dart's tail (marks excepted, whose segment is the whole circle);
    # measured up to 6.2e-12 on the n = 1024 map
    crt = [mark_vertices(build_mated(sample_excursion(1.8, n, seed=s)), seed=s).map
           for n, s in ((48, 3), (1024, 2))]
    maps = list(random_maps) + [lattice8] + [(m, None) for m in [mated_crt64, *crt48_maps, *crt]]
    for m, emb in maps:
        d = tile(solve_voltage(m), emb)
        tol = 1e-9 * max(1.0, d.eta)
        h = np.flatnonzero(~m.marked[m.dart_tail])
        x, k = m.dart_tail[h], h >> 1
        lo = d.rect_x0[k] + d.sheet[h] * d.eta
        assert np.all(lo >= d.hseg_start[x] - tol)
        assert np.all(lo + d.rect_width[k] <= d.hseg_start[x] + d.hseg_len[x] + tol)


# -- rendering ---------------------------------------------------------------

def test_render_svg_basic(path_map):
    d = tile(solve_voltage(path_map))
    svg = render_svg(d)
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    # background plus one piece per full-width belt
    assert svg.count("<rect") == 1 + 2
    assert "<line" in svg


def test_render_svg_options(parallel3_map):
    d = tile(solve_voltage(parallel3_map))
    assert render_svg(d) == render_svg(d)
    assert render_svg(d, color_by="size") != render_svg(d, color_by="order")
    no_seg = render_svg(d, segments=False)
    assert "<line" not in no_seg
    narrow = render_svg(d, width_px=300)
    assert 'width="300"' in narrow
    with pytest.raises(ValueError, match="color_by"):
        render_svg(d, color_by="rainbow")


def test_render_svg_splits_seam_rectangles(random_maps):
    m, emb = random_maps[0]
    d = tile(solve_voltage(m), emb)
    eta = d.eta
    seam = sum(1 for k in range(m.num_edges)
               if d.rect_width[k] > 0 and d.rect_x0[k] + d.rect_width[k] > eta)
    drawn = sum(1 for k in range(m.num_edges)
                if d.rect_width[k] > 0 and d.rect_y1[k] > d.rect_y0[k])
    svg = render_svg(d, segments=False)
    assert svg.count("<rect") == 1 + drawn + seam


# -- validate against the level-by-level oracle -------------------------------

REPORT_FIELDS = [f.name for f in dataclasses.fields(TilingReport)]


def assert_reports_agree(got, want, tol=1e-12):
    for name in REPORT_FIELDS:
        assert abs(getattr(got, name) - getattr(want, name)) <= tol, name


@pytest.fixture(scope="module")
def sweep_diagrams(random_maps, rung_map, path_map, parallel3_map, lattice8,
                   mated_crt64):
    """Diagrams with seam rectangles (random maps), a zero-width rectangle
    (rung_map), full belts (path_map), a CG-solved lattice whose rows split
    into many levels, and a mated-CRT map without embedding."""
    cases = list(random_maps) + [(rung_map, None), (path_map, None),
                                 (parallel3_map, None), lattice8,
                                 make_lattice(32, 2.0), (mated_crt64, None)]
    return [tile(solve_voltage(m), emb) for m, emb in cases]


def test_validate_matches_slab_reference(sweep_diagrams):
    seam = 0
    for d in sweep_diagrams:
        assert_reports_agree(validate(d), reference_validate(d))
        seam += int(np.sum((d.rect_width > 0) & (d.rect_x0 + d.rect_width > d.eta)))
    assert seam > 0


def _perturbed(d):
    """Three broken copies of a diagram: a shifted rectangle (overlap and a
    gap), a zero width (a gap) and a wrong segment length (a level
    defect)."""
    k = int(np.argmax(d.rect_width * (d.rect_y1 - d.rect_y0)))
    x0 = d.rect_x0.copy()
    x0[k] = reduce_mod(x0[k] + d.rect_width[k] / 2, d.eta)
    width = d.rect_width.copy()
    width[k] = 0.0
    x = next(x for x in range(d.map.num_vertices) if not d.map.is_marked(x))
    seg = d.hseg_len.copy()
    seg[x] += 0.1 * d.eta
    return [(("max_cover_defect",), dataclasses.replace(d, rect_x0=x0)),
            (("max_cover_defect",), dataclasses.replace(d, rect_width=width)),
            (("max_level_defect",), dataclasses.replace(d, hseg_len=seg))]


def perturbable(d):
    # path_map's belts shift onto themselves; parallel3_map has no unmarked
    # vertex to give a wrong segment
    return d.map.num_vertices > 3


def test_validate_flags_perturbed_diagrams_like_reference(sweep_diagrams):
    for d in filter(perturbable, sweep_diagrams):
        for fields, bad in _perturbed(d):
            got, want = validate(bad), reference_validate(bad)
            assert_reports_agree(got, want)
            for field in fields:
                assert getattr(got, field) > 1e-9, field
            assert not got.passed() and not want.passed()


def test_validate_pass_implies_no_slab_overlap_or_gap(sweep_diagrams):
    """One way, on every fixture and every broken copy: a diagram that
    validate passes has no overlap and no gap by the loop slab sweep."""
    passed = 0
    for d in sweep_diagrams:
        broken = [bad for _, bad in _perturbed(d)] if perturbable(d) else []
        for case in [d] + broken:
            if validate(case).passed():
                passed += 1
                overlap, coverage = oracles.slab_sweep(case)
                assert overlap <= 1e-9 and coverage <= 1e-9
    assert passed == len(sweep_diagrams)


def test_validate_matches_reference_at_benchmark_size():
    # the first map of the crt_tile benchmark: about 2500 edges, 1000 levels
    m = mark_vertices(build_mated(sample_excursion(1.8, 1024, 1)), seed=1).map
    d = tile(solve_voltage(m))
    got = validate(d)
    assert got.passed()
    assert_reports_agree(got, reference_validate(d))
    for fields, bad in _perturbed(d):
        got, want = validate(bad), reference_validate(bad)
        assert_reports_agree(got, want)
        for field in fields:
            assert getattr(got, field) > 1e-9, field
        assert not got.passed() and not want.passed()


def assert_defects_bound_sweep(d):
    # the overlap plus the gap area is at most the sum of D(a)
    assert sum(oracles.cover_defects(d).values()) >= sum(oracles.slab_sweep(d)) - 1e-12


@settings(max_examples=40, deadline=None)
@given(i=st.integers(0, 19), k=st.integers(0, 10 ** 6), j=st.integers(0, 10 ** 6),
       frac=st.floats(-1.0, 1.0), scale=st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
def test_validate_matches_reference_on_broken_diagrams(sweep_diagrams, i, k, j, frac,
                                                       scale):
    d = sweep_diagrams[i]    # random_map(i)
    E = d.map.num_edges
    x0 = d.rect_x0.copy()
    x0[k % E] = reduce_mod(x0[k % E] + frac * d.eta, d.eta)
    width = d.rect_width.copy()
    width[j % E] *= scale
    bad = dataclasses.replace(d, rect_x0=x0, rect_width=width)
    got, want = validate(bad), reference_validate(bad)
    assert_reports_agree(got, want)
    assert got.passed() == want.passed()
    assert_defects_bound_sweep(bad)


@settings(max_examples=60, deadline=None)
@given(eta=st.floats(0.1, 4.0), levels=st.lists(st.floats(0.0, 1.0), max_size=5),
       rects=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.floats(0.0, 1.0),
                                st.floats(0.0, 1.0)), min_size=1, max_size=12))
def test_cover_defects_on_random_rectangles(eta, levels, rects):
    """Rectangles on shared levels in [0, 1], some past the seam, some of
    zero width or height: validate's cover defect is the loop oracle's, and
    the defects summed over the levels bound the slab sweep's overlap plus
    gap."""
    ys = sorted({0.0, 1.0, *levels})
    y = np.array([sorted((ys[i % len(ys)], ys[j % len(ys)])) for i, j, _, _ in rects])
    x0 = np.array([reduce_mod(f * eta, eta) for _, _, f, _ in rects])
    width = np.array([w * eta for *_, w in rects])
    m = types.SimpleNamespace(conductance=np.ones(len(rects)))
    d = types.SimpleNamespace(map=m, eta=eta, rect_x0=x0, rect_width=width,
                              rect_y0=y[:, 0], rect_y1=y[:, 1], hseg_level=np.zeros(1),
                              hseg_len=np.full(1, eta))
    assert abs(validate(d).max_cover_defect
               - max(oracles.cover_defects(d).values())) <= 1e-12
    assert_defects_bound_sweep(d)
