"""Each benchmark check accepts the program's real output and rejects a
perturbed one.

    python3 -m pytest bench -q
"""

import copy
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from smithtile import map_core, walk_lab  # noqa: E402


# -- lattice ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def lattice_result():
    w = workloads.LatticeTile()
    w.N, w.H = 12, 2.0
    return w, w.run(None)


def _lattice_check(w, r, **change):
    M = checks.lattice_rows(w.N, w.H)
    args = dict(n=w.N, M=M, num_vertices=r["map"].num_vertices, eta=r["voltage"].eta,
                values=r["voltage"].values.copy(), tiling_ok=r["report"].passed(checks.TOL),
                c_h=r["fit"].c_h, sup_err=r["fit"].sup_err)
    args.update(change)
    return checks.check_lattice(**args)


def test_lattice_accepts_the_pipeline(lattice_result):
    w, r = lattice_result
    assert w.check(None, r) == []
    assert _lattice_check(w, r) == []


def test_lattice_rejects_perturbations(lattice_result):
    w, r = lattice_result
    v = r["voltage"].values.copy()
    v[w.N + 3] += 1e-7
    assert _lattice_check(w, r, values=v)
    assert _lattice_check(w, r, eta=r["voltage"].eta * (1 + 1e-7))
    assert _lattice_check(w, r, c_h=r["fit"].c_h * (1 + 1e-7))
    assert _lattice_check(w, r, sup_err=2e-9)
    assert _lattice_check(w, r, tiling_ok=False)
    assert _lattice_check(w, r, num_vertices=r["map"].num_vertices + 1)


# -- mated-CRT --------------------------------------------------------------------

@pytest.fixture(scope="module")
def crt_result():
    w = workloads.CrtTile()
    w.N = 96
    spec = workloads.CrtSpec(map_seed=3, pair_seed=7)
    return w, spec, w.run(spec)


def test_crt_accepts_the_pipeline(crt_result):
    w, spec, r = crt_result
    assert w.check(spec, r) == []


def test_crt_voltage_check_rejects(crt_result):
    _, _, r = crt_result
    m, v = r["map"], r["voltage"]
    ref, ref_eta = checks.dirichlet_solve(m.num_vertices, m.edge_tail, m.edge_head,
                                          m.conductance, m.v0, m.v1)
    assert checks.check_voltage(v.values, v.eta, ref, ref_eta) == []
    bad = v.values.copy()
    bad[np.flatnonzero((bad > 0) & (bad < 1))[0]] += 1e-7
    assert checks.check_voltage(bad, v.eta, ref, ref_eta)
    assert checks.check_voltage(v.values, v.eta * (1 + 1e-7), ref, ref_eta)


def test_crt_energy_check_rejects(crt_result):
    _, _, r = crt_result
    m, v, d = r["map"], r["voltage"], r["diagram"]
    args = (m.edge_tail, m.edge_head, m.conductance, v.values, v.eta,
            d.rect_width, d.rect_y0, d.rect_y1)
    assert checks.check_energy(*args) == []
    wide = d.rect_width.copy()
    wide[int(np.argmax(wide * (d.rect_y1 - d.rect_y0)))] *= 1 + 1e-6
    assert checks.check_energy(*args[:5], wide, d.rect_y0, d.rect_y1)
    cond = m.conductance.copy()
    cond[int(np.argmax(d.rect_width))] *= 2.0
    assert checks.check_energy(m.edge_tail, m.edge_head, cond, *args[3:])


def test_crt_euler_check_rejects(crt_result):
    _, _, r = crt_result
    m = r["map"]
    assert checks.check_euler(m.num_vertices, m.num_edges, m.next_dart) == []
    # transposing two images of the rotation changes the number of faces
    nd = m.next_dart.copy()
    a, b = int(m.vertex_darts[0][0]), int(m.vertex_darts[5][0])
    nd[a], nd[b] = nd[b], nd[a]
    assert checks.check_euler(m.num_vertices, m.num_edges, nd)


def test_crt_arc_check_rejects(crt_result):
    _, spec, r = crt_result
    mm = r["crt"]
    kind = np.asarray(mm.kind)
    pairs = np.stack([mm.map.edge_tail, mm.map.edge_head], axis=1)
    lows, ups = pairs[kind == 1], pairs[kind == 2]
    sample = [tuple(p) for p in lows[:8]] + [tuple(p) for p in ups[:8]] + [(0, 50), (10, 80)]
    oracle = lambda i, j: workloads.mated_crt.adjacency_oracle(mm.exc, i, j)  # noqa: E731
    assert checks.check_arcs(oracle, lows, ups, sample) == []
    assert checks.check_arcs(oracle, lows[1:], ups, sample)          # an arc lost
    assert checks.check_arcs(lambda i, j: (False, False), lows, ups, sample)


def test_crt_json_check_rejects(crt_result):
    _, _, r = crt_result
    d = r["diagram"]
    arrays = {"rect_x0": d.rect_x0, "rect_width": d.rect_width}
    text = r["diagram_text"]
    assert checks.check_json_round_trip(text, text, arrays, copy.deepcopy(arrays)) == []
    assert checks.check_json_round_trip(text, text.replace("e", "E", 1), arrays, arrays)
    off = dict(arrays)
    off["rect_x0"] = d.rect_x0.copy()
    off["rect_x0"][0] = np.nextafter(off["rect_x0"][0], 1.0)
    assert checks.check_json_round_trip(text, text, arrays, off)


# -- walk laws --------------------------------------------------------------------

@pytest.fixture(scope="module")
def walk_result():
    w = workloads.WalkLaws()
    spec = workloads.WalkSpec(map_seed=2, mc_seed=11)
    return w, spec, w.run(spec)


def test_walk_accepts_the_pipeline(walk_result):
    w, spec, r = walk_result
    assert w.check(spec, r) == []


def test_verify_check_rejects(walk_result):
    _, _, r = walk_result
    laws = r["laws"]
    assert checks.check_verify(True, laws) == []
    assert checks.check_verify(False, laws)
    for key in ("level_mass_max_dev", "hitting_max_dev", "winding_max_abs",
                "projection_max_dev"):
        assert checks.check_verify(True, dict(laws, **{key: 1e-3})), key


def test_chi2_tail_matches_scipy():
    from scipy.stats import chi2
    for k in (1, 2, 3, 6, 7, 16, 24):
        for x in (0.5, 3.0, 10.0, 40.0, 80.0):
            assert checks.chi2_sf(x, k) == pytest.approx(chi2.sf(x, k), rel=1e-9, abs=1e-15)


def test_exit_test_tolerates_other_random_streams(walk_result):
    # the same kernel on fresh seeds passes: the test is not tuned to one stream
    w, _, r = walk_result
    m = r["map"]
    ref, _ = checks.dirichlet_solve(m.num_vertices, m.edge_tail, m.edge_head,
                                    m.conductance, m.v0, m.v1)
    for base in (1, 2):
        hits = [sum(int(walk_lab.simulate(m, x, {m.v0, m.v1}, seed=base * 10**6 + i * 1000 + k)
                        .vertices[-1]) == m.v1 for k in range(w.WALKS))
                for i, x in enumerate(r["starts"])]
        assert checks.pooled_exit_test(hits, [w.WALKS] * len(hits), ref[r["starts"]]) == []


def test_exit_test_rejects_a_kernel_that_ignores_conductances(walk_result):
    w, _, r = walk_result
    m = r["map"]
    ref, _ = checks.dirichlet_solve(m.num_vertices, m.edge_tail, m.edge_head,
                                    m.conductance, m.v0, m.v1)
    unit = map_core.CombMap(m.num_vertices, m.edge_tail, m.edge_head,
                            np.ones(m.num_edges), m.next_dart, v0=m.v0, v1=m.v1)
    hits = [sum(int(walk_lab.simulate(unit, x, {m.v0, m.v1}, seed=i * 1000 + k)
                    .vertices[-1]) == m.v1 for k in range(w.WALKS))
            for i, x in enumerate(r["starts"])]
    assert checks.pooled_exit_test(hits, [w.WALKS] * len(hits), ref[r["starts"]])


def test_lattice_exit_test_rejects_a_shifted_line(walk_result):
    w, spec, r = walk_result
    s = r["s"]
    rep = r["inv"]
    hits = np.rint(rep.p_hat * rep.walks_per_start)
    p = (r["lattice_h"][r["lstarts"]] - (-2 * s)) / (4 * s)
    assert checks.pooled_exit_test(hits, [rep.walks_per_start] * len(hits), p) == []
    assert checks.pooled_exit_test(hits, [rep.walks_per_start] * len(hits),
                                   np.clip(p + 0.1, 0.05, 0.95))
    bad = dict(r, inv_dual=replace(r["inv_dual"], p_hat=np.clip(r["inv_dual"].p_hat + 0.15, 0, 1)))
    assert w.check(spec, bad)


def test_sure_exit_must_match_exactly():
    assert checks.pooled_exit_test([10, 0], [10, 10], [1.0, 0.0]) == []
    assert checks.pooled_exit_test([9, 0], [10, 10], [1.0, 0.0])
    assert math.isclose(checks.chi2_sf(0.0, 3), 1.0)
