"""Harmonic voltages, flows, and the conjugate width function."""

import collections
import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.sparse.csgraph import breadth_first_order

from smithtile import (MapError, SolveError, conjugate, dual, harmonic_darts,
                       insert_vertices, make_lattice, make_rng, mark_vertices,
                       random_map, solve_voltage, tile)
from smithtile import electrical, mated_crt
from smithtile.electrical import Conjugate
from smithtile.map_core import CombMap, components, marked_cut_path
from smithtile.mated_crt import build_map as build_mated

import oracles
from oracles import build_map, dual_cycle_winding_cut, harmonic_dart


def oracle_voltage(m):
    """Dense Dirichlet solve straight from the edge list.

    Row replacement on the full Laplacian rather than elimination of the
    boundary, so it shares no code path with solve_voltage."""
    V = m.num_vertices
    L = np.zeros((V, V))
    for k in range(m.num_edges):
        u, w = int(m.edge_tail[k]), int(m.edge_head[k])
        c = float(m.conductance[k])
        if u == w:
            continue
        L[u, u] += c
        L[w, w] += c
        L[u, w] -= c
        L[w, u] -= c
    A = L.copy()
    b = np.zeros(V)
    for vv, val in ((m.v0, 0.0), (m.v1, 1.0)):
        A[vv, :] = 0.0
        A[vv, vv] = 1.0
        b[vv] = val
    h = np.linalg.solve(A, b)
    eta = float(L[m.v1, :] @ h)       # net current into the top vertex
    return h, eta


# -- closed-form voltages ----------------------------------------------------

def test_path_voltage(path_map):
    v = solve_voltage(path_map)
    assert np.allclose(v.values, [0.0, 0.5, 1.0], atol=1e-12)
    assert v.eta == pytest.approx(0.5, abs=1e-12)
    assert v.residual <= 1e-10
    assert v.eta_mismatch <= 1e-12


def test_parallel3_voltage(parallel3_map):
    v = solve_voltage(parallel3_map)
    assert np.allclose(v.values, [0.0, 1.0], atol=0.0)
    assert v.eta == pytest.approx(3.0, abs=1e-12)


def test_rung_carries_no_current(rung_map):
    v = solve_voltage(rung_map)
    assert np.allclose(v.values, [0.0, 0.5, 0.5, 1.0], atol=1e-12)
    assert v.flows[2 * 4] == pytest.approx(0.0, abs=1e-13)
    assert v.eta == pytest.approx(1.0, abs=1e-12)


def test_lattice_rows_equipotential(lattice8_solved):
    m, emb, v = lattice8_solved
    n = 8
    M = (m.num_vertices - 2) // n
    for r in range(M):
        want = (r + 1) / (M + 1)
        got = v.values[r * n: (r + 1) * n]
        assert np.max(np.abs(got - want)) < 1e-10
    assert v.eta == pytest.approx(n / (M + 1), abs=1e-10)


class CountingSolvers:
    """``scipy.sparse.linalg`` as ``electrical`` reaches it, counting the
    calls of its sparse solvers."""

    def __init__(self):
        self._spla = electrical.spla
        self.calls = collections.Counter()

    def __getattr__(self, name):
        fn = getattr(self._spla, name)
        if name not in ("splu", "cg", "spsolve"):
            return fn

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return counted


def solver_calls(monkeypatch, m):
    """solve_voltage(m) and the sparse solver calls it made."""
    spy = CountingSolvers()
    with monkeypatch.context() as patch:
        patch.setattr(electrical, "spla", spy)
        v = solve_voltage(m)
    return v, dict(spy.calls)


def check_lattice_rows(m, v, n):
    M = (m.num_vertices - 2) // n
    rows = v.values[:n * M].reshape(M, n)
    want = (np.arange(M) + 1.0) / (M + 1)
    assert np.max(np.abs(rows - want[:, None])) < 1e-10
    assert v.eta == pytest.approx(n / (M + 1), abs=1e-9)


def test_small_system_uses_sparse_lu(monkeypatch):
    # 178 vertices, below LU_LIMIT: the LU, though the interior two-colours
    m, _ = make_lattice(16, 2.0)
    assert m.num_vertices - 2 < electrical.LU_LIMIT
    v, calls = solver_calls(monkeypatch, m)
    assert calls == {"splu": 1}
    check_lattice_rows(m, v, 16)


def test_large_lattice_uses_iterative_solver(monkeypatch):
    # 674 vertices: above LU_LIMIT, and an even lattice two-colours, so
    # this exercises the CG branch
    m, _ = make_lattice(32, 2.0)
    assert m.num_vertices > 500
    v, calls = solver_calls(monkeypatch, m)
    assert calls == {"cg": 1}
    check_lattice_rows(m, v, 32)


def lattice_voltage(m, n):
    """The exact voltage of a unit lattice of n columns: row r of its M
    rows at (r + 1) / (M + 1), then v0 and v1."""
    M = (m.num_vertices - 2) // n
    return np.append(np.repeat((np.arange(M) + 1.0) / (M + 1), n), [0.0, 1.0])


def crt_map(n, seed):
    return mark_vertices(build_mated(mated_crt.sample_excursion(1.8, n, seed)), seed=seed).map


SOLVER_RULE = [
    ("lattice", (16, 2.0), "splu"),       # below LU_LIMIT
    ("lattice", (32, 2.0), "cg"),
    ("lattice", (64, 4.0), "cg"),
    ("lattice", (64, 8.0), "cg"),
    ("lattice", (33, 4.0), "splu"),       # odd columns: not bipartite
    ("lattice", (65, 4.0), "splu"),
    ("crt", (1024, 1), "splu"),           # gamma = 1.8
    ("random", (1,), "splu"),             # below LU_LIMIT
]


@pytest.mark.parametrize("family, args, solver", SOLVER_RULE,
                         ids=["-".join(map(str, (f, *a, s))) for f, a, s in SOLVER_RULE])
def test_solver_follows_the_colouring(monkeypatch, family, args, solver):
    # one rule: the LU below LU_LIMIT; above it the CG where the interior
    # two-colours and the LU where it does not
    m = {"lattice": lambda n, H: make_lattice(n, H)[0], "crt": crt_map,
         "random": lambda seed: random_map(seed)[0]}[family](*args)
    bfs = []

    def counted_bfs(*a, **k):
        bfs.append(1)
        return breadth_first_order(*a, **k)
    monkeypatch.setattr(electrical, "breadth_first_order", counted_bfs)
    v, calls = solver_calls(monkeypatch, m)
    assert calls == {solver: 1}
    assert len(bfs) == (m.num_vertices - 2 >= electrical.LU_LIMIT)
    # the dense solve of the 5314 vertices of make_lattice(64, 4.0) would
    # take 0.2 GB, of the larger lattices more
    want = oracle_voltage(m)[0] if m.num_vertices <= 2000 else lattice_voltage(m, args[0])
    assert np.max(np.abs(v.values - want)) <= 1e-13


def cg_calls(monkeypatch):
    """Route ``electrical``'s CG calls through a spy: (the size of each
    system solved, the iterates of all calls)."""
    spy = CountingSolvers()
    sizes, counted = [], []

    def cg(A, *args, **kwargs):
        sizes.append(A.shape[0])
        return spy._spla.cg(A, *args, callback=counted.append, **kwargs)
    spy.cg = cg
    monkeypatch.setattr(electrical, "spla", spy)
    return sizes, counted


@pytest.mark.parametrize("n, H, iters", [(32, 2.0, 21), (32, 4.0, 37), (64, 4.0, 69),
                                         (64, 8.0, 128), (128, 4.0, 128)])
def test_bipartite_lattice_solves_the_red_black_schur_complement(monkeypatch, n, H, iters):
    # an even lattice's interior is bipartite: CG runs on the Schur
    # complement of the odd class, half the unknowns, in fewer iterations
    # than Jacobi-CG on all of them (28, 60, 126, 245 and 245)
    m, _ = make_lattice(n, H)
    sizes, counted = cg_calls(monkeypatch)
    v = solve_voltage(m)
    ref, ref_iters = oracles.jacobi_cg_voltage(m)
    assert sizes == [(m.num_vertices - 2) // 2]
    assert len(counted) == iters < ref_iters
    assert np.max(np.abs(v.values - lattice_voltage(m, n))) <= 1e-13
    assert np.max(np.abs(v.values - ref.values)) <= 1e-13
    if m.num_vertices <= 2000:
        assert np.max(np.abs(v.values - oracle_voltage(m)[0])) <= 1e-13


def test_random_conductance_lattice_solves_the_red_black_schur_complement(monkeypatch):
    # conductances 1 and 4 make the Jacobi scaling, and so B, non-uniform.
    # CG stops at a relative residual of 1e-13, which on this lattice leaves
    # voltage errors near 1e-13 on either path: against a refined dense
    # solve, 7.5e-14 here and 6.0e-14 for Jacobi-CG on all the unknowns
    m = make_lattice(32, 4.0)[0]
    c = make_rng(1).choice([1.0, 4.0], size=m.num_edges)
    m = CombMap(m.num_vertices, m.edge_tail, m.edge_head, c, m.next_dart, v0=m.v0, v1=m.v1)
    sizes, counted = cg_calls(monkeypatch)
    v = solve_voltage(m)
    ref, ref_iters = oracles.jacobi_cg_voltage(m)
    assert sizes == [(m.num_vertices - 2) // 2]
    assert len(counted) == 113 < ref_iters == 226
    h_ref, eta_ref = oracle_voltage(m)
    assert np.max(np.abs(v.values - h_ref)) <= 1e-12
    assert np.max(np.abs(v.values - ref.values)) <= 1e-12
    assert v.eta == pytest.approx(eta_ref, rel=1e-12)


def test_interior_without_a_two_colouring_is_factored(monkeypatch):
    # with LU_LIMIT at 0 both maps are coloured, and neither colouring holds
    odd = make_lattice(7, 2.0)[0]             # 7-cycles: not bipartite
    # v0 and v1 joined by two paths, 0-2-3-1 and 0-4-5-1: two interior parts
    split = build_map(6, [(0, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0), (1, 5, 1.0), (5, 4, 1.0),
                          (4, 0, 1.0)],
                      [[0, 11], [5, 6], [1, 2], [3, 4], [9, 10], [7, 8]], marked=(0, 1))
    monkeypatch.setattr(electrical, "LU_LIMIT", 0)
    for m in (odd, split):
        v, calls = solver_calls(monkeypatch, m)
        assert calls == {"splu": 1}
        assert np.max(np.abs(v.values - oracle_voltage(m)[0])) <= 1e-13
    assert np.allclose(v.values, [0.0, 1.0, 1 / 3, 2 / 3, 1 / 3, 2 / 3], atol=1e-15)


def test_reduced_laplacian_transposes_to_its_csc_form(lattice8, random_maps, mated_crt64):
    # solve_voltage factors A.T: the CSC form of the symmetric A, on A's
    # own arrays, where A.tocsc() would copy them
    for m in [lattice8[0], mated_crt64, make_lattice(33, 4.0)[0]] + [m for m, _ in random_maps[:3]]:
        A = electrical.dirichlet_system(m)[1]
        At, csc = A.T, A.tocsc()
        assert At.format == csc.format == "csc"
        for field in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(At, field), getattr(csc, field))
            assert np.shares_memory(getattr(At, field), getattr(A, field))


def test_point_marked_map_is_factored_directly(monkeypatch):
    # the map of `smith mated-crt --gamma 1.8 --n 1024 --seed 1`: 14 darts at
    # the marks against 1022 unknowns, and no currents below the flow floor,
    # so the snap moves nothing beyond rounding
    m = mark_vertices(build_mated(mated_crt.sample_excursion(1.8, 1024, 1)), seed=1).map
    assert (m.degree(m.v0) + m.degree(m.v1)) ** 2 < 2 * (m.num_vertices - 2)
    v, calls = solver_calls(monkeypatch, m)
    assert calls == {"splu": 1}
    assert np.max(np.abs(v.values - oracle_voltage(m)[0])) <= 1e-13


def test_stalled_cg_falls_back_to_spsolve(monkeypatch):
    m, _ = make_lattice(32, 2.0)
    spy = CountingSolvers()
    budgets = []

    def stalled(A, b, maxiter, **kwargs):
        budgets.append(maxiter)
        return np.zeros_like(b), maxiter
    spy.cg = stalled
    monkeypatch.setattr(electrical, "spla", spy)
    v = solve_voltage(m)
    assert budgets == [10 * math.ceil(math.sqrt(m.num_vertices - 2))]
    assert spy.calls == {"spsolve": 1}
    assert np.max(np.abs(v.values - oracle_voltage(m)[0])) <= 1e-13


def test_tile_repeats_on_a_factored_map():
    """``smith tile`` on the n = 1024 map, whose voltage is factored
    directly, writes the same bytes twice."""
    cli = [sys.executable, "-m", "smithtile.cli"]
    r = subprocess.run(cli + ["mated-crt", "--gamma", "1.8", "--n", "1024",
                              "--seed", "1"], capture_output=True)
    assert r.returncode == 0, r.stderr
    outs = [subprocess.run(cli + ["tile"], input=r.stdout, capture_output=True)
            for _ in range(2)]
    assert all(o.returncode == 0 for o in outs), outs[0].stderr
    assert json.loads(outs[0].stdout)["kind"] == "diagram"
    assert outs[0].stdout == outs[1].stdout


def test_voltage_matches_dense_oracle(random_maps):
    for m, _ in random_maps[:8]:
        v = solve_voltage(m)
        h_ref, eta_ref = oracle_voltage(m)
        assert np.max(np.abs(v.values - h_ref)) < 1e-9
        assert v.eta == pytest.approx(eta_ref, rel=1e-9)


def test_dirichlet_system_matches_loop_assembly(lattice8, random_maps, mated_crt64):
    # the same COO entries in the same order: CSR, CG iterates and residual
    # are then bit-identical too
    loop_map = build_map(3, [(0, 1, 1.0), (1, 1, 2.0), (1, 2, 3.0), (0, 1, 0.5)],
                         [[0, 6], [1, 2, 3, 4, 7], [5]], marked=(0, 2))
    for m in [loop_map, lattice8[0], mated_crt64] + [m for m, _ in random_maps[:5]]:
        got, want = electrical.dirichlet_system(m), oracles.dirichlet_system(m)
        for a, b in zip(got[:1] + got[2:], want[:1] + want[2:]):
            assert np.array_equal(a, b)
        for field in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got[1], field), getattr(want[1], field))


# -- equipotential clusters ----------------------------------------------------

def test_lattice_snaps_to_its_rows():
    # 83 rows and the two poles: 85 voltages and 85 levels of the tiling,
    # where the solve alone leaves 2848 distinct values
    n = 64
    m, emb = make_lattice(n, 4.0)
    v = solve_voltage(m)
    M = (m.num_vertices - 2) // n
    assert M == 83
    assert len(np.unique(v.values)) == M + 2
    rows = v.values[:n * M].reshape(M, n)
    assert np.array_equal(rows, np.repeat(rows[:, :1], n, axis=1))
    assert np.max(np.abs(rows[:, 0] - (np.arange(M) + 1.0) / (M + 1))) <= 1e-12
    d = tile(v, emb)
    assert len(np.unique(np.concatenate([d.rect_y0, d.rect_y1]))) == M + 2
    assert len(np.unique(d.hseg_level)) == M + 2


def test_snap_clusters_takes_means_and_pins_the_poles(path4_map, rung_map):
    # v0 - a - b - v1: a is within rounding of v0, b of v1
    got = electrical.snap_clusters(path4_map, np.array([0.0, 1e-14, 1.0 - 1e-14, 1.0]))
    assert got.tolist() == [0.0, 0.0, 1.0, 1.0]
    # the rung joins a and b, which take their mean; the poles keep theirs
    h = np.array([0.0, 0.5, 0.5 + 2e-13, 1.0])
    got = electrical.snap_clusters(rung_map, h)
    assert got.tolist() == [0.0, 0.5 + (h[2] - h[1]) / 2, 0.5 + (h[2] - h[1]) / 2, 1.0]


def test_snapped_voltages_match_dense_oracle(crt48_maps, mated_crt64, random_maps,
                                             lattice8):
    for m in [*crt48_maps, mated_crt64, lattice8[0]] + [m for m, _ in random_maps]:
        h_ref, _ = oracle_voltage(m)
        assert np.max(np.abs(solve_voltage(m).values - h_ref)) <= 1e-13


@pytest.mark.parametrize("map_seed, mark_seed", [(4, 3004), (5, 11005)])
def test_snap_leaves_weak_currents_outside_clusters(map_seed, mark_seed, monkeypatch):
    # the maps of the falling-run test carry genuine currents that decay
    # below the flow floor, so the snap merges some vertices whose dense
    # voltages differ by up to a few 1e-12; every vertex outside a cluster
    # keeps its voltage bit for bit, and every one stays near the dense solve
    m = mark_vertices(build_mated(oracles.sample_excursion(1.8, 1024, seed=map_seed)),
                      seed=mark_seed).map
    v, calls = solver_calls(monkeypatch, m)
    assert calls == {"splu": 1}
    h = v.values
    with monkeypatch.context() as patch:
        patch.setattr(electrical, "snap_clusters", lambda m, h: h)
        raw = solve_voltage(m).values
    flows = m.conductance * (raw[m.edge_head] - raw[m.edge_tail])
    dead = np.abs(flows) <= electrical.flow_floor(flows)
    root = components(m.num_vertices, m.edge_tail[dead], m.edge_head[dead])
    alone = np.bincount(root, minlength=m.num_vertices)[root] == 1
    assert alone.sum() > 0 and (~alone).sum() > 0
    assert np.array_equal(h[alone], raw[alone])
    assert np.max(np.abs(h - oracle_voltage(m)[0])) <= 1e-11


def test_snap_rechecks_the_residual(random_maps, monkeypatch):
    # a floor far above rounding merges vertices that carry real current
    m = random_maps[0][0]
    monkeypatch.setattr(electrical, "FLOW_FLOOR", 1e-3)
    with pytest.raises(SolveError, match="after snapping exceeds"):
        solve_voltage(m)
    monkeypatch.setattr(electrical, "FLOW_FLOOR", 1e3)
    with pytest.raises(SolveError, match="marked vertices share one"):
        solve_voltage(m)


def test_residual_checks_fail_closed(random_maps, mated_crt64, monkeypatch):
    # a NaN bound or a NaN residual compares false either way round
    for m in (random_maps[1][0], mated_crt64):
        with pytest.raises(SolveError, match=r"^harmonic residual \S+ exceeds nan$"):
            solve_voltage(m, tol=math.nan)
    monkeypatch.setattr(electrical, "snap_clusters", lambda m, h: np.full_like(h, np.nan))
    with pytest.raises(SolveError, match="after snapping exceeds"):
        solve_voltage(random_maps[1][0])


def test_voltage_needs_marks():
    m = build_map(2, [(0, 1, 1.0)], [[0], [1]])
    with pytest.raises(MapError, match="marked"):
        solve_voltage(m)


def test_maximum_principle(random_maps):
    for m, _ in random_maps:
        v = solve_voltage(m)
        assert v.values.min() >= 0.0
        assert v.values.max() <= 1.0
        assert v.values[m.v0] == 0.0
        assert v.values[m.v1] == 1.0


def test_node_law(random_maps):
    for m, _ in random_maps[:8]:
        v = solve_voltage(m)
        pi = m.pi_weight
        for x in range(m.num_vertices):
            if m.is_marked(x):
                continue
            net = float(np.sum(v.flows[m.vertex_darts[x]]))
            assert abs(net) <= 1e-10 * pi[x]


def test_flow_antisymmetry_and_sign(path_map):
    v = solve_voltage(path_map)
    assert v.flows[0] == pytest.approx(0.5)       # toward higher voltage
    assert v.flows[1] == pytest.approx(-0.5)
    hs = np.arange(path_map.num_darts)
    assert np.allclose(v.flows[hs], -v.flows[hs ^ 1], atol=0.0)
    # the strength eta is the flow out of v0
    assert float(np.sum(v.flows[path_map.vertex_darts[path_map.v0]])) == v.eta


def test_flows_match_the_per_dart_formula(random_maps, lattice8_solved):
    # the one per-dart flow array holds c_e * (h(head) - h(tail)) bit for bit
    volts = [solve_voltage(m) for m, _ in random_maps[:5]] + [lattice8_solved[2]]
    for v in volts:
        assert v.flows.tobytes() == oracles.dart_flow(v, np.arange(v.map.num_darts)).tobytes()
        assert v.flows is v.flows and not v.flows.flags.writeable
    assert not hasattr(v, "dart_flow")


def test_harmonic_dart_orientations(rung_map):
    v = solve_voltage(rung_map)
    # edge 0 = (0, 1): voltage rises tail -> head, keep dart 0
    assert harmonic_dart(v, 0) == 0
    # edge 4 = (1, 2) has equal endpoint voltages: lexicographic tie-break
    assert harmonic_dart(v, 4) == 8
    darts = harmonic_darts(v)
    assert np.all(v.flows[darts] >= 0.0)


def test_harmonic_darts_match_per_edge_rule(rung_map, path_map, random_maps,
                                            lattice8):
    # rung_map has an exactly zero-gradient edge, the lattice's row edges
    # nearly zero gradients, the random maps generic ones
    maps = [rung_map, path_map, lattice8[0]] + [m for m, _ in random_maps]
    for m in maps:
        v = solve_voltage(m)
        want = [harmonic_dart(v, k) for k in range(m.num_edges)]
        got = harmonic_darts(v)
        assert got.dtype == np.int64
        assert got.tolist() == want


def test_harmonic_darts_tie_rule_on_self_loop():
    # a self-loop has equal endpoint voltages and equal (tail, head) pairs
    m = build_map(2, [(0, 1, 1.0), (1, 1, 2.0)], [[0], [1, 2, 3]],
                  marked=(0, 1))
    v = solve_voltage(m)
    assert harmonic_darts(v).tolist() == [harmonic_dart(v, 0), harmonic_dart(v, 1)] \
        == [0, 2]


def test_harmonic_dart_reversed_edge():
    # edge stored against the current: head lower than tail
    m = build_map(3, [(0, 1, 1.0), (2, 1, 1.0)], [[0], [1, 3], [2]],
                  marked=(0, 2))
    v = solve_voltage(m)
    assert v.values[1] == pytest.approx(0.5)
    assert harmonic_dart(v, 1) == 3


# -- conjugate function ------------------------------------------------------

def test_conjugate_parallel3(parallel3_map):
    v = solve_voltage(parallel3_map)
    dm = dual(parallel3_map)
    c = conjugate(dm, v)
    assert c.max_defect <= 1e-12
    assert sorted(np.mod(c.w_lift, v.eta).tolist()) == pytest.approx(
        [0.0, 1.0, 2.0], abs=1e-12)
    assert c.w_lift[dm.base] == 0.0


def test_conjugate_path_self_loops(path_map):
    # the dual is one vertex with two self-loops; each closes a cycle of
    # winding +-1, so the defects are exactly +-eta and max_defect stays 0.
    v = solve_voltage(path_map)
    dm = dual(path_map)
    assert dm.map.num_vertices == 1
    c = conjugate(dm, v)
    assert c.max_defect <= 1e-14
    assert c.w_lift.tolist() == [0.0]


def test_conjugate_increment_is_minus_flow(lattice8_solved):
    # each tree dart adds minus the primal flow along it to its parent's w
    m, emb, v = lattice8_solved
    c = conjugate(dual(m, emb), v)
    g = np.flatnonzero(c.tree_dart >= 0)
    h = c.tree_dart[g]
    assert np.array_equal(c.w_lift[g],
                          c.w_lift[c.dual.map.dart_tail[h]] + -oracles.dart_flow(v, h))


def test_conjugate_aspect_identity(random_maps):
    # |w increment| = conductance * |h difference| edge by edge
    for m, emb in random_maps[:5]:
        v = solve_voltage(m)
        ks = np.arange(m.num_edges)
        dh = v.values[m.edge_head] - v.values[m.edge_tail]
        dw = -v.flows[2 * ks]
        assert np.max(np.abs(np.abs(dw) - m.conductance * np.abs(dh))) < 1e-12


def test_conjugate_tree_reaches_every_face(random_maps):
    for m, emb in random_maps[:5]:
        v = solve_voltage(m)
        c = conjugate(dual(m, emb), v)
        assert np.all(np.isfinite(c.w_lift))
        assert np.sum(c.tree_dart == -1) == 1       # only the base


def test_random_dual_cycles_quantized(random_maps):
    """Closed dual cycles integrate the flow to eta times their winding."""
    rng = make_rng(123)
    for m, emb in random_maps[:5]:
        v = solve_voltage(m)
        dmc = dual(m, emb)
        d = dmc.map
        c = conjugate(dmc, v)
        cut = marked_cut_path(m)
        scale = max(1.0, v.eta)
        done = 0
        while done < 100:
            f0 = int(rng.integers(d.num_vertices))
            f, darts = f0, []
            for _ in range(400):
                h = int(rng.choice(d.vertex_darts[f]))
                darts.append(h)
                f = int(d.dart_head[h])
                if f == f0:
                    break
            if f != f0:
                continue
            done += 1
            total = float(np.sum(-v.flows[np.array(darts)]))
            wind = dual_cycle_winding_cut(dmc, darts, cut=cut)
            assert abs(total - v.eta * wind) <= 1e-10 * scale


# -- reference: one fundamental-cycle walk per non-tree dual edge ----------

def _fundamental_cycle(dm, tree_dart, h):
    """Closed dual dart cycle: tree path to tail(h), then h, then back from head(h)."""

    def path_from_base(f):
        darts = []
        while tree_dart[f] != -1:
            d = int(tree_dart[f])
            darts.append(d)
            f = int(dm.dart_tail[d])
        return darts[::-1]

    up = path_from_base(int(dm.dart_tail[h]))
    down = [d ^ 1 for d in reversed(path_from_base(int(dm.dart_head[h])))]
    return up + [h] + down


def reference_conjugate(dmap, v, tol=1e-9):
    """The per-cycle conjugate: integrate from the dual's base face over a
    list-queue BFS tree, then walk every fundamental cycle and count its cut
    crossings one by one.  The cut path is read from the electrical module,
    as conjugate() reads it.  The
    winding is derived twice, as the defect's nearest multiple of eta and as
    the cycle's cut crossings; a closure fails unless the two agree and the
    defect lies within the allowance of that multiple."""
    m = dmap.primal
    dm = dmap.map
    F = dm.num_vertices
    eta = v.eta
    base = dmap.base
    w = np.full(F, np.nan)
    w[base] = 0.0
    werr = np.zeros(F)
    tree_dart = np.full(F, -1, dtype=np.int64)
    in_tree = np.zeros(m.num_edges, dtype=bool)
    queue = [base]
    inc = -oracles.dart_flow(v, np.arange(dm.num_darts))
    vs = float(max(1.0, np.abs(v.values).max()))
    errinc = np.finfo(np.float64).eps * vs \
        * m.conductance[np.arange(dm.num_darts) >> 1]
    while queue:
        f = queue.pop(0)
        for h in dm.vertex_darts[f]:
            g = int(dm.dart_head[h])
            if np.isnan(w[g]):
                w[g] = w[f] + inc[h]
                werr[g] = werr[f] + errinc[h]
                tree_dart[g] = int(h)
                in_tree[h >> 1] = True
                queue.append(g)
    if np.any(np.isnan(w)):
        raise MapError("dual graph is not connected")
    cut = electrical.marked_cut_path(m)
    max_defect = 0.0
    scale = max(1.0, eta)
    for k in np.flatnonzero(~in_tree):
        defect = inc[2 * k] + w[dm.dart_tail[2 * k]] - w[dm.dart_head[2 * k]]
        wind = round(defect / eta)
        err = abs(defect - eta * wind)
        allow = tol * scale + 8.0 * (errinc[2 * k] + werr[dm.dart_tail[2 * k]]
                                     + werr[dm.dart_head[2 * k]])
        cyc = _fundamental_cycle(dm, tree_dart, int(2 * k))
        wind_cut = dual_cycle_winding_cut(dmap, cyc, cut=cut)
        if err > allow or wind_cut != wind:
            raise MapError(f"dual edge {k}: closure defect {defect} "
                           f"!= eta * cycle winding {wind_cut}")
        max_defect = max(max_defect, err)
    return Conjugate(dmap, v, w, max_defect, tree_dart, werr)


def test_conjugate_matches_per_cycle_reference(random_maps, lattice8, parallel3_map,
                                               path_map, mated_crt64):
    cases = list(random_maps) + [lattice8, (parallel3_map, None),
                                 (path_map, None), (mated_crt64, None)]
    for m, emb in cases:
        v = solve_voltage(m)
        dmc = dual(m, emb)
        got, want = conjugate(dmc, v), reference_conjugate(dmc, v)
        assert np.array_equal(got.w_lift, want.w_lift)
        assert np.array_equal(got.w_err, want.w_err)
        assert np.array_equal(got.tree_dart, want.tree_dart)
        assert got.max_defect == want.max_defect


CLOSURE = r"closure defect .* != eta \* cycle winding -?\d+$"


def test_conjugate_rejects_closure_defect(random_maps):
    m, emb = random_maps[0]
    v = solve_voltage(m)
    x = next(x for x in range(m.num_vertices) if not m.is_marked(x))
    values = v.values.copy()
    values[x] += 1e-3
    bad = dataclasses.replace(v, values=values)
    dmc = dual(m, emb)
    with pytest.raises(MapError, match=CLOSURE) as got:
        conjugate(dmc, bad)
    with pytest.raises(MapError) as want:
        reference_conjugate(dmc, bad)
    assert str(got.value) == str(want.value)


def test_conjugate_rejects_wrong_cut_winding(random_maps, lattice8, monkeypatch):
    # the reversed cut path negates every cycle winding, so any fundamental
    # cycle that winds around the cylinder disagrees with its defect
    monkeypatch.setattr(electrical, "marked_cut_path",
                        lambda m: marked_cut_path(m) ^ 1)
    for m, emb in (random_maps[0], lattice8):
        v = solve_voltage(m)
        dmc = dual(m, emb)
        with pytest.raises(MapError, match=CLOSURE) as got:
            conjugate(dmc, v)
        with pytest.raises(MapError) as want:
            reference_conjugate(dmc, v)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("sigma", [1e-14, 1e-11, 1e-9, 1e-6, 1e-3, 1e-1])
@pytest.mark.parametrize("count", [1, 3, 20])
def test_conjugate_matches_reference_on_perturbed_voltages(random_maps, lattice8,
                                                           mated_crt64, count, sigma):
    # noise on a few voltages breaks flow conservation at their vertices:
    # the one cut winding must fail the same edges as the two derivations
    cases = list(random_maps[:8]) + [lattice8, (mated_crt64, None)]
    for m, emb in cases:
        v = solve_voltage(m)
        dmc = dual(m, emb)
        free = np.flatnonzero(~m.marked)
        for seed in range(12):
            rng = make_rng(seed)
            values = v.values.copy()
            x = rng.choice(free, size=min(count, len(free)), replace=False)
            values[x] += sigma * rng.standard_normal(len(x))
            noisy = dataclasses.replace(v, values=values)
            try:
                want = reference_conjugate(dmc, noisy)
            except MapError as e:
                with pytest.raises(MapError, match=CLOSURE) as got:
                    conjugate(dmc, noisy)
                assert str(got.value) == str(e)
                continue
            got = conjugate(dmc, noisy)
            assert got.max_defect == want.max_defect
            assert np.array_equal(got.w_lift, want.w_lift)


def test_conjugate_needs_both_marks(lattice8):
    m, emb = lattice8
    v = solve_voltage(m)
    with pytest.raises(MapError, match="both marked vertices"):
        conjugate(dual(m.with_marks(None, None), emb), v)


def test_interpolate_h_matches_refined_solve(random_maps):
    # inserting a vertex at fraction t and re-solving must reproduce the
    # linearly interpolated voltage (series conductances preserve harmonicity)
    m, emb = random_maps[2]
    v = solve_voltage(m)
    t = 0.3
    m2, emb2, _ = insert_vertices(m, emb, [(0, t), (3, t)])
    v2 = solve_voltage(m2)
    for new, k in ((m.num_vertices, 0), (m.num_vertices + 1, 3)):
        a, b = v.values[m.edge_tail[k]], v.values[m.edge_head[k]]
        assert v2.values[new] == pytest.approx(a + t * (b - a), abs=1e-9)
    assert np.max(np.abs(v2.values[:m.num_vertices] - v.values)) < 1e-9

