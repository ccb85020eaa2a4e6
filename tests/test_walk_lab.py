"""Walk laws: stepping, level machinery, exact conditional laws."""

import tracemalloc
from itertools import islice

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from smithtile import convergence, mated_crt, walk_lab
from smithtile.convergence import invariance_diagnostic
from smithtile.rng import make_rng, rekeyed_rng
from oracles import (absorption_probs, build_map, ref_invariance, ref_simulate,
                     step_law)
from smithtile import (InadmissibleHeights, LevelNotVertexed,
                       StepBudgetExceeded, Voltage, admissible_sequences,
                       augment_all_levels, build_diagram, conditional_hitting,
                       conjugate, dual, exact_law_report,
                       expected_conditional_winding, insert_vertices,
                       level_measures, level_sets, projected_step_law,
                       realized_levels, simulate, solve_voltage, tile)


def measure_dict(lm):
    """A level measure as {vertex: mass}."""
    return {int(x): float(p) for x, p in zip(lm.vertices, lm.mass)}


# -- one-step law (the oracle the projection check is held against) ----------

def test_step_law_uniform(path_map):
    assert step_law(path_map, 1) == pytest.approx({0: 0.5, 2: 0.5})


def test_step_law_weighted():
    m = build_map(3, [(0, 1, 1.0), (1, 2, 3.0)], [[0], [1, 2], [3]],
                  marked=(0, 2))
    assert step_law(m, 1) == pytest.approx({0: 0.25, 2: 0.75})


def test_step_law_self_loop_counts_twice():
    m = build_map(2, [(0, 1, 1.0), (0, 0, 2.0)], [[0, 2, 3], [1]],
                  marked=(0, 1))
    assert step_law(m, 0) == pytest.approx({0: 0.8, 1: 0.2})


def test_step_law_sums_to_one(random_maps):
    m, _ = random_maps[0]
    for x in range(m.num_vertices):
        assert sum(step_law(m, x).values()) == pytest.approx(1.0, abs=1e-14)


# -- simulation --------------------------------------------------------------

def test_simulate_start_in_stop(path_map):
    tr = simulate(path_map, 0, {0, 2}, seed=1)
    assert len(tr) == 1
    assert tr.vertices.tolist() == [0]
    assert len(tr.darts) == 0


def test_simulate_stops_at_boundary(lattice8_solved):
    m, emb, _ = lattice8_solved
    tr = simulate(m, 12, {m.v0, m.v1}, seed=7)
    assert tr.vertices[0] == 12
    assert int(tr.vertices[-1]) in (m.v0, m.v1)
    assert not any(int(x) in (m.v0, m.v1) for x in tr.vertices[1:-1])
    # darts trace the vertex sequence
    assert np.all(m.dart_tail[tr.darts] == tr.vertices[:-1])
    assert np.all(m.dart_head[tr.darts] == tr.vertices[1:])


def test_simulate_reproducible(lattice8_solved):
    m, emb, _ = lattice8_solved
    a = simulate(m, 12, {m.v0, m.v1}, seed=7)
    b = simulate(m, 12, {m.v0, m.v1}, seed=7)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.darts, b.darts)
    c = simulate(m, 12, {m.v0, m.v1}, seed=8)
    assert not (len(c) == len(a) and np.array_equal(c.vertices, a.vertices))


def test_simulate_budget(path_map, monkeypatch):
    monkeypatch.setattr(walk_lab, "MAX_STEPS", 0)
    with pytest.raises(StepBudgetExceeded):
        simulate(path_map, 1, {0}, seed=1)


def test_simulate_empty_stop_set(path_map):
    # the walk kernel's guard: without it the walk would run to its budget
    with pytest.raises(ValueError, match="stop set must be nonempty"):
        simulate(path_map, 1, set(), seed=1)


# -- levels ------------------------------------------------------------------

def test_realized_levels(path_map, rung_map, lattice8_solved):
    assert realized_levels(path_map, solve_voltage(path_map)).tolist() == [0.5]
    assert realized_levels(rung_map, solve_voltage(rung_map)).tolist() \
        == pytest.approx([0.5])
    m, _, v = lattice8_solved
    M = (m.num_vertices - 2) // 8
    assert realized_levels(m, v) == pytest.approx(
        (np.arange(M) + 1.0) / (M + 1), abs=1e-10)
    # a vertex at a mark's voltage lies in that mark's cluster: no level
    assert realized_levels(*chain_map([0.0, 0.0, 0.3, 0.7, 1.0, 1.0])).tolist() == [0.3, 0.7]


def chain_map(values) -> tuple:
    """A path of six vertices, marked at its ends, with the given voltages."""
    m = build_map(6, [(i, i + 1, 1.0) for i in range(5)],
                  [[0]] + [[2 * i - 1, 2 * i] for i in range(1, 5)] + [[9]], marked=(0, 5))
    return m, Voltage(m, np.array(values, dtype=np.float64), 0.0, 1.0, 0.0)


def test_merge_levels_keeps_a_chain_of_close_values_apart():
    # each value is kept if it is more than LEVEL_TOL = 1e-12 above the last
    # kept one, so a chain of values about LEVEL_TOL/2 apart keeps every
    # second one, and a dropped value lies within LEVEL_TOL of two kept
    # levels.  Equipotential clusters (ROADMAP open item 1) would name such a
    # chain one level.
    chain = [0.25 + k * 0.6e-12 for k in range(4)]
    kept = [chain[0], chain[2]]
    assert walk_lab._merge_levels(chain).tolist() == kept
    m, v = chain_map([0.0] + chain + [1.0])
    assert realized_levels(m, v).tolist() == kept
    assert [s.tolist() for s in level_sets(m, v, kept)] == [[1, 2], [2, 3, 4]]


def test_level_set_row(lattice8_solved, monkeypatch):
    monkeypatch.setattr(walk_lab, "LEVEL_TOL", 1e-9)
    m, _, v = lattice8_solved
    M = (m.num_vertices - 2) // 8
    got, = level_sets(m, v, [2.0 / (M + 1)])
    assert got.tolist() == list(range(8, 16))


def test_level_augment_parallel(parallel3_map):
    # no interior vertex, so the extra level is the only one
    v = solve_voltage(parallel3_map)
    aug = augment_all_levels(parallel3_map, v, extra=[0.4])
    assert aug.map.num_vertices - parallel3_map.num_vertices == 3
    assert aug.map.num_vertices == 5
    assert np.allclose(aug.voltage.values[2:], 0.4)
    lm, = level_measures(aug.map, aug.voltage, [0.4])
    assert np.allclose(lm.mass, 1.0 / 3.0, atol=1e-12)
    assert lm.total == pytest.approx(1.0, abs=1e-12)


def test_level_augment_path_conductances(path_map):
    # the realized level 0.5 is already vertexed; only 0.25 is inserted
    v = solve_voltage(path_map)
    aug = augment_all_levels(path_map, v, extra=[0.25])
    assert aug.map.num_vertices - path_map.num_vertices == 1
    new = aug.map.num_vertices - 1
    assert aug.voltage.values[new] == pytest.approx(0.25)
    # the unit edge split at its midpoint: both halves get conductance 2
    ks = [k for k in range(aug.map.num_edges)
          if new in (int(aug.map.edge_tail[k]), int(aug.map.edge_head[k]))]
    assert sorted(aug.map.conductance[ks].tolist()) == pytest.approx([2.0, 2.0])


def test_level_augment_notice_when_realized(path_map):
    # a requested level that a vertex already realizes inserts nothing and
    # hands back the map itself
    v = solve_voltage(path_map)
    aug = augment_all_levels(path_map, v, extra=[0.5])
    assert aug.map.num_vertices - path_map.num_vertices == 0
    assert aug.map is path_map
    assert aug.voltage is v


def test_level_augment_range(path_map):
    v = solve_voltage(path_map)
    for a in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ValueError, match="strictly between"):
            augment_all_levels(path_map, v, extra=[a])


def test_level_augment_voltage_matches_resolve(random_maps):
    m, _ = random_maps[3]
    v = solve_voltage(m)
    aug = augment_all_levels(m, v, extra=[0.37])
    assert aug.map.num_vertices - m.num_vertices > 0
    v2 = solve_voltage(aug.map)
    assert np.max(np.abs(v2.values - aug.voltage.values)) < 1e-9


def test_augment_all_levels_consecutive(random_maps):
    # afterwards no edge strictly crosses a realized level
    m, _ = random_maps[4]
    v = solve_voltage(m)
    aug = augment_all_levels(m, v)
    m2, v2 = aug.map, aug.voltage
    levels = realized_levels(m2, v2)
    for k in range(m2.num_edges):
        lo = min(v2.values[m2.edge_tail[k]], v2.values[m2.edge_head[k]])
        hi = max(v2.values[m2.edge_tail[k]], v2.values[m2.edge_head[k]])
        inside = levels[(levels > lo + 1e-12) & (levels < hi - 1e-12)]
        assert len(inside) == 0


def test_augment_all_levels_matches_loop(refinement_cases):
    # parallel3_map's edges join the poles, so the quartiles go in there
    # with both ends marked; every other map gets them among its own levels.
    # Heights within tol of the poles' 0 and 1 cross no edge.
    for m, _emb in refinement_cases:
        v = solve_voltage(m)
        for extra in ((), [0.25, 0.5, 0.75], [0.6, 0.3], [5e-13, 1.0 - 5e-13]):
            got = augment_all_levels(m, v, extra=extra)
            want = oracles.augment_all_levels(m, v, extra=extra)
            assert got.map.num_vertices == want.map.num_vertices
            oracles.assert_same_refinement(got.map, None, want.map, None)
            assert np.array_equal(got.voltage.values, want.voltage.values)
            assert got.original is want.original is m
            assert got.edge_origin.tolist() == want.edge_origin.tolist()


def test_level_measure_path_atom(path_map):
    v = solve_voltage(path_map)
    lm, = level_measures(path_map, v, [0.5])
    assert lm.vertices.tolist() == [1]
    assert lm.mass.tolist() == pytest.approx([1.0])
    assert measure_dict(lm) == pytest.approx({1: 1.0})


def test_level_measure_lattice_uniform(lattice8_solved, monkeypatch):
    monkeypatch.setattr(walk_lab, "LEVEL_TOL", 1e-9)
    m, _, v = lattice8_solved
    M = (m.num_vertices - 2) // 8
    lm, = level_measures(m, v, [3.0 / (M + 1)])
    assert len(lm.vertices) == 8
    assert np.allclose(lm.mass, 1.0 / 8.0, atol=1e-10)


def test_level_measure_requires_vertexed(lattice8_solved):
    m, _, v = lattice8_solved
    M = (m.num_vertices - 2) // 8
    with pytest.raises(LevelNotVertexed, match="crosses"):
        level_measures(m, v, [1.5 / (M + 1)])


# -- exact conditional laws ---------------------------------------------------

def hitting(m, v, heights):
    return conditional_hitting(augment_all_levels(m, v, extra=heights), heights)


def cond_winding(m, v, heights, emb=None):
    return expected_conditional_winding(hitting(m, v, heights), tile(v, emb))


def test_hitting_single_height_is_level_measure(lattice8_solved):
    m, _, v = lattice8_solved
    law = hitting(m, v, [0.5])
    assert law.max_deviation() <= 1e-12
    assert np.sum(law.conditional[0]) == pytest.approx(1.0, abs=1e-12)


def test_hitting_parallel3_uniform(parallel3_map):
    v = solve_voltage(parallel3_map)
    law = hitting(parallel3_map, v, [0.25, 0.5, 0.75, 0.5])
    for cond in law.conditional:
        assert np.allclose(cond, 1.0 / 3.0, atol=1e-12)
    assert law.max_deviation() <= 1e-12


def test_hitting_lattice_sequences(lattice8_solved):
    m, _, v = lattice8_solved
    for seq in admissible_sequences(realized_levels(m, v), 4, 4, seed=2):
        law = hitting(m, v, seq)
        assert law.max_deviation() <= 1e-10
        for cond in law.conditional:
            assert np.sum(cond) == pytest.approx(1.0, abs=1e-10)


def test_hitting_law_on_generic_maps(small_random_maps):
    for m, _emb in small_random_maps:
        v = solve_voltage(m)
        for seq in admissible_sequences(realized_levels(m, v), 3, 4, seed=9):
            law = hitting(m, v, seq)
            assert law.max_deviation() <= 1e-9


def test_hitting_rejects_skipped_level(lattice8_solved):
    m, _, v = lattice8_solved
    lv = realized_levels(m, v)
    with pytest.raises(InadmissibleHeights, match="unreachable"):
        hitting(m, v, [lv[0], lv[2]])


def test_hitting_rejects_bad_heights(lattice8_solved):
    m, _, v = lattice8_solved
    with pytest.raises(ValueError, match="strictly between"):
        augment_all_levels(m, v, extra=[0.0])
    with pytest.raises(ValueError, match="strictly between"):
        augment_all_levels(m, v, extra=[0.5, 1.2])
    with pytest.raises(ValueError, match="finite"):
        augment_all_levels(m, v, extra=[0.5, float("nan")])


def test_hitting_needs_vertexed_heights(lattice8_solved):
    # a height the augmentation did not vertex has no level measure on its
    # map: edges still cross it
    m, _, v = lattice8_solved
    aug = augment_all_levels(m, v)
    with pytest.raises(LevelNotVertexed, match="crosses level 0.37"):
        conditional_hitting(aug, [0.5, 0.37])


def test_winding_law_parallel3(parallel3_map):
    v = solve_voltage(parallel3_map)
    w = cond_winding(parallel3_map, v, [0.25, 0.5])
    assert abs(w) <= 1e-12


def test_winding_law_lattice(lattice8_solved):
    m, emb, v = lattice8_solved
    for seq in admissible_sequences(realized_levels(m, v), 3, 4, seed=11):
        w = cond_winding(m, v, seq, emb=emb)
        assert abs(w) <= 1e-10


def test_winding_law_generic(small_random_maps):
    for m, emb in small_random_maps[:3]:
        v = solve_voltage(m)
        for seq in admissible_sequences(realized_levels(m, v), 2, 3, seed=13):
            w = cond_winding(m, v, seq, emb=emb)
            assert abs(w) <= 1e-9


def test_winding_rejects_diagram_of_another_map(parallel3_map):
    # the law's steps run on the graded map, but their drifts are read off
    # the tiling of the map that was graded, so the graded map's own tiling
    # is refused
    v = solve_voltage(parallel3_map)
    law = hitting(parallel3_map, v, [0.25, 0.5])
    aug = law.augmented
    assert aug.map is not parallel3_map and aug.original is parallel3_map
    with pytest.raises(ValueError, match="diagram must tile"):
        expected_conditional_winding(law, tile(aug.voltage))
    assert abs(expected_conditional_winding(law, tile(v))) <= 1e-12


def test_graded_drift_matches_refined_tiling(random_maps, small_random_maps, lattice8):
    # the tiling of the graded map is the original tiling cut at the levels,
    # so away from the marks, whose segment midpoints are arbitrary (pole
    # darts differ by up to 0.99 eta here), its midpoint drifts are those read
    # off the original tiling; measured up to 1.9e-13 eta, on random_map(14)
    for m, emb in list(random_maps) + list(small_random_maps) + [lattice8]:
        v = solve_voltage(m)
        aug = augment_all_levels(m, v)
        d = tile(v, emb)
        refined = tile(aug.voltage)
        g = np.flatnonzero(~(aug.map.marked[aug.map.dart_tail]
                             | aug.map.marked[aug.map.dart_head]))
        got = walk_lab._graded_drift(d, aug, g)
        want = np.array([oracles.dart_drift(refined, h) for h in g.tolist()])
        assert np.max(np.abs(got - want)) <= 1e-12 * d.eta


def test_graded_drift_matches_scalar_reference(law_maps):
    for m, emb in law_maps:
        v = solve_voltage(m)
        aug = augment_all_levels(m, v)
        d = tile(v, emb)
        g = np.arange(aug.map.num_darts)
        want = [ref_graded_drift(d, aug, h) for h in g.tolist()]
        assert walk_lab._graded_drift(d, aug, g).tolist() == want


# -- absorption (the dense oracle) and projection --------------------------------

def test_absorption_path(path_map, path4_map):
    probs, order = absorption_probs(path_map, {0, 2})
    assert order.tolist() == [0, 2]
    assert probs[1] == pytest.approx([0.5, 0.5])
    assert probs[0].tolist() == [1.0, 0.0]
    probs4, _ = absorption_probs(path4_map, {0, 3})
    assert probs4[1] == pytest.approx([2 / 3, 1 / 3])
    assert probs4[2] == pytest.approx([1 / 3, 2 / 3])


def test_absorption_gamblers_ruin():
    L = 6
    edges = [(j, j + 1, 1.0) for j in range(L)]
    rot = [[0]] + [[2 * j - 1, 2 * j] for j in range(1, L)] + [[2 * L - 1]]
    m = build_map(L + 1, edges, rot, marked=(0, L))
    probs, order = absorption_probs(m, {0, L})
    for j in range(L + 1):
        assert probs[j, 1] == pytest.approx(j / L, abs=1e-12)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_absorption_empty(path_map):
    with pytest.raises(ValueError, match="nonempty"):
        absorption_probs(path_map, set())


def test_projected_step_law_matches(rung_map):
    half = [(k, 0.5) for k in range(rung_map.num_edges)]
    m2, _, _ = insert_vertices(rung_map, None, half)
    got = projected_step_law(m2, range(rung_map.num_vertices)).toarray()
    for x in range(rung_map.num_vertices):
        want = step_law(rung_map, x)
        assert got[x, x] == 0.0
        for k in set(range(rung_map.num_vertices)) - {x}:
            assert got[x, k] == pytest.approx(want.get(k, 0.0), abs=1e-10)


def loop_bundle_map():
    """Self-loops at an interior vertex and at a pole, and parallel edges of
    unequal conductance: step_law keeps mass on x -> x at the loops."""
    return build_map(4, [(0, 1, 1.0), (1, 1, 0.5), (1, 2, 0.3), (1, 2, 1.7),
                         (2, 3, 1.0), (0, 2, 0.4), (3, 3, 2.0)],
                     [[0, 10], [1, 2, 3, 4, 6], [5, 8, 11, 7], [9, 12, 13]],
                     marked=(0, 3))


def parallel4_map():
    """Four parallel edges out of id order in the rotation: one entry of the
    one-step law adds four terms, in rotation order."""
    return build_map(4, [(0, 1, 1.0)] + [(1, 2, c) for c in (0.1, 0.2, 0.7, 0.6)]
                     + [(2, 3, 1.0)],
                     [[0], [1, 6, 2, 8, 4], [10, 5, 9, 3, 7], [11]], marked=(0, 3))


def test_projected_step_law_matches_per_vertex_oracle(random_maps, rung_map,
                                                      parallel3_map, crt48_maps):
    loops = loop_bundle_map()
    assert step_law(loops, 1)[1] > 0.0 and step_law(loops, 3)[3] > 0.0
    maps = [m for m, _ in random_maps] + [rung_map, parallel3_map, *crt48_maps, loops,
                                          parallel4_map()]
    for m in maps:
        V = m.num_vertices
        m2, _, _ = insert_vertices(m, None, [(k, 0.5) for k in range(m.num_edges)])
        got = projected_step_law(m2, range(V)).toarray()
        want = np.zeros((V, V))
        for x in range(V):
            for w, p in oracles.projected_step_law(m2, range(V), x).items():
                want[x, w] = p
        assert np.max(np.abs(got - want)) <= 1e-14


def test_projected_step_law_is_the_dense_solve_bit_for_bit(random_maps, rung_map,
                                                          parallel3_map, crt48_maps):
    # the dense form: the absorption solve against the identity with every
    # original vertex absorbing, then the steps out of the originals times it
    self_loop = build_map(2, [(0, 1, 1.0), (0, 0, 2.0)], [[0, 2, 3], [1]], marked=(0, 1))
    maps = [m for m, _ in random_maps[:8]] + [rung_map, parallel3_map, *crt48_maps,
                                              loop_bundle_map(), parallel4_map(), self_loop]
    for m in maps:
        V = m.num_vertices
        m2, _, _ = insert_vertices(m, None, [(k, 0.5) for k in range(m.num_edges)])
        probs, _ = absorption_probs(m2, range(V))
        g = m2.vert_dart[m2.dart_tail[m2.vert_dart] < V]
        x = m2.dart_tail[g]
        step = sp.csr_matrix((m2.conductance[g >> 1] / m2.pi_weight[x], (x, m2.dart_head[g])),
                             shape=(V, m2.num_vertices))
        Q = step @ probs
        stay = Q.diagonal().copy()
        np.fill_diagonal(Q, 0.0)
        want = Q / (1.0 - stay)[:, None]
        assert np.array_equal(projected_step_law(m2, range(V)).toarray(), want)


def test_csr_sums_forms_its_keys_in_int64():
    # with 2^17 columns the key row * n + col of row 70 000 passes 2^31; in
    # int32 it would wrap (70 000 * 131 072 + 5 reads 585 105 413)
    n = 1 << 17
    rows = np.array([70000, 3, 70000, 46341, 3, 0], dtype=np.int32)
    cols = np.array([5, n - 1, 5, 0, n - 1, 7], dtype=np.int32)
    vals = np.array([0.5, 0.25, 0.125, 2.0, 1.0, 4.0])
    shape = (70001, n)
    got = walk_lab._csr_sums(rows, cols, vals, shape)
    want = walk_lab._csr_sums(rows.astype(np.int64), cols.astype(np.int64), vals, shape)
    for a in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, a), getattr(want, a)), a
    assert got[70000, 5] == 0.625 and got[3, n - 1] == 1.25 and got[46341, 0] == 2.0
    assert got.nnz == 4


def test_projected_step_law_needs_one_step_absorption(path_map):
    # two points on one edge: the first steps to the second, so the walk from
    # a free vertex is not absorbed at its first step
    m2, _, _ = insert_vertices(path_map, None, [(0, 1 / 3), (0, 2 / 3)])
    with pytest.raises(ValueError, match="^free vertex 3 steps to free vertex 4$"):
        projected_step_law(m2, range(path_map.num_vertices))
    with pytest.raises(ValueError, match="nonempty"):
        projected_step_law(m2, [])


def test_exact_law_report_memory_stays_sparse():
    # the gamma = 1.8, n = 512 mated-CRT map of `smith mated-crt --seed 3`
    # (V = 512, E = 1277): the dense E x E absorption solve alone took 12 MB
    # and the V x V step matrix 2 MB, with a traced peak of 64 MB
    mm = mated_crt.mark_vertices(mated_crt.build_map(
        mated_crt.sample_excursion(1.8, 512, 3)), seed=3)
    m = mm.map
    v = solve_voltage(m)
    assert (m.num_vertices, m.num_edges) == (512, 1277)
    tracemalloc.start()
    try:
        exact_law_report(m, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


def test_augment_all_levels_peak_memory():
    # the gamma = 1.8, n = 4096 map of `smith mated-crt --seed 3` (E = 10 207,
    # 3 425 levels): a traced peak of 50.8 MB with the graded map's faces
    # left unfound, 73.7 MB while it searched and checked both cycle systems
    m = mated_crt.mark_vertices(mated_crt.build_map(
        mated_crt.sample_excursion(1.8, 4096, 3)), seed=3).map
    v = solve_voltage(m)
    tracemalloc.start()
    try:
        augment_all_levels(m, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 56e6


def test_exact_law_report_projection_skips_self_transitions():
    # the loop at vertex 1 keeps 1/4 of its one-step law on 1 -> 1, which
    # the jump chain never takes: the report holds the chain against the
    # law conditioned on moving, and the two agree to rounding
    m = build_map(4, [(0, 1, 1.0), (1, 1, 0.5), (1, 2, 0.3), (1, 2, 1.7),
                      (2, 3, 1.0), (0, 2, 0.4)],
                  [[0, 10], [1, 2, 3, 4, 6], [5, 8, 11, 7], [9]], marked=(0, 3))
    V = m.num_vertices
    m2, _, _ = insert_vertices(m, None, [(k, 0.5) for k in range(m.num_edges)])
    want = 0.0
    for x in range(V):
        jump = oracles.projected_step_law(m2, range(V), x)
        law = step_law(m, x)
        stay = law.pop(x, 0.0)
        for y, p in law.items():
            want = max(want, abs(p / (1.0 - stay) - jump[y]))
    assert step_law(m, 1)[1] == pytest.approx(0.25) and want <= 1e-15
    rep = exact_law_report(m, solve_voltage(m), num_sequences=2, length=3, seed=0)
    assert abs(rep["projection_max_dev"] - want) <= 1e-14


# -- sequence generation and report -------------------------------------------

def test_admissible_sequences_single_level(path_map):
    v = solve_voltage(path_map)
    seqs = admissible_sequences(realized_levels(path_map, v), 3, 4, seed=0)
    assert seqs == [[0.5], [0.5], [0.5]]


def test_admissible_sequences_quartile_fallback(parallel3_map):
    # a map without interior levels: the report walks the quartiles instead
    v = solve_voltage(parallel3_map)
    assert len(realized_levels(parallel3_map, v)) == 0
    seqs = exact_law_report(parallel3_map, v, num_sequences=4, length=5, seed=1)["sequences"]
    assert len(seqs) == 4
    ladder = [0.25, 0.5, 0.75]
    for seq in seqs:
        assert len(seq) == 5
        assert all(a in ladder for a in seq)
        for a, b in zip(seq, seq[1:]):
            assert abs(ladder.index(a) - ladder.index(b)) == 1


def test_admissible_sequences_adjacent_steps(lattice8_solved):
    m, _, v = lattice8_solved
    levels = realized_levels(m, v).tolist()
    seqs = admissible_sequences(levels, 6, 5, seed=3)
    assert len(seqs) == 6
    for seq in seqs:
        idx = [levels.index(a) for a in seq]
        assert all(abs(i - j) == 1 for i, j in zip(idx, idx[1:]))


def test_exact_law_report_keys(rung_map):
    v = solve_voltage(rung_map)
    rep = exact_law_report(rung_map, v, num_sequences=3, length=3, seed=0)
    assert set(rep) == {"level_mass_max_dev", "hitting_max_dev",
                        "winding_max_abs", "projection_max_dev",
                        "noise_floor", "sequences"}
    assert rep["level_mass_max_dev"] <= 1e-10
    assert rep["hitting_max_dev"] <= 1e-10
    assert rep["winding_max_abs"] <= 1e-10
    assert rep["projection_max_dev"] <= 1e-10
    assert len(rep["sequences"]) == 3


# -- the walk kernel against the per-step loop it replaced ---------------------
# The references (oracles.ref_simulate, oracles.ref_invariance) are the loops
# their functions ran before every Monte Carlo walk went through
# walk_lab.walk.  The kernel must reproduce them bit for bit, and the step
# counts give the exact step-budget boundaries.

class WalkCase:
    """A map with the stop sets and starts every walk function needs."""

    def __init__(self, m):
        self.m = m
        self.stop = {m.v0, m.v1} if m.num_vertices > 2 else {m.v1}
        free = [x for x in range(m.num_vertices) if x not in self.stop]
        self.starts = free[::max(1, len(free) // 4)][:4]
        self.x = self.starts[0]
        self.height = solve_voltage(m).values


@pytest.fixture(scope="module")
def walk_cases(random_maps, lattice8, parallel3_map):
    maps = [m for m, _ in random_maps[::4]] + [lattice8[0], parallel3_map]
    return [WalkCase(m) for m in maps]


SEEDS = (0, 1, 17)


def test_kernel_matches_reference_simulate(walk_cases):
    for c in walk_cases:
        for seed in SEEDS:
            for start in c.starts:
                tr = simulate(c.m, start, c.stop, seed=seed)
                darts, verts = ref_simulate(c.m, start, c.stop, seed)
                assert tr.darts.tolist() == darts
                assert tr.vertices.tolist() == verts


def test_kernel_matches_reference_invariance(walk_cases):
    for c in walk_cases:
        for seed in SEEDS:
            rep = invariance_diagnostic(c.m, c.height, c.starts, 0.25, 0.75,
                                        walks_per_start=20, seed=seed)
            p_hat, _ = ref_invariance(c.m, c.height, c.starts, 0.25, 0.75, 20, seed)
            assert np.array_equal(rep.p_hat, p_hat)


# a walk of exactly MAX_STEPS steps passes; one more step than the budget raises

def test_budget_boundary_simulate(walk_cases, monkeypatch):
    c = walk_cases[0]
    k = len(ref_simulate(c.m, c.x, c.stop, 5)[0])
    monkeypatch.setattr(walk_lab, "MAX_STEPS", k)
    assert len(simulate(c.m, c.x, c.stop, seed=5).darts) == k
    monkeypatch.setattr(walk_lab, "MAX_STEPS", k - 1)
    with pytest.raises(StepBudgetExceeded):
        simulate(c.m, c.x, c.stop, seed=5)


def test_budget_boundary_invariance(walk_cases, monkeypatch):
    c = walk_cases[0]
    p_hat, k = ref_invariance(c.m, c.height, c.starts, 0.25, 0.75, 20, 5)
    monkeypatch.setattr(walk_lab, "MAX_STEPS", k)
    rep = invariance_diagnostic(c.m, c.height, c.starts, 0.25, 0.75,
                                walks_per_start=20, seed=5)
    assert np.array_equal(rep.p_hat, p_hat)
    monkeypatch.setattr(walk_lab, "MAX_STEPS", k - 1)
    with pytest.raises(StepBudgetExceeded):
        invariance_diagnostic(c.m, c.height, c.starts, 0.25, 0.75,
                              walks_per_start=20, seed=5)


class Counted:
    """A uniform stream that counts the values taken from it."""

    def __init__(self, stream):
        self.stream, self.taken = stream, 0

    def __iter__(self):
        return self

    def __next__(self):
        self.taken += 1
        return next(self.stream)


def test_walks_on_one_stream_take_one_value_per_step(walk_cases, monkeypatch):
    monkeypatch.setattr(walk_lab, "MAX_STEPS", 10_000)
    c = walk_cases[-2]          # the lattice
    u = Counted(walk_lab.uniforms(make_rng(3)))
    walks = []
    while u.taken <= 2 * walk_lab.BLOCK:
        start = c.starts[len(walks) % len(c.starts)]
        walks.append(walk_lab.walk(c.m, u, start, c.stop))
        assert u.taken == sum(map(len, walks))
    # each walk picks up the stream where the one before left it
    flat = iter(make_rng(3).random(u.taken).tolist())
    assert walks == [walk_lab.walk(c.m, flat, c.starts[i % len(c.starts)], c.stop)
                     for i in range(len(walks))]


def test_walk_takes_no_value_past_its_budget(walk_cases, monkeypatch):
    c = walk_cases[-2]          # the lattice
    monkeypatch.setattr(walk_lab, "MAX_STEPS", 10_000)
    k = len(walk_lab.walk(c.m, walk_lab.uniforms(make_rng(2)), c.x, c.stop))
    assert k > 2
    for budget in (0, 1, k // 2, k - 1):
        monkeypatch.setattr(walk_lab, "MAX_STEPS", budget)
        u = Counted(walk_lab.uniforms(make_rng(2)))
        with pytest.raises(StepBudgetExceeded):
            walk_lab.walk(c.m, u, c.x, c.stop)
        assert u.taken == budget
    u = Counted(walk_lab.uniforms(make_rng(3)))
    monkeypatch.setattr(walk_lab, "MAX_STEPS", 0)
    assert walk_lab.walk(c.m, u, c.m.v1, c.stop) == []
    monkeypatch.setattr(walk_lab, "MAX_STEPS", 10)
    assert walk_lab.walk(c.m, u, c.m.v0, c.stop) == []
    assert u.taken == 0


def test_simulate_takes_numpy_vertices(walk_cases):
    for c in (walk_cases[0], walk_cases[-2]):      # a random map, the lattice
        want = simulate(c.m, c.x, c.stop, seed=2)
        got = simulate(c.m, np.int64(c.x), set(np.array(sorted(c.stop))), seed=2)
        for a, b in ((got.vertices, want.vertices), (got.darts, want.darts)):
            assert a.dtype == b.dtype == np.int64
            assert np.array_equal(a, b)
        assert len(want) > 1


@pytest.mark.parametrize("block", [1, 7])
def test_walks_do_not_depend_on_block(walk_cases, monkeypatch, block):
    monkeypatch.setattr(walk_lab, "BLOCK", block)
    for c in walk_cases:
        tr = simulate(c.m, c.x, c.stop, seed=1)
        assert tr.darts.tolist() == ref_simulate(c.m, c.x, c.stop, 1)[0]
        rep = invariance_diagnostic(c.m, c.height, c.starts, 0.25, 0.75,
                                    walks_per_start=5, seed=1)
        assert np.array_equal(rep.p_hat, ref_invariance(c.m, c.height, c.starts,
                                                        0.25, 0.75, 5, 1)[0])


def test_walk_draw_rounding_up_picks_last_dart(monkeypatch):
    # with subnormal conductances u * c[-1] can round up to c[-1], so the
    # search lands past the last dart
    m = build_map(2, [(0, 1, 5e-324)] * 3, [[0, 2, 4], [5, 3, 1]], marked=(0, 1))
    c = m.step_rows[0][0]
    u = 1.0 - 2.0 ** -53        # the largest value rng.random() returns
    assert u * c[-1] == c[-1]
    monkeypatch.setattr(walk_lab, "MAX_STEPS", 1)
    assert walk_lab.walk(m, iter([u]), 0, {1}) == [4]


# -- the re-keyed generator of simulate ---------------------------------------

def test_rekeyed_rng_draws_the_stream_of_make_rng():
    n = 3 * walk_lab.BLOCK
    for seed in (0, 1, 2**63, 2**64 - 1):
        rng = rekeyed_rng(seed)
        assert np.array_equal(rng.random(n), make_rng(seed).random(n))
        # leave a half-used buffer and a spare 32-bit word behind
        rng.integers(0, 2**32, size=3, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
    for seed in (0, 2**64 - 1):
        got = list(islice(walk_lab.uniforms(rekeyed_rng(seed)), n))
        assert got == make_rng(seed).random(n).tolist()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_rekeyed_rng_rejects_seeds_like_make_rng(seed):
    with pytest.raises(OverflowError) as want:
        make_rng(seed)
    with pytest.raises(OverflowError) as got:
        rekeyed_rng(seed)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("seed", [1.5, 1.9, np.float64(1.0)])
def test_seeds_that_are_not_integers_raise(seed):
    # np.uint64 alone would truncate each of these to the key of seed 1
    with pytest.raises(TypeError):
        make_rng(seed)
    with pytest.raises(TypeError):
        rekeyed_rng(seed)


@pytest.mark.parametrize("seed", [np.int64(3), np.uint64(3), np.int32(3), np.uint64(2**64 - 1)])
def test_numpy_integer_seeds_keep_their_streams(seed):
    want = np.random.Generator(np.random.Philox(key=int(seed))).random(8)
    assert np.array_equal(make_rng(seed).random(8), want)
    assert np.array_equal(rekeyed_rng(seed).random(8), want)


def test_simulate_leaves_a_live_stream_alone(walk_cases):
    c = walk_cases[-2]          # the lattice
    ref = walk_lab.uniforms(make_rng(3))
    want = [walk_lab.walk(c.m, ref, x, c.stop) for x in c.starts * 3]
    u = walk_lab.uniforms(make_rng(3))
    got = []
    for x in c.starts * 3:
        got.append(walk_lab.walk(c.m, u, x, c.stop))
        simulate(c.m, x, c.stop, seed=5)
    assert got == want


def test_simulate_after_a_budget_overrun_matches_reference(walk_cases, monkeypatch):
    c = walk_cases[0]
    darts, verts = ref_simulate(c.m, c.x, c.stop, 5)
    assert len(darts) > 1
    monkeypatch.setattr(walk_lab, "MAX_STEPS", 1)
    with pytest.raises(StepBudgetExceeded):
        simulate(c.m, c.x, c.stop, seed=5)
    monkeypatch.setattr(walk_lab, "MAX_STEPS", 10_000)
    tr = simulate(c.m, c.x, c.stop, seed=5)
    assert tr.darts.tolist() == darts and tr.vertices.tolist() == verts


# -- vertex ids of the Monte Carlo walks ---------------------------------------

def bad_vertices(m):
    return [-1, m.num_vertices, 0.5]


def test_simulate_rejects_out_of_range_vertices(walk_cases):
    c = walk_cases[0]
    for x in bad_vertices(c.m):
        with pytest.raises(ValueError, match=f"start {x} is not a vertex id"):
            simulate(c.m, x, c.stop, seed=3)
        with pytest.raises(ValueError, match=f"stop vertex {x} is not a vertex id"):
            simulate(c.m, c.x, c.stop | {x}, seed=3)


def test_invariance_rejects_out_of_range_starts_before_walking(walk_cases, monkeypatch):
    c = walk_cases[-2]          # the lattice

    def no_walk(*args):
        raise AssertionError("walked before checking the starts")

    monkeypatch.setattr(convergence, "walk", no_walk)
    for x in bad_vertices(c.m):
        with pytest.raises(ValueError, match=f"start {x} is not a vertex id"):
            invariance_diagnostic(c.m, c.height, [c.x, x], 0.25, 0.75,
                                  walks_per_start=5, seed=1)


# -- array kernels against the loops they replaced ------------------------------

def test_level_measure_matches_loop(random_maps, lattice8):
    for m, _emb in list(random_maps[:8]) + [lattice8]:
        v = solve_voltage(m)
        aug = augment_all_levels(m, v)
        levels = realized_levels(m, v)
        for a, got in zip(levels, level_measures(aug.map, aug.voltage, levels)):
            want = oracles.level_measure(aug.map, aug.voltage, a)
            assert got.vertices.tolist() == want.vertices.tolist()
            assert got.mass.tobytes() == want.mass.tobytes()


def test_level_measure_names_first_imbalanced_vertex(lattice8_solved):
    # lifting two vertices of the row above unbalances the level vertices
    # below them, columns 2 and 5; the error names column 2
    m, _, v = lattice8_solved
    values = v.values.copy()
    for col, lift in ((5, 1e-3), (2, 2e-3)):
        values[4 * 8 + col] += lift
    bad = Voltage(m, values, v.residual, v.eta, v.eta_mismatch)
    a = float(values[3 * 8])
    errors = []
    for measure in (lambda *args: level_measures(*args[:2], [args[2]]),
                    oracles.level_measure):
        with pytest.raises(ValueError, match="^vertex 26: flow imbalance") as err:
            measure(m, bad, a)
        errors.append(str(err.value))
    assert errors[0] == errors[1]


# -- the one-augmentation report against the per-sequence rebuild it replaced --
# The references below are the exact-law code that augmented the map again
# for every height sequence, and read each winding step's drift scalar by
# scalar off the tiling of the original map.  The report built on one
# level-graded map must reproduce them bit for bit, including the deviations
# of maps that fail verify.

def ref_first_crossing(m, v, a, tol=1e-12):
    for k in range(m.num_edges):
        ht = float(v.values[m.edge_tail[k]])
        hh = float(v.values[m.edge_head[k]])
        if min(ht, hh) + tol < a < max(ht, hh) - tol:
            return k
    return None


def ref_conditional_hitting(m, v, heights):
    """(augmentation, levels, conditional, mu, forward, backward, norm), each
    heights sequence augmented on its own."""
    tol = walk_lab.LEVEL_TOL
    heights = np.atleast_1d(np.asarray(heights, dtype=np.float64))
    aug = augment_all_levels(m, v, extra=heights)
    m2, v2 = aug.map, aug.voltage
    pi = m2.pi_weight
    levels = [oracles.level_set(m2, v2, float(a), tol) for a in heights]
    index = [{int(x): j for j, x in enumerate(lv)} for lv in levels]
    N = len(heights)
    mu0 = measure_dict(oracles.level_measure(m2, v2, float(heights[0]), tol))
    fwd = [np.zeros(len(lv)) for lv in levels]
    fwd[0] = np.array([mu0.get(int(x), 0.0) for x in levels[0]])
    for i in range(N - 1):
        nxt = index[i + 1]
        for j, x in enumerate(levels[i]):
            fj = fwd[i][j]
            if fj == 0.0:
                continue
            for g in m2.vertex_darts[int(x)]:
                jj = nxt.get(int(m2.dart_head[g]))
                if jj is not None:
                    fwd[i + 1][jj] += fj * float(m2.conductance[g >> 1]) / pi[x]
        if fwd[i + 1].sum() <= 0.0:
            raise InadmissibleHeights("unreachable")
    bwd = [np.ones(len(lv)) for lv in levels]
    for i in range(N - 2, -1, -1):
        nxt = index[i + 1]
        for j, x in enumerate(levels[i]):
            s = 0.0
            for g in m2.vertex_darts[int(x)]:
                jj = nxt.get(int(m2.dart_head[g]))
                if jj is not None:
                    s += float(m2.conductance[g >> 1]) / pi[x] * bwd[i + 1][jj]
            bwd[i][j] = s
    norm = float(np.sum(fwd[-1]))
    cond = [fwd[i] * bwd[i] / norm for i in range(N)]
    mus = []
    for a, lv in zip(heights, levels):
        lm = measure_dict(oracles.level_measure(m2, v2, float(a), tol))
        mus.append(np.array([lm.get(int(x), 0.0) for x in lv]))
    return aug, levels, cond, mus, fwd, bwd, norm


def ref_graded_drift(d, aug, g):
    """The drift of graded dart g in the rectangle frame of its original
    edge, read scalar by scalar off d, the tiling of ``aug.original``."""
    h = 2 * int(aug.edge_origin[g >> 1]) + (g & 1)
    e = h >> 1

    def at(x, out):
        if x >= aug.original.num_vertices:      # inserted: the rectangle's centre
            return d.rect_x0[e] + d.rect_width[e] / 2.0
        return d.hseg_start[x] + d.hseg_len[x] / 2.0 - int(d.sheet[out]) * d.eta

    return at(int(aug.map.dart_head[g]), h ^ 1) - at(int(aug.map.dart_tail[g]), h)


def ref_expected_conditional_winding(m, v, diag, heights):
    aug, levels, _cond, _mus, fwd, bwd, norm = ref_conditional_hitting(m, v, heights)
    m2 = aug.map
    pi = m2.pi_weight
    total = 0.0
    for i in range(len(heights) - 1):
        nxt = {int(x): j for j, x in enumerate(levels[i + 1])}
        for j, x in enumerate(levels[i]):
            fj = fwd[i][j]
            if fj == 0.0:
                continue
            for g in m2.vertex_darts[int(x)]:
                jj = nxt.get(int(m2.dart_head[g]))
                if jj is None:
                    continue
                wgt = fj * float(m2.conductance[g >> 1]) / pi[x] * bwd[i + 1][jj]
                if wgt != 0.0:
                    total += wgt * ref_graded_drift(diag, aug, int(g))
    return total / (diag.eta * norm)


def ladder(m, v):
    """The report's ladder: the realized levels, the quartiles on a map
    without any."""
    levels = realized_levels(m, v)
    return levels if len(levels) else [0.25, 0.5, 0.75]


def ref_exact_law_report(m, v, emb=None, num_sequences=5, length=4, seed=0):
    c = conjugate(dual(m, emb), v)
    diag = build_diagram(m, c.dual, v, c)
    aug = augment_all_levels(m, v)
    noise = float(np.finfo(np.float64).eps) * float(max(1.0, aug.map.conductance.max()))
    mass_dev = 0.0
    for a in realized_levels(aug.map, aug.voltage):
        mass_dev = max(mass_dev, abs(oracles.level_measure(aug.map, aug.voltage, a).total
                                     - 1.0))
    hit_dev = 0.0
    wind_dev = 0.0
    sequences = admissible_sequences(ladder(m, v), num_sequences, length, seed)
    for seq in sequences:
        _aug, _lv, cond, mus, _f, _b, _n = ref_conditional_hitting(m, v, seq)
        hit_dev = max(hit_dev, max(float(np.max(np.abs(c - u))) for c, u in zip(cond, mus)))
        wind_dev = max(wind_dev, abs(ref_expected_conditional_winding(m, v, diag, seq)))
    half = [(k, 0.5) for k in range(m.num_edges)]
    m2, _e2, _origin = insert_vertices(m, None, half)
    proj_dev = 0.0
    for x in range(m.num_vertices):
        want = step_law(m, x)
        got = oracles.projected_step_law(m2, range(m.num_vertices), x)
        keys = set(want) | set(got)
        keys.discard(x)
        proj_dev = max(proj_dev, max(abs(want.get(k, 0.0) - got.get(k, 0.0))
                                     for k in keys))
    return {
        "level_mass_max_dev": mass_dev,
        "hitting_max_dev": hit_dev,
        "winding_max_abs": wind_dev,
        "projection_max_dev": proj_dev,
        "noise_floor": noise,
        "sequences": sequences,
    }


@pytest.fixture(scope="module")
def law_maps(random_maps, small_random_maps, lattice8, rung_map, parallel3_map,
             mated_crt64, crt48_maps):
    return (list(random_maps[:4]) + list(small_random_maps) + [lattice8]
            + [(m, None) for m in (rung_map, parallel3_map, mated_crt64, *crt48_maps)])


def test_exact_law_report_matches_reference(law_maps):
    # the projection is one solve for all vertices, where the reference
    # solves once per vertex: its entries agree within 1e-14, and so does
    # their largest deviation from step_law
    for m, emb in law_maps:
        v = solve_voltage(m)
        got, want = exact_law_report(m, v, emb), ref_exact_law_report(m, v, emb)
        assert abs(got.pop("projection_max_dev") - want.pop("projection_max_dev")) <= 1e-14
        assert got == want


def test_crt48_hitting_failure_stays_visible(crt48_maps):
    m = crt48_maps[1]
    rep = exact_law_report(m, solve_voltage(m))
    assert rep["hitting_max_dev"] > 1e-3


def test_hitting_and_winding_match_reference(law_maps):
    for m, emb in law_maps[4:]:
        v = solve_voltage(m)
        diag = tile(v, emb)
        for seq in admissible_sequences(ladder(m, v), 3, 4, seed=5):
            law = conditional_hitting(augment_all_levels(m, v, extra=seq), seq)
            _aug, levels, cond, mus, fwd, bwd, norm = ref_conditional_hitting(m, v, seq)
            for got, want in ((law.levels, levels), (law.conditional, cond),
                              (law.mu, mus), (law.forward, fwd), (law.backward, bwd)):
                assert [a.tolist() for a in got] == [a.tolist() for a in want]
            assert law.norm == norm
            assert expected_conditional_winding(law, diag) == \
                ref_expected_conditional_winding(m, v, diag, seq)


def test_exact_law_report_builds_once(random_maps, monkeypatch):
    # one augmentation, dual, conjugate and diagram per report, one pass for
    # all the level measures, one sort of the graded voltages, and one
    # sparse product for the projection; the one diagram tiles m itself,
    # never the graded map
    m, emb = random_maps[1]
    v = solve_voltage(m)
    calls = {}
    tiled = []
    for name in ("augment_all_levels", "dual", "conjugate", "build_diagram",
                 "level_measures", "level_sets", "projected_step_law"):
        def counted(*args, _f=getattr(walk_lab, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            out = _f(*args, **kwargs)
            if _name == "build_diagram":
                tiled.append(out.map)
            return out
        monkeypatch.setattr(walk_lab, name, counted)
    walk_lab.exact_law_report(m, v, emb)
    assert len(realized_levels(m, v)) > 1
    assert calls == {"augment_all_levels": 1, "dual": 1, "conjugate": 1,
                     "build_diagram": 1, "level_measures": 1, "level_sets": 1,
                     "projected_step_law": 1}
    assert len(tiled) == 1 and tiled[0] is m


def test_level_measures_match_per_level(law_maps):
    for m, _emb in law_maps:
        v = solve_voltage(m)
        aug = augment_all_levels(m, v)
        levels = realized_levels(aug.map, aug.voltage)
        # every level, some twice and out of order
        order = np.concatenate([levels, levels[::-3]])
        got = walk_lab.level_measures(aug.map, aug.voltage, order)
        assert len(got) == len(order)
        for lm, a in zip(got, order):
            for want in (level_measures(aug.map, aug.voltage, [a])[0],
                         oracles.level_measure(aug.map, aug.voltage, a)):
                assert lm.level == want.level
                assert lm.vertices.tolist() == want.vertices.tolist()
                assert lm.mass.tobytes() == want.mass.tobytes()


def first_level_error(measure, *args):
    try:
        measure(*args)
    except ValueError as err:
        return type(err), str(err)
    return None


def test_level_measures_raise_like_per_level(law_maps, lattice8_solved, path_map,
                                             monkeypatch):
    # on unvertexed maps: crossed levels, levels with no vertex and balanced
    # ones in one list; the pass raises what the loop raises first, each
    # case at its own LEVEL_TOL
    tol = 1e-12
    cases = []
    for m, _emb in law_maps:
        v = solve_voltage(m)
        lv = realized_levels(m, v)
        mids = list((lv[:-1] + lv[1:]) / 2) if len(lv) > 1 else [0.37]
        cases.append((m, v, list(lv) + mids + [0.0, 1.0], tol))
        cases.append((m, v, [1.0, 0.0] + mids[::-1] + list(lv), tol))
        cases.append((m, v, list(lv[::-1]), tol))
    # levels exactly tol from a vertex (h = 0, 1/2, 1), with a tol that makes
    # the distances exact: on the boundary of both the crossing test and the
    # level-set test
    v = solve_voltage(path_map)
    tol = 2.0 ** -40
    for a in (tol, 0.5 - tol, 0.5 + tol, 1.0 - tol, 0.5 - 2 * tol, 0.5 + 2 * tol):
        cases.append((path_map, v, [a], tol))
    # the imbalanced row of test_level_measure_names_first_imbalanced_vertex
    m, _, v = lattice8_solved
    values = v.values.copy()
    for col, lift in ((5, 1e-3), (2, 2e-3)):
        values[4 * 8 + col] += lift
    bad = Voltage(m, values, v.residual, v.eta, v.eta_mismatch)
    rows = [float(values[8 * r]) for r in range(1, 4)]
    cases.append((m, bad, rows, 1e-12))
    cases.append((m, bad, rows[::-1], 1e-12))
    # an imbalanced row of 8 vertices next to a level of one lifted vertex:
    # each level's vertices must be charged to that level
    lifted = float(values[4 * 8 + 5])
    cases.append((m, bad, [rows[-1], lifted], 1e-12))
    cases.append((m, bad, [lifted, rows[-1]], 1e-12))
    raised = set()
    for m, v, levels, tol in cases:
        def loop(m=m, v=v, levels=levels, tol=tol):
            for a in levels:
                oracles.level_measure(m, v, a, tol)
        want = first_level_error(loop)
        monkeypatch.setattr(walk_lab, "LEVEL_TOL", tol)
        assert first_level_error(walk_lab.level_measures, m, v, levels) == want
        raised.add(want and want[0])
    assert raised == {None, LevelNotVertexed, ValueError}


def test_level_set_and_crossing_match_loops(law_maps, path_map, monkeypatch):
    # each probe alone and all of them in one call: repeated, out of order,
    # and at LEVEL_TOL = 0
    cases = []
    for m, _emb in law_maps:
        v = solve_voltage(m)
        lv = realized_levels(m, v)
        probes = list(lv) + [0.0, 1.0, 0.37, 0.5]
        if len(lv) > 1:
            probes += list((lv[:-1] + lv[1:]) / 2)
        cases.append((m, v, probes, (0.0, 1e-12, 1e-9)))
        for a in probes:
            k = ref_first_crossing(m, v, a)
            if k is None:
                continue
            with pytest.raises(LevelNotVertexed, match=f"^edge {k} crosses level"):
                level_measures(m, v, [a])
    # a chain of levels 0.6e-12 apart from 0, whose sets overlap, with a tol
    # exactly their gap
    chain = [0.0, 0.6e-12, 1.2e-12, 1.8e-12]
    cases.append((*chain_map([0.0] + chain + [1.0]), chain, (0.0, 0.6e-12, 1e-12)))
    # levels exactly tol from a vertex and one ulp further, where the window
    # must not cut the set short
    tol = 2.0 ** -40
    near = [b for a in (0.5 - tol, 0.5 + tol) for b in (a, np.nextafter(a, 0.0),
                                                          np.nextafter(a, 1.0))]
    cases.append((path_map, solve_voltage(path_map), near, (tol,)))
    # large voltages, whose rounding dwarfs tol
    ulp = float(np.spacing(1e8))
    big = [1e8 + k * ulp for k in range(4)]
    cases.append((*chain_map([0.0] + big + [2e8]), big, (0.0, 1e-12, 1.5 * ulp)))
    for m, v, probes, tols in cases:
        many = probes[::-1] + probes[::2]
        for tol in tols:
            monkeypatch.setattr(walk_lab, "LEVEL_TOL", tol)
            for a in probes:
                got, = level_sets(m, v, [a])
                assert got.tolist() == oracles.level_set(m, v, a, tol).tolist()
            got = level_sets(m, v, many)
            assert [s.tolist() for s in got] == \
                [oracles.level_set(m, v, a, tol).tolist() for a in many]
            assert level_sets(m, v, []) == []
    monkeypatch.setattr(walk_lab, "LEVEL_TOL", 1.5 * ulp)
    overlap = level_sets(*cases[-1][:2], big[1:3])
    assert [s.tolist() for s in overlap] == [[1, 2, 3], [2, 3, 4]]
