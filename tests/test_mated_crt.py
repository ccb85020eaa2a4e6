"""Correlated-excursion maps: sampling, adjacency, arc diagrams, tilings."""

import itertools
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import ks_2samp

import oracles
from smithtile import (CombMap, Excursion, MapError, SampleError, adjacency_oracle,
                       excursion_from_increments, make_rng, mark_vertices,
                       mated_crt, sample_excursion, solve_voltage, tile,
                       validate)
from smithtile.mated_crt import (LINE, LOWER, UPPER, _arc_pairs,
                                 build_map as build_mated,
                                 face_degree_histogram)

from oracles import arc_sets, build_map, contact_violations, noncrossing


# -- sampler -----------------------------------------------------------------

def test_sampler_validates_arguments():
    for g in (0.0, 2.0, -1.0, 2.5):
        with pytest.raises(ValueError, match="gamma"):
            sample_excursion(g, 8, seed=0)
    with pytest.raises(ValueError, match="two cells"):
        sample_excursion(1.0, 1, seed=0)


def test_sampler_exhausts_attempts(monkeypatch):
    # strongly negative correlation at this size: acceptance is far below
    # 1/10, so a 10-attempt budget must fail
    monkeypatch.setattr(mated_crt, "MAX_ATTEMPTS", 10)
    with pytest.raises(SampleError, match="no excursion in 10 attempts"):
        sample_excursion(1.0, 64, seed=0)


def test_sampler_excursion_invariants():
    # l >= 0 by the shift, not by a test, and both ends are exact zeros
    cases = [(1.0, 2), (1.0, 32), (1.5, 24), (1.8, 3), (1.8, 1024)]
    for (gamma, n), seed in itertools.product(cases, range(3)):
        exc = sample_excursion(gamma, n, seed=seed)
        exc.check()
        assert exc.n == n and len(exc.l) == len(exc.r) == n + 1
        assert exc.l[0] == exc.l[n] == exc.r[0] == exc.r[n] == 0.0
        assert exc.l.min() >= 0.0 and exc.r.min() >= 0.0
        assert np.array_equal(np.diff(exc.l), exc.dl)
        assert np.allclose(np.diff(exc.r), exc.dr, rtol=0.0, atol=1e-12)
        assert exc.attempts >= 1


def test_sampler_reproducible():
    a = sample_excursion(1.5, 24, seed=9)
    b = sample_excursion(1.5, 24, seed=9)
    assert np.array_equal(a.dl, b.dl) and np.array_equal(a.dr, b.dr)
    assert a.attempts == b.attempts


def test_sampler_uncorrelated_reconstruction():
    # gamma = sqrt(2) makes the two coordinates independent: replaying the
    # stream recovers the accepted draw as L's bridge restarted at its
    # minimum and W's bridge unshifted
    g = math.sqrt(2.0)
    exc = sample_excursion(g, 32, seed=5)
    assert exc.attempts > 1
    rng = make_rng(5)
    for _ in range(exc.attempts):
        z = rng.standard_normal((2, 32)) / math.sqrt(32)
    bl, bw = z[0] - z[0].mean(), z[1] - z[1].mean()
    k = int(np.argmin(np.concatenate([[0.0], np.cumsum(bl)[:-1]])))
    assert k > 0
    assert np.max(np.abs(exc.dl - np.roll(bl, -k))) < 1e-15
    assert np.max(np.abs(exc.dr - bw)) < 1e-15


def assert_same_excursion(got, want):
    for name in ("dl", "dr", "l", "r"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert type(got.attempts) is int and got.attempts == want.attempts


def sample_both(monkeypatch, gamma, n, seed, max_attempts):
    """Both samplers' excursions, or both SampleError messages, within
    max_attempts attempts."""
    monkeypatch.setattr(mated_crt, "MAX_ATTEMPTS", max_attempts)
    out = []
    for sample in (sample_excursion, partial(oracles.sample_shifted_excursion,
                                             max_attempts=max_attempts)):
        try:
            out.append(sample(gamma, n, seed))
        except SampleError as err:
            out.append(str(err))
    return out


@pytest.mark.parametrize("gamma", [1.0, 1.5, 1.8, math.sqrt(2.0)])
@pytest.mark.parametrize("n", [2, 3, 24, 64, 256])
def test_sampler_matches_single_draws(monkeypatch, gamma, n):
    # a budget of 4000 is no multiple of any block here, and gamma = 1.0
    # exhausts it at n = 24 (seed 1) and above, so both the accepting and
    # the failing path run
    for seed in range(3):
        got, want = sample_both(monkeypatch, gamma, n, seed, 4000)
        if isinstance(want, str):
            assert got == want
        else:
            assert_same_excursion(got, want)


def block_of(cap, a):
    """(first attempt, last attempt, size) of the block holding attempt a,
    for blocks that double from one attempt up to cap attempts."""
    first, size = 1, 1
    while first + size <= a:
        first += size
        size = min(2 * size, cap)
    return first, first + size - 1, size


@pytest.mark.parametrize("edge", [0, 1])
def test_sampler_accepts_at_block_edges(monkeypatch, edge):
    # the accepted attempt is the first (edge 0) or the last (edge 1) of its
    # block: of a block still growing at the default cap, and of a full block
    # at every cap that puts it there
    n = 24
    growing_seed, full_seed = ((161, 3), (147, 0))[edge]
    want = oracles.sample_shifted_excursion(1.2, n, seed=growing_seed)
    block = block_of(mated_crt.BLOCK_NORMALS // (2 * n), want.attempts)
    assert want.attempts == block[edge] > 1
    assert block[2] < mated_crt.BLOCK_NORMALS // (2 * n)
    assert_same_excursion(sample_excursion(1.2, n, seed=growing_seed), want)
    want = oracles.sample_shifted_excursion(1.2, n, seed=full_seed)
    a = want.attempts
    caps = [c for c in range(1, a + 1) if block_of(c, a)[2] == c and block_of(c, a)[edge] == a]
    assert len(caps) >= 3
    for cap in caps:
        monkeypatch.setattr(mated_crt, "BLOCK_NORMALS", 2 * n * cap)
        assert_same_excursion(sample_excursion(1.2, n, seed=full_seed), want)


def test_sampler_budget_cuts_last_block(monkeypatch):
    # budgets of a - 1 and a attempts both end inside the block holding a:
    # a block still growing at the default cap, and a full block at cap 7
    n = 24
    a = oracles.sample_shifted_excursion(1.2, n, seed=0).attempts
    for cap in (mated_crt.BLOCK_NORMALS // (2 * n), 7):
        monkeypatch.setattr(mated_crt, "BLOCK_NORMALS", 2 * n * cap)
        first, last, size = block_of(cap, a)
        assert first < a - 1 and a < last and (size == cap) == (cap == 7)
        got, want = sample_both(monkeypatch, 1.2, n, 0, a - 1)
        assert got == want and "no excursion in" in got
        got, want = sample_both(monkeypatch, 1.2, n, 0, a)
        assert_same_excursion(got, want)


def test_sampler_blocks_double_from_one(monkeypatch):
    # attempt 179 is reached in blocks of 1, 2, ..., 128 attempts, and a cap
    # of 48 attempts stops the doubling
    n = 24
    drawn = []

    class Recording:
        def __init__(self, seed):
            self.rng = make_rng(seed)

        def standard_normal(self, size):
            drawn.append(size[0])
            return self.rng.standard_normal(size)

    monkeypatch.setattr(mated_crt, "make_rng", Recording)
    assert sample_excursion(1.2, n, seed=0).attempts == 179
    assert drawn == [1, 2, 4, 8, 16, 32, 64, 128]
    drawn.clear()
    monkeypatch.setattr(mated_crt, "BLOCK_NORMALS", 2 * n * 48)
    sample_excursion(1.2, n, seed=0)
    assert drawn == [1, 2, 4, 8, 16, 32, 48, 48, 48]


def excursion_laws(sample, gamma, n, seeds) -> np.ndarray:
    """Per excursion: max L, max R, edge count, triangles, quadrangles."""
    rows = []
    for seed in seeds:
        exc = sample(gamma, n, seed)
        m = build_mated(exc).map
        tri, quad = (face_degree_histogram(m).tolist() + [0, 0])[3:5]
        rows.append((exc.l.max(), exc.r.max(), m.num_edges, tri, quad))
    return np.array(rows)


@pytest.mark.parametrize("gamma, n", [(1.8, 12), (1.5, 8)])
def test_sampler_law_matches_plain_rejection(gamma, n):
    # two-sample KS tests against plain rejection on disjoint seed ranges,
    # fixed once: 600 excursions each
    old = excursion_laws(oracles.sample_excursion, gamma, n, range(600))
    new = excursion_laws(sample_excursion, gamma, n, range(10**6, 10**6 + 600))
    for j in range(old.shape[1]):
        assert ks_2samp(old[:, j], new[:, j], method="asymp").pvalue > 0.01, j


def test_excursion_from_increments_validation():
    with pytest.raises(ValueError, match="equal-length"):
        excursion_from_increments([1.0, -1.0], [1.0])
    with pytest.raises(ValueError, match="n >= 2"):
        excursion_from_increments([0.0], [0.0])
    with pytest.raises(ValueError, match="return to the origin"):
        excursion_from_increments([1.0, 1.0], [1.0, -1.0])
    with pytest.raises(ValueError, match="first quadrant"):
        excursion_from_increments([-1.0, 1.0], [1.0, -1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_excursion_from_increments_rejects_non_finite(bad):
    # a nan compares false in every range check, so it must be refused first
    for dl, dr in (([0.5, bad, -0.5], [0.5, 0.0, -0.5]),
                   ([0.5, 0.0, -0.5], [0.5, bad, -0.5])):
        with pytest.raises(ValueError, match="increments must be finite"):
            excursion_from_increments(dl, dr)


# -- adjacency rule ----------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=2, max_size=200))
@example([-2, -2, -2])      # pushing cell 2 before popping buries cell 1
def test_arc_pairs_match_scan(steps):
    # integer steps make the ties and pinches the exclusions handle
    C = np.concatenate([[0.0], np.cumsum(steps, dtype=np.float64)])
    got = _arc_pairs(C)
    assert got.dtype == np.int64
    assert [tuple(p) for p in got.tolist()] == oracles.arc_pairs(C)


def assert_arc_pairs_match_scan(C):
    got = _arc_pairs(C)
    assert got.dtype == np.int64 and got.shape[1:] == (2,)
    assert [tuple(p) for p in got.tolist()] == oracles.arc_pairs(C)


@pytest.mark.parametrize("n", sorted({m for k in range(1, 10)
                                      for m in (2**k - 1, 2**k, 2**k + 1) if m >= 2}))
def test_arc_pairs_match_scan_at_table_edges(n):
    """Float paths whose n + 1 lattice points just fill, just miss or just
    pass a power of two, the sparse table's edge cases: sampled excursions,
    raw and rounded to a coarse grid (ties and pinches), and free walks."""
    rng = make_rng(n)
    for seed in range(2):
        exc = sample_excursion(1.8 if seed else 1.4, n, seed=seed)
        for C in (exc.l, exc.r):
            assert_arc_pairs_match_scan(C)
            assert_arc_pairs_match_scan(np.round(C * 4.0) / 4.0)
    assert_arc_pairs_match_scan(np.concatenate([[0.0], np.cumsum(rng.standard_normal(n))]))
    assert_arc_pairs_match_scan(np.round(np.concatenate([[0.0], np.cumsum(
        rng.standard_normal(n))])))


@pytest.mark.parametrize("n", [2, 3, 5, 64, 129])
def test_arc_pairs_match_scan_on_flat_and_monotone_paths(n):
    # a flat path pinches every pair; monotone paths have no arcs, and each
    # of their record chains is as long or as short as it gets
    for C in (np.zeros(n + 1), np.full(n + 1, 2.5), np.arange(n + 1.0),
              -np.arange(n + 1.0), np.sqrt(np.arange(n + 1.0)),
              np.concatenate([[0.0], np.arange(n, 0, -1.0)]),
              np.concatenate([np.arange(n, 0, -1.0), [0.0]])):
        assert_arc_pairs_match_scan(C)


def assert_same_map_as_loop(exc) -> bool:
    """build_mated agrees with the per-vertex loop: the same edges, kinds
    and next_dart, or the same rotation error.  True if a map was built."""
    n, edges, rotation, kind = oracles.mated_map(exc)
    try:
        want = build_map(n, edges, rotation)
    except MapError as err:
        with pytest.raises(MapError) as got:
            build_mated(exc)
        assert str(got.value) == f"arc-diagram rotation inconsistent: {err}"
        return False
    mm = build_mated(exc)
    for name in ("edge_tail", "edge_head", "conductance", "next_dart"):
        a, b = getattr(mm.map, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert mm.kind.dtype == np.int8 and mm.kind.tolist() == kind
    return True


def closed_excursion(steps) -> list:
    """Integer increments that stay >= 0 and end at 0: the steps closed by
    one more step, then started after the walk's first minimum."""
    steps = list(steps) + [-sum(steps)]
    k = int(np.argmin(np.cumsum(steps))) + 1
    return steps[k:] + steps[:k]


def test_rotation_matches_loop_on_fixed_maps():
    for n, seed in [(2, 0), (3, 1), (16, 2), (64, 7), (64, 8), (64, 9)]:
        assert assert_same_map_as_loop(sample_excursion(1.8, n, seed=seed))
    for gamma, seed in [(1.8, 1), (1.8, 2), (1.4, 3)]:
        assert assert_same_map_as_loop(sample_excursion(gamma, 1024, seed=seed))
    assert assert_same_map_as_loop(excursion_from_increments(
        [1.0, -1.0, 1.0, -1.0], [2.0, -1.0, -0.5, -0.5]))
    assert not assert_same_map_as_loop(excursion_from_increments(
        [1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                min_size=1, max_size=39))
def test_rotation_matches_loop_on_walks(steps):
    dl, dr = zip(*steps)
    assert_same_map_as_loop(excursion_from_increments(
        closed_excursion(dl), closed_excursion(dr)))


def test_adjacency_consecutive_always():
    exc = excursion_from_increments([1.0, 2.0, -3.0], [2.0, -1.0, -1.0])
    assert adjacency_oracle(exc, 0, 1) == (True, True)
    assert adjacency_oracle(exc, 1, 2) == (True, True)
    assert adjacency_oracle(exc, 1, 0) == adjacency_oracle(exc, 0, 1)
    with pytest.raises(ValueError, match="distinct"):
        adjacency_oracle(exc, 1, 1)


def test_minimal_two_cell_map():
    exc = excursion_from_increments([1.0, -1.0], [0.5, -0.5])
    mm = build_mated(exc)
    assert (mm.map.num_vertices, mm.map.num_edges, mm.map.num_faces) == (2, 1, 1)
    assert mm.kind.tolist() == [LINE]
    assert mm.n == 2
    # vertex x is cell x + 1, at position (x + 1) / n
    assert [(x + 1) / mm.n for x in range(mm.n)] == [0.5, 1.0]


def test_pinch_tie_resolved():
    # the R path returns to the gap minimum at an arc attachment; the grazing
    # side is excluded, leaving a consistent arc diagram
    exc = excursion_from_increments([1.0, -1.0, 1.0, -1.0],
                                    [2.0, -1.0, -0.5, -0.5])
    mm = build_mated(exc)
    m = mm.map
    assert (m.num_vertices, m.num_edges, m.num_faces) == (4, 6, 4)
    lows, ups = arc_sets(mm)
    assert lows == [(0, 3)]
    assert ups == [(0, 2), (0, 3)]


def test_ambiguous_tie_fails_loudly():
    # a genuinely two-sided pinch cannot be drawn as a planar arc diagram;
    # the Euler check rejects it instead of silently mis-wiring the rotation
    with pytest.raises(MapError, match="rotation inconsistent"):
        build_mated(excursion_from_increments([1.0, -1.0, 1.0, -1.0],
                                              [1.0, 1.0, -1.0, -1.0]))


def test_map_edges_match_oracle_exhaustively():
    exc = sample_excursion(1.8, 64, seed=7)
    mm = build_mated(exc)
    m = mm.map
    got = {}
    for k in range(m.num_edges):
        pair = tuple(sorted((int(m.edge_tail[k]), int(m.edge_head[k]))))
        got.setdefault(pair, []).append(int(mm.kind[k]))
    want = {}
    for x1 in range(64):
        for x2 in range(x1 + 1, 64):
            low, up = adjacency_oracle(exc, x1, x2)
            kinds = []
            if x2 == x1 + 1:
                kinds.append(LINE)
            else:
                if low:
                    kinds.append(LOWER)
                if up:
                    kinds.append(UPPER)
            if kinds:
                want[(x1, x2)] = kinds
    assert {p: sorted(v) for p, v in got.items()} \
        == {p: sorted(v) for p, v in want.items()}


def test_reference_map_counts():
    exc = oracles.sample_excursion(1.8, 64, seed=7)
    assert exc.attempts == 210
    mm = build_mated(exc)
    m = mm.map
    assert (m.num_vertices, m.num_edges, m.num_faces) == (64, 159, 97)
    assert np.bincount(mm.kind, minlength=3).tolist() == [63, 48, 48]
    assert face_degree_histogram(m).tolist() == [0, 0, 1, 68, 28]


def test_face_histogram_accounting():
    exc = sample_excursion(1.8, 40, seed=1)
    m = build_mated(exc).map
    hist = face_degree_histogram(m)
    assert hist.sum() == m.num_faces
    assert sum(d * c for d, c in enumerate(hist)) == m.num_darts


def test_arc_sets_noncrossing():
    for seed in range(4):
        exc = sample_excursion(1.8, 48, seed=seed)
        lows, ups = arc_sets(build_mated(exc))
        assert noncrossing(lows)
        assert noncrossing(ups)


def test_noncrossing_detects_interleaving():
    assert noncrossing([(0, 3), (1, 2)])        # nested
    assert noncrossing([(0, 1), (2, 3)])        # disjoint
    assert not noncrossing([(0, 2), (1, 3)])    # interleaved
    assert not noncrossing([(3, 1), (2, 5)])    # order-insensitive


# -- marking -----------------------------------------------------------------

def test_mark_first_last():
    exc = sample_excursion(1.8, 16, seed=2)
    mm = mark_vertices(build_mated(exc), policy="first-last")
    assert (mm.map.v0, mm.map.v1) == (0, 15)


def test_mark_uniform_reproducible():
    exc = sample_excursion(1.8, 16, seed=2)
    base = build_mated(exc)
    a = mark_vertices(base, policy="uniform-pair", seed=5)
    b = mark_vertices(base, policy="uniform-pair", seed=5)
    assert (a.map.v0, a.map.v1) == (b.map.v0, b.map.v1)
    assert a.map.v0 != a.map.v1
    assert base.map.v0 is None          # original untouched
    assert np.array_equal(a.map.edge_tail, base.map.edge_tail)
    assert np.array_equal(a.map.next_dart, base.map.next_dart)


def test_marking_shares_the_base_map():
    # the marked map equals a full build with those marks, field by field,
    # and holds the base map's arrays and cached lists
    base = build_mated(sample_excursion(1.8, 64, seed=3))
    base.map.vertex_darts, base.map.face_darts, base.map.step_rows
    for policy, seed in (("uniform-pair", 7), ("first-last", 0)):
        m = mark_vertices(base, policy=policy, seed=seed).map
        b = base.map
        oracles.assert_same_map(m, CombMap(b.num_vertices, b.edge_tail, b.edge_head,
                                           b.conductance, b.next_dart, v0=m.v0, v1=m.v1))
        assert m.face_dart is b.face_dart and m.face_darts is b.face_darts
        assert m.marked.sum() == 2 and not b.marked.any()


def test_mark_unknown_policy():
    exc = sample_excursion(1.8, 8, seed=0)
    with pytest.raises(ValueError, match="policy"):
        mark_vertices(build_mated(exc), policy="middle")


# -- full tiling pipeline ------------------------------------------------------

def test_mated_map_tiles_into_squares():
    # unit conductances make every rectangle a square
    exc = sample_excursion(1.8, 32, seed=1)
    mm = mark_vertices(build_mated(exc), policy="first-last")
    m = mm.map
    d = tile(solve_voltage(m))
    rep = validate(d)
    assert rep.passed(1e-9), rep
    assert contact_violations(d) == 0
    heights = d.rect_y1 - d.rect_y0
    assert np.max(np.abs(d.rect_width - heights)) < 1e-9
