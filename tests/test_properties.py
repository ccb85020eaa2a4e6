"""Property-based checks of the algebraic helpers and small-map laws."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import build_map, step_law, wrap_angle, wrap_signed
from smithtile import (excursion_from_increments, make_rng, mark_vertices, reduce_mod,
                       sample_excursion, solve_voltage)
from smithtile.map_core import insert_vertices, mod_array, wrap_signed_array
from smithtile.mated_crt import build_map as build_mated

TWO_PI = 2.0 * math.pi

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
conductances = st.floats(min_value=0.05, max_value=50.0,
                         allow_nan=False, allow_infinity=False)


@settings(max_examples=80, deadline=None)
@given(finite)
def test_wrap_angle_is_congruent(x):
    r = wrap_angle(x)
    assert 0.0 <= r < TWO_PI
    k = (x - r) / TWO_PI
    assert abs(k - round(k)) < 1e-6


@settings(max_examples=80, deadline=None)
@given(finite)
def test_wrap_signed_range(x):
    r = float(wrap_signed_array(x))
    assert -math.pi < r <= math.pi
    k = (x - r) / TWO_PI
    assert abs(k - round(k)) < 1e-6
    assert repr(r) == repr(wrap_signed(x))


tiny = st.floats(min_value=-1e-300, max_value=-5e-324)


@settings(max_examples=120, deadline=None)
@given(st.one_of(finite, tiny), st.floats(min_value=0.1, max_value=100.0))
def test_mod_array_range(x, period):
    r = float(mod_array(x, period))
    assert 0.0 <= r < period
    k = (x - r) / period
    assert abs(k - round(k)) < 1e-6
    # a tiny negative would round up to the period after adding it
    if -1e-300 <= x < 0.0:
        assert r == 0.0
    # bit for bit (repr tells -0.0 from 0.0) against the scalar reducers
    assert repr(r) == repr(reduce_mod(x, period))
    assert repr(float(mod_array(x, TWO_PI))) == repr(wrap_angle(x))
    got = mod_array(np.array([x, -x]), period).tolist()
    assert list(map(repr, got)) == [repr(reduce_mod(x, period)), repr(reduce_mod(-x, period))]


@settings(max_examples=80, deadline=None)
@given(finite, st.floats(min_value=0.1, max_value=100.0))
def test_reduce_mod_range(x, eta):
    r = reduce_mod(x, eta)
    assert 0.0 <= r < eta
    k = (x - r) / eta
    assert abs(k - round(k)) < 1e-6


@settings(max_examples=50, deadline=None)
@given(st.lists(conductances, min_size=2, max_size=7))
def test_star_step_law_proportional(cs):
    k = len(cs)
    edges = [(0, i + 1, c) for i, c in enumerate(cs)]
    rotation = [[2 * i for i in range(k)]] + [[2 * i + 1] for i in range(k)]
    m = build_map(k + 1, edges, rotation, marked=(1, 2))
    law = step_law(m, 0)
    tot = sum(cs)
    assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
    for i, c in enumerate(cs):
        assert law[i + 1] == pytest.approx(c / tot, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(conductances, conductances)
def test_series_flow_strength(c1, c2):
    m = build_map(3, [(0, 1, c1), (1, 2, c2)], [[0], [1, 2], [3]],
                  marked=(0, 2))
    v = solve_voltage(m)
    assert v.eta == pytest.approx(1.0 / (1.0 / c1 + 1.0 / c2), rel=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.lists(conductances, min_size=2, max_size=5))
def test_parallel_flow_strength(cs):
    k = len(cs)
    edges = [(0, 1, c) for c in cs]
    rotation = [[2 * i for i in range(k)],
                [2 * i + 1 for i in range(k - 1, -1, -1)]]
    m = build_map(2, edges, rotation, marked=(0, 1))
    v = solve_voltage(m)
    assert v.eta == pytest.approx(sum(cs), rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(conductances, st.floats(min_value=0.01, max_value=0.99))
def test_split_preserves_series_conductance(c, t):
    m = build_map(2, [(0, 1, c)], [[0], [1]], marked=(0, 1))
    m2, _, origin = insert_vertices(m, None, [(0, t)])
    assert origin.tolist() == [0, 0]
    assert 1.0 / np.sum(1.0 / m2.conductance) == pytest.approx(c, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1,
                max_size=10),
       st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1,
                max_size=10))
def test_excursion_from_heights(mid_l, mid_r):
    # any nonnegative height profile pinned to zero at both ends is a valid
    # excursion; the lattice values must reproduce the profile
    n = max(len(mid_l), len(mid_r))
    hl = np.array([0.0] + mid_l + [0.0] * (n - len(mid_l)) + [0.0])
    hr = np.array([0.0] + mid_r + [0.0] * (n - len(mid_r)) + [0.0])
    exc = excursion_from_increments(np.diff(hl), np.diff(hr))
    exc.check()
    assert exc.n == n + 1
    assert np.allclose(exc.l, hl, atol=1e-9)
    assert np.allclose(exc.r, hr, atol=1e-9)


@functools.cache
def _face_lemma_maps() -> tuple:
    """Small maps with splits, diagonals and deletions, a mated-CRT map with
    multiple edges, and a path with a self-loop."""
    loop = build_map(3, [(0, 2, 1.0), (2, 1, 1.0), (2, 2, 1.0)], [[0], [3], [1, 4, 5, 2]],
                     marked=(0, 1))
    crt = mark_vertices(build_mated(sample_excursion(1.8, 24, 1)), seed=1).map
    return (*(oracles.small_random_map(seed)[0] for seed in range(4)), crt, loop)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.data())
def test_face_sides_cover_the_range_of_their_corners(which, data):
    # the face lemma behind build_diagram's vertical segments: for any
    # voltage, ties and flat edges included, the rectangles on each side of
    # a face cover exactly [min, max] of its corner voltages, without a gap
    m = _face_lemma_maps()[which]
    value = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0))
    h = np.array(data.draw(st.lists(value, min_size=m.num_vertices, max_size=m.num_vertices)))
    corner = h[m.dart_tail[m.face_dart]]
    lo = np.minimum.reduceat(corner, m.face_ptr[:-1])
    hi = np.maximum.reduceat(corner, m.face_ptr[:-1])
    for f, sides in enumerate(oracles.face_side_unions(m, h)):
        spans = [union for union in sides if union]
        assert spans and all(union == [(lo[f], hi[f])] for union in spans)
        # a walk that rises and falls has rectangles on both sides
        assert len(spans) == 2 or lo[f] == hi[f]


@pytest.mark.parametrize("key", [0, 1, 12345, 2**63, 2**64 - 1])
def test_make_rng_is_philox_keyed_by_the_seed(key):
    """make_rng keys Philox through a one-key seed sequence: the stream is
    the one ``Philox(key=key)`` draws."""
    ref = np.random.Generator(np.random.Philox(key=np.uint64(key)))
    rng = make_rng(key)
    assert np.array_equal(rng.random(1000), ref.random(1000))
    assert np.array_equal(rng.integers(0, 2**63, size=1000),
                          ref.integers(0, 2**63, size=1000))


def test_make_rng_rejects_a_negative_seed():
    with pytest.raises(OverflowError):
        make_rng(-1)
