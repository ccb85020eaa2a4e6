"""Shared fixtures: small hand-built maps plus lattice and random instances.

Each hand-built fixture has closed-form voltages/widths worked out in the
tests that use it, so they double as oracles.
"""

import numpy as np
import pytest

import oracles
from oracles import build_map
from smithtile import (CylinderEmbedding, make_lattice, mark_vertices,
                       random_map, solve_voltage)
from smithtile.mated_crt import build_map as build_mated


@pytest.fixture(scope="session")
def path_map():
    # v0 - a - v1 with unit conductances.  h = [0, 1/2, 1], eta = 1/2.
    return build_map(3, [(0, 1, 1.0), (1, 2, 1.0)],
                     [[0], [1, 2], [3]], marked=(0, 2))


@pytest.fixture(scope="session")
def path4_map():
    # v0 - a - b - v1, unit conductances.  h = [0, 1/3, 2/3, 1].
    return build_map(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)],
                     [[0], [1, 2], [3, 4], [5]], marked=(0, 3))


@pytest.fixture(scope="session")
def parallel3_map():
    # three parallel unit edges between the marked poles; eta = 3.
    return build_map(2, [(0, 1, 1.0)] * 3,
                     [[0, 2, 4], [5, 3, 1]], marked=(0, 1))


@pytest.fixture(scope="session")
def rung_map():
    # two disjoint 2-paths v0-a-v1 and v0-b-v1 plus a rung a-b carrying
    # zero current by symmetry: h(a) = h(b) = 1/2.
    return build_map(4, [(0, 1, 1.0), (1, 3, 1.0), (0, 2, 1.0),
                         (2, 3, 1.0), (1, 2, 1.0)],
                     [[0, 4], [1, 8, 2], [5, 6, 9], [3, 7]],
                     marked=(0, 3))


@pytest.fixture(scope="session")
def triangle_map():
    return build_map(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)],
                     [[0, 4], [1, 2], [3, 5]], marked=(0, 2))


@pytest.fixture(scope="session")
def lattice8():
    return make_lattice(8, 2.0)


@pytest.fixture(scope="session")
def lattice8_solved(lattice8):
    m, emb = lattice8
    return m, emb, solve_voltage(m)


@pytest.fixture(scope="session")
def mated_crt64():
    """A gamma = 1.8, n = 64 mated-CRT map marked as `smith mated-crt
    --seed 7` marked the plain-rejection sample; it has no embedding."""
    return mark_vertices(build_mated(oracles.sample_excursion(1.8, 64, seed=7)),
                         seed=7).map


@pytest.fixture(scope="session")
def crt48_maps():
    """The gamma = 1.8, n = 48 plain-rejection maps of seeds 1, 2, 4, marked as
    `smith mated-crt --seed` marks them: their zero-gradient edges make
    verify fail the hitting law."""
    return [mark_vertices(build_mated(oracles.sample_excursion(1.8, 48, seed=s)),
                          seed=s).map
            for s in (1, 2, 4)]


@pytest.fixture(scope="session")
def refinement_cases(random_maps, lattice8, rung_map, mated_crt64,
                     parallel3_map):
    """(map, embedding or None) pairs for the refinement oracles: generic
    and lattice maps with embeddings, the lattice with every other edge
    flipped (so edges leave v1 and enter v0), maps without, and
    parallel3_map with the one embedding it has, no finite coordinates, so
    that its edges join the two poles, with and without an edge flipped."""
    poles_only = CylinderEmbedding(np.full(2, np.nan), np.full(2, np.nan),
                                   np.zeros(3))
    m, emb = lattice8
    flip = np.arange(m.num_edges) % 2
    flipped = (oracles.relabel_edges(m, np.arange(m.num_edges), flip)[0],
               CylinderEmbedding(emb.theta, emb.height, np.where(flip, -emb.dtheta, emb.dtheta)))
    par3 = oracles.relabel_edges(parallel3_map, np.arange(3), np.array([0, 1, 0]))[0]
    return random_maps[:6] + [lattice8, flipped, (rung_map, None), (mated_crt64, None),
                              (parallel3_map, None), (parallel3_map, poles_only),
                              (par3, poles_only)]


@pytest.fixture(scope="session")
def random_maps():
    """Twenty generic weighted maps with embeddings, assorted sizes."""
    return [random_map(seed) for seed in range(20)]


@pytest.fixture(scope="session")
def small_random_maps():
    """Five maps small enough for the dense exact-law recursions."""
    out = [oracles.small_random_map(seed) for seed in range(5)]
    assert all(m.num_vertices <= 50 for m, _ in out)
    return out
