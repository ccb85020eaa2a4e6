"""Lattice families, affine certificates, and walk-invariance diagnostics."""

import math

import numpy as np
import pytest

from smithtile import (SmithEmbedding, converge_rows, dual, fit_affine,
                       invariance_diagnostic, lattice_report, make_lattice,
                       smith_embedding, solve_voltage, tile)
from smithtile.convergence import lattice_shape

import oracles

TWO_PI = 2.0 * math.pi


# -- lattice construction ------------------------------------------------------

def test_lattice_shape_counts():
    M, s = lattice_shape(4, math.pi)
    assert (M, s) == (5, pytest.approx(math.pi / 2))
    m, emb = make_lattice(4, math.pi)
    assert (m.num_vertices, m.num_edges) == (22, 44)
    assert m.num_faces == 24


def test_lattice_arguments_validated():
    with pytest.raises(ValueError, match="three columns"):
        make_lattice(2, 1.0)
    with pytest.raises(ValueError, match="positive"):
        make_lattice(8, 0.0)


def test_lattice_degrees(lattice8):
    m, _ = lattice8
    for x in range(m.num_vertices - 2):
        assert m.degree(x) == 4
    assert m.degree(m.v0) == 8
    assert m.degree(m.v1) == 8


def test_lattice_embedding_geometry(lattice8):
    m, emb = lattice8
    n = 8
    M = (m.num_vertices - 2) // n
    s = TWO_PI / n
    for r in range(M):
        for j in range(n):
            x = r * n + j
            assert emb.theta[x] == pytest.approx(s * j)
            assert emb.height[x] == pytest.approx((r - (M - 1) / 2.0) * s)
    assert np.isnan(emb.theta[m.v0]) and np.isnan(emb.height[m.v1])
    # horizontal edges carry one column spacing, all others zero
    assert np.allclose(emb.dtheta[:n * M], s)
    assert np.allclose(emb.dtheta[n * M:], 0.0)


# -- affine fit ------------------------------------------------------------------

def test_fit_affine_exact_on_synthetic_points(lattice8_solved):
    # feed points that are exactly an affine image of the a priori embedding
    m, emb, v = lattice8_solved
    d = tile(v, emb)
    se = smith_embedding(d)
    eta = d.eta
    pts = se.points.copy()
    for x in range(m.num_vertices):
        if m.is_marked(x):
            continue
        pts[x, 0] = (eta / TWO_PI) * emb.theta[x] % eta
        pts[x, 1] = 0.25 * emb.height[x] + 0.5
    fit = fit_affine(SmithEmbedding(d, pts), emb, band=1.5)
    assert fit.c_h == pytest.approx(4.0, abs=1e-9)
    assert fit.b_h == pytest.approx(-2.0, abs=1e-9)
    assert fit.b_w == pytest.approx(0.0, abs=1e-9)
    assert fit.sup_err < 1e-9


def test_fit_affine_lattice_is_exact(lattice8_solved):
    m, emb, v = lattice8_solved
    d = tile(v, emb)
    se = smith_embedding(d)
    fit = fit_affine(se, emb, band=1.5)
    n = 8
    M = (m.num_vertices - 2) // n
    # voltage rows are linear in embedded height with slope (M+1) s / 1
    assert fit.c_h == pytest.approx(TWO_PI / v.eta, rel=1e-9)
    assert fit.sup_err_height < 1e-9
    assert fit.sup_err_angle < 1e-8
    assert fit.sup_err == pytest.approx(
        math.hypot(fit.sup_err_angle, fit.sup_err_height), abs=1e-9)
    assert fit.count == sum(1 for x in range(n * M)
                            if abs(emb.height[x]) <= 1.5)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_fit_affine_and_points_match_loop_oracle(n):
    m, emb = make_lattice(n, 4.0)
    se = smith_embedding(tile(solve_voltage(m), emb))
    assert np.array_equal(se.points, oracles.smith_embedding(se.diagram))
    for band in (1.0, 2.5, 4.0):
        assert fit_affine(se, emb, band) == oracles.fit_affine(se, emb, band)


def test_fit_affine_band_errors(lattice8_solved):
    m, emb, v = lattice8_solved
    d = tile(v, emb)
    se = smith_embedding(d)
    # only the central row fits in a sliver band: one Smith height
    with pytest.raises(ValueError, match="single Smith height"):
        fit_affine(se, emb, band=1e-6)
    from smithtile import CylinderEmbedding
    shifted = CylinderEmbedding(emb.theta, emb.height + 50.0, emb.dtheta)
    with pytest.raises(ValueError, match="fewer than two"):
        fit_affine(se, shifted, band=1.0)


# -- invariance diagnostic ------------------------------------------------------

def test_invariance_primal(lattice8):
    m, emb = lattice8
    n = 8
    M = (m.num_vertices - 2) // n
    s = TWO_PI / n
    starts = [3 * n + j for j in range(n)]          # central row, height 0
    rep = invariance_diagnostic(m, emb.height, starts, -s, s,
                                walks_per_start=400, seed=5)
    assert rep.passed
    assert np.allclose(rep.p_exact, 0.5)
    assert rep.walks_per_start == 400
    assert np.all(np.abs(rep.z) <= 3.0)


def test_invariance_asymmetric_start(lattice8):
    m, emb = lattice8
    n, s = 8, TWO_PI / 8
    starts = [4 * n]                                # one row above centre
    rep = invariance_diagnostic(m, emb.height, starts, -2 * s, 2 * s,
                                walks_per_start=600, seed=6)
    assert rep.p_exact[0] == pytest.approx(0.75)
    assert rep.passed


def test_invariance_requires_open_band(lattice8):
    m, emb = lattice8
    with pytest.raises(ValueError, match="open band"):
        invariance_diagnostic(m, emb.height, [0], 1.0, -1.0,
                              walks_per_start=10, seed=0)


def test_invariance_requires_walks(lattice8):
    m, emb = lattice8
    with pytest.raises(ValueError, match="walks_per_start"):
        invariance_diagnostic(m, emb.height, [0], -1.0, 1.0,
                              walks_per_start=0, seed=0)


def test_invariance_requires_one_height_per_vertex(lattice8):
    m, emb = lattice8
    for height in (emb.height[:-1], np.append(emb.height, 0.0)):
        with pytest.raises(ValueError, match="one value per vertex"):
            invariance_diagnostic(m, height, [0], -1.0, 1.0,
                                  walks_per_start=10, seed=0)


def test_invariance_dual(lattice8):
    # dual faces sit on rows shifted by half a spacing
    m, emb = lattice8
    dmap = dual(m, emb)
    dm, rep_height = dmap.map, dmap.rep_height
    s = TWO_PI / 8
    finite = np.isfinite(rep_height)
    starts = [f for f in range(dm.num_vertices)
              if finite[f] and abs(rep_height[f] - s / 2) < s / 4]
    assert len(starts) == 8
    rep = invariance_diagnostic(dm, rep_height, starts, -1.5 * s, 1.5 * s,
                                walks_per_start=300, seed=7)
    assert rep.passed


# -- per-n pipeline ------------------------------------------------------------

def test_lattice_report_values():
    row = lattice_report(8, band=1.0, H=2.0)
    assert set(row) == {"n", "eta", "c_h", "b_h", "b_w",
                        "sup_err_height", "sup_err_angle"}
    assert row["n"] == 8
    assert row["eta"] == pytest.approx(1.0, abs=1e-10)       # 8 / (7 + 1)
    assert row["c_h"] == pytest.approx(TWO_PI, rel=1e-9)
    assert row["sup_err_height"] < 1e-9
    assert row["sup_err_angle"] < 1e-8


def test_converge_rows_sequence():
    rows = converge_rows([16, 8], band=1.0, H=2.0)
    assert [r["n"] for r in rows] == [8, 16]
    for r in rows:
        assert r["sup_err_height"] < 1e-9
    # the family is exact at every n, so the certificate errors stay at
    # rounding scale rather than degrading with size
    assert rows[1]["sup_err_angle"] <= max(rows[0]["sup_err_angle"], 1e-9)

