"""Cylinder-lattice families and desk-scale convergence diagnostics.

A lattice family has n columns at spacing 2*pi/n, rows spanning [-H, H] at the
same spacing, apex vertices attached to the whole boundary rows, and unit
conductances.  The affine-fit machinery compares the Smith embedding of such a
map against its a priori embedding: heights by least squares, angles by a
circular mean, sup-errors over a central band.  The invariance diagnostic
checks walk exit laws against the exact gambler's-ruin line, on the lattice
and on its dual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .map_core import (INDEX, CombMap, CylinderEmbedding, check_embedding, check_size,
                       mod_array, wrap_signed_array, TWO_PI)
from .electrical import solve_voltage
from .smith_tiling import SmithEmbedding, smith_embedding, tile
from .rng import make_rng

from .walk_lab import uniforms, vertex_ids, walk


def lattice_shape(n: int, H: float) -> tuple:
    """Row count and spacing: rows at multiples of 2*pi/n covering [-H, H]."""
    s = TWO_PI / n
    half = max(1, round(H / s))
    return 2 * half + 1, s


def make_lattice(n: int, H: float) -> tuple:
    """Cylinder lattice with apexes; deterministic ids.

    Grid vertex (row r, column j) has id r*n + j with r = 0 the bottom row;
    v0 = n*M, v1 = n*M + 1.  Edge ids: horizontals row by row, then verticals,
    then bottom apex edges, then top apex edges.
    """
    if n < 3:
        raise ValueError("need at least three columns")
    if H <= 0:
        raise ValueError("height bound must be positive")
    M, s = lattice_shape(n, H)
    V = n * M + 2
    check_size(2 * n * (2 * M + 1), V)
    v0, v1 = n * M, n * M + 1
    g = np.arange(n * M, dtype=INDEX)       # grid vertex ids
    r, j = np.divmod(g, n)
    col = np.arange(n, dtype=INDEX)
    top = (M - 1) * n + col
    eh = n * M                              # first vertical edge
    eb = eh + n * (M - 1)                   # first bottom apex edge
    et = eb + n                             # first top apex edge
    tail = np.concatenate([g, g[:-n], np.full(n, v0), top], dtype=INDEX)
    head = np.concatenate([r * n + (j + 1) % n, g[n:], col, np.full(n, v1)], dtype=INDEX)
    dtheta = np.concatenate([np.full(n * M, s), np.zeros(len(tail) - n * M)])

    # grid rotation: east, north, west, south
    east = 2 * g
    north = np.where(r < M - 1, 2 * (eh + g), 2 * (et + j))
    west = 2 * (r * n + (j - 1) % n) + 1
    south = np.where(r > 0, 2 * (eh + g - n) + 1, 2 * (eb + j) + 1)
    nxt = np.empty(2 * len(tail), dtype=INDEX)
    nxt[east], nxt[north], nxt[west], nxt[south] = north, west, south, east
    # apex rotations: CCW seen from outside the sphere reverses theta at the
    # bottom pole
    nxt[2 * (eb + col)] = 2 * (eb + (col - 1) % n)
    nxt[2 * (et + col) + 1] = 2 * (et + (col + 1) % n) + 1

    m = CombMap(V, tail, head, np.ones(len(tail)), nxt, v0=v0, v1=v1)
    theta = np.concatenate([TWO_PI * j / n, [math.nan, math.nan]])
    height = np.concatenate([(r - (M - 1) / 2.0) * s, [math.nan, math.nan]])
    emb = CylinderEmbedding(theta, height, dtheta)
    check_embedding(m, emb)
    return m, emb


# -- affine fit ----------------------------------------------------------------

@dataclass
class AffineFit:
    c_h: float
    b_h: float
    b_w: float
    eta: float
    band: float
    count: int
    sup_err: float
    sup_err_height: float
    sup_err_angle: float


def fit_affine(se: SmithEmbedding, emb: CylinderEmbedding,
               band: float = 1.0) -> AffineFit:
    """Fit the cylinder affine map T taking the Smith embedding to the a
    priori embedding over the band |height| <= band.

    Re(Tz) = (2*pi/eta) Re(z) + b_w with b_w a circular mean; Im(Tz) =
    c_h Im(z) + b_h by least squares.  Any valid choice of constants
    upper-bounds the optimal sup-error, so the fit is a certificate."""
    m = se.diagram.map
    eta = se.eta
    K = np.flatnonzero(~m.marked & (np.abs(emb.height) <= band))
    if len(K) < 2:
        raise ValueError("band contains fewer than two vertices")
    s_re = se.points[K, 0]
    s_im = se.points[K, 1]
    if np.ptp(s_im) <= 1e-15:
        raise ValueError("degenerate fit: single Smith height in the band")
    A = np.stack([s_im, np.ones(len(K))], axis=1)
    sol, *_ = np.linalg.lstsq(A, emb.height[K], rcond=None)
    c_h, b_h = float(sol[0]), float(sol[1])

    alpha = emb.theta[K] - (TWO_PI / eta) * s_re
    b_w = math.atan2(float(np.mean(np.sin(alpha))), float(np.mean(np.cos(alpha))))
    b_w = float(mod_array(b_w, TWO_PI))

    herr = np.abs(c_h * s_im + b_h - emb.height[K])
    aerr = np.abs(wrap_signed_array((TWO_PI / eta) * s_re + b_w - emb.theta[K]))
    sup = float(np.max(np.hypot(aerr, herr)))
    return AffineFit(c_h, b_h, b_w, eta, band, len(K), sup,
                     float(herr.max()), float(aerr.max()))


# -- invariance diagnostic -------------------------------------------------------

@dataclass
class InvarianceReport:
    starts: np.ndarray
    p_exact: np.ndarray
    p_hat: np.ndarray
    z: np.ndarray
    walks_per_start: int
    passed: bool


def invariance_diagnostic(m: CombMap, height, starts, h_lo: float, h_hi: float,
                          walks_per_start: int, seed: int) -> InvarianceReport:
    """Gambler's-ruin check: empirical top-exit frequencies from each start
    against the exact linear law (height is a walk martingale on lattice
    rows), at three sigma.  The walks stop at heights within 1e-9 of h_lo
    and above, or of h_hi and below.

    Works for the primal lattice with vertex heights and for the dual with
    face representative heights (the dual of the lattice is the shifted
    lattice).  All walks take their steps from one ``uniforms`` stream of the
    seed's generator, one value per step, in the order the walks run, each
    walk within ``walk_lab.MAX_STEPS`` steps.  Raises ValueError, before any
    walk, when a start is not an integer in [0, V)."""
    height = np.asarray(height, dtype=np.float64)
    if height.shape != (m.num_vertices,):
        raise ValueError("height must hold one value per vertex")
    tol = 1e-9
    with np.errstate(invalid="ignore"):
        lo = set(np.flatnonzero(height <= h_lo + tol).tolist())
        hi = set(np.flatnonzero(height >= h_hi - tol).tolist())
    if not lo or not hi or lo & hi:
        raise ValueError("stop levels must bound a nonempty open band")
    if walks_per_start < 1:
        raise ValueError("walks_per_start must be positive")
    stop = lo | hi
    heads = m.dart_head.tolist()
    u = uniforms(make_rng(seed))
    starts = np.asarray(vertex_ids(m, starts, "start"), dtype=np.int64)
    p_exact = np.empty(len(starts))
    p_hat = np.empty(len(starts))
    z = np.empty(len(starts))
    for i, s in enumerate(starts):
        s = int(s)
        p = (height[s] - h_lo) / (h_hi - h_lo)
        p = min(1.0, max(0.0, p))
        hits = 0
        for _ in range(walks_per_start):
            darts = walk(m, u, s, stop)
            end = heads[darts[-1]] if darts else s
            if end in hi:
                hits += 1
        p_exact[i] = p
        p_hat[i] = hits / walks_per_start
        sd = math.sqrt(p * (1.0 - p) / walks_per_start)
        z[i] = 0.0 if sd == 0.0 else (p_hat[i] - p) / sd
        if sd == 0.0 and p_hat[i] != p:
            z[i] = math.inf
    return InvarianceReport(starts, p_exact, p_hat, z, walks_per_start,
                            passed=bool(np.all(np.abs(z) <= 3.0)))


# -- per-n pipeline --------------------------------------------------------------

def lattice_report(n: int, band: float = 1.0, H: float = 4.0) -> dict:
    m, emb = make_lattice(n, H)
    d = tile(solve_voltage(m), emb)
    fit = fit_affine(smith_embedding(d), emb, band)
    return {
        "n": n,
        "eta": d.eta,
        "c_h": fit.c_h,
        "b_h": fit.b_h,
        "b_w": fit.b_w,
        "sup_err_height": fit.sup_err_height,
        "sup_err_angle": fit.sup_err_angle,
    }


def converge_rows(n_list, band: float = 1.0, H: float = 4.0) -> list:
    """Run the lattice pipeline for each distinct n in turn; rows sorted by n."""
    return [lattice_report(n, band, H) for n in sorted(set(int(n) for n in n_list))]

