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

from .map_core import (CombMap, CylinderEmbedding, check_embedding, dual,
                       wrap_angle, wrap_signed, build_map as assemble_map, TWO_PI)
from .electrical import solve_voltage, conjugate
from .smith_tiling import SmithEmbedding, build_diagram, smith_embedding
from .rng import make_rng

from .walk_lab import walk


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
    v0, v1 = n * M, n * M + 1

    def vid(r, j):
        return r * n + (j % n)

    edges = []
    dtheta = []
    for r in range(M):
        for j in range(n):
            edges.append((vid(r, j), vid(r, j + 1), 1.0))
            dtheta.append(s)
    eh = len(edges)
    for r in range(M - 1):
        for j in range(n):
            edges.append((vid(r, j), vid(r + 1, j), 1.0))
            dtheta.append(0.0)
    eb = len(edges)
    for j in range(n):
        edges.append((v0, vid(0, j), 1.0))
        dtheta.append(0.0)
    et = len(edges)
    for j in range(n):
        edges.append((vid(M - 1, j), v1, 1.0))
        dtheta.append(0.0)

    rotation = []
    for r in range(M):
        for j in range(n):
            east = 2 * (r * n + j)
            west = 2 * (r * n + (j - 1) % n) + 1
            north = 2 * (eh + r * n + j) if r < M - 1 else 2 * (et + j)
            south = 2 * (eh + (r - 1) * n + j) + 1 if r > 0 else 2 * (eb + j) + 1
            rotation.append([east, north, west, south])
    # apex rotations: CCW seen from outside the sphere reverses theta at the
    # bottom pole
    rotation.append([2 * (eb + j) for j in range(n - 1, -1, -1)])
    rotation.append([2 * (et + j) + 1 for j in range(n)])

    m = assemble_map(V, edges, rotation, marked=(v0, v1))
    theta = np.empty(V)
    height = np.empty(V)
    for r in range(M):
        for j in range(n):
            theta[vid(r, j)] = TWO_PI * j / n
            height[vid(r, j)] = (r - (M - 1) / 2.0) * s
    theta[v0] = theta[v1] = math.nan
    height[v0] = height[v1] = math.nan
    emb = CylinderEmbedding(theta, height, np.array(dtheta))
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


def cylinder_distance(p, q, period: float = TWO_PI) -> float:
    dx = wrap_signed(p[0] - q[0], period)
    return math.hypot(dx, p[1] - q[1])


def fit_affine(se: SmithEmbedding, emb: CylinderEmbedding,
               band: float = 1.0) -> AffineFit:
    """Fit the cylinder affine map T taking the Smith embedding to the a
    priori embedding over the band |height| <= band.

    Re(Tz) = (2*pi/eta) Re(z) + b_w with b_w a circular mean; Im(Tz) =
    c_h Im(z) + b_h by least squares.  Any valid choice of constants
    upper-bounds the optimal sup-error, so the fit is a certificate."""
    m = se.diagram.map
    eta = se.eta
    K = [x for x in range(m.num_vertices)
         if not m.is_marked(x) and np.isfinite(emb.height[x])
         and abs(emb.height[x]) <= band]
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
    b_w = wrap_angle(b_w)

    herr = np.abs(c_h * s_im + b_h - emb.height[K])
    aerr = np.array([abs(wrap_signed((TWO_PI / eta) * s_re[i] + b_w - emb.theta[K[i]]))
                     for i in range(len(K))])
    sup = float(np.max(np.hypot(aerr, herr)))
    return AffineFit(c_h, b_h, b_w, eta, band, len(K), sup,
                     float(herr.max()), float(aerr.max()))


def dcmp(curve1, curve2, period: float | None = None) -> float:
    """Discrete Frechet distance between polylines (dynamic program).

    With a period, the first coordinate is compared on the circle of that
    circumference.  Symmetric; zero iff the curves agree as point sequences up
    to repetitions."""
    P = np.atleast_2d(np.asarray(curve1, dtype=np.float64))
    Q = np.atleast_2d(np.asarray(curve2, dtype=np.float64))
    if P.shape[0] == 1 and P.shape[1] > 2 and Q.shape[0] == 1:
        P, Q = P.T, Q.T
    p, q = len(P), len(Q)
    if p == 0 or q == 0:
        raise ValueError("curves must be nonempty")
    diff = P[:, None, :] - Q[None, :, :]
    if period is not None:
        diff[..., 0] = np.mod(diff[..., 0] + period / 2.0, period) - period / 2.0
    d = np.sqrt((diff ** 2).sum(axis=2))
    ca = np.empty((p, q))
    ca[0, 0] = d[0, 0]
    for i in range(1, p):
        ca[i, 0] = max(ca[i - 1, 0], d[i, 0])
    for j in range(1, q):
        ca[0, j] = max(ca[0, j - 1], d[0, j])
    for i in range(1, p):
        for j in range(1, q):
            ca[i, j] = max(d[i, j], min(ca[i - 1, j], ca[i, j - 1], ca[i - 1, j - 1]))
    return float(ca[-1, -1])


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
                          walks_per_start: int, seed: int,
                          tol: float = 1e-9,
                          max_steps: int = 10_000_000) -> InvarianceReport:
    """Gambler's-ruin check: empirical top-exit frequencies from each start
    against the exact linear law (height is a walk martingale on lattice
    rows), at three sigma.

    Works for the primal lattice with vertex heights and for the dual with
    face representative heights (the dual of the lattice is the shifted
    lattice)."""
    height = np.asarray(height, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        lo = {x for x in range(m.num_vertices) if height[x] <= h_lo + tol}
        hi = {x for x in range(m.num_vertices) if height[x] >= h_hi - tol}
    if not lo or not hi or lo & hi:
        raise ValueError("stop levels must bound a nonempty open band")
    if walks_per_start < 1:
        raise ValueError("walks_per_start must be positive")
    stop = lo | hi
    rng = make_rng(seed)
    starts = np.asarray(list(starts), dtype=np.int64)
    p_exact = np.empty(len(starts))
    p_hat = np.empty(len(starts))
    z = np.empty(len(starts))
    for i, s in enumerate(starts):
        s = int(s)
        p = (height[s] - h_lo) / (h_hi - h_lo)
        p = min(1.0, max(0.0, p))
        hits = 0
        for _ in range(walks_per_start):
            darts = walk(m, rng, s, stop, max_steps)
            end = int(m.dart_head[darts[-1]]) if darts else s
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
    v = solve_voltage(m)
    dm = dual(m, emb)
    c = conjugate(dm, v)
    d = build_diagram(m, dm, v, c)
    se = smith_embedding(d)
    fit = fit_affine(se, emb, band)
    return {
        "n": n,
        "eta": v.eta,
        "c_h": fit.c_h,
        "b_h": fit.b_h,
        "b_w": fit.b_w,
        "sup_err_height": fit.sup_err_height,
        "sup_err_angle": fit.sup_err_angle,
    }


def converge_rows(n_list, band: float = 1.0, H: float = 4.0) -> list:
    """Run the lattice pipeline for each distinct n in turn; rows sorted by n."""
    return [lattice_report(n, band, H) for n in sorted(set(int(n) for n in n_list))]

