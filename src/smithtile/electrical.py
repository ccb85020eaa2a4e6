"""Voltages, flows and the discrete harmonic conjugate on cylinder maps.

The voltage is the unique function with value 0 at the bottom marked vertex,
1 at the top one, and the conductance-weighted mean property everywhere else;
probabilistically it is the chance the random walk reaches the top mark
before the bottom one.  Its gradient is a divergence-free flow whose total
strength eta becomes the circumference of the tiled cylinder.  The conjugate
integrates that flow across edges, giving a function on dual vertices that is
well defined modulo eta.

An edge with no current joins its ends at one potential, so the vertices
joined by such edges share one level of the tiling (Brooks, Smith, Stone and
Tutte, 1940), and the edges become degenerate rectangles.  The solve leaves
those equal voltages apart in their last bits, which would split one level
into many.  ``solve_voltage`` therefore snaps each equipotential cluster,
found through the edges whose flow is below the flow floor, to one voltage,
and checks the harmonic residual again on the snapped values.

The reduced Laplacian is solved one of two ways, by a sparse LU or by
Jacobi-CG.  Below ``LU_LIMIT`` unknowns it gets the LU, whose bits do not
depend on the BLAS thread count, while the CG path's do: scipy's ``cg``
takes its dot products through BLAS, whose threaded sums add in another
order (``make_lattice(128, 4.0)`` solved under 1 and 2 OpenBLAS threads
differs in 20 480 of 20 866 voltages, by at most 1.1e-15).  So the small
maps repeat byte for byte under any thread count, and at that size the
LU costs about what CG does (the n = 744 lattice row below).
Above, the choice reads S = deg(v0) + deg(v1), the number of darts at the
two marks, against the n unknowns.  Point marks (S^2 < 2n), as on mated-CRT
maps with the sphere topology, get the LU too: with a symmetric
minimum-degree ordering, on planar maps it fills about 9 entries per
unknown (nested dissection; Lipton, Rose and Tarjan, 1979), where
Jacobi-CG needs 6-10 sqrt(n) iterations.  Pole marks, the
whole end rows of a cylinder, keep Jacobi-CG, which converges in at most
about 2.2 sqrt(n) iterations there and beats the LU, whose fill is larger.
It runs as plain CG on the symmetrically scaled system S A S y = S b,
S = diag^(-1/2), x = S y (split preconditioning; Saad, "Iterative Methods
for Sparse Linear Systems", 2003, 9.2): the iterations are those of CG
with M = diag^-1, without a call of the preconditioner in each.
Measured on a 2-core x86 VM, in ms per linear solve of the n unknowns
(the ``splu`` factor and solve, or the scaled ``cg`` call), min to
median of 7 runs (3 at n=256; 3 for seeds 2 and 3):

    maps                                 n       S^2/n    with LU     with CG
    gamma=1.8 mated-CRT, n=1024, seed 1  1022    0.19     2.0-2.1     9.8-10.1
    gamma=1.8 mated-CRT, n=4096, seed 1  4094    0.03     7.4-7.7     50-52
    gamma=1.8 mated-CRT, n=16384, seed 1 16382   0.01     28-39       445-503
    gamma=1.8 mated-CRT, seeds 1-3       <= 0.19          LU faster
    make_lattice(24, 4.0)                744     3.10     2.1         2.1-2.2
    make_lattice(64, 4.0)                5312    3.08     17          11
    make_lattice(128, 4.0)               20864   3.14     109-113     61-73
    make_lattice(256, 4.0)               83712   3.13     741-742     545-550
    make_lattice(64, 8.0)                10432   1.57     26-30       36-43
    make_lattice(64, 1.0)                1344    12.2     3.6-3.8     1.1-1.4
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .map_core import (INDEX, CombMap, DualMap, MapError, bfs_tree, components,
                       marked_cut_path, mod_array)

LU_LIMIT = 500
# flows of at most FLOW_FLOOR * max(1, max |flow|) count as no current: the
# floor separates rounding-size flows from genuine weak currents
FLOW_FLOOR = 1e-12


class SolveError(RuntimeError):
    """Linear solve failed to reach the required residual."""


@dataclass
class Voltage:
    map: CombMap
    values: np.ndarray          # per vertex, 0 at v0, 1 at v1
    residual: float             # max harmonic defect / pi_weight over interior
    eta: float                  # flow strength (out of v0 == into v1)
    eta_mismatch: float

    @cached_property
    def flows(self) -> np.ndarray:
        """Signed flow c_e * (h(head) - h(tail)) along every dart, in dart
        order: read-only, taken once for eta, the conjugate and the diagram."""
        m = self.map
        f = np.repeat(m.conductance, 2) * (self.values[m.dart_head] - self.values[m.dart_tail])
        f.flags.writeable = False
        return f


def dirichlet_system(m: CombMap) -> tuple:
    """(interior, A, b, diag): the reduced Laplacian on the unmarked
    vertices, in CSR form, with the right-hand side from v1's unit voltage.

    The COO entries list each edge but a self-loop in id order, seen from its
    tail and then from its head, then the diagonal; diag and b add in that
    same sequence."""
    interior = np.flatnonzero(~m.marked)
    n = len(interior)
    idx = np.full(m.num_vertices, -1, dtype=INDEX)
    idx[interior] = np.arange(n, dtype=INDEX)
    d = np.flatnonzero(m.dart_tail != m.dart_head)     # both darts of each edge
    a, bb, c = m.dart_tail[d], m.dart_head[d], m.conductance[d >> 1]
    at = idx[a] >= 0
    pair = at & (idx[bb] >= 0)
    top = at & (bb == m.v1)
    # bincount adds in sequence order, as a loop over the sequence would
    diag = np.bincount(idx[a[at]], weights=c[at], minlength=n)
    b = np.bincount(idx[a[top]], weights=c[top], minlength=n)
    A = sp.csr_matrix((np.concatenate([-c[pair], diag]),
                       (np.concatenate([idx[a[pair]], np.arange(n)]),
                        np.concatenate([idx[bb[pair]], np.arange(n)]))), shape=(n, n))
    return interior, A, b, diag


def solve_voltage(m: CombMap, tol: float = 1e-10) -> Voltage:
    """Solve the Dirichlet problem on the reduced SPD system of n unknowns:
    a sparse LU below LU_LIMIT, and above it when the marks are points,
    S^2 < 2n with S = deg(v0) + deg(v1); otherwise conjugate-gradient on
    the Jacobi-scaled system, within 10 ceil(sqrt(n)) iterations, falling
    back to ``spsolve`` if it stalls.  The module docstring gives the
    measurements behind the rule.  The equipotential clusters are then
    snapped (``snap_clusters``); the residual must stay within ``tol``
    both before and after."""
    if m.v0 is None or m.v1 is None:
        raise MapError("voltage needs both marked vertices")
    V = m.num_vertices
    interior, A, b, diag = dirichlet_system(m)
    n = len(interior)
    h = np.zeros(V)
    h[m.v1] = 1.0
    if n > 0:
        if n < LU_LIMIT or (m.degree(m.v0) + m.degree(m.v1)) ** 2 < 2 * n:
            # A is a symmetric, diagonally dominant M-matrix: no pivoting
            lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                           options=dict(SymmetricMode=True))
            x = lu.solve(b)
        else:
            # Jacobi-CG as plain CG on S A S, S = diag^(-1/2), with x = S y
            s = 1.0 / np.sqrt(diag)
            S = sp.diags(s)
            y, info = spla.cg(S @ A @ S, s * b, rtol=1e-13, atol=0.0,
                              maxiter=10 * math.ceil(math.sqrt(n)))
            x = s * y
            if info != 0 or np.max(np.abs(A @ x - b)) > 1e-11 * max(1.0, np.max(diag)):
                x = spla.spsolve(A.tocsc(), b)
        res = np.max(np.abs(A @ x - b) / diag)
        if not res <= tol:
            raise SolveError(f"harmonic residual {res} exceeds {tol}")
        h[interior] = np.clip(x, 0.0, 1.0)
        h = snap_clusters(m, h)
        res = np.max(np.abs(A @ h[interior] - b) / diag)
        if not res <= tol:
            raise SolveError(f"harmonic residual {res} after snapping exceeds {tol}")
    else:
        res = 0.0

    volt = Voltage(m, h, float(res), 0.0, 0.0)
    ptr = m.vert_ptr
    eta0 = float(np.sum(volt.flows[m.vert_dart[ptr[m.v0]:ptr[m.v0 + 1]]]))
    eta1 = float(-np.sum(volt.flows[m.vert_dart[ptr[m.v1]:ptr[m.v1 + 1]]]))
    mism = abs(eta0 - eta1)
    if mism > 1e-10 * max(1.0, abs(eta0)):
        raise SolveError(f"flow strength mismatch {mism}")
    if eta0 <= 0:
        raise SolveError("flow strength must be positive")
    volt.eta = eta0
    volt.eta_mismatch = mism
    return volt


def flow_floor(flows) -> float:
    """The largest |flow| that counts as no current among ``flows``."""
    return FLOW_FLOOR * max(1.0, float(np.abs(flows).max(initial=0.0)))


def snap_clusters(m: CombMap, h: np.ndarray) -> np.ndarray:
    """Voltages with each equipotential cluster at one value.

    Edges whose flow is below the flow floor join the clusters; each cluster
    takes the mean of its voltages, exactly 0 or 1 if it holds v0 or v1.
    The mean is taken as offsets from the cluster's smallest vertex, so a
    cluster whose voltages already agree keeps them bit for bit."""
    flows = m.conductance * (h[m.edge_head] - h[m.edge_tail])
    dead = np.abs(flows) <= flow_floor(flows)
    root = components(m.num_vertices, m.edge_tail[dead], m.edge_head[dead])
    if root[m.v0] == root[m.v1]:
        raise SolveError("the marked vertices share one equipotential cluster")
    size = np.bincount(root, minlength=m.num_vertices)
    off = np.bincount(root, weights=h - h[root], minlength=m.num_vertices)
    out = (h + off / np.maximum(size, 1))[root]
    out[root == root[m.v0]] = 0.0
    out[root == root[m.v1]] = 1.0
    return out


def harmonic_darts(v: Voltage) -> np.ndarray:
    """The dart of each edge oriented from lower to higher voltage; zero-gradient
    edges (and self-loops) take the orientation with the lexicographically
    smaller (tail, head) pair."""
    m = v.map
    t, h = v.values[m.edge_tail], v.values[m.edge_head]
    odd = (h < t) | ((h == t) & (m.edge_tail > m.edge_head))
    return 2 * np.arange(m.num_edges, dtype=np.int64) + odd


@dataclass
class Conjugate:
    dual: DualMap
    voltage: Voltage
    w_lift: np.ndarray          # real lift per dual vertex, w = w_lift mod eta
    max_defect: float           # worst |defect - eta * winding| over non-tree duals
    tree_dart: np.ndarray       # dual dart used to reach each face (-1 at base)
    w_err: np.ndarray           # rounding bound on w_lift per dual vertex

    def w(self, f):
        """w at dual vertices f, reduced to [0, eta) as the diagram reduces it."""
        return mod_array(self.w_lift[f], self.voltage.eta)


def conjugate(dmap: DualMap, v: Voltage, tol: float = 1e-9) -> Conjugate:
    """Integrate the flow over a BFS spanning tree of the dual.

    Every non-tree dual edge closes a cycle whose integration defect must be
    eta times the cycle's winding around the cylinder.  The winding is the
    cut's, read combinatorially: the BFS tree also carries a crossing
    potential, the signed number of crossings of the primal cut path from v0
    to v1 on each face's tree path, so the fundamental cycle through dart h
    winds cross[tail(h)] + sign(h) - cross[head(h)] times.  A defect farther
    than the rounding allowance, or than eta/2, from eta times that winding
    means the flow is not conserved.  All non-tree edges are checked at
    once; the first failing edge raises.  Both marks are needed, as for the
    voltage.

    The tree is ``map_core.bfs_tree`` from ``dmap.base``, where w_lift is 0;
    the dual picks that face by its a priori embedding, if any.  The sums
    along the tree run one front at a time, each face adding its tree dart's
    term to its parent's value, which are the same float additions a
    face-by-face walk down the tree would do.
    """
    m = dmap.primal
    dm = dmap.map
    F = dm.num_vertices
    eta = v.eta

    cut = marked_cut_path(m)
    sgn = np.zeros(dm.num_darts, dtype=np.int8)
    sgn[cut] = -1       # dual dart h crosses the upward path right-to-left
    sgn[cut ^ 1] = 1
    # discrete Cauchy-Riemann with the orientation-preserving sign: w grows
    # in the crossing direction that keeps the flow on the left, so on a
    # lattice w increases with the a priori angle
    inc = -v.flows
    # one increment carries cancellation noise ~ eps * conductance * |v|: on
    # an input map with large conductances that noise grows far above any
    # fixed tolerance while staying far below genuine defects
    vs = float(max(1.0, np.abs(v.values).max()))
    errinc = np.finfo(np.float64).eps * vs * np.repeat(m.conductance, 2)

    tree_dart, fronts = bfs_tree(dm, dmap.base)
    if sum(map(len, fronts)) < F:
        raise MapError("dual graph is not connected")
    w = np.zeros(F)
    werr = np.zeros(F)
    cross = np.zeros(F, dtype=np.int64)
    parent = dm.dart_tail[tree_dart].astype(np.intp)    # a loop index: see map_core
    for g in fronts[1:]:
        h = tree_dart[g]
        f = parent[g]
        w[g] = w[f] + inc[h]
        werr[g] = werr[f] + errinc[h]
        cross[g] = cross[f] + sgn[h]

    in_tree = np.zeros(m.num_edges, dtype=bool)
    in_tree[tree_dart[tree_dart >= 0] >> 1] = True
    hs = 2 * np.flatnonzero(~in_tree)
    tail, hd = dm.dart_tail[hs], dm.dart_head[hs]
    # integral of the increments around the fundamental cycle through each h
    defect = inc[hs] + w[tail] - w[hd]
    wind = cross[tail] + sgn[hs] - cross[hd]
    err = np.abs(defect - eta * wind)
    allow = tol * max(1.0, eta) + 8.0 * (errinc[hs] + werr[tail] + werr[hd])
    bad = err > np.minimum(allow, eta / 2)
    if bad.any():
        i = int(np.argmax(bad))
        raise MapError(f"dual edge {int(hs[i]) >> 1}: closure defect {defect[i]} "
                       f"!= eta * cycle winding {wind[i]}")
    max_defect = float(err.max(initial=0.0))
    return Conjugate(dmap, v, w, max_defect, tree_dart, werr)

