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

The reduced Laplacian of n unknowns is solved by one rule.  Where n is at
least ``LU_LIMIT`` and the interior graph is bipartite and connected, as on
a lattice of even circumference, it gets conjugate-gradient on half the
unknowns (red-black reduction; Saad, "Iterative Methods for Sparse Linear
Systems", 2003): the block of the Jacobi-scaled system on one colour class
is the identity, so that class is eliminated exactly, and CG on the Schur
complement left on the other class takes at most 1.25 sqrt(n) iterations
on the lattices below, about half those of Jacobi-CG on all n unknowns.
The two classes are the parities of the BFS depth from one unknown,
checked against every entry of A, so the reduction is taken exactly where
it is exact.  Every other map gets a sparse LU: below ``LU_LIMIT``, where
it costs about what CG does (the n = 744 lattice row below); an odd cycle,
as on an odd circumference, a mated-CRT map or a Delaunay-like map; and an
interior that the marks cut apart.  With a symmetric minimum-degree
ordering, on planar maps the LU fills about 9 entries per unknown (nested
dissection; Lipton, Rose and Tarjan, 1979).  Its bits do not depend on the
BLAS thread count, while the CG's do: scipy's ``cg`` takes its dot
products through BLAS, whose threaded sums add in another order
(``make_lattice(128, 4.0)`` solved under 1 and 2 OpenBLAS threads differs
in 20 224 of 20 866 voltages, by at most 4.8e-15).  So every map but a
large bipartite one repeats byte for byte under any thread count.  That
costs time on odd lattices, which plain Jacobi-CG on all n unknowns
solved in 12-34% less time than the LU does (last rows below).

Measured on a 2-core x86 VM under one OpenBLAS thread, in ms per linear
solve of the n unknowns (the ``splu`` factor and solve; all of the Schur
CG, colouring, scaling, elimination and the ``cg`` call; or the plain
Jacobi-CG that the rule no longer runs), min to median of 7 runs (3 at
n > 50 000), with the CG iterations in brackets; the colouring alone costs
0.09 ms at n = 1022 and 1.8 ms at n = 16 382:

    maps                                 n       LU          Schur CG         plain CG
    gamma=1.8 mated-CRT, n=1024, seed 1  1022    1.3-1.4     -                5.8-6.4 (261)
    gamma=1.8 mated-CRT, n=4096, seed 1  4094    5.2-5.7     -                35-38 (590)
    gamma=1.8 mated-CRT, n=16384, seed 1 16382   27-28       -                315-344 (1123)
    make_lattice(24, 4.0)                744     1.4-1.5     1.3-1.6 (29)     1.2-1.4 (44)
    make_lattice(64, 1.0)                1344    2.1         0.87-0.91 (21)   0.70-0.72 (28)
    make_lattice(64, 4.0)                5312    13-14       4.3-5.4 (69)     7.6-7.8 (126)
    make_lattice(64, 8.0)                10432   23-30       9.7-11 (128)     18-22 (245)
    make_lattice(128, 4.0)               20864   83-95       21-24 (128)      46-49 (245)
    make_lattice(256, 4.0)               83712   660         162-180 (248)    390-399 (483)
    make_lattice(33, 4.0)                1419    2.3         -                1.5 (64)
    make_lattice(65, 4.0)                5395    9.4-13      -                8.1-8.4 (126)
    make_lattice(129, 4.0)               21285   61-69       -                44-48 (248)
    make_lattice(255, 4.0)               82875   391-410     -                345-367 (480)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import breadth_first_order

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
    """Solve the Dirichlet problem on the reduced SPD system of n unknowns
    by one rule: where n is at least LU_LIMIT and ``_red_black``
    two-colours the interior, conjugate-gradient on the red-black Schur
    complement (``_jacobi_cg``) within 10 ceil(sqrt(n)) iterations, whose x
    must meet the residual gate on the whole system, or ``spsolve`` solves
    it instead; everywhere else a sparse LU.  The module docstring gives
    the measurements behind the rule.  The equipotential clusters are then
    snapped (``snap_clusters``); the residual must stay within ``tol`` both
    before and after."""
    if m.v0 is None or m.v1 is None:
        raise MapError("voltage needs both marked vertices")
    V = m.num_vertices
    interior, A, b, diag = dirichlet_system(m)
    n = len(interior)
    h = np.zeros(V)
    h[m.v1] = 1.0
    if n > 0:
        red = None if n < LU_LIMIT else _red_black(A)
        if red is None:
            # A is a symmetric, diagonally dominant M-matrix: no pivoting.
            # It is in canonical CSR form, so A.T is its CSC form on the
            # same arrays, with no copy
            lu = spla.splu(A.T, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                           options=dict(SymmetricMode=True))
            x = lu.solve(b)
        else:
            x, info = _jacobi_cg(A, b, diag, red)
            if info != 0 or np.max(np.abs(A @ x - b)) > 1e-11 * max(1.0, np.max(diag)):
                x = spla.spsolve(A.T, b)
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


def _red_black(A):
    """The odd class of the BFS depth parity from unknown 0 on the graph of
    the CSR matrix A; None unless the BFS reaches all n unknowns and every
    off-diagonal entry joins the two classes, that is, unless the graph is
    connected and bipartite."""
    n = A.shape[0]
    order, up = breadth_first_order(A, 0, return_predecessors=True)
    if len(order) < n:
        return None
    up = up.astype(np.intp)
    up[0] = 0
    # pointer jumping: odd[v] is the parity of the depth from up[v] to v,
    # and each round doubles that span until every up[v] is the root
    odd = np.arange(n) != 0
    while up.any():
        odd ^= odd[up]
        up = up[up]
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    if not np.array_equal(odd[rows] != odd[A.indices], rows != A.indices):
        return None
    return odd


def _jacobi_cg(A, b: np.ndarray, diag: np.ndarray, red: np.ndarray) -> tuple:
    """(x, info) of one ``spla.cg`` call within 10 ceil(sqrt(n)) iterations,
    n = len(b), on the red-black Schur complement of the Jacobi-scaled
    system S A S y = S b, S = diag^(-1/2), x = S y, where the mask ``red``
    is one class of ``_red_black``'s two-colouring.

    S A S has a unit diagonal, and no off-diagonal entry of A lies inside
    the class R = red or the class K = ~red, so S A S is [[I, B], [B^T, I]]
    with B = S_R A_RK S_K.  Eliminating y_R = c_R - B y_K, c = S b, leaves
    the Schur complement (I - B^T B) y_K = c_K - B^T c_R, and the CG runs
    on that.  With sigma the largest singular value of B, the condition
    number of S A S is (1 + sigma) / (1 - sigma) and that of the Schur
    complement at most 1 / (1 - sigma^2), that over (1 + sigma)^2, about a
    quarter of it as sigma nears 1, so CG needs about half the iterations
    of Jacobi-CG on all n unknowns."""
    n = len(b)
    s = 1.0 / np.sqrt(diag)
    budget = 10 * math.ceil(math.sqrt(n))
    # A's entries scaled in place: the bits of S @ A @ S with diagonal S
    SAS = sp.csr_matrix((A.data * np.repeat(s, np.diff(A.indptr)) * s[A.indices],
                         A.indices, A.indptr), shape=A.shape)
    c = s * b
    B = SAS[red][:, ~red]
    BT = B.T
    cR, cK = c[red], c[~red]
    k = len(cK)
    schur = spla.LinearOperator((k, k), matvec=lambda z: z - BT @ (B @ z), dtype=float)
    yK, info = spla.cg(schur, cK - BT @ cR, rtol=1e-13, atol=0.0, maxiter=budget)
    y = np.empty(n)
    y[~red] = yK
    y[red] = cR - B @ yK
    return s * y, info


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

