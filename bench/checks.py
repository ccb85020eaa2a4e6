"""Checks of each benchmark operation against computations made here.

Every function returns a list of failure messages; an empty list means the
result holds.  The references are built from the raw edge arrays and closed
forms, not from the program's own solver or tiling code:

* lattice: eta = n/(M+1), row r at voltage (r+1)/(M+1), affine slope
  (M+1)*2*pi/n and a sup-error at rounding level;
* mated-CRT: a sparse direct Dirichlet solve, the energy identity
  sum c*(dh)^2 = eta = total rectangle area, Euler's formula from a face
  count made here, arcs against ``adjacency_oracle``, and bit-exact JSON;
* walks: the ``smith verify`` thresholds, and Monte Carlo exit frequencies
  against exact exit probabilities by a pooled chi-square test.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

TOL = 1e-9              # geometric tolerance of `smith tile` / `smith verify`
TOL_ALGEBRAIC = 1e-10   # algebraic tolerance of `smith verify`
# Nominal false-alarm rate of one pooled Monte Carlo test (chi-square tail).
MC_ALPHA = 1e-6


# -- shared references ----------------------------------------------------------

def dirichlet_solve(num_vertices, tail, head, cond, v0, v1):
    """Voltage with h(v0) = 0, h(v1) = 1, harmonic elsewhere, and its flow
    strength, by a sparse LU solve of the reduced Laplacian."""
    tail = np.asarray(tail, dtype=np.int64)
    head = np.asarray(head, dtype=np.int64)
    cond = np.asarray(cond, dtype=np.float64)
    keep = tail != head
    t, h, c = tail[keep], head[keep], cond[keep]
    V = int(num_vertices)
    L = sp.coo_matrix((np.concatenate([-c, -c, c, c]),
                       (np.concatenate([t, h, t, h]), np.concatenate([h, t, t, h]))),
                      shape=(V, V)).tocsr()
    free = np.ones(V, dtype=bool)
    free[[v0, v1]] = False
    idx = np.flatnonzero(free)
    values = np.zeros(V)
    values[v1] = 1.0
    if len(idx):
        A = L[idx][:, idx].tocsc()
        b = -L[idx][:, [v1]].toarray().ravel()
        values[idx] = spla.splu(A).solve(b)
    # flow out of v0 through its incident edges
    eta = float(np.sum(c[t == v0] * (values[h[t == v0]] - values[v0]))
                + np.sum(c[h == v0] * (values[t[h == v0]] - values[v0])))
    return values, eta


def face_count(next_dart) -> int:
    """Number of orbits of the permutation h -> next_dart[h ^ 1]."""
    nd = np.asarray(next_dart, dtype=np.int64)
    sigma = nd[np.arange(len(nd)) ^ 1]
    seen = np.zeros(len(nd), dtype=bool)
    faces = 0
    for h0 in range(len(nd)):
        if seen[h0]:
            continue
        faces += 1
        h = h0
        while not seen[h]:
            seen[h] = True
            h = sigma[h]
    return faces


def _rel(a, b) -> float:
    return abs(a - b) / max(1.0, abs(b))


# -- lattice ----------------------------------------------------------------------

def lattice_rows(n: int, H: float) -> int:
    """Rows of the cylinder lattice: multiples of 2*pi/n covering [-H, H]."""
    return 2 * max(1, round(H / (2.0 * math.pi / n))) + 1


def check_lattice(n, M, num_vertices, eta, values, tiling_ok, c_h, sup_err):
    out = []
    if num_vertices != n * M + 2:
        out.append(f"lattice has {num_vertices} vertices, want {n * M + 2}")
        return out
    if not tiling_ok:
        out.append("tiling report did not pass")
    if _rel(eta, n / (M + 1)) > TOL:
        out.append(f"eta {eta!r} != n/(M+1) = {n / (M + 1)!r}")
    want = np.concatenate([(np.arange(n * M) // n + 1) / (M + 1), [0.0, 1.0]])
    dev = float(np.max(np.abs(np.asarray(values) - want)))
    if dev > TOL:
        out.append(f"row voltages off (r+1)/(M+1) by {dev:.3g}")
    slope = (M + 1) * 2.0 * math.pi / n
    if abs(c_h - slope) > TOL * slope:
        out.append(f"affine slope {c_h!r} != (M+1)*2pi/n = {slope!r}")
    if not sup_err <= TOL:
        out.append(f"affine sup-error {sup_err:.3g} > {TOL}")
    return out


# -- mated-CRT --------------------------------------------------------------------

def check_voltage(values, eta, ref_values, ref_eta, tol=TOL):
    out = []
    dev = float(np.max(np.abs(np.asarray(values) - ref_values)))
    if dev > tol:
        out.append(f"voltage differs from the reference solve by {dev:.3g}")
    if _rel(eta, ref_eta) > tol:
        out.append(f"eta {eta!r} differs from the reference {ref_eta!r}")
    return out


def check_energy(tail, head, cond, values, eta, rect_width, rect_y0, rect_y1, tol=TOL):
    """Dirichlet energy, flow strength and total rectangle area agree."""
    values = np.asarray(values)
    energy = float(np.sum(np.asarray(cond) * (values[tail] - values[head]) ** 2))
    area = float(np.sum(np.asarray(rect_width) * (np.asarray(rect_y1) - np.asarray(rect_y0))))
    out = []
    if abs(energy - eta) > tol * eta:
        out.append(f"energy {energy!r} != eta {eta!r}")
    if abs(area - eta) > tol * eta:
        out.append(f"rectangle area {area!r} != eta {eta!r}")
    return out


def check_euler(num_vertices, num_edges, next_dart):
    F = face_count(next_dart)
    chi = num_vertices - num_edges + F
    return [] if chi == 2 else [f"V - E + F = {chi}, not 2"]


def check_arcs(oracle, lower_pairs, upper_pairs, sample):
    """``oracle(i, j) -> (lower, upper)`` against the map's arc sets on the
    sampled non-consecutive cell pairs."""
    lows = {tuple(sorted(p)) for p in lower_pairs}
    ups = {tuple(sorted(p)) for p in upper_pairs}
    out = []
    for i, j in sample:
        key = (min(i, j), max(i, j))
        want = oracle(i, j)
        got = (key in lows, key in ups)
        if tuple(bool(x) for x in want) != got:
            out.append(f"cells {key}: map arcs {got}, oracle {tuple(want)}")
    return out


def check_json_round_trip(text, reparsed_text, arrays, reparsed_arrays):
    """Text re-emitted from the parsed document is identical, and every
    array read back is bit-identical to the one written."""
    out = []
    if reparsed_text != text:
        out.append("JSON text changed on a read/write round trip")
    for name in arrays:
        a = np.ascontiguousarray(arrays[name])
        b = np.ascontiguousarray(reparsed_arrays[name])
        if a.shape != b.shape or a.tobytes() != b.tobytes():
            out.append(f"{name} not bit-identical after the JSON round trip")
    return out


# -- walk laws --------------------------------------------------------------------

def chi2_sf(x: float, k: int) -> float:
    """P(X > x) for X chi-square with k degrees of freedom (closed forms for
    integer k: a Poisson tail for even k, erfc plus half-integer terms for odd)."""
    if x <= 0.0:
        return 1.0
    y = x / 2.0
    if k % 2 == 0:
        return sum(math.exp(i * math.log(y) - y - math.lgamma(i + 1)) for i in range(k // 2))
    return math.erfc(math.sqrt(y)) + sum(
        math.exp((i - 0.5) * math.log(y) - y - math.lgamma(i + 0.5))
        for i in range(1, (k + 1) // 2))


def check_verify(tiling_ok, laws):
    """The pass conditions of `smith verify` with its default tolerances."""
    floor = 64.0 * laws["noise_floor"]
    out = []
    if not tiling_ok:
        out.append("tiling report did not pass")
    for key, tol in (("level_mass_max_dev", max(TOL_ALGEBRAIC, floor)),
                     ("hitting_max_dev", max(TOL_ALGEBRAIC, floor)),
                     ("winding_max_abs", max(TOL, floor)),
                     ("projection_max_dev", TOL_ALGEBRAIC)):
        if not laws[key] <= tol:
            out.append(f"{key} {laws[key]:.3g} > {tol:.3g}")
    return out


def pooled_exit_test(hits, walks, p_exact, alpha=MC_ALPHA):
    """Chi-square test of top-exit counts against exact exit probabilities.

    ``hits[i]`` of ``walks[i]`` walks from start i left through the top; the
    statistic sum (hits - W p)^2 / (W p (1 - p)) is approximately chi-square
    with one degree of freedom per start, and the test fails when its tail
    probability is below alpha.  A start with p in {0, 1} must match exactly."""
    hits = np.asarray(hits, dtype=np.float64)
    walks = np.asarray(walks, dtype=np.float64)
    p = np.asarray(p_exact, dtype=np.float64)
    out = []
    sure = (p <= 0.0) | (p >= 1.0)
    if np.any(hits[sure] != walks[sure] * p[sure]):
        out.append("walks from a start with a sure exit left the other way")
    q = ~sure
    stat = float(np.sum((hits[q] - walks[q] * p[q]) ** 2 / (walks[q] * p[q] * (1.0 - p[q]))))
    pval = chi2_sf(stat, int(q.sum()))
    if pval < alpha:
        out.append(f"exit frequencies: chi2 {stat:.1f} on {int(q.sum())} starts, "
                   f"p = {pval:.3g} < {alpha:g}")
    return out
