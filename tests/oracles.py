"""Slow, direct checks that the tests hold the program's results against.

Each one restates a rule the program applies in bulk: the harmonic
orientation of one edge, the adjacency of touching rectangles, and the
noncrossing of the arcs of a mated-CRT map.
"""

from smithtile.mated_crt import LOWER, UPPER, MatedCrtMap
from smithtile.electrical import Voltage
from smithtile.smith_tiling import SmithDiagram, _circle_pieces, reduce_mod


def harmonic_dart(v: Voltage, k: int) -> int:
    """The dart of edge k oriented from lower to higher voltage; zero-gradient
    edges (and self-loops) take the orientation with the lexicographically
    smaller (tail, head) pair."""
    m = v.map
    t, h = v.values[m.edge_tail[k]], v.values[m.edge_head[k]]
    if h > t:
        return 2 * k
    if h < t:
        return 2 * k + 1
    a, b = int(m.edge_tail[k]), int(m.edge_head[k])
    return 2 * k if (a, b) <= (b, a) else 2 * k + 1


def contact_violations(d: SmithDiagram, tol: float = 1e-9) -> int:
    """Count adjacency mismatches: rectangles meeting along a horizontal
    stretch must come from edges sharing a vertex; along a vertical stretch,
    from edges sharing a face.  tol gates which stretches are significant;
    the touch test itself is machine-scale, since genuine contacts are exact
    while weakly coupled clusters pack distinct boundaries closer than any
    geometric tolerance."""
    m, eta = d.map, d.eta
    bad = 0
    E = m.num_edges
    zw = 1e-12 * max(1.0, eta)

    def arc_overlap(i, j):
        pi = _circle_pieces(float(d.rect_x0[i]), float(d.rect_width[i]), eta)
        pj = _circle_pieces(float(d.rect_x0[j]), float(d.rect_width[j]), eta)
        return sum(max(0.0, min(q1, q2) - max(p1, p2))
                   for p1, q1 in pi for p2, q2 in pj)

    for i in range(E):
        for j in range(E):
            if i == j:
                continue
            if d.rect_y1[i] == d.rect_y0[j] and arc_overlap(i, j) > tol:
                if m.dart_head[d.harm[i]] != m.dart_tail[d.harm[j]]:
                    bad += 1
    for i in range(E):
        for j in range(i + 1, E):
            yy = min(d.rect_y1[i], d.rect_y1[j]) - max(d.rect_y0[i], d.rect_y0[j])
            if yy <= tol:
                continue
            li = reduce_mod(d.rect_x0[i] + d.rect_width[i], eta)
            lj = reduce_mod(d.rect_x0[j] + d.rect_width[j], eta)
            touch_ij = abs(reduce_mod(li - d.rect_x0[j] + eta / 2, eta) - eta / 2) <= zw
            touch_ji = abs(reduce_mod(lj - d.rect_x0[i] + eta / 2, eta) - eta / 2) <= zw
            if touch_ij and m.face_of[d.harm[i]] != m.face_of[d.harm[j] ^ 1]:
                bad += 1
            if touch_ji and m.face_of[d.harm[j]] != m.face_of[d.harm[i] ^ 1]:
                bad += 1
    return bad


def arc_sets(mm: MatedCrtMap) -> tuple:
    """(lower, upper) lists of vertex pairs, for the noncrossing checks."""
    lows, ups = [], []
    for k in range(mm.map.num_edges):
        pair = (int(mm.map.edge_tail[k]), int(mm.map.edge_head[k]))
        if mm.kind[k] == LOWER:
            lows.append(pair)
        elif mm.kind[k] == UPPER:
            ups.append(pair)
    return lows, ups


def noncrossing(pairs) -> bool:
    """Arcs on a line cross iff they interleave: a1 < a2 < b1 < b2."""
    ps = [tuple(sorted(p)) for p in pairs]
    for i in range(len(ps)):
        a1, b1 = ps[i]
        for j in range(i + 1, len(ps)):
            a2, b2 = ps[j]
            if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1:
                return False
    return True
