"""Rectangle tilings of the finite cylinder built from voltage and conjugate.

``tile`` is the voltage -> tiling stage: from a solved voltage it builds the
dual, integrates the conjugate on it and assembles the diagram, which carries
the voltage, the dual and the conjugate with the tiling.  Each edge becomes a
rectangle whose height is its voltage increment and whose width is its flow,
so the aspect ratio equals the conductance.  Each vertex becomes a horizontal
segment (its incoming rectangles chained side by side, which must form one
arc), each face a vertical segment, the range of its corner voltages: its
boundary walk crosses each level between them rising and falling, so the
rectangles on either side cover that range exactly.  The circumference of
the tiled cylinder is the flow strength eta and the height runs from 0 to 1.
``validate`` certifies the tiling level by level: at each level the
rectangles that start there and those that end there cover the circle to the
same depth, which telescopes to every slab between levels being covered once.

The voltage solve snaps each cluster of vertices joined by zero-current
edges to one voltage (see ``electrical``), so the vertices of a cluster lie
on one level, its edges are point rectangles, and the levels of the tiling
are the distinct potentials rather than their rounded copies.
"""

from __future__ import annotations

import colorsys
import math
from dataclasses import dataclass

import numpy as np

from .map_core import (INDEX, CombMap, CylinderEmbedding, DualMap, by_position, dual,
                       mod_array)
from .electrical import Conjugate, Voltage, conjugate, flow_floor, harmonic_darts


class TilingError(ValueError):
    """The tiling could not be assembled from consistent data."""


def reduce_mod(x: float, eta: float) -> float:
    r = math.fmod(x, eta)
    if r < 0:
        r += eta
    # r + eta can round up to eta when r is a tiny negative
    return 0.0 if r >= eta else r


@dataclass
class SmithDiagram:
    map: CombMap
    dual: DualMap
    voltage: Voltage
    conjugate: Conjugate
    eta: float
    harm: np.ndarray        # harmonically oriented dart per edge
    rect_x0: np.ndarray     # left abscissa in [0, eta)
    rect_width: np.ndarray
    rect_y0: np.ndarray
    rect_y1: np.ndarray
    hseg_start: np.ndarray  # per vertex, arc start in [0, eta)
    hseg_len: np.ndarray
    hseg_level: np.ndarray
    vseg_x: np.ndarray      # per dual vertex
    vseg_y0: np.ndarray
    vseg_y1: np.ndarray
    sheet: np.ndarray       # per dart: integer k with rect interval + k*eta inside
                            # the tail vertex's segment interval


@dataclass
class TilingReport:
    eta: float
    max_cover_defect: float
    area_defect: float
    max_aspect_defect: float
    max_level_defect: float
    max_seg_length: float

    def passed(self, tol: float = 1e-9) -> bool:
        return (self.max_cover_defect <= tol and self.area_defect <= tol
                and self.max_aspect_defect <= tol and self.max_level_defect <= tol
                and self.max_seg_length <= self.eta + tol)


def build_diagram(m: CombMap, dmap: DualMap, v: Voltage, c: Conjugate,
                  tol: float = 1e-9) -> SmithDiagram:
    """Assemble the tiling; raise TilingError at the first vertex whose
    segment cannot be formed within tolerance (no face's can fail).

    All vertices are handled at once.  Each vertex's segment chain is walked
    dart by dart from its chain start, position by position over the
    vertices sorted by degree (``map_core.by_position``), so the running
    sums add in the order of a walk around one vertex at a time.  A saddle
    (falls and rises alternating more than once around a vertex; no solved
    voltage has one) fails "segment union not contiguous modulo eta" only if
    its chain dips below its start: one starting at its larger fall passes."""
    eta = v.eta
    h = v.values
    harm = harmonic_darts(v)
    flows = v.flows
    widths = flows[harm]        # c * (h_hi - h_lo) >= 0: harm points upward
    y0 = h[m.dart_tail[harm]]
    y1 = h[m.dart_head[harm]]
    # the face left of the upward dart carries the smaller w
    x0 = mod_array(c.w_lift[m.face_of[harm ^ 1]], eta)

    scale = max(1.0, eta)
    # the voltage solve's flow floor: the clusters below it arrive snapped,
    # and it still classes weak flows the snap left or never saw (those
    # that fell below it after snapping); the contiguity checks below
    # absorb anything between rounding and genuine currents
    zf = flow_floor(flows)
    # each flow carries cancellation noise ~ eps * conductance, so the chain
    # checks around a vertex cannot resolve below the incident conductance sum;
    # w values inherit the integration error bound carried by the conjugate
    eps = float(np.finfo(np.float64).eps)
    vs = float(max(1.0, np.abs(h).max()))
    werr = c.w_err

    V = m.num_vertices
    ptr, darts = m.vert_ptr, m.vert_dart
    deg = np.diff(ptr)
    # the vertex of each rotation slot; a value per vertex is spread over
    # its slots by np.repeat, which reads no index array
    owner = np.repeat(np.arange(V, dtype=INDEX), deg)
    noise = 8.0 * eps * vs * m.pi_weight
    hseg_start = np.zeros(V)
    hseg_len = np.where(m.marked, eta, 0.0)
    sheet = np.zeros(m.num_darts, dtype=np.int64)

    # classify with a flow tolerance: exact symmetries leave whole clusters
    # at one potential, where rounding noise must not masquerade as current;
    # a one-sided star cannot carry balanced current, so it is noise too
    cls = (flows > zf).astype(np.int8) - (flows < -zf)
    rot_cls = cls[darts]
    live = ((np.bincount(owner[rot_cls > 0], minlength=V) > 0)
            & (np.bincount(owner[rot_cls < 0], minlength=V) > 0) & ~m.marked)
    on = np.repeat(live, deg)
    # all incident flows vanish: degenerate point segment
    dead = ~live & ~m.marked
    a = mod_array(c.w_lift[m.face_of[darts[ptr[:-1]]]], eta)
    hseg_start[dead] = a[dead]
    g = darts[np.repeat(dead, deg)]
    sheet[g] = np.rint((a[m.dart_tail[g]] - x0[g >> 1]) / eta)

    # the chain starts where a falling run begins: at the first falling
    # dart whose previous dart of nonzero class is rising (a zero-class
    # dart inside a falling run does not end the run); one exists, as
    # the vertex has darts of both classes
    slots = np.arange(m.num_darts, dtype=INDEX)
    last = np.maximum.accumulate(np.where(rot_cls != 0, slots, -1))
    prev = np.concatenate([[-1], last[:-1]], dtype=INDEX)
    prev = np.where(prev < np.repeat(ptr[:-1], deg),     # wrap around
                    np.repeat(last[ptr[1:] - 1], deg), prev)
    cand = np.flatnonzero(on & (rot_cls < 0) & (rot_cls[prev] > 0))
    first = cand[np.diff(owner[cand], prepend=-1) != 0]
    lv = owner[first]
    anchor = np.zeros(V)
    werr_a = np.zeros(V)
    anchor[lv] = mod_array(c.w_lift[m.face_of[darts[first]]], eta)
    werr_a[lv] = werr[m.face_of[darts[first]]]

    # the chain of vertex x fills slots ptr[x]... in chain order: chain holds
    # the darts and pos the chain position before each; crossing a dart CCW
    # moves from its right face to its left, where w is smaller by the flow
    chain = np.zeros(m.num_darts, dtype=INDEX)
    pos = np.zeros(m.num_darts)
    base, dl, st = ptr[lv].astype(np.intp), deg[lv], first - ptr[lv]    # loop indices
    run = np.zeros(len(lv))
    for j, i in by_position(dl):
        g = darts[base[i] + (st[i] + j) % dl[i]]
        chain[base[i] + j] = g
        pos[base[i] + j] = run[i]
        run[i] = run[i] - flows[g]
    end = np.zeros(V)
    end[lv] = run

    f = flows[chain]
    nxt = pos - f
    rlo = np.where(nxt < pos, nxt, pos)
    k = chain >> 1
    off = np.repeat(anchor, deg) + rlo - x0[k]
    s = np.rint(off / eta)
    allow = tol * scale + np.repeat(noise, deg) + 8.0 * (np.repeat(werr_a, deg)
                                                         + werr[m.face_of[harm[k] ^ 1]])
    misaligned = on & (np.abs(off - s * eta) > allow)

    def lowest(x, keep):
        return np.minimum.reduceat(np.where(keep, x, np.inf), ptr[:-1])

    def highest(x, keep):
        return np.maximum.reduceat(np.where(keep, x, -np.inf), ptr[:-1])

    lo = np.minimum(lowest(nxt, on), 0.0)
    hi = np.maximum(highest(nxt, on), 0.0)
    up, dn = on & (cls[chain] > 0), on & (cls[chain] < 0)
    up_lo, up_hi = lowest(rlo, up), highest(rlo + f, up)
    dn_lo, dn_hi = lowest(rlo, dn), highest(rlo - f, dn)
    bound = tol * scale + noise
    with np.errstate(invalid="ignore"):
        span = hi - lo
        length = np.where(span > 0.0, span, 0.0)
        checks = (
            ("flows do not balance around the rotation", np.abs(end) > bound),
            ("segment union not contiguous modulo eta", lo < -tol * scale - noise),
            ("incoming and outgoing unions differ",
             (np.abs(up_lo - dn_lo) > bound) | (np.abs(up_hi - dn_hi) > bound)),
            ("segment longer than the circumference", length > eta + tol * scale + noise))
    bad = np.bincount(owner[misaligned], minlength=V) > 0
    for _, fails in checks:
        bad |= live & fails
    if bad.any():
        x = int(np.argmax(bad))
        wrong = np.flatnonzero(misaligned[ptr[x]:ptr[x + 1]])
        if len(wrong):
            raise TilingError(f"vertex {x}: rectangle of edge {int(k[ptr[x] + wrong[0]])} "
                              "misaligned with the segment chain")
        raise TilingError(f"vertex {x}: " + next(msg for msg, fails in checks if fails[x]))
    hseg_start[lv] = mod_array(anchor[lv] + up_lo[lv], eta)
    hseg_len[lv] = length[lv]
    # sheets refer to the stored segment frame: the reduction above may
    # move the chain origin by whole periods, and lifted drifts compare
    # tail and head frames through the shared rectangle
    r = np.zeros(V)
    r[lv] = np.rint((anchor[lv] + up_lo[lv] - hseg_start[lv]) / eta)
    sheet[chain[on]] = (s - np.repeat(r, deg))[on]

    # vertical segments: a face's darts form a closed walk with the face on
    # their right, rising darts carrying the rectangles west of it and
    # falling darts those east.  Each level strictly between the walk's
    # extreme corners is crossed by a strictly rising and a strictly falling
    # step, and the extremes end such steps, so each side covers exactly
    # [min, max] of the corners, for any voltage (y0, y1 read the same h)
    corner = h[m.dart_tail[m.face_dart]]
    return SmithDiagram(m, dmap, v, c, eta, harm, x0, widths, y0, y1,
                        hseg_start, hseg_len, h.copy(), mod_array(c.w_lift, eta),
                        np.minimum.reduceat(corner, m.face_ptr[:-1]),
                        np.maximum.reduceat(corner, m.face_ptr[:-1]), sheet)


def tile(v: Voltage, emb: CylinderEmbedding | None = None,
         tol: float = 1e-9) -> SmithDiagram:
    """The tiling of a solved voltage: its map's dual, the conjugate on it,
    then the diagram, both stages at ``tol``.  ``emb`` only picks the dual's
    base face, where the conjugate is 0 (see ``map_core.DualMap``)."""
    dm = dual(v.map, emb)
    return build_diagram(v.map, dm, v, conjugate(dm, v, tol=tol), tol=tol)


@dataclass
class SmithEmbedding:
    diagram: SmithDiagram
    points: np.ndarray          # (V, 2): (Re in [0, eta), Im in [0, 1])

    @property
    def eta(self):
        return self.diagram.eta


def smith_embedding(d: SmithDiagram) -> SmithEmbedding:
    """Midpoints of the horizontal segments; marked vertices sit at angle 0."""
    m = d.map
    pts = np.stack([mod_array(d.hseg_start + d.hseg_len / 2.0, d.eta), d.hseg_level], axis=1)
    pts[m.marked] = 0.0
    pts[m.v1, 1] = 1.0
    return SmithEmbedding(d, pts)


def _circle_pieces(x0: float, width: float, eta: float):
    """Split an arc starting at x0 in [0, eta) into linear pieces."""
    if width <= 0:
        return []
    if x0 + width <= eta:
        return [(x0, x0 + width)]
    return [(x0, eta), (0.0, x0 + width - eta)]


def _max_cover_defect(d: SmithDiagram) -> float:
    """The largest cover defect D(a) over the levels, by the event rule of
    ``validate``; a function of its own so that its arrays are freed before
    the level check runs."""
    eta = d.eta
    keep = (d.rect_width > 0) & (d.rect_y1 > d.rect_y0)
    x0, y0, y1 = d.rect_x0[keep], d.rect_y0[keep], d.rect_y1[keep]
    x1 = x0 + d.rect_width[keep]
    # an arc past the seam becomes [x0, eta) and [0, x1 - eta); the extra
    # circle ends at level 0 and starts at level 1
    seam = x1 > eta
    lo = np.concatenate([x0, np.zeros(np.count_nonzero(seam)), [0.0]])
    hi = np.concatenate([np.where(seam, eta, x1), x1[seam] - eta, [eta]])
    bottom = np.concatenate([y0, y0[seam], [1.0]])
    top = np.concatenate([y1, y1[seam], [0.0]])
    ends = np.concatenate([lo, hi])
    step = np.repeat(np.array([1, -1, -1, 1], dtype=np.int8), len(lo))
    # each piece's bottom and top as ranks among the levels
    L = len(lo)
    _, rank = np.unique(np.concatenate([bottom, top]), return_inverse=True)
    level = np.concatenate([rank[:L], rank[:L], rank[L:], rank[L:]])
    # the sort holds the peak: free what it does not read
    del keep, x0, y0, y1, x1, seam, lo, hi, bottom, top, rank
    # event i is end i at its bottom and event i + K the same end at its top,
    # K = len(ends).  The events sort by level, then by their end's place in
    # one sort of the ends by x (ties in x border a gap of width 0): as an
    # end's two levels differ, the keys level * K + place are distinct
    K = len(ends)
    o = np.argsort(ends)
    place = np.empty(K, dtype=np.int64)
    place[o] = np.arange(K)
    o = np.argsort(level * K + np.concatenate([place, place]))
    del place
    x = ends[o % K]
    level, step = level[o], step[o]
    del o
    # each level's steps sum to 0, so the running sum is d_start - d_end
    # within a level and 0 at its last event
    diff = np.abs(np.cumsum(step)[:-1]) * np.diff(x)
    first = np.flatnonzero(np.concatenate([[True], level[1:] != level[:-1]]))
    return float(np.add.reduceat(np.append(diff, 0.0), first).max())


def validate(d: SmithDiagram) -> TilingReport:
    """Exhaustive tiling checks; returns a report, never raises.

    The cover check takes each rectangle of positive width and height as
    its pieces on [0, eta).  At every level a it compares the pieces of the
    rectangles whose bottom is at a with those whose top is at a, one extra
    full circle ending at level 0 and starting at level 1.  Their covering
    depths d_start and d_end must agree: the defect D(a) is the integral of
    |d_start - d_end| over the circle, a length like the level defect.
    With the levels a_0 < a_1 < ..., the depth just above a_i, minus 1, is
    the sum of d_start - d_end over the a_j with j <= i, so every slab
    between consecutive levels is covered exactly once iff D(a) = 0 at
    every level.  In general the overlap area plus the gap area is at most
    the sum of D(a), as the slabs in [0, 1] add up to height 1.  The levels
    are the snapped voltages, so the rectangles that meet at a vertex read
    one float there.  Each piece gives four events, +1 at (bottom, lo), -1
    at (bottom, hi), -1 at (top, lo) and +1 at (top, hi), sorted once by
    level and x.  At each vertex level, the segments there plus the
    rectangles spanning it must fill the circumference.
    """
    eta = d.eta
    heights = d.rect_y1 - d.rect_y0
    aspect = np.abs(d.rect_width - d.map.conductance * heights)
    max_aspect = float(aspect.max()) if len(aspect) else 0.0
    area_defect = abs(float(np.sum(d.rect_width * heights)) - eta)

    max_cover = _max_cover_defect(d)

    # width spanning level a: rectangles with y0 < a < y1, i.e. those of
    # positive height with y0 < a, less those with y1 <= a
    levels, at = np.unique(d.hseg_level, return_inverse=True)
    seg = np.bincount(at, weights=d.hseg_len, minlength=len(levels))
    tall = d.rect_y0 < d.rect_y1
    y0, y1, wt = d.rect_y0[tall], d.rect_y1[tall], d.rect_width[tall]
    o0, o1 = np.argsort(y0), np.argsort(y1)
    c0 = np.concatenate([[0.0], np.cumsum(wt[o0])])
    c1 = np.concatenate([[0.0], np.cumsum(wt[o1])])
    span = (c0[np.searchsorted(y0[o0], levels)]
            - c1[np.searchsorted(y1[o1], levels, side="right")])
    max_level = float(np.abs(seg + span - eta).max(initial=0.0))

    return TilingReport(eta, max_cover, area_defect, max_aspect, max_level,
                        float(d.hseg_len.max()))


def render_svg(d: SmithDiagram, color_by: str = "order", width_px: int = 800,
               segments: bool = True) -> str:
    """Deterministic SVG of the unrolled cylinder; seam rectangles drawn twice."""
    if color_by not in ("order", "size"):
        raise ValueError("color_by must be 'order' or 'size'")
    eta = d.eta
    scale = width_px / eta
    hpx = scale * 1.0
    E = len(d.rect_x0)
    areas = d.rect_width * (d.rect_y1 - d.rect_y0)
    amax = areas.max() if E else 1.0
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px}" '
           f'height="{hpx:.2f}" viewBox="0 0 {width_px} {hpx:.2f}">',
           f'<rect width="{width_px}" height="{hpx:.2f}" fill="white"/>']
    order = np.argsort(d.rect_x0, kind="stable")
    rank = np.empty(E, dtype=np.int64)
    rank[order] = np.arange(E)
    for k in range(E):
        hgt = d.rect_y1[k] - d.rect_y0[k]
        if d.rect_width[k] <= 0 or hgt <= 0:
            continue
        if color_by == "order":
            hue = (rank[k] / max(1, E)) % 1.0
        else:
            hue = 0.7 * (1.0 - areas[k] / amax)
        r, g, b = colorsys.hsv_to_rgb(hue, 0.65, 0.95)
        fill = f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}"
        for p, q in _circle_pieces(float(d.rect_x0[k]), float(d.rect_width[k]), eta):
            x = p * scale
            w = (q - p) * scale
            y = (1.0 - d.rect_y1[k]) * hpx
            hh = hgt * hpx
            out.append(f'<rect x="{x:.3f}" y="{y:.3f}" width="{w:.3f}" '
                       f'height="{hh:.3f}" fill="{fill}" stroke="black" '
                       f'stroke-width="0.4"/>')
    if segments:
        for x in range(len(d.hseg_start)):
            if d.hseg_len[x] <= 0:
                continue
            y = (1.0 - d.hseg_level[x]) * hpx
            for p, q in _circle_pieces(float(d.hseg_start[x]), float(d.hseg_len[x]), eta):
                out.append(f'<line x1="{p * scale:.3f}" y1="{y:.3f}" '
                           f'x2="{q * scale:.3f}" y2="{y:.3f}" '
                           f'stroke="#333333" stroke-width="1.0"/>')
    out.append("</svg>")
    return "\n".join(out)
