"""Random walks on cylinder maps: exact hitting and winding laws.

The conductance-weighted walk steps along darts with probability proportional
to conductance (a self-loop is stepped from either of its two darts).
``augment_all_levels`` inserts vertices so that every queried voltage level is
fully vertexed, once per map.  Voltages within LEVEL_TOL lie on one level.
``level_sets`` finds the vertices of any number of levels from one sort of
the voltages: each level searches a window of the sorted values that holds
every vertex within LEVEL_TOL of it, then applies the test
|v(x) - a| <= LEVEL_TOL to the window alone.  ``level_measures`` gives the
level measures of those sets in one pass: one ``segment_sums`` call takes the flow
sums of every vertex, and one search of the edge ranges finds every crossed
level.  ``Augmented.measures`` keeps each level's measure, so a report sorts
the graded voltages once.  On the level-graded map one forward-backward pass
over the level sets, each read off its height's measure, gives the exact
conditional law of the walk given its height sequence, and
the expected winding of the re-randomized tiled-cylinder walk is a
drift-weighted sum over the transitions the pass recorded, read off the
original map's tiling, as a graded vertex cuts an edge's rectangle.  The
projection check watches the walk on a half-edge refinement at the original
vertices.  There every free vertex (an edge midpoint) steps straight to
original ones, so the jump chain of all of them is one sparse product
(``projected_step_law``), held against the one-step law as a sparse matrix.
No step of the report builds a V x V or E x E array.

Monte Carlo walks all step through the one kernel ``walk``; its users are
``simulate`` and ``convergence.invariance_diagnostic``.  The kernel reads one
cached row per vertex, ``CombMap.step_rows``: the cumulative conductance of
the vertex's darts, its total, and the (dart, head) pair of each dart, the
last pair repeated once.  A step is one ``bisect_right`` of the scaled draw
and one read of the pair it lands on, and a draw that rounds up to the total
lands on the repeated last pair, so the loop has no branch for it.  The stop
set is tested once at the start and then after each move.  The values come
from ``uniforms``, a C-level chain over blocks of BLOCK uniforms from the
generator: ``rng.random(k)`` returns the same doubles as k calls of
``rng.random()``, so a walk sees the values that one call per step would give
it, at a fraction of the per-call cost.  The kernel reads the stream through
``islice`` with its step budget, MAX_STEPS, which asks for each value only
when a step needs it, so it takes exactly one value per step and none past
the budget.  ``simulate`` re-keys one shared generator per walk
(``rng.rekeyed_rng``) rather than building one.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np
import scipy.sparse as sp

from .map_core import (CombMap, CylinderEmbedding, insert_vertices, dual,
                       segment_sums)
from .electrical import Voltage, conjugate
from .smith_tiling import SmithDiagram, build_diagram
from .rng import make_rng, rekeyed_rng

# Uniforms drawn per generator call by ``uniforms``.
BLOCK = 128

# Relative bound on the flow imbalance at a level vertex in ``level_measures``.
BALANCE_TOL = 1e-9

# Voltages at most this far apart lie on one level (module docstring).
LEVEL_TOL = 1e-12

# Most steps a Monte Carlo walk takes before it raises StepBudgetExceeded.
MAX_STEPS = 10_000_000


class StepBudgetExceeded(RuntimeError):
    """A simulated walk ran past its step cap without stopping."""


class InadmissibleHeights(ValueError):
    """The height sequence has zero probability for the walk."""


class LevelNotVertexed(ValueError):
    """An edge crosses the queried level strictly between its endpoints."""


# -- stepping ----------------------------------------------------------------

def vertex_ids(m: CombMap, xs, what: str) -> list:
    """The values of ``xs`` as Python ints; ValueError naming the first that
    is not an integer (a float such as 0.5 included) in [0, V)."""
    out = []
    for x in xs:
        try:
            i = operator.index(x)
        except TypeError:
            i = -1
        if not 0 <= i < m.num_vertices:
            raise ValueError(f"{what} {x} is not a vertex id in [0, {m.num_vertices})")
        out.append(i)
    return out


@dataclass
class WalkTrace:
    vertices: np.ndarray
    darts: np.ndarray

    def __len__(self):
        return len(self.vertices)


def uniforms(rng):
    """Endless stream of the values of ``rng.random()``, in order, drawn
    BLOCK at a time.  A walk that stops mid-block leaves the rest of the
    block unused, so share one stream where walks must share one sequence."""
    return chain.from_iterable(iter(lambda: rng.random(BLOCK).tolist(), None))


def walk(m: CombMap, u, start: int, stop: set) -> list:
    """Darts of the conductance-weighted walk from ``start`` up to its first
    entry into the vertex set ``stop`` (empty when ``start`` is in it).

    Takes exactly one value per step from the uniform stream ``u`` (see
    ``uniforms``) and scales it by the vertex's total conductance.  Raises
    StepBudgetExceeded when the walk needs more than MAX_STEPS steps."""
    if not stop:
        raise ValueError("stop set must be nonempty")
    v = int(start)
    darts: list = []
    if v in stop:
        return darts
    rows = m.step_rows
    step = darts.append
    # islice asks for each value lazily, so none is taken past the budget
    for x in islice(u, MAX_STEPS):
        cum, total, pairs = rows[v]
        d, v = pairs[bisect_right(cum, x * total)]
        step(d)
        if v in stop:
            return darts
    raise StepBudgetExceeded(f"no stop vertex within {MAX_STEPS} steps")


def simulate(m: CombMap, start: int, stop_set, seed: int) -> WalkTrace:
    """Run the weighted walk from ``start`` until it first enters ``stop_set``.

    The walk takes the values of its own ``uniforms`` stream of the seed's
    generator, one per step, so it is bit-reproducible for a fixed seed.  The
    generator is one shared Philox, re-keyed to the seed on each call
    (``rng.rekeyed_rng``) and used up before the call returns, so the
    function is not thread-safe.  Raises ValueError when the start or a stop
    vertex is not an integer in [0, V), and StepBudgetExceeded past
    MAX_STEPS steps.
    """
    start, = vertex_ids(m, [start], "start")
    stop = set(vertex_ids(m, stop_set, "stop vertex"))
    darts = np.array(walk(m, uniforms(rekeyed_rng(seed)), start, stop), dtype=np.int64)
    verts = np.empty(len(darts) + 1, dtype=np.int64)
    verts[0] = start
    verts[1:] = m.dart_head[darts]
    return WalkTrace(verts, darts)


# -- level structure ---------------------------------------------------------

def _merge_levels(values) -> np.ndarray:
    """Sorted values, each kept only if it exceeds the last kept one by more
    than LEVEL_TOL.  A chain of close values is not one level: a value more
    than LEVEL_TOL above the last kept one is kept even when a dropped value
    lies within LEVEL_TOL of both, which then sits within LEVEL_TOL of two
    kept levels."""
    out: list = []
    for a in np.sort(np.asarray(values, dtype=np.float64)):
        if not out or a - out[-1] > LEVEL_TOL:
            out.append(float(a))
    return np.array(out)


def realized_levels(m: CombMap, v: Voltage) -> np.ndarray:
    """Sorted distinct voltage values strictly between 0 and 1 over
    non-marked vertices.  A vertex at a mark's voltage lies in that mark's
    equipotential cluster, so its value is no level."""
    h = v.values[~m.marked]
    return _merge_levels(h[(h > 0.0) & (h < 1.0)])


def level_sets(m: CombMap, v: Voltage, levels) -> list:
    """Per level a, the non-marked vertices x with |v(x) - a| <= tol, in
    ascending id, tol = LEVEL_TOL; levels may repeat, come in any order and
    share vertices.

    The voltages are sorted once.  Each level searches the sorted values for
    the window a - pad .. a + pad, pad = 2 tol + 4 eps max(1, |a|).  A vertex
    that passes the test lies within tol (1 + eps) of a, and each window end
    is off by at most eps (|a| + pad) / 2, so the window holds every vertex
    that passes; the test is then applied to the window alone."""
    tol = LEVEL_TOL
    a = np.asarray(levels, dtype=np.float64)
    order = np.argsort(v.values, kind="stable")
    h = v.values[order]
    pad = 2.0 * tol + 4.0 * np.finfo(np.float64).eps * np.maximum(1.0, np.abs(a))
    lo = np.searchsorted(h, a - pad, side="left")
    cnt = np.maximum(np.searchsorted(h, a + pad, side="right") - lo, 0)
    lev = np.repeat(np.arange(len(a)), cnt)
    x = order[np.arange(len(lev)) + np.repeat(lo - np.cumsum(cnt) + cnt, cnt)]
    keep = (np.abs(v.values[x] - a[lev]) <= tol) & ~m.marked[x]
    lev, x = lev[keep], x[keep]
    x = x[np.lexsort((x, lev))]
    return np.split(x, np.cumsum(np.bincount(lev, minlength=len(a))))[:-1]


def _strictly_inside(levels, lo, hi) -> tuple:
    """Per edge, the slice [start, stop) of the sorted levels a with
    lo + LEVEL_TOL < a < hi - LEVEL_TOL."""
    return (np.searchsorted(levels, lo + LEVEL_TOL, side="right"),
            np.searchsorted(levels, hi - LEVEL_TOL, side="left"))


@dataclass
class Augmented:
    """A map with its queried levels vertexed; ``measures(levels)`` are their
    level measures, each level computed once."""
    map: CombMap
    voltage: Voltage
    original: CombMap = field(repr=False)       # the map that was graded
    edge_origin: np.ndarray = field(repr=False)  # its edge under each edge of map
    _measures: dict = field(default_factory=dict, repr=False, compare=False)

    def measures(self, levels) -> list:
        """The level measures of ``levels``, those not yet cached computed in
        one ``level_measures`` pass."""
        levels = [float(a) for a in levels]
        new = [a for a in dict.fromkeys(levels) if a not in self._measures]
        if new:
            self._measures.update(zip(new, level_measures(self.map, self.voltage, new)))
        return [self._measures[a] for a in levels]


def augment_all_levels(m: CombMap, v: Voltage, extra=()) -> Augmented:
    """Vertex every level realized by a vertex, plus the requested extra
    heights, which must be finite and lie strictly between 0 and 1.

    A vertex is inserted wherever an edge strictly crosses one of the levels.
    Sub-edges get conductance c / dt (series law), so the returned voltage is
    exact on old vertices and assigns each inserted vertex its level.
    Afterwards every edge joins two consecutive realized levels, the standing
    assumption behind the exact level-set recursions.  One pass suffices since
    inserted vertices sit at levels already in the set.  The graded map gets
    no embedding (nothing tiles it), only its ``edge_origin``."""
    extra = np.atleast_1d(np.asarray(extra, dtype=np.float64))
    if not np.all(np.isfinite(extra)):
        raise ValueError("heights must be finite")
    if np.any((extra <= 0.0) | (extra >= 1.0)):
        raise ValueError("heights must lie strictly between 0 and 1")
    levels = _merge_levels(np.concatenate([realized_levels(m, v), extra]))
    # the levels strictly inside each edge are levels[start:stop]; they go in
    # ascending along a rising edge and descending along a falling one, so the
    # points come in (edge, fraction) order, the order of the new vertices
    ht, hh = v.values[m.edge_tail], v.values[m.edge_head]
    lo, hi = np.minimum(ht, hh), np.maximum(ht, hh)
    start, stop = _strictly_inside(levels, lo, hi)
    cnt = np.where(hi - lo > 2 * LEVEL_TOL, np.maximum(stop - start, 0), 0)
    if not cnt.any():
        return Augmented(m, v, m, np.arange(m.num_edges))
    k = np.repeat(np.arange(m.num_edges), cnt)
    r = np.arange(len(k)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    a = levels[np.where(hh[k] > ht[k], start[k] + r, stop[k] - 1 - r)]
    t = (a - ht[k]) / (hh[k] - ht[k])
    m2, _emb, origin = insert_vertices(m, None, np.column_stack([k, t]))
    v2 = Voltage(m2, np.concatenate([v.values, a]), v.residual, v.eta, v.eta_mismatch)
    return Augmented(m2, v2, m, origin)


@dataclass
class LevelMeasure:
    level: float
    vertices: np.ndarray
    mass: np.ndarray

    @property
    def total(self) -> float:
        return float(self.mass.sum())


def level_measures(m: CombMap, v: Voltage, levels) -> list:
    """Harmonic measures of fully vertexed levels: mass(x) = in-flow / eta,
    one ``LevelMeasure`` per level, in the given order.

    In-flow and out-flow must agree at every level vertex (harmonicity); the
    defect is asserted against BALANCE_TOL times the larger of 1, the
    in-flow and the vertex's ``pi_weight``.  One pass serves all the levels:
    the flow sums of every vertex come from one ``segment_sums`` call, each
    sum the ``np.sum`` of that vertex's darts in rotation order, the level
    sets from one ``level_sets`` call, and the crossings of all levels from
    one search of the edge ranges.  A bad level raises what a call on each
    level alone, in turn, would raise first."""
    a = np.asarray(levels, dtype=np.float64)
    n = len(a)
    # crossings: per edge the sorted levels strictly inside its voltage range
    srt = np.argsort(a, kind="stable")
    ht, hh = v.values[m.edge_tail], v.values[m.edge_head]
    lo, hi = np.minimum(ht, hh), np.maximum(ht, hh)
    start, stop = _strictly_inside(a[srt], lo, hi)
    cut = stop > start
    crossed = np.empty(n, dtype=bool)
    crossed[srt] = np.cumsum(np.bincount(start[cut], minlength=n + 1)
                             - np.bincount(stop[cut], minlength=n + 1))[:n] > 0
    verts = level_sets(m, v, a)
    lengths = np.array([len(s) for s in verts], dtype=np.int64)
    x = np.concatenate([np.zeros(0, dtype=np.int64)] + verts)
    lev = np.repeat(np.arange(n), lengths)
    ptr = np.concatenate([[0], np.cumsum(lengths)])
    # flow sums of every vertex, its darts in rotation order
    V = m.num_vertices
    fl = v.flows[m.vert_dart]
    owner = np.repeat(np.arange(V), np.diff(m.vert_ptr))
    neg, pos = fl < 0, fl > 0
    sizes = np.concatenate([np.bincount(owner[neg], minlength=V),
                            np.bincount(owner[pos], minlength=V)])
    sums = segment_sums(np.concatenate([fl[neg], fl[pos]]),
                        np.concatenate([[0], np.cumsum(sizes)]))
    inflow, outflow = -sums[:V], sums[V:]
    # rounding in each dart flow scales with its conductance, which mid-edge
    # insertion at small fractions can make large
    bad = np.abs(inflow - outflow) > BALANCE_TOL * np.maximum(np.maximum(1.0, inflow),
                                                              m.pi_weight)
    unbalanced = np.bincount(lev[bad[x]], minlength=n) > 0
    failed = np.flatnonzero(crossed | (ptr[1:] == ptr[:-1]) | unbalanced)
    if len(failed):
        i = int(failed[0])
        if crossed[i]:
            k = int(np.argmax((lo + LEVEL_TOL < a[i]) & (a[i] < hi - LEVEL_TOL)))
            raise LevelNotVertexed(f"edge {k} crosses level {levels[i]} away from a vertex")
        if ptr[i] == ptr[i + 1]:
            raise ValueError(f"level {levels[i]} is not realized by any vertex")
        y = int(x[ptr[i] + np.argmax(bad[x[ptr[i]:ptr[i + 1]]])])
        raise ValueError(f"vertex {y}: flow imbalance {float(inflow[y] - outflow[y])}")
    mass = inflow[x] / v.eta
    return [LevelMeasure(levels[i], x[ptr[i]:ptr[i + 1]], mass[ptr[i]:ptr[i + 1]])
            for i in range(n)]


# -- exact conditional laws --------------------------------------------------

@dataclass
class HittingLaw:
    """Forward-backward decomposition of the walk conditioned on its heights.

    conditional[i][j] = P(X_i = levels[i][j] | full height sequence); mu[i] is
    the level measure of the i-th height on the same vertex order.  steps[i]
    holds the arrays (j, dart, jj) of the transitions from levels[i][j] to
    levels[i + 1][jj] of ``augmented.map``, in the order the forward pass adds
    them.  forward and backward are the unnormalized recursions with norm
    their pairing."""
    augmented: Augmented
    levels: list
    conditional: list
    mu: list
    steps: list = field(repr=False)
    forward: list = field(repr=False)
    backward: list = field(repr=False)
    norm: float

    def max_deviation(self) -> float:
        return max(float(np.max(np.abs(c - u)))
                   for c, u in zip(self.conditional, self.mu))


def conditional_hitting(aug: Augmented, heights) -> HittingLaw:
    """Exact conditional law of the walk given its full voltage-level sequence.

    ``aug`` must vertex every height (``augment_all_levels`` with them as
    extras), else its level measures raise LevelNotVertexed; the walk
    starts from the level measure of heights[0].  Each height's level set is
    its measure's vertex array.  The transitions between consecutive level
    sets are read from the rotation arrays, and each recursion step adds
    them up in that order with one ``np.bincount``; no sampling.  Raises
    InadmissibleHeights for a level the walk cannot reach from the one
    before, or a sequence of zero probability."""
    m = aug.map
    heights = np.atleast_1d(np.asarray(heights, dtype=np.float64))
    pi, c, ptr = m.pi_weight, m.conductance, m.vert_ptr
    measures = aug.measures(heights)
    levels = [lm.vertices for lm in measures]
    N = len(heights)

    fwd = [measures[0].mass]
    slot = np.full(m.num_vertices, -1)
    steps = []
    for i in range(N - 1):
        # the darts of each level vertex in rotation order, kept where they
        # land on the next level
        lv, nxt = levels[i], levels[i + 1]
        deg = ptr[lv + 1] - ptr[lv]
        j = np.repeat(np.arange(len(lv)), deg)
        at = np.arange(len(j)) + np.repeat(ptr[lv] - np.cumsum(deg) + deg, deg)
        g = m.vert_dart[at].astype(np.intp)     # the steps index below (see map_core)
        slot[nxt] = np.arange(len(nxt))
        jj = slot[m.dart_head[g]]
        slot[nxt] = -1
        on = jj >= 0
        j, g, jj = j[on], g[on], jj[on]
        fwd.append(np.bincount(jj, fwd[i][j] * c[g >> 1] / pi[lv][j], minlength=len(nxt)))
        if fwd[i + 1].sum() <= 0.0:
            raise InadmissibleHeights(
                f"step {i + 1}: level {heights[i + 1]} unreachable from {heights[i]}")
        steps.append((j, g, jj))

    bwd = [None] * (N - 1) + [np.ones(len(levels[-1]))]
    for i in range(N - 2, -1, -1):
        j, g, jj = steps[i]
        bwd[i] = np.bincount(j, c[g >> 1] / pi[levels[i]][j] * bwd[i + 1][jj],
                             minlength=len(levels[i]))

    norm = float(np.sum(fwd[-1]))
    if norm <= 0.0:
        raise InadmissibleHeights("height sequence has zero probability")
    cond = [fwd[i] * bwd[i] / norm for i in range(N)]
    return HittingLaw(aug, levels, cond, [lm.mass for lm in measures], steps, fwd, bwd, norm)


def _graded_drift(d: SmithDiagram, aug: Augmented, darts) -> np.ndarray:
    """Midpoint drift across graded darts, read off ``d``, the tiling of the
    map that was graded, in the rectangle frame of the edge e each dart runs
    along: a vertex inserted on e cuts e's rectangle and sits at its centre,
    an original end x at mid(x) - sheet[h] eta, h the dart of e out of x.
    The drifts of a chain of sub-edges add up to that of e's dart."""
    m, V = aug.map, aug.original.num_vertices
    h = 2 * aug.edge_origin[darts >> 1] + (darts & 1)   # e's dart, same way
    x, out = np.stack([m.dart_tail[darts], m.dart_head[darts]]), np.stack([h, h ^ 1])
    mid = d.hseg_start + d.hseg_len / 2.0
    at = np.where(x < V, mid[np.minimum(x, V - 1)] - d.sheet[out] * d.eta,
                  d.rect_x0[h >> 1] + d.rect_width[h >> 1] / 2.0)
    return at[1] - at[0]


def expected_conditional_winding(law: HittingLaw, diagram: SmithDiagram) -> float:
    """Exact E[winding of the re-randomized tiled walk | height sequence].

    The uniform re-randomization on each horizontal segment has mean at the
    segment midpoint, so the expectation is the joint-law-weighted sum of
    midpoint drifts over the law's recorded transitions, divided by eta.
    ``diagram`` must tile the map the levels were graded on, whose rectangles
    hold every step (``_graded_drift``).  Zero by the winding law."""
    aug = law.augmented
    if diagram.map is not aug.original:
        raise ValueError("diagram must tile the map the levels were graded on")
    pi, c = aug.map.pi_weight, aug.map.conductance
    terms = [np.zeros(1)]
    for i, (j, g, jj) in enumerate(law.steps):
        wgt = law.forward[i][j] * c[g >> 1] / pi[law.levels[i]][j] * law.backward[i + 1][jj]
        terms.append(wgt * _graded_drift(diagram, aug, g))
    # a running sum adds the terms in step order, as a scalar loop would
    return float(np.cumsum(np.concatenate(terms))[-1]) / (diagram.eta * law.norm)


# -- projection -----------------------------------------------------------------

def _csr_sums(rows, cols, vals, shape) -> sp.csr_matrix:
    """Sparse matrix whose entry (r, c) adds the vals given at (r, c) from
    0.0 in input order, as a loop of ``+=`` would, with sorted columns.  The
    keys r * n + c pass 2^31 on large maps, so they are formed in int64
    whatever the dtype of the ids."""
    n = shape[1]
    key, at = np.unique(rows.astype(np.int64) * n + cols, return_inverse=True)
    ptr = np.searchsorted(key, np.arange(shape[0] + 1) * n)
    return sp.csr_matrix((np.bincount(at, vals), key % n, ptr), shape=shape)


def projected_step_law(m: CombMap, originals) -> sp.csr_matrix:
    """Jump chain of the walk watched at the original vertices: entry [i, j]
    is the probability that the next original vertex other than the i-th
    that the walk hits is the j-th (originals in ascending id); the diagonal
    is empty.  Every other vertex must step only to original ones, as the
    midpoints of a half-edge refinement do, else ValueError.  On such a
    refinement the chain matches, by the series law, the one-step law of
    the unrefined map conditioned on moving, which is the law itself at a
    vertex without self-loops.

    With the originals absorbing, a free vertex is absorbed at its first
    step, so Q = P_oo + P_of P_fo is one sparse product: the steps out of
    the originals times the absorption law, identity rows at the originals
    and the one-step law at the free vertices.  Q[x, w] is the law of the
    first original vertex hit after leaving x, x itself included, each
    entry added over x's darts in column order; the jump chain is
    Q[x, w] / (1 - Q[x, x]) for w != x."""
    order = np.unique(np.fromiter(originals, dtype=np.int64))
    if not len(order):
        raise ValueError("originals must be nonempty")
    V, n = m.num_vertices, len(order)
    row = np.full(V, -1)
    row[order] = np.arange(n)
    g = m.vert_dart
    x, y = m.dart_tail[g], m.dart_head[g]
    p = m.conductance[g >> 1] / m.pi_weight[x]
    out = row[x] >= 0
    stuck = np.flatnonzero(~out & (row[y] < 0))
    if len(stuck):
        k = int(stuck[0])
        raise ValueError(f"free vertex {x[k]} steps to free vertex {y[k]}")
    absorb = _csr_sums(np.concatenate([order, x[~out]]),
                       np.concatenate([np.arange(n), row[y[~out]]]),
                       np.concatenate([np.ones(n), p[~out]]), (V, n))
    Q = (_csr_sums(row[x[out]], y[out], p[out], (n, V)) @ absorb).tocoo()
    stay = Q.diagonal()
    off = Q.row != Q.col
    r = Q.row[off]
    return sp.csr_matrix((Q.data[off] / (1.0 - stay)[r], (r, Q.col[off])), shape=(n, n))


# -- exact-law sweep (used by the verify command) -----------------------------

def admissible_sequences(levels, count: int, length: int, seed: int) -> list:
    """Random height sequences stepping between adjacent rungs of the
    nonempty sorted ladder ``levels``, a map's realized levels.

    Consecutive heights always differ: the exact hitting and winding laws
    need every step to change level (a map with zero-gradient edges can make
    same-level steps, but those break the two-height dichotomy the laws rest
    on).  A ladder of one level only admits one-point sequences, for which
    both laws are vacuous."""
    rng = make_rng(seed)
    out = []
    for _ in range(count):
        i = int(rng.integers(len(levels)))
        seq = [float(levels[i])]
        while len(seq) < length and len(levels) > 1:
            if i == 0:
                i += 1
            elif i == len(levels) - 1:
                i -= 1
            else:
                i += 1 if rng.random() < 0.5 else -1
            seq.append(float(levels[i]))
        out.append(seq)
    return out


def exact_law_report(m: CombMap, v: Voltage,
                     emb: CylinderEmbedding | None = None,
                     num_sequences: int = 5, length: int = 4,
                     seed: int = 0) -> dict:
    """Max deviations of the exact walk laws on one map, for reporting.

    Draws random admissible sequences on the ladder of realized levels, then
    vertexes every realized level and every sequence height in one
    augmentation.  A map with no interior level has no ladder of its own;
    the laws still apply to any levels once those are vertexed, so quartile
    heights stand in for it.  On the graded map it checks the level-measure
    totals and runs the hitting law and the winding law of each sequence,
    every level measure computed once; the winding laws read their drifts
    off one tiling of ``m`` (dual, conjugate, diagram), never of the graded
    map.  The walk projection is checked on a global half-edge refinement
    of ``m``."""
    levels = realized_levels(m, v)
    ladder = levels if len(levels) else np.array([0.25, 0.5, 0.75])
    sequences = admissible_sequences(ladder, num_sequences, length, seed)
    aug = augment_all_levels(m, v, extra=[a for seq in sequences for a in seq])
    dmap = dual(m, emb)
    diag = build_diagram(m, dmap, v, conjugate(dmap, v))

    # realized levels can sit arbitrarily close together, and slicing an edge
    # at nearly equal fractions amplifies machine noise by the resulting
    # conductance; the floor tells the caller what the map can resolve (the
    # stand-in quartile heights of a map without levels are not the map's)
    resolved = aug.map if len(levels) else m
    noise = float(np.finfo(np.float64).eps) * float(max(1.0, resolved.conductance.max()))
    mass_dev = max([0.0] + [abs(lm.total - 1.0) for lm in aug.measures(levels)])
    laws = [conditional_hitting(aug, seq) for seq in sequences]
    hit_dev = max([0.0] + [law.max_deviation() for law in laws])
    wind_dev = max([0.0] + [abs(expected_conditional_winding(law, diag)) for law in laws])

    # the one-step law conditioned on moving, as the jump chain has no
    # self-transitions: per dart its conductance over the np.sum of its
    # vertex's darts that move, added up per entry in rotation order
    V = m.num_vertices
    g = m.vert_dart
    x, y = m.dart_tail[g], m.dart_head[g]
    c = m.conductance[g >> 1]
    move = x != y
    p = c / segment_sums(np.where(move, c, 0.0), m.vert_ptr)[x]
    step = _csr_sums(x[move], y[move], p[move], (V, V))
    E = m.num_edges
    half = np.column_stack((np.arange(E), np.full(E, 0.5)))
    m2, _e2, _origin = insert_vertices(m, None, half)
    diff = abs(step - projected_step_law(m2, range(V)))
    proj_dev = float(np.max(diff.data, initial=0.0))

    return {"level_mass_max_dev": mass_dev, "hitting_max_dev": hit_dev,
            "winding_max_abs": wind_dev, "projection_max_dev": proj_dev,
            "noise_floor": noise, "sequences": sequences}
