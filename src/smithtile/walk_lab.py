"""Random walks on cylinder maps: exact hitting and winding laws.

The conductance-weighted walk steps along darts with probability proportional
to conductance (a self-loop is stepped from either of its two darts).
``augment_all_levels`` inserts vertices so that every queried voltage level is
fully vertexed, once per map.  ``level_measures`` gives the level measures of
any number of levels in one pass: one ``segment_sums`` call takes the flow
sums of every vertex, and one search of the edge ranges finds every crossed
level.  On the level-graded map one forward-backward pass over the level sets
gives the exact conditional law of the walk given its height sequence, and
the expected winding of the re-randomized tiled-cylinder walk is a
drift-weighted sum over the transitions the pass recorded.  The projection
check watches the walk on a half-edge refinement at the original vertices:
one absorption solve, with every original vertex absorbing, gives the jump
chain of all of them at once (``projected_step_law``).

Monte Carlo walks all step through the one kernel ``walk``; its users are
``simulate`` and ``convergence.invariance_diagnostic``.  The kernel reads one
cached row per vertex, ``CombMap.step_rows``: the darts, their cumulative
conductance, its total and the dart heads.  It takes one value per step from
``uniforms``, a stream that draws the generator's uniforms BLOCK at a time:
``rng.random(k)`` returns the same doubles as k calls of ``rng.random()``, so
a walk sees the values that one call per step would give it, at a fraction of
the per-call cost.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .map_core import (CombMap, CylinderEmbedding, insert_vertices, dual,
                       segment_sums)
from .electrical import Voltage, conjugate
from .smith_tiling import SmithDiagram, build_diagram, dart_drift
from .rng import make_rng

# Uniforms drawn per generator call by ``uniforms``.
BLOCK = 128

# Relative bound on the flow imbalance at a level vertex in ``level_measure``.
BALANCE_TOL = 1e-9


class StepBudgetExceeded(RuntimeError):
    """A simulated walk ran past its step cap without stopping."""


class InadmissibleHeights(ValueError):
    """The height sequence has zero probability for the walk."""


class LevelNotVertexed(ValueError):
    """An edge crosses the queried level strictly between its endpoints."""


# -- stepping ----------------------------------------------------------------

def step_law(m: CombMap, x: int) -> dict:
    """One-step distribution over neighbours: P(y) = sum c_xy / pi(x)."""
    darts = m.vertex_darts[x]
    c = m.conductance[darts >> 1]
    tot = float(c.sum())
    law: dict = {}
    for h, w in zip(darts, c):
        y = int(m.dart_head[h])
        law[y] = law.get(y, 0.0) + float(w) / tot
    return law


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
    while True:
        yield from rng.random(BLOCK).tolist()


def walk(m: CombMap, u, start: int, stop: set, max_steps: int) -> list:
    """Darts of the conductance-weighted walk from ``start`` up to its first
    entry into the vertex set ``stop`` (empty when ``start`` is in it).

    Takes exactly one value per step from the uniform stream ``u`` (see
    ``uniforms``) and scales it by the vertex's total conductance.  Raises
    StepBudgetExceeded when the walk needs more than ``max_steps`` steps."""
    if not stop:
        raise ValueError("stop set must be nonempty")
    rows = m.step_rows
    draw = u.__next__
    darts: list = []
    step = darts.append
    v = int(start)
    for _ in range(max_steps):
        if v in stop:
            return darts
        out, cum, total, heads = rows[v]
        x = draw() * total
        # a draw that rounds up to the total still picks the last dart
        i = bisect_right(cum, x) if x < total else -1
        step(out[i])
        v = heads[i]
    if v in stop:
        return darts
    raise StepBudgetExceeded(f"no stop vertex within {max_steps} steps")


def simulate(m: CombMap, start: int, stop_set, seed: int,
             max_steps: int = 10_000_000) -> WalkTrace:
    """Run the weighted walk from ``start`` until it first enters ``stop_set``.

    The walk takes the values of its own ``uniforms`` stream of the seed's
    generator, one per step, so it is bit-reproducible for a fixed seed.
    Raises StepBudgetExceeded past the cap.
    """
    stop = set(int(s) for s in stop_set)
    darts = np.array(walk(m, uniforms(make_rng(seed)), start, stop, max_steps),
                     dtype=np.int64)
    verts = np.concatenate(([int(start)], m.dart_head[darts]))
    return WalkTrace(verts, darts)


# -- level structure ---------------------------------------------------------

def _merge_levels(values, tol: float) -> np.ndarray:
    """Sorted values, each kept only if it exceeds the last kept one by more
    than tol.  A chain of close values is not one level: a value more than
    tol above the last kept one is kept even when a dropped value lies
    within tol of both, which then sits within tol of two kept levels."""
    out: list = []
    for a in np.sort(np.asarray(values, dtype=np.float64)):
        if not out or a - out[-1] > tol:
            out.append(float(a))
    return np.array(out)


def realized_levels(m: CombMap, v: Voltage, tol: float = 1e-12) -> np.ndarray:
    """Sorted distinct voltage values over non-marked vertices."""
    return _merge_levels(v.values[~m.marked], tol)


def level_set(m: CombMap, v: Voltage, a: float, tol: float = 1e-12) -> np.ndarray:
    """Non-marked vertices within tol of level a, in ascending id."""
    x = np.flatnonzero(np.abs(v.values - a) <= tol)
    return x[(x != m.v0) & (x != m.v1)]


def _strictly_inside(levels, lo, hi, tol: float) -> tuple:
    """Per edge, the slice [start, stop) of the sorted levels a with
    lo + tol < a < hi - tol."""
    return (np.searchsorted(levels, lo + tol, side="right"),
            np.searchsorted(levels, hi - tol, side="left"))


@dataclass
class Augmented:
    """A map with its queried levels vertexed; ``measures(levels)`` are their
    level measures at the same tol, each level computed once."""
    map: CombMap
    voltage: Voltage
    emb: CylinderEmbedding | None
    inserted: int
    tol: float
    _measures: dict = field(default_factory=dict, repr=False, compare=False)

    def measures(self, levels) -> list:
        """The level measures of ``levels``, those not yet cached computed in
        one ``level_measures`` pass."""
        levels = [float(a) for a in levels]
        new = [a for a in dict.fromkeys(levels) if a not in self._measures]
        if new:
            self._measures.update(zip(new, level_measures(self.map, self.voltage, new,
                                                           self.tol)))
        return [self._measures[a] for a in levels]

    def measure(self, a: float) -> LevelMeasure:
        return self.measures([a])[0]


def augment_all_levels(m: CombMap, v: Voltage, extra=(),
                       emb: CylinderEmbedding | None = None,
                       tol: float = 1e-12) -> Augmented:
    """Vertex every level realized by a vertex, plus the requested extra
    heights, which must be finite and lie strictly between 0 and 1.

    A vertex is inserted wherever an edge strictly crosses one of the levels.
    Sub-edges get conductance c / dt (series law), so the returned voltage is
    exact on old vertices and assigns each inserted vertex its level.
    Afterwards every edge joins two consecutive realized levels, the standing
    assumption behind the exact level-set recursions.  One pass suffices since
    inserted vertices sit at levels already in the set."""
    extra = np.atleast_1d(np.asarray(extra, dtype=np.float64))
    if not np.all(np.isfinite(extra)):
        raise ValueError("heights must be finite")
    if np.any((extra <= 0.0) | (extra >= 1.0)):
        raise ValueError("heights must lie strictly between 0 and 1")
    levels = _merge_levels(np.concatenate([realized_levels(m, v, tol), extra]), tol)
    # the levels strictly inside each edge are levels[start:stop]; they go in
    # ascending along a rising edge and descending along a falling one, so the
    # points come in (edge, fraction) order, the order of the new vertices
    ht, hh = v.values[m.edge_tail], v.values[m.edge_head]
    lo, hi = np.minimum(ht, hh), np.maximum(ht, hh)
    start, stop = _strictly_inside(levels, lo, hi, tol)
    cnt = np.where(hi - lo > 2 * tol, np.maximum(stop - start, 0), 0)
    if not cnt.any():
        return Augmented(m, v, emb, 0, tol)
    k = np.repeat(np.arange(m.num_edges), cnt)
    r = np.arange(len(k)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    a = levels[np.where(hh[k] > ht[k], start[k] + r, stop[k] - 1 - r)]
    t = (a - ht[k]) / (hh[k] - ht[k])
    m2, emb2, _origin = insert_vertices(m, emb, np.column_stack([k, t]))
    v2 = Voltage(m2, np.concatenate([v.values, a]), v.residual, v.eta, v.eta_mismatch)
    return Augmented(m2, v2, emb2, len(a), tol)


@dataclass
class LevelMeasure:
    level: float
    vertices: np.ndarray
    mass: np.ndarray

    def as_dict(self) -> dict:
        return {int(x): float(p) for x, p in zip(self.vertices, self.mass)}

    @property
    def total(self) -> float:
        return float(self.mass.sum())


def level_measures(m: CombMap, v: Voltage, levels, tol: float = 1e-12) -> list:
    """Harmonic measures of fully vertexed levels: mass(x) = in-flow / eta,
    one ``LevelMeasure`` per level, in the given order.

    In-flow and out-flow must agree at every level vertex (harmonicity); the
    defect is asserted against BALANCE_TOL.  One pass serves all the levels:
    the flow sums of every vertex come from one ``segment_sums`` call, each
    sum the ``np.sum`` of that vertex's darts in rotation order, and the
    crossings of all levels from one search of the edge ranges.  A bad level
    raises what ``level_measure`` on each level in turn would raise first."""
    a = np.asarray(levels, dtype=np.float64)
    n = len(a)
    # crossings: per edge the sorted levels strictly inside its voltage range
    srt = np.argsort(a, kind="stable")
    ht, hh = v.values[m.edge_tail], v.values[m.edge_head]
    lo, hi = np.minimum(ht, hh), np.maximum(ht, hh)
    start, stop = _strictly_inside(a[srt], lo, hi, tol)
    cut = stop > start
    crossed = np.empty(n, dtype=bool)
    crossed[srt] = np.cumsum(np.bincount(start[cut], minlength=n + 1)
                             - np.bincount(stop[cut], minlength=n + 1))[:n] > 0
    # level sets, each in ascending id
    verts = [level_set(m, v, float(b), tol) for b in a]
    lengths = np.array([len(s) for s in verts], dtype=np.int64)
    x = np.concatenate([np.zeros(0, dtype=np.int64)] + verts)
    lev = np.repeat(np.arange(n), lengths)
    ptr = np.concatenate([[0], np.cumsum(lengths)])
    # flow sums of every vertex, its darts in rotation order
    V = m.num_vertices
    deg = np.diff(m.vert_ptr)
    g = m.vert_dart
    fl = v.dart_flow(g)
    owner = np.repeat(np.arange(V), deg)
    neg, pos = fl < 0, fl > 0
    sizes = np.concatenate([np.bincount(owner[neg], minlength=V),
                            np.bincount(owner[pos], minlength=V), deg])
    sums = segment_sums(np.concatenate([fl[neg], fl[pos], m.conductance[g >> 1]]),
                        np.concatenate([[0], np.cumsum(sizes)]))
    inflow, outflow, csum = -sums[:V], sums[V:2 * V], sums[2 * V:]
    # rounding in each dart flow scales with its conductance, which mid-edge
    # insertion at small fractions can make large
    bad = np.abs(inflow - outflow) > BALANCE_TOL * np.maximum(np.maximum(1.0, inflow), csum)
    unbalanced = np.bincount(lev[bad[x]], minlength=n) > 0
    failed = np.flatnonzero(crossed | (ptr[1:] == ptr[:-1]) | unbalanced)
    if len(failed):
        i = int(failed[0])
        if crossed[i]:
            k = int(np.argmax((lo + tol < a[i]) & (a[i] < hi - tol)))
            raise LevelNotVertexed(f"edge {k} crosses level {levels[i]} away from a vertex")
        if ptr[i] == ptr[i + 1]:
            raise ValueError(f"level {levels[i]} is not realized by any vertex")
        y = int(x[ptr[i] + np.argmax(bad[x[ptr[i]:ptr[i + 1]]])])
        raise ValueError(f"vertex {y}: flow imbalance {float(inflow[y] - outflow[y])}")
    mass = inflow[x] / v.eta
    return [LevelMeasure(levels[i], x[ptr[i]:ptr[i + 1]], mass[ptr[i]:ptr[i + 1]])
            for i in range(n)]


def level_measure(m: CombMap, v: Voltage, a: float, tol: float = 1e-12) -> LevelMeasure:
    """Harmonic measure of one fully vertexed level: ``level_measures`` of
    the one level a."""
    return level_measures(m, v, [a], tol)[0]


# -- exact conditional laws --------------------------------------------------

@dataclass
class HittingLaw:
    """Forward-backward decomposition of the walk conditioned on its heights.

    conditional[i][j] = P(X_i = levels[i][j] | full height sequence); mu[i] is
    the level measure of heights[i] on the same vertex order.  steps[i] lists
    the transitions (j, dart, jj) from levels[i][j] to levels[i + 1][jj] in
    the order the forward pass adds them.  forward and backward are the
    unnormalized recursions with norm their pairing."""
    map: CombMap
    heights: np.ndarray
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
    extras); the walk starts from the level measure of heights[0].  Dense
    recursions over the (small) level sets; no sampling."""
    m = aug.map
    heights = np.atleast_1d(np.asarray(heights, dtype=np.float64))
    rows = m.step_rows
    pi, c = m.pi_weight, m.conductance.tolist()

    levels = [level_set(m, aug.voltage, float(a), aug.tol) for a in heights]
    for a, lv in zip(heights, levels):
        if len(lv) == 0:
            raise InadmissibleHeights(f"no vertex at level {a}")
    N = len(heights)

    fwd = [aug.measure(heights[0]).mass] + [np.zeros(len(lv)) for lv in levels[1:]]
    steps = []
    for i in range(N - 1):
        nxt = {x: j for j, x in enumerate(levels[i + 1].tolist())}
        step = [(j, g, jj) for j, x in enumerate(levels[i].tolist())
                for g, y in zip(rows[x][0], rows[x][3]) if (jj := nxt.get(y)) is not None]
        p = pi[levels[i]]
        for j, g, jj in step:
            fwd[i + 1][jj] += fwd[i][j] * c[g >> 1] / p[j]
        if fwd[i + 1].sum() <= 0.0:
            raise InadmissibleHeights(
                f"step {i + 1}: level {heights[i + 1]} unreachable from {heights[i]}")
        steps.append(step)

    bwd = [np.zeros(len(lv)) for lv in levels[:-1]] + [np.ones(len(levels[-1]))]
    for i in range(N - 2, -1, -1):
        p = pi[levels[i]]
        for j, g, jj in steps[i]:
            bwd[i][j] += c[g >> 1] / p[j] * bwd[i + 1][jj]

    norm = float(np.sum(fwd[-1]))
    if norm <= 0.0:
        raise InadmissibleHeights("height sequence has zero probability")
    cond = [fwd[i] * bwd[i] / norm for i in range(N)]
    mus = [aug.measure(a).mass for a in heights]
    return HittingLaw(m, heights, levels, cond, mus, steps, fwd, bwd, norm)


def expected_conditional_winding(law: HittingLaw, diagram: SmithDiagram) -> float:
    """Exact E[winding of the re-randomized tiled walk | height sequence].

    The uniform re-randomization on each horizontal segment has mean at the
    segment midpoint, so the expectation is the joint-law-weighted sum of
    midpoint drifts over the law's recorded transitions, divided by eta.
    ``diagram`` must tile the law's own map.  Zero by the winding law."""
    if diagram.map is not law.map:
        raise ValueError("diagram must tile the map of the hitting law")
    pi, c = law.map.pi_weight, law.map.conductance.tolist()
    total = 0.0
    for i, step in enumerate(law.steps):
        fwd, bwd, p = law.forward[i], law.backward[i + 1], pi[law.levels[i]]
        for j, g, jj in step:
            wgt = fwd[j] * c[g >> 1] / p[j] * bwd[jj]
            if wgt != 0.0:
                total += wgt * dart_drift(diagram, g)
    return total / (diagram.eta * law.norm)


# -- absorption and projection ------------------------------------------------

def absorption_probs(m: CombMap, absorbing) -> tuple:
    """Exact absorption distribution: rows P(X hits w first | start v).

    Dense solve of (I - P_free) X = P_free->absorbing, one factorization for
    all the absorbing columns.  Its one caller in a stage is the projection
    check of ``exact_law_report``, which absorbs at every original vertex of
    a half-edge refinement: the free vertices are the E edge midpoints, so
    the solve is E x E with V right-hand sides.  That takes 0.1-0.4 s on a
    2-core host at E = 1277 (the gamma = 1.8, n = 512 mated-CRT map of seed
    3), and its memory grows as E^2: 8 E^2 bytes for the matrix."""
    absorbing = sorted(set(int(x) for x in absorbing))
    if not absorbing:
        raise ValueError("absorbing set must be nonempty")
    V, na = m.num_vertices, len(absorbing)
    stops = np.zeros(V, dtype=bool)
    stops[absorbing] = True
    free = np.flatnonzero(~stops)
    nf = len(free)
    slot = np.empty(V, dtype=np.int64)
    slot[free] = np.arange(nf)
    slot[absorbing] = np.arange(na)
    # every entry adds its darts' terms from 0.0 in rotation order, as a loop
    # over the free vertices and their darts would
    g = m.vert_dart[np.repeat(~stops, np.diff(m.vert_ptr))]
    x, y = m.dart_tail[g], m.dart_head[g]
    p = m.conductance[g >> 1] / m.pi_weight[x]
    hit = stops[y]
    P = np.zeros((nf, nf))
    B = np.zeros((nf, na))
    np.add.at(P, (slot[x[~hit]], slot[y[~hit]]), p[~hit])
    np.add.at(B, (slot[x[hit]], slot[y[hit]]), p[hit])
    out = np.zeros((V, na))
    out[absorbing, np.arange(na)] = 1.0
    if nf:
        out[free] = np.linalg.solve(np.eye(nf) - P, B)
    return out, np.array(absorbing, dtype=np.int64)


def projected_step_law(m: CombMap, originals) -> np.ndarray:
    """Jump chain of the walk watched at the original vertices: entry [i, j]
    is the probability that the next original vertex other than the i-th
    that the walk hits is the j-th (originals in ascending id); the diagonal
    is zero.  Matches step_law of the unrefined map at loop-free vertices by
    the series law.

    One absorption solve with every original vertex absorbing gives
    Q[x, w] = sum over the darts x -> y of p(x -> y) * P(y hits w first), the
    law of the first original vertex hit after leaving x, x itself included;
    the jump chain is Q[x, w] / (1 - Q[x, x]) for w != x."""
    probs, order = absorption_probs(m, originals)
    n = len(order)
    row = np.full(m.num_vertices, -1)
    row[order] = np.arange(n)
    g = m.vert_dart[np.repeat(row >= 0, np.diff(m.vert_ptr))]
    x = m.dart_tail[g]
    p = m.conductance[g >> 1] / m.pi_weight[x]
    Q = sp.csr_matrix((p, (row[x], m.dart_head[g])), shape=(n, m.num_vertices)) @ probs
    stay = Q.diagonal().copy()
    np.fill_diagonal(Q, 0.0)
    return Q / (1.0 - stay)[:, None]


# -- exact-law sweep (used by the verify command) -----------------------------

def admissible_sequences(m: CombMap, v: Voltage, count: int, length: int,
                         seed: int, tol: float = 1e-12) -> list:
    """Random height sequences stepping between adjacent realized levels.

    Consecutive heights always differ: the exact hitting and winding laws
    need every step to change level (a map with zero-gradient edges can make
    same-level steps, but those break the two-height dichotomy the laws rest
    on).  A map with a single interior level only admits one-point sequences,
    for which both laws are vacuous.  A map with no interior vertices at all
    has no realized levels; the laws still apply to any levels once those are
    vertexed, so quartile heights stand in as the ladder."""
    levels = realized_levels(m, v, tol)
    if len(levels) == 0:
        levels = np.array([0.25, 0.5, 0.75])
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

    Draws random admissible sequences, then vertexes every realized level and
    every sequence height in one augmentation, whose dual, conjugate and
    diagram are built once.  On that map it checks the level-measure totals
    and runs the hitting law and the winding law of each sequence, every
    level measure computed once.  The walk projection is checked on a global
    half-edge refinement of ``m``."""
    levels = realized_levels(m, v)
    sequences = admissible_sequences(m, v, num_sequences, length, seed)
    aug = augment_all_levels(m, v, extra=[a for seq in sequences for a in seq], emb=emb)
    dmap = dual(aug.map, aug.emb)
    diag = build_diagram(aug.map, dmap, aug.voltage, conjugate(dmap, aug.voltage))

    # realized levels can sit arbitrarily close together, and slicing an edge
    # at nearly equal fractions amplifies machine noise by the resulting
    # conductance; the floor tells the caller what the map can resolve (the
    # stand-in quartile heights of a map without levels are not the map's)
    resolved = aug.map if len(levels) else m
    noise = float(np.finfo(np.float64).eps) * float(max(1.0, resolved.conductance.max()))
    mass_dev = 0.0
    for lm in aug.measures(levels):
        mass_dev = max(mass_dev, abs(lm.total - 1.0))

    hit_dev = 0.0
    wind_dev = 0.0
    for seq in sequences:
        law = conditional_hitting(aug, seq)
        hit_dev = max(hit_dev, law.max_deviation())
        wind_dev = max(wind_dev, abs(expected_conditional_winding(law, diag)))

    V = m.num_vertices
    step = np.zeros((V, V))
    for x in range(V):
        law = step_law(m, x)
        step[x, list(law)] = list(law.values())
    half = [(k, 0.5) for k in range(m.num_edges)]
    m2, _e2, _origin = insert_vertices(m, None, half)
    # the jump chain has no self-transitions
    np.fill_diagonal(step, 0.0)
    proj_dev = float(np.max(np.abs(step - projected_step_law(m2, range(V)))))

    return {
        "level_mass_max_dev": mass_dev,
        "hitting_max_dev": hit_dev,
        "winding_max_abs": wind_dev,
        "projection_max_dev": proj_dev,
        "noise_floor": noise,
        "sequences": sequences,
    }
