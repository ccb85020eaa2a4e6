"""The three benchmark workloads.

Each workload is a fixed list of operations (one *round*); a run repeats
whole rounds.  ``run`` is the timed part and calls only public functions of
the ``smithtile`` modules, looked up on the module at call time so that the
tracer's wrappers see them.  ``check`` holds the result against the
independent computations in ``checks`` and is not timed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from smithtile import (convergence, electrical, io_json, map_core, mapgen,
                       mated_crt, smith_tiling, walk_lab)

import checks

TWO_PI = 2.0 * math.pi


def _tile(m, emb):
    """solve -> dual -> conjugate -> diagram -> validate, as `smith tile`."""
    v = electrical.solve_voltage(m)
    dm = map_core.dual(m, emb)
    c = electrical.conjugate(dm, v)
    d = smith_tiling.build_diagram(m, dm, v, c)
    report = smith_tiling.validate(d)
    return v, d, report


# -- lattice_tile -----------------------------------------------------------------

class LatticeTile:
    """Cylinder lattice n=64, H=4 through the whole tiling pipeline.  The
    lattice has no random part, so the seed does not change the input."""

    name = "lattice_tile"
    N, H = 64, 4.0
    round_s = 2.5           # nominal seconds per round, checks included

    def ops(self, seed):
        return [None]

    def run(self, spec):
        m, emb = convergence.make_lattice(self.N, self.H)
        v, d, report = _tile(m, emb)
        se = smith_tiling.smith_embedding(d)
        fit = convergence.fit_affine(se, emb)
        return {"map": m, "voltage": v, "report": report, "fit": fit}

    def edges(self, result):
        return result["map"].num_edges

    def check(self, spec, r):
        M = checks.lattice_rows(self.N, self.H)
        return checks.check_lattice(self.N, M, r["map"].num_vertices, r["voltage"].eta,
                                    r["voltage"].values, r["report"].passed(checks.TOL),
                                    r["fit"].c_h, r["fit"].sup_err)


# -- crt_tile ---------------------------------------------------------------------

@dataclass(frozen=True)
class CrtSpec:
    map_seed: int
    pair_seed: int


class CrtTile:
    """Mated-CRT maps (gamma 1.8, n 1024) through the `smith mated-crt |
    smith tile` path.  The sampler seeds are a fixed list and each map is
    marked with its sampler seed, as `smith mated-crt --seed` does, so every
    round costs the same whatever the run seed; the run seed rotates the
    order and picks the cell pairs checked.  (Marking with other seeds hits
    a TilingError on about 2% of these maps; see CHANGES.md.)"""

    name = "crt_tile"
    GAMMA, N = 1.8, 1024
    MAP_SEEDS = tuple(range(1, 9))
    PAIRS = 32              # random cell pairs and map arcs checked per map
    round_s = 13.0

    def ops(self, seed):
        k = len(self.MAP_SEEDS)
        order = [self.MAP_SEEDS[(seed + i) % k] for i in range(k)]
        return [CrtSpec(s, seed * 1000 + s) for s in order]

    def run(self, spec):
        exc = mated_crt.sample_excursion(self.GAMMA, self.N, spec.map_seed)
        mm = mated_crt.build_map(exc)
        mm = mated_crt.mark_vertices(mm, seed=spec.map_seed)
        text = io_json.dump_json(io_json.map_to_json(mm.map))
        m, emb = io_json.map_from_json(json.loads(text))
        v, d, report = _tile(m, emb)
        out = io_json.dump_json(io_json.diagram_to_json(d))
        return {"crt": mm, "map_text": text, "map": m, "emb": emb, "voltage": v,
                "diagram": d, "report": report, "diagram_text": out}

    def edges(self, result):
        return result["map"].num_edges

    def check(self, spec, r):
        m, v, d, mm = r["map"], r["voltage"], r["diagram"], r["crt"]
        out = [] if r["report"].passed(checks.TOL) else ["tiling report did not pass"]
        ref, ref_eta = checks.dirichlet_solve(m.num_vertices, m.edge_tail, m.edge_head,
                                              m.conductance, m.v0, m.v1)
        out += checks.check_voltage(v.values, v.eta, ref, ref_eta)
        out += checks.check_energy(m.edge_tail, m.edge_head, m.conductance, v.values,
                                   v.eta, d.rect_width, d.rect_y0, d.rect_y1)
        out += checks.check_euler(m.num_vertices, m.num_edges, m.next_dart)

        kind = np.asarray(mm.kind)
        pairs = np.stack([mm.map.edge_tail, mm.map.edge_head], axis=1)
        lows = pairs[kind == mated_crt.LOWER]
        ups = pairs[kind == mated_crt.UPPER]
        rng = np.random.default_rng(spec.pair_seed)
        n = mm.map.num_vertices
        sample = []
        while len(sample) < self.PAIRS:
            i, j = sorted(int(x) for x in rng.integers(n, size=2))
            if j > i + 1:
                sample.append((i, j))
        arcs = np.concatenate([lows, ups])
        for k in rng.integers(len(arcs), size=self.PAIRS):
            sample.append((int(arcs[k, 0]), int(arcs[k, 1])))
        out += checks.check_arcs(lambda i, j: mated_crt.adjacency_oracle(mm.exc, i, j),
                                 lows, ups, sample)

        fields = ("edge_tail", "edge_head", "conductance", "next_dart")
        out += checks.check_json_round_trip(
            r["map_text"], io_json.dump_json(io_json.map_to_json(m, r["emb"])),
            {f: getattr(mm.map, f) for f in fields} | {"marked": [mm.map.v0, mm.map.v1]},
            {f: getattr(m, f) for f in fields} | {"marked": [m.v0, m.v1]})
        back = io_json.diagram_from_json(json.loads(r["diagram_text"]))
        fields = ("rect_x0", "rect_width", "rect_y0", "rect_y1", "hseg_start",
                  "hseg_len", "hseg_level", "vseg_x", "vseg_y0", "vseg_y1")
        out += checks.check_json_round_trip(
            r["diagram_text"], io_json.dump_json(io_json.diagram_to_json(back)),
            {f: getattr(d, f) for f in fields} | {"eta": [d.eta]},
            {f: getattr(back, f) for f in fields} | {"eta": [back.eta]})
        return out


# -- walk_laws --------------------------------------------------------------------

@dataclass(frozen=True)
class WalkSpec:
    map_seed: int
    mc_seed: int


def lattice_heights(n: int, M: int) -> np.ndarray:
    """A priori heights of the grid vertices of make_lattice(n, .), by id."""
    s = TWO_PI / n
    return (np.arange(n * M) // n - (M - 1) / 2.0) * s


def dual_face_heights(m, grid_heights) -> np.ndarray:
    """Mean corner height of each face; faces at a pole get -inf / +inf."""
    out = np.empty(m.num_faces)
    for f, orbit in enumerate(m.face_darts):
        corners = [int(m.dart_tail[h]) for h in orbit]
        if m.v0 in corners:
            out[f] = -math.inf
        elif m.v1 in corners:
            out[f] = math.inf
        else:
            out[f] = float(np.mean(grid_heights[corners]))
    return out


class WalkLaws:
    """`smith verify` on small random weighted maps, then Monte Carlo exit
    laws on the same map and on a small lattice and its dual.  The map seeds
    are a fixed list; the run seed sets the walks' random streams."""

    name = "walk_laws"
    MAP_SEEDS = tuple(range(1, 5))
    STARTS, WALKS = 6, 250          # random map: starts, walks per start
    LN, LH, LWALKS = 8, 2.0, 150    # lattice and its dual: size, walks per start
    round_s = 6.0

    def ops(self, seed):
        k = len(self.MAP_SEEDS)
        return [WalkSpec(self.MAP_SEEDS[(seed + i) % k], seed * 1000 + i) for i in range(k)]

    def starts(self, m, emb):
        """Interior vertices at evenly spaced quantiles of a priori height."""
        inner = [x for x in range(m.num_vertices) if not m.is_marked(x)]
        inner.sort(key=lambda x: (emb.height[x], x))
        q = np.linspace(0, len(inner) - 1, self.STARTS + 2)[1:-1]
        return [inner[int(round(i))] for i in q]

    def run(self, spec):
        m, emb = mapgen.random_map(spec.map_seed)
        v, d, report = _tile(m, emb)
        laws = walk_lab.exact_law_report(m, v, emb, num_sequences=5, length=4, seed=0)

        starts = self.starts(m, emb)
        stop = {m.v0, m.v1}
        hits = []
        for i, x in enumerate(starts):
            top = 0
            for w in range(self.WALKS):
                tr = walk_lab.simulate(m, x, stop, seed=spec.mc_seed * 100_000 + i * 1000 + w)
                top += int(tr.vertices[-1]) == m.v1
            hits.append(top)

        s = TWO_PI / self.LN
        lm, lemb = convergence.make_lattice(self.LN, self.LH)
        M = checks.lattice_rows(self.LN, self.LH)
        grid_h = lattice_heights(self.LN, M)
        lstarts = [x for x in range(self.LN * M) if abs(grid_h[x]) <= s * 1.01]
        inv = convergence.invariance_diagnostic(lm, lemb.height, lstarts, -2 * s, 2 * s,
                                                walks_per_start=self.LWALKS,
                                                seed=spec.mc_seed)
        ldm = map_core.dual(lm, lemb)
        face_h = dual_face_heights(lm, grid_h)
        fstarts = [f for f in range(lm.num_faces) if abs(face_h[f]) < s]
        inv_d = convergence.invariance_diagnostic(ldm.map, ldm.rep_height, fstarts,
                                                  -1.5 * s, 1.5 * s,
                                                  walks_per_start=self.LWALKS,
                                                  seed=spec.mc_seed + 1)
        return {"map": m, "report": report, "laws": laws, "starts": starts,
                "hits": hits, "lattice": lm, "lattice_h": grid_h,
                "lstarts": lstarts, "inv": inv, "face_h": face_h, "fstarts": fstarts,
                "inv_dual": inv_d, "s": s}

    def edges(self, result):
        return result["map"].num_edges + result["lattice"].num_edges

    def check(self, spec, r):
        m = r["map"]
        out = checks.check_verify(r["report"].passed(checks.TOL), r["laws"])
        ref, _eta = checks.dirichlet_solve(m.num_vertices, m.edge_tail, m.edge_head,
                                           m.conductance, m.v0, m.v1)
        out += checks.pooled_exit_test(r["hits"], [self.WALKS] * len(r["hits"]),
                                       ref[r["starts"]])
        s = r["s"]
        for rep, heights, starts, lo, hi in (
                (r["inv"], r["lattice_h"], r["lstarts"], -2 * s, 2 * s),
                (r["inv_dual"], r["face_h"], r["fstarts"], -1.5 * s, 1.5 * s)):
            if list(rep.starts) != list(starts):
                out.append("invariance report lists other starts")
                continue
            p = (heights[starts] - lo) / (hi - lo)
            hits = np.rint(np.asarray(rep.p_hat) * rep.walks_per_start)
            out += checks.pooled_exit_test(hits, [rep.walks_per_start] * len(hits), p)
        return out


WORKLOADS = {w.name: w for w in (LatticeTile(), CrtTile(), WalkLaws())}
