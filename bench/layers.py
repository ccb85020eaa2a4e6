"""Per-layer metrics derived from a traced run.

Only the functions named here are wrapped (``TRACED``).  A ``*_s`` metric is
the self time of the listed spans, so the time metrics partition the traced
operation: time in a child span is charged to the child, and time in a
function that is not traced, such as the per-element helpers ``reduce_mod``,
``wrap_angle`` or ``dual_cycle_winding_cut``, is charged to its caller.
Counts are gathered by observers that read the arguments or the result of a
call.  Every value is per operation.
"""

from __future__ import annotations

import numpy as np

# metric -> span names whose self times it sums
SELF_TIME = {
    "map_core.dual_s": ("map_core.dual",),
    "map_core.insert_vertices_s": ("map_core.insert_vertices",),
    "map_core.combmap_s": ("map_core.CombMap",),
    "electrical.solve_voltage_s": ("electrical.solve_voltage",),
    "electrical.conjugate_s": ("electrical.conjugate",),
    "smith_tiling.build_diagram_s": ("smith_tiling.build_diagram",),
    "smith_tiling.validate_s": ("smith_tiling.validate",),
    "smith_tiling.embed_s": ("smith_tiling.smith_embedding",),
    "convergence.make_lattice_s": ("convergence.make_lattice",),
    "convergence.fit_affine_s": ("convergence.fit_affine",),
    "convergence.invariance_s": ("convergence.invariance_diagnostic",),
    "mated_crt.sample_s": ("mated_crt.sample_excursion",),
    "mated_crt.build_map_s": ("mated_crt.build_map",),
    "io_json.write_s": ("io_json.map_to_json", "io_json.diagram_to_json",
                        "io_json.dump_json"),
    "io_json.read_s": ("io_json.map_from_json",),
    "mapgen.random_map_s": ("mapgen.random_map",),
    "walk_lab.exact_law_s": ("walk_lab.exact_law_report",),
    "walk_lab.augment_s": ("walk_lab.augment_all_levels", "walk_lab.level_augment"),
    "walk_lab.level_measure_s": ("walk_lab.level_measure",),
    "walk_lab.hitting_s": ("walk_lab.conditional_hitting",),
    "walk_lab.winding_s": ("walk_lab.expected_conditional_winding",),
    "walk_lab.projection_s": ("walk_lab.projected_step_law", "walk_lab.absorption_probs"),
    "walk_lab.simulate_s": ("walk_lab.simulate",),
}

COUNTS = ("map_core.maps_built", "electrical.cg_iters", "electrical.spsolve_fallbacks",
          "electrical.conjugate_calls", "smith_tiling.levels", "mated_crt.attempts",
          "mated_crt.arcs", "io_json.bytes", "walk_lab.absorption_solves",
          "walk_lab.steps")


def _levels(tracer, args, kwargs, report):
    # distinct rectangle levels: the slabs validate() sweeps
    d = args[0]
    tracer.count("smith_tiling.levels", len(np.unique(np.concatenate([d.rect_y0, d.rect_y1]))))


def _sample(tracer, args, kwargs, exc):
    tracer.count("mated_crt.samples")
    tracer.count("mated_crt.attempts", exc.attempts)


def _arcs(tracer, args, kwargs, mm):
    from smithtile import mated_crt
    tracer.count("mated_crt.arcs", int(np.count_nonzero(np.asarray(mm.kind) != mated_crt.LINE)))


OBSERVERS = {
    "map_core.CombMap": lambda t, a, k, r: t.count("map_core.maps_built"),
    "electrical.conjugate": lambda t, a, k, r: t.count("electrical.conjugate_calls"),
    "smith_tiling.validate": _levels,
    "mated_crt.sample_excursion": _sample,
    "mated_crt.build_map": _arcs,
    "io_json.dump_json": lambda t, a, k, text: t.count("io_json.bytes", len(text.encode())),
    "walk_lab.absorption_probs": lambda t, a, k, r: t.count("walk_lab.absorption_solves"),
    "walk_lab.simulate": lambda t, a, k, tr: t.count("walk_lab.steps", len(tr.darts)),
}

TRACED = frozenset(name for spans in SELF_TIME.values() for name in spans) | set(OBSERVERS)

UNITS = {name: "s" for name in SELF_TIME} | {name: "count" for name in COUNTS} | {
    "io_json.bytes": "bytes",
    "mated_crt.accept_ratio": "ratio",
    "walk_lab.steps_per_s": "1/s",
    "host.probe_s": "s",
    "trace.overhead_s": "s",
    "wall.setup_s": "s",
    "wall.op_s_p50": "s",
    "wall.edges_per_s": "1/s",
}


def per_layer(tracer, ops: int) -> dict:
    """Every per-layer metric but the host probe and trace overhead, per op;
    0 where the workload does not reach the layer."""
    self_t = tracer.self_times()
    out = {name: sum(self_t.get(s, 0.0) for s in spans) / ops
           for name, spans in SELF_TIME.items()}
    for name in COUNTS:
        out[name] = tracer.counts.get(name, 0.0) / ops
    attempts = tracer.counts.get("mated_crt.attempts", 0.0)
    out["mated_crt.accept_ratio"] = (tracer.counts.get("mated_crt.samples", 0.0) / attempts
                                     if attempts else 0.0)
    sim = self_t.get("walk_lab.simulate", 0.0)
    out["walk_lab.steps_per_s"] = tracer.counts.get("walk_lab.steps", 0.0) / sim if sim else 0.0
    return out
