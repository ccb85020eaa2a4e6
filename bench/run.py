"""Benchmark of the smithtile pipeline: one workload, one seed, one run.

    python3 bench/run.py --workload lattice_tile --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``smithtile`` from
``src/``.  A run repeats whole rounds of the workload's fixed operation list;
the round count is ``seconds`` divided by the workload's nominal round time,
so the work done depends on the arguments only, never on the host's speed.
Each operation is timed without its checks, then checked (see checks.py).

The host's speed drifts by up to half within a minute, and every step of the
pipeline slows with it.  So a fixed probe (``host_probe``) is timed right
before and right after each operation and each set-up sample, and the
end-to-end times are reported in *reference seconds*: each wall time is
scaled by ``PROBE_REF_S`` over the mean of its two probes, i.e. to the time
the step takes on a host where the probe takes ``PROBE_REF_S``.  The unscaled
wall times are kept in the result file and reported by traced runs as
``wall.*``.  The run is single-threaded: BLAS starts no worker threads.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` half as many rounds run, each operation once untraced and once
traced, and the line carries the per-layer metrics.  Run results and span
dumps are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # before numpy loads; inherited by the set-up children

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
# About host_probe()'s seconds on a 2-vCPU Xeon VM under CPython 3.11 and
# numpy 2.4 when nothing else slows the host: the speed that end-to-end
# times are scaled to.
PROBE_REF_S = 0.025


def host_probe() -> float:
    """Seconds for a fixed mix of the two kinds of work the pipeline does:
    interpreter arithmetic and small numpy calls, about half each.  It is a
    yardstick of host speed and never calls the program."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(200_000):
        acc += (i * i) % 7
    a = np.arange(40.0)
    for _ in range(3000):
        acc += float((a * 1.5 + 1.0).sum())
    return time.perf_counter() - t0


def measure_setup(args) -> tuple[list, list]:
    """Wall times from spawning a fresh interpreter until it has imported
    everything and prepared the inputs, i.e. could begin its first operation,
    and the mean host probe around each."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    walls, probes = [], []
    for _ in range(SETUP_SAMPLES):
        p0 = host_probe()
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        walls.append(float(proc.stdout.split()[-1]) - t0)
        probes.append((p0 + host_probe()) / 2)
    return walls, probes


def scaled(walls, probes) -> list:
    """Wall times in reference seconds (see the module docstring)."""
    return [w * PROBE_REF_S / p for w, p in zip(walls, probes)]


def timed(workload, spec):
    """``(result, wall seconds, mean host probe around the call)``."""
    gc.collect()
    p0 = host_probe()
    t0 = time.perf_counter()
    result = workload.run(spec)
    dt = time.perf_counter() - t0
    return result, dt, (p0 + host_probe()) / 2


def timed_traced(tracer, workload, spec):
    try:
        tracer.install()
        root = tracer.begin(f"op.{workload.name}")
        try:
            return timed(workload, spec)
        finally:
            tracer.end(root)
    finally:
        tracer.uninstall()


class Tally:
    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.times, self.probes, self.edges = [], [], 0

    def record(self, workload, spec, run):
        """``run()`` -> (result, seconds, probe); counts the operation and
        checks it."""
        self.attempted += 1
        try:
            result, dt, probe = run()
        except Exception:
            self.failed += 1
            print(f"operation {spec!r} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return
        problems = workload.check(spec, result)
        if problems:
            self.failed += 1
            self.wrong += 1
            print(f"operation {spec!r} failed its checks: {problems}", file=sys.stderr)
        self.times.append(dt)
        self.probes.append(probe)
        self.edges += workload.edges(result)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "smithtile" / "__init__.py").is_file():
        print(f"error: no smithtile sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    specs = workload.ops(args.seed)
    if args.setup_only:
        print(time.monotonic())
        return 0

    import layers
    from tracer import Tracer

    setup_walls, setup_probes = measure_setup(args)
    rounds = max(1, round(args.seconds / workload.round_s))
    plain, traced = Tally(), Tally()
    tracer = Tracer(layers.OBSERVERS, layers.TRACED)

    if args.trace:
        for r in range(max(1, rounds // 2)):
            for i, spec in enumerate(specs):
                pair = [(plain, lambda: timed(workload, spec)),
                        (traced, lambda: timed_traced(tracer, workload, spec))]
                if (r * len(specs) + i) % 2:
                    pair.reverse()
                for side, run in pair:
                    side.record(workload, spec, run)
    else:
        for _ in range(rounds):
            for spec in specs:
                plain.record(workload, spec, lambda: timed(workload, spec))

    def end_to_end(setup, ops):
        busy = sum(ops)
        return {"setup_s": statistics.median(setup),
                "op_s_p50": statistics.median(ops) if ops else 0.0,
                "edges_per_s": plain.edges / busy if busy else 0.0}

    ref = end_to_end(scaled(setup_walls, setup_probes), scaled(plain.times, plain.probes))
    wall = end_to_end(setup_walls, plain.times)
    if args.trace:
        tally = traced
        metrics = layers.per_layer(tracer, max(1, len(traced.times)))
        metrics["host.probe_s"] = statistics.median(setup_probes + plain.probes + traced.probes)
        metrics["trace.overhead_s"] = (
            statistics.median(scaled(traced.times, traced.probes))
            - statistics.median(scaled(plain.times, plain.probes))
            if traced.times and plain.times else 0.0)
        metrics.update({f"wall.{k}": v for k, v in wall.items()})
        units = layers.UNITS
    else:
        tally = plain
        metrics = ref | {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "op_s_p50": "s", "edges_per_s": "1/s", "peak_rss_mb": "MB"}

    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    line = {
        "correct": plain.wrong + traced.wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump({"result": line, "rounds": rounds, "probe_ref_s": PROBE_REF_S,
                   "op_times": tally.times, "op_probes": tally.probes,
                   "untraced_op_times": plain.times, "untraced_op_probes": plain.probes,
                   "setup_times": setup_walls, "setup_probes": setup_probes,
                   "wall": wall, "ref": ref}, fh, indent=1)
    if args.trace:
        tracer.dump(OUT / f"spans-{tag}.json")
    print(f"{workload.name}: {attempted} operations, {failed} failed, "
          f"{len(tally.times)} timed", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
