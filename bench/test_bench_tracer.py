"""Tracer arithmetic, installation, and repeatable per-layer counts.

    python3 -m pytest bench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    c = FakeClock()
    monkeypatch.setattr(tracer_mod, "time", c)
    return c


def test_self_time_of_nested_spans(clock):
    t = Tracer()
    at = lambda x: setattr(clock, "now", x)  # noqa: E731
    outer = t.begin("outer")          # [0, 10]
    at(1.0); a = t.begin("child")     # [1, 3]
    at(3.0); t.end(a)
    at(4.0); b = t.begin("child")     # [4, 8]
    at(5.0); g = t.begin("grand")     # [5, 6.5]
    at(6.5); t.end(g)
    at(8.0); t.end(b)
    at(10.0); t.end(outer)
    assert [s[3] for s in t.spans] == [-1, 0, 0, 2]
    st = t.self_times()
    assert st["outer"] == pytest.approx(10.0 - 2.0 - 4.0)
    assert st["child"] == pytest.approx(2.0 + 4.0 - 1.5)
    assert st["grand"] == pytest.approx(1.5)
    assert sum(st.values()) == pytest.approx(10.0)


def test_self_time_through_wrapped_calls(clock):
    t = Tracer()

    def leaf():
        clock.now += 2.0
        return "leaf"

    wleaf = t.wrap(leaf, "leaf")

    def mid():
        clock.now += 1.0
        wleaf()
        wleaf()
        clock.now += 0.5
        return "mid"

    assert t.wrap(mid, "mid")() == "mid"
    st = t.self_times()
    assert st == pytest.approx({"mid": 1.5, "leaf": 4.0})


def test_wrapper_reraises_and_closes_the_span(clock):
    t = Tracer()

    def boom():
        clock.now += 1.0
        raise KeyError("x")

    with pytest.raises(KeyError):
        t.wrap(boom, "boom")()
    assert t.spans[0][2] == 1.0 and not t._open


def test_install_covers_aliases_and_restores():
    from smithtile import convergence, electrical, map_core, smith_tiling, walk_lab
    import smithtile
    bindings = ((walk_lab, "dual"), (walk_lab, "build_diagram"), (convergence, "solve_voltage"),
                (smithtile, "solve_voltage"), (map_core.CombMap, "__init__"), (electrical, "spla"),
                (smith_tiling, "reduce_mod"))
    originals = [getattr(owner, attr) for owner, attr in bindings]
    t = Tracer(layers.OBSERVERS, layers.TRACED)
    t.install()
    try:
        now = [getattr(owner, attr) for owner, attr in bindings]
        m, emb = convergence.make_lattice(6, 1.0)
        electrical.solve_voltage(m)
    finally:
        t.uninstall()
    assert [a is b for a, b in zip(now, originals)] == [False] * 6 + [True]
    assert [getattr(owner, attr) for owner, attr in bindings] == originals
    names = [s[0] for s in t.spans]
    assert names == ["convergence.make_lattice", "map_core.CombMap", "electrical.solve_voltage"]
    assert t.spans[1][3] == 0      # CombMap built inside make_lattice
    assert t.counts["map_core.maps_built"] == 1


def _traced_counts(workload, spec):
    t = Tracer(layers.OBSERVERS, layers.TRACED)
    t.install()
    try:
        workload.run(spec)
    finally:
        t.uninstall()
    return dict(t.counts)


@pytest.mark.parametrize("name", ["lattice_tile", "crt_tile", "walk_laws"])
def test_counts_repeat_for_the_same_seed(name):
    w = workloads.WORKLOADS[name]
    spec = w.ops(3)[0]
    first = _traced_counts(w, spec)
    assert first == _traced_counts(w, spec)
    per_layer = layers.per_layer(Tracer(), 1)
    run_level = {"host.probe_s", "trace.overhead_s", "wall.setup_s", "wall.op_s_p50",
                 "wall.edges_per_s"}
    assert set(per_layer) | run_level == set(layers.UNITS)


def test_large_lattice_uses_cg():
    w = workloads.WORKLOADS["lattice_tile"]
    counts = _traced_counts(w, None)
    assert counts["electrical.cg_iters"] > 0
    assert counts.get("electrical.spsolve_fallbacks", 0) == 0


@pytest.mark.parametrize("workload, trace, section", [("lattice_tile", 0, "end_to_end"),
                                                       ("walk_laws", 1, "per_layer")])
def test_run_prints_every_declared_metric(workload, trace, section):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=170, check=True)
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] > 0 and line["failed"] == 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec[section]}
