"""Tests of the benchmark's own code: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import bench, layers, workloads  # noqa: E402
from perfbench.tracer import Target, Tracer, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(autouse=True, scope="module")
def _reap_children():
    # The process workload's runs start multiprocessing's resource tracker.
    yield
    bench.stop_children()


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    np.testing.assert_allclose(self_times(parent, start, end), [3.0, 2.0, 1.0, 4.0])


class _Toy:
    def outer(self, n):
        return sum(self.inner(i) for i in range(n))

    def inner(self, i):
        return i

    @classmethod
    def make(cls):
        return cls()


def test_wrapped_calls_nest_and_self_time_sums_to_root():
    tracer = Tracer()
    tracer.install([Target("outer", _Toy, "outer"), Target("inner", _Toy, "inner"),
                    Target("make", _Toy, "make")])
    try:
        assert _Toy.make().outer(3) == 3
    finally:
        tracer.uninstall()
    spans = tracer.arrays()
    names = [tracer.names[i] for i in spans["name_id"]]
    assert names == ["make", "outer", "inner", "inner", "inner"]
    assert spans["parent"].tolist() == [-1, -1, 1, 1, 1]
    own = self_times(spans["parent"], spans["start"], spans["end"])
    root = spans["end"][1] - spans["start"][1]
    assert own[1:].sum() == pytest.approx(root)
    assert (own >= 0).all()


def test_install_and_uninstall_restore_every_binding_by_identity():
    import repro.core.assignment_phase as ap
    import repro.core.framework as fw
    from repro.runtime.colfab import MessageBatch
    from repro.runtime.executor import Executor, ProcessExecutor

    originals = {
        "fw": fw.run_edge_assignment,
        "ap": ap.run_edge_assignment,
        "from_bytes": MessageBatch.__dict__["from_bytes"],
        "publish": Executor.__dict__["publish"],
        "run": ProcessExecutor.__dict__["run"],
    }
    for executor in ("serial", "process"):
        tracer = Tracer()
        tracer.install(layers.layer_targets(executor))
        try:
            # Bound-by-name imports are wrapped as well as the definition.
            assert fw.run_edge_assignment is not originals["fw"]
            assert fw.run_edge_assignment is ap.run_edge_assignment
            assert isinstance(MessageBatch.__dict__["from_bytes"], classmethod)
        finally:
            tracer.uninstall()
    assert fw.run_edge_assignment is originals["fw"]
    assert ap.run_edge_assignment is originals["ap"]
    assert MessageBatch.__dict__["from_bytes"] is originals["from_bytes"]
    assert Executor.__dict__["publish"] is originals["publish"]
    assert ProcessExecutor.__dict__["run"] is originals["run"]


def test_every_metric_name_is_valid_and_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    emitted = {**bench.END_TO_END_UNITS, **layers.PER_LAYER_UNITS}
    for name in emitted:
        assert NAME.fullmatch(name), name
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_digest_matches_bench_smoke():
    sys.path.insert(0, str(ROOT / "scripts"))
    import bench_smoke

    w = workloads.get("stateless-cvc")
    dg = w.make_cusp().partition(w.build(w.default_seed, "tiny"))
    assert bench.partition_digest(dg) == bench_smoke.partition_digest(dg)


def _traced_span_names(workload, seed):
    graph = workload.build(seed, "tiny")
    tracer = Tracer()
    tracer.install(layers.layer_targets("serial"))
    try:
        workload.make_cusp(executor="serial").partition(graph)
    finally:
        tracer.uninstall()
    return graph, Counter(tracer.names[i] for i in tracer.name_id)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seed_changes_graph_not_code_path(name):
    w = workloads.get(name)
    g1, path1 = _traced_span_names(w, w.default_seed)
    g2, path2 = _traced_span_names(w, w.default_seed + 1)
    assert g1.num_edges == g2.num_edges
    assert not np.array_equal(g1.indices, g2.indices)
    assert path1 == path2


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_of_each_workload_is_correct(name):
    w = workloads.get(name)
    out = bench.measure(w, w.default_seed, 0.2, trace=False, scale="tiny")
    result = out["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["ok_share"]["value"] == 1.0
    assert set(result["metrics"]) == set(bench.END_TO_END_UNITS)
    assert out["record"]["seed"] == w.default_seed


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_traced_run_emits_every_layer_metric(name):
    w = workloads.get(name)
    result = bench.measure(w, w.default_seed, 0.2, trace=True, scale="tiny")["result"]
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(layers.PER_LAYER_UNITS)
    assert result["metrics"]["executor.barriers"]["value"] > 0


def test_stop_children_reaps_tracker_and_stray_children():
    # In a child interpreter, so that only its own children are stopped.
    script = f"""
import subprocess, sys
from multiprocessing import resource_tracker, shared_memory
sys.path[:0] = [{str(ROOT / "src")!r}, {str(ROOT)!r}]
from perfbench import bench
seg = shared_memory.SharedMemory(create=True, size=64)
seg.close()
seg.unlink()
subprocess.Popen(["sleep", "60"])
assert len(bench.child_pids()) == 2, bench.child_pids()
bench.stop_children()
assert resource_tracker._resource_tracker._pid is None
print(sorted(bench.child_pids()))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
