"""Benchmark runner: end-to-end metrics (``--trace 0``) or per-layer
metrics from a traced run (``--trace 1``) for one workload.

Every run rebuilds the workload's input from ``--seed``, partitions it
once untimed on the serial executor (the reference every timed
partition must reproduce), then times warm repetitions of
``CuSP.partition`` for ``--seconds`` seconds with ``gc.collect()``
before each, and reports the median.  Every timed partition is checked
(digest, ``check_partition``, exact quality values, leaked segments and
worker children); a failed check counts against ``ok_share`` and the
run goes on.  The last line of stdout is the result object; the line
before it is the run record (machine, versions, commit, calibration).

``--spread N`` instead runs the workload N times on consecutive seeds
and prints each metric's quartile spread against its bound in
``BENCHMARK.json``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import workloads
from .layers import MB, PER_LAYER_UNITS, build_target, layer_targets, rep_metrics
from .tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
SPANS_DIR = HERE / "out"
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "partition_s": "s",
    "edges_per_s": "edges/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "simulated_s": "sim_s",
    "comm_mb": "MB",
    "replication_factor": "ratio",
    "ok_share": "ratio",
}


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def partition_digest(dg) -> str:
    """SHA-256 over the masters and each partition's global ids, master
    hosts and local CSR (as ``scripts/bench_smoke.py`` computes it)."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(dg.masters).tobytes())
    for part in dg.partitions:
        for arr in (part.global_ids, part.master_host,
                    part.local_graph.indptr, part.local_graph.indices):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def exact_values(dg, graph) -> dict[str, float]:
    """The values that must repeat exactly for one input.  All but
    ``quality.edge_balance`` are end-to-end metrics; edge balance moves
    9-21% from seed to seed, so it is reported by the traced run only."""
    from repro.metrics.quality import measure_quality

    quality = measure_quality(dg, graph)
    return {
        "simulated_s": float(dg.breakdown.total),
        "comm_mb": float(dg.breakdown.comm_bytes()) / MB,
        "replication_factor": float(quality.replication_factor),
        "quality.edge_balance": float(quality.edge_balance),
    }


@dataclass
class Expected:
    digest: str
    exact: dict[str, float]


def output_errors(dg, graph, expect: Expected) -> list[str]:
    """Everything wrong with one partition's output (empty when correct)."""
    from repro.core.validate import check_partition

    errors = []
    digest = partition_digest(dg)
    if digest != expect.digest:
        errors.append(f"digest {digest[:16]} != expected {expect.digest[:16]}")
    # The edge-multiset comparison against ``graph`` ran on the baseline;
    # an equal digest carries it over at a fraction of the cost.
    errors.extend(check_partition(dg).errors)
    exact = exact_values(dg, graph)
    if exact != expect.exact:
        errors.append(f"exact values {exact} != expected {expect.exact}")
    return errors


def leak_errors() -> list[str]:
    """Leaked shared-memory segments or worker children left behind."""
    from repro.runtime.colfab import leaked_segments

    errors = [f"leaked segment {name}" for name in leaked_segments()]
    for pid in child_pids() - {resource_tracker_pid()}:
        errors.append(f"worker child {pid} is still alive or unreaped")
    return errors


def child_pids() -> set[int]:
    """Every child of this process, live or zombie."""
    pids: set[int] = set()
    for task in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{task}/children") as f:
            pids.update(int(pid) for pid in f.read().split())
    return pids


def resource_tracker_pid() -> int | None:
    """``multiprocessing``'s shared-memory tracker: a long-lived helper
    child started by the first segment, not a worker."""
    from multiprocessing import resource_tracker

    return resource_tracker._resource_tracker._pid


def stop_children() -> None:
    """Stop and reap every child of this process before it exits.

    The resource tracker would otherwise outlive the run (and linger as
    a zombie where nothing reaps orphans); a partition that failed may
    have left a worker behind.
    """
    from multiprocessing import resource_tracker

    gc.collect()  # run pending executor finalizers while the tracker is up
    resource_tracker._resource_tracker._stop()
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


# ----------------------------------------------------------------------
# Timing
# ----------------------------------------------------------------------
def _malloc_trim():
    try:
        return ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):  # not glibc
        return None


MALLOC_TRIM = _malloc_trim()


def reset_peak_rss() -> None:
    """Reset this process's ``VmHWM`` to its current RSS, after handing
    freed heap back to the kernel: otherwise the peak would include
    whatever the allocator happened to retain from earlier work, which
    varies from run to run."""
    if MALLOC_TRIM is not None:
        MALLOC_TRIM(0)
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb(with_children: bool) -> float:
    with open("/proc/self/status") as f:
        kib = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    if with_children:
        # Largest reaped worker so far (Linux reports KiB).
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib * 1024 / MB


def calibrate() -> float:
    """Median time of a fixed pure-Python loop: a machine-speed probe."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@dataclass
class Rep:
    seconds: float | None  # None when the partition raised
    peak_mb: float
    errors: list[str] = field(default_factory=list)
    layers: dict[str, float] | None = None


def run_rep(cusp, graph, expect: Expected, process: bool, on_result=None) -> Rep:
    """One checked partition; ``on_result(dg)`` runs right after it
    returns (with ``None`` if it raised)."""
    gc.collect()
    reset_peak_rss()
    t0 = time.perf_counter()
    try:
        dg = cusp.partition(graph)
    except Exception:  # a failed partition is counted; the run goes on
        traceback.print_exc()
        if on_result is not None:
            on_result(None)
        return Rep(None, peak_rss_mb(process), ["partition raised"] + leak_errors())
    seconds = time.perf_counter() - t0
    rep = Rep(seconds, peak_rss_mb(process))
    if on_result is not None:
        rep.layers = on_result(dg)
    rep.errors = output_errors(dg, graph, expect) + leak_errors()
    for err in rep.errors:
        print(f"check failed: {err}", file=sys.stderr)
    return rep


def timed_reps(cusp, graph, expect, process, seconds, on_result=None) -> list[Rep]:
    reps: list[Rep] = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        reps.append(run_rep(cusp, graph, expect, process, on_result))
    return reps


def median_seconds(reps: list[Rep]) -> float:
    times = [r.seconds for r in reps if r.seconds is not None]
    if not times:
        raise RuntimeError("every timed partition raised")
    return statistics.median(times)


def setup_seconds(workload, seed: int, scale: str) -> float:
    """Median of fresh-interpreter set-ups (import, build, construct)."""
    totals = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), "--workload",
             workload.name, "--seed", str(seed), "--scale", scale],
            capture_output=True, text=True, check=True, timeout=120,
        )
        totals.append(sum(json.loads(proc.stdout.splitlines()[-1]).values()))
    return statistics.median(totals)


def commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def reference_digest(workload, seed: int, scale: str) -> str | None:
    if seed != workload.default_seed:
        return None
    return json.loads(REFERENCES.read_text()).get(workload.name, {}).get(scale)


def baseline(workload, graph, seed: int, scale: str) -> tuple[Expected, float, list[str]]:
    """One untimed serial partition: the expected output of every timed
    one, its wall time, and what is wrong with it."""
    gc.collect()
    t0 = time.perf_counter()
    dg = workload.make_cusp(executor="serial").partition(graph)
    seconds = time.perf_counter() - t0
    expect = Expected(partition_digest(dg), exact_values(dg, graph))
    from repro.core.validate import check_partition

    errors = list(check_partition(dg, graph).errors)
    ref = reference_digest(workload, seed, scale)
    if ref is not None and ref != expect.digest:
        errors.append(f"digest {expect.digest[:16]} != reference {ref[:16]}")
    for err in errors:
        print(f"baseline check failed: {err}", file=sys.stderr)
    return expect, seconds, errors


def measure(workload, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    """One benchmark run; returns the result object and the run record."""
    calibration_start = calibrate()
    tracer = Tracer()
    if trace:
        tracer.install([build_target(workload)])
    graph = workload.build(seed, scale)
    tracer.uninstall()

    expect, serial_s, problems = baseline(workload, graph, seed, scale)
    process = workload.executor != "serial"
    cusp = workload.make_cusp()
    if process:  # warm-up on the workload's own executor
        problems += run_rep(cusp, graph, expect, process).errors

    if not trace:
        reps = timed_reps(cusp, graph, expect, process, seconds)
        partition_s = median_seconds(reps)
        metrics = {
            "partition_s": partition_s,
            "edges_per_s": graph.num_edges / partition_s,
            "setup_s": setup_seconds(workload, seed, scale),
            "peak_rss_mb": statistics.median(r.peak_mb for r in reps),
            **{k: v for k, v in expect.exact.items() if k in END_TO_END_UNITS},
            "ok_share": sum(1 for r in reps if not r.errors) / len(reps),
        }
        units = END_TO_END_UNITS
    else:
        untraced = timed_reps(cusp, graph, expect, process, seconds / 2)
        marks = [len(tracer.start)]

        def collect(dg):
            lo, hi = marks[-1], len(tracer.start)
            marks.append(hi)
            return None if dg is None else rep_metrics(tracer, lo, hi, dg)

        tracer.install(layer_targets(workload.executor))
        try:
            traced = timed_reps(cusp, graph, expect, process, seconds / 2, collect)
        finally:
            tracer.uninstall()
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write(SPANS_DIR / f"spans-{workload.name}.npz")
        reps = untraced + traced
        units = PER_LAYER_UNITS
        untraced_s = median_seconds(untraced)
        layer_reps = [r.layers for r in traced if r.layers is not None]
        metrics = {
            name: (
                statistics.median_low if units[name] == "count" else statistics.median
            )(r[name] for r in layer_reps)
            for name in layer_reps[0]
        } if layer_reps else {}
        # Span 0 is the generator call that built the input.
        metrics["graph.build_s"] = tracer.end[0] - tracer.start[0]
        metrics["executor.serial_ratio"] = untraced_s / serial_s
        metrics["trace.overhead"] = median_seconds(traced) / untraced_s - 1.0
        metrics["quality.edge_balance"] = expect.exact["quality.edge_balance"]

    failed = sum(1 for r in reps if r.errors)
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    record = {
        "workload": workload.name,
        "seed": seed,
        "scale": scale,
        "trace": int(trace),
        "repetitions": len(reps),
        "rep_seconds": [r.seconds for r in reps],
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit(),
        "calibration_start_s": calibration_start,
        "calibration_end_s": calibrate(),
    }
    return {
        "record": record,
        "result": {
            "correct": failed == 0 and not problems,
            "attempted": len(reps),
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name], "unit": unit}
                for name, unit in units.items()
            },
        },
    }


# ----------------------------------------------------------------------
# Steadiness report
# ----------------------------------------------------------------------
def spread_report(workload, first_seed: int, runs: int, seconds: float, trace: int) -> int:
    """Run ``workload`` on ``runs`` consecutive seeds and print each
    metric's quartile spread (Q3 - Q1 over the median) against its bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values: dict[str, list[float]] = {}
    for seed in range(first_seed, first_seed + runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload.name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        *_, record_line, result_line = proc.stdout.splitlines()
        record, result = json.loads(record_line)["record"], json.loads(result_line)
        print(f"seed {seed}: correct={result['correct']} "
              f"{result['attempted'] - result['failed']}/{result['attempted']} ok, "
              f"calibration {record['calibration_start_s']:.4f}"
              f"/{record['calibration_end_s']:.4f} s, repetitions "
              + " ".join(f"{t:.3f}" for t in record["rep_seconds"] if t is not None),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    worst = 0
    print(f"{'metric':<40} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "ok" if spread < bound / 3 else ("wide" if spread <= bound else "OVER")
            if verdict == "OVER" and name != "setup_s":
                worst = 1
        print(f"{name:<40} {med:>14.6g} {spread:>8.2%} "
              f"{'' if bound is None else f'{bound:.2f}':>6} {verdict}")
    return worst


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def write_references(scale: str) -> None:
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    for workload in workloads.WORKLOADS.values():
        graph = workload.build(workload.default_seed, scale)
        dg = workload.make_cusp(executor="serial").partition(graph)
        refs.setdefault(workload.name, {})[scale] = partition_digest(dg)
    REFERENCES.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, help="default: the recipe's seed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("bench", "tiny"), default="bench")
    parser.add_argument("--spread", type=int, metavar="N",
                        help="run N seeds and print each metric's spread")
    parser.add_argument("--write-reference", action="store_true",
                        help="record the default-seed digests of every workload")
    args = parser.parse_args(argv)

    if args.write_reference:
        write_references(args.scale)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = workloads.get(args.workload)
    seed = workload.default_seed if args.seed is None else args.seed
    if args.spread:
        return spread_report(workload, seed, args.spread, args.seconds, args.trace)
    try:
        out = measure(workload, seed, args.seconds, bool(args.trace), args.scale)
    finally:
        stop_children()
    print(json.dumps({"record": out["record"]}))
    print(json.dumps(out["result"]))
    return 0
