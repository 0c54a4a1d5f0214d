"""Which ``repro`` entry points the traced run wraps, and the per-layer
metrics computed from their spans.

Layer names are ``repro`` module names.  ``README.md`` lists, for each
metric, the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import numpy as np

from .tracer import Target, self_times

__all__ = ["PHASES", "MB", "layer_targets", "build_target", "rep_metrics", "PER_LAYER_UNITS"]

MB = 1e6

#: Figure 4's phases (``repro.core.framework.PHASE_NAMES``) -> metric prefix.
PHASES = {
    "Graph Reading": "graph_reading",
    "Master Assignment": "master_assignment",
    "Edge Assignment": "edge_assignment",
    "Graph Allocation/Other": "graph_allocation",
    "Graph Construction": "graph_construction",
}

#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER_UNITS = {
    "graph.build_s": "s",
    "prop.build_s": "s",
    "reading.ranges_s": "s",
    "assignment_phase.hostgroups_s": "s",
    "assignment_phase.hostgroups_calls": "count",
    "assignment_phase.wall_s": "s",
    "assignment_phase.self_s": "s",
    "construction_phase.alloc_wall_s": "s",
    "construction_phase.construct_wall_s": "s",
    "partition_io.roundtrip_s": "s",
    "partition_io.roundtrip_mb": "MB",
    "edge_rules.owner_calls": "count",
    "edge_rules.owner_s": "s",
    "edge_rules.owner_us_per_call": "us",
    "masters_phase.wall_s": "s",
    "masters_phase.self_s": "s",
    "masters_phase.barriers": "count",
    "executor.barriers": "count",
    "executor.barrier_s": "s",
    "executor.barrier_max_s": "s",
    "executor.wait_s": "s",
    "executor.publish_s": "s",
    "executor.publish_calls": "count",
    "executor.serial_ratio": "ratio",
    "colfab.encode_calls": "count",
    "colfab.encode_mb": "MB",
    "colfab.encode_s": "s",
    "colfab.decode_calls": "count",
    "colfab.decode_s": "s",
    "colfab.encode_amplification": "ratio",
    "comm.merge_calls": "count",
    "comm.merge_s": "s",
    **{f"{p}.sim_s": "sim_s" for p in PHASES.values()},
    **{f"{p}.comm_mb": "MB" for p in PHASES.values()},
    "quality.edge_balance": "ratio",
    "trace.overhead": "ratio",
}


def _defining_class(cls: type, attr: str) -> type:
    return next(c for c in cls.__mro__ if attr in c.__dict__)


def _roundtrip_bytes(args, kwargs, result) -> int:
    return sum(int(np.asarray(a).nbytes) for a in kwargs.values())


def build_target(workload) -> Target:
    """The generator call that builds ``workload``'s input."""
    from repro.graph import generators

    return Target("graph.build", generators, workload.generator)


def layer_targets(executor_name: str) -> list[Target]:
    """Wrappers for one partition, on the named concrete executor."""
    from repro.core import assignment_phase, construction_phase, masters_phase, reading
    from repro.core.partition_io import PartitionCheckpoint
    from repro.core.prop import GraphProp
    from repro.core.streaming_rules import GreedyVertexCut
    from repro.runtime.colfab import MessageBatch
    from repro.runtime.comm import Communicator
    from repro.runtime.executor import ProcessExecutor, SerialExecutor

    executor_cls = {"serial": SerialExecutor, "process": ProcessExecutor}[executor_name]
    return [
        Target("prop.build", GraphProp, "__init__"),
        Target("reading.ranges", reading, "compute_read_ranges"),
        Target("assignment_phase.hostgroups", assignment_phase.HostGroups, "__init__"),
        Target("assignment_phase.run", assignment_phase, "run_edge_assignment"),
        Target("construction_phase.alloc", construction_phase, "run_allocation"),
        Target("construction_phase.construct", construction_phase, "run_construction"),
        Target(
            "partition_io.roundtrip", PartitionCheckpoint, "roundtrip",
            size=_roundtrip_bytes,
        ),
        Target("edge_rules.owner", GreedyVertexCut, "owner"),
        Target("masters_phase.run", masters_phase, "run_master_assignment"),
        Target("executor.run", _defining_class(executor_cls, "run"), "run"),
        Target(
            "executor.publish", _defining_class(executor_cls, "publish"), "publish"
        ),
        Target(
            "colfab.encode", MessageBatch, "to_bytes",
            size=lambda args, kwargs, result: len(result),
        ),
        Target("colfab.decode", MessageBatch, "from_bytes"),
        Target("comm.merge", Communicator, "merge_ledger"),
    ]


def rep_metrics(tracer, lo: int, hi: int, dg) -> dict[str, float]:
    """Per-layer metrics from spans ``[lo, hi)`` of one traced partition
    and its result ``dg`` (the ratio metrics that need untraced timings
    are filled in by the caller)."""
    spans = tracer.arrays(lo, hi)
    names = np.asarray(tracer.names)[spans["name_id"]] if hi > lo else np.array([], dtype=str)
    parent = spans["parent"]
    dur = spans["end"] - spans["start"]
    self_t = self_times(parent, spans["start"], spans["end"])

    def of(name):
        return names == name

    def wall(name):
        return float(dur[of(name)].sum())

    def own(name):
        return float(self_t[of(name)].sum())

    def calls(name):
        return int(of(name).sum())

    def nbytes(name):
        ids = np.flatnonzero(of(name)) + lo
        return sum(tracer.nbytes.get(int(i), 0) for i in ids)

    is_master = of("masters_phase.run")
    master_barriers = 0
    for i in np.flatnonzero(of("executor.run")):
        p = parent[i]
        while p >= 0 and not is_master[p]:
            p = parent[p]
        master_barriers += int(p >= 0)

    owner_calls = calls("edge_rules.owner")
    barrier_durs = dur[of("executor.run")]
    out = {
        "prop.build_s": wall("prop.build"),
        "reading.ranges_s": wall("reading.ranges"),
        "assignment_phase.hostgroups_s": wall("assignment_phase.hostgroups"),
        "assignment_phase.hostgroups_calls": calls("assignment_phase.hostgroups"),
        "assignment_phase.wall_s": wall("assignment_phase.run"),
        "assignment_phase.self_s": own("assignment_phase.run"),
        "construction_phase.alloc_wall_s": wall("construction_phase.alloc"),
        "construction_phase.construct_wall_s": wall("construction_phase.construct"),
        "partition_io.roundtrip_s": wall("partition_io.roundtrip"),
        "partition_io.roundtrip_mb": nbytes("partition_io.roundtrip") / MB,
        "edge_rules.owner_calls": owner_calls,
        "edge_rules.owner_s": wall("edge_rules.owner"),
        "edge_rules.owner_us_per_call": (
            wall("edge_rules.owner") / owner_calls * 1e6 if owner_calls else 0.0
        ),
        "masters_phase.wall_s": wall("masters_phase.run"),
        "masters_phase.self_s": own("masters_phase.run"),
        "masters_phase.barriers": master_barriers,
        "executor.barriers": int(barrier_durs.size),
        "executor.barrier_s": float(barrier_durs.sum()),
        "executor.barrier_max_s": float(barrier_durs.max(initial=0.0)),
        "executor.wait_s": own("executor.run"),
        "executor.publish_s": wall("executor.publish"),
        "executor.publish_calls": calls("executor.publish"),
        "colfab.encode_calls": calls("colfab.encode"),
        "colfab.encode_mb": nbytes("colfab.encode") / MB,
        "colfab.encode_s": wall("colfab.encode"),
        "colfab.decode_calls": calls("colfab.decode"),
        "colfab.decode_s": wall("colfab.decode"),
        "comm.merge_calls": calls("comm.merge"),
        "comm.merge_s": wall("comm.merge"),
    }
    for phase, prefix in PHASES.items():
        report = dg.breakdown.phase(phase)
        out[f"{prefix}.sim_s"] = float(report.total)
        out[f"{prefix}.comm_mb"] = float(report.comm_bytes) / MB
    masters_mb = out["master_assignment.comm_mb"]
    out["colfab.encode_amplification"] = (
        out["colfab.encode_mb"] / masters_mb if masters_mb else 0.0
    )
    return out
