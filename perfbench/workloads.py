"""The benchmark's three workloads, one per CuSP policy family.

Each workload names a policy, an executor and an input recipe from
``repro.graph.datasets`` (at the ``bench`` or ``small`` preset).  The
input is rebuilt from ``repro.graph.generators`` with the benchmark's
seed; the default seed is the recipe's own, so the committed digests in
``references.json`` hold for it.  See ``README.md`` for why each
workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Workload", "WORKLOADS", "NUM_HOSTS", "get"]

#: Partitions (= simulated hosts) for every workload.
NUM_HOSTS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    policy: str
    executor: str
    #: ``repro.graph.generators`` function building the input.
    generator: str
    #: Generator arguments per scale (``bench`` is what the benchmark
    #: runs; ``tiny`` exists for the benchmark's own tests).
    args: dict
    default_seed: int
    sync_rounds: int = 100

    def build(self, seed: int, scale: str = "bench"):
        """The input graph for ``seed`` (generator looked up at call time
        so that a traced run sees the call)."""
        from repro.graph import generators

        return getattr(generators, self.generator)(**self.args[scale], seed=seed)

    def make_cusp(self, executor: str | None = None):
        from repro.core import CuSP

        return CuSP(
            NUM_HOSTS,
            self.policy,
            executor=executor or self.executor,
            sync_rounds=self.sync_rounds,
        )


WORKLOADS = {
    w.name: w
    for w in (
        # wdc@bench: webcrawl stand-in, 60,000 nodes, 2,166,000 edges.
        Workload(
            name="stateless-cvc",
            policy="CVC",
            executor="serial",
            generator="webcrawl_like",
            args={
                "bench": {"num_nodes": 60_000, "avg_degree": 36.1},
                "tiny": {"num_nodes": 1_200, "avg_degree": 36.1},
            },
            default_seed=34,
        ),
        # wdc@small: 12,000 nodes, 433,200 edges.  25 sync rounds rather
        # than the paper's 100: the pooled executor's Master Assignment
        # cost grows with the square of the round count (2.4 s at 25
        # rounds, 31 s at 100 on a 2-core box), and several warm
        # repetitions must fit in one run.
        Workload(
            name="streaming-fec-process",
            policy="FEC",
            executor="process",
            generator="webcrawl_like",
            args={
                "bench": {"num_nodes": 12_000, "avg_degree": 36.1},
                "tiny": {"num_nodes": 1_200, "avg_degree": 36.1},
            },
            default_seed=34,
            sync_rounds=25,
        ),
        # kron@bench: RMAT scale 13, edge factor 17 (8,192 nodes,
        # 139,264 edges).
        Workload(
            name="stateful-pgc-kron",
            policy="PGC",
            executor="serial",
            generator="kronecker",
            args={
                "bench": {"scale": 13, "edge_factor": 17},
                "tiny": {"scale": 8, "edge_factor": 17},
            },
            default_seed=30,
        ),
    )
}


def get(name: str) -> Workload:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[name]
