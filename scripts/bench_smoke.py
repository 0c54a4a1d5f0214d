#!/usr/bin/env python
"""Benchmark smoke test: tiny graph, throughput floor + result digests.

Partitions a small deterministic graph with one policy per edge-rule
family — CVC (stateless, vectorized) and PGC (stateful PowerGraph
greedy, whose estate is reconciled at every host boundary) — and asserts

* each policy's partition digest matches the committed reference
  (``scripts/bench_smoke_reference.json``) — partitions are a pure
  function of (graph, policy, seed), so any drift is a real behaviour
  change, not noise;
* CVC agrees across both fabrics and the process executor;
* CVC on the columnar fabric clears a *very* conservative wall-clock
  throughput floor, catching order-of-magnitude perf regressions
  without the variance problems of asserting real benchmark numbers
  in CI.

Regenerate the reference (only after an intended behaviour change)
with ``python scripts/bench_smoke.py --write-reference``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from repro.core import CuSP  # noqa: E402
from repro.graph import erdos_renyi  # noqa: E402

REFERENCE = Path(__file__).with_name("bench_smoke_reference.json")

NUM_NODES = 2_000
NUM_EDGES = 24_000
SEED = 5
POLICY = "CVC"
#: Checked by digest only: the stateful edge-rule family.
STATEFUL_POLICY = "PGC"
NUM_HOSTS = 4
#: Floor in edges/second — two orders of magnitude below what a
#: single modern core measures, so only a gross regression trips it.
THROUGHPUT_FLOOR = 50_000.0


def partition_digest(dg) -> str:
    """SHA-256 over every array that defines the partitions."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(dg.masters).tobytes())
    for part in dg.partitions:
        for arr in (part.global_ids, part.master_host,
                    part.local_graph.indptr, part.local_graph.indices):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def run() -> dict:
    graph = erdos_renyi(NUM_NODES, NUM_EDGES, seed=SEED)
    t0 = time.perf_counter()
    dg = CuSP(NUM_HOSTS, POLICY, fabric="columnar").partition(graph)
    elapsed = time.perf_counter() - t0
    scalar_dg = CuSP(NUM_HOSTS, POLICY, fabric="scalar").partition(graph)
    # The process executor must complete and reproduce the digest (its
    # wall-clock is not floored: fork/pickle overhead dominates at this
    # graph size and only the serial throughput guards regressions).
    process_dg = CuSP(
        NUM_HOSTS, POLICY, fabric="columnar", executor="process"
    ).partition(graph)
    pgc_dg = CuSP(NUM_HOSTS, STATEFUL_POLICY).partition(graph)
    return {
        "digests": {
            POLICY: partition_digest(dg),
            STATEFUL_POLICY: partition_digest(pgc_dg),
        },
        "scalar_digest": partition_digest(scalar_dg),
        "process_digest": partition_digest(process_dg),
        "edges": graph.num_edges,
        "elapsed_s": elapsed,
        "edges_per_s": graph.num_edges / elapsed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="record the current digest as the committed reference",
    )
    args = parser.parse_args(argv)
    result = run()

    digest = result["digests"][POLICY]
    if digest != result["scalar_digest"]:
        print("FAIL: columnar and scalar fabrics disagree", file=sys.stderr)
        return 1

    if digest != result["process_digest"]:
        print("FAIL: process executor diverges from serial", file=sys.stderr)
        return 1

    if args.write_reference:
        REFERENCE.write_text(json.dumps({
            "num_hosts": NUM_HOSTS,
            "graph": {"nodes": NUM_NODES, "edges": NUM_EDGES, "seed": SEED},
            "digests": result["digests"],
        }, indent=2) + "\n")
        for policy, value in result["digests"].items():
            print(f"reference written: {policy} {value[:16]}…")
        return 0

    if not REFERENCE.exists():
        print(f"FAIL: no committed reference at {REFERENCE}", file=sys.stderr)
        return 1
    expected = json.loads(REFERENCE.read_text())["digests"]
    for policy, got in result["digests"].items():
        if got != expected.get(policy):
            print(
                f"FAIL: {policy} partition digest drifted\n"
                f"  expected {expected.get(policy)}\n"
                f"  got      {got}\n"
                "(if the change is intended, rerun with --write-reference)",
                file=sys.stderr,
            )
            return 1
    if result["edges_per_s"] < THROUGHPUT_FLOOR:
        print(
            f"FAIL: throughput {result['edges_per_s']:.0f} edges/s below "
            f"the {THROUGHPUT_FLOOR:.0f} floor",
            file=sys.stderr,
        )
        return 1
    print(
        f"bench-smoke OK: {POLICY} digest {digest[:16]}…, "
        f"{STATEFUL_POLICY} digest {result['digests'][STATEFUL_POLICY][:16]}…, "
        f"{result['edges_per_s'] / 1e6:.2f} Medges/s "
        f"({result['elapsed_s'] * 1e3:.0f} ms)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
