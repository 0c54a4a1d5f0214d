"""Time one benchmark set-up in a fresh interpreter and print it as JSON.

Set-up is importing ``repro``, building the workload's input graph and
constructing ``CuSP``; no partition runs.  ``bench.py`` starts this
script several times per run and reports the median as ``setup_s``.

    python3 perfbench/probe_setup.py --workload stateless-cvc --seed 34
"""

import argparse
import json
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="bench")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench.workloads import get

    workload = get(args.workload)
    t0 = time.perf_counter()
    import repro.core  # noqa: F401
    import repro.graph.generators  # noqa: F401

    t1 = time.perf_counter()
    workload.build(args.seed, args.scale)
    t2 = time.perf_counter()
    workload.make_cusp()
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1, "construct_s": t3 - t2}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
