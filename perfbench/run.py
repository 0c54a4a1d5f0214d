"""Entry point of the CuSP partitioner benchmark (see ``README.md``).

    python3 perfbench/run.py --workload stateless-cvc --seed 34 --seconds 20 --trace 0
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench.bench import main

    raise SystemExit(main())
