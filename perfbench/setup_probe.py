"""Time one cold set-up of a workload in a fresh process and print the
seconds: the imports (numpy, scipy, codimflow), the inputs built from the
seed, the first geometry bundle and, for the sphere, scipy's first solve.

    python3 perfbench/setup_probe.py <workload> <seed> [--small]
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    workloads.WORKLOADS[name].prepare(seed, small="--small" in sys.argv[3:])
    print(repr(time.perf_counter() - _T0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
