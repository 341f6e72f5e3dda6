"""Set up one workload in a fresh process and print when its inputs are ready.

    python3 perfbench/setup_probe.py <workload> <seed> <size>

Prints the ``time.monotonic()`` at which the inputs are ready, then the
mean time of REFERENCE_RUNS runs of the reference kernel, made right after.
run.py starts this script and runs the kernel as often just before; the
first value minus the start of the process, times ``NOMINAL_S`` over the
mean kernel time, is one setup_s sample.
"""

import statistics
import sys
import time

import workloads
from reference import reference_seconds

# 20 runs take about 0.1 s
REFERENCE_RUNS = 20

if __name__ == "__main__":
    name, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, str(workloads.ROOT / "src"))
    workloads.WORKLOADS[name](seed, size)
    ready = time.monotonic()
    print(ready, statistics.mean(reference_seconds() for _ in range(REFERENCE_RUNS)))
