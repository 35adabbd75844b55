"""Time one cold set-up: import dunklpoly and generate the workload inputs.

Run by ``run.py`` in a fresh interpreter.  It imports nothing else first,
so modules that ``dunklpoly`` shares with the benchmark (argparse, json) are
paid for here as a user pays for them.  Prints the measured seconds and the
machine-speed factor (see ``speed.py``) from kernel samples taken right
after.

    python3 perfbench/probe.py <src dir> <workload> <seed> <passes>
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import dunklpoly.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.requests(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))
elapsed = time.perf_counter() - start

import speed  # noqa: E402

kernel = [speed.kernel_seconds()[0] for _ in range(8)]
print(repr(elapsed), repr(speed.KERNEL_REF_S * len(kernel) / sum(kernel)))
