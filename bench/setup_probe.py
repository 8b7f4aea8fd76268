"""Set up one workload in a fresh process, print the monotonic clock, exit.

    python3 bench/setup_probe.py <workload> <seed> <workdir>

Covers what a user pays before the first operation: interpreter start,
imports, config parsing, codec and receiver construction and loading the
optimizer weights.  The inputs run.py generated must be in <workdir>.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1:4]
    workloads.ACTIVITIES[name](int(seed), workdir,
                               os.path.dirname(HERE)).setup()
    print(time.perf_counter())
