"""Time one benchmark set-up in a fresh interpreter and print the seconds.

``python3 perfbench/setup_probe.py WORKLOAD SEED``: run.py starts several of
these, one after another, so that ``setup_s`` is a median of real imports.
"""

import sys
import time

from workloads import WORKLOADS, setup

if __name__ == "__main__":
    start = time.perf_counter()
    setup(WORKLOADS[sys.argv[1]], int(sys.argv[2]))
    print(repr(time.perf_counter() - start))
