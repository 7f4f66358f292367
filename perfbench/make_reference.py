"""Regenerate the reference CSVs the benchmark compares its tables with.

    python3 perfbench/make_reference.py

Runs input set 0 of every workload at the default seed and writes
``perfbench/reference/<workload>/<table>.csv``.  Regenerate only when a
change is meant to alter the tables, and say why in CHANGES.md.
"""

import sys
import tempfile
from pathlib import Path

from run import REFERENCE, Pass, ReferenceKernel
from workloads import DEFAULT_SEED, WORKLOADS, setup


def main():
    with tempfile.TemporaryDirectory(dir=REFERENCE.parent) as scratch:
        for workload in WORKLOADS.values():
            prepared = setup(workload, DEFAULT_SEED)
            run = Pass(prepared, DEFAULT_SEED, Path(scratch), ReferenceKernel(workload.kernel))
            target = REFERENCE / workload.name
            target.mkdir(parents=True, exist_ok=True)
            for table, data in zip(workload.tables, run.outputs):
                if data is None:
                    sys.exit(f"{workload.name}/{table.name} raised at seed {DEFAULT_SEED}")
                (target / f"{table.name}.csv").write_bytes(data)
            print(f"{workload.name}: {len(run.outputs)} tables")


if __name__ == "__main__":
    main()
