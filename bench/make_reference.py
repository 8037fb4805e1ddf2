"""Write the reference CSVs of every workload at the default seed.

    python3 bench/make_reference.py

Run from the root of a checkout.  The output check compares every sweep at
the default seed with these files (``outcheck.REL_TOL``); regenerate them
only when a change is meant to move the values, and say why in CHANGES.md.
"""

import shutil
import sys

from run import REFERENCE_DIR, Bench
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in WORKLOADS:
        bench = Bench(name, DEFAULT_SEED, 0.0, False, reference=None)
        bench.prepare()
        try:
            report = bench.sweep("sweep")
            if report is None or bench.failed:
                print("\n".join(bench.problems), file=sys.stderr)
                return 1
            shutil.copyfile(bench.csv_path, REFERENCE_DIR / f"{name}.csv")
        finally:
            shutil.rmtree(bench.dir, ignore_errors=True)
        print(f"{name}: {bench.tasks} tasks, sweep {report['sweep_s']:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
