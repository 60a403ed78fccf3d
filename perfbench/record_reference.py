"""Record the library numbers of each workload's first mix on the default seed.

    PYTHONPATH=src python3 perfbench/record_reference.py

writes perfbench/reference.json.  The benchmark then requires the same
numbers, within gate.REFERENCE_TOL, whenever it runs on the default seed.
Re-record only when a change to the numbers is intended and explained.
"""

from __future__ import annotations

import json
import sys

import gate
import workloads
from worker import DEFAULT_SEED, REFERENCE


def main() -> int:
    reference = {}
    for name in ("sweep_opt", "point_runs", "mc_sample"):
        summaries = []
        for op in workloads.Workload(name, DEFAULT_SEED).next_mix():
            problems, summary = op.check(op.call())
            if problems:
                print(f"{name} {op.name}: {problems}", file=sys.stderr)
                return 1
            summaries.append(summary)
        reference[name] = summaries
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
