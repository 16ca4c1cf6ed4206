#!/usr/bin/env python3
"""Print the work counters of traced perfbench runs, one per line.

    python3 bench/counters.py WORKLOAD=FILE [WORKLOAD=FILE ...]

Each FILE holds the stdout of
`python3 perfbench/run.py --workload WORKLOAD --seed 2026 --trace 1`;
its last line is the JSON result. The counters are the ones that repeat
exactly from run to run at a fixed seed: call counts (`*.n`), the vcomp
rewrite counters, simulated cycles, memo hits and misses, store writes
and disk hits, OMT queries and cuts, frame bytes, and typecheck calls per
node. Times, allocation and the ratios
derived from them are left out. CI compares the output with
BENCH_counters.txt; a change that moves a counter on purpose
regenerates the file with this script and says why.
"""

import json
import sys

COUNTERS = (
    "vcomp.rewrites",
    "vcomp.removed",
    "vcomp.hoisted",
    "target.sim.cycles",
    "wcet.memo.hits",
    "wcet.memo.misses",
    "wcet.store.writes",
    "wcet.store.disk_hits",
    "wcet.omt.queries",
    "wcet.omt.cuts",
    "fcstack.frame_bytes",
    "minic.typecheck.per_node",
)


def main() -> int:
    for arg in sys.argv[1:]:
        workload, path = arg.split("=", 1)
        with open(path) as f:
            result = json.loads(f.read().strip().splitlines()[-1])
        metrics = result["metrics"]
        for name in sorted(metrics):
            if name.endswith(".n") or name in COUNTERS:
                print(workload, name, metrics[name]["value"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
