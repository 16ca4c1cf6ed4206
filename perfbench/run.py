#!/usr/bin/env python3
"""Build the toolchain and its benchmark from source, then run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build (dune) writes to _build/ and
its messages go to stderr; the benchmark then runs pinned to one CPU,
and its last line of stdout is its JSON result. See perfbench/README.md
for workloads and metrics.
"""

import os
import shutil
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    try:
        build = subprocess.run(
            dune + ["build", "--root", ".", "./perfbench/bench.exe", "./bin/fcd.exe"],
            cwd=root,
            stdout=sys.stderr,
        )
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 2
    exe = os.path.join(root, "_build", "default", "perfbench", "bench.exe")
    os.chdir(root)
    # The benchmark, and the daemon it starts, run on one CPU, so that the
    # calibration kernel times the CPU that does the measured work (see
    # "host speed" in bench.ml).
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
