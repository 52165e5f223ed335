#!/usr/bin/env python3
"""End-to-end benchmark of the SVW sweep system (see BENCHMARK.json).

Builds the simulator library, sweepd and the benchmark program (svwbench)
from the sources beside this directory, runs svwbench's unit tests, then
runs one workload:

    python3 perfbench/run.py --workload figures_cold --seed 1 \
        --seconds 20 --trace 0

Build output and traces go to $CARGO_TARGET_DIR when set, else to
.bench_build/ at the repository root. The last stdout line is the
JSON result; everything else is commentary.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("figures_cold", "service_mixed")


def build_step(cmd):
    # Keep stdout for the result: build chatter goes to stderr.
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("run.py: failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("run.py: no simulator sources next to perfbench/ "
                 "(expected CMakeLists.txt and src/ in " + ROOT + ")")

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                         or ".bench_build")
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        build_step(["cmake", "-S", HERE, "-B", build,
                    "-DCMAKE_BUILD_TYPE=Release"])
    build_step(["cmake", "--build", build, "-j", jobs, "--target",
                "svwbench", "svwbench_test", "sweepd"])
    build_step([os.path.join(build, "svwbench_test"), "--gtest_brief=1"])

    cmd = [os.path.join(build, "svwbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--sweepd", os.path.join(build, "svw", "sweepd")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build, "trace_%s_%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
