#!/usr/bin/env python3
"""Host-time benchmark of the simulator.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --record-reference

The first form builds the simulator and the benchmark from source into
.bench_build/perfbench (RelWithDebInfo), runs one workload for S seconds
and prints the result as one JSON object on the last line of stdout; the
human-readable report goes to stderr.  --selftest runs the benchmark's own
tests.  --record-reference regenerates perfbench/reference_digests.txt,
the per-cell digests every run is checked against; only do that on a
commit whose simulated output is known good.  See perfbench/NOTES.md.
"""

import argparse
import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference_digests.txt"
WORKLOADS = ["clean_frag", "reused_vm", "rack_churn64", "overcommit_reclaim"]
SEED_CYCLE = 32  # kSeedCycle in cells.h
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: simulator sources not found under {ROOT / 'src'}")
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(step)}")
            sys.exit(1)
    return BUILD / target


def clean_env():
    # The simulator reads GEMINI_* knobs from the environment; the
    # benchmark's inputs must come from its arguments alone.
    return {k: v for k, v in os.environ.items() if not k.startswith("GEMINI_")}


def run_workload(args):
    binary = build("perfbench")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", str(REFERENCE)]
    if args.trace:
        cmd += ["--spans-out",
                str(BUILD / f"spans_{args.workload}_{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, env=clean_env(),
                              timeout=RUN_TIMEOUT_S)
        output, code = done.stdout, done.returncode
    except subprocess.TimeoutExpired:
        output, code = "", "timeout"
    lines = output.strip().splitlines()
    if code != 0 or not lines:
        # An aborted run is a failed cell, not a missing measurement.
        log(f"perfbench: benchmark process ended with {code}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    print("\n".join(lines))
    return 0


def selftest():
    binary = build("perfbench_selftest")
    return subprocess.run([str(binary), str(REFERENCE)],
                          env=clean_env()).returncode


def record_reference():
    binary = build("perfbench")
    jobs = [(w, v) for w in WORKLOADS for v in range(SEED_CYCLE)]

    def one(job):
        workload, variant = job
        done = subprocess.run(
            [str(binary), "--workload", workload, "--seed", str(variant),
             "--print-digests"],
            stdout=subprocess.PIPE, text=True, env=clean_env(), check=True)
        log(f"recorded {workload} variant {variant}")
        return done.stdout

    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        outputs = list(pool.map(one, jobs))
    header = ("# Reference cell digests: <workload> <seed variant> <cell index>"
              " <cell name> <digest>.\n"
              "# Written by `python3 perfbench/run.py --record-reference`.\n")
    REFERENCE.write_text(header + "".join(outputs))
    log(f"wrote {REFERENCE}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
