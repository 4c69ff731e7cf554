#!/usr/bin/env python3
"""Diff two BENCH_*.json exports and print a markdown report.

Usage:
    tools/bench_diff.py BASELINE.json CURRENT.json
    tools/bench_diff.py --fail-threshold 15 BASELINE.json CURRENT.json

Both files are JSON arrays of scenario rows, as bench_translation,
bench_collocation and bench_overcommit write them.  The report is titled
after the two files' names.  Scenarios are matched by name; the report
shows mops_per_s for both sides and the current/baseline ratio, plus
lat_p99 (simulated cycles) when either side exports it.  Scenarios present on only one side
(e.g. a bench that grew new cells after its baseline was committed)
appear as table rows with "new" / "removed" in the ratio column rather
than being dropped, and fields a side lacks (older baselines predate
lat_p*) render as "-" instead of erroring — the schema is allowed to
grow without invalidating committed baselines.  One-sided scenarios
never gate: only a shared, gated scenario can fail the threshold.

Without --fail-threshold the tool is report-only: it always exits 0
after a successful comparison.  With --fail-threshold PCT it becomes a
gate: any gated scenario (default: miss_heavy; override with --gate,
repeatable) whose current throughput falls more than PCT percent below
the baseline fails the run with exit code 1.  The gate covers only the
scenarios named by --gate because mixed-load scenarios on shared CI
runners are too noisy for tight thresholds (see BENCHMARKS.md "Reading
bench_diff.py output"); miss_heavy is walker-bound and stable enough
to gate at a generous 15%.  A gated scenario missing from either file
also fails the gate, naming the file that lacks it.  Exit code 2 still
means an input file was missing or malformed.
"""
import argparse
import json
import os
import sys


def load(path):
    with open(path) as f:
        rows = json.load(f)
    if not isinstance(rows, list):
        raise ValueError(f"{path}: expected a JSON array of scenario rows")
    out = {}
    for row in rows:
        if not isinstance(row, dict) or "scenario" not in row:
            raise ValueError(f"{path}: row without a 'scenario' field: {row!r}")
        out[row["scenario"]] = row
    return out


def fmt_lat(row):
    """lat_p99 cell; '-' for baselines that predate the field."""
    value = row.get("lat_p99")
    return "-" if value is None else f"{value}"


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("current", help="freshly produced JSON")
    parser.add_argument("--fail-threshold", type=float, default=None,
                        metavar="PCT",
                        help="fail (exit 1) if a gated scenario regresses by "
                             "more than PCT percent vs the baseline")
    parser.add_argument("--gate", action="append", default=None,
                        metavar="SCENARIO",
                        help="scenario the threshold applies to (repeatable; "
                             "default: miss_heavy)")
    args = parser.parse_args(argv[1:])
    gates = args.gate if args.gate else ["miss_heavy"]

    try:
        baseline = load(args.baseline)
        current = load(args.current)
    except (OSError, ValueError, KeyError, TypeError) as err:
        print(f"bench_diff: bad input: {err}", file=sys.stderr)
        return 2

    shared = [name for name in baseline if name in current]
    only_base = [name for name in baseline if name not in current]
    only_curr = [name for name in current if name not in baseline]

    print(f"### {os.path.basename(args.current)} vs "
          f"{os.path.basename(args.baseline)}")
    print()
    print("| scenario | baseline Mops/s | current Mops/s | ratio "
          "| base p99 cyc | curr p99 cyc |")
    print("|---|---:|---:|---:|---:|---:|")
    failures = []
    for name in shared:
        # .get(): a side missing a field (old baseline, new schema) reports
        # as 0/'-' instead of KeyError-ing the whole comparison.
        old = baseline[name].get("mops_per_s", 0.0)
        new = current[name].get("mops_per_s", 0.0)
        ratio = new / old if old > 0 else float("inf")
        gated = args.fail_threshold is not None and name in gates
        mark = ""
        if gated and ratio < 1.0 - args.fail_threshold / 100.0:
            failures.append((name, old, new, ratio))
            mark = " **FAIL**"
        print(f"| {name} | {old:.2f} | {new:.2f} | {ratio:.2f}x{mark} "
              f"| {fmt_lat(baseline[name])} | {fmt_lat(current[name])} |")
    # One-sided scenarios become rows too — a bench whose cell set changed
    # (new sweep axis, renamed scenario) must be visible in the same table
    # the reviewer is already reading, not hidden or silently skipped.
    for name in only_curr:
        new = current[name].get("mops_per_s", 0.0)
        print(f"| {name} | - | {new:.2f} | new "
              f"| - | {fmt_lat(current[name])} |")
    for name in only_base:
        old = baseline[name].get("mops_per_s", 0.0)
        print(f"| {name} | {old:.2f} | - | removed "
              f"| {fmt_lat(baseline[name])} | - |")
    print()
    if args.fail_threshold is None:
        print("_Report-only: pass --fail-threshold to gate on a regression._")
        return 0
    if failures:
        print(f"_Gate: FAILED — regression beyond {args.fail_threshold:g}% "
              "on: " + ", ".join(f"`{n}`" for n, *_ in failures) + "._")
        for name, old, new, ratio in failures:
            print(f"bench_diff: {name} regressed {100 * (1 - ratio):.1f}% "
                  f"({old:.2f} -> {new:.2f} Mops/s), threshold "
                  f"{args.fail_threshold:g}%", file=sys.stderr)
        return 1
    # A gate that silently never runs is worse than no gate.  Name the
    # file(s) that lack each gated scenario.
    missing = []
    for gate in gates:
        lacking = [path for path, rows in ((args.baseline, baseline),
                                           (args.current, current))
                   if gate not in rows]
        if lacking:
            missing.append(f"`{gate}` absent from {' and '.join(lacking)}")
    if missing:
        print("_Gate: FAILED — " + "; ".join(missing) + "._")
        return 1
    print(f"_Gate: OK — {', '.join(f'`{g}`' for g in gates)} within "
          f"{args.fail_threshold:g}% of baseline._")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
