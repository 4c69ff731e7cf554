#!/usr/bin/env python3
"""Tests for tools/bench_diff.py, the CI gate over BENCH_*.json files.

Run from anywhere:  python3 tools/test_bench_diff.py
"""
import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_diff  # noqa: E402


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def write(self, name, content):
        path = os.path.join(self._dir.name, name)
        with open(path, "w") as f:
            f.write(content if isinstance(content, str) else json.dumps(content))
        return path

    def run_diff(self, *args):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = bench_diff.main(["bench_diff.py", *args])
        return code, out.getvalue(), err.getvalue()

    def test_gated_scenario_within_threshold_passes_and_beyond_fails(self):
        base = self.write("base.json",
                          [{"scenario": "miss_heavy", "mops_per_s": 10.0}])
        within = self.write("within.json",
                            [{"scenario": "miss_heavy", "mops_per_s": 9.0}])
        beyond = self.write("beyond.json",
                            [{"scenario": "miss_heavy", "mops_per_s": 8.0}])
        code, out, _ = self.run_diff("--fail-threshold", "15", base, within)
        self.assertEqual(code, 0)
        self.assertIn("Gate: OK", out)
        code, out, err = self.run_diff("--fail-threshold", "15", base, beyond)
        self.assertEqual(code, 1)
        self.assertIn("**FAIL**", out)
        self.assertIn("miss_heavy regressed 20.0%", err)

    def test_one_sided_scenarios_are_rows_and_never_gate(self):
        base = self.write("base.json",
                          [{"scenario": "miss_heavy", "mops_per_s": 10.0},
                           {"scenario": "gone", "mops_per_s": 50.0}])
        curr = self.write("curr.json",
                          [{"scenario": "miss_heavy", "mops_per_s": 10.0},
                           {"scenario": "fresh", "mops_per_s": 0.5}])
        code, out, _ = self.run_diff("--fail-threshold", "15", base, curr)
        self.assertEqual(code, 0)
        self.assertIn("| fresh | - | 0.50 | new |", out)
        self.assertIn("| gone | 50.00 | - | removed |", out)

    def test_missing_gated_scenario_fails_naming_the_file(self):
        has = [{"scenario": "miss_heavy", "mops_per_s": 10.0}]
        lacks = [{"scenario": "other", "mops_per_s": 10.0}]
        for base_rows, curr_rows, lacking in ((has, lacks, "curr.json"),
                                              (lacks, has, "base.json")):
            base = self.write("base.json", base_rows)
            curr = self.write("curr.json", curr_rows)
            code, out, _ = self.run_diff("--fail-threshold", "15", base, curr)
            self.assertEqual(code, 1)
            named = os.path.join(self._dir.name, lacking)
            self.assertIn(f"`miss_heavy` absent from {named}", out)
            self.assertNotIn("both", out)

    def test_malformed_file_exits_2(self):
        good = self.write("good.json",
                          [{"scenario": "miss_heavy", "mops_per_s": 10.0}])
        for bad in ("{not json", {"scenario": "miss_heavy"}, [{"x": 1}]):
            path = self.write("bad.json", bad)
            code, _, err = self.run_diff(good, path)
            self.assertEqual(code, 2)
            self.assertIn("bad input", err)


if __name__ == "__main__":
    unittest.main()
