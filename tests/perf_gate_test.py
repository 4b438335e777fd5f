#!/usr/bin/env python3
"""Drives tools/perf_gate.py on fixture baselines and recorded runs (no benchmark runs).

    python3 tests/perf_gate_test.py
"""
import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GATE = os.path.join(ROOT, "tools", "perf_gate.py")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BASE = {"events_per_s": 100000.0, "setup_s": 0.5}
BASELINE = {
    "dirty": False, "tree": {"src": "0" * 40, "perfbench": "1" * 40},
    "run_seconds": SPEC["run_seconds"], "seeds": list(range(1, 11)),
    "workloads": {w: {name: {"median": v, "q1": v * 0.98, "q3": v * 1.02, "runs": 10}
                      for name, v in BASE.items()} for w in WORKLOADS},
}


def runs(scale=None, workloads=WORKLOADS):
    """Five runs per workload within 2% of the baseline; scale[(w, metric)] shifts them."""
    lines = []
    for w in workloads:
        for seed in range(1, 6):
            metrics = {name: {"value": v * (1 + (seed - 3) * 0.01) *
                              (scale or {}).get((w, name), 1.0)}
                       for name, v in BASE.items()}
            lines.append({"workload": w, "seed": seed, "result": {
                "correct": True, "attempted": 4, "failed": 0, "metrics": metrics}})
    return lines


class PerfGateTest(unittest.TestCase):
    def gate(self, lines, baseline=BASELINE):
        with tempfile.TemporaryDirectory() as tmp:
            base_path = os.path.join(tmp, "baseline.json")
            runs_path = os.path.join(tmp, "runs.jsonl")
            with open(base_path, "w") as f:
                json.dump(baseline, f)
            with open(runs_path, "w") as f:
                f.writelines(json.dumps(line) + "\n" for line in lines)
            return subprocess.run([sys.executable, GATE, "--baseline", base_path,
                                   "--results", runs_path], capture_output=True, text=True)

    def assertFails(self, proc, *words):
        self.assertEqual(proc.returncode, 1, proc.stderr)
        for word in words:
            self.assertIn(word, proc.stderr)

    def test_passes_within_bound(self):
        proc = self.gate(runs({("saturation", "events_per_s"): 0.8,
                               ("kv-reboot", "setup_s"): 1.2}))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(proc.stderr.count(" ok\n"), 2 * len(WORKLOADS), proc.stderr)

    def test_fails_when_events_per_s_drops_past_bound(self):
        proc = self.gate(runs({("saturation", "events_per_s"): 0.7}))
        self.assertFails(proc, "past its bound: saturation events_per_s\n")

    def test_fails_when_setup_s_rises_past_bound(self):
        proc = self.gate(runs({("chaos-swarm", "setup_s"): 1.3}))
        self.assertFails(proc, "past its bound: chaos-swarm setup_s\n")

    def test_fails_on_incorrect_run(self):
        lines = runs()
        lines[7]["result"]["correct"] = False
        self.assertFails(self.gate(lines), "kv-reboot seed 3: correct false")

    def test_fails_on_failed_units(self):
        lines = runs()
        lines[1]["result"]["failed"] = 1
        self.assertFails(self.gate(lines), "saturation seed 2:", "failed 1")

    def test_fails_when_a_workload_is_missing(self):
        self.assertFails(self.gate(runs(workloads=WORKLOADS[:2])), WORKLOADS[2], "0 run(s)")

    def test_refuses_a_dirty_baseline(self):
        baseline = dict(BASELINE, dirty=True)
        self.assertFails(self.gate(runs(), baseline), "refused: written from a dirty tree")

    def test_refuses_a_baseline_missing_a_workload_or_field(self):
        baseline = copy.deepcopy(BASELINE)
        del baseline["workloads"]["kv-reboot"]
        self.assertFails(self.gate(runs(), baseline), "refused", "kv-reboot")
        baseline = copy.deepcopy(BASELINE)
        del baseline["tree"]
        self.assertFails(self.gate(runs(), baseline), "refused", "tree")


if __name__ == "__main__":
    unittest.main()
