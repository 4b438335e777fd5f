#!/usr/bin/env python3
"""Perf gate: holds the repository benchmark's medians to a committed baseline.

    python3 tools/perf_gate.py [--workload W]...                 gate fresh runs
    python3 tools/perf_gate.py [--workload W]... --results FILE  gate recorded runs
    python3 tools/perf_gate.py --write                           rewrite the baseline

The gate runs perfbench/run.py for seeds 1-5 of each workload (default: every
BENCHMARK.json workload) for BENCHMARK.json's run_seconds and prints one JSON line per run,
which --results reads back. It fails on a run with correct false or failed > 0, and when a
workload's median of an end_to_end metric is worse than the baseline's by more than the
metric's bound. --write, from a clean tree only, records seeds 1-10 of every workload in
the baseline (--baseline, default BENCH_perfbench.json): per workload and metric the
median, quartiles and run count, plus the seeds, run length and git tree hashes of src/
and perfbench/.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRICS = SPEC["end_to_end"]
GATE_SEEDS, BASELINE_SEEDS = 5, 10


def fail(message):
    sys.exit("perf_gate: " + message)


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def run(workloads, seeds):
    for workload in workloads:
        for seed in range(1, seeds + 1):
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                fail("%s seed %d: perfbench exited with %d" % (workload, seed, proc.returncode))
            line = {"workload": workload, "seed": seed,
                    "result": json.loads(proc.stdout.strip().splitlines()[-1])}
            print(json.dumps(line), flush=True)
            yield line


def summarize(lines, workloads):
    """Per workload and metric: median, quartiles and run count; fails on a bad run."""
    values = {w: {m["name"]: [] for m in METRICS} for w in workloads}
    for line in lines:
        w, result = line["workload"], line["result"]
        if result["correct"] is not True or result["failed"] > 0:
            fail("%s seed %s: correct %s, failed %s" % (w, line["seed"],
                 json.dumps(result["correct"]), result["failed"]))
        for name, samples in values.get(w, {}).items():
            samples.append(result["metrics"][name]["value"])
    stats = {}
    for w, metrics in values.items():
        for name, samples in metrics.items():
            if len(samples) < GATE_SEEDS:
                fail("%s %s: %d run(s), need at least %d" % (w, name, len(samples), GATE_SEEDS))
            q1, median, q3 = statistics.quantiles(samples, n=4)
            stats.setdefault(w, {})[name] = {
                "median": float("%.6g" % median), "q1": float("%.6g" % q1),
                "q3": float("%.6g" % q3), "runs": len(samples)}
    return stats


def load_baseline(path):
    try:
        base = json.load(open(path))
        fields = [base["dirty"], base["seeds"], base["run_seconds"], base["tree"]["src"],
                  base["tree"]["perfbench"]] + [
                      base["workloads"][w][m["name"]][k] for w in WORKLOADS
                      for m in METRICS for k in ("median", "q1", "q3", "runs")]
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail("baseline %s refused: missing or malformed (%s: %s)" % (path, type(e).__name__, e))
    if None in fields:
        fail("baseline %s refused: a required field is null" % path)
    if base["dirty"] is not False:
        fail("baseline %s refused: written from a dirty tree" % path)
    if base["run_seconds"] != SPEC["run_seconds"]:
        fail("baseline %s ran %s s per run, BENCHMARK.json says %s s"
             % (path, base["run_seconds"], SPEC["run_seconds"]))
    return base


def gate(stats, base):
    failures = []
    for w, metrics in stats.items():
        for m in METRICS:
            now, ref = metrics[m["name"]], base["workloads"][w][m["name"]]["median"]
            ratio = now["median"] / ref
            worse = ratio < 1 - m["bound"] if m["better"] == "higher" else ratio > 1 + m["bound"]
            print("perf_gate: %-11s %-12s median %.6g (IQR %.6g..%.6g, %d runs) vs baseline "
                  "%.6g: %.2fx, bound %.2f %s" % (w, m["name"], now["median"], now["q1"],
                  now["q3"], now["runs"], ref, ratio, m["bound"], "FAIL" if worse else "ok"),
                  file=sys.stderr)
            if worse:
                failures.append("%s %s" % (w, m["name"]))
    if failures:
        fail("median regressed past its bound: " + ", ".join(failures))


def write(stats, path):
    for w, metrics in stats.items():
        for m in METRICS:
            s = metrics[m["name"]]
            if (s["q3"] - s["q1"]) / s["median"] > m["bound"]:
                fail("%s %s: IQR/median above the bound %.2f; runs too noisy for a baseline"
                     % (w, m["name"], m["bound"]))
    base = {"generated_by": "tools/perf_gate.py --write", "dirty": False,
            "tree": {"src": git("rev-parse", "HEAD:src"),
                     "perfbench": git("rev-parse", "HEAD:perfbench")},
            "run_seconds": SPEC["run_seconds"], "seeds": list(range(1, BASELINE_SEEDS + 1)),
            "workloads": stats}
    with open(path, "w") as f:
        f.write(json.dumps(base, indent=2) + "\n")
    print("perf_gate: wrote %s" % path, file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--baseline", default=os.path.join(ROOT, "BENCH_perfbench.json"))
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--results", type=argparse.FileType())
    mode.add_argument("--write", action="store_true")
    args = parser.parse_args()
    workloads = args.workload or WORKLOADS

    if args.write:
        if args.workload:
            fail("--write runs every workload")
        if git("status", "--porcelain"):
            fail("refusing to write a baseline from a dirty tree")
        write(summarize(run(workloads, BASELINE_SEEDS), workloads), args.baseline)
        return
    base = load_baseline(args.baseline)
    if args.results:
        lines = [json.loads(line) for line in args.results if line.strip()]
    else:
        lines = run(workloads, GATE_SEEDS)
    gate(summarize(lines, workloads), base)


if __name__ == "__main__":
    main()
