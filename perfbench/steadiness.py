#!/usr/bin/env python3
"""A/A steadiness check for the benchmark: the evidence behind the bounds.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 10]

For each workload it runs perfbench/run.py on seeds 1..--seeds for two
sets A and B of the same code, alternating the sets run by run (A B,
B A, ...). For every end-to-end metric in BENCHMARK.json it reports
each set's median and spread -- the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of the
median -- and how much worse set B's median is than set A's, each
against the metric's bound. A spread must stay within the bound
(setup_s is exempt, as in the benchmark's acceptance rule) and below a
third of it to count as steady; the median shift must stay within the
bound for every metric, setup_s included. The summary is also written
to .bench_out/steadiness.json. Exit code 0 means every check passed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    lines = out.stdout.decode().strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d)"
                         % (workload, seed, out.returncode))
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def worse_by(metric, base, other):
    """How much worse `other` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0
    change = (other - base) / base
    return change if metric["better"] == "lower" else -change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()

    summary = {}
    steady = True
    for workload in args.workloads.split(","):
        sets = ([], [])
        for seed in range(1, args.seeds + 1):
            for s in ((0, 1) if seed % 2 else (1, 0)):
                sets[s].append(run_once(workload, seed, args.seconds))
        print("== %s (%d seeds x 2 sets, %g s each)"
              % (workload, args.seeds, args.seconds))
        print("  %-16s %14s %8s %14s %8s %8s %7s  %s"
              % ("metric", "median A", "spread", "median B", "spread",
                 "B worse", "bound", "verdict"))
        rows = {}
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = [[run[name] for run in runs] for runs in sets]
            meds = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals]
            shift = worse_by(m, meds[0], meds[1])
            exempt = name == "setup_s"
            ok = shift <= bound and (exempt or max(spreads) <= bound)
            tight = exempt or max(spreads) < bound / 3
            verdict = "ok" if ok and tight else ("loose" if ok else "FAIL")
            steady = steady and ok
            print("  %-16s %14.6g %7.2f%% %14.6g %7.2f%% %7.2f%% %6.0f%%  %s"
                  % (name, meds[0], 100 * spreads[0], meds[1],
                     100 * spreads[1], 100 * shift, 100 * bound, verdict))
            rows[name] = {"medians": meds, "spreads": spreads, "shift": shift,
                          "bound": bound, "verdict": verdict, "values": vals}
        summary[workload] = rows
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "steadiness.json"), "w") as f:
        json.dump(summary, f, indent=1)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
