#!/usr/bin/env python3
"""Steadiness report: run each workload k times and summarize the spread.

    python3 perfbench/steady.py [--runs K] [--sets M] [--seed-base N]
                                [--seconds S] [--workloads table2,prove,serve]

Run from the root of a source checkout.  Each run is one
`perfbench/run.py --workload W --seed N --seconds S --trace 0` with its
own seed (seed-base, seed-base+1, ...).  For every end-to-end metric the
report prints the median, the quartiles (statistics.quantiles, n=4), the
spread (Q3 - Q1) / median, the min/max ratio and the sample count
behind one run's value (for percentiles: the latencies it was taken
over).  A metric whose spread exceeds its bound in BENCHMARK.json is
flagged, except setup_s.  With --sets M the K runs are repeated M times
with the same seeds, and a metric whose median in a later set is worse
than in the first by more than its bound is flagged, setup_s included.
The exit code is 1 when a flag was raised or a run failed its output
checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=900)
    lines = r.stdout.decode(errors="replace").strip().splitlines()
    samples = {}
    for line in lines:
        # "  name   value unit (n=K)" rows of run.py's table
        parts = line.split()
        if len(parts) == 4 and parts[3].startswith("(n="):
            samples[parts[0]] = int(parts[3][3:-1])
    if not lines or not lines[-1].startswith("{"):
        return None, samples, r.returncode
    return json.loads(lines[-1]), samples, r.returncode


def report(values, counts, bounds):
    """Print the per-metric table of one set; returns (medians, flagged)."""
    flagged = False
    medians = {}
    print("  %-22s %12s %12s %12s %8s %8s %7s %6s"
          % ("metric", "median", "q1", "q3", "spread", "min/max",
             "bound", "n"))
    for name in sorted(values):
        v = values[name]
        med = medians[name] = statistics.median(v)
        if len(v) >= 2:
            q1, _, q3 = statistics.quantiles(v, n=4)
        else:
            q1 = q3 = v[0]
        spread = (q3 - q1) / med if med else float("inf")
        ratio = min(v) / max(v) if max(v) else 1.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound:
            flag = "  SPREAD > BOUND"
            flagged = True
        elif bound is not None and spread > bound / 3:
            flag = "  (above bound/3)"
        print("  %-22s %12.6g %12.6g %12.6g %8.4f %8.4f %7s %6d%s"
              % (name, med, q1, q3, spread, ratio,
                 "-" if bound is None else "%.2f" % bound,
                 statistics.median(counts[name]), flag))
    return medians, flagged


def compare(first, later, spec):
    """Flag metrics whose median in [later] is worse than in [first] by
    more than the bound."""
    flagged = False
    for m in spec["end_to_end"]:
        name = m["name"]
        if name not in first or name not in later or not first[name]:
            continue
        change = (later[name] - first[name]) / first[name]
        worse = change if m["better"] == "lower" else -change
        flag = ""
        if worse > m["bound"]:
            flag = "  WORSE > BOUND"
            flagged = True
        print("  %-22s %12.6g -> %12.6g  worse by %+8.4f (bound %.2f)%s"
              % (name, first[name], later[name], worse, m["bound"], flag))
    return flagged


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated (default: every workload)")
    args = ap.parse_args()

    spec = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    flagged = False
    for w in workloads:
        first = None
        for set_no in range(1, args.sets + 1):
            values = {}
            counts = {}
            for k in range(args.runs):
                seed = args.seed_base + k
                result, samples, code = one_run(w, seed, seconds)
                if result is None or code != 0 or not result["correct"]:
                    print("%s seed %d: run failed (exit %d)" % (w, seed, code))
                    flagged = True
                    if result is None:
                        continue
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                    counts.setdefault(name, []).append(samples.get(name, 1))
                print("%s set %d seed %d: %s" % (
                    w, set_no, seed, " ".join(
                        "%s=%.6g" % (n, m["value"])
                        for n, m in sorted(result["metrics"].items()))),
                    flush=True)
            if not values:
                continue
            print("\n%s set %d: %d runs" % (w, set_no, args.runs))
            medians, bad = report(values, counts, bounds)
            flagged = flagged or bad
            if first is None:
                first = medians
            else:
                print("%s set %d against set 1, medians:" % (w, set_no))
                flagged = compare(first, medians, spec) or flagged
            print(flush=True)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
