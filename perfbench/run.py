#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload table2|prove|serve|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The script builds the
benchmark program (perfbench/bench.exe) and the satpg CLI with dune into
the build directory named by CARGO_TARGET_DIR (default .bench_build),
then starts measured passes of the workload, each in a fresh process so
every process-wide cache starts cold: as many passes of the workload's
nominal length as fit in --seconds, at least one.  Each pass's output
observations are checked against perfbench/expected.json.  Times and
latency percentiles are taken per pass; the run reports their medians.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 a traced pass reports the per-layer metrics instead.
The exit code is 0 when every output check passed, 1 when one failed and
2 when the benchmark could not run at all (nothing is printed then).
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("table2", "prove", "serve")
ENV_FIXED = {"SATPG_BUDGET": "0.05", "SATPG_JOBS": "2"}
SETUP_LAUNCHES = 10  # table2: launches timed to "ready", besides the passes
# Nominal length of one pass; a run makes max(1, seconds // nominal)
# passes, so the number of passes never depends on the machine's speed.
PASS_SECONDS = {"table2": 7, "prove": 8, "serve": 6}
PASS_TIMEOUT = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


TMPDIR = None  # set by main: temporary files stay inside the checkout


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("SATPG_")}
    env.update(ENV_FIXED)
    env["DUNE_CACHE"] = "disabled"
    env["TMPDIR"] = TMPDIR
    return env


def check_checkout(root):
    for need in ("dune-project", "lib", "bin", "examples/s27.blif"):
        if not os.path.exists(os.path.join(root, need)):
            raise BenchError(
                "%s is missing: run from the root of a full source checkout"
                % need)


def build(root, build_dir):
    cmd = ["dune", "build", "--root", ".", "--build-dir", build_dir,
           "--display", "quiet", "./perfbench/bench.exe", "./bin/satpg.exe"]
    try:
        r = subprocess.run(cmd, cwd=root, env=child_env(),
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError("build failed to run: %s" % e)
    if r.returncode != 0:
        log(r.stdout.decode(errors="replace"))
        raise BenchError("build failed (dune exit %d)" % r.returncode)
    exe = os.path.join(root, build_dir, "default")
    return (os.path.join(exe, "perfbench", "bench.exe"),
            os.path.join(exe, "bin", "satpg.exe"))


def kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_pass(bench, args, cwd):
    """One bench.exe process; returns (seconds to its "ready" line, the
    parsed result object or None for --setup-only)."""
    t0 = time.perf_counter()
    # a session of its own, so a failed pass can be stopped together
    # with the daemon it may have started
    proc = subprocess.Popen([bench] + args, cwd=cwd, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    ready = None
    last = None
    # a pass that hangs is stopped, with the daemon it may have started
    watchdog = threading.Timer(PASS_TIMEOUT, kill_group, (proc,))
    watchdog.start()
    try:
        for raw in proc.stdout:
            line = raw.decode(errors="replace").strip()
            if line == "ready" and ready is None:
                ready = time.perf_counter() - t0
            elif line:
                last = line
        _, err = proc.communicate(timeout=PASS_TIMEOUT)
    except BaseException:
        kill_group(proc)
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    if proc.returncode != 0:
        log(err.decode(errors="replace")[-4000:])
        raise BenchError("bench.exe %s exited with %d"
                         % (" ".join(args[:1]), proc.returncode))
    if ready is None:
        raise BenchError("bench.exe %s never reported ready" % args[0])
    if last is None:
        return ready, None
    try:
        return ready, json.loads(last)
    except ValueError:
        raise BenchError("bench.exe printed no result: %r" % last[:200])


def percentile(sorted_values, p):
    """Nearest-rank percentile."""
    n = len(sorted_values)
    i = max(0, min(n - 1, int(math.ceil(p * n)) - 1))
    return sorted_values[i]


RECORDED = {}


def check_items(workload, observed, expected):
    """(items recorded but not observed, observed items that differ from
    the recorded ones, or are missing)."""
    if observed is None:
        return 0, 0
    RECORDED.setdefault(workload, {}).update(observed)
    want = expected.get(workload, {})
    failed = 0
    for name, value in observed.items():
        if want.get(name) != value:
            failed += 1
            log("check failed: %s %s: got %s, recorded %s"
                % (workload, name, json.dumps(value),
                   json.dumps(want.get(name))))
    missing = [name for name in want if name not in observed]
    for name in missing:
        log("check failed: %s %s: missing" % (workload, name))
    return len(missing), failed + len(missing)


def checked(workload, passes, expected):
    """Attempted and failed operations over [passes], output checks
    included; a recorded item a pass did not produce counts as an
    attempted operation that failed."""
    attempted = failed = 0
    for p in passes:
        missing, bad = check_items(workload, p["checks"], expected)
        attempted += p["attempted"] + missing
        failed += p["failed"] + bad
    return attempted, failed


def metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def reduce_passes(workload, passes, setups, expected):
    """Pooled coverage and checks; every time is taken per pass and the
    median over the passes reported."""
    attempted, failed = checked(workload, passes, expected)
    per_pass = [(p["run_s"], sorted(p["jobs_s"])) for p in passes]
    faults = sum(p["faults"] for p in passes)
    detected = sum(p["detected"] for p in passes)
    effective = sum(p["effective"] for p in passes)
    jobs = len(passes[0]["jobs_s"])

    def med(f):
        return statistics.median(f(run_s, lat) for run_s, lat in per_pass)

    metrics = {
        "setup_s": metric(statistics.median(setups), "s", len(setups)),
        "run_s": metric(med(lambda r, _: r), "s", len(passes)),
        "jobs_per_s": metric(med(lambda r, lat: len(lat) / r), "1/s", jobs),
        "job_p50_ms": metric(1000 * med(lambda _, lat: percentile(lat, 0.50)),
                             "ms", jobs),
        "job_p99_ms": metric(1000 * med(lambda _, lat: percentile(lat, 0.99)),
                             "ms", jobs),
        "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"]
                                                for p in passes), "MB",
                              len(passes)),
        "fault_coverage_pct": metric(100.0 * detected / faults, "%", faults),
        "fault_efficiency_pct": metric(100.0 * effective / faults, "%",
                                       faults),
        "ok_pct": metric(100.0 * (attempted - failed) / attempted, "%",
                         attempted),
    }
    return attempted, failed, metrics


def pass_args(workload, seed, root, tmp, satpg, n, spans=None):
    args = [workload, "--seed", str(seed), "--root", root]
    if workload == "serve":
        d = os.path.join(tmp, "pass%d" % n)
        os.makedirs(d)
        args += ["--dir", d, "--satpg", satpg]
    if spans:
        args += ["--trace", "--spans", spans]
    return args


def measure(workload, seed, seconds, bench, satpg, root, tmp, expected):
    setups = []
    if workload == "table2":
        for _ in range(SETUP_LAUNCHES):
            ready, _ = run_pass(bench, ["table2", "--setup-only"], root)
            setups.append(ready)
    passes = []
    for n in range(max(1, int(seconds // PASS_SECONDS[workload]))):
        ready, result = run_pass(
            bench, pass_args(workload, seed, root, tmp, satpg, n), root)
        if workload == "table2":
            setups.append(ready)
        else:
            setups.extend(result["setup_s"])
        passes.append(result)
    return reduce_passes(workload, passes, setups, expected)


def traced(workload, seed, bench, satpg, root, tmp, spans_dir, expected):
    """An untraced pass for the counts and the reference run time, then a
    traced pass for the per-layer times.  Returns the per-layer values,
    the span table, attempted and failed counts, and the untraced and
    traced run times."""
    _, plain = run_pass(
        bench, pass_args(workload, seed, root, tmp, satpg, 0), root)
    reference = plain
    if workload == "prove":
        # the traced prove pass classifies every circuit before the grid;
        # its overhead is measured against the same work untraced
        _, reference = run_pass(
            bench, pass_args(workload, seed, root, tmp, satpg, 2)
            + ["--classify-first"], root)
    os.makedirs(spans_dir, exist_ok=True)
    spans_file = os.path.join(spans_dir, "%s-seed%d.json" % (workload, seed))
    _, spans = run_pass(
        bench, pass_args(workload, seed, root, tmp, satpg, 1, spans_file),
        root)
    log("perfbench: spans of the traced pass in %s"
        % os.path.relpath(spans_file, root))
    layers = dict(plain["counts"])
    extra = []
    if workload == "serve":
        # the measured passes run the daemon without a store; one more
        # pass with a fresh on-disk store gives the store layer's figures
        _, stored = run_pass(
            bench, pass_args(workload, seed, root, tmp, satpg, 3)
            + ["--store"], root)
        extra.append(stored)
        for name in ("store.disk_writes", "store.bytes"):
            layers[name] = stored["counts"][name]
        layers["serve.store_hit_rtt_p50_ms"] = (
            stored["counts"]["serve.hit_rtt_p50_ms"])
    layers.update(spans["busy"])
    layers["trace.overhead_s"] = spans["run_s"] - reference["run_s"]
    layers["trace.uncovered_pct"] = spans["uncovered_pct"]
    passes = ([plain, spans] + extra
              + ([reference] if reference is not plain else []))
    attempted, failed = checked(workload, passes, expected)
    return (layers, spans["spans"], attempted, failed, reference["run_s"],
            spans["run_s"])


def print_table(title, metrics):
    print(title)
    for name in sorted(metrics):
        m = metrics[name]
        print("  %-26s %14.6g %-6s (n=%s)"
              % (name, m["value"], m["unit"], m.get("samples", 1)))


def per_layer(layers):
    """Every per-layer metric of BENCHMARK.json; 0 for a layer the
    workload never calls."""
    spec = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    return {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
            for m in spec["per_layer"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this run's observations as the recorded "
                    "values in perfbench/expected.json (only when a change "
                    "is meant to alter results; say why in its description)")
    args = ap.parse_args()
    # a terminated run still stops its passes and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    global TMPDIR
    root = os.getcwd()
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    tmp = os.path.join(root, build_dir, "perfbench-tmp", str(os.getpid()))
    TMPDIR = os.path.join(tmp, "tmp")
    try:
        expected = json.load(open(os.path.join(HERE, "expected.json")))
        check_checkout(root)
        os.makedirs(TMPDIR)
        bench, satpg = build(root, build_dir)
    except (BenchError, OSError, ValueError) as e:
        log("perfbench: %s" % e)
        shutil.rmtree(tmp, ignore_errors=True)
        return 2
    try:
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        total_attempted = total_failed = 0
        all_metrics = {}
        for w in workloads:
            if args.trace:
                layers, spans, attempted, failed, plain_s, traced_s = traced(
                    w, args.seed, bench, satpg, root, tmp,
                    os.path.join(root, build_dir, "perfbench-spans"),
                    expected)
                metrics = per_layer(layers)
                print("%s traced pass: run_s %.4f untraced, %.4f traced"
                      % (w, plain_s, traced_s))
                print("  %-22s %6s %10s %10s"
                      % ("span", "calls", "busy_s", "self_s"))
                for name, s in sorted(spans.items()):
                    print("  %-22s %6d %10.4f %10.4f"
                          % (name, s["calls"], s["busy_s"], s["self_s"]))
                print_table("%s per-layer metrics" % w, metrics)
            else:
                attempted, failed, metrics = measure(
                    w, args.seed, args.seconds, bench, satpg, root, tmp,
                    expected)
                print_table("%s end-to-end metrics (seed %d)"
                            % (w, args.seed), metrics)
            total_attempted += attempted
            total_failed += failed
            prefix = "" if len(workloads) == 1 else w + "/"
            for name, m in metrics.items():
                all_metrics[prefix + name] = {"value": m["value"],
                                              "unit": m["unit"]}
    except (BenchError, OSError, KeyError, ValueError,
            subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if args.record:
        expected.update(RECORDED)
        with open(os.path.join(HERE, "expected.json"), "w") as f:
            json.dump(expected, f, indent=1, sort_keys=True)
            f.write("\n")
        log("perfbench: recorded %s" % ", ".join(sorted(RECORDED)))
    print(json.dumps({"correct": total_failed == 0,
                      "attempted": total_attempted,
                      "failed": total_failed,
                      "metrics": all_metrics}))
    return 0 if total_failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
