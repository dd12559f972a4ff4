#!/usr/bin/env python3
"""Builds and runs the BCS-MPI simulator benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The first form builds perfbench/ (and the simulator libraries from src/) into
.bench_build/ at the repository root, runs one workload for the given number
of seconds, prints every metric by name with its unit, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones (the traced run also writes its spans under
.bench_build/traces/).  It exits non-zero if any output check fails.

--smoke runs every workload at reduced size, untraced and traced, with all
output checks, in a few seconds each.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170
RESULT_TAG = "PERFBENCH_RESULT "


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    """Configures once and builds incrementally; output goes to stderr so
    that standard output carries only the benchmark's lines."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found under %s/src" % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    # One build at a time per checkout.
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
            except OSError as e:
                fail("cannot run %s: %s" % (cmd[0], e))
            if rc != 0:
                fail("build step failed: " + " ".join(cmd))


def run_binary(args):
    """Runs the benchmark binary; returns (exit code, parsed result)."""
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith(RESULT_TAG):
            return proc.returncode, json.loads(line[len(RESULT_TAG):])
    fail("workload printed no result (exit code %d)" % proc.returncode)


def result_line(workload, raw, wanted):
    """Prints the human-readable report and returns the contract's result
    object holding exactly the metrics in `wanted`."""
    correct = raw["correct"]
    failed = raw["failed"]
    metrics = {}
    print("%s context %s" % (workload, json.dumps(raw["context"], sort_keys=True)))
    for spec in wanted:
        name = spec["name"]
        got = raw["metrics"].get(name)
        if got is None:
            why = next((w for p, w in raw["absent"].items()
                        if name.startswith(p)), None)
            if why is None:
                correct = False
                failed += 1
                print("%s FAILED: metric %s was not measured" % (workload, name))
                continue
            metrics[name] = {"value": 0, "unit": spec["unit"]}
            print("%s %s = 0 %s (absent: %s)" % (workload, name, spec["unit"], why))
            continue
        if got["unit"] != spec["unit"] or got["value"] is None:
            correct = False
            failed += 1
            print("%s FAILED: metric %s reads %r, BENCHMARK.json says unit %s"
                  % (workload, name, got, spec["unit"]))
            continue
        metrics[name] = {"value": got["value"], "unit": got["unit"]}
        print("%s %s = %s %s" % (workload, name, got["value"], got["unit"]))
    for name in sorted(set(raw["metrics"]) - {m["name"] for m in wanted}):
        got = raw["metrics"][name]
        print("%s %s = %s %s (measured, not in the result line)"
              % (workload, name, got["value"], got["unit"]))
    for note in raw["notes"]:
        print("%s note: %s" % (workload, note))
    for what in raw["failures"]:
        print("%s FAILED: %s" % (workload, what))
    return {"correct": bool(correct), "attempted": max(1, raw["attempted"]),
            "failed": failed, "metrics": metrics}


def run_workload(spec, workload, seed, seconds, trace):
    names = [w["name"] for w in spec["workloads"]]
    if workload not in names:
        fail("unknown workload %r (have %s)" % (workload, ", ".join(names)))
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        args += ["--trace-out",
                 os.path.join(TRACE_DIR, "%s-seed%d.spans.jsonl" % (workload, seed))]
    rc, raw = run_binary(args)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    result = result_line(workload, raw, wanted)
    print(json.dumps(result), flush=True)
    return 0 if rc == 0 and result["correct"] else 1


def smoke(spec):
    bad = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            args = ["--workload", w["name"], "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--smoke"]
            rc, raw = run_binary(args)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            result = result_line(w["name"], raw, wanted)
            ok = rc == 0 and result["correct"]
            print("smoke %s trace=%d: %s" % (w["name"], trace, "ok" if ok else "FAILED"))
            if not ok:
                bad.append("%s/trace=%d" % (w["name"], trace))
    print(json.dumps({"smoke": "ok" if not bad else "failed", "failed": bad}))
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    spec = load_spec()
    if not a.smoke and not a.workload:
        p.error("--workload is required unless --smoke is given")
    if a.seconds <= 0:
        p.error("--seconds must be positive")
    build()
    if a.smoke:
        return smoke(spec)
    return run_workload(spec, a.workload, a.seed, a.seconds, a.trace)


if __name__ == "__main__":
    sys.exit(main())
