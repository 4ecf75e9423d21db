#!/usr/bin/env python3
"""The repository benchmark: build perfbench, run one workload, print the result.

    python3 perfbench/run.py --workload dense_solve --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The program is built from source
into .bench_build/perfbench (the default lapack90 build: RelWithDebInfo,
OpenMP, default ISA). A run is PROCESSES fresh processes of the workload
(one when traced), and each metric is the median over them. The last line
of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json for --trace 0 and its
per-layer metrics for --trace 1. The full report (machine context, every
metric, load accounting) and the Chrome trace of a traced run are written
under .bench_build/perfbench/out/ and nowhere else.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(BUILD, "out")
EXE = os.path.join(BUILD, "perfbench")

# An untraced run is split over PROCESSES fresh processes, each measuring
# seconds / PROCESSES. Every metric is the median of the per-process values,
# setup_s included (process launch to warm-up done, once per process). A
# slow mode that hits one process in a few then moves a run only when it
# hits most of its processes; the per-process values stay in the report.
PROCESSES = 3
# All processes of one run must end well inside the driver's 180 s limit.
RUN_TIMEOUT_S = 170
ALL_WORKLOADS = ("dense_solve", "serve_small", "net_window")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure and build; both are cheap no-ops once done."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for what, cmd in (("configure", ["cmake", "-S", HERE, "-B", BUILD,
                                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]),
                      ("build", ["cmake", "--build", BUILD, "-j", jobs])):
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            log(f"{what} failed:\n" + r.stdout[-4000:])
            return False
    return os.path.exists(EXE)


def child_env():
    env = dict(os.environ)
    env["LAPACK90_TUNE_FILE"] = "off"
    return env


def launch(args, deadline):
    """Run the program once; returns its last-line JSON, or None."""
    t0 = time.monotonic_ns()  # same clock as the program's steady_clock
    cmd = [EXE] + args + ["--launch-ns", str(t0), "--out", OUT]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, env=child_env(),
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(cmd))
        return None
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        log(f"exit code {r.returncode}: " + " ".join(cmd))
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log("unparseable output line: " + lines[-1][:200])
        return None


def run_workload(workload, seed, seconds, trace, tiny=False, perturb=False):
    """One benchmark run: PROCESSES measured processes (one when traced)."""
    procs = 1 if trace else PROCESSES
    deadline = time.monotonic() + RUN_TIMEOUT_S
    parts = []
    for k in range(procs):
        args = ["--workload", workload, "--seed", str(seed * PROCESSES + k),
                "--seconds", str(seconds / procs), "--trace", "1" if trace else "0"]
        if tiny:
            args.append("--tiny")
        if perturb and k == 0:
            args.append("--perturb")
        r = launch(args, deadline)
        if r is None:
            return None
        parts.append(r)
    merged = {"context": parts[0]["context"],
              "correct": all(p["correct"] for p in parts),
              "attempted": sum(p["attempted"] for p in parts),
              "failed": sum(p["failed"] for p in parts),
              "notes": [f"process {k}: {n}" for k, p in enumerate(parts)
                        for n in p.get("notes", [])],
              "metrics": {},
              "per_process": [p["metrics"] for p in parts]}
    for name, m in parts[0]["metrics"].items():
        vals = [p["metrics"][name]["value"] for p in parts if name in p["metrics"]]
        if len(vals) == procs:
            merged["metrics"][name] = {"value": statistics.median(vals),
                                       "unit": m["unit"]}
    return merged


def result_line(report, spec, trace):
    """Select the declared metrics; a missing, non-finite or mislabelled one
    makes the run incorrect."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    correct = bool(report["correct"])
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or not math.isfinite(got["value"]) or got["unit"] != m["unit"]:
            log(f"metric {m['name']} missing or malformed: {got}")
            correct = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": correct, "attempted": int(report["attempted"]),
            "failed": int(report["failed"]), "metrics": metrics}


def save(report, workload, seed, trace):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    return path


def self_test(spec):
    """Tiny sizes, all workloads: every metric prints with its unit, and the
    checker catches a deliberately perturbed result."""
    ok = True
    for w in ALL_WORKLOADS:
        for trace in (False, True):
            rep = run_workload(w, 7, 1, trace, tiny=True)
            if rep is None:
                log(f"self-test: {w} trace={int(trace)} did not run")
                ok = False
                continue
            line = result_line(rep, spec, trace)
            want = spec["per_layer"] if trace else spec["end_to_end"]
            missing = [m["name"] for m in want if m["name"] not in line["metrics"]]
            # net_window's rejects (-120) are failed ops, not wrong results.
            good = line["correct"] and not missing and line["attempted"] > 0
            log(f"self-test: {w} trace={int(trace)} "
                f"{'ok' if good else 'FAIL'} ({len(line['metrics'])} metrics, "
                f"attempted {line['attempted']}, failed {line['failed']})")
            ok = ok and good
        rep = run_workload(w, 7, 1, False, tiny=True, perturb=True)
        caught = rep is not None and not rep["correct"] and rep["failed"] > 0
        log(f"self-test: {w} perturbed result {'caught' if caught else 'NOT caught'}")
        ok = ok and caught
    log("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=ALL_WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()

    spec = load_spec()
    if not build():
        return 1
    if a.self_test:
        return self_test(spec)
    if a.workload is None:
        ap.error("--workload is required")
    seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
    rep = run_workload(a.workload, a.seed, seconds, bool(a.trace))
    if rep is None:
        return 1
    path = save(rep, a.workload, a.seed, a.trace)
    print(json.dumps({"context": rep["context"], "notes": rep["notes"],
                      "report": path}))
    print(json.dumps(result_line(rep, spec, bool(a.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
