#!/usr/bin/env python3
"""The repository benchmark.  Run from the root of a checkout:

    python3 perfbench/run.py --workload ingest_churn --seed 1 --seconds 40 --trace 0

Builds perfbench (the library, the cluster worker launcher and the measuring
program) under .bench_build/perfbench, runs one workload, checks its outputs
and prints every metric with its unit.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
line before it ("meta ...") carries the run's metadata.  The exit code is 0
only when every correctness check passed.

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics and writes a chrome://tracing file.  --holdout selects the holdout
seed.  --self-test runs the helpers' unit tests.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import report  # noqa: E402

WORKLOADS = ("ingest_churn", "query_under_ingest", "tenant_wire", "cluster_fanout")
DEFAULT_SEED = 1
HOLDOUT_SEED = 1009
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the package; returns (perfbench, harness)."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        os.makedirs(build_dir, exist_ok=True)
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return (os.path.join(build_dir, "perfbench"),
            os.path.join(build_dir, "cluster_harness"))


def wait_group_gone(pgid, timeout_s=10.0):
    """Waits until no process of the group is left (workers are not our
    children, so they cannot be waited for directly)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)
    log(f"perfbench: processes of group {pgid} still alive")


def self_test():
    suite = unittest.defaultTestLoader.discover(HERE, pattern="test_*.py")
    ok = unittest.TextTestRunner(stream=sys.stderr, verbosity=2).run(suite)
    return 0 if ok.wasSuccessful() else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--holdout", action="store_true",
                    help=f"use the holdout seed ({HOLDOUT_SEED})")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        ap.error("--workload is required")
    seed = HOLDOUT_SEED if args.holdout else (
        DEFAULT_SEED if args.seed is None else args.seed)

    started = time.monotonic()
    build_dir = os.path.join(os.getcwd(), ".bench_build", "perfbench")
    try:
        perfbench, harness = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    tag = f"{args.workload}-{seed}-{args.trace}-{os.getpid()}"
    raw_path = os.path.join(build_dir, "runs", tag + ".json")
    tmp = os.path.join(build_dir, "runs", tag + ".tmp")
    os.makedirs(os.path.dirname(raw_path), exist_ok=True)
    cmd = [perfbench, "--workload", args.workload, "--seed", str(seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", raw_path, "--harness", harness, "--tmp", tmp]
    # perfbench and the worker processes it spawns share a new process
    # group, which is killed afterwards: a crash leaves no worker behind.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        remaining = RUN_TIMEOUT_S - (time.monotonic() - started)
        # The first run also builds; it may take longer than later ones.
        rc = proc.wait(timeout=max(remaining, 120))
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        rc = -1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        wait_group_gone(proc.pid)
        shutil.rmtree(tmp, ignore_errors=True)
    if rc != 0:
        log(f"perfbench: measuring program exited with {rc}")
        return 1
    with open(raw_path) as f:
        raw = json.load(f)
    os.remove(raw_path)

    spec = report.PER_LAYER if args.trace else report.END_TO_END
    try:
        res, counts = report.result(raw, spec)
        report.validate(res, spec)
    except (KeyError, ValueError) as e:
        log(f"perfbench: cannot report: {e}")
        return 1

    for check in raw["checks"]:
        if not check["ok"]:
            log(f"FAILED check {check['name']}: {check['detail']}")
    if args.trace:
        spans = report.span_dicts(raw["spans"])
        trace_path = os.path.join(build_dir, f"trace-{args.workload}-{seed}.json")
        with open(trace_path, "w") as f:
            f.write(report.chrome_trace(spans))
        log(f"trace: {len(spans)} spans ({raw['spans_dropped']} dropped) -> {trace_path}")
        for layer, ms in sorted(report.layer_self_ms(spans).items()):
            log(f"  self time {layer:10s} {ms:12.3f} ms")

    meta = dict(raw["meta"])
    meta["attempted"] = res["attempted"]
    meta["failed"] = res["failed"]
    meta["samples"] = counts
    meta["checks"] = {}
    for c in raw["checks"]:
        meta["checks"][c["name"]] = meta["checks"].get(c["name"], True) and c["ok"]
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, m in res["metrics"].items():
        print(f"{name:34s} {m['value']:16.6g} {m['unit']}")
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
