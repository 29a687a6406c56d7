#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

Run from the root of a source tree:

    python3 perfbench/run.py --workload check-full --seed 1 --seconds 25 --trace 0

`--workload all` runs the four workloads one after another, each in its
own process, and prints each one's output.  It builds perfbench/bench.exe and bin/ccr.exe with dune, runs the workload
in its own process and relays its output.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"},
where the metrics are the end-to-end set of BENCHMARK.json with
--trace 0 and the per-layer set with --trace 1.  Any build failure,
crash, timeout or malformed result exits non-zero without printing a
result.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("check-full", "check-quotient", "engine-loop", "serve-mix")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
BENCH_EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
CCR_EXE = os.path.join("_build", "default", "bin", "ccr.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def wait_group_gone(pgid, limit_s=5.0):
    """Wait (bounded) until no process of the killed group remains."""
    deadline = time.monotonic() + limit_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def source_rev():
    """The git revision when the tree is a checkout, else a digest of the sources."""
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha1()
    for top in ("dune-project", "lib", "bin", "protocols", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
        if os.path.isfile(top):
            with open(top, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if the file is here."""
    if not os.path.isfile("BENCHMARK.json"):
        return None
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def valid_result(line, trace):
    try:
        res = json.loads(line)
    except ValueError:
        return False
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return False
    names = declared_metrics(trace)
    return (
        isinstance(res["attempted"], int)
        and res["attempted"] >= 1
        and isinstance(res["failed"], int)
        and (names is None or set(res["metrics"]) == names)
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("dune-project", "lib", "bin", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("run from the root of the source tree (%s not found)" % need)

    # The build stays inside the tree: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./perfbench/bench.exe", "./bin/ccr.exe"],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        fail("build failed (dune exit %d)" % build.returncode)

    if args.workload != "all":
        return run_one(args, args.workload)
    for workload in WORKLOADS:
        print("== %s" % workload, flush=True)
        run_one(args, workload)
    return 0


def run_one(args, workload):
    """Run one workload in its own process and relay its output."""
    work_dir = os.path.abspath(os.path.join(".perfbench_work", str(os.getpid())))
    os.makedirs(work_dir, exist_ok=True)
    cmd = [
        BENCH_EXE,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--ccr", os.path.abspath(CCR_EXE),
        "--work-dir", work_dir,
        "--rev", source_rev(),
        "--nproc", str(len(os.sched_getaffinity(0))),
    ]
    # Its own process group, so a timeout also takes down the daemon the
    # serve workload spawns.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        wait_group_gone(proc.pid)
        fail("workload %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass

    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        fail("workload %s exited with code %d" % (workload, proc.returncode))
    if not valid_result(lines[-1], args.trace):
        fail("workload %s printed no valid result line" % workload)
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
