#!/usr/bin/env python3
"""Build and run the SFS reproduction's benchmark.

    python3 perfbench/run.py --workload rw-fleet|ro-crowd|sfs-bulk \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/bench.exe from source
with dune (the first build in a fresh checkout compiles every library
under lib/), runs it, and relays its output.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; with --trace 0 the metrics are the end_to_end list of
BENCHMARK.json, with --trace 1 the per_layer list.  Any build failure,
timeout, incorrect result or metric list that does not match
BENCHMARK.json exits non-zero.  perfbench/design.json records why each
workload was chosen, its sizes against the program's caches, the
unit-cost probes, and which layer metric should move which end-to-end
metric.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
WORKLOADS = ("rw-fleet", "ro-crowd", "sfs-bulk")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, env=None, capture=False):
    """Run cmd to completion and return (exit code, stdout).  On timeout
    kill its whole process group (dune's compilers included) and wait."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        process_group=0,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, out


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    if not os.path.isdir(os.path.join(ROOT, "lib")):
        fail("run from the repository root (no lib/ here)")
    # Keep every build product inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    rc, _ = run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
        BUILD_TIMEOUT_S,
        env=env,
    )
    if rc != 0 or not os.path.isfile(EXE):
        fail("build failed (exit %d)" % rc)

    rc, out = run(
        [
            EXE,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        RUN_TIMEOUT_S,
        capture=True,
    )
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("no result line (exit %d)" % rc)
    names = expected_metrics(args.trace)
    if sorted(result.get("metrics", {})) != sorted(names):
        fail("metrics do not match BENCHMARK.json")
    print(lines[-1])
    sys.stdout.flush()
    if rc != 0 or result.get("correct") is not True:
        sys.exit(rc or 1)


if __name__ == "__main__":
    main()
