#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the repository root:

    python3 perfbench/test_perfbench.py

Each test drives perfbench/run.py with one-second runs (one repetition
of the workload) and checks:
  - two runs of one seed repeat the simulated metrics, the allocation
    per op, the peak heap and every per-layer count exactly;
  - a traced run passes its own in-run check that its simulated
    metrics equal the untraced repetition's, and reports the host-time
    difference as workload.trace_overhead_share;
  - rw-fleet seed 0 reproduces the scale/pipelined/1000 row of
    BENCH_results.json, the row `make perf` gates;
  - a held-out seed, never used while tuning, passes every correctness
    check on all three workloads with no failed operation.
"""

import json
import math
import os
import subprocess
import sys
import unittest

ROOT = os.getcwd()
WORKLOADS = ("rw-fleet", "ro-crowd", "sfs-bulk")
HELD_OUT_SEED = 7919
EXACT_END_TO_END = (
    "host_alloc_kb_per_op",
    "peak_heap_mb",
    "sim_ops_per_s",
    "sim_op_p50_us",
    "sim_op_p99_us",
    "sim_mount_p99_us",
)

_cache = {}


def bench(workload, seed, trace):
    """One run of perfbench/run.py; its result plus a name -> value map."""
    cmd = [
        sys.executable, os.path.join("perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", "1", "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(
            "%s failed (%d):\n%s\n%s" % (cmd, out.returncode, out.stdout, out.stderr))
    result = json.loads(out.stdout.strip().split("\n")[-1])
    result["values"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def cached(workload, seed, trace):
    key = (workload, seed, trace)
    if key not in _cache:
        _cache[key] = bench(workload, seed, trace)
    return _cache[key]


def host_derived(name):
    """Per-layer metrics read off the host clock rather than counters."""
    return "host" in name or "overhead" in name


class Determinism(unittest.TestCase):
    def test_same_seed_repeats_exactly(self):
        for wl in WORKLOADS:
            with self.subTest(workload=wl):
                a, b = cached(wl, 3, 0), bench(wl, 3, 0)
                for name in EXACT_END_TO_END:
                    self.assertEqual(a["values"][name], b["values"][name], name)

    def test_same_seed_repeats_layer_counts(self):
        for wl in WORKLOADS:
            with self.subTest(workload=wl):
                a, b = cached(wl, 3, 1), bench(wl, 3, 1)
                for name, v in a["values"].items():
                    if not host_derived(name):
                        self.assertEqual(v, b["values"][name], name)


class Tracing(unittest.TestCase):
    def test_traced_run_matches_and_reports_overhead(self):
        for wl in WORKLOADS:
            with self.subTest(workload=wl):
                r = cached(wl, 3, 1)
                # run.py exits non-zero unless the in-run check that the
                # traced repetition's sim_* metrics equal the untraced
                # one's held, so reaching here means they matched.
                self.assertTrue(r["correct"])
                self.assertTrue(math.isfinite(r["values"]["workload.trace_overhead_share"]))


class CrossCheck(unittest.TestCase):
    def test_rw_fleet_seed0_is_the_scale_row(self):
        row = None
        with open(os.path.join(ROOT, "BENCH_results.json")) as f:
            for line in f:
                fig = json.loads(line)
                if fig["figure"] == "scale":
                    for r in fig["rows"]:
                        if r["system"] == "pipelined/1000":
                            row = dict(zip(fig["headers"], r["values"]))
        self.assertIsNotNone(row)
        m = cached("rw-fleet", 0, 0)["values"]
        self.assertEqual(round(m["sim_ops_per_s"], 3), row["throughput_ops_s"])
        self.assertEqual(m["sim_op_p50_us"], row["p50_us"])
        self.assertEqual(m["sim_op_p99_us"], row["p99_us"])


class HeldOutSeed(unittest.TestCase):
    def test_held_out_seed_is_correct(self):
        for wl in WORKLOADS:
            with self.subTest(workload=wl):
                r = cached(wl, HELD_OUT_SEED, 0)
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertGreater(r["attempted"], 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
