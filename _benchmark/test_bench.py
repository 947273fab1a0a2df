#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

    python3 _benchmark/test_bench.py

- The result line matches BENCHMARK.json: every declared metric, with its
  unit, and nothing else; end-to-end values are finite and non-zero.
- Deterministic counts (expanded instructions, distinct nodes, intern hit
  ratio, fault sites, campaign classifications) repeat exactly for one
  seed across two fresh processes.
- A corrupted reference makes the checks fail: failed > 0, correct false.
- Without the repository's sources the command fails and prints no result.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.getcwd()
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
COMMAND = SPEC["command"]
BUILD_DIR = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")

DETERMINISTIC = ("instr.expanded_instrs", "instr.distinct_nodes", "instr.intern_hit_ratio",
                 "fault.sites.", "engine.correct.", "engine.detected.", "engine.silent.")


def bench(workload, seed=1, seconds=1, trace=0, extra=(), cwd=ROOT):
    out = subprocess.run(
        COMMAND + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)] + list(extra),
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return out


def result(out):
    if out.returncode != 0:
        raise AssertionError("benchmark failed:\n" + out.stderr)
    lines = out.stdout.strip().split("\n")
    env = [json.loads(l[4:]) for l in lines if l.startswith("env ")]
    return json.loads(lines[-1]), env[0]


def workloads():
    return [w["name"] for w in SPEC["workloads"]]


class Contract(unittest.TestCase):
    def test_result_lines_match_declaration(self):
        for w in workloads():
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    res, env = result(bench(w, trace=trace))
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(res["failed"], 0)
                    self.assertEqual(env["error_rate"], 0)
                    declared = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, declared)
                    for k, v in res["metrics"].items():
                        self.assertTrue(math.isfinite(v["value"]), k)
                        if trace == 0:
                            self.assertGreater(v["value"], 0, k)


class Determinism(unittest.TestCase):
    def test_counts_repeat_across_fresh_processes(self):
        for w in ("table1-2048", "modexp-shared", "faults-catalogue"):
            with self.subTest(workload=w):
                runs = [result(bench(w, seed=7, trace=1))[0]["metrics"] for _ in range(2)]
                counts = [{k: v["value"] for k, v in m.items() if k.startswith(DETERMINISTIC)}
                          for m in runs]
                self.assertTrue(any(v != 0 for v in counts[0].values()))
                self.assertEqual(counts[0], counts[1])


class Checks(unittest.TestCase):
    def test_corrupted_reference_is_caught(self):
        for w in workloads():
            with self.subTest(workload=w):
                res, env = result(bench(w, extra=["--corrupt-reference"]))
                self.assertFalse(res["correct"])
                self.assertGreater(res["failed"], 0)
                self.assertGreater(env["error_rate"], 0)


class BareDirectory(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = os.path.join(BUILD_DIR, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
        try:
            out = bench(workloads()[0], cwd=bare)
            self.assertNotEqual(out.returncode, 0)
            self.assertFalse(any(l.startswith("{") for l in out.stdout.split("\n")))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
