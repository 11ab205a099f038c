#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Run from the repository root; builds ramp_perfbench like run.py does. Takes
about a minute: every workload runs at reduced size.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def binary_digest(binary, workload, jobs):
    done = subprocess.run(
        [binary, "--workload", workload, "--seconds", "0", "--reduced",
         "--jobs", str(jobs)],
        stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["digest"], result["failed"]


def run_benchmark(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--reduced"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True, cwd=run.ROOT)
    return json.loads(done.stdout.strip().splitlines()[-1])


class DigestCheck(unittest.TestCase):
    def reference(self, workload):
        with open(run.reference_path(workload)) as f:
            return f.read().splitlines()

    def test_reference_matches_itself(self):
        for workload in run.WORKLOADS:
            lines = self.reference(workload)
            self.assertTrue(lines)
            self.assertEqual(run.mismatched_lines(lines, list(lines)), 0)

    def test_perturbed_integer_is_rejected(self):
        for workload in run.WORKLOADS:
            lines = self.reference(workload)
            head, sep, tail = lines[0].partition(" |")
            fields = head.split()
            fields[-1] = str(int(fields[-1]) + 1)
            perturbed = [" ".join(fields) + sep + tail] + lines[1:]
            self.assertEqual(run.mismatched_lines(lines, perturbed), 1)

    def test_real_fields_compare_to_relative_1e9(self):
        for workload in run.WORKLOADS:
            lines = self.reference(workload)
            head, sep, tail = lines[-1].partition(" |")
            reals = [float(x) for x in tail.split()]

            def with_first(scale):
                values = [reals[0] * scale] + reals[1:]
                return head + sep + "".join(" %.17g" % v for v in values)

            self.assertTrue(run.same_line(lines[-1], with_first(1 + 1e-12)))
            self.assertFalse(run.same_line(lines[-1], with_first(1 + 1e-6)))

    def test_missing_line_is_rejected(self):
        lines = self.reference("migration_storm")
        self.assertEqual(run.mismatched_lines(lines, lines[:-1]), 1)


class Binary(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.jobs = min(4, os.cpu_count() or 1)
        cls.binary = run.build(cls.jobs)

    def test_digests_identical_at_jobs_1_and_4(self):
        for workload in run.WORKLOADS:
            serial, serial_failed = binary_digest(self.binary, workload, 1)
            parallel, parallel_failed = binary_digest(self.binary, workload,
                                                      self.jobs)
            self.assertEqual(serial_failed, 0, workload)
            self.assertEqual(parallel_failed, 0, workload)
            self.assertEqual(serial, parallel, workload)

    def test_jobs_above_nproc_is_a_usage_error(self):
        done = subprocess.run(
            [self.binary, "--workload", "static_sweep", "--jobs",
             str((os.cpu_count() or 1) + 1)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        self.assertEqual(done.returncode, 2)
        self.assertEqual(done.stdout, b"")

    def test_every_metric_is_printed_with_its_unit(self):
        for workload in run.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                result = run_benchmark(workload, trace)
                self.assertEqual(
                    sorted(result), ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(result["correct"], workload)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                printed = result["metrics"]
                wanted = {m["name"]: m["unit"] for m in BENCHMARK[key]}
                self.assertEqual(set(printed), set(wanted), (workload, key))
                for name, unit in wanted.items():
                    self.assertEqual(printed[name]["unit"], unit, name)
                    self.assertIsInstance(printed[name]["value"], (int, float))


if __name__ == "__main__":
    unittest.main()
