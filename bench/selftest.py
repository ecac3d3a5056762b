"""Self-test of the benchmark: tiny seeded runs and a planted wrong answer.

    python3 bench/selftest.py

Runs every workload for one second untraced and traced, and checks the
output contract against BENCHMARK.json: every metric named there is
printed with its unit, the traced layers add up to the job time, and the
same seed gives the same digest.  It then checks in process that a
deliberately wrong expected result, and a job that raises, each count as a
failed job, and that the benchmark refuses to run without topcube's
sources.  Takes under a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import unittest
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.pycache_prefix = str(BUILD / "pycache")
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


class OutputContract(unittest.TestCase):
    outputs: dict = {}

    @classmethod
    def setUpClass(cls):
        for workload in SPEC["workloads"]:
            for trace in (0, 1):
                cls.outputs[workload["name"], trace] = run_bench(workload["name"], trace)

    def result(self, workload: str, trace: int):
        out = self.outputs[workload, trace]
        self.assertEqual(out.returncode, 0, out.stderr)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True, out.stderr)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        return lines[:-1], result

    def check_metrics(self, metrics: dict, listed: list[dict]):
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in listed))
        for m in listed:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float), m["name"])

    def test_end_to_end_metrics_printed_with_units(self):
        for workload in SPEC["workloads"]:
            lines, result = self.result(workload["name"], 0)
            self.check_metrics(result["metrics"], SPEC["end_to_end"])
            text = "\n".join(lines)
            for m in SPEC["end_to_end"]:
                self.assertRegex(text, rf"(?m)^{re.escape(m['name'])} \S+ {re.escape(m['unit'])}\b")
            self.assertRegex(text, r"(?m)^job_fail_ratio 0\.0+ ratio")
            self.assertRegex(text, r"(?m)^job_ms_tail \S+ ms "
                                   r"\(as run: p[\d.]+ of \d+ samples, \d+ beyond it;")

    def test_per_layer_metrics_printed_and_adding_up(self):
        from tracing import COUNTERS, LAYERS, function_names

        names = {m["name"] for m in SPEC["per_layer"]}
        for fn in function_names():
            self.assertIn(f"{fn}.calls", names)
            self.assertIn(f"{fn}.self_ms", names)
        self.assertTrue(set(COUNTERS) <= names)
        self.assertTrue({f"layer.{layer}.share" for layer in LAYERS} <= names)
        for workload in SPEC["workloads"]:
            lines, result = self.result(workload["name"], 1)
            self.check_metrics(result["metrics"], SPEC["per_layer"])
            self.assertTrue(any(line.endswith("adds up") for line in lines), workload)
            self.assertTrue(any(line.startswith("  bench (between spans)") for line in lines))

    def test_same_seed_same_digest(self):
        for workload in SPEC["workloads"]:
            digests = set()
            for trace in (0, 1):
                text = self.outputs[workload["name"], trace].stdout
                digests.update(re.findall(r"\b([0-9a-f]{16}) (?:\(first round|untraced|traced)", text))
            self.assertEqual(len(digests), 1, (workload["name"], digests))


class FailedJobs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        BUILD.mkdir(exist_ok=True)
        import run
        import workloads

        cls.bench, cls.workloads = run, workloads
        cls.json_path = str(BUILD / "selftest-report.json")

    def one_round(self, workload):
        loop = self.bench.Loop(workload)
        loop.run_round()
        return loop

    def test_wrong_expected_result_is_a_failed_job(self):
        for name in self.workloads.NAMES:
            if name == "cube-n4":
                continue  # slowest round; the planted error path is shared
            workload = self.workloads.build(name, 5, self.json_path)
            job = workload.jobs[0]
            job.expected = ("planted", job.expected)
            loop = self.one_round(workload)
            self.assertEqual(loop.failed, 1, name)
            self.assertEqual(len(loop.latency_ns), len(workload.jobs))
            self.assertEqual(loop.first_round[0][0], "failed")

    def test_wrong_count_is_a_failed_job(self):
        workload = self.workloads.build("cube-n4", 5, self.json_path)
        count = next(job for job in workload.jobs if job.kind == "count")
        self.assertEqual(count.expected, (355, 355))
        count.expected = (356, 355)
        workload.jobs = [count]
        self.assertEqual(self.one_round(workload).failed, 1)

    def test_raising_job_is_a_failed_job(self):
        workload = self.workloads.build("sublattice-n3", 5, self.json_path)

        def boom():
            raise ValueError("planted")

        workload.jobs[3].call = boom
        loop = self.one_round(workload)
        self.assertEqual(loop.failed, 1)

    def test_cost_is_latency_over_adjacent_reference_times(self):
        workload = self.workloads.Workload("two-jobs", [None, None])
        loop = self.bench.Loop(workload)
        loop.latency_ns.extend([5_000, 7_000, 3_000, 9_000, 4_000, 8_000])
        loop.reference_ns.extend([1_000] * 7)
        self.assertEqual(loop.rounds(), 3)
        self.assertEqual(loop.costs(), [4.0, 8.0])
        per_round_s = 12 * self.bench.REFERENCE_MS / 1e3
        self.assertAlmostEqual(loop.jobs_per_s(), 2 / per_round_s)
        # The host turns twice as slow during the fifth job: nothing changes.
        loop.latency_ns[4:] = array("q", [6_000, 16_000])  # references 1000/2000, 2000/2000
        loop.reference_ns[5:] = array("q", [2_000, 2_000])
        self.assertEqual(loop.costs(), [4.0, 8.0])
        loop.failed = 3
        self.assertAlmostEqual(loop.jobs_per_s(), 1 / per_round_s)


class Refuses(unittest.TestCase):
    def test_exits_nonzero_without_sources(self):
        bare = BUILD / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            out = run_bench("cube-n4", 0, cwd=bare)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
