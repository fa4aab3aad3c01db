"""Self-tests for the benchmark harness, at tiny sizes.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Each workload runs in a subprocess of its own, as it does for real, with
``--size tiny`` so that the whole file finishes in about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3
# Self times are differences of the same perf_counter readings, so they add
# up to the wall exactly except for floating-point rounding.
SELF_TIME_TOLERANCE = 1e-3
COUNT_METRICS = ("nn.conv1d.gflop", "nn.predict.traces",
                 "augment.hda_batch.traces", "tpe.trials",
                 "seeding.derive_rng.calls", "nn.optimizer.steps",
                 "nn.train.calls", "traces.load_dataset.bytes")


def run_bench(workload, trace, root=ROOT, seconds=0.5):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", str(seconds),
         "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=600, cwd=root)
    return proc


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record_of(workload, trace):
    path = (ROOT / ".perfbench" / "results"
            / f"{workload}-seed{SEED}-trace{trace}.json")
    return json.loads(path.read_text())


class WorkloadRuns(unittest.TestCase):
    """One untraced and two traced runs of every workload, shared below."""

    @classmethod
    def setUpClass(cls):
        cls.plain, cls.traced, cls.traced_again, cls.records = {}, {}, {}, {}
        for w in WORKLOADS:
            proc = run_bench(w, 0)
            cls.plain[w] = (proc.stdout, result_of(proc))
            proc = run_bench(w, 1)
            cls.traced[w] = (proc.stdout, result_of(proc))
            cls.records[w] = record_of(w, 1)
            cls.traced_again[w] = result_of(run_bench(w, 1))

    def test_untraced_run_prints_every_end_to_end_metric(self):
        names = [m["name"] for m in SPEC["end_to_end"]]
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for w in WORKLOADS:
            stdout, res = self.plain[w]
            with self.subTest(workload=w):
                self.assertTrue(res["correct"], stdout)
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(sorted(res["metrics"]), sorted(names))
                for name in names:
                    metric = res["metrics"][name]
                    self.assertEqual(metric["unit"], units[name])
                    self.assertGreater(metric["value"], 0)
                    self.assertRegex(stdout, rf"(?m)^{name}\s+\S+ {units[name]}$")

    def test_traced_run_prints_every_per_layer_metric(self):
        names = [m["name"] for m in SPEC["per_layer"]]
        for w in WORKLOADS:
            stdout, res = self.traced[w]
            with self.subTest(workload=w):
                self.assertTrue(res["correct"], stdout)
                self.assertEqual(sorted(res["metrics"]), sorted(names))
                self.assertIn("tracing overhead", stdout)
                self.assertIn("sum of self time", stdout)
                for name in names:
                    self.assertRegex(stdout, rf"(?m)^{name}\s")

    def test_counts_repeat_exactly_across_runs(self):
        for w in WORKLOADS:
            first = self.traced[w][1]["metrics"]
            second = self.traced_again[w]["metrics"]
            for name in COUNT_METRICS:
                with self.subTest(workload=w, metric=name):
                    self.assertEqual(first[name]["value"],
                                     second[name]["value"])

    def test_layer_counts_show_where_work_happens(self):
        m = {w: self.traced[w][1]["metrics"] for w in WORKLOADS}
        self.assertEqual(m["fewshot_hda"]["nn.maxpool2.forward_s"]["value"],
                         0.0)
        self.assertGreater(
            m["fewshot_hda"]["augment.hda_batch.traces"]["value"], 0)
        self.assertEqual(
            m["openworld_eval"]["augment.hda_batch.traces"]["value"], 0)
        self.assertEqual(m["cli_pipeline"]["tpe.trials"]["value"], 3)
        # cmd_eval predicts the test split twice and validation once
        self.assertGreater(
            m["openworld_eval"]["evaluate.predict_redundancy"]["value"], 1.0)

    def test_self_times_sum_to_traced_wall(self):
        for w in WORKLOADS:
            metrics = self.traced[w][1]["metrics"]
            total = sum(v["value"] for k, v in metrics.items()
                        if v["unit"] == "s" and not k.startswith(
                            ("bench.untraced", "bench.traced")))
            wall = self.records[w]["traced_wall_mean_s"]
            with self.subTest(workload=w):
                self.assertAlmostEqual(total / wall, 1.0,
                                       delta=SELF_TIME_TOLERANCE)

    def test_traced_run_keeps_the_numerics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(self.plain[w][1]["failed"], 0)
                self.assertEqual(self.traced[w][1]["failed"], 0)
                plain = record_of(w, 0)["fingerprints"]
                self.assertEqual(plain, self.records[w]["fingerprints"])


class PaceRescaling(unittest.TestCase):

    def test_reference_time_is_left_out_and_each_stretch_rescaled(self):
        sys.path.insert(0, str(HERE))
        try:
            import pace
            from run import Harness
        finally:
            sys.path.remove(str(HERE))
        harness = Harness(None, None, None, None)
        ref = pace.REFERENCE_S
        # reference runs at [0, 1], [3, 4] and [6, 7]: twice as slow in the
        # middle one, so each stretch runs at pace 2 / 3
        harness.readings = [(0.0, 1.0, ref), (3.0, 4.0, 2 * ref),
                            (6.0, 7.0, ref)]
        scaled, raw = harness.at_pace(0.5, 6.5)
        self.assertAlmostEqual(raw, 4.0)
        self.assertAlmostEqual(scaled, 4.0 * 2 / 3)
        scaled, raw = harness.at_pace(2.0, 3.5)
        self.assertAlmostEqual(raw, 1.0)
        self.assertAlmostEqual(scaled, 2 / 3)

    def test_untraced_run_records_reference_timings(self):
        proc = run_bench(WORKLOADS[0], 0)
        result_of(proc)
        record = record_of(WORKLOADS[0], 0)
        # one timing before and one after each set-up and repeat, at least
        self.assertGreaterEqual(
            len(record["reference_s"]),
            2 * (len(record["end_to_end_samples"]["setup_s"])
                 + len(record["end_to_end_samples"]["wall_s"])))
        self.assertIn("reference kernel:", proc.stdout)


class FailureHandling(unittest.TestCase):

    def test_fails_without_the_program_sources(self):
        bare = ROOT / ".perfbench" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            proc = run_bench(WORKLOADS[0], 0, root=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)

    def test_failed_command_is_counted_not_raised(self):
        sys.path.insert(0, str(ROOT / "src"))
        sys.path.insert(0, str(HERE))
        try:
            from spans import Tracer
            from workloads import Operations, OperationFailed
            ops = Operations()
            with self.assertRaises(OperationFailed):
                ops.cli(Tracer(), ["eval", "--checkpoint", "missing.ckpt"])
            self.assertEqual((ops.attempted, ops.failed), (1, 1))
        finally:
            sys.path.remove(str(HERE))
            sys.path.remove(str(ROOT / "src"))


if __name__ == "__main__":
    unittest.main()
