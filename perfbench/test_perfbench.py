"""Tests of the benchmark's own code.

  python3 -m unittest discover -s perfbench -p 'test_*.py'

The driver test at the end runs every workload briefly through the
built driver; it is skipped until run.py has built it once.
"""

import io
import json
import os
import re
import unittest

import compare
import report
import run
import stats

BENCH = report.load_benchmark()
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class StatsTest(unittest.TestCase):
    def test_percentile_nearest_rank(self):
        samples = list(range(1, 101))
        self.assertEqual(stats.percentile(samples, 50), 50)
        self.assertEqual(stats.percentile(samples, 99), 99)
        self.assertEqual(stats.percentile(samples, 100), 100)
        self.assertEqual(stats.percentile([5.0, 1.0, 3.0], 50), 3.0)

    def test_tail_level_keeps_ten_samples_beyond(self):
        self.assertEqual(stats.tail_percentile_level(1000), 99)
        self.assertEqual(stats.tail_percentile_level(5000), 99)
        self.assertEqual(stats.tail_percentile_level(150), 93)
        self.assertEqual(stats.tail_percentile_level(20), 50)
        self.assertIsNone(stats.tail_percentile_level(19))
        for n in (20, 37, 150, 333, 1000, 4321):
            level = stats.tail_percentile_level(n)
            samples = list(range(n))
            tail = stats.percentile(samples, level)
            self.assertGreaterEqual(sum(1 for s in samples if s > tail), 10)
            if level < stats.TAIL_MAX_PERCENTILE:
                higher = stats.percentile(samples, level + 1)
                self.assertLess(sum(1 for s in samples if s > higher), 10)

    def test_steady_window_cuts_warmup(self):
        self.assertEqual(stats.steady_window([9, 9, 1, 2, 3], 2), [1, 2, 3])
        self.assertEqual(stats.steady_window([1, 2], 0), [1, 2])
        self.assertEqual(stats.steady_window([1, 2], 5), [])
        with self.assertRaises(ValueError):
            stats.steady_window([1], -1)

    def test_summary_of_fixed_samples(self):
        samples = [float(v) for v in range(1, 201)]
        s = stats.summarize(samples)
        self.assertEqual(s["count"], 200)
        self.assertEqual(s["median"], 100.5)
        self.assertEqual(s["p90"], 180.0)
        self.assertEqual(s["tail_level"], 95)
        self.assertEqual(s["tail"], 190.0)
        self.assertEqual(s["mean"], 100.5)

    def test_relative_spread(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, med, q3 = stats.quartiles(values)
        self.assertEqual((q1, med, q3), (1.5, 3.0, 4.5))
        self.assertAlmostEqual(stats.relative_spread(values), 1.0)


class BenchmarkJsonTest(unittest.TestCase):
    def test_names_and_units_are_valid_and_unique(self):
        names = [w["name"] for w in BENCH["workloads"]]
        names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, report.NAME_RE)
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIn(m["better"], ("lower", "higher"))

    def test_contract_shape(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end", "per_layer"})
        for m in BENCH["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in BENCH["end_to_end"]))
        for w in BENCH["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)

    def test_named_layers_are_per_layer_metrics(self):
        per_layer = {m["name"] for m in BENCH["per_layer"]}
        self.assertEqual(set(report.WORKLOAD_LAYERS),
                         {w["name"] for w in BENCH["workloads"]})
        for layers in report.WORKLOAD_LAYERS.values():
            self.assertLessEqual(set(layers), per_layer)


def fake_raw(workload, missing=()):
    """Raw driver output with every series and value a workload names."""
    series = {"setup_s": [0.5, 0.4, 0.6],
              "step_ms": [9.0] * 5 + [2.0] * 40,
              "traced_step_ms": [2.1] * 40}
    values = {"users_per_step": 512, "warmup_steps": 5,
              "peak_rss_bytes": 300 * 2**20}
    for name in report.WORKLOAD_LAYERS[workload]:
        if name in missing or name.startswith("trace."):
            continue
        if name == "fed.train_client_us_p50":
            series["fed.train_client_us"] = [8.0, 9.0, 10.0]
        elif name == "core.result_s":
            series["result_s"] = [7.5]
        else:
            values[name] = 1.0
    return {"workload": workload, "ops_attempted": 40, "ops_failed": 0,
            "series": series, "values": values, "checks": []}


def fake_spans(rounds, covered_us=99.0):
    spans = []
    for r in range(rounds):
        start = 1000.0 * r
        spans.append({"name": "round", "round": r, "start_us": start,
                      "end_us": start + 100.0})
        spans.append({"name": "fed.train", "round": r, "start_us": start,
                      "end_us": start + covered_us})
    return spans


class ReportTest(unittest.TestCase):
    def test_untraced_run_emits_every_end_to_end_metric(self):
        for workload in report.WORKLOAD_LAYERS:
            result, _, _ = report.build_result(fake_raw(workload), [], 0, BENCH)
            self.assertEqual(set(result["metrics"]),
                             {m["name"] for m in BENCH["end_to_end"]})
            self.assertTrue(result["correct"])
            metrics = result["metrics"]
            # The warm-up (five 9 ms steps) is cut before any statistic.
            self.assertEqual(metrics["step_ms_p50"]["value"], 2.0)
            self.assertEqual(metrics["users_per_s"]["value"], 512 / 2e-3)
            self.assertEqual(metrics["setup_s"]["value"], 0.5)

    def test_traced_run_emits_every_per_layer_metric(self):
        for workload in report.WORKLOAD_LAYERS:
            result, checks, _ = report.build_result(
                fake_raw(workload), fake_spans(10), 1, BENCH)
            self.assertEqual(set(result["metrics"]),
                             {m["name"] for m in BENCH["per_layer"]})
            self.assertTrue(result["correct"], checks)
            self.assertAlmostEqual(
                result["metrics"]["trace.overhead_pct"]["value"], 5.0)

    def test_missing_layer_fails_the_run(self):
        raw = fake_raw("fed_tiered_cold", missing=("storage.hit_rate",))
        result, checks, _ = report.build_result(raw, [], 1, BENCH)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertIn("storage.hit_rate", checks[-1][2])

    def test_round_coverage_check(self):
        raw = fake_raw("fed_steady")
        result, _, _ = report.build_result(raw, fake_spans(10, 90.0), 1, BENCH)
        self.assertFalse(result["correct"])
        self.assertAlmostEqual(
            result["metrics"]["trace.round_coverage"]["value"], 0.9)

    def test_failed_operations_count(self):
        raw = fake_raw("serve_topk")
        raw["ops_failed"] = 2
        result, _, _ = report.build_result(raw, [], 0, BENCH)
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (40, 2))


def record(workload, value, failed=0, metric="users_per_s"):
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
               for m in BENCH["end_to_end"]}
    metrics[metric]["value"] = value
    return {"workload": workload, "seed": 1, "trace": 0,
            "result": {"correct": failed == 0, "attempted": 100,
                       "failed": failed, "metrics": metrics}}


class CompareTest(unittest.TestCase):
    metric = {"name": "users_per_s", "better": "higher", "bound": 0.1}

    def test_verdicts(self):
        steady = [100.0, 101.0, 99.0, 100.5, 99.5]
        self.assertEqual(compare.verdict(self.metric, steady,
                                         [80.0, 81.0, 79.0])[0], "WORSE")
        self.assertEqual(compare.verdict(self.metric, steady,
                                         [120.0, 121.0, 119.0])[0], "better")
        self.assertEqual(compare.verdict(self.metric, steady,
                                         [99.0, 100.0, 101.0])[0], "same")
        noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
        self.assertEqual(compare.verdict(self.metric, noisy,
                                         [99.0, 100.0, 101.0])[0], "unresolved")

    def test_compare_flags_worse_metric_and_failure_rise(self):
        workloads = [w["name"] for w in BENCH["workloads"]]
        parent = [record(w, 100.0) for w in workloads for _ in range(3)]
        same = [record(w, 100.0) for w in workloads for _ in range(3)]
        self.assertFalse(compare.compare(BENCH, parent, same, io.StringIO()))
        slower = [record(w, 50.0 if w == workloads[0] else 100.0)
                  for w in workloads for _ in range(3)]
        out = io.StringIO()
        self.assertTrue(compare.compare(BENCH, parent, slower, out))
        self.assertIn("WORSE", out.getvalue())
        failing = [record(w, 100.0, failed=1 if w == workloads[1] else 0)
                   for w in workloads for _ in range(3)]
        out = io.StringIO()
        self.assertTrue(compare.compare(BENCH, parent, failing, out))
        self.assertIn("ROSE", out.getvalue())


DRIVER = os.path.join(run.build_dir(), "perfbench_driver")


@unittest.skipUnless(os.path.exists(DRIVER), "driver not built yet (run run.py once)")
class DriverTest(unittest.TestCase):
    """Every workload, untraced and traced, emits every metric it names
    and passes its correctness checks."""

    def test_every_workload_emits_its_metrics(self):
        for workload in report.WORKLOAD_LAYERS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    raw, spans = run.run_driver(DRIVER, run.build_dir(),
                                                workload, 7, 1, trace)
                    result, checks, _ = report.build_result(raw, spans, trace,
                                                            BENCH)
                    self.assertTrue(result["correct"], checks)
                    kind = "per_layer" if trace else "end_to_end"
                    self.assertEqual(set(result["metrics"]),
                                     {m["name"] for m in BENCH[kind]})
                    json.dumps(result)


if __name__ == "__main__":
    unittest.main()
