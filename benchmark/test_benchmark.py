"""Tests of the benchmark's own statistics, and of its seed plumbing.

    python3 -m unittest discover -s benchmark -p 'test_*.py'

The statistics tests are instant. SeedRepeatTest builds the benchmark
(as run.py does) and runs every workload twice, traced, with the same
seed; it takes a few minutes. SingleCoreTest runs the traced dse_cold
workload pinned to one CPU with taskset.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchstats  # noqa: E402


def sample(kind, ms, ok=True):
    return [kind, ms, ok]


class MedianQuartileTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(benchstats.median([3, 1, 2]), 2)
        self.assertEqual(benchstats.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            benchstats.median([])

    def test_quartiles_match_exclusive_method(self):
        # statistics.quantiles(n=4), exclusive method, positions
        # (n+1)p: 2.5, 5 and 7.5 of 1..9.
        values = [9, 1, 8, 2, 7, 3, 6, 4, 5]
        self.assertEqual(benchstats.quartiles(values), (2.5, 5.0, 7.5))

    def test_single_sample(self):
        self.assertEqual(benchstats.quartiles([4.0]), (4.0, 4.0, 4.0))

    def test_sample_quartiles_beside_medians(self):
        q = benchstats.sample_quartiles(FailureAccountingTest().raw())
        self.assertEqual(q["setup_s"], (1.0, 3.0))
        self.assertEqual(q["answer_s"], (1.0, 1.5))


class PercentileRuleTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        values = list(range(1, 1001))  # 1000 samples
        # Nearest rank 990; ten samples (991..1000) lie beyond it.
        self.assertEqual(benchstats.percentile(values, 99), 990)

    def test_short_tail_fails_loudly(self):
        with self.assertRaises(benchstats.TailTooShort):
            benchstats.percentile(list(range(999)), 99)
        with self.assertRaises(benchstats.TailTooShort):
            benchstats.percentile([1.0] * 100, 99)

    def test_p50_of_small_sets(self):
        self.assertEqual(benchstats.percentile(list(range(1, 21)), 50), 10)

    def probe_raw(self, queries):
        # A traced dse_cold run whose serve probe had one client.
        samples = [sample(kind, 1.0 + i % 7)
                   for i, kind in zip(range(queries),
                                      benchstats.QUERY_KINDS * queries)]
        spans = [["server.full_query", 0, 1_000_000_000, 1, 0, 1, 1]]
        return {"workload": "dse_cold", "setup_s": [1.0],
                "untraced": {"samples": [sample("answer", 1000.0)],
                             "peak_rss_mb": 100.0},
                "traced": {"samples": [sample("answer", 1000.0)] + samples,
                           "spans": spans, "counters": {}}}

    def test_single_client_probe_has_a_p99(self):
        # The probe sends 1200 queries in all, whatever its client count
        # (kServeQueries in rppm_benchmark.cc): 12 lie beyond p99.
        raw = self.probe_raw(1200)
        layers = benchstats.per_layer(raw, benchstats.end_to_end(raw))
        self.assertEqual(layers["server.query_p99_ms"], 7.0)
        for kind in benchstats.QUERY_KINDS:
            self.assertGreater(layers["server.%s_query_ms" % kind], 0)
        # 600 single-client queries would leave only 6 beyond p99.
        raw = self.probe_raw(600)
        with self.assertRaises(benchstats.TailTooShort):
            benchstats.per_layer(raw, benchstats.end_to_end(raw))


class FailureAccountingTest(unittest.TestCase):
    def raw(self):
        # Ten answers, one of which threw; then, traced, two answers and
        # the serve probe's queries: one refused with Busy after every
        # retry and one that missed its deadline.
        untraced = [sample("answer", 1000.0)] * 5 + [
            sample("answer", 1500.0)] * 4 + [
            sample("answer", 0.0, ok=False)]
        traced = [sample("answer", 1100.0)] * 2 + [
            sample("point", 1.0)] * 1200 + [sample("full", 3.0)] * 300 + [
            sample("point", 50.0, ok=False),   # Busy
            sample("full", 900.0, ok=False),   # deadline expired
        ]
        spans = [["server.point_query", 0, 2_000_000_000, 1, 0, 1, 1],
                 ["server.full_query", 1_000_000_000, 3_000_000_000, 2, 0,
                  2, 2]]
        return {"workload": "dse_cold", "setup_s": [1.0, 2.0, 3.0],
                "untraced": {"samples": untraced, "peak_rss_mb": 100.0,
                             "mismatches": 0, "errors": []},
                "traced": {"samples": traced, "spans": spans,
                           "counters": {"server.requests": 1502.0},
                           "mismatches": 0, "errors": []}}

    def test_failed_operations_count(self):
        attempted, failed = benchstats.operations(self.raw())
        self.assertEqual((attempted, failed), (1514, 3))
        self.assertAlmostEqual(benchstats.failed_frac(attempted, failed),
                               3 / 1514)

    def test_failed_queries_miss_every_latency_limit(self):
        served = benchstats.latencies(self.raw()["traced"]["samples"],
                                      ("full", "point"))
        self.assertEqual(len(served), 1502)
        self.assertEqual(sum(1 for v in served if math.isinf(v)), 2)
        # The failures sort last, among the 15 samples beyond p99.
        self.assertEqual(benchstats.percentile(served, 99), 3.0)
        self.assertTrue(all(math.isinf(v) for v in sorted(served)[-2:]))

    def test_end_to_end(self):
        e2e = benchstats.end_to_end(self.raw())
        # The failed answer is the slowest of ten samples.
        self.assertEqual(e2e["answer_s"], (1.25, 10))
        self.assertEqual(e2e["setup_s"], (2.0, 3))
        self.assertEqual(e2e["peak_rss_mb"], (100.0, 1))

    def test_served_query_metrics(self):
        layers = benchstats.per_layer(self.raw(),
                                      benchstats.end_to_end(self.raw()))
        self.assertEqual(list(layers), list(benchstats.LAYER_UNITS))
        # 1500 good queries over the 3 s the query spans cover.
        self.assertEqual(layers["server.queries_per_s"], 500.0)
        self.assertEqual(layers["server.query_p50_ms"], 1.0)
        self.assertEqual(layers["server.query_p99_ms"], 3.0)
        self.assertEqual(layers["server.full_query_ms"], 3.0)
        self.assertEqual(layers["server.requests"], 1502.0)
        self.assertAlmostEqual(layers["bench.failed_frac"], 3 / 1514)
        self.assertAlmostEqual(layers["bench.tracing_overhead_pct"],
                               (1.1 / 1.25 - 1) * 100)

    def test_no_attempts_is_an_error(self):
        with self.assertRaises(ValueError):
            benchstats.failed_frac(0, 0)


class ErrorFormulaTest(unittest.TestCase):
    def test_relative_error(self):
        self.assertAlmostEqual(benchstats.rel_error_pct(110.0, 100.0), 10.0)
        self.assertAlmostEqual(benchstats.rel_error_pct(75.0, 100.0), 25.0)
        with self.assertRaises(ValueError):
            benchstats.rel_error_pct(1.0, 0.0)

    def test_summary_over_cells(self):
        cells = [{"sim": 200.0, "rppm": 210.0, "main": 100.0},
                 {"sim": 400.0, "rppm": 388.0, "main": 400.0}]
        # |210-200|/200 = 5 %, |388-400|/400 = 3 %.
        avg, mx = benchstats.error_summary(cells, "rppm")
        self.assertAlmostEqual(avg, 4.0)
        self.assertAlmostEqual(mx, 5.0)
        avg, mx = benchstats.error_summary(cells, "main")
        self.assertAlmostEqual(avg, 25.0)
        self.assertAlmostEqual(mx, 50.0)


class SpanTest(unittest.TestCase):
    ROWS = [
        # name, start, end, id, parent, request, thread
        ["bench.iteration", 0, 100, 1, 0, 1, 1],
        ["profile", 10, 30, 2, 1, 1, 1],
        ["rppm.grid", 20, 50, 3, 1, 1, 1],   # overlaps profile
        ["common.crc", 60, 70, 4, 1, 1, 1],
        ["statstack", 22, 28, 5, 3, 1, 1],
        ["bench.iteration", 200, 260, 6, 0, 6, 1],
        ["profile", 210, 250, 7, 6, 6, 1],
    ]

    def test_self_time(self):
        spans = benchstats.parse_spans(self.ROWS)
        selfs = benchstats.self_times(spans)
        # Children cover [10, 50) and [60, 70): 50 of 100 ns.
        self.assertEqual(selfs[1], 50)
        self.assertEqual(selfs[2], 20)
        self.assertEqual(selfs[3], 24)
        self.assertEqual(selfs[5], 6)
        self.assertEqual(selfs[6], 20)

    def test_per_request_sums(self):
        spans = benchstats.parse_spans(self.ROWS)
        self.assertEqual(sorted(benchstats.per_request_seconds(
            spans, "profile")), [20e-9, 40e-9])

    def test_chrome_trace(self):
        spans = benchstats.parse_spans(self.ROWS)
        doc = benchstats.chrome_trace(spans, benchstats.self_times(spans),
                                      {"seed": 1})
        first = doc["traceEvents"][0]
        self.assertEqual(first["ph"], "X")
        self.assertEqual((first["ts"], first["dur"]), (0.0, 0.1))
        self.assertEqual(first["args"]["self_us"], 0.05)
        self.assertEqual(doc["otherData"], {"seed": 1})
        json.dumps(doc)

    def test_tracing_overhead(self):
        raw = {"workload": "dse_cold",
               "traced": {"samples": [sample("answer", 1100.0)] * 3}}
        e2e = {"answer_s": (1.0, 5)}
        self.assertAlmostEqual(
            benchstats.tracing_overhead_pct(raw, e2e), 10.0)


class BenchmarkJsonTest(unittest.TestCase):
    def test_declared_metrics_are_the_reported_ones(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        reported = benchstats.end_to_end(FailureAccountingTest().raw())
        self.assertEqual(set(e2e), set(reported))
        for name, unit in e2e.items():
            self.assertEqual(benchstats.UNITS[name], unit)
        self.assertEqual(layers, benchstats.LAYER_UNITS)
        import run
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]),
                         run.WORKLOADS)


# Per-layer metrics that are exact for a seed: every count the model
# layers report, the simulated instruction count, the profiled records
# and the accuracy against the simulator.
def deterministic(name):
    if name.endswith("_s") or name.endswith("_per_s"):
        return False
    return (name.startswith(("rppm.", "statstack."))
            or name in ("sim.minstr", "profile.records"))


def traced_run(test, workload, seed, prefix=()):
    proc = subprocess.run(
        list(prefix) + [
            sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", "1", "--trace",
            "1"], cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=900)
    test.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    test.assertTrue(result["correct"])
    return {k: v["value"] for k, v in result["metrics"].items()}


class SingleCoreTest(unittest.TestCase):
    def test_serve_probe_on_one_cpu(self):
        # Pinned to one CPU, the probe has one client and one worker.
        layers = traced_run(self, "dse_cold", 3, ("taskset", "-c", "0"))
        self.assertEqual(layers["server.requests"], 1200)
        self.assertGreater(layers["server.query_p99_ms"], 0)
        self.assertEqual(layers["bench.failed_frac"], 0)


class SeedRepeatTest(unittest.TestCase):
    def traced_run(self, workload, seed):
        return traced_run(self, workload, seed)

    def test_counts_repeat_exactly(self):
        import run
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.traced_run(workload, 11)
                second = self.traced_run(workload, 11)
                names = [n for n in first if deterministic(n)]
                self.assertIn("rppm.err_avg_pct", names)
                for name in names:
                    self.assertEqual(first[name], second[name], name)


if __name__ == "__main__":
    unittest.main()
