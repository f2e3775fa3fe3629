"""Unit tests for the benchmark's reporting helpers (report.py).

Run with:  python3 perfbench/run.py --self-test
      or:  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import report

HERE = os.path.dirname(os.path.abspath(__file__))


def raw_run(series=None, values=None, checks=None, attempted=10, failed=0):
    return {"series": series or {}, "values": values or {},
            "checks": checks or [], "ops": {"attempted": attempted, "failed": failed}}


def full_raw(spec, attempted=200, failed=0, checks=None):
    series, values = {}, {}
    for _, _, kind, source, _ in spec:
        if kind == "value":
            values[source] = 2.5
        elif kind in ("median", "tmean", "pct"):
            series[source] = [float(i) for i in range(1, 1001)]
    return raw_run(series, values, checks, attempted, failed)


class PercentileRule(unittest.TestCase):
    def test_min_samples(self):
        self.assertEqual(report.min_samples(0.90), 100)
        self.assertEqual(report.min_samples(0.99), 1000)
        self.assertEqual(report.min_samples(0.50), 20)

    def test_ten_samples_beyond_is_enough(self):
        samples = list(range(1, 101))  # p90 = 90, ten samples (91..100) beyond
        self.assertEqual(report.percentile(samples, 0.90), 90)

    def test_fewer_than_ten_beyond_is_refused(self):
        with self.assertRaises(report.InsufficientSamples):
            report.percentile(list(range(99)), 0.90)
        with self.assertRaises(report.InsufficientSamples):
            report.percentile(list(range(999)), 0.99)

    def test_order_does_not_matter(self):
        samples = list(range(200, 0, -1))
        self.assertEqual(report.percentile(samples, 0.90), 180)

    def test_metric_with_too_few_samples_fails_the_report(self):
        spec = [("lat_p90", "ms", "pct", "lat", (0.90, 1.0))]
        with self.assertRaises(report.InsufficientSamples):
            report.compute_metrics(raw_run({"lat": [1.0] * 50}), spec)


class TrimmedMean(unittest.TestCase):
    def test_drops_lowest_and_highest_tenth(self):
        samples = [1000.0, -1000.0] + [float(i) for i in range(1, 19)]
        self.assertAlmostEqual(report.trimmed_mean(samples), 9.5)

    def test_short_series_keeps_every_sample(self):
        self.assertEqual(report.trimmed_mean([2.0, 4.0, 9.0]), 5.0)

    def test_moves_with_the_share_of_slow_samples(self):
        # The median jumps from 10 to 14 between these two runs; the trimmed
        # mean moves by the share of slow samples that changed.
        a = report.trimmed_mean([10.0] * 11 + [14.0] * 9)
        b = report.trimmed_mean([10.0] * 9 + [14.0] * 11)
        self.assertAlmostEqual(a, 11.75)
        self.assertAlmostEqual(b, 12.25)

    def test_metric_kind(self):
        spec = [("fo", "s", "tmean", "fo", 1e-3)]
        samples = [0.0, 1000.0] + [2.0] * 8
        metrics, counts = report.compute_metrics(raw_run({"fo": samples}), spec)
        self.assertAlmostEqual(metrics["fo"]["value"], 2.0e-3)
        self.assertEqual(counts["fo"], 10)


class FailureAccounting(unittest.TestCase):
    def test_ok_frac(self):
        self.assertEqual(report.ok_frac(10, 0), 1.0)
        self.assertAlmostEqual(report.ok_frac(8, 2), 0.75)
        with self.assertRaises(ValueError):
            report.ok_frac(0, 0)

    def test_failed_operation_makes_the_run_incorrect(self):
        spec = [("ok_frac", "frac", "ok", None, None)]
        res, counts = report.result(raw_run(attempted=4, failed=1), spec)
        self.assertFalse(res["correct"])
        self.assertEqual((res["attempted"], res["failed"]), (4, 1))
        self.assertAlmostEqual(res["metrics"]["ok_frac"]["value"], 0.75)
        self.assertEqual(counts["ok_frac"], 4)

    def test_failed_check_makes_the_run_incorrect(self):
        spec = [("ok_frac", "frac", "ok", None, None)]
        bad = [{"name": "x", "ok": True, "detail": ""},
               {"name": "y", "ok": False, "detail": "mismatch"}]
        res, _ = report.result(raw_run(checks=bad), spec)
        self.assertFalse(res["correct"])
        res, _ = report.result(raw_run(checks=bad[:1]), spec)
        self.assertTrue(res["correct"])


class SelfTime(unittest.TestCase):
    @staticmethod
    def span(i, parent, start, end, name="a.x"):
        return {"id": i, "parent": parent, "start": start, "end": end, "name": name}

    def test_children_are_subtracted(self):
        spans = [self.span(1, 0, 0, 100), self.span(2, 1, 10, 30),
                 self.span(3, 1, 50, 60), self.span(4, 2, 12, 14)]
        selfs = report.self_times(spans)
        self.assertEqual(selfs[1], 70)
        self.assertEqual(selfs[2], 18)
        self.assertEqual(selfs[3], 10)
        self.assertEqual(selfs[4], 2)

    def test_overlapping_children_count_once(self):
        spans = [self.span(1, 0, 0, 100), self.span(2, 1, 10, 40),
                 self.span(3, 1, 30, 50)]
        self.assertEqual(report.self_times(spans)[1], 60)

    def test_children_are_clipped_to_the_parent(self):
        spans = [self.span(1, 0, 0, 100), self.span(2, 1, 90, 130)]
        self.assertEqual(report.self_times(spans)[1], 90)

    def test_layer_totals(self):
        spans = [self.span(1, 0, 0, 1000, "pass.engine"),
                 self.span(2, 1, 0, 400, "engine.submit"),
                 self.span(3, 1, 500, 700, "engine.query")]
        per_layer = report.layer_self_ms(spans)
        self.assertAlmostEqual(per_layer["pass"], 0.4)
        self.assertAlmostEqual(per_layer["engine"], 0.6)

    def test_chrome_trace_shape(self):
        rows = [["engine.submit", 0, 5.0, 9.0, 1, 0, 1]]
        trace = json.loads(report.chrome_trace(report.span_dicts(rows)))
        (event,) = trace["traceEvents"]
        self.assertEqual(event["ph"], "X")
        self.assertEqual(event["dur"], 4.0)
        self.assertEqual(event["args"]["trace_id"], 1)


class OutputSchema(unittest.TestCase):
    def test_every_metric_is_reported_with_its_unit(self):
        for spec in (report.END_TO_END, report.PER_LAYER):
            res, _ = report.result(full_raw(spec), spec)
            report.validate(res, spec)
            self.assertEqual(list(res), ["correct", "attempted", "failed", "metrics"])
            json.loads(json.dumps(res))

    def test_validate_rejects_extra_keys_and_bad_values(self):
        spec = report.END_TO_END
        res, _ = report.result(full_raw(spec), spec)
        with self.assertRaises(ValueError):
            report.validate(dict(res, extra=1), spec)
        broken = json.loads(json.dumps(res))
        broken["metrics"]["setup_s"]["value"] = float("nan")
        with self.assertRaises(ValueError):
            report.validate(broken, spec)
        broken = json.loads(json.dumps(res))
        del broken["metrics"]["failover_s"]
        with self.assertRaises(ValueError):
            report.validate(broken, spec)

    def test_missing_observation_is_an_error(self):
        raw = full_raw(report.END_TO_END)
        del raw["values"]["ingest_eps"]
        with self.assertRaises(KeyError):
            report.result(raw, report.END_TO_END)

    def test_specification_matches_benchmark_json(self):
        path = os.path.join(HERE, "..", "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("BENCHMARK.json not present")
        with open(path) as f:
            bench = json.load(f)
        for key, spec in (("end_to_end", report.END_TO_END),
                          ("per_layer", report.PER_LAYER)):
            declared = {m["name"]: m["unit"] for m in bench[key]}
            self.assertEqual(declared, {s[0]: s[1] for s in spec})


if __name__ == "__main__":
    unittest.main()
