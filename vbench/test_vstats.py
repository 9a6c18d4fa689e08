"""Tests of the benchmark's own arithmetic and oracle.

    python3 vbench/run.py --selftest      (or: python3 -m unittest discover vbench)
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import vstats  # noqa: E402


def span(i, parent, start, end, name="x", job=1, tid=0):
    return {"id": i, "parent": parent, "start": start, "end": end, "name": name, "job": job, "tid": tid}


class Percentiles(unittest.TestCase):
    def test_median_even_and_odd(self):
        self.assertEqual(vstats.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(vstats.median([5, 1, 3]), 3)

    def test_p99_interpolates_between_ranks(self):
        xs = list(range(1, 101))
        self.assertAlmostEqual(vstats.percentile(xs, 99), 99.01)
        self.assertEqual(vstats.percentile(xs, 0), 1)
        self.assertEqual(vstats.percentile(xs, 100), 100)

    def test_single_value_and_empty(self):
        self.assertEqual(vstats.percentile([7.5], 99), 7.5)
        with self.assertRaises(ValueError):
            vstats.percentile([], 50)


class WeightedPercentiles(unittest.TestCase):
    def test_equal_weights_give_the_plain_percentile(self):
        xs = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
        for p in (0, 10, 25, 50, 75, 99, 100):
            self.assertAlmostEqual(vstats.weighted_percentile(xs, [0.5] * len(xs), p), vstats.percentile(xs, p))

    def test_every_job_weighs_the_same(self):
        # Job c has three samples and jobs a, b one each: the median job
        # is b, however many samples c brings.
        keys = ["a", "b", "c", "c", "c"]
        weights = vstats.job_weights(keys)
        self.assertEqual(weights, [1.0, 1.0, 1 / 3, 1 / 3, 1 / 3])
        self.assertAlmostEqual(vstats.weighted_percentile([1.0, 2.0, 3.0, 4.0, 5.0], weights, 50), 2.0)
        self.assertEqual(vstats.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50), 3.0)

    def test_median_between_the_middle_jobs(self):
        # Four jobs, so the middle lies between jobs b and c.  b's upper
        # sample sits at 1.5 / 3.5, c at 2 / 3; p50 is linear between.
        values = [1.0, 2.0, 2.0, 3.0, 10.0]
        weights = vstats.job_weights(["a", "b", "b", "c", "d"])
        self.assertAlmostEqual(vstats.weighted_percentile(values, weights, 50), 2.3)

    def test_ends_and_errors(self):
        self.assertEqual(vstats.weighted_percentile([2.0, 1.0], [1.0, 3.0], 0), 1.0)
        self.assertEqual(vstats.weighted_percentile([2.0, 1.0], [1.0, 3.0], 100), 2.0)
        self.assertEqual(vstats.weighted_percentile([7.5], [0.2], 50), 7.5)
        with self.assertRaises(ValueError):
            vstats.weighted_percentile([], [], 50)


class Latency(unittest.TestCase):
    def row(self, program, t, phase="timed", block=1, killed=False):
        return {"program": program, "profile": "Verus", "time_s": t, "killed": killed,
                "phase": phase, "block": block}

    def test_fast_rounds_do_not_outweigh_the_full_pass(self):
        rows = [self.row("mem4", 6.0), self.row("dlock", 0.01), self.row("vstd_seq", 0.02)]
        rows += [self.row("dlock", 0.01, "fast"), self.row("vstd_seq", 0.02, "fast")] * 3
        m = run.latency(rows)
        self.assertAlmostEqual(m["request_p50_ms"], 20.0)
        self.assertAlmostEqual(m["verdict_geomean_s"], (6.0 * 0.01 * 0.02) ** (1 / 3))

    def test_daemon_reports_the_best_block(self):
        rows = []
        for block, t in ((1, 0.003), (2, 0.009), (3, 0.002)):
            rows += [self.row("dlock", t, block=block)] * 5
        raw = {"jobs": rows, "setup_s": [1.0, 3.0, 2.0], "pass_walls_s": [1.5, 4.5, 1.0],
               "heap_growth_words": [128, 512, 256], "requests": 5, "peak_rss_kb": 2048}
        m = run.end_to_end("daemon_warm", raw)
        self.assertAlmostEqual(m["request_p50_ms"], 2.0)
        self.assertAlmostEqual(m["requests_per_s"], 500.0)
        self.assertAlmostEqual(m["request_p99_ms"], 9.0)
        self.assertEqual((m["setup_s"], m["wall_s"]), (2.0, 1.0))
        self.assertAlmostEqual(m["heap_growth_kb_per_request"], 256 * 8 / 1024 / 5)
        self.assertEqual(m["request_samples"], 15)


class CensoredGeomean(unittest.TestCase):
    def test_plain_geomean(self):
        self.assertAlmostEqual(vstats.censored_geomean([(1.0, False), (4.0, False)], 10.0), 2.0)

    def test_killed_job_counts_as_the_limit(self):
        # A job killed after 3 s still counts as the 9 s limit.
        self.assertAlmostEqual(vstats.censored_geomean([(1.0, False), (3.0, True)], 9.0), 3.0)

    def test_no_job_counts_past_the_limit(self):
        self.assertAlmostEqual(vstats.censored_geomean([(1.0, False), (100.0, False)], 4.0), 2.0)

    def test_weights(self):
        samples = [(1.0, False), (8.0, False), (8.0, False)]
        self.assertAlmostEqual(vstats.censored_geomean(samples, 10.0, [1.0, 0.5, 0.5]), 8.0**0.5)


class SelfTime(unittest.TestCase):
    def test_children_union_is_subtracted_once(self):
        spans = [
            span(1, 0, 0.0, 10.0),
            span(2, 1, 1.0, 3.0),
            span(3, 1, 2.0, 5.0),  # overlaps span 2
            span(4, 1, 9.0, 12.0),  # ends after its parent: clipped
            span(5, 2, 1.5, 2.5),  # grandchild: charged to span 2 only
        ]
        selfs = vstats.self_times(spans)
        self.assertAlmostEqual(selfs[1], 10.0 - 4.0 - 1.0)
        self.assertAlmostEqual(selfs[2], 1.0)
        self.assertAlmostEqual(selfs[5], 1.0)

    def test_layers_and_residue_add_up_to_driver_wall(self):
        spans = [
            span(1, 0, 0.0, 20.0, "job a"),
            span(2, 1, 0.0, 9.0, "driver.verify_program"),
            span(3, 1, 9.0, 19.0, "replay"),
            span(4, 3, 9.0, 12.0, "encode"),
            span(5, 3, 12.0, 18.0, "smt.check_valid"),
            span(6, 5, 13.0, 14.0, "modes.compute"),
        ]
        layers, jobs, _ = vstats.attribute(spans)
        self.assertEqual(layers, {"encode.self_s": 3.0, "smt.solve_s": 5.0, "modes.self_s": 1.0})
        job = jobs[1]
        self.assertEqual(job["label"], "job a")
        self.assertEqual(job["driver_wall"], 9.0)
        self.assertAlmostEqual(job["layers"] + job["residue"], job["driver_wall"])
        self.assertAlmostEqual(job["residue"], 0.0)

    def test_chrome_round_trip(self):
        doc = {
            "traceEvents": [
                {"name": "encode", "ph": "X", "ts": 10, "dur": 5, "pid": 1, "tid": 3,
                 "args": {"id": 7, "parent": 0, "job": 2}}
            ]
        }
        (s,) = vstats.spans_of_chrome(doc)
        self.assertEqual((s["id"], s["job"], s["tid"]), (7, 2, 3))
        self.assertAlmostEqual(s["end"] - s["start"], 5e-6)


class Oracle(unittest.TestCase):
    def test_known_answers(self):
        self.assertTrue(vstats.verdict_matches("mem4", "Verus", True, None))
        self.assertTrue(vstats.verdict_matches("break_pop", "Dafny", False, "pop_front"))
        self.assertFalse(vstats.verdict_matches("break_pop", "Verus", True, None))
        self.assertFalse(vstats.verdict_matches("break_pop", "Verus", False, "push_front"))
        self.assertFalse(vstats.verdict_matches("singly_linked", "Verus", False, "pop_front"))

    def test_mutated_expected_answer_is_flagged(self):
        mutated = dict(vstats.ORACLE)
        mutated[("break_index", "Verus")] = "pop_front"
        self.assertTrue(vstats.verdict_matches("break_index", "Verus", False, "list_index"))
        self.assertFalse(
            vstats.verdict_matches("break_index", "Verus", False, "list_index", oracle=mutated)
        )

    def test_check_jobs_counts_each_failed_job_once(self):
        rows = [
            {"program": "mem4", "profile": "Verus", "ok": True, "digest": "a", "reference": "a"},
            {"program": "mem4", "profile": "Verus", "ok": True, "digest": "b", "reference": "a"},
            {"program": "dlock", "profile": "Verus", "ok": False, "failure_fn": "f",
             "digest": "c", "reference": "d"},
            {"program": "break_index", "profile": "Verus", "killed": True, "time_s": 10.0,
             "error": "killed"},
        ]
        wrong, mismatched, failed = run.check_jobs(rows)
        self.assertEqual((wrong, mismatched, failed), (1, 2, 3))
        self.assertEqual([r["failed"] for r in rows], [False, True, True, True])

    def test_every_cli_job_has_a_known_answer(self):
        for job in run.CLI_JOBS:
            self.assertIn(job, vstats.ORACLE)


class BenchmarkJson(unittest.TestCase):
    def test_benchmark_json_names_the_metrics_run_prints(self):
        path = run.BENCH.parent / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("no BENCHMARK.json next to the benchmark directory")
        doc = json.loads(path.read_text())
        self.assertEqual([m["name"] for m in doc["end_to_end"]], run.GATED)
        for m in doc["end_to_end"]:
            self.assertEqual(m["unit"], run.END_TO_END[m["name"]])
        self.assertEqual([m["name"] for m in doc["per_layer"]], list(run.PER_LAYER))
        for m in doc["per_layer"]:
            self.assertEqual(m["unit"], run.PER_LAYER[m["name"]])
        self.assertEqual([w["name"] for w in doc["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
