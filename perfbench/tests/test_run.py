"""Unit tests of run.py's checks and output shape.

Run with `python3 -m unittest discover -s perfbench/tests`. They build
and simulate nothing: reports are synthetic.
"""

import copy
import importlib.util
import json
import math
import statistics
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = importlib.util.spec_from_file_location("perfbench_run", HERE.parent / "run.py")
run = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(run)

BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())

STAGES = ("client_post", "tx_nic", "link", "rx_nic", "dma_llc_write", "handler", "response")


def report(
    traced=False,
    slices=((0.2, 0.5, 0.3), (0.2, 0.7, 0.3)),
    setups=(0.01, 0.02, 0.03),
    events=1000,
    reference=None,
):
    """A synthetic report of one repeat with two populations, each run
    in three slices of which the middle one is the measured window. Its
    reference kernel runs in two chunks at the nominal speed unless
    `reference` gives their times."""
    layers = {name: 1.0 for name in run.LAYER_UNITS}
    for s in STAGES:
        layers[f"stage.{s}.p50_us"] = 2.0
        layers[f"stage.{s}.p99_us"] = 9.0
    population = {
        "events": events,
        "ops": 500,
        "issued": 520,
        "completed": 520,
        "server_counters": {"TxVerbs": 700},
    }
    return {
        "build": {"profile": "release", "traced": traced},
        "populations": len(slices),
        "setup_s": list(setups),
        "slices_s": [list(p) for p in slices],
        "window_slices": [1, 2],
        "reference_s": list(reference or (run.REFERENCE_S / 2, run.REFERENCE_S / 2)),
        "peak_rss_mb": 40.0,
        "sim": {
            "mops": 10.5,
            "p50_us": 30.2,
            "p99_us": 1500.0,
            "p999_us": 2300.0,
            "latency_samples": 20000,
            "latency_kind": "batch",
            "failed_ratio": 0.015,
        },
        "fingerprint": [copy.deepcopy(population) for _ in slices],
        "layers": layers,
    }


class FingerprintCheck(unittest.TestCase):
    def test_identical_repeats_pass(self):
        run.check_fingerprints(
            [report(), report(slices=((1.0, 2.0, 3.0), (1.0, 1.0, 1.0))), report(traced=True)]
        )

    def test_a_changed_counter_fails_and_is_named(self):
        other = report()
        other["fingerprint"][1]["server_counters"]["TxVerbs"] += 1
        with self.assertRaisesRegex(run.BenchError, "repeat 1 .*server_counters"):
            run.check_fingerprints([report(), other])

    def test_a_traced_repeat_must_match_the_untraced_one(self):
        traced = report(traced=True, events=1001)
        with self.assertRaisesRegex(run.BenchError, r"\(traced\) differs .*events"):
            run.check_fingerprints([report(), traced])

    def test_a_changed_simulated_metric_fails(self):
        other = report()
        other["sim"]["p99_us"] = 1501.0
        with self.assertRaisesRegex(run.BenchError, "p99_us"):
            run.check_fingerprints([report(), other])

    def test_a_missing_population_fails(self):
        other = report()
        other["fingerprint"].pop()
        with self.assertRaisesRegex(run.BenchError, "repeat 1 reports 1 of 2 populations"):
            run.check_fingerprints([report(), other])

    def test_a_repeat_of_the_first_population_is_checked_against_it(self):
        def first_only():
            r = report(slices=((0.2, 0.5, 0.3),))
            r["sim"]["p50_us"] = 29.0
            return r

        run.check_fingerprints([report(), first_only(), first_only()])
        other = first_only()
        other["fingerprint"][0]["events"] += 1
        with self.assertRaisesRegex(run.BenchError, "repeat 2 .*events"):
            run.check_fingerprints([report(), first_only(), other])
        other = first_only()
        other["sim"]["p50_us"] = 28.0
        with self.assertRaisesRegex(run.BenchError, "repeat 2 .*p50_us"):
            run.check_fingerprints([report(), first_only(), other])


class OutputShape(unittest.TestCase):
    def test_end_to_end_metrics_match_the_benchmark_file(self):
        metrics = run.end_to_end([report(), report()])
        declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in metrics.items()}, declared)

    def test_per_layer_metrics_match_the_benchmark_file(self):
        metrics = run.per_layer([report()], [report(traced=True)])
        declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        self.assertEqual({k: v["unit"] for k, v in metrics.items()}, declared)

    def test_workloads_match_the_benchmark_file(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(run.WORKLOADS))

    def test_result_line_has_exactly_the_contract_keys(self):
        reports = [report(), report()]
        line = run.result_line(run.end_to_end(reports), reports)
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(line["correct"], True)
        self.assertEqual(line["attempted"], 4 * 520)
        self.assertEqual(line["failed"], 0)
        for m in line["metrics"].values():
            self.assertEqual(set(m), {"value", "unit"})
            self.assertTrue(math.isfinite(m["value"]))
        json.dumps(line)

    def test_failed_counts_requests_never_completed(self):
        r = report()
        r["fingerprint"][0]["completed"] -= 3
        self.assertEqual(run.counts([r, report()]), (4 * 520, 3))

    def test_host_time_takes_each_slice_at_its_fastest_repeat(self):
        reports = [
            report(slices=((1.0, 3.0, 1.0), (2.0, 2.0, 2.0))),
            report(slices=((2.0, 1.0, 2.0), (1.0, 4.0, 1.0))),
        ]
        # Population 0: 1 + 1 + 1 = 3 s; population 1: 1 + 2 + 1 = 4 s.
        self.assertEqual(run.fastest(reports, 0), 3.0)
        self.assertEqual(run.fastest(reports, 1), 4.0)
        self.assertEqual(run.fastest(reports, 1, window=True), 2.0)
        metrics = run.end_to_end(reports)
        self.assertEqual(metrics["wall_s"]["value"], 3.5)
        # 500 window ops over 1 s and over 2 s.
        self.assertEqual(metrics["sim_ops_per_host_s"]["value"], 375.0)
        self.assertEqual(
            metrics["setup_s"]["value"], statistics.median([0.01, 0.02, 0.03] * 2)
        )

    def test_host_time_uses_the_populations_every_repeat_ran(self):
        reports = [
            report(slices=((1.0, 1.0, 1.0), (9.0, 9.0, 9.0))),
            report(slices=((2.0, 0.5, 2.0),)),
        ]
        metrics = run.end_to_end(reports)
        self.assertEqual(metrics["wall_s"]["value"], 2.5)
        self.assertEqual(metrics["sim_ops_per_host_s"]["value"], 1000.0)

    def test_host_times_are_scaled_by_the_reference_kernel(self):
        half = run.REFERENCE_S / 2
        # Chunk minima sum to twice the nominal time; the median sum is
        # three times it.
        reports = [
            report(slices=((1.0, 1.0, 1.0),), reference=(half * 2, half * 4)),
            report(slices=((1.0, 1.0, 1.0),), reference=(half * 4, half * 2)),
            report(slices=((1.0, 1.0, 1.0),), reference=(half * 3, half * 3)),
        ]
        self.assertEqual(run.reference(reports), (2 * run.REFERENCE_S, 3 * run.REFERENCE_S))
        metrics = run.end_to_end(reports)
        self.assertAlmostEqual(metrics["wall_s"]["value"], 1.5)
        self.assertAlmostEqual(metrics["sim_ops_per_host_s"]["value"], 1000.0)
        self.assertAlmostEqual(metrics["setup_s"]["value"], 0.02 / 3)

    def test_overhead_ratio_is_traced_over_untraced_wall(self):
        metrics = run.per_layer(
            [report(slices=((0.5, 0.5, 0.5),) * 2)],
            [report(traced=True, slices=((0.75, 0.75, 0.75),) * 2)],
        )
        self.assertEqual(metrics["trace.overhead_ratio"]["value"], 1.5)

    def test_non_finite_values_are_refused(self):
        with self.assertRaises(run.BenchError):
            run.metric(float("nan"), "s")
        with self.assertRaises(run.BenchError):
            run.metric(float("inf"), "s")


if __name__ == "__main__":
    unittest.main()
