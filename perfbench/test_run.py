#!/usr/bin/env python3
"""Self-test of the benchmark in smoke mode (a few thousand requests).

    python3 perfbench/test_run.py

Checks that every workload prints every metric BENCHMARK.json names, with
its unit; that every layer probe made calls and checked its results; and
that the correctness checks fire on deliberately mismatched results.
Takes about a minute; builds perfbench/ first if needed.
"""

import copy
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SCRATCH = run.OUT / "selftest"


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def experiment(**overrides):
    """A plausible `perfbench run` result."""
    exp = {"workload": "ilp-k8", "seed": 1000, "issued": 240_000,
           "completed": 240_000, "samples": 204_000, "events": 4_465_233,
           "hops_per_req": 9.6, "p50_ms": 1.82, "p99_ms": 15.7}
    exp.update(overrides)
    return exp


class SmokeRuns(unittest.TestCase):
    results = {}

    @classmethod
    def setUpClass(cls):
        run.build()
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                cls.results[workload, trace] = run.measure(
                    workload, seed=1, seconds=0, trace=trace, smoke=True)

    def test_every_metric_is_printed_with_its_unit(self):
        for (workload, trace), (result, _) in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(set(result), {"correct", "attempted",
                                               "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], 0)
                want = units("per_layer" if trace else "end_to_end")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                json.dumps(result, allow_nan=False)

    def test_every_probe_makes_checked_calls(self):
        for workload in run.WORKLOADS:
            probes = self.results[workload, 1][1]["probes"]
            self.assertEqual(len(probes), 8)
            for name, p in probes.items():
                with self.subTest(workload=workload, probe=name):
                    self.assertTrue(p["ok"])
                    self.assertGreater(p["calls"], 0)
                    self.assertGreater(p["per_call"], 0)

    def test_traced_runs_measure_pdes_and_obs(self):
        for workload in run.WORKLOADS:
            metrics = self.results[workload, 1][0]["metrics"]
            with self.subTest(workload=workload):
                self.assertGreater(metrics["obs.bytes_written"]["value"], 0)
                if run.PDES_SHARDS > 1:
                    self.assertGreater(metrics["sim.windows"]["value"], 0)


class Checks(unittest.TestCase):
    def test_consistent_results_pass(self):
        self.assertEqual(run.check_experiments([experiment(), experiment()]),
                         [])

    def test_mismatched_pair_fails(self):
        for field, value in (("p99_ms", 15.8), ("p50_ms", 1.83),
                             ("events", 4_465_234), ("hops_per_req", 9.7)):
            with self.subTest(field=field):
                bad = experiment(**{field: value})
                self.assertTrue(run.check_experiments([experiment(), bad]))

    def test_lost_requests_fail(self):
        self.assertTrue(run.check_experiments(
            [experiment(completed=239_999)]))

    def test_too_few_samples_fail(self):
        self.assertTrue(run.check_experiments([experiment(samples=1000)],
                                              200_000))

    def test_attribution_csv_needs_nine_rows_per_request(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        path = SCRATCH / "attribution.csv"
        rows = run.FLIGHT_COMPONENTS + ["total"]
        good = [f"0,{req},1.0,5,0,1,{c},100" for req in (7, 8) for c in rows]
        path.write_text("\n".join([run.ATTRIBUTION_HEADER.decode()] + good)
                        + "\n")
        self.assertEqual(run.check_attribution_csv(path, 2), [])
        self.assertTrue(run.check_attribution_csv(path, 3))
        path.write_text("\n".join([run.ATTRIBUTION_HEADER.decode()]
                                  + good[:-1]) + "\n")
        self.assertTrue(run.check_attribution_csv(path, 2))

    def test_invalid_trace_json_fails(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        files = {}
        for name in ("trace", "metrics", "attribution", "decisions"):
            files[name] = str(SCRATCH / f"obs-{name}")
            Path(files[name]).write_text("x\n")
        Path(files["trace"]).write_text('{"traceEvents": [')
        exp = experiment(obs_files=files, attribution={"requests": 0})
        failures = run.check_obs_files(exp)
        self.assertTrue(any("trace JSON" in f for f in failures))

    def test_failed_check_counts_every_request_as_failed(self):
        real = run.check_experiments

        def failing(exps, *args, **kwargs):
            tampered = copy.deepcopy(exps)
            tampered[-1]["p99_ms"] += 1.0
            return real(tampered, *args, **kwargs)

        run.check_experiments = failing
        try:
            result, _ = run.measure("clirs-k8", seed=1, seconds=0, trace=0,
                                    smoke=True)
        finally:
            run.check_experiments = real
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
