"""Checks of the benchmark itself, including its negative control.

    python3 -m unittest discover -s bench -p "test_*.py"

The negative control corrupts one expected arrow verdict and one expected
CLI output and shows that the failed-operation count rises.  Rounds are cut
down to their cheap operations so that the checks take a few seconds.
"""

import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def failed_ops(workload, tracer=None):
    meter = run.Meter()
    meter.run(workload, tracer or run.NullTracer())
    return len(meter.failures) / meter.attempted


class NegativeControl(unittest.TestCase):
    def test_corrupted_verdict_is_counted(self):
        arrow = workloads.Arrow(seed=1)
        arrow.cases = [case for case in arrow.cases if case[0].startswith("R33")]
        arrow.words = arrow.words[:10]
        self.assertEqual(failed_ops(arrow), 0)
        label, inst, holds = arrow.cases[-1]
        self.assertEqual((label, holds), ("R33.K5", False))
        arrow.cases[-1] = (label, inst, True)
        self.assertGreater(failed_ops(arrow), 0)

    def test_corrupted_cli_output_is_counted(self):
        pipeline = workloads.Pipeline(seed=1)
        try:
            pipeline.commands = pipeline.commands[:6]
            pipeline.expected = pipeline.expected[:6]
            self.assertEqual(failed_ops(pipeline), 0)
            self.assertEqual(failed_ops(pipeline), 0)  # repetitions match the first
            pipeline.expected[2] = pipeline.expected[2].replace("x1", "x2", 1)
            self.assertGreater(failed_ops(pipeline), 0)
        finally:
            pipeline.close()

    def test_wrong_pinned_field_is_counted(self):
        pipeline = workloads.Pipeline(seed=1)
        try:
            argv, fields = pipeline.commands[0]
            pipeline.commands = [(argv, dict(fields, m=8))]
            pipeline.expected = [None]
            self.assertGreater(failed_ops(pipeline), 0)
        finally:
            pipeline.close()


class Tracing(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tr = Tracer()
        tr.call("outer.a", lambda: tr.call("inner.b", sum, range(10**5)))
        (_, s0, e0, p0, _), (_, s1, e1, p1, _) = tr.spans
        self.assertEqual((p0, p1), (None, 0))
        self_times = tr.self_times()
        self.assertAlmostEqual(self_times["outer"], (e0 - s0) - (e1 - s1))
        self.assertAlmostEqual(self_times["inner"], e1 - s1)

    def test_traced_round_records_layers(self):
        factorize = workloads.Factorize(seed=1)
        factorize.trials = factorize.trials[:8]  # two per selector
        tr = Tracer()
        self.assertEqual(failed_ops(factorize, tr), 0)
        names = {span[0] for span in tr.spans}
        self.assertLessEqual(names, set(run.SPANS))
        self.assertIn("structures.compose", names)
        self.assertIn("words.compose", names)
        self.assertIn("metric_encoding.witness", names)


class Declaration(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in declared["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in declared["per_layer"]],
                         run.per_layer_metrics())
        self.assertEqual([w["name"] for w in declared["workloads"]], list(run.WORKLOAD_NAMES))
        self.assertEqual(set(run.WORKLOAD_NAMES), set(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
