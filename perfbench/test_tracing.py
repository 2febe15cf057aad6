"""Self-test of the tracing hooks and of BENCHMARK.json against the metrics
the benchmark emits.  Needs the fdosc sources in ../src.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402
from fdosc import opcore, rel, specfun  # noqa: E402


class HookTest(unittest.TestCase):
    def test_every_binding_is_wrapped_and_restored(self):
        orig = specfun.log_gamma
        self.assertIs(rel.log_gamma, orig)
        t = tracing.Tracer()
        t.install()
        try:
            self.assertIsNot(specfun.log_gamma, orig)
            self.assertIs(rel.log_gamma, specfun.log_gamma)
            self.assertIs(opcore.DifferenceOperator.apply, opcore.DifferenceOperator.__call__)
            model = rel.make_rel_model(0.5, 0.1)
            wf = rel.eigenfunction_rel(model, 2).wavefunction
            wf(1.0)
            wf(1.0)      # memo hit: a second call, no new specfun work
        finally:
            t.uninstall()
        self.assertIs(specfun.log_gamma, orig)
        self.assertIs(rel.log_gamma, orig)
        self.assertEqual(t.calls["opcore.fn"], 2)
        self.assertEqual(t.outer_calls["opcore.fn"], 2)
        # log_gamma(i rho) recurses once through the reflection formula: the
        # recursive call is counted, its time is not counted twice
        self.assertEqual(t.calls["specfun.log_gamma"], 4)
        self.assertEqual(t.outer_calls["specfun.log_gamma"], 3)
        self.assertEqual(t.calls["specfun.cdhahn_complex"], 1)
        self.assertEqual(t.calls["rel.eigenfunction_rel"], 1)
        self.assertGreater(t.seconds["opcore.fn"], 0.0)
        self.assertLessEqual(t.specfun_in_fn, t.seconds["opcore.fn"])

    def test_missing_name_is_absent_not_zero(self):
        hooks = tracing.HOOKS + [("opcore.jet", "fdosc.opcore", "no_such_function", "counter")]
        t = tracing.Tracer(hooks)
        t.install()
        t.uninstall()
        self.assertEqual(t.absent, ["opcore.jet"])
        self.assertNotIn("opcore.jet", t.calls)

    def test_absent_hook_drops_its_metrics(self):
        t = tracing.Tracer([h for h in tracing.HOOKS if h[0] != "opcore.derivative"])
        t.install()
        t.uninstall()
        m = workload.per_layer(t, 1, 1.0, 1.0)
        self.assertNotIn("opcore.derivative.calls", m)
        self.assertIn("opcore.shifted.calls", m)


class ConfigTest(unittest.TestCase):
    def test_benchmark_json_lists_the_emitted_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        t = tracing.Tracer()
        t.install()
        t.uninstall()
        emitted = workload.per_layer(t, 1, 1.0, 1.0)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         {k: v["unit"] for k, v in emitted.items()})
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workload.WORKLOADS))
        r = {"unit_s": 1.0, "setup_s": 1.0, "peak_rss_mb": 1.0, "failed": 0, "attempted": 1}
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         {k: v["unit"] for k, v in run.result_json(r, 0)["metrics"].items()})


if __name__ == "__main__":
    unittest.main()
