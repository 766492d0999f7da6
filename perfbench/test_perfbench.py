"""Self-tests of the benchmark's own machinery; they need no alphadet.

    python3 -m pytest -q perfbench
"""

import json
import os
import sys
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


class Boom(Exception):
    pass


def _fake_package():
    """fakepkg.core defines the functions; fakepkg.user binds them by name."""
    core = types.ModuleType("fakepkg.core")

    def ident(x):
        return x

    def fail(x):
        raise Boom(x)

    def outer(x):
        return core.ident(x) + 1

    class Poly:
        def __init__(self, v):
            self.v = v

        def __mul__(self, other):
            return Poly(self.v * getattr(other, "v", other))

        __rmul__ = __mul__

    core.ident, core.fail, core.outer, core.Poly = ident, fail, outer, Poly
    user = types.ModuleType("fakepkg.user")
    user.ident, user.fail = ident, fail
    return core, user


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.core, self.user = _fake_package()
        sys.modules["fakepkg.core"] = self.core
        sys.modules["fakepkg.user"] = self.user
        self.originals = (self.core.ident, self.core.fail, self.core.Poly.__mul__)
        self.tracer = tracer.Tracer()
        self.tracer.install(
            [
                ("fakepkg.core", "ident", "core.ident", lambda x: x),
                ("fakepkg.core", "fail", "core.fail", None),
                ("fakepkg.core", "outer", "core.outer", None),
                ("fakepkg.core", "Poly.__mul__", "core.Poly.mul", None),
            ],
            package="fakepkg",
        )

    def tearDown(self):
        self.tracer.uninstall()
        del sys.modules["fakepkg.core"], sys.modules["fakepkg.user"]

    def test_return_values_pass_through_and_every_binding_is_wrapped(self):
        token = object()
        self.assertIs(self.user.ident(token), token)
        self.assertIs(self.core.ident(token), token)
        self.assertEqual(self.core.outer(1), 2)
        self.assertEqual((3 * self.core.Poly(2)).v, 6)  # __rmul__ shares __mul__
        names = [span[1] for span in self.tracer.spans]
        self.assertEqual(names, ["core.ident"] * 2 + ["core.outer", "core.ident", "core.Poly.mul"])
        outer_index = names.index("core.outer")
        self.assertEqual(self.tracer.spans[outer_index + 1][0], outer_index)

    def test_exceptions_propagate_unchanged(self):
        with self.assertRaises(Boom) as caught:
            self.user.fail("why")
        self.assertEqual(caught.exception.args, ("why",))
        span = self.tracer.spans[-1]
        self.assertEqual(span[1], "core.fail")
        self.assertGreaterEqual(span[3], span[2])
        self.assertEqual(self.tracer._stack, [])

    def test_uninstall_restores_originals(self):
        self.tracer.uninstall()
        self.assertIs(self.user.ident, self.originals[0])
        self.assertIs(self.core.fail, self.originals[1])
        self.assertIs(self.core.Poly.__mul__, self.originals[2])
        self.assertIs(self.core.Poly.__rmul__, self.originals[2])


class SelfTimeTest(unittest.TestCase):
    def test_nested_span_tree(self):
        spans = [
            [-1, "root", 0.0, 10.0, None],
            [0, "a", 1.0, 4.0, 7],
            [1, "a.leaf", 2.0, 3.0, None],
            [0, "b", 5.0, 9.0, 7],
            [3, "b.leaf", 5.0, 6.5, None],
            [3, "b.leaf", 7.0, 8.0, None],
        ]
        self.assertEqual(tracer.self_times(spans), [3.0, 2.0, 1.0, 1.5, 1.5, 1.0])
        rows = tracer.summarize(spans)
        self.assertEqual(rows["b.leaf"]["calls"], 2)
        self.assertEqual(rows["b.leaf"]["total_s"], 2.5)
        self.assertEqual(sum(r["self_s"] for r in rows.values()), 10.0)
        self.assertEqual(tracer.repeat_ratio(rows["a"]["keys"] + rows["b"]["keys"]), 0.5)

    def test_layer_share_leaves_out_the_suite_span(self):
        spans = [
            [-1, "verify.zsf", 0.0, 10.0, None],
            [0, "adet.wrdet", 1.0, 5.0, None],
            [1, "adet.adet_at", 2.0, 4.0, 1],
            [0, "adet.adet_at", 6.0, 8.0, 1],
        ]
        metrics = run.trace_metrics(spans, verdict_s=10.0)
        self.assertEqual(metrics["verify.zsf.self_s"], 4.0)
        self.assertEqual(metrics["adet.wrdet.self_s"], 2.0)
        self.assertEqual(metrics["adet.adet_at.total_s"], 4.0)
        self.assertEqual(metrics["trace.layer_share"], 0.6)
        self.assertEqual(metrics["adet.adet_at.repeat_ratio"], 0.5)

    def test_trace_metrics_cover_every_per_layer_name(self):
        names = {name for name, _unit in run.per_layer_metrics()}
        traced = set(run.trace_metrics([[-1, "verify.chi", 0.0, 1.0, None]], 1.0))
        kernel_rows = {name for name, _unit in run.kernels.ROWS}
        self.assertEqual(traced | kernel_rows | {"trace.overhead_s", "fail_ratio"}, names)

    def test_percentile(self):
        values = [float(v) for v in range(1, 11)]
        self.assertEqual(tracer.percentile(values, 0.5), 5.0)
        self.assertEqual(tracer.percentile(values, 0.9), 9.0)
        self.assertEqual(tracer.percentile([], 0.9), 0.0)


def _report(status="pass", wall="1.234567"):
    report = {
        "suite": "chi",
        "params": {"k": 2},
        "seed": 1,
        "case_count": 2,
        "cases": [{"id": "g=1", "status": "pass"}, {"id": "g=2", "status": status}],
        "status": status,
        "wall_time_s": 0,
    }
    text = json.dumps(report, indent=2).replace('"wall_time_s": 0', f'"wall_time_s": {wall}')
    return (text + "\n").encode()


class GateTest(unittest.TestCase):
    def test_wall_time_is_ignored(self):
        self.assertEqual(gate.report_digest(_report()), gate.report_digest(_report(wall="9.5")))

    def test_good_report_passes(self):
        raw = _report()
        self.assertEqual(gate.check_run(0, raw, 2, gate.report_digest(raw)), [])

    def test_tampered_report_is_rejected(self):
        digest = gate.report_digest(_report())
        tampered = _report().replace(b'"seed": 1', b'"seed": 2')
        problems = gate.check_run(0, tampered, 2, digest)
        self.assertEqual(len(problems), 1)
        self.assertIn("digest", problems[0])

    def test_failing_report_and_exit_code_are_rejected(self):
        raw = _report(status="fail")
        problems = gate.check_run(1, raw, 3, gate.report_digest(raw))
        self.assertEqual(len(problems), 4)  # exit code, status, case_count, failing case
        self.assertEqual(gate.check_run(0, None, 2, "x"), ["no report written"])


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_names_what_run_prints(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]], run.per_layer_metrics()
        )
        self.assertEqual(
            {w["name"]: w["why"] for w in spec["workloads"]},
            {name: w.why for name, w in run.WORKLOADS.items()},
        )


if __name__ == "__main__":
    unittest.main()
