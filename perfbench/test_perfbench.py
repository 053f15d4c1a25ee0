"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench -t .
"""

from __future__ import annotations

import hashlib
import json
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, run, stats, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, Execution, Op  # noqa: E402


def _span(name, start, end, parent=-1, op=None, **attrs):
    span = tracing.Span(name, start, parent, op)
    span.end = end
    span.attrs = attrs
    return span


def _execution(op, data: bytes, code=0) -> Execution:
    return Execution(op=op, op_id=0, seconds=0.5, code=code,
                     digest=hashlib.sha256(data).hexdigest(), nbytes=len(data),
                     text=data.decode())


class TailTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(stats.tail(list(range(100, 0, -1))), (90, 90.0))

    def test_rank_is_exact_where_the_float_percentile_rounds_up(self):
        value, pct = stats.tail([float(i) for i in range(1, 37)])
        self.assertEqual(value, 26.0)
        self.assertAlmostEqual(pct, 100 * 26 / 36)

    def test_no_tail_below_the_median(self):
        self.assertEqual(stats.tail(list(range(20))), (9, 50.0))
        self.assertIsNone(stats.tail(list(range(19))))

    def test_few_samples_report_the_median_as_tail(self):
        op = Op(("verify", "--check", "tell"))
        executions = [_execution(op, b"", 0) for _ in range(16)]
        for i, ex in enumerate(executions):
            ex.seconds = float(i % 8)
        metrics, notes = run.end_to_end([op] * 8, executions, [28.0, 28.0], [""] * 16, [0.1])
        self.assertEqual(metrics["op_tail_s"], metrics["op_p50_s"])
        self.assertEqual(metrics["op_p50_s"][0], 3.0)
        self.assertIn("p50", notes["op_tail_s"])

    def test_pass_median_takes_the_median_across_passes(self):
        latencies = [1, 2, 3, 10] + [1, 2, 5, 10] + [1, 2, 4, 10]
        self.assertEqual(stats.pass_median(latencies, 3), 2)
        self.assertEqual(stats.pass_median([1, 3, 2, 2, 4, 3], 2), 2.5)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        spans = [
            _span(tracing.OP, 0.0, 10.0, op=0),
            _span("tree_core.read_tree", 1.0, 3.0, parent=0, op=0),
            _span("tree_core.path_counts_fast", 4.0, 8.0, parent=0, op=0, n=4),
            _span("tree_core.counts_through_vertex", 5.0, 6.0, parent=2, op=0),
        ]
        self.assertEqual(tracing.self_times(spans), [4.0, 2.0, 3.0, 1.0])
        m = tracing.layer_metrics(spans, {0: "op"}, 7, 2, 0.0, 2)
        self.assertEqual(m["cli.self_s"], (4.0, 1))
        self.assertEqual(m["tree_core.path_counts_fast_s"], (4.0, 1))
        self.assertEqual(m["tree_core.pairs"], (6, 1))

    def test_experiment_self_time_and_parallel_efficiency(self):
        key = "experiment --which monotone_1_vs_n"
        spans = [
            _span(tracing.REPLAY, 0.0, 11.0, op=key),
            _span("experiments.run_experiment", 0.5, 10.5, parent=0, op=key,
                  which="monotone_1_vs_n", trials=100),
            _span("scale_free.sample_tree", 1.0, 2.0, parent=1, op=key),
            _span("scale_free.sample_tree", 3.0, 5.0, parent=1, op=key),
            _span(tracing.OP, 20.0, 25.0, op=7),
            _span("experiments.run_experiment", 20.5, 24.5, parent=4, op=7,
                  which="monotone_1_vs_n", trials=100),
        ]
        m = tracing.layer_metrics(spans, {7: key}, 0, 2, 0.0, 2)
        self.assertEqual(m["experiments.self_s"][0], 7.0)
        self.assertEqual(m["experiments.trial_s.monotone_1_vs_n"][0], 10.0)
        self.assertEqual(m["experiments.trials_per_s"][0], 10.0)
        self.assertEqual(m["experiments.parallel_efficiency"][0], 10.0 / (2 * 4.0))
        self.assertEqual(m["scale_free.sample_tree_calls"][0], 2)

    def test_patched_calls_nest_under_the_op_and_are_restored(self):
        import tempfile

        import bcprof.cli
        from bcprof import tree_core
        from bcprof.tree_families import make_gij
        from perfbench.workloads import run_cli

        original = bcprof.cli.path_counts_fast
        tracer = tracing.Tracer()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.tree"
            path.write_text(tree_core.write_tree(make_gij(3, 5)[0]))
            op = Op(("analyze", "--tree", "{tree}", "--vertex", "1"), "gij:3,5")
            with tracing.patched(tracer):
                ex = run_cli(bcprof.cli.main, op, {"gij:3,5": str(path)}, 0,
                             lambda: tracer.root(tracing.OP, 0))
        self.assertEqual(ex.code, 0)
        self.assertIs(bcprof.cli.path_counts_fast, original)
        names = [s.name for s in tracer.spans]
        self.assertEqual(names, [tracing.OP, "tree_core.read_tree", "tree_core.path_counts_fast",
                                 "tree_core.profile", "profile_analysis.vertex_analysis"])
        self.assertTrue(all(s.parent == 0 and s.op == 0 for s in tracer.spans[1:]))
        self.assertGreater(tracer.spans[2].attrs["conv_cells"], 0)

    def test_a_function_called_inside_itself_counts_once(self):
        spans = [
            _span(tracing.OP, 0.0, 10.0, op=0),
            _span("tree_core.all_profiles", 1.0, 9.0, parent=0, op=0, fractions=6),
            _span("tree_core.profile", 2.0, 3.0, parent=1, op=0, fractions=3),
            _span("tree_core.profile", 4.0, 5.0, parent=1, op=0, fractions=3),
        ]
        m = tracing.layer_metrics(spans, {0: "op"}, 0, 2, 0.0, 2)
        self.assertEqual(m["tree_core.profile_s"], (8.0, 1))
        self.assertEqual(m["tree_core.fractions"], (6, 1))


class FailureTest(unittest.TestCase):
    def setUp(self):
        self.op = Op(("gen", "tell:2"))
        good = b"# family: tell:2\n3\n0 1\n1 2\n"
        self.goldens = {"outputs": {self.op.key: {
            "sha256": hashlib.sha256(good).hexdigest(), "bytes": len(good)}},
            "experiment_csv": {}, "verify_cases": {"prop1": 199}}
        self.good = _execution(self.op, good)
        self.bad = _execution(self.op, good.replace(b"1 2", b"0 2"))

    def test_corrupted_output_raises_failed_frac(self):
        problems = checks.check_executions([self.good, self.bad], self.goldens, {})
        self.assertEqual(problems[0], "")
        self.assertIn("differs from golden", problems[1])
        metrics, notes = run.end_to_end([self.op], [self.good, self.bad], [1.0], problems, [0.1])
        self.assertEqual(metrics["ok_frac"][0], 0.5)
        self.assertIn("failed_frac 0.5", notes["ok_frac"])

    def test_nonzero_exit_fails(self):
        ex = _execution(self.op, b"", code=24)
        self.assertTrue(checks.check_executions([ex], self.goldens, {})[0])

    def test_verify_needs_the_recorded_nonzero_case_count(self):
        self.assertEqual(checks.verify_problem("PASS x\nprop1: pass (199 cases)\n", 199), "")
        self.assertIn("0 cases", checks.verify_problem("prop1: pass (0 cases)\n", 0))
        self.assertTrue(checks.verify_problem("prop1: pass (198 cases)\n", 199))
        self.assertTrue(checks.verify_problem("prop1: FAIL (199 cases)\n", 199))

    def test_experiment_csv_must_match_the_serial_replay(self):
        op = Op(("experiment", "--which", "monotone_1_vs_n"))
        csv = "x,estimate,stderr,trials,seed\n10,0.5,0.1,10,0\n"
        goldens = {"outputs": {}, "experiment_csv": {op.key: csv}, "verify_cases": {}}
        ex = _execution(op, csv.encode())
        self.assertEqual(checks.check_executions([ex], goldens, {}, {op.key: csv}), [""])
        self.assertTrue(checks.check_executions([ex], goldens, {}, {op.key: "other"})[0])

    def test_engine_identities_hold_and_catch_a_wrong_table(self):
        from bcprof import tree_core
        from bcprof.tree_families import make_gij

        tree = make_gij(3, 5)[0]
        self.assertEqual(checks.table_problem(tree), "")
        real = tree_core.path_counts_fast

        def off_by_one(t):
            table = real(t)
            pv = (table.pv[0][:2] + (table.pv[0][2] + 1,) + table.pv[0][3:],) + table.pv[1:]
            return tree_core.PathCountTable(table.d, table.p, pv, table.Pk, table.Pkv)

        tree_core.path_counts_fast = off_by_one
        try:
            self.assertIn("sum_v p_2(v)", checks.table_problem(tree))
        finally:
            tree_core.path_counts_fast = real


class DefinitionTest(unittest.TestCase):
    def test_every_drawable_op_has_a_golden(self):
        goldens = checks.load_goldens()
        for wl in WORKLOADS.values():
            for op in wl.pool():
                if op.command == "experiment":
                    self.assertIn(op.key, goldens["experiment_csv"])
                elif op.command == "verify":
                    self.assertGreater(goldens["verify_cases"][op.argv[-1]], 0)
                else:
                    self.assertIn(op.key, goldens["outputs"])

    def test_same_seed_same_ops(self):
        for wl in WORKLOADS.values():
            self.assertEqual(wl.op_list(5), wl.op_list(5))
            self.assertEqual(len(wl.op_list(5)), len(wl.slots))

    def test_benchmark_json_names_the_printed_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"]: w["why"] for w in spec["workloads"]},
                         {w.name: w.why for w in WORKLOADS.values()})
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS)
        layer = tracing.layer_metrics([], {}, 0, 2, 0.0, 0)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {name: tracing.unit_of(name) for name in layer})


if __name__ == "__main__":
    unittest.main()
