"""Tests of the benchmark harness's own logic.

  python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import io
import random
import sys
import tempfile
import unittest
from contextlib import redirect_stderr
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from relmon import cli, corpus, fincat, monad, monadicity  # noqa: E402
from relmon.errors import BudgetExceeded  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class PercentileRule(unittest.TestCase):
    def test_reported_with_ten_samples_beyond(self):
        value, beyond = stats.percentile(range(1, 101), 90)
        self.assertEqual(beyond, 10)
        self.assertAlmostEqual(value, 90.9)

    def test_withheld_with_fewer_than_ten_beyond(self):
        self.assertIsNone(stats.percentile(range(1, 100), 90))
        self.assertIsNone(stats.percentile([5.0], 50))

    def test_quartiles_of_one_sample(self):
        self.assertEqual(stats.quartiles([2.5]), (2.5, 2.5, 2.5))


class EndToEnd(unittest.TestCase):
    def test_medians_scaled_to_reference_speed(self):
        ref = reference.REFERENCE_S

        def one_pass(wall, latencies, sample):
            return {"wall_s": wall, "items": 2, "peak_rss_mb": 20.0, "latencies_s": latencies,
                    "reference_s": [sample, sample * 3, sample / 3]}

        # the second pass ran at half reference speed, the third at double
        passes = [one_pass(4.0, {"a": 0.001, "b": 0.004}, ref),
                  one_pass(6.0, {"a": 0.004, "b": 0.002}, 2 * ref),
                  one_pass(1.5, {"a": 0.001, "b": 0.003}, ref / 2)]
        metrics = run.end_to_end(passes, [0.3, 0.1, 0.2])
        self.assertEqual(metrics["setup_s"][0], 0.2)
        self.assertEqual(metrics["wall_ref_s"][1], [4.0, 3.0, 3.0])
        self.assertEqual(metrics["wall_ref_s"][0], 3.0)
        self.assertEqual(metrics["items_per_ref_s"][0], 2 / 3.0)
        # a: 1, 2, 2 ms at reference speed; b: 4, 1, 6 ms
        self.assertEqual(sorted(metrics["item_p50_ref_ms"][1]), [2.0, 4.0])
        self.assertEqual(metrics["item_p50_ref_ms"][0], 3.0)
        measured = run.as_measured(passes)
        self.assertEqual(measured["wall_s"][0], 4.0)
        self.assertEqual(measured["speed"][1], [1.0, 0.5, 2.0])


class SelfTime(unittest.TestCase):
    def test_nested_span_tree(self):
        clock = FakeClock()
        tr = tracing.Tracer(clock)

        def at(t):
            clock.now = t

        at(0)
        a = tr.enter("A", span=True)
        at(1)
        b1 = tr.enter("B", span=True)
        at(2)
        c = tr.enter("C")
        at(3)
        tr.exit(c)
        at(5)
        tr.exit(b1)
        at(6)
        b2 = tr.enter("B", span=True)
        at(7)
        tr.exit(b2)
        at(10)
        tr.exit(a)

        self.assertEqual(tr.self_s["A"], 10 - 4 - 1)
        self.assertEqual(tr.self_s["B"], (4 - 1) + 1)
        self.assertEqual(tr.self_s["C"], 1)
        self.assertEqual(tr.total_s["B"], 5)
        # C is aggregated only; spans name their nearest span-recording parent
        by_name = {(s[1], s[2]): s for s in tr.spans}
        a_id = by_name[("A", 0)][0]
        self.assertEqual(by_name[("B", 1)][4], a_id)
        self.assertEqual(by_name[("B", 6)][4], a_id)
        self.assertIsNone(by_name[("A", 0)][4])
        self.assertEqual(len(tr.spans), 3)

    def test_untimed_work_is_charged_to_no_layer(self):
        clock = FakeClock()
        tr = tracing.Tracer(clock)
        frame = tr.enter("A")
        clock.now = 1
        with tr.untimed():
            tr.calls["B"] += 1
            clock.now = 3
        clock.now = 4
        tr.exit(frame)
        self.assertEqual(tr.self_s["A"], 2)
        self.assertEqual(tr.calls["B"], 0)


class SeedDeterminism(unittest.TestCase):
    def inputs(self, name, seed):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            workloads.make(name, seed, root)
            return {str(p.relative_to(root)): p.read_bytes()
                    for p in sorted(root.rglob("*")) if p.is_file()}

    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for name in ("enumerate", "audit"):
            first = self.inputs(name, 7)
            self.assertEqual(first, self.inputs(name, 7))
            self.assertNotEqual(first, self.inputs(name, 8))

    def test_renaming_round_trip(self):
        doc = corpus.split_category().to_dict()
        m = workloads.rename_map(workloads.category_names(doc), random.Random(1))
        renamed = workloads.rename_category(doc, m)
        self.assertNotEqual(renamed, doc)
        inverse = {v: k for k, v in m.items()}
        self.assertEqual(workloads.restore_names(renamed, inverse), doc)
        self.assertEqual(sorted(m), sorted(m, key=m.get))
        composite = f"alg({m['x']}:{m['x']}.{m['r']}>{m['e']})"
        self.assertEqual(workloads.restore_names({composite: [f"{m['s']}|{m['y']}"]}, inverse),
                         {"alg(x:x.r>e)": ["s|y"]})


class Wrappers(unittest.TestCase):
    def setUp(self):
        self.tracer = tracing.Tracer()
        self.installation = tracing.install(self.tracer, workloads.relmon_modules())

    def tearDown(self):
        self.installation.undo()

    def test_same_values(self):
        bz2 = corpus.bz2_category()
        wrapped = [F.table() for F in fincat.enumerate_functors(bz2, bz2)]
        j = fincat.identity_functor(bz2)
        verdict = monadicity.decide_monadicity(j, j, "strict").verdict
        self.installation.undo()
        self.assertEqual(wrapped, [F.table() for F in fincat.enumerate_functors(bz2, bz2)])
        self.assertEqual(verdict, monadicity.decide_monadicity(j, j, "strict").verdict)
        self.assertGreaterEqual(self.tracer.calls["fincat.enumerate_functors"], 1)
        self.assertGreaterEqual(self.tracer.counts["fincat.enumerate_functors.yielded"], len(wrapped))
        self.assertEqual(self.tracer.calls["monadicity.decide_monadicity"], 1)

    def test_same_exceptions(self):
        j = fincat.identity_functor(corpus.bz2_category())
        with self.assertRaisesRegex(ValueError, "unknown mode 'sideways'"):
            monadicity.decide_monadicity(j, j, "sideways")
        self.assertEqual(self.tracer.stack, [])
        Z7 = corpus.delooping(workloads._cyclic(7), name="Z7")
        with self.assertRaises(BudgetExceeded):
            monad.enumerate_relative_monads(corpus.point_functor(Z7, "*"))

    def test_budget_exceeded_reaches_cli(self):
        Z7 = corpus.delooping(workloads._cyclic(7), name="Z7")
        j = corpus.point_functor(Z7, "*")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "j.json"
            corpus.save_json({"dom": j.dom.to_dict(), "cod": Z7.to_dict(),
                              "on_objects": j.on_objects, "on_morphisms": j.on_morphisms}, path)
            with redirect_stderr(io.StringIO()):
                code = cli.main(["monad", "enumerate", "--j", str(path)])
        self.assertEqual(code, 4)
        self.assertEqual(self.tracer.calls["cli.main"], 1)
        self.assertEqual(self.tracer.calls["monad.enumerate_relative_monads"], 1)

    def test_undo_restores_originals(self):
        self.installation.undo()
        self.assertNotIn("wrapper", fincat.enumerate_functors.__code__.co_name)
        self.assertEqual(fincat.FinCategory.__dict__["table"].__qualname__, "FinCategory.table")

    def test_early_close_closes_the_inner_generator(self):
        bz2 = corpus.bz2_category()
        gen = fincat.enumerate_functors(bz2, bz2)
        next(gen)
        gen.close()
        self.assertEqual(self.tracer.stack, [])


if __name__ == "__main__":
    unittest.main()
