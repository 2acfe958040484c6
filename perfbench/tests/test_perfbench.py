"""Tests of the benchmark's own code: sampler, span arithmetic, tracer
installation and the per-op output checks.

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import json
import os
import random
import sys
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import quiverforge  # noqa: E402
from quiverforge import catalog, functors, reps, serialize  # noqa: E402

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SMALL = [(1, 1, 1, (1, 1, 2), "q"), (1, 1, 1, (0, 2, 1), "q"), (2, 1, 1, (1, 2, 0), "q")]


class SamplerTest(unittest.TestCase):
    def setUp(self):
        self.pool = workloads.build_pool(workloads.WORKLOADS["catalog_f3"])

    def test_same_seed_same_sample(self):
        a = workloads.draw_pass(self.pool, random.Random(7))
        b = workloads.draw_pass(self.pool, random.Random(7))
        self.assertEqual(a, b)

    def test_different_seed_different_sample(self):
        a = workloads.draw_pass(self.pool, random.Random(7))
        b = workloads.draw_pass(self.pool, random.Random(8))
        self.assertNotEqual(a, b)
        self.assertNotEqual(sorted(a), sorted(b))  # not only the order differs

    def test_stratum_counts_do_not_depend_on_seed(self):
        def counts(sample):
            out = {}
            for t in sample:
                key = (t[:3], sum(t[3]))
                out[key] = out.get(key, 0) + 1
            return out

        a = workloads.draw_pass(self.pool, random.Random(1))
        b = workloads.draw_pass(self.pool, random.Random(2))
        self.assertEqual(counts(a), counts(b))
        self.assertEqual(len(set(a)), len(a))  # without replacement

    def test_every_pass_has_enough_ops(self):
        for w in workloads.WORKLOADS.values():
            pool = workloads.build_pool(w)
            sample = workloads.draw_pass(pool, random.Random(0))
            self.assertGreaterEqual(len(sample), workloads.MIN_OPS_PER_PASS, w.name)
            lo, hi = w.heights
            self.assertTrue(all(lo <= sum(t[3]) <= hi for t in pool), w.name)

    def test_warmup_family_is_outside_every_pool(self):
        for w in workloads.WORKLOADS.values():
            self.assertNotIn(workloads.WARMUP_FAMILY, w.families)


class SelfTimeTest(unittest.TestCase):
    # op [0,10]: children a [1,4] and b [5,9] -> self 10 - 7 = 3
    # a [1,4]: child c [2,3] -> self 2
    # b [5,9]: overlapping children d [5,7] and e [6,8] cover [5,8] -> self 1
    SPANS = [
        [tracing.OP_SPAN, None, 0, 0.0, 10.0],
        ["reps.a", 0, 0, 1.0, 4.0],
        ["functors.sigma", 0, 0, 5.0, 9.0],
        ["linalg.c", 1, 0, 2.0, 3.0],
        ["reps.delta_matrix", 2, 0, 5.0, 7.0],
        ["reps.delta_matrix", 2, 0, 6.0, 8.0],
    ]

    def test_self_times(self):
        self.assertEqual(tracing.self_times(self.SPANS), [3.0, 2.0, 1.0, 1.0, 2.0, 2.0])

    def test_child_sticking_out_is_clipped(self):
        spans = [["p", None, 0, 0.0, 2.0], ["c", 0, 0, 1.0, 5.0]]
        self.assertEqual(tracing.self_times(spans), [1.0, 4.0])

    def test_covered_length(self):
        self.assertEqual(tracing.covered_length([(0, 1), (0.5, 2), (3, 4), (4, 4)]), 3.0)

    def test_layer_metrics_on_hand_built_tree(self):
        spans = self.SPANS + [["quiver.enumerate_real_roots", None, tracing.SETUP_OP, 0.0, 0.5]]
        totals = tracing.layer_totals(spans, {"linalg.elim.cells": 10, "linalg.elim.nnz": 4})
        m = tracing.layer_metrics(totals)
        self.assertEqual(m["functors.sigma.calls"], (1.0, "calls/root"))
        self.assertEqual(m["functors.sigma.self_s"], (1.0, "s/root"))
        self.assertEqual(m["functors.sigma.incl_share"], (0.4, "ratio"))
        self.assertEqual(m["functors.delta_per_stage"], (2.0, "builds/stage"))
        self.assertEqual(m["reps.self_s"], (2.0 + 2.0 + 2.0, "s/root"))
        self.assertEqual(m["linalg.elim.density"], (0.4, "ratio"))
        self.assertEqual(m["quiver.enumerate_real_roots.self_s"], (0.5, "s"))
        self.assertEqual(m["reps.oracle.calls"], (0.0, "calls/root"))

    def test_totals_of_two_processes_merge(self):
        spans = self.SPANS + [["quiver.enumerate_real_roots", None, tracing.SETUP_OP, 0.0, 0.5]]
        one = tracing.layer_totals(spans, {"linalg.elim.cells": 10, "linalg.elim.nnz": 4})
        other = tracing.layer_totals(spans[:1] + spans[-1:], {"linalg.elim.cells": 10})
        merged = json.loads(json.dumps(tracing.merge_totals([one, other])))  # as sent by workers
        m = tracing.layer_metrics(merged)
        self.assertEqual(m["functors.sigma.calls"], (0.5, "calls/root"))
        self.assertEqual(m["reps.self_s"], (3.0, "s/root"))
        self.assertEqual(m["linalg.elim.density"], (0.2, "ratio"))
        self.assertEqual(m["quiver.enumerate_real_roots.self_s"], (0.5, "s"))  # per set-up
        self.assertEqual(m["functors.delta_per_stage"], (2.0, "builds/stage"))

    def test_ratio_without_base_has_no_value(self):
        m = tracing.layer_metrics(tracing.layer_totals(self.SPANS[:2], {}))
        self.assertIsNone(m["functors.delta_per_stage"][0])
        self.assertIsNone(m["linalg.elim.density"][0])


class TracerTest(unittest.TestCase):
    def test_wraps_at_the_callers_name_and_restores(self):
        originals = (reps.hom_dim, functors.hom_dim, quiverforge.end_dim, catalog.end_dim)
        t = tracing.Tracer()
        t.install()
        try:
            self.assertIs(reps.hom_dim, functors.hom_dim)
            self.assertIsNot(reps.hom_dim, originals[0])
            t.begin_op(0)
            p = quiverforge.FamilyParams(1, 1, 1)
            x, trace = quiverforge.construct({1: 1, 2: 1, 3: 2}, p)
            self.assertEqual(catalog.end_dim(x), quiverforge.predicted_end_dim(trace))
            t.end_op()
        finally:
            t.uninstall()
        self.assertEqual((reps.hom_dim, functors.hom_dim, quiverforge.end_dim, catalog.end_dim), originals)
        names = [s[0] for s in t.spans]
        for name in ("three_vertex.construct", "functors.sigma", "reps.end_dim", "reps.hom_dim",
                     "reps.delta_matrix", "linalg.rank"):
            self.assertIn(name, names)
        end = max(i for i, s in enumerate(t.spans) if s[0] == "reps.end_dim")
        self.assertEqual(t.spans[end + 1][:2], ["reps.hom_dim", end])
        self.assertGreater(t.counts["linalg.mat.entries"], 0)
        self.assertGreater(t.counts["reps.delta_matrix.cells"], 0)


class SpeedProbeTest(unittest.TestCase):
    def setUp(self):
        self.now = 0.0
        self.cost = 0.0

        def loop():  # the reference loop "takes" self.cost seconds
            self.now += self.cost

        patcher = mock.patch.object(speed, "reference_loop", loop)
        patcher.start()
        self.addCleanup(patcher.stop)
        self.probe = speed.SpeedProbe(lambda: self.now)

    def test_ops_scaled_by_the_mean_of_the_enclosing_timings(self):
        self.cost = 0.004
        self.probe.start()
        self.probe.before_op()  # no time has passed: no retiming
        self.probe.record(0.1)
        self.assertEqual(len(self.probe.samples), 1)
        self.cost = 0.012
        scaled = self.probe.finish()
        self.assertEqual(self.probe.samples, [0.004, 0.012])
        self.assertAlmostEqual(scaled[0], 0.1 * speed.REFERENCE_S / 0.008)

    def test_retimes_between_ops_after_the_interval(self):
        self.cost = 0.008
        self.probe.start()
        self.probe.record(0.05)
        self.now += speed.INTERVAL_S
        self.probe.before_op()
        self.probe.record(0.07)
        self.assertEqual(len(self.probe.samples), 2)
        for got, want in zip(self.probe.finish(), [0.05, 0.07]):
            self.assertAlmostEqual(got, want)


class OutputCheckTest(unittest.TestCase):
    def failed(self, kind, tasks):
        res = worker.run_pass(workloads.Workload("t", kind, (), (1, 1), "q"), tasks, speed.SpeedProbe())
        return worker.summarize(res)

    def test_correct_outputs_pass(self):
        for kind in ("catalog", "construct"):
            out = self.failed(kind, SMALL)
            self.assertEqual((out["attempted"], out["failed"]), (3, 0), kind)

    def test_record_not_ok_is_counted(self):
        real = catalog.check_root

        def wrong(task):
            rec = real(task)
            if task[3] == (0, 2, 1):
                rec.end_computed += 1
                rec.ok = False
            return rec

        with mock.patch.object(catalog, "check_root", wrong):
            out = self.failed("catalog", SMALL)
        self.assertEqual((out["attempted"], out["failed"]), (3, 1))
        self.assertIn("record.ok is false", out["errors"][0])

    def test_wrong_dims_are_counted(self):
        real = catalog.check_root

        def wrong(task):
            rec = real(task)
            rec.alpha = (9, 9, 9)
            return rec

        with mock.patch.object(catalog, "check_root", wrong):
            self.assertEqual(self.failed("catalog", SMALL)["failed"], 3)

    def test_round_trip_mismatch_is_counted(self):
        real = serialize.rep_from_json

        def lossy(obj):
            obj["mats"]["la1"] = [["0"] * len(r) for r in obj["mats"]["la1"]]
            return real(obj)

        with mock.patch.object(serialize, "rep_from_json", lossy):
            out = self.failed("construct", SMALL)
        self.assertEqual(out["failed"], 2)  # la1 of X_(0,2,1) is 2x0, so zeroing it changes nothing
        self.assertIn("round trip", out["errors"][0])

    def test_raising_op_is_counted(self):
        def boom(task):
            raise RuntimeError("injected")

        with mock.patch.object(catalog, "check_root", boom):
            out = self.failed("catalog", SMALL[:2])
        self.assertEqual(out["failed"], 2)
        self.assertIn("injected", out["errors"][0])

    def test_tracing_leaves_outputs_unchanged(self):
        for kind in ("catalog", "construct"):
            w = workloads.Workload("t", kind, (), (1, 1), "q")
            plain = worker.run_pass(w, SMALL, speed.SpeedProbe())
            t = tracing.Tracer()
            t.install()
            try:
                traced = worker.run_pass(w, SMALL, speed.SpeedProbe(), t)
            finally:
                t.uninstall()
            self.assertEqual(traced.digest, plain.digest, kind)

    def test_digest_depends_on_outputs(self):
        a = self.failed("construct", SMALL)["digest"]
        self.assertEqual(a, self.failed("construct", SMALL)["digest"])
        self.assertNotEqual(a, self.failed("construct", SMALL[:2])["digest"])


class AggregationTest(unittest.TestCase):
    def test_root_time_is_the_median_over_the_passes_that_drew_it(self):
        a, b = [1, 1, 1, [1, 1, 2], "q"], [1, 1, 1, [0, 2, 1], "q"]
        passes = [
            {"times": [[a, 1.0, 10.0], [b, 5.0, 50.0]]},
            {"times": [[a, 3.0, 30.0]]},
            {"times": [[a, 2.0, 20.0], [b, 7.0, 70.0]]},
        ]
        self.assertEqual(sorted(run.root_times(passes, 1)), [2.0, 6.0])
        self.assertEqual(sorted(run.root_times(passes, 2)), [20.0, 60.0])

    def test_whole_passes_end_nearest_to_the_seconds(self):
        self.assertTrue(run.keep_going(20.0, 10.0, 30.0, 100.0))  # 30 vs 20: one more
        self.assertFalse(run.keep_going(26.0, 10.0, 30.0, 100.0))  # 36 vs 26: stop
        self.assertFalse(run.keep_going(5.0, 10.0, 30.0, 14.0))  # would overrun the limit


if __name__ == "__main__":
    unittest.main()
