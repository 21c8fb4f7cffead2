"""Self-tests of the benchmark. From the root of a repository checkout:

    python3 -m unittest discover -s perfbench -p "test_*.py"

The JVM tests build the program first (a few seconds when it is current).
"""

import copy
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import build  # noqa: E402
import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

ROOT = os.path.dirname(HERE)


def span(i, parent, name, start, end, **attrs):
    return {"id": i, "parent": parent, "name": name, "start_s": start, "end_s": end, "attrs": attrs}


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_union_of_children(self):
        sp = [span(0, -1, "root", 0.0, 10.0),
              span(1, 0, "a", 1.0, 4.0),
              span(2, 0, "b", 3.0, 5.0),      # overlaps a: union 1..5
              span(3, 0, "c", 8.0, 12.0),     # sticks out of root: clipped to 8..10
              span(4, 1, "grandchild", 1.5, 2.0)]
        self.assertAlmostEqual(spans.child_cover(sp, sp[0]), 6.0)
        self.assertAlmostEqual(spans.self_time(sp, sp[0]), 4.0)
        self.assertAlmostEqual(spans.self_time(sp, sp[1]), 2.5)
        self.assertAlmostEqual(spans.self_time(sp, sp[4]), 0.5)
        by_name = spans.self_times_by_name(sp)
        self.assertAlmostEqual(by_name["root"], 4.0)
        self.assertAlmostEqual(by_name["c"], 4.0)

    def test_union_of_nested_and_disjoint_intervals(self):
        self.assertAlmostEqual(spans.union_length([(0, 10), (2, 3), (11, 12)]), 11.0)
        self.assertEqual(spans.union_length([]), 0.0)


def fake_traced(k, spark):
    sp = [span(0, -1, "e2e", 0.0, 2.0), span(1, 0, "ags", 0.5, 1.5),
          span(2, 1, "ags.batch", 0.6, 1.0, sigma_s=0.1)]
    return {"spans": sp, "k": k, "pairs": list(range(1, k + 1)),
            "sampler": {"treelet_s": 1.0, "samples": 10, "canonical_s": 0.1, "distinct_raw": 3,
                        "distinct": 2, "sigma_s": 0.1, "sigma_calls": 2},
            "spark": ({"level_s": [0.1] * k, "level_tasks": [1] * k, "shuffle_read_bytes": [1] * k,
                       "shuffle_write_bytes": [1] * k, "plan_nodes": [1] * k, "collect_rows": 5}
                      if spark else {}),
            "graph_gen_s": 0.1, "graph_n": 1, "graph_m": 1, "graph_max_deg": 1,
            "table_pairs": 2, "table_bytes": 32, "e2e_s": 2.0,
            "ags_stats": {"batches": 1, "shape_switches": 0, "covered": 1, "samples": 10}}


class DeclaredMetrics(unittest.TestCase):
    def test_every_printed_metric_is_declared(self):
        e2e_decl, layer_decl = run.declared_metrics()
        e2e = run.end_to_end_metrics(
            [{"e2e_s": 1.0, "peak_rss_mb": 100.0}], [0.5])
        self.assertEqual({n: u for n, (_, u) in e2e.items()}, e2e_decl)
        for k, spark in ((6, True), (8, False)):
            m = run.per_layer_metrics(fake_traced(k, spark), 1.0)
            self.assertEqual({n: u for n, (_, u) in m.items()}, layer_decl)

    def test_declared_workloads_match_runner(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            b = json.load(fh)
        self.assertEqual(tuple(w["name"] for w in b["workloads"]), run.WORKLOADS)
        for w in run.WORKLOADS:
            self.assertGreater(check.load_reference(w)["t"], 0)


class JvmChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.env = run.Env(ROOT, *build.build(ROOT))

    def test_traced_sampler_draws_the_same_codes(self):
        out = os.path.join(self.env.work, "selftest.json")
        res, err, _ = run.run_child(self.env, "perfbench.trace.TraceMain",
                                    ["selftest", "local-yelp-k8", "5", out], out, traced=True)
        self.assertIsNone(err)
        self.assertGreater(len(res["rounds"]), 3)
        for r in res["rounds"]:
            self.assertTrue(r["identical"], r)

    def test_corrupted_reference_is_a_failure(self):
        w = "local-yelp-k8"
        out = os.path.join(self.env.work, "selftest-e2e.json")
        res, err, _ = run.run_child(self.env, "perfbench.E2EMain",
                                    [w, "3", out, os.path.join(self.env.work, "spark-local")], out)
        self.assertIsNone(err)
        ref = check.load_reference(w)
        self.assertEqual(check.check(res, ref), [])

        bad_t = copy.deepcopy(ref)
        bad_t["t"] += 1
        self.assertTrue(any("reference t" in f for f in check.check(res, bad_t)))

        with_pairs = dict(res, pairs=ref["pairs"])
        self.assertEqual(check.check(with_pairs, ref), [])
        bad_pairs = copy.deepcopy(ref)
        bad_pairs["pairs"][-1] -= 1
        self.assertTrue(any("pairs per level" in f for f in check.check(with_pairs, bad_pairs)))

        bad_est = copy.deepcopy(ref)
        naive = bad_est["estimates"]["naive"]
        code = max(naive, key=lambda c: naive[c][1])
        naive[code][0] *= 1.2
        self.assertTrue(any(f"graphlet {code}" in f for f in check.check(res, bad_est)))


class EstimateTolerance(unittest.TestCase):
    def test_tolerance_scales_with_hits(self):
        # 10000 hits each: standard error about 1%, so 6 SE + 2% is about 10%.
        self.assertTrue(check.estimates_close(1.05e6, 10000, 1.0e6, 10000))
        self.assertFalse(check.estimates_close(1.15e6, 10000, 1.0e6, 10000))
        # A graphlet missing on one side fails when the other side saw it often.
        self.assertFalse(check.estimates_close(0.0, 0, 1.0e6, 500))
        self.assertTrue(check.estimates_close(2.0e6, 5, 1.0e6, 5))


if __name__ == "__main__":
    unittest.main()
