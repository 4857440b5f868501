"""Self-tests of the benchmark's metric math and comparison verdicts.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import compare
import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, os.pardir, "BENCHMARK.json")


class MetricMath(unittest.TestCase):
    def test_geomean(self):
        self.assertAlmostEqual(metrics.geomean([1, 4]), 2.0)
        self.assertAlmostEqual(metrics.geomean([2, 8, 4]), 4.0)
        self.assertAlmostEqual(metrics.geomean(x for x in [5.0]), 5.0)
        with self.assertRaises(ValueError):
            metrics.geomean([1, 0])
        with self.assertRaises(ValueError):
            metrics.geomean([])

    def test_nearest_rank(self):
        v = [50, 15, 40, 20, 35]
        self.assertEqual(metrics.nearest_rank(v, 5), 15)
        self.assertEqual(metrics.nearest_rank(v, 30), 20)
        self.assertEqual(metrics.nearest_rank(v, 40), 20)
        self.assertEqual(metrics.nearest_rank(v, 50), 35)
        self.assertEqual(metrics.nearest_rank(v, 100), 50)
        with self.assertRaises(ValueError):
            metrics.nearest_rank(v, 0)

    def test_tail_leaves_ten_samples_beyond(self):
        v = list(range(100, 0, -1))
        pct, value, n = metrics.tail(v)
        self.assertEqual((pct, value, n), (90.0, 90, 100))
        self.assertEqual(sum(1 for x in v if x > value), 10)
        self.assertEqual(metrics.nearest_rank(v, pct), value)
        self.assertEqual(metrics.tail(list(range(1, 21))), (50.0, 10, 20))

    def test_tail_is_the_nearest_rank_sample(self):
        for n in range(1, 120):
            v = [float((7 * i) % n) + i / n for i in range(n)]
            pct, value, count = metrics.tail(v)
            rank = n - metrics.TAIL_BEYOND if n >= 20 else n
            self.assertEqual(value, sorted(v)[rank - 1], n)
            self.assertEqual(count, n)

    def test_tail_falls_back_to_maximum(self):
        self.assertEqual(metrics.tail([3.0, 1.0, 2.0]), (100.0, 3.0, 3))
        self.assertEqual(metrics.tail(list(range(19)))[:2], (100.0, 18))

    def test_speedup_and_throughput(self):
        self.assertAlmostEqual(metrics.speedup(3.0, 1.5), 2.0)
        with self.assertRaises(ValueError):
            metrics.speedup(1.0, 0.0)
        self.assertAlmostEqual(
            metrics.throughput([2.0, 4.0, 1.0], [12, 12, 12]), 6.0)

    def test_dse_guards(self):
        def pair(design, group, workload, mad, seconds, model, sim):
            return {"design": design, "group": group, "workload": workload,
                    "mad": mad, "seconds": seconds, "model_cycles": model,
                    "sim_cycles": sim}
        pairs = [
            pair("CROPHE-36", "36", "a", False, 0.002, [90.0], [100.0]),
            pair("CROPHE-hw+MAD", "36", "a", True, 0.004, [100.0], [100.0]),
            pair("CROPHE-64", "64", "a", False, 0.008, [150.0], [100.0]),
            pair("CROPHE-hw+MAD", "64", "a", True, 0.004, [100.0], [100.0]),
        ]
        g = metrics.dse_guards(pairs, [3.0, 2.0])
        self.assertAlmostEqual(g["sim_ms"], 4.0)           # sqrt(2 * 8)
        self.assertAlmostEqual(g["crophe_vs_mad"], 1.0)    # sqrt(2 * 0.5)
        self.assertAlmostEqual(g["model_err_pct"], 15.0)   # (10+0+50+0)/4
        self.assertAlmostEqual(g["pod_scaling"], 1.5)

    def test_precision_bits(self):
        self.assertAlmostEqual(metrics.precision_bits(2.0 ** -18), 18.0)


class Verdicts(unittest.TestCase):
    BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]

    def test_improved_needs_nine_tenths_of_pairs(self):
        change = [x * 0.95 for x in self.BASE]
        self.assertEqual(compare.verdict(self.BASE, change, "lower", 0.1),
                         "improved")
        self.assertEqual(compare.verdict(self.BASE, change, "higher", 0.1),
                         "unchanged")
        # 8 wins of 10 pairs is not enough.
        mixed = change[:8] + [x * 1.01 for x in self.BASE[8:]]
        self.assertEqual(compare.verdict(self.BASE, mixed, "lower", 0.1),
                         "unchanged")

    def test_improved_needs_ten_pairs(self):
        change = [x * 0.95 for x in self.BASE]
        self.assertEqual(
            compare.verdict(self.BASE[:5], change[:5], "lower", 0.1),
            "unchanged")

    def test_improved_needs_medians_beyond_base_quartiles(self):
        wide = [90.0, 110.0] * 5
        change = [x - 0.5 for x in wide]
        self.assertEqual(compare.verdict(wide, change, "lower", 0.5),
                         "unchanged")

    def test_worse_beyond_bound(self):
        change = [x * 1.2 for x in self.BASE]
        self.assertEqual(compare.verdict(self.BASE, change, "lower", 0.1),
                         "worse")
        self.assertEqual(compare.verdict(self.BASE, change, "higher", 0.1),
                         "improved")
        within = [x * 1.05 for x in self.BASE]
        self.assertEqual(compare.verdict(self.BASE, within, "lower", 0.1),
                         "unchanged")

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [80.0, 120.0, 95.0, 105.0, 70.0, 130.0, 100.0, 90.0, 110.0,
                 100.0]
        self.assertEqual(compare.verdict(self.BASE, noisy, "lower", 0.1),
                         "unresolved")
        self.assertEqual(compare.verdict(noisy, self.BASE, "lower", 0.1),
                         "unresolved")

    def test_noisy_but_every_change_run_better(self):
        noisy = [100.0, 140.0, 110.0, 130.0, 100.0, 140.0, 110.0, 130.0,
                 120.0, 120.0]
        change = [x / 2 for x in noisy]
        self.assertEqual(compare.verdict(noisy, change, "lower", 0.1),
                         "improved")

    def test_spread_is_quartile_distance_over_median(self):
        v = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, med, q3 = compare.quartiles(v)
        self.assertEqual(med, 3.0)
        self.assertAlmostEqual(compare.spread(v), (q3 - q1) / 3.0)

    def test_pairing_by_seed(self):
        base = [{"seed": 2, "v": "b2"}, {"seed": 1, "v": "b1"}]
        change = [{"seed": 1, "v": "c1"}, {"seed": 2, "v": "c2"}]
        b, c = compare.paired(base, change)
        self.assertEqual([r["v"] for r in b], ["b1", "b2"])
        self.assertEqual([r["v"] for r in c], ["c1", "c2"])

    def test_pairing_keeps_runs_that_share_a_seed(self):
        base = [{"seed": 1, "v": f"b{i}"} for i in range(10)]
        change = [{"seed": 1, "v": f"c{i}"} for i in range(10)]
        b, c = compare.paired(base, change)
        self.assertEqual(len(b), 10)
        self.assertEqual([r["v"] for r in b], [f"b{i}" for i in range(10)])
        self.assertEqual([r["v"] for r in c], [f"c{i}" for i in range(10)])

    def test_pairing_in_file_order_without_shared_seeds(self):
        base = [{"seed": s, "v": f"b{s}"} for s in (1, 2, 3)]
        change = [{"seed": s, "v": f"c{s}"} for s in (4, 5, 1, 6)]
        b, c = compare.paired(base, change)
        self.assertEqual([r["v"] for r in b], ["b1", "b2", "b3"])
        self.assertEqual([r["v"] for r in c], ["c4", "c5", "c1"])


@unittest.skipUnless(os.path.exists(BENCHMARK), "no BENCHMARK.json")
class BenchmarkFile(unittest.TestCase):
    def test_metric_lists_match_the_harness(self):
        with open(BENCHMARK) as f:
            spec = json.load(f)
        for key, ours in (("end_to_end", metrics.END_TO_END),
                          ("per_layer", metrics.PER_LAYER)):
            theirs = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
            self.assertEqual(theirs, ours, key)
        self.assertIn(("setup_s", "s", "lower"), metrics.END_TO_END)
        setup_bound = next(m["bound"] for m in spec["end_to_end"]
                           if m["name"] == "setup_s")
        self.assertEqual(setup_bound,
                         max(m["bound"] for m in spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
