#!/usr/bin/env python3
"""Self-tests of run.py's statistics, checks and span accounting.

  python3 benchmark/test_run.py
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def span(i, name, parent, start=None, end=None, dur=None, **attrs):
    s = {"id": i, "name": name, "parent": parent, "bench": "",
         "attrs": attrs}
    if start is not None:
        s.update(start=start, end=end, dur=end - start)
    else:
        s["dur"] = dur
    return s


class Stats(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, med, q3 = run.quartiles(values)
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertEqual(med, statistics.median(values))

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(run.quartiles([2.5]), (2.5, 2.5, 2.5))

    def test_summary_reports_iqr_and_n(self):
        s = run.summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual(s["median"], 3.0)
        self.assertEqual((s["q1"], s["q3"], s["n"]), (1.5, 4.5, 5))


class Interleaving(unittest.TestCase):
    def test_order_reverses_every_other_round(self):
        names = ["a", "b", "c"]
        self.assertEqual(run.round_order(names, 0), ["a", "b", "c"])
        self.assertEqual(run.round_order(names, 1), ["c", "b", "a"])
        self.assertEqual(run.round_order(names, 2), ["a", "b", "c"])

    def test_every_workload_is_in_benchmark_json(self):
        names = [w["name"] for w in run.benchmark_spec()["workloads"]]
        self.assertEqual(names, list(run.WORKLOADS))


class Bounds(unittest.TestCase):
    def test_share_of_median(self):
        self.assertTrue(run.agrees("wall_s", 10.0, 10.9, 0.10))
        self.assertTrue(run.agrees("wall_s", 10.0, 9.1, 0.10))
        self.assertFalse(run.agrees("wall_s", 10.0, 11.1, 0.10))
        self.assertFalse(run.agrees("cpu_s", 10.0, 8.9, 0.10))

    def test_rss_floor_absorbs_small_footprints(self):
        # ipc's allocator-arena jump: 40 -> 54 MB is 35% but < 32 MB.
        self.assertTrue(run.agrees("peak_rss_mb", 40.0, 54.0, 0.10))
        self.assertFalse(run.agrees("peak_rss_mb", 40.0, 80.0, 0.10))
        # Above 320 MB the share governs again.
        self.assertTrue(run.agrees("peak_rss_mb", 800.0, 870.0, 0.10))
        self.assertFalse(run.agrees("peak_rss_mb", 800.0, 900.0, 0.10))

    def test_floor_is_only_for_rss(self):
        self.assertFalse(run.agrees("setup_s", 1.0, 20.0, 0.25))


class Normalization(unittest.TestCase):
    def test_times_scale_by_reference_over_kernel(self):
        out = run.normalize({"wall_s": 2.0, "cpu_s": 6.0, "setup_s": 0.5,
                             "peak_rss_mb": 100.0, "jobs": 1},
                            2 * run.CALIB_REF_S)
        self.assertAlmostEqual(run.value(out, "wall_s"), 1.0)
        self.assertAlmostEqual(run.value(out, "cpu_s"), 3.0)
        self.assertAlmostEqual(run.value(out, "setup_s"), 0.25)
        self.assertEqual(run.value(out, "peak_rss_mb"), 100.0)
        self.assertEqual(out["wall_s"], 2.0)  # raw time kept

    def test_reference_is_split_over_the_threads(self):
        # 4 threads that split the kernel ideally take a quarter of
        # the single-thread reference; such a host reads as raw.
        out = run.normalize({"wall_s": 2.0, "cpu_s": 6.0, "setup_s": 0.5,
                             "jobs": 4}, run.CALIB_REF_S / 4)
        self.assertAlmostEqual(run.value(out, "wall_s"), 2.0)

    def test_summary_carries_raw_median_of_times(self):
        reps = [run.normalize({"wall_s": w, "cpu_s": w, "setup_s": w,
                               "peak_rss_mb": 1.0, "jobs": 1},
                              run.CALIB_REF_S)
                for w in (1.0, 2.0, 3.0)]
        s = run.summarize_reps(reps, [{"name": "wall_s"},
                                      {"name": "peak_rss_mb"}])
        self.assertEqual(s["wall_s"]["raw_median"], 2.0)
        self.assertNotIn("raw_median", s["peak_rss_mb"])


class Goldens(unittest.TestCase):
    expected = {"art/TRAD-1MB": "00aa", "art/LDIS-MT-RC": "11bb"}

    def test_identical_cells_pass(self):
        self.assertEqual(run.check_cells(self.expected, dict(self.expected)),
                         (2, 0))

    def test_flipped_digest_is_a_failure(self):
        got = dict(self.expected, **{"art/LDIS-MT-RC": "11bc"})
        self.assertEqual(run.check_cells(self.expected, got), (2, 1))

    def test_missing_and_unexpected_cells_are_failures(self):
        self.assertEqual(run.check_cells(self.expected,
                                         {"art/TRAD-1MB": "00aa"}), (2, 1))
        got = dict(self.expected, **{"mcf/TRAD-1MB": "22cc"})
        self.assertEqual(run.check_cells(self.expected, got), (2, 1))


class Spans(unittest.TestCase):
    def tree(self):
        return [
            span(0, "workload:fig06", -1, 0.0, 10.0),
            span(1, "bench:art", 0, 1.0, 4.0),
            span(2, "bench:mcf", 0, 3.0, 6.0),     # overlaps bench:art
            span(3, "probe.gen", 0, 9.0, 12.0),    # runs past the root
            span(4, "gang.walk", 1, 1.5, 3.5, events=100.0, configs=2.0),
            span(5, "gang.decode", 4, dur=0.5),
            span(6, "l2.TRAD-1MB", 4, dur=1.0, accesses=50.0),
        ]

    def test_self_time_subtracts_union_of_children(self):
        selfs = run.self_times(self.tree())
        # Root: children cover [1, 6] and [9, 10] -> 10 - 6 = 4.
        self.assertAlmostEqual(selfs[0], 4.0)
        # bench:art: gang.walk covers 2 of 3 s.
        self.assertAlmostEqual(selfs[1], 1.0)
        # gang.walk: duration-only children count in full.
        self.assertAlmostEqual(selfs[4], 0.5)
        self.assertAlmostEqual(selfs[5], 0.5)

    def test_self_time_never_negative(self):
        spans = [span(0, "gang.walk", -1, 0.0, 1.0),
                 span(1, "gang.decode", 0, dur=2.0)]
        self.assertEqual(run.self_times(spans)[0], 0.0)

    def test_layer_metrics_from_spans(self):
        spans = self.tree() + [
            span(7, "probe.decode", 0, 6.0, 6.2, events=100.0, bytes=700.0),
            span(8, "probe.write", 0, 6.2, 6.3, bytes=2**20),
            span(9, "probe.read", 0, 6.3, 6.5, bytes=2**20),
            span(10, "frontend.record", 2, 3.0, 5.0, instructions=1e6),
        ]
        spans[3]["attrs"] = {"accesses": 1000.0}
        m = run.layer_metrics(spans)
        self.assertAlmostEqual(m["sweep.traced_s"], 6.0)
        self.assertAlmostEqual(m["trace.gen_ns_per_access"], 3e6)
        self.assertAlmostEqual(m["frontend.l1_encode_s"], -1.0)
        self.assertAlmostEqual(m["stream.bytes_per_event"], 7.0)
        self.assertAlmostEqual(m["gang.slotmap_s"], 0.3)
        self.assertAlmostEqual(m["gang.lane_s"], 1.0)
        self.assertAlmostEqual(m["gang.events_x_configs_per_s"], 100.0)
        self.assertAlmostEqual(m["stream.read_mb_per_s"], 5.0)
        self.assertAlmostEqual(m["l2.TRAD-1MB.ns_per_access"], 2e7)

    def test_table_collapses_per_benchmark_spans(self):
        table = run.layer_table(self.tree())
        self.assertIn("bench:*", table)
        self.assertNotIn("bench:art", table)


class Runner(unittest.TestCase):
    def test_idle_and_critical_fractions(self):
        m = run.runner_metrics({"jobs": 4, "cpu_s": 6.0, "wall_s": 2.0,
                                "critical_job_s": 1.0})
        self.assertAlmostEqual(m["runner.idle_frac"], 0.25)
        self.assertAlmostEqual(m["runner.critical_frac"], 0.5)


if __name__ == "__main__":
    unittest.main()
