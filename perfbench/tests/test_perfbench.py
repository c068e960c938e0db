"""Tests of the benchmark's own logic (no build needed).

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                ".."))

import answers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402

EG_REPORT = """main():
  E[x' + y'] == x + y + 3
  E[x'] >= x
  E[x'] <= x + 3
  E[z'] == 0.25*z + 0.75
"""


class TailPercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        samples = [float(i) for i in range(1, 26)]  # 25 samples, shuffled
        samples.reverse()
        pct, value, count = stats.tail_percentile(samples)
        # p60 is rank 15, with exactly 10 samples above it; p61 would be
        # rank 16 with only 9.
        self.assertEqual((pct, value, count), (60, 15.0, 25))

    def test_hundred_samples_give_p90(self):
        pct, value, count = stats.tail_percentile(range(1, 101))
        self.assertEqual((pct, value, count), (90, 90, 100))

    def test_thousand_samples_give_p99(self):
        pct, value, count = stats.tail_percentile(range(1, 1001))
        self.assertEqual((pct, value, count), (99, 990, 1000))

    def test_few_samples_fall_back_to_the_median(self):
        pct, value, count = stats.tail_percentile([1.0, 2.0, 3.0, 40.0])
        self.assertEqual((pct, value, count), (50, 2.5, 4))
        pct, _, count = stats.tail_percentile(range(11))
        self.assertEqual((pct, count), (50, 11))

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.tail_percentile([])


class AnswerCheckerTest(unittest.TestCase):
    def setUp(self):
        self.expected = answers.load_expected()

    def test_lists_all_25_paper_programs(self):
        programs = answers.program_list(self.expected)
        self.assertEqual(len(programs), 25)
        self.assertEqual(sum(d == "leia" for d, _ in programs), 13)
        self.assertEqual(sum(d == "bi" for d, _ in programs), 7)
        self.assertEqual(sum(d == "mdp" for d, _ in programs), 5)

    def test_accepts_invariants_in_any_order(self):
        lines = EG_REPORT.splitlines()
        reordered = "\n".join([lines[0]] + lines[:0:-1]) + "\n"
        for report in (EG_REPORT, reordered):
            ok, why = answers.check_report("leia", "eg", report,
                                           self.expected)
            self.assertTrue(ok, why)

    def test_rejects_a_wrong_invariant(self):
        wrong = EG_REPORT.replace("E[x'] <= x + 3", "E[x'] <= x + 4")
        ok, why = answers.check_report("leia", "eg", wrong, self.expected)
        self.assertFalse(ok)
        self.assertIn("E[x'] <= x + 3", why)

    def test_rejects_a_missing_invariant(self):
        short = EG_REPORT.replace("  E[x'] >= x\n", "")
        ok, _ = answers.check_report("leia", "eg", short, self.expected)
        self.assertFalse(ok)

    def test_only_main_is_compared(self):
        report = "helper():\n  E[q'] == 7\n" + EG_REPORT
        ok, why = answers.check_report("leia", "eg", report, self.expected)
        self.assertTrue(ok, why)

    def test_bi_mass_within_tolerance(self):
        report = ("main(): posterior from the all-false prior\n"
                  "  {b1=T, b2=F}                   0.125000\n"
                  "  {b1=F, b2=T}                   0.125000\n"
                  "  {b1=T, b2=T}                   0.375000\n"
                  "  terminating mass: 0.625000\n")
        self.assertTrue(answers.check_report("bi", "eg2", report,
                                             self.expected)[0])
        bad = report.replace("mass: 0.625000", "mass: 0.626000")
        self.assertFalse(answers.check_report("bi", "eg2", bad,
                                              self.expected)[0])

    def test_bi_posterior_states(self):
        report = ("main(): posterior from the all-false prior\n"
                  "  {b=F}                          1.000000\n"
                  "  terminating mass: 1.000000\n")
        self.assertTrue(answers.check_report("bi", "recursive", report,
                                             self.expected)[0])
        moved = report.replace("{b=F}", "{b=T}")
        self.assertFalse(answers.check_report("bi", "recursive", moved,
                                              self.expected)[0])

    def test_mdp_reward_tolerance(self):
        ok = "main(): greatest expected reward = 13.4857\n"
        off = "main(): greatest expected reward = 13.49\n"
        self.assertTrue(answers.check_report("mdp", "quicksort7", ok,
                                             self.expected)[0])
        self.assertFalse(answers.check_report("mdp", "quicksort7", off,
                                              self.expected)[0])


class FailureAccountingTest(unittest.TestCase):
    GOOD = {"ok": True, "converged": True, "fingerprint": "abc", "exit": 0,
            "checks": {"total": 2, "safe": 1, "violated": 0}}

    def test_error_reply_is_counted_as_failed_not_dropped(self):
        out = run.Outcome()
        run.record_analyze(out, "s0", self.GOOD, "abc", 0, 0.5)
        run.record_analyze(out, "s0", {"ok": False, "code": "pool-busy",
                                       "error": "busy"}, "abc", 0, 0.1)
        self.assertEqual(out.attempted, 2)
        self.assertEqual(out.failed, 1)
        self.assertEqual(out.latencies, [0.5])
        self.assertIn("pool-busy", out.failures[0])

    def test_wrong_answer_is_counted_as_failed(self):
        out = run.Outcome()
        run.record_analyze(out, "s0", self.GOOD, "other", 0, 0.5)
        run.record_analyze(out, "s0", self.GOOD, "abc", 1, 0.5)
        run.record_analyze(out, "s0", self.GOOD, "abc", 0, 0.5,
                           problem="edit error parse-error")
        self.assertEqual((out.attempted, out.failed), (3, 3))
        self.assertEqual(out.latencies, [])

    def test_decided_ratio_counts_answered_checks(self):
        out = run.Outcome()
        out.setup = [1.0]
        out.wall = 2.0
        run.record_analyze(out, "s0", self.GOOD, "abc", 0, 0.5)
        metrics = run.e2e_metrics(out, 1)
        self.assertEqual(metrics["decided_ratio"], 0.5)
        self.assertEqual(metrics["throughput_per_s"], 0.5)

    def test_windows_give_median_throughput_and_cpu(self):
        out = run.Outcome()
        out.setup = [1.0]
        out.wall = 100.0
        out.latencies = [0.1]
        # Three passes of 13 operations; the middle one ran during a burst
        # of load and does not move the medians.
        out.windows = [(13, 1.0, 0.9), (13, 2.6, 2.0), (13, 1.3, 1.3)]
        metrics = run.e2e_metrics(out, 39)
        self.assertAlmostEqual(metrics["throughput_per_s"], 10.0)
        self.assertAlmostEqual(metrics["cpu_s_per_op"], 0.1)

    def test_metrics_match_benchmark_json(self):
        import json
        with open(os.path.join(os.path.dirname(run.HERE),
                               "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([m["name"] for m in bench["end_to_end"]],
                         [name for name, _ in run.END_TO_END])
        self.assertEqual([m["name"] for m in bench["per_layer"]],
                         [name for name, _ in run.PER_LAYER])
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))


class LayerTimesTest(unittest.TestCase):
    def test_self_time_subtracts_covered_child_time(self):
        def span(name, span_id, parent, ts, dur):
            return {"name": name, "ts": ts, "dur": dur,
                    "args": {"id": span_id, "parent": parent, "op": 1}}
        events = [span("root", 1, 0, 0, 100),
                  span("a", 2, 1, 10, 30),
                  span("b", 3, 1, 30, 30),   # overlaps a: union is 10..60
                  span("c", 4, 2, 15, 5)]
        table = run.layer_times(events)
        self.assertAlmostEqual(table["root"][0], 100e-6)
        self.assertAlmostEqual(table["root"][1], 50e-6)
        self.assertAlmostEqual(table["a"][1], 25e-6)
        self.assertEqual(table["b"][2], 1)


if __name__ == "__main__":
    unittest.main()
