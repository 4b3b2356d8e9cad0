"""Tests of the benchmark's own rules.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The RSS test builds perfbench_driver into .bench_build/ first, as
run.py does.
"""

import json
import os
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import analysis  # noqa: E402
import run  # noqa: E402

SPAN_LABEL = re.compile(
    r'(?:UTRR_PROF_SCOPE(?:_SIM)?\(|ProfSpan\s+\w+\s*[({])\s*"([^"]+)"')


def node(label, wall, excl=None, calls=1, children=()):
    return {"label": label, "calls": calls, "wall_ns": wall, "sim_ns": 0,
            "excl_wall_ns": wall if excl is None else excl,
            "excl_sim_ns": 0, "children": list(children)}


def traced_run(spans):
    totals = {key: 0 for key in (
        "acts", "refs", "restore_fast", "restore_slow",
        "readout_cow_copies", "hammer_cell_attaches", "sim_ns",
        "fault_events", "temp_steps", "watchdog_retries",
        "fresh_row_retries", "row_scout_evictions", "synth_attempts",
        "synth_beaten", "synth_verify_flips")}
    return {"run_wall_ns": 2_000_000, "units": [{"wall_ms": 1.5}],
            "totals": totals, "profile": {"spans": spans}}


class SpanLayers(unittest.TestCase):
    def test_every_span_label_in_src_maps_to_a_layer(self):
        labels = set()
        for path in (run.ROOT / "src").rglob("*.[ch]*"):
            labels.update(SPAN_LABEL.findall(path.read_text()))
        self.assertGreater(len(labels), 30, "span scan found too few")
        for label in sorted(labels):
            with self.subTest(label=label):
                analysis.layer_of(label)

    def test_unmapped_label_fails_instead_of_going_unattributed(self):
        profile = traced_run([node("campaign.job", 1_000_000, 0, children=[
            node("mystery.op", 1_000_000)])])
        with self.assertRaises(analysis.UnmappedLabel):
            analysis.per_layer(profile)

    def test_job_span_self_time_is_the_unattributed_time(self):
        profile = traced_run([node("campaign.job", 1_000_000, 400_000,
                                   children=[node("softmc.wait", 600_000)])])
        m = analysis.per_layer(profile)
        self.assertAlmostEqual(m["obs.unattributed_ms"], 0.4)
        self.assertAlmostEqual(m["softmc.wait_ms"], 0.6)
        self.assertAlmostEqual(m["runner.job_setup_ms"], 0.5)
        self.assertAlmostEqual(m["runner.self_ms"], 0.5)

    def test_nested_spans_of_one_family_count_once(self):
        inner = node("trr_analyzer.reset_trr_state", 200)
        spans = [node("trr_analyzer.experiment", 1000, 800,
                      children=[inner])]
        self.assertEqual(analysis.inclusive_ns(spans, ("trr_analyzer.",)),
                         1000)


class UnitTail(unittest.TestCase):
    def test_tail_has_exactly_ten_units_beyond_it(self):
        units = [float(v) for v in range(45)]
        tail = analysis.unit_tail_ms(units)
        self.assertEqual(sum(v > tail for v in units), 10)
        self.assertEqual(int(analysis.tail_percentile(45)), 77)

    def test_tail_is_omitted_at_twenty_units_or_fewer(self):
        for n in (1, 3, 12, 20):
            self.assertIsNone(analysis.unit_tail_ms([1.0] * n), n)
        self.assertIsNotNone(analysis.unit_tail_ms([1.0] * 21))


def driver_out(module, wall_ms, rss_kb=1024):
    return {"run_wall_ns": int(wall_ms * 1e6), "peak_rss_kb": rss_kb,
            "jobs_used": 1, "units_failed": 0,
            "units": [{"module": module, "ok": True, "wall_ms": wall_ms}],
            "verdicts": json.dumps([{"module": module, "ok": True}]),
            "totals": {"acts": 10, "refs": None}}


REFERENCE = {"wall_s": 10.0, "unit_p50_ms": 100.0, "setup_s": 0.001}


class RatioMetrics(unittest.TestCase):
    def test_times_are_the_reference_times_scaled_by_cur_over_ref(self):
        # Host speed halves between the two pairs; cur is 1.5x ref in
        # both, and so are wall_s and unit_p50_ms. Set-up scales by the
        # ratio of the two builds' median set-up times.
        pairs = [{"cur": driver_out("A5", 150.0),
                  "ref": driver_out("A5", 100.0)},
                 {"cur": driver_out("B8", 600.0),
                  "ref": driver_out("B8", 400.0)}]
        setups = {"cur": [0.004, 0.002, 0.006], "ref": [0.002, 0.001, 0.002]}
        e2e = run.end_to_end(driver_out("A5", 1.0, rss_kb=2048), pairs,
                             setups, REFERENCE)
        self.assertAlmostEqual(e2e["wall_s"], 15.0)
        self.assertAlmostEqual(e2e["unit_p50_ms"], 150.0)
        self.assertAlmostEqual(e2e["setup_s"], 0.002)
        self.assertEqual(e2e["peak_rss_mb"], 2.0)

    def test_chaos_runs_one_campaign_per_module(self):
        self.assertEqual(run.campaigns("identify-chaos", ["A5", "B8"]),
                         [["A5"], ["B8"]])
        self.assertEqual(run.campaigns("synth", ["A0", "B0"]),
                         [["A0", "B0"]])

    def test_merged_campaigns_read_as_one(self):
        one = run.merged([driver_out("A5", 2.0, rss_kb=10),
                          driver_out("B8", 3.0, rss_kb=30)])
        self.assertEqual(one["run_wall_ns"], 5_000_000)
        self.assertEqual(one["peak_rss_kb"], 30)
        self.assertEqual([u["module"] for u in one["units"]], ["A5", "B8"])
        self.assertEqual(one["totals"], {"acts": 20, "refs": None})
        self.assertEqual(analysis.verdict_digest(one["verdicts"]),
                         analysis.verdict_digest(json.dumps(
                             [{"module": "B8", "ok": True},
                              {"module": "A5", "ok": True}])))

    def test_a_chunk_verdict_that_differs_from_the_gate_is_a_problem(self):
        gate = run.merged([driver_out("A5", 1.0), driver_out("B8", 1.0)])
        pair = {"cur": driver_out("B8", 1.0), "ref": driver_out("B8", 1.0)}
        self.assertEqual(run.pair_problems(gate, [pair]), [])
        pair["cur"]["verdicts"] = json.dumps([{"module": "B8",
                                               "ok": False}])
        self.assertEqual(len(run.pair_problems(gate, [pair])), 1)


class MetricNames(unittest.TestCase):
    def test_reported_names_match_benchmark_json(self):
        with open(run.ROOT / "BENCHMARK.json") as f:
            bench = json.load(f)
        run_out = {"run_wall_ns": 1, "peak_rss_kb": 1,
                   "units": [{"wall_ms": 1.0}]}
        e2e = run.end_to_end(run_out, [{"cur": run_out, "ref": run_out}],
                             {"cur": [0.001], "ref": [0.001]}, REFERENCE)
        self.assertEqual(set(e2e), {m["name"] for m in bench["end_to_end"]})
        layers = run.layer_metrics([run_out], [traced_run([])])
        self.assertEqual(set(layers),
                         {m["name"] for m in bench["per_layer"]})


class PeakRss(unittest.TestCase):
    def test_peak_rss_is_the_driver_process_own_getrusage(self):
        run.build()
        proc = subprocess.Popen(
            [str(run.DRIVER), "--workload", "identify", "--modules", "A5"],
            stdout=subprocess.PIPE, text=True)
        stdout = proc.stdout.read()
        proc.stdout.close()
        _, _, usage = os.wait4(proc.pid, 0)
        proc.returncode = 0
        reported_kb = json.loads(stdout.strip().splitlines()[-1])[
            "peak_rss_kb"]
        # The driver reads its own ru_maxrss (KiB) just before printing,
        # so it can only trail the value the kernel reports at exit.
        self.assertLessEqual(reported_kb, usage.ru_maxrss)
        self.assertGreater(reported_kb, 0.95 * usage.ru_maxrss)
        gate = {"run_wall_ns": 1, "peak_rss_kb": reported_kb,
                "units": [{"wall_ms": 1.0}]}
        e2e = run.end_to_end(gate, [{"cur": gate, "ref": gate}],
                             {"cur": [0.001], "ref": [0.001]}, REFERENCE)
        self.assertEqual(e2e["peak_rss_mb"], reported_kb / 1024)


if __name__ == "__main__":
    unittest.main()
