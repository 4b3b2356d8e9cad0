"""Unit tests for report_diff.py's deterministic projection.

Run from the repository root:

    python3 -m unittest discover -s scripts -p 'test_*.py'
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import unittest
from unittest import mock

import report_diff


def make_report():
    """A small ExperimentReport with every kind of key the projection
    keeps or drops."""
    return {
        "report": "reverse_engineer",
        "results": {"modules": 3, "failures": 0},
        "timing": {"wall_ms": 812.5, "sim_ns": 123456},
        "rounds": [
            {"module": "A5", "job_wall_ms": 301.0,
             "verdict": {"trr_period": 9, "neighbours": 4}},
            {"module": "B8", "job_wall_ms": 255.2,
             "verdict": {"trr_period": 4, "neighbours": 2}},
        ],
        "metrics": {
            "counters": {
                "dram.acts": 5000,
                "dram.restore.fast_path": 4000,
                "dram.restore.slow_path": 1000,
                "dram.readout.cow_copies": 12,
                "dram.readout.cow_shares": 88,
                "row_scout.scan.calls": 7,
            },
            "gauges": {"campaign.wall_ms": 812.5, "campaign.workers": 1},
            "histograms": {"row_scout.scan.us": {"count": 7, "sum": 90}},
        },
        "profile": {"ranking": [{"label": "softmc.hammer"}]},
    }


class ReportDiffTest(unittest.TestCase):
    def run_main(self, first, second):
        """report_diff's exit status for two report objects."""
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, report in (("first.json", first),
                                 ("second.json", second)):
                path = os.path.join(tmp, name)
                with open(path, "w") as fh:
                    json.dump(report, fh)
                paths.append(path)
            argv = ["report_diff.py"] + paths
            with mock.patch.object(sys, "argv", argv), \
                    contextlib.redirect_stdout(io.StringIO()):
                return report_diff.main()

    def test_memory_artifact_keys_are_dropped(self):
        # A cached-profile run COW-copies rows a from-scratch run
        # mutates in place; the C++ projection ignores those tallies.
        reused = make_report()
        counters = reused["metrics"]["counters"]
        counters["dram.readout.cow_copies"] = 4096
        counters["dram.readout.cow_shares"] = 1
        counters["dram.restore.fast_path"] = 3900
        counters["dram.restore.slow_path"] = 1100
        self.assertEqual(self.run_main(make_report(), reused), 0)

    def test_wall_clock_keys_are_dropped(self):
        slower = make_report()
        slower["timing"]["wall_ms"] = 9000.0
        slower["rounds"][1]["job_wall_ms"] = 7000.0
        slower["metrics"]["gauges"]["campaign.wall_ms"] = 9000.0
        slower["metrics"]["histograms"]["row_scout.scan.us"]["sum"] = 1
        slower["profile"] = {"ranking": []}
        self.assertEqual(self.run_main(make_report(), slower), 0)

    def test_changed_verdict_is_a_divergence(self):
        changed = make_report()
        changed["rounds"][0]["verdict"]["trr_period"] = 17
        self.assertEqual(self.run_main(make_report(), changed), 1)

    def test_deterministic_counter_change_is_a_divergence(self):
        changed = make_report()
        changed["metrics"]["counters"]["dram.acts"] = 5001
        self.assertEqual(self.run_main(make_report(), changed), 1)

    def test_projection_keeps_a_key_equal_to_a_bare_suffix(self):
        # Mirrors the C++ length check: only "<name><suffix>" is dropped.
        report = {".cow_copies": 1, ".us": 2, "x.cow_copies": 3,
                  "x.us": 4}
        self.assertEqual(report_diff.project(copy.deepcopy(report)),
                         {".cow_copies": 1, ".us": 2})


if __name__ == "__main__":
    unittest.main()
