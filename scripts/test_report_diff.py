"""Unit tests for report_diff.py's deterministic projection.

Run from the repository root:

    python3 -m unittest discover -s scripts -p 'test_*.py'
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest
from unittest import mock

import report_diff


FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "projection_fixture.json")


def make_report():
    """A small campaign report in the shape reverse_engineer writes,
    with every kind of key the projection keeps or drops. The C++ test
    ExperimentReport.ProjectionMatchesTheScriptFixture reads the same
    file."""
    with open(FIXTURE) as fh:
        return json.load(fh)


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

    def test_cow_counter_change_is_a_divergence(self):
        # Copy-on-write tallies are a pure function of the campaign
        # inputs, so the projection keeps them.
        changed = make_report()
        changed["metrics"]["counters"][
            "module.A5.dram.readout.cow_copies"] = 4096
        self.assertEqual(self.run_main(make_report(), changed), 1)

    def test_wall_clock_keys_are_dropped(self):
        slower = make_report()
        slower["timing"]["wall_ms"] = 9000.0
        for entry in slower["rounds"]:
            entry["wall_ms"] = 7000.0
        slower["profile"] = {"ranking": []}
        self.assertEqual(self.run_main(make_report(), slower), 0)
        projected = report_diff.project(make_report(), top_level=True)
        self.assertNotIn("wall_ms", projected["timing"])
        for entry in projected["rounds"]:
            self.assertNotIn("wall_ms", entry)
        self.assertNotIn("profile", projected)

    def test_other_keys_are_compared(self):
        # Only wall_ms and the top-level profile are wall clock: an
        # "eta_ms" result and a nested "profile" key are compared.
        for path, value in ((("results", "eta_ms"), 6),
                            (("config", "profile"), False)):
            changed = make_report()
            changed[path[0]][path[1]] = value
            self.assertEqual(self.run_main(make_report(), changed), 1,
                             path)

    def test_changed_verdict_is_a_divergence(self):
        changed = make_report()
        changed["rounds"][0]["verdict"]["period"] = 17
        self.assertEqual(self.run_main(make_report(), changed), 1)

    def test_deterministic_counter_change_is_a_divergence(self):
        changed = make_report()
        changed["metrics"]["counters"]["module.A5.dram.acts"] = 5001
        self.assertEqual(self.run_main(make_report(), changed), 1)

    def test_changed_us_counter_is_a_divergence(self):
        # No suffix rule: a counter named "<name>.us" is compared.
        changed = make_report()
        changed["metrics"]["counters"]["module.B8.x.us"] = 8
        self.assertEqual(self.run_main(make_report(), changed), 1)

if __name__ == "__main__":
    unittest.main()
