#!/usr/bin/env python3
"""Byte-compare two ExperimentReport JSON files on their deterministic
projection.

The deterministic projection (``deterministicProjection`` in
src/obs/report.hh, DESIGN.md §14) removes every wall-clock-dependent
key — ``wall_ms``, ``job_wall_ms``, ``eta_ms``, ``campaign_wall_ms``,
the ``campaign.wall_ms`` gauge, every ``<name>.us`` ScopedTimer
histogram and the whole top-level ``profile`` section. What remains is
a pure function of the campaign inputs, so a campaign that was
SIGKILLed and resumed (``--journal FILE --resume``) must reproduce it
exactly. This script is the CI-side check of that
invariant:

    reverse_engineer --battery --report clean.json
    ...crash + resume...         --report resumed.json
    python3 scripts/report_diff.py clean.json resumed.json

Exit status: 0 when the projections are identical, 1 with a list of
divergent paths otherwise (2 on unreadable input).
"""

import argparse
import json
import sys

# Mirrors wallClockKey() in src/obs/report.cc.
WALL_CLOCK_KEYS = {
    "wall_ms",
    "job_wall_ms",
    "eta_ms",
    "campaign_wall_ms",
    "campaign.wall_ms",
}


def has_suffix(key, suffix):
    # A key equal to the bare suffix is kept, as in the C++ check.
    return len(key) > len(suffix) and key.endswith(suffix)


def wall_clock_key(key):
    # "<name>.us" is the ScopedTimer convention: a histogram of
    # wall-clock microseconds (the paired ".calls" counters stay).
    return key in WALL_CLOCK_KEYS or has_suffix(key, ".us")


MAX_REPORTED_DIVERGENCES = 20


def project(value, top_level=False):
    """The deterministic projection of a parsed report."""
    if isinstance(value, dict):
        return {
            key: project(member)
            for key, member in value.items()
            if not wall_clock_key(key)
            and not (top_level and key == "profile")
        }
    if isinstance(value, list):
        return [project(member) for member in value]
    return value


def diff(a, b, path, out):
    """Collect divergent paths between two projected values."""
    if len(out) >= MAX_REPORTED_DIVERGENCES:
        return
    if type(a) is not type(b):
        out.append(f"{path}: type {type(a).__name__} != "
                   f"{type(b).__name__}")
    elif isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a:
                out.append(f"{path}.{key}: only in second report")
            elif key not in b:
                out.append(f"{path}.{key}: only in first report")
            else:
                diff(a[key], b[key], f"{path}.{key}", out)
    elif isinstance(a, list):
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} != {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            diff(x, y, f"{path}[{i}]", out)
    elif a != b:
        out.append(f"{path}: {a!r} != {b!r}")


def load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"report_diff: cannot read {path}: {exc}")
        sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("first", help="reference report JSON")
    parser.add_argument("second", help="report JSON to compare")
    args = parser.parse_args()

    first = project(load(args.first), top_level=True)
    second = project(load(args.second), top_level=True)

    # Serialized comparison first: it is the actual invariant (byte
    # identity of the projection), the structural diff is diagnostics.
    if json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True):
        print(f"report_diff: {args.first} == {args.second} "
              "(deterministic projection)")
        return 0

    divergences = []
    diff(first, second, "$", divergences)
    print(f"report_diff: {args.first} != {args.second}")
    for line in divergences:
        print(f"  {line}")
    if len(divergences) >= MAX_REPORTED_DIVERGENCES:
        print("  ... (further divergences suppressed)")
    return 1


if __name__ == "__main__":
    sys.exit(main())
