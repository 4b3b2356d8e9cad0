#!/usr/bin/env python3
"""Serial end-to-end benchmark of the identify, identify-chaos and synth
workloads.

    python3 perfbench/run.py --workload identify --seed 3 --seconds 35 \\
        --trace 0

Run from the root of a checkout. Builds perfbench_driver twice into
.bench_build/: against the checkout's src/ (cur) and against
perfbench/ref/src (ref), a frozen copy of src/ as it stood when the
benchmark was written. Every campaign is a cold driver process on one
campaign worker. --seed only permutes the module order of the identify
and synth campaigns: every job is a pure function of its module and the
campaign and silicon seeds, so the work and its simulated totals stay
the same. identify-chaos runs each module as its own campaign, in a
fixed order.

--trace 0 runs the gate (the workload's own campaigns on cur: verdicts,
simulated totals, peak RSS), and runs the workload's modules in chunks,
each chunk on cur and on ref back to back, until --seconds have passed.
The host's speed drifts by a third within minutes, and both builds of a
pair see the same host, so times are reported as the cur/ref ratio
times the ref build's recorded time (expected.json). --trace 1
alternates untraced and traced runs of the whole workload on cur and
reports the per-layer metrics from the span profiler. The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"};
a readable report goes to stderr. A run is correct when every unit
matched its ground truth, the deterministic totals match
perfbench/expected.json, every module's verdict is the same in every
campaign of the run, and every span maps to a layer.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import analysis

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
# The library trees the driver is built against, one build tree each.
TREES = {"cur": ROOT / "src", "ref": HERE / "ref" / "src"}
DRIVERS = {tree: BUILD / tree / "perfbench_driver" for tree in TREES}
DRIVER = DRIVERS["cur"]
WORKLOADS = ("identify", "identify-chaos", "synth")
SHUFFLED = ("identify", "synth")
# Set-up is milliseconds long, so each run samples it this many extra
# times (the driver stops right before the run call) for its median.
SETUP_SAMPLES = 15
# identify-chaos runs each module as its own campaign, as
# `reverse_engineer --chaos <module>` does: its fault streams are keyed
# by campaign position, so only position 0 gives a module the same work
# in every campaign it is timed in.
SINGLE_MODULE = ("identify-chaos",)
# Modules per timed chunk campaign: short enough that a run holds many
# cur/ref pairs and the two halves of a pair run close together.
CHUNK = {"identify": 3, "identify-chaos": 1, "synth": 1}
# Deterministic totals that a simulator-only change must leave identical.
GATED = {
    "identify": ("acts", "refs", "sim_ns", "fault_events", "verdicts"),
    "identify-chaos": ("acts", "refs", "sim_ns", "fault_events",
                       "verdicts"),
    "synth": ("synth_attempts", "synth_beaten", "synth_verify_flips",
              "verdicts"),
}
# synth's substrates publish no registry counters, so its REFs and
# simulated time come from the traced profile.
GATED_TRACED = {"synth": ("refs", "softmc_sim_ns")}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no src/ next to perfbench/; run from the root of "
            "a U-TRR checkout")
        sys.exit(2)
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    for tree, src in TREES.items():
        out = BUILD / tree
        if not (out / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                            "-DCMAKE_BUILD_TYPE=Release",
                            f"-DPERFBENCH_SRC={src}", *gen],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(out), "--target",
                        "perfbench_driver", "-j", jobs],
                       check=True, stdout=sys.stderr)


def drive(args, tree="cur"):
    """One cold driver process: (parsed output, set-up seconds)."""
    started = time.monotonic_ns()
    proc = subprocess.run([str(DRIVERS[tree]), *args],
                          stdout=subprocess.PIPE, check=True, text=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out, (out["run_call_ns"] - started) / 1e9


def campaigns(workload, modules):
    """The module lists of the campaigns that make up the workload."""
    if workload in SINGLE_MODULE:
        return [[m] for m in modules]
    return [modules]


def merged(outs):
    """Driver outputs of several campaigns as one: units, verdict
    entries and profile spans concatenated, totals and wall time summed,
    the largest peak RSS."""
    if len(outs) == 1:
        return outs[0]
    out = dict(outs[0])
    for key in ("run_wall_ns", "units_failed"):
        out[key] = sum(o[key] for o in outs)
    for key in ("jobs_used", "peak_rss_kb"):
        out[key] = max(o[key] for o in outs)
    out["units"] = [u for o in outs for u in o["units"]]
    out["verdicts"] = json.dumps([e for o in outs
                                  for e in json.loads(o["verdicts"])])
    out["totals"] = {key: None if value is None else
                     sum(o["totals"][key] for o in outs)
                     for key, value in outs[0]["totals"].items()}
    if "profile" in out:
        out["profile"] = {"spans": [s for o in outs
                                    for s in o["profile"]["spans"]]}
    return out


def measure_traced(opts, base, modules):
    """Alternate the untraced and the traced workload for about
    opts.seconds: (untraced, traced)."""
    runs = {False: [], True: []}
    rounds = 0
    begin = time.monotonic()
    while True:
        for traced in (False, True):
            outs = []
            for campaign in campaigns(opts.workload, modules):
                outs.append(drive([*base, "--modules", ",".join(campaign),
                                   *(["--profile"] if traced else [])])[0])
            runs[traced].append(merged(outs))
        rounds += 1
        elapsed = time.monotonic() - begin
        if elapsed * (rounds + 1) / rounds > opts.seconds:
            return runs[False], runs[True]


def measure_pairs(opts, base, modules):
    """The gate and the timed cur/ref pairs of a --trace 0 run: (gate,
    pairs, timed, setups). Chunks of the workload run on cur and on ref
    back to back, which build first alternating, until opts.seconds
    have passed and every chunk has run at least once. The gate is
    the workload's own campaigns on cur: an untimed full campaign, or,
    where those campaigns are the chunks, the first pass of cur chunks.
    timed lists the cur chunk outputs that are not part of the gate;
    setups holds every set-up time per build."""
    setups = {"cur": [], "ref": []}
    for _ in range(SETUP_SAMPLES):
        for tree, times in setups.items():
            times.append(drive([*base, "--setup-only"], tree)[1])
    size = CHUNK[opts.workload]
    chunks = [modules[i:i + size] for i in range(0, len(modules), size)]
    begin = time.monotonic()
    gate = None
    if campaigns(opts.workload, modules) != chunks:
        gate, setup = drive([*base, "--modules", ",".join(modules)])
        setups["cur"].append(setup)
    pairs = []
    while len(pairs) < len(chunks) or \
            time.monotonic() - begin < opts.seconds:
        chunk = chunks[len(pairs) % len(chunks)]
        pair = {}
        for tree in (("cur", "ref") if len(pairs) % 2 == 0 else
                     ("ref", "cur")):
            pair[tree], setup = drive([*base, "--modules", ",".join(chunk)],
                                      tree)
            setups[tree].append(setup)
        pairs.append(pair)
    timed = [p["cur"] for p in pairs]
    if gate is None:
        gate = merged(timed[:len(chunks)])
        timed = timed[len(chunks):]
    return gate, pairs, timed, setups


def load_expected():
    with open(HERE / "expected.json") as f:
        return json.load(f)


def check_totals(opts, untraced, traced):
    """Compare the deterministic totals with expected.json. Returns
    (ok, report lines)."""
    key = f"{opts.campaign_seed}/{opts.silicon_seed}"
    rec = load_expected()["workloads"][opts.workload]
    seen = dict(untraced[0]["totals"])
    seen["verdicts"] = analysis.verdict_digest(untraced[0]["verdicts"])
    want = rec["totals"].get(key)
    lines, ok = [], True
    if want is None:
        lines.append(f"totals: none recorded for seeds {key}: {seen}")
    else:
        for name in GATED[opts.workload]:
            match = seen.get(name) == want.get(name)
            ok &= match
            lines.append(f"totals: {name} {seen.get(name)} "
                         f"{'matches' if match else 'DIFFERS from'} "
                         f"recorded {want.get(name)}")
    if traced and opts.workload in GATED_TRACED:
        spans = analysis.span_totals(traced[0]["profile"])
        seen_t = {
            "refs": spans.get("dram.ref", {}).get("calls", 0),
            "softmc_sim_ns": sum(t["excl_sim_ns"]
                                 for label, t in spans.items()
                                 if label.startswith("softmc.")),
        }
        want_t = rec.get("traced_totals", {}).get(key)
        for name in GATED_TRACED[opts.workload]:
            if want_t is None:
                lines.append(f"traced totals: {name} {seen_t[name]} "
                             "(none recorded)")
                continue
            match = seen_t[name] == want_t.get(name)
            ok &= match
            lines.append(f"traced totals: {name} {seen_t[name]} "
                         f"{'matches' if match else 'DIFFERS from'} "
                         f"recorded {want_t.get(name)}")
    return ok, lines


def metric_units():
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["end_to_end"] + bench["per_layer"]}


def end_to_end(gate, pairs, setups, reference):
    """The end-to-end metrics. wall_s is the ref build's recorded
    workload time times the run's cur/ref ratio of summed campaign
    walls; unit_p50_ms is the ref build's recorded median unit time times
    the median cur/ref ratio of one module's time in one pair; setup_s
    is the ref build's recorded set-up time times the ratio of the two
    builds' median set-up times. Memory is as measured."""
    cur = sum(p["cur"]["run_wall_ns"] for p in pairs)
    ref = sum(p["ref"]["run_wall_ns"] for p in pairs)
    units = [c["wall_ms"] / r["wall_ms"] for p in pairs
             for c, r in zip(p["cur"]["units"], p["ref"]["units"])]
    return {
        "wall_s": reference["wall_s"] * cur / ref,
        "setup_s": reference["setup_s"] * statistics.median(setups["cur"])
                   / statistics.median(setups["ref"]),
        "unit_p50_ms": reference["unit_p50_ms"] * statistics.median(units),
        "peak_rss_mb": gate["peak_rss_kb"] / 1024,
    }


def pair_problems(gate, pairs):
    """What is wrong with the timed pairs: both builds of a pair ran the
    same modules, the ref build failed none, and every module's verdict
    entry in every cur campaign equals its entry in the gate."""
    def entries(run):
        return {e["module"]: json.dumps(e, sort_keys=True)
                for e in json.loads(run["verdicts"])}

    problems = []
    if any([u["module"] for u in p["cur"]["units"]] !=
           [u["module"] for u in p["ref"]["units"]] for p in pairs):
        problems.append("a cur/ref pair ran different modules")
    if any(p["ref"]["units_failed"] for p in pairs):
        problems.append("the reference build failed a unit")
    full = entries(gate)
    if any(full[module] != entry for p in pairs
           for module, entry in entries(p["cur"]).items()):
        problems.append("a chunk campaign's verdict differs from the "
                        "gate's")
    return problems


def layer_metrics(untraced, traced):
    per_run = [analysis.per_layer(r) for r in traced]
    metrics = {name: statistics.median(m[name] for m in per_run)
               for name in per_run[0]}
    metrics["obs.trace_overhead"] = (
        statistics.median(r["run_wall_ns"] for r in traced) /
        statistics.median(r["run_wall_ns"] for r in untraced))
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="module-order seed (identify, synth)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--campaign-seed", type=int, default=1)
    ap.add_argument("--silicon-seed", type=int, default=2021)
    opts = ap.parse_args()

    build()
    base = ["--workload", opts.workload,
            "--campaign-seed", str(opts.campaign_seed),
            "--silicon-seed", str(opts.silicon_seed)]
    modules = drive([*base, "--setup-only"])[0]["modules"]
    if opts.workload in SHUFFLED:
        random.Random(opts.seed).shuffle(modules)
    problems = []
    if opts.trace:
        untraced, traced = measure_traced(opts, base, modules)
        timed = []
    else:
        gate, pairs, timed, setups = measure_pairs(opts, base, modules)
        untraced, traced = [gate], []
        problems += pair_problems(gate, pairs)
    runs = untraced + traced + timed

    attempted = sum(len(r["units"]) for r in runs)
    failed = sum(r["units_failed"] for r in runs)
    if failed:
        bad = sorted({u["module"] for r in runs for u in r["units"]
                      if not u["ok"]})
        problems.append(f"{failed} unit(s) failed: {', '.join(bad)}")
    if any(r["jobs_used"] != 1 for r in runs):
        problems.append("a campaign ran on more than one worker")
    if len({r["verdicts"] for r in untraced + traced}) != 1:
        problems.append("verdicts differ between campaigns of this run "
                        "(traced vs untraced or repeated)")
    try:
        for r in traced:
            analysis.span_totals(r["profile"])
    except analysis.UnmappedLabel as e:
        problems.append(f"span label {e} maps to no layer")
        traced = []
    totals_ok, total_lines = check_totals(opts, untraced, traced)
    if not totals_ok:
        problems.append("deterministic totals differ from expected.json")

    log(f"perfbench {opts.workload}: seed {opts.seed}, campaign seed "
        f"{opts.campaign_seed}, silicon seed {opts.silicon_seed}, "
        f"{len(untraced)} untraced + {len(traced)} traced run(s) of the "
        f"{len(modules)}-unit workload, 1 worker")
    for line in total_lines:
        log("  " + line)
    units = metric_units()
    log("  measured workload wall: " + ", ".join(
        f"{r['run_wall_ns'] / 1e9:.4f}" for r in untraced) + " s; median "
        "unit " + format(statistics.median(
            u["wall_ms"] for r in untraced for u in r["units"]), ".6g") +
        " ms")
    tail = analysis.unit_tail_ms([u["wall_ms"]
                                  for u in untraced[0]["units"]])
    n = len(modules)
    log("  measured unit_tail_ms = " + (
        f"{tail:.6g} ms (p{int(analysis.tail_percentile(n))} of {n} units)"
        if tail is not None else
        f"omitted ({n} units per campaign, 20 or fewer)"))
    if not opts.trace:
        log(f"  cur/ref over {len(pairs)} pair(s): wall " + format(
            sum(p["cur"]["run_wall_ns"] for p in pairs) /
            sum(p["ref"]["run_wall_ns"] for p in pairs), ".4f"))
        e2e = end_to_end(gate, pairs, setups,
                         load_expected()["workloads"][opts.workload]
                         ["reference"])
        for name, value in e2e.items():
            log(f"  {name} = {value:.6g} {units[name]}")
    log(f"  units = {attempted} attempted, units_failed = {failed}")

    if opts.trace:
        if traced:
            metrics = layer_metrics(untraced, traced)
            shares = analysis.layer_shares(traced[0]["profile"])
            total = sum(shares.values()) or 1
            log("  layer shares of span time: " + ", ".join(
                f"{layer} {100 * ns / total:.1f}%" for layer, ns in
                sorted(shares.items(), key=lambda kv: -kv[1])))
            ranking = sorted(analysis.span_totals(
                traced[0]["profile"]).items(),
                key=lambda kv: -kv[1]["excl_wall_ns"])
            log("  top self times: " + ", ".join(
                f"{label} {t['excl_wall_ns'] / 1e6:.0f} ms"
                for label, t in ranking[:5]))
        else:
            metrics = {}
    else:
        metrics = e2e
    for p in problems:
        log("  INCORRECT: " + p)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
