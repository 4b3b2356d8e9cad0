"""Pure metric rules of the end-to-end benchmark.

Everything here is a function of driver output, so the rules can be
tested without building or running the simulator:

- the label-prefix table that maps profiler spans to src/ layers,
- the per-layer metrics of one traced campaign,
- the unit tail rule,
- the verdict digest that pins a workload's outputs.
"""

import hashlib
import json

# One table maps every span label to the src/ module that owns it. The
# campaign.job span wraps a whole job body, so its own (exclusive) time
# is job code that no layer span covers: it is reported as unattributed
# instead of being credited to the runner, whose own time the benchmark
# measures around the run call.
LAYER_PREFIXES = (
    ("campaign.job", "obs"),
    ("reveng.", "core"),
    ("row_scout.", "core"),
    ("trr_analyzer.", "core"),
    ("synth.", "attack"),
    ("softmc.", "softmc"),
    ("dram.", "dram"),
    ("refresh_engine.", "dram"),
    ("bank.", "dram"),
    ("oracle.", "check"),
)

# Marks a metric the workload cannot observe (a private substrate, or a
# ratio with nothing to divide by). 0 always means "counted, none".
ABSENT = -1


class UnmappedLabel(ValueError):
    """A span label that no LAYER_PREFIXES entry claims."""


def layer_of(label):
    for prefix, layer in LAYER_PREFIXES:
        if label == prefix or (prefix.endswith(".") and
                               label.startswith(prefix)):
            return layer
    raise UnmappedLabel(label)


def _walk(nodes):
    for node in nodes:
        yield node
        yield from _walk(node["children"])


def span_totals(profile):
    """Per label: calls, exclusive wall ns and exclusive sim ns, summed
    over every tree path. Raises UnmappedLabel for a label outside the
    layer table."""
    totals = {}
    for node in _walk(profile["spans"]):
        layer_of(node["label"])
        t = totals.setdefault(node["label"], {"calls": 0,
                                              "excl_wall_ns": 0,
                                              "excl_sim_ns": 0})
        t["calls"] += node["calls"]
        t["excl_wall_ns"] += node["excl_wall_ns"]
        t["excl_sim_ns"] += node["excl_sim_ns"]
    return totals


def inclusive_ns(nodes, prefixes):
    """Inclusive wall ns of the outermost spans whose label starts with
    one of prefixes (nested matches are not counted twice)."""
    total = 0
    for node in nodes:
        if node["label"].startswith(prefixes):
            total += node["wall_ns"]
        else:
            total += inclusive_ns(node["children"], prefixes)
    return total


def layer_shares(profile):
    """Exclusive wall ns per layer."""
    shares = {}
    for label, t in span_totals(profile).items():
        layer = layer_of(label)
        shares[layer] = shares.get(layer, 0) + t["excl_wall_ns"]
    return shares


def per_layer(run):
    """Per-layer metrics of one traced driver run (name -> value).

    Times are in ms. softmc.* times are self (exclusive) times, so they
    include the dram and trr work done inside those calls."""
    spans = span_totals(run["profile"])
    tot = run["totals"]

    def calls(label):
        return spans.get(label, {}).get("calls", 0)

    def incl_ms(*prefixes):
        return inclusive_ns(run["profile"]["spans"], prefixes) / 1e6

    def excl_ms(*labels):
        return sum(spans.get(label, {}).get("excl_wall_ns", 0)
                   for label in labels) / 1e6

    def device(key):
        value = tot.get(key)
        return ABSENT if value is None else value

    unit_wall_ms = sum(u["wall_ms"] for u in run["units"])
    fast, slow = tot["restore_fast"], tot["restore_slow"]
    attempts = tot["synth_attempts"]
    return {
        "runner.self_ms": run["run_wall_ns"] / 1e6 - unit_wall_ms,
        "runner.job_setup_ms": unit_wall_ms - incl_ms("campaign.job"),
        "runner.retries": tot["watchdog_retries"],
        "core.scout_groups_ms": incl_ms("reveng.scout_groups"),
        "core.row_scout_scan_ms": incl_ms("row_scout.scan"),
        "core.row_scout_scans": calls("row_scout.scan"),
        "core.trr_analyzer_ms": incl_ms("trr_analyzer."),
        "core.trr_experiments": calls("trr_analyzer.experiment"),
        "core.fresh_row_retries": tot["fresh_row_retries"],
        "core.row_scout_evictions": tot["row_scout_evictions"],
        "attack.synth_search_ms": incl_ms("synth.search"),
        "attack.synth_verify_ms": incl_ms("synth.verify"),
        "attack.synth_minimize_ms": incl_ms("synth.minimize"),
        "attack.synth_sweep_ms": incl_ms("synth.sweep"),
        "attack.synth_self_ms": excl_ms(*(label for label in spans
                                          if label.startswith("synth."))),
        "attack.synth_win_ratio": (tot["synth_beaten"] / attempts
                                   if attempts else ABSENT),
        "softmc.hammer_interleaved_ms": excl_ms("softmc.hammer_interleaved"),
        "softmc.hammer_multibank_ms": excl_ms("softmc.hammer_multibank"),
        "softmc.hammer_ms": excl_ms("softmc.hammer"),
        "softmc.hammer_calls": calls("softmc.hammer"),
        "softmc.wait_ms": excl_ms("softmc.wait"),
        "softmc.acts": device("acts"),
        "softmc.refs": calls("dram.ref"),
        "softmc.sim_s": sum(t["excl_sim_ns"] for label, t in spans.items()
                            if label.startswith("softmc.")) / 1e9,
        "dram.ref_ms": excl_ms("dram.ref", "refresh_engine.on_refresh"),
        "dram.restore_fast_ratio": (fast / (fast + slow)
                                    if fast is not None and fast + slow
                                    else ABSENT),
        "dram.readout_cow_copies": device("readout_cow_copies"),
        "dram.hammer_cell_attaches": calls("bank.attach_hammer_cells"),
        "fault.temp_steps": tot["temp_steps"],
        "fault.events": tot["fault_events"],
        "obs.unattributed_ms": excl_ms("campaign.job"),
    }


def tail_percentile(n_units):
    """Percentile of unit_tail_ms: the highest one with at least ten
    units beyond it (p77 of 45 units)."""
    return 100.0 * (n_units - 10) / n_units


def unit_tail_ms(unit_wall_ms):
    """The unit time with exactly ten units above it, or None at 20
    units or fewer, where it would not sit above the median."""
    n = len(unit_wall_ms)
    return sorted(unit_wall_ms)[n - 11] if n > 20 else None


def verdict_digest(verdicts_dump):
    """Order-independent digest of CampaignResult::verdicts().dump()."""
    entries = sorted(json.loads(verdicts_dump), key=lambda e: e["module"])
    canon = json.dumps(entries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]

