/**
 * @file
 * One cold run of one end-to-end benchmark workload.
 *
 *   perfbench_driver --workload identify|identify-chaos|synth
 *                    [--modules A0,B5,...] [--campaign-seed S]
 *                    [--silicon-seed M] [--profile] [--setup-only]
 *
 * Each workload calls the same public entry point as its CLI, on one
 * campaign worker (jobs = 1, the runner's inline path):
 *
 *  - identify: `reverse_engineer --battery` — CampaignRunner::run with
 *    makeIdentifyJob(IdentifyJobConfig::battery()) and the CLI's
 *    ProfileCache attached.
 *  - identify-chaos: the same job under FaultConfig::chaosDefaults()
 *    and IdentifyJobConfig::chaos(), as `reverse_engineer --chaos`.
 *  - synth: runSynthCampaign with the `synthesize` defaults.
 *
 * --modules sets the campaign's module list and order (default: the
 * workload's set). --profile arms the span profiler for the whole
 * campaign and adds the merged profile tree to the output.
 * --setup-only stops right before the run call, so set-up time can be
 * sampled without running the campaign, and lists the modules.
 *
 * Prints one JSON object on stdout: per-unit wall times and verdicts,
 * the run call's CLOCK_MONOTONIC timestamp (set-up ends there), the
 * campaign wall time, deterministic simulated totals from the merged
 * registry, the peak RSS from getrusage, and the profile when armed.
 * perfbench/run.py turns repeated runs into the benchmark's metrics.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "attack/synth.hh"
#include "common/logging.hh"
#include "obs/profiler.hh"
#include "runner/cancellation.hh"
#include "runner/profile_cache.hh"
#include "runner/reveng_job.hh"

using namespace utrr;

namespace
{

/** The `bench_bypass --quick` set: one module per Table-1 group. */
const char *const kSynthModules[] = {"A0", "A5", "A13", "B0", "B1", "B7",
                                     "B9", "B13", "C0", "C7", "C9",
                                     "C12"};

/**
 * Vendor-balanced chaos subset: one module per vendor, 3.5-8 s each
 * when run serially.
 */
const char *const kChaosModules[] = {"A5", "B8", "C9"};

[[noreturn]] void
usageError(const std::string &msg)
{
    std::cerr << "perfbench_driver: " << msg << "\n";
    std::exit(2);
}

std::int64_t
monotonicNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::vector<ModuleSpec>
specsFor(const std::vector<std::string> &names)
{
    std::vector<ModuleSpec> specs;
    for (const std::string &name : names) {
        const auto spec = findModuleSpec(name);
        if (!spec)
            usageError("unknown module " + name);
        specs.push_back(*spec);
    }
    return specs;
}

std::vector<std::string>
defaultModules(const std::string &workload)
{
    std::vector<std::string> names;
    if (workload == "identify") {
        for (const ModuleSpec &spec : allModuleSpecs())
            names.push_back(spec.name);
    } else if (workload == "identify-chaos") {
        names.assign(std::begin(kChaosModules), std::end(kChaosModules));
    } else {
        names.assign(std::begin(kSynthModules), std::end(kSynthModules));
    }
    return names;
}

/** Sum of one per-module counter over every "module.<name>." prefix. */
std::uint64_t
sumModuleCounter(const MetricsRegistry &merged, const std::string &name)
{
    const std::string suffix = "." + name;
    std::uint64_t total = 0;
    for (const auto &[key, counter] : merged.counters()) {
        if (key.rfind("module.", 0) == 0 && key.size() > suffix.size() &&
            key.compare(key.size() - suffix.size(), suffix.size(),
                        suffix) == 0) {
            total += counter.value;
        }
    }
    return total;
}

/**
 * A unit counts as failed unless its job's own ok verdict says it
 * matched: period and neighbours for identify, beaten for synth, where
 * the winner must also have flipped bits again on a fresh substrate.
 */
bool
unitOk(bool synth, const ModuleResult &m)
{
    if (!m.completed || m.quarantined || !m.ok)
        return false;
    const Json *flips = m.verdict.find("verify_flips");
    return !synth || (flips != nullptr && flips->asInt() > 0);
}

/**
 * Deterministic simulated totals. The synth job evaluates every
 * candidate on private substrates that publish no registry counters,
 * so its device counters are absent (null), never 0.
 */
Json
totals(bool synth, const CampaignResult &result)
{
    const MetricsRegistry &merged = result.merged;
    Json t = Json::object();
    const auto device = [&](const char *key, const std::string &name) {
        t[key] = synth ? Json() : Json(sumModuleCounter(merged, name));
    };
    device("acts", "dram.acts");
    device("refs", "dram.refs");
    device("restore_fast", "dram.restore.fast_path");
    device("restore_slow", "dram.restore.slow_path");
    device("readout_cow_copies", "dram.readout.cow_copies");
    device("hammer_cell_attaches", "dram.hammer_cell_attaches");
    const Gauge *sim = merged.findGauge("campaign.sim_ns");
    t["sim_ns"] = !synth && sim != nullptr
        ? Json(static_cast<std::int64_t>(sim->value))
        : Json();
    const Counter *events = merged.findCounter("campaign.fault.events");
    t["fault_events"] = events != nullptr ? events->value : 0;
    t["temp_steps"] = result.faultTotals.tempSteps;
    t["watchdog_retries"] = result.watchdogRetries;
    t["fresh_row_retries"] =
        sumModuleCounter(merged, "reveng.fresh_row_retries");
    t["row_scout_evictions"] =
        sumModuleCounter(merged, "row_scout.evictions");
    t["synth_attempts"] = sumModuleCounter(merged, "synth.attempts");
    t["synth_beaten"] = sumModuleCounter(merged, "synth.beaten");
    t["synth_verify_flips"] =
        sumModuleCounter(merged, "synth.verify_flips");
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    setLogLevel(LogLevel::kWarn);
    std::string workload;
    std::string modules_arg;
    std::uint64_t campaign_seed = 1;
    std::uint64_t silicon_seed = 2021;
    bool profile = false;
    bool setup_only = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            workload = next();
        } else if (arg == "--modules") {
            modules_arg = next();
        } else if (arg == "--campaign-seed") {
            campaign_seed = std::stoull(next());
        } else if (arg == "--silicon-seed") {
            silicon_seed = std::stoull(next());
        } else if (arg == "--profile") {
            profile = true;
        } else if (arg == "--setup-only") {
            setup_only = true;
        } else {
            usageError("unknown argument " + arg);
        }
    }
    if (workload != "identify" && workload != "identify-chaos" &&
        workload != "synth")
        usageError("--workload must be identify, identify-chaos or synth");

    std::vector<std::string> names;
    if (modules_arg.empty()) {
        names = defaultModules(workload);
    } else {
        std::istringstream is(modules_arg);
        for (std::string name; std::getline(is, name, ',');)
            names.push_back(name);
    }
    const std::vector<ModuleSpec> specs = specsFor(names);

    // What the CLIs wire unconditionally: SIGINT/SIGTERM stop the
    // campaign cooperatively (one branch per command).
    installStopSignalHandlers();

    const bool synth = workload == "synth";
    const bool chaos = workload == "identify-chaos";
    ProfileCache profiles;
    std::function<CampaignResult()> campaign;
    if (synth) {
        SynthCampaignConfig cfg;
        cfg.jobs = 1;
        cfg.seed = campaign_seed;
        cfg.synth.moduleSeed = silicon_seed;
        cfg.stopFlag = stopFlagPtr();
        campaign = [&specs, cfg]() { return runSynthCampaign(specs, cfg); };
    } else {
        CampaignConfig cfg;
        cfg.jobs = 1;
        cfg.seed = campaign_seed;
        cfg.moduleSeed = silicon_seed;
        cfg.stopFlag = stopFlagPtr();
        if (chaos)
            cfg.faults = FaultConfig::chaosDefaults();
        cfg.profileCache = &profiles;
        campaign = [&specs, runner = CampaignRunner(cfg),
                    job = makeIdentifyJob(
                        chaos ? IdentifyJobConfig::chaos()
                              : IdentifyJobConfig::battery())]() {
            return runner.run(specs, job);
        };
    }

    if (profile)
        Profiler::setEnabled(true);
    const std::int64_t run_call_ns = monotonicNs();
    if (setup_only) {
        Json out = Json::object();
        out["run_call_ns"] = run_call_ns;
        Json modules = Json::array();
        for (const std::string &name : names)
            modules.push(Json(name));
        out["modules"] = std::move(modules);
        std::cout << out.dump() << "\n";
        return 0;
    }
    const CampaignResult result = campaign();
    const std::int64_t run_wall_ns = monotonicNs() - run_call_ns;
    Profiler::setEnabled(false);

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);

    Json out = Json::object();
    out["run_call_ns"] = run_call_ns;
    out["run_wall_ns"] = run_wall_ns;
    out["jobs_used"] = result.jobsUsed;
    Json units = Json::array();
    std::uint64_t failed = 0;
    for (const ModuleResult &m : result.modules) {
        const bool ok = unitOk(synth, m);
        failed += ok ? 0 : 1;
        Json unit = Json::object();
        unit["module"] = m.module;
        unit["ok"] = ok;
        unit["wall_ms"] = m.wallMs;
        units.push(std::move(unit));
    }
    out["units"] = std::move(units);
    out["units_failed"] = failed;
    out["verdicts"] = result.verdicts().dump();
    out["totals"] = totals(synth, result);
    // ru_maxrss is in KiB on Linux.
    out["peak_rss_kb"] = static_cast<std::int64_t>(usage.ru_maxrss);
    if (profile)
        out["profile"] = Profiler::instance().collect().toJson();
    std::cout << out.dump() << "\n";
    return 0;
}
