/**
 * @file
 * Full TRR reverse-engineering session on one module (default A5),
 * narrating each discovery the way §6 of the paper does.
 *
 * Usage: reverse_engineer [MODULE] [--fast] [--trace FILE]
 *                         [--report FILE] [--battery [SEED]]
 *                         [--chaos SEED] [--jobs N] [--profile]
 *                         [--profile-folded FILE] [--telemetry FILE]
 *                         [--telemetry-fsync] [--journal FILE]
 *                         [--resume] [--no-compile]
 *
 * With --no-compile, the host runs in the interpreted tier (DESIGN.md
 * §17): hammer bursts and Row Scout's row-range scans take the
 * immediate API's per-ACT and per-row paths instead of the compiled
 * tier's folds (this CLI runs no recorded programs) — slower but the
 * reference semantics, useful when bisecting a suspected
 * compiled/interpreted divergence. Verdicts are identical either way.
 *
 * With --trace, every DDR command of the session is recorded (bounded
 * ring buffer) and written as Chrome trace_event JSON — open the file
 * in chrome://tracing or https://ui.perfetto.dev to see the hammer
 * rounds, REF bursts and retention waits on a timeline.
 *
 * With --report, a structured ExperimentReport (JSON) of the session is
 * written; a failed write exits non-zero.
 *
 * With --battery, the TRR-to-REF ratio and neighbour count are instead
 * re-derived for ALL 45 Table-1 modules through the parallel campaign
 * runner; any mismatch against ground truth exits non-zero.
 *
 * With --chaos, the same 45-module battery runs while a FaultInjector
 * at the documented chaos rates (FaultConfig::chaosDefaults) perturbs
 * the substrate: VRT flips on profiled rows, temperature drift,
 * read-back bit noise, REF jitter and dropped commands. The
 * self-healing pipeline (Row Scout re-validation/eviction, TRR
 * Analyzer quorum voting, fresh-row retries, simulated-time watchdog)
 * must still identify every module correctly.
 *
 * With --profile, the hierarchical span profiler is armed for the whole
 * run and a "what do we optimize next" table — subsystems ranked by
 * exclusive wall time, with simulated-DRAM time alongside — is printed
 * at the end. --profile-folded FILE additionally writes the call tree
 * in folded-stack format ("a;b;c <usec>" lines) ready for
 * flamegraph.pl, and --trace merges the profile into the Chrome trace
 * as nested duration events. --report embeds the profile JSON.
 *
 * With --telemetry FILE, battery/chaos campaigns stream one JSONL
 * heartbeat per finished job (progress, ETA, retry/quarantine totals,
 * metrics snapshot) to FILE — tail it to watch a long sweep live.
 * Validate with scripts/telemetry_check.py.
 *
 * With --journal FILE, battery/chaos campaigns keep a crash-safe
 * write-ahead result journal: every finished module lands on disk
 * (checksummed, fsynced) before it is merged, and --resume reloads the
 * finished jobs and runs only the missing ones — the merged report is
 * bit-identical to an uninterrupted run (scripts/report_diff.py).
 * SIGINT/SIGTERM stop the campaign cooperatively: in-flight jobs are
 * abandoned at the next command boundary, the partial report is still
 * written, and the process exits with the resumable status.
 *
 * Exit codes (documented in README.md):
 *   0 — all modules identified correctly
 *   1 — at least one misidentification or a failed artifact write
 *   2 — usage error
 *   3 — at least one job quarantined (watchdog retry ladder exhausted)
 *   4 — interrupted; resumable via --journal FILE --resume
 *
 * --jobs N sets the campaign worker count for both battery modes
 * (default: hardware concurrency; 1 preserves the serial path).
 * Results are bit-identical for every N — per-module RNG streams are
 * forked off the campaign seed by module name, never by schedule.
 *
 * Everything here is black-box: the program only issues DDR commands
 * and reads data back; the TRR implementation inside the simulated
 * chip is never inspected directly.
 */

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>

#include "common/logging.hh"
#include "core/mapping_reveng.hh"
#include "core/reveng.hh"
#include "dram/module.hh"
#include "fault/fault_injector.hh"
#include "obs/profiler.hh"
#include "obs/report.hh"
#include "obs/telemetry.hh"
#include "runner/cancellation.hh"
#include "runner/reveng_job.hh"
#include "softmc/host.hh"

using namespace utrr;

namespace
{

/** Exit-code contract (README.md): resumable > quarantined > failed. */
constexpr int kExitFailed = 1;
constexpr int kExitUsage = 2;
constexpr int kExitQuarantined = 3;
constexpr int kExitInterrupted = 4;

/** Bad command line: report and exit with the usage status. */
[[noreturn]] void
usageError(const std::string &msg)
{
    std::cerr << "error: " << msg << "\n";
    std::exit(kExitUsage);
}

/** Durability-related campaign options threaded from the CLI. */
struct DurabilityOptions
{
    std::string journalPath;
    bool resume = false;
    bool telemetryFsync = false;
};

/**
 * Finish a --profile run: print the exclusive-time ranking table and,
 * when requested, write the folded-stack file for flamegraph.pl.
 * Returns false on a failed folded-file write.
 */
bool
emitProfile(const ProfileTree &tree, const std::string &folded_path)
{
    std::cout << "\n" << tree.table();
    if (folded_path.empty())
        return true;
    std::ofstream out(folded_path);
    if (out)
        tree.foldedWall(out);
    if (!out) {
        warn("cannot write folded profile " + folded_path);
        return false;
    }
    std::cout << "Wrote folded-stack profile (flamegraph.pl input) to "
              << folded_path << "\n";
    return true;
}

/**
 * 45-module identification campaign, fault-free (--battery) or under
 * chaos injection (--chaos). Returns the process exit code.
 */
int
runBatteryCampaign(bool chaos, std::uint64_t seed, int jobs,
                   const std::string &report_path, bool profile,
                   const std::string &profile_folded_path,
                   const std::string &telemetry_path,
                   const DurabilityOptions &durability)
{
    CampaignConfig campaign;
    campaign.jobs = jobs;
    campaign.seed = seed;
    campaign.maxWatchdogRetries = 2;
    if (chaos)
        campaign.faults = FaultConfig::chaosDefaults();
    campaign.journalPath = durability.journalPath;
    campaign.resume = durability.resume;
    // The tag keys the journal to the job body: a battery journal can
    // never resume a chaos campaign (or vice versa).
    campaign.contentTag =
        chaos ? "identify:chaos:v1" : "identify:battery:v1";
    // Cooperative cancellation costs one branch per command; wire it
    // unconditionally so plain batteries are also stoppable.
    installStopSignalHandlers();
    campaign.stopFlag = stopFlagPtr();

    std::unique_ptr<TelemetrySink> telemetry;
    if (!telemetry_path.empty()) {
        telemetry = std::make_unique<TelemetrySink>(
            telemetry_path, durability.telemetryFsync);
        if (!telemetry->good())
            return 1;
        campaign.telemetry = telemetry.get();
        std::cout << "Streaming campaign telemetry to " << telemetry_path
                  << "\n";
    }
    if (!durability.journalPath.empty()) {
        std::cout << "Write-ahead journal: " << durability.journalPath
                  << (durability.resume ? " (resuming)" : "") << "\n";
    }
    const IdentifyJobConfig job_cfg =
        chaos ? IdentifyJobConfig::chaos() : IdentifyJobConfig::battery();

    CampaignRunner runner(campaign);
    std::cout << "== " << (chaos ? "Chaos" : "Battery")
              << " identification campaign: 45 modules"
              << (chaos ? " under fault injection" : "") << " (seed "
              << seed << ", jobs "
              << (jobs <= 0 ? CampaignRunner::hardwareConcurrency()
                            : jobs)
              << ") ==\n\n";

    const CampaignResult result =
        runner.run(allModuleSpecs(), makeIdentifyJob(job_cfg));

    std::cout << std::left << std::setw(8) << "Module"
              << std::setw(18) << "TRR/REF (truth)"
              << std::setw(18) << "Neigh (truth)"
              << std::setw(10) << "Faults"
              << std::setw(10) << "Retries"
              << "Verdict\n";
    std::uint64_t total_fresh_retries = 0;
    for (const ModuleResult &m : result.modules) {
        if (!m.completed) {
            std::cout << std::left << std::setw(8) << m.module
                      << "(pending — interrupted before completion)\n";
            continue;
        }
        const Json &v = m.verdict;
        auto field = [&v](const char *key) {
            const Json *found = v.find(key);
            return found == nullptr ? std::int64_t{0} : found->asInt();
        };
        const FaultInjector::Stats &stats = m.faultStats;
        const std::uint64_t fault_events = stats.vrtFlips +
            stats.noiseBits + stats.jitteredRefs +
            stats.droppedCommands();
        total_fresh_retries +=
            static_cast<std::uint64_t>(field("fresh_row_retries"));
        std::cout << std::left << std::setw(8) << m.module
                  << std::setw(18)
                  << logFmt("1/", field("period"), " (1/",
                            field("period_truth"), ")")
                  << std::setw(18)
                  << logFmt(field("neighbours"), " (",
                            field("neighbours_truth"), ")")
                  << std::setw(10) << fault_events
                  << std::setw(10) << field("fresh_row_retries")
                  << (m.ok ? "ok" : "MISMATCH")
                  << (m.attempts > 1
                          ? logFmt(" (", m.attempts, " attempts)")
                          : "")
                  << "\n";
        if (!m.error.empty())
            std::cout << "        watchdog: " << m.error << "\n";
    }

    const FaultInjector::Stats &total = result.faultTotals;
    if (chaos) {
        std::cout << "\nInjected faults across the sweep: "
                  << total.vrtFlips << " VRT flips, "
                  << total.noiseBits << " noisy bits, "
                  << total.jitteredRefs << " jittered REF intervals, "
                  << total.droppedCommands() << " dropped commands ("
                  << total.droppedRefs << " REF, " << total.droppedWrs
                  << " WR, " << total.droppedHammerActs
                  << " hammer ACT), " << total.tempSteps
                  << " temperature steps\n";
        std::cout << "Self-healing: " << total_fresh_retries
                  << " fresh-row retries across all modules\n";
    }
    std::cout << "\nCampaign: " << result.jobsUsed << " worker(s), "
              << std::fixed << std::setprecision(1) << result.wallMs
              << " ms wall, " << result.watchdogRetries
              << " watchdog retries, " << result.quarantinedJobs
              << " quarantined\n";
    if (result.journaledJobs > 0) {
        std::cout << "Resumed from journal: " << result.journaledJobs
                  << " job(s) restored, " << result.scheduledJobs
                  << " scheduled";
        if (result.journalCorruptRecords > 0 || result.journalTornTail) {
            std::cout << " (" << result.journalCorruptRecords
                      << " corrupt record(s) skipped"
                      << (result.journalTornTail ? ", torn tail dropped"
                                                 : "")
                      << ")";
        }
        std::cout << "\n";
    }
    if (result.interrupted) {
        std::cout << "INTERRUPTED: " << result.pendingJobs
                  << " job(s) still pending"
                  << (durability.journalPath.empty()
                          ? " (run with --journal to make such runs "
                            "resumable)"
                          : "; rerun with --resume to continue")
                  << "\n";
    } else {
        std::cout << (result.allOk()
                          ? "All 45 modules identified correctly.\n"
                          : logFmt(result.failedJobs,
                                   " module(s) MISIDENTIFIED.\n"));
    }

    // Precedence: resumable interruption > quarantine > failure, so
    // orchestration can always tell "try --resume" apart from "a
    // module's watchdog ladder is exhausted" and plain mismatches.
    int exit_code = 0;
    if (!result.allOk())
        exit_code = kExitFailed;
    if (result.quarantinedJobs > 0)
        exit_code = kExitQuarantined;
    if (result.interrupted)
        exit_code = kExitInterrupted;
    ProfileTree profile_tree;
    if (profile) {
        profile_tree = Profiler::instance().collect();
        if (!emitProfile(profile_tree, profile_folded_path) &&
            exit_code == 0) {
            exit_code = kExitFailed;
        }
    }

    if (!report_path.empty()) {
        ExperimentReport report(chaos ? "reverse_engineer_chaos"
                                      : "reverse_engineer_battery");
        report.setSeed(seed);
        report.setConfig("jobs", Json(result.jobsUsed));
        report.setConfig("chaos", Json(chaos));
        if (chaos) {
            const FaultConfig &fault_cfg = campaign.faults;
            report.setConfig("vrt_flip_chance",
                             Json(fault_cfg.vrtFlipChancePerRead));
            report.setConfig("read_noise_chance",
                             Json(fault_cfg.readNoiseChancePerRead));
            report.setConfig("ref_jitter_chance",
                             Json(fault_cfg.refJitterChance));
            report.setConfig("drop_ref_chance",
                             Json(fault_cfg.dropRefChance));
            report.setConfig("drop_wr_chance",
                             Json(fault_cfg.dropWrChance));
            report.setConfig("drop_hammer_act_chance",
                             Json(fault_cfg.dropHammerActChance));
        }
        result.fillReport(report);
        if (profile && !profile_tree.empty())
            report.attachProfile(profile_tree);
        // An interrupted campaign still writes its (partial, clearly
        // marked) report — the journal plus this artifact are what a
        // resume needs to pick up cleanly.
        if (!report.writeFile(report_path))
            return exit_code == 0 ? kExitFailed : exit_code;
        std::cout << "Wrote campaign report to " << report_path << "\n";
    }
    return exit_code;
}

} // namespace

int
main(int argc, char **argv)
{
    setLogLevel(LogLevel::kWarn);
    std::string name = "A5";
    bool fast = false;
    bool battery = false;
    bool chaos = false;
    std::uint64_t campaign_seed = 1;
    int jobs = 0; // hardware concurrency
    bool profile_enabled = false;
    std::string trace_path;
    std::string report_path;
    std::string profile_folded_path;
    std::string telemetry_path;
    DurabilityOptions durability;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--fast") == 0) {
            fast = true;
        } else if (std::strcmp(argv[i], "--profile") == 0) {
            profile_enabled = true;
        } else if (std::strcmp(argv[i], "--profile-folded") == 0) {
            if (i + 1 >= argc)
                usageError("--profile-folded needs a file argument");
            profile_enabled = true;
            profile_folded_path = argv[++i];
        } else if (std::strcmp(argv[i], "--telemetry") == 0) {
            if (i + 1 >= argc)
                usageError("--telemetry needs a file argument");
            telemetry_path = argv[++i];
        } else if (std::strcmp(argv[i], "--telemetry-fsync") == 0) {
            durability.telemetryFsync = true;
        } else if (std::strcmp(argv[i], "--journal") == 0) {
            if (i + 1 >= argc)
                usageError("--journal needs a file argument");
            durability.journalPath = argv[++i];
        } else if (std::strcmp(argv[i], "--resume") == 0) {
            durability.resume = true;
        } else if (std::strcmp(argv[i], "--trace") == 0) {
            if (i + 1 >= argc)
                usageError("--trace needs a file argument");
            trace_path = argv[++i];
        } else if (std::strcmp(argv[i], "--report") == 0) {
            if (i + 1 >= argc)
                usageError("--report needs a file argument");
            report_path = argv[++i];
        } else if (std::strcmp(argv[i], "--no-compile") == 0) {
            // Debugging escape hatch (DESIGN.md §17): every host
            // takes the per-ACT and per-row reference paths.
            SoftMcHost::setDefaultExecMode(ExecMode::kInterpreted);
        } else if (std::strcmp(argv[i], "--battery") == 0) {
            battery = true;
        } else if (std::strcmp(argv[i], "--chaos") == 0) {
            if (i + 1 >= argc)
                usageError("--chaos needs a seed argument");
            chaos = true;
            campaign_seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (std::strcmp(argv[i], "--seed") == 0) {
            if (i + 1 >= argc)
                usageError("--seed needs a value");
            campaign_seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (std::strcmp(argv[i], "--jobs") == 0) {
            if (i + 1 >= argc)
                usageError("--jobs needs a worker count");
            jobs = std::atoi(argv[++i]);
            if (jobs < 1)
                usageError("--jobs needs a positive worker count");
        } else {
            name = argv[i];
        }
    }

    if (profile_enabled)
        Profiler::instance().setEnabled(true);

    if (battery || chaos)
        return runBatteryCampaign(chaos, campaign_seed, jobs,
                                  report_path, profile_enabled,
                                  profile_folded_path, telemetry_path,
                                  durability);
    if (!telemetry_path.empty())
        warn("--telemetry only streams during --battery/--chaos "
             "campaigns; ignoring it for a single-module session");
    if (!durability.journalPath.empty() || durability.resume)
        warn("--journal/--resume apply to --battery/--chaos campaigns; "
             "ignoring them for a single-module session");

    const auto spec_opt = findModuleSpec(name);
    if (!spec_opt)
        usageError("unknown module " + name + " (try A0..A14, B0..B14, "
              "C0..C14)");
    const ModuleSpec spec = *spec_opt;
    DramModule module(spec, 2021);
    SoftMcHost host(module);
    if (!trace_path.empty())
        host.trace().enable(64 * 1024);

    std::cout << "== U-TRR reverse engineering of module " << spec.name
              << " (" << spec.banks << " banks, "
              << spec.rowsPerBank / 1024 << "K rows/bank) ==\n\n";

    std::cout << "[1/3] Discovering the logical-to-physical row "
                 "mapping (§5.3)...\n";
    MappingReveng::Config map_cfg;
    map_cfg.probes = fast ? 5 : 10;
    MappingReveng mapper(host, map_cfg);
    const DiscoveredMapping mapping = mapper.discover();
    std::cout << "      decoder scramble: "
              << scrambleName(mapping.scheme()) << ", "
              << mapping.anomalies().size()
              << " probe rows flagged as remapped\n\n";

    std::cout << "[2/3] Scouting retention-profiled row groups and "
                 "analyzing TRR (§6)...\n";
    TrrRevengConfig cfg;
    cfg.scoutRowEnd = 8 * 1024;
    cfg.consistencyChecks = fast ? 20 : 100;
    TrrReveng reveng(host, mapping, cfg);
    const TrrProfile profile = reveng.discoverAll(!fast);

    std::cout << "\n[3/3] Findings vs the module's ground truth:\n";
    const TrrTraits truth = spec.traits();
    auto line = [](const std::string &what, const std::string &measured,
                   const std::string &expected) {
        std::cout << "      " << what << ": " << measured
                  << "   (ground truth: " << expected << ")\n";
    };
    line("TRR-capable REFs", logFmt("1 in ", profile.trrToRefPeriod),
         logFmt("1 in ", truth.trrToRefPeriod));
    line("victims refreshed per TRR event",
         std::to_string(profile.neighborsRefreshed),
         spec.paired() ? "1 (pair row)"
                       : std::to_string(truth.neighborsRefreshed));
    line("aggressor detection", detectionTypeName(profile.detection),
         truth.detection);
    if (!fast) {
        line("aggressor capacity",
             std::to_string(profile.aggressorCapacity),
             truth.aggressorCapacity < 0
                 ? "unknown"
                 : std::to_string(truth.aggressorCapacity));
        line("detection scope",
             profile.perBank ? "per-bank" : "chip-wide",
             truth.perBank ? "per-bank" : "chip-wide");
        line("regular-refresh period",
             logFmt(profile.regularRefreshPeriodRefs, " REFs"),
             logFmt(spec.refreshPeriodRefs, " REFs"));
    }
    switch (profile.detection) {
      case DetectionType::kCounterBased:
        std::cout << "      counter semantics: "
                  << (profile.countersResetOnDetect
                          ? "reset on detection (Obs. A6); "
                          : "no reset; ")
                  << (profile.tableEntriesPersist
                          ? "entries persist (Obs. A7)"
                          : "entries expire")
                  << (profile.evictsMinCounter
                          ? "; evict-min insertion (Obs. A5)"
                          : "")
                  << "\n";
        break;
      case DetectionType::kSamplingBased:
        std::cout << "      sampler survives TRR refreshes (Obs. B5): "
                  << (profile.samplerRetained ? "yes" : "no") << "\n";
        break;
      case DetectionType::kWindowBased:
        std::cout << "      dummy burst hiding later aggressors "
                     "(Obs. C2): ~"
                  << profile.detectionWindowActs << " ACTs\n";
        break;
      default:
        break;
    }
    std::cout << "\nSummary: " << profile.summary() << "\n";

    int exit_code = 0;
    ProfileTree profile_tree;
    if (profile_enabled) {
        profile_tree = Profiler::instance().collect();
        if (!emitProfile(profile_tree, profile_folded_path))
            exit_code = 1;
    }
    if (!trace_path.empty()) {
        std::ofstream out(trace_path);
        if (!out) {
            warn("cannot write trace file " + trace_path);
            exit_code = 1;
        } else {
            host.trace().exportChromeTrace(
                out, profile_tree.empty() ? nullptr : &profile_tree);
            out.flush();
            if (!out) {
                warn("short write on trace file " + trace_path);
                exit_code = 1;
            } else {
                std::cout << "\nWrote the last " << host.trace().size()
                          << " DDR commands (of "
                          << host.trace().recorded()
                          << " recorded) as a Chrome trace to "
                          << trace_path << "\n";
            }
        }
    }
    if (!report_path.empty()) {
        ExperimentReport report("reverse_engineer");
        report.setConfig("module", Json(spec.name));
        report.setConfig("fast", Json(fast));
        report.setResult("trr_to_ref_period", Json(profile.trrToRefPeriod));
        report.setResult("neighbours_refreshed",
                         Json(profile.neighborsRefreshed));
        report.setResult("detection",
                         Json(detectionTypeName(profile.detection)));
        report.setResult("aggressor_capacity",
                         Json(profile.aggressorCapacity));
        report.setResult("per_bank", Json(profile.perBank));
        report.setResult("summary", Json(profile.summary()));
        if (profile_enabled && !profile_tree.empty())
            report.attachProfile(profile_tree);
        if (!report.writeFile(report_path))
            exit_code = 1;
        else
            std::cout << "Wrote report to " << report_path << "\n";
    }
    return exit_code;
}
