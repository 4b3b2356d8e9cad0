#include "check/fuzz_campaign.hh"

#include <algorithm>

#include "check/minimizer.hh"
#include "common/logging.hh"

namespace utrr
{

namespace
{

/**
 * Journal identity of the fuzz job body: every knob that changes what
 * job i computes for the same (seed, index). Folded into the campaign
 * content hash so a journal written under different fuzz or oracle
 * settings can never be resumed into this campaign.
 */
std::string
fuzzContentTag(const FuzzCampaignOptions &options)
{
    const FuzzConfig &f = options.fuzz;
    const OracleConfig &o = options.oracle;
    return logFmt(
        "fuzz:v1:", f.setupRows, ':', f.minOps, ':', f.maxOps, ':',
        f.maxBanks, ':', f.rowSpan, ':', f.hammerMin, ':', f.hammerMax,
        ':', f.refBurstMax, ':', f.waitMaxNs, ':', f.waitRefMaxNs, ':',
        f.longWaitChance, ':', f.longWaitRefNs, ':', f.maxEpilogueReads,
        ":oracle:", o.checkTiming, o.checkAccounting, o.checkDeterminism,
        ':', o.traceMargin, ':', o.maxViolationsPerOracle, ':',
        o.retention != nullptr ? "ret-override" : "ret-default");
}

} // namespace

FuzzCampaignResult
runFuzzCampaign(const ModuleSpec &spec,
                const FuzzCampaignOptions &options)
{
    FuzzCampaignResult result;
    result.programs = options.count;

    const ProgramFuzzer fuzzer(spec, options.fuzz);

    CampaignConfig campaign_cfg;
    campaign_cfg.jobs = options.jobs;
    campaign_cfg.seed = options.fuzzSeed;
    campaign_cfg.moduleSeed = options.oracle.moduleSeed;
    campaign_cfg.journalPath = options.journalPath;
    campaign_cfg.resume = options.resume;
    campaign_cfg.contentTag = fuzzContentTag(options);
    campaign_cfg.stopFlag = options.stopFlag;
    // Jobs never execute on the runner-provided module/host pair: the
    // oracle suite constructs its own fresh pairs (two of them, for the
    // determinism check). Tracing on the runner side stays off.

    std::vector<ModuleSpec> specs(
        static_cast<std::size_t>(options.count), spec);

    const JobFn job = [&](JobContext &ctx) {
        const Program program =
            fuzzer.generate(options.fuzzSeed, ctx.index);
        const OracleReport report =
            runOracleSuite(ctx.spec, program, options.oracle);

        ctx.metrics.counter("fuzz.programs").inc();
        ctx.metrics.counter("fuzz.ops").inc(program.size());
        ctx.metrics.counter("fuzz.reads").inc(report.reads);
        if (!report.clean())
            ctx.metrics.counter("fuzz.violating_programs").inc();
        ctx.metrics.counter("fuzz.violations")
            .inc(report.violations.size());

        JobOutcome outcome;
        outcome.ok = report.clean();
        Json verdict = Json::object();
        verdict["index"] = Json(ctx.index);
        verdict["ops"] = Json(static_cast<std::uint64_t>(program.size()));
        verdict["reads"] =
            Json(static_cast<std::uint64_t>(report.reads));
        verdict["end_ns"] = Json(static_cast<std::int64_t>(
            report.endTime));
        verdict["trace_hash"] = Json(report.traceHash);
        verdict["read_hash"] = Json(report.readHash);
        Json violations = Json::array();
        for (const OracleViolation &v : report.violations) {
            Json entry = Json::object();
            entry["oracle"] = Json(v.oracle);
            entry["detail"] = Json(v.detail);
            violations.push(std::move(entry));
        }
        verdict["violations"] = std::move(violations);
        outcome.verdict = std::move(verdict);
        return outcome;
    };

    const CampaignRunner runner(campaign_cfg);
    result.campaign = runner.run(specs, job);

    // Re-derive the violating programs serially. Every program is a pure
    // function of (fuzzSeed, index), so this is exact, regardless of how
    // the parallel phase was scheduled.
    for (const ModuleResult &module_result : result.campaign.modules) {
        // Pending slots (stop-interrupted / never scheduled) carry no
        // verdict at all — they are resumable, not violating.
        if (!module_result.completed || module_result.ok)
            continue;
        ++result.violating;
        if (result.findings.size() >= options.maxFindings)
            continue;

        FuzzFinding finding;
        finding.index = module_result.index;
        finding.program =
            fuzzer.generate(options.fuzzSeed, module_result.index);

        const OracleReport report =
            runOracleSuite(spec, finding.program, options.oracle);
        if (report.clean())
            continue; // job failed for a non-oracle reason (watchdog)
        finding.oracle = report.violations.front().oracle;
        finding.detail = report.violations.front().detail;
        for (const OracleViolation &v : report.violations) {
            if (std::find(finding.oracles.begin(),
                          finding.oracles.end(),
                          v.oracle) == finding.oracles.end())
                finding.oracles.push_back(v.oracle);
        }

        finding.minimized = finding.program;
        if (options.minimize) {
            const MinimizeResult minimized = minimizeProgram(
                spec, finding.program, [&](const Program &candidate) {
                    return !runOracleSuite(spec, candidate,
                                           options.oracle)
                                .clean();
                });
            finding.minimized = minimized.program;
            finding.minimizeEvaluations = minimized.evaluations;
        }
        result.findings.push_back(std::move(finding));
    }

    return result;
}

} // namespace utrr
