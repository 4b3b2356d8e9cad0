/**
 * @file
 * Campaign-runner tests: the serial-vs-parallel equivalence contract
 * (bit-identical verdicts and per-module metric registries for any
 * worker count, fault-free and under chaos rates), watchdog
 * retry/quarantine semantics, and the full 45-module battery
 * equivalence at --jobs 8.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "fault/fault_injector.hh"
#include "runner/reveng_job.hh"

namespace utrr
{
namespace
{

/**
 * One module of every TRR version in Table 1. Full-size specs: a
 * module shrunk to a few thousand rows no longer contains any
 * RRR-RRR retention group, which the period experiments need.
 */
std::vector<ModuleSpec>
equivalenceSubset()
{
    std::vector<ModuleSpec> specs;
    for (const char *name :
         {"A5", "A13", "B2", "B10", "B14", "C4", "C10", "C13"})
        specs.push_back(*findModuleSpec(name));
    return specs;
}

/**
 * Cheaper than the battery config (the suite re-identifies each
 * subset module four times): narrower scout windows and fewer
 * iterations, still enough for correct fault-free identification.
 */
IdentifyJobConfig
subsetIdentifyConfig(bool chaos)
{
    IdentifyJobConfig config =
        chaos ? IdentifyJobConfig::chaos() : IdentifyJobConfig::battery();
    config.reveng.scoutRowEnd = 2 * 1024;
    config.reveng.wideScoutRowEnd = 16 * 1024;
    config.reveng.consistencyChecks = 8;
    config.reveng.periodIterations = chaos ? 24 : 32;
    config.reveng.revalidateChecks = chaos ? 4 : config.reveng.revalidateChecks;
    return config;
}

/** Per-module registry dumps, keyed by module name (order-free). */
std::map<std::string, std::string>
registryDumps(const CampaignResult &result)
{
    std::map<std::string, std::string> out;
    for (const ModuleResult &m : result.modules)
        out[m.module] = m.metrics.toJson().dump();
    return out;
}

void
expectEquivalent(const CampaignResult &serial,
                 const CampaignResult &parallel)
{
    // Byte-identical verdict payloads...
    EXPECT_EQ(serial.verdicts().dump(1), parallel.verdicts().dump(1));
    // ...and identical per-module registries, counters and gauges
    // alike: a registry holds no wall-clock value.
    EXPECT_EQ(registryDumps(serial), registryDumps(parallel));
    EXPECT_EQ(serial.watchdogRetries, parallel.watchdogRetries);
    EXPECT_EQ(serial.quarantinedJobs, parallel.quarantinedJobs);
    EXPECT_EQ(serial.failedJobs, parallel.failedJobs);
}

TEST(RunnerEquivalence, SerialAndParallelBatteryAreBitIdentical)
{
    const std::vector<ModuleSpec> specs = equivalenceSubset();
    const JobFn job = makeIdentifyJob(subsetIdentifyConfig(false));

    CampaignConfig config;
    config.seed = 7;
    config.jobs = 1;
    const CampaignResult serial = CampaignRunner(config).run(specs, job);
    config.jobs = 4;
    const CampaignResult parallel =
        CampaignRunner(config).run(specs, job);

    ASSERT_EQ(serial.modules.size(), specs.size());
    EXPECT_EQ(serial.jobsUsed, 1);
    EXPECT_EQ(parallel.jobsUsed, 4);
    // Fault-free identification must also be *correct* on every
    // module of the subset, not merely reproducible.
    EXPECT_TRUE(serial.allOk());
    expectEquivalent(serial, parallel);
}

TEST(RunnerEquivalence, ChaosRatesStayBitIdenticalAcrossWorkerCounts)
{
    const std::vector<ModuleSpec> specs = equivalenceSubset();
    const JobFn job = makeIdentifyJob(subsetIdentifyConfig(true));

    CampaignConfig config;
    config.seed = 11;
    config.faults = FaultConfig::chaosDefaults();
    config.jobs = 1;
    const CampaignResult serial = CampaignRunner(config).run(specs, job);
    config.jobs = 4;
    const CampaignResult parallel =
        CampaignRunner(config).run(specs, job);

    // Under injection the verdicts need not all be
    // correct — the contract under test is scheduling-independence.
    expectEquivalent(serial, parallel);
    // The chaos rates really were active and identically replayed.
    std::uint64_t serial_faults = 0;
    for (const ModuleResult &m : serial.modules)
        serial_faults += m.faultStats.vrtFlips + m.faultStats.noiseBits +
            m.faultStats.jitteredRefs + m.faultStats.droppedCommands();
    EXPECT_GT(serial_faults, 0u);
    EXPECT_EQ(serial.faultTotals.droppedCommands(),
              parallel.faultTotals.droppedCommands());
    EXPECT_EQ(serial.faultTotals.vrtFlips, parallel.faultTotals.vrtFlips);
}

/**
 * The full 45-module Table-1 battery: bit-identical at --jobs 1 and
 * --jobs 8. The job is a lightweight substrate exercise (hammer, REF,
 * read-back flip count, job-RNG draw) rather than a full
 * identification so the whole battery stays test-suite fast while
 * still touching module physics, TRR, metrics and the job RNG.
 */
TEST(RunnerEquivalence, FullBattery45ModulesJobs1VsJobs8)
{
    const std::vector<ModuleSpec> &specs = allModuleSpecs();
    ASSERT_EQ(specs.size(), 45u);

    const JobFn job = [](JobContext &ctx) {
        const Row anchor = static_cast<Row>(
            ctx.rng.uniformInt(64, ctx.spec.rowsPerBank - 64));
        ctx.host.writeRow(0, anchor, DataPattern::checkerboard());
        ctx.host.hammerInterleaved({{0, anchor - 1}, {0, anchor + 1}},
                                   {3'000, 3'000});
        ctx.host.refBurst(ctx.spec.traits().trrToRefPeriod + 1);
        const int flips = ctx.host.readRow(0, anchor).countFlipsVs(
            DataPattern::checkerboard(), anchor);
        ctx.metrics.counter("job.flips")
            .inc(static_cast<std::uint64_t>(flips));

        JobOutcome out;
        out.ok = true;
        Json verdict = Json::object();
        verdict["module"] = Json(ctx.spec.name);
        verdict["anchor"] = Json(static_cast<std::int64_t>(anchor));
        verdict["flips"] = Json(flips);
        verdict["acts"] = Json(ctx.host.actCount());
        verdict["rng_probe"] = Json(ctx.rng.next());
        out.verdict = std::move(verdict);
        return out;
    };

    CampaignConfig config;
    config.seed = 2021;
    config.jobs = 1;
    const CampaignResult serial = CampaignRunner(config).run(specs, job);
    config.jobs = 8;
    const CampaignResult parallel =
        CampaignRunner(config).run(specs, job);

    ASSERT_EQ(serial.modules.size(), 45u);
    EXPECT_EQ(parallel.jobsUsed, 8);
    EXPECT_TRUE(serial.allOk());
    expectEquivalent(serial, parallel);
}

// ---------------------------------------------------------------------
// Watchdog retry and quarantine semantics.
// ---------------------------------------------------------------------

std::vector<ModuleSpec>
threeSmallModules()
{
    std::vector<ModuleSpec> specs;
    for (const char *name : {"A5", "B8", "C9"}) {
        ModuleSpec spec = *findModuleSpec(name);
        spec.rowsPerBank = 2 * 1024;
        spec.banks = 1;
        spec.remapsPerBank = 0;
        spec.scramble = RowScramble::kSequential;
        specs.push_back(spec);
    }
    return specs;
}

/** A job whose simulated time always overruns the campaign watchdog. */
JobOutcome
overrunWatchdog(JobContext &ctx)
{
    for (;;)
        ctx.host.waitWithRefresh(msToNs(100));
}

JobOutcome
trivialOkJob(JobContext &ctx)
{
    ctx.host.writeRow(0, 100, DataPattern::allOnes());
    JobOutcome out;
    out.ok = ctx.host.readRow(0, 100).countFlipsVs(
                 DataPattern::allOnes(), 100) == 0;
    Json verdict = Json::object();
    verdict["module"] = Json(ctx.spec.name);
    out.verdict = std::move(verdict);
    return out;
}

TEST(RunnerWatchdog, RetriesThenQuarantinesSickJobAndFinishesRest)
{
    const std::vector<ModuleSpec> specs = threeSmallModules();

    CampaignConfig config;
    config.jobs = 2;
    config.watchdogBudgetNs = msToNs(10);
    config.maxWatchdogRetries = 2;
    const JobFn job = [](JobContext &ctx) {
        if (ctx.spec.name == "B8")
            return overrunWatchdog(ctx);
        return trivialOkJob(ctx);
    };
    const CampaignResult result = CampaignRunner(config).run(specs, job);

    ASSERT_EQ(result.modules.size(), 3u);
    const ModuleResult &sick = result.modules[1];
    EXPECT_EQ(sick.module, "B8");
    EXPECT_FALSE(sick.ok);
    EXPECT_TRUE(sick.quarantined);
    EXPECT_EQ(sick.attempts, 3); // first try + 2 retries
    EXPECT_NE(sick.error.find("watchdog budget"), std::string::npos);

    // The rest of the campaign still completed, correctly.
    EXPECT_TRUE(result.modules[0].ok);
    EXPECT_TRUE(result.modules[2].ok);
    EXPECT_EQ(result.failedJobs, 1u);
    EXPECT_EQ(result.quarantinedJobs, 1u);
    EXPECT_EQ(result.watchdogRetries, 2u);
    EXPECT_EQ(
        result.merged.findCounter("campaign.watchdog_retries")->value,
        2u);
    EXPECT_EQ(result.merged.findCounter("campaign.quarantined")->value,
              1u);
}

TEST(RunnerWatchdog, RetryAttemptCanRecoverAndClearTheError)
{
    const std::vector<ModuleSpec> specs = threeSmallModules();

    CampaignConfig config;
    config.jobs = 1;
    config.watchdogBudgetNs = msToNs(10);
    config.maxWatchdogRetries = 2;
    const JobFn job = [](JobContext &ctx) {
        if (ctx.spec.name == "C9" && ctx.attempt == 0)
            return overrunWatchdog(ctx);
        return trivialOkJob(ctx);
    };
    const CampaignResult result = CampaignRunner(config).run(specs, job);

    const ModuleResult &flaky = result.modules[2];
    EXPECT_EQ(flaky.module, "C9");
    EXPECT_TRUE(flaky.ok);
    EXPECT_FALSE(flaky.quarantined);
    EXPECT_EQ(flaky.attempts, 2);
    EXPECT_TRUE(flaky.error.empty());
    EXPECT_EQ(result.watchdogRetries, 1u);
    EXPECT_TRUE(result.allOk());
}

TEST(RunnerWatchdog, NonWatchdogExceptionFailsWithoutRetry)
{
    const std::vector<ModuleSpec> specs = threeSmallModules();

    CampaignConfig config;
    config.jobs = 2;
    config.maxWatchdogRetries = 2;
    const JobFn job = [](JobContext &ctx) {
        if (ctx.spec.name == "A5")
            throw std::runtime_error("bad configuration");
        return trivialOkJob(ctx);
    };
    const CampaignResult result = CampaignRunner(config).run(specs, job);

    const ModuleResult &broken = result.modules[0];
    EXPECT_FALSE(broken.ok);
    EXPECT_FALSE(broken.quarantined);
    EXPECT_EQ(broken.attempts, 1);
    EXPECT_EQ(broken.error, "bad configuration");
    EXPECT_EQ(result.watchdogRetries, 0u);
    EXPECT_EQ(result.failedJobs, 1u);
}

// ---------------------------------------------------------------------
// Aggregation: merged metrics, trace counts and the report shape.
// ---------------------------------------------------------------------

TEST(RunnerAggregation, MergesPerModuleMetricsAndTraces)
{
    const std::vector<ModuleSpec> specs = threeSmallModules();

    CampaignConfig config;
    config.jobs = 3;
    config.traceCapacity = 256;
    const CampaignResult result =
        CampaignRunner(config).run(specs, trivialOkJob);

    // Per-module counters land under the "module.<name>." prefix.
    for (const ModuleResult &m : result.modules) {
        EXPECT_GT(m.traceRecorded, 0u) << m.module;
        const Counter *acts = result.merged.findCounter(
            "module." + m.module + ".dram.acts");
        ASSERT_NE(acts, nullptr) << m.module;
        EXPECT_GT(acts->value, 0u);
    }
    EXPECT_EQ(result.merged.findCounter("campaign.jobs")->value, 3u);
}

TEST(RunnerAggregation, FillReportProducesPerModuleRoundsAndRollups)
{
    const std::vector<ModuleSpec> specs = threeSmallModules();

    CampaignConfig config;
    config.jobs = 2;
    const CampaignResult result =
        CampaignRunner(config).run(specs, trivialOkJob);

    ExperimentReport report("runner_test");
    result.fillReport(report);
    const Json &root = report.json();
    ASSERT_NE(root.find("rounds"), nullptr);
    EXPECT_EQ(root.find("rounds")->size(), 3u);
    const Json *results = root.find("results");
    ASSERT_NE(results, nullptr);
    EXPECT_EQ(results->find("modules")->asInt(), 3);
    EXPECT_EQ(results->find("failures")->asInt(), 0);
    const Json *timing = root.find("timing");
    ASSERT_NE(timing, nullptr);
    EXPECT_GT(timing->find("sim_ns")->asInt(), 0);
}

} // namespace
} // namespace utrr
