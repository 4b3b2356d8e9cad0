/**
 * @file
 * Write-ahead journal tests: CRC-32C vectors, durable-file helpers,
 * exact ModuleResult round trips, torn-tail / corrupt-record /
 * foreign-campaign tolerance of the loader, campaign content-hash
 * sensitivity, and the runner-level resume contract (journaled jobs
 * are not re-executed; the merged outcome is bit-identical to an
 * uninterrupted run; quarantined jobs re-attempt with fresh salts).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/checksum.hh"
#include "common/durable_file.hh"
#include "common/logging.hh"
#include "obs/report.hh"
#include "dram/module_spec.hh"
#include "fault/io_fault.hh"
#include "runner/campaign.hh"
#include "runner/cancellation.hh"
#include "runner/journal.hh"

namespace utrr
{
namespace
{

/** Unique-ish scratch path under the build tree's cwd. */
std::string
scratchPath(const std::string &stem)
{
    return "journal_test_" + stem + ".jsonl";
}

void
removeFile(const std::string &path)
{
    std::remove(path.c_str());
}

/** A small synthetic campaign: cheap, deterministic, journal-friendly. */
std::vector<ModuleSpec>
tinySpecs(int count = 4)
{
    std::vector<ModuleSpec> specs;
    for (int i = 0; i < count; ++i) {
        ModuleSpec spec = *findModuleSpec("A0");
        spec.name = logFmt("J", i);
        spec.rowsPerBank = 1024;
        specs.push_back(spec);
    }
    return specs;
}

/**
 * Deterministic job body: a little simulated traffic, metrics in both
 * families, and an RNG-derived verdict — enough surface for the
 * byte-equality assertions to mean something.
 */
JobFn
syntheticJob()
{
    return [](JobContext &ctx) {
        ctx.host.writeRow(0, 1, DataPattern::allOnes());
        ctx.host.refBurst(2);
        ctx.metrics.counter("job.runs").inc();
        ctx.metrics.gauge("job.noise").set(ctx.rng.uniform());
        ctx.metrics.counter("job.draws")
            .inc(static_cast<std::uint64_t>(ctx.rng.uniformInt(0, 7)));
        JobOutcome outcome;
        outcome.ok = true;
        Json verdict = Json::object();
        verdict["index"] = Json(ctx.index);
        verdict["draw"] = Json(ctx.rng.next());
        verdict["module"] = Json(ctx.spec.name);
        outcome.verdict = std::move(verdict);
        return outcome;
    };
}

/** Merged-metrics bytes; a registry holds no wall-clock value. */
std::string
deterministicMetrics(const CampaignResult &result)
{
    return result.merged.toJson().dump();
}

CampaignConfig
journalConfig(const std::string &path)
{
    CampaignConfig cfg;
    cfg.jobs = 1;
    cfg.seed = 7;
    cfg.journalPath = path;
    cfg.contentTag = "test:synthetic:v1";
    return cfg;
}

TEST(Crc32c, MatchesKnownVectors)
{
    // RFC 3720 (iSCSI) CRC-32C check value.
    EXPECT_EQ(crc32c("123456789"), 0xe3069283u);
    EXPECT_EQ(crc32c(""), 0u);
    EXPECT_EQ(crc32cHex("123456789"), "e3069283");
}

TEST(Crc32c, HexParsesRoundTripAndRejectsJunk)
{
    std::uint32_t value = 0;
    ASSERT_TRUE(parseCrc32cHex("e3069283", value));
    EXPECT_EQ(value, 0xe3069283u);
    EXPECT_FALSE(parseCrc32cHex("e306928", value));   // short
    EXPECT_FALSE(parseCrc32cHex("e30692834", value)); // long
    EXPECT_FALSE(parseCrc32cHex("e30692g3", value));  // non-hex
}

TEST(DurableFile, AppendTruncateAndReadBack)
{
    const std::string path = scratchPath("durable");
    removeFile(path);
    {
        DurableAppendFile file;
        ASSERT_TRUE(file.open(path, /*truncate=*/true,
                              /*fsync_each_record=*/false));
        ASSERT_TRUE(file.append("one\n"));
        ASSERT_TRUE(file.append("two\n"));
        ASSERT_TRUE(file.sync());
    }
    std::string contents;
    ASSERT_TRUE(readFileToString(path, contents));
    EXPECT_EQ(contents, "one\ntwo\n");

    // Re-open without truncation appends; with truncation restarts.
    {
        DurableAppendFile file;
        ASSERT_TRUE(file.open(path, /*truncate=*/false, false));
        ASSERT_TRUE(file.append("three\n"));
    }
    ASSERT_TRUE(readFileToString(path, contents));
    EXPECT_EQ(contents, "one\ntwo\nthree\n");
    {
        DurableAppendFile file;
        ASSERT_TRUE(file.open(path, /*truncate=*/true, false));
    }
    ASSERT_TRUE(readFileToString(path, contents));
    EXPECT_EQ(contents, "");
    removeFile(path);
}

TEST(DurableFile, AtomicReplaceInstallsFullContents)
{
    const std::string path = scratchPath("replace");
    removeFile(path);
    ASSERT_TRUE(atomicReplaceFile(path, "first"));
    std::string contents;
    ASSERT_TRUE(readFileToString(path, contents));
    EXPECT_EQ(contents, "first");
    ASSERT_TRUE(atomicReplaceFile(path, "second, longer than before"));
    ASSERT_TRUE(readFileToString(path, contents));
    EXPECT_EQ(contents, "second, longer than before");
    EXPECT_TRUE(fileExists(path));
    removeFile(path);
    EXPECT_FALSE(fileExists(path));
}

TEST(JournalRecord, ModuleResultRoundTripsExactly)
{
    ModuleResult original;
    original.module = "B7";
    original.index = 11;
    original.ok = true;
    original.quarantined = false;
    original.attempts = 2;
    original.error = "";
    original.wallMs = 123.456789;
    original.simNs = 987654321;
    original.traceRecorded = 42;
    original.faultStats.vrtFlips = 3;
    original.faultStats.droppedRefs = 1;
    Json verdict = Json::object();
    verdict["period"] = Json(std::int64_t{9});
    verdict["ratio"] = Json(0.1); // exercises %.17g round-trip
    original.verdict = std::move(verdict);
    original.metrics.counter("fuzz.ops").inc(1234);
    original.metrics.gauge("temp.scale").set(1.0000001);

    const Json body = moduleResultToJson(original);
    ModuleResult loaded;
    ASSERT_TRUE(moduleResultFromJson(body, loaded));

    EXPECT_TRUE(loaded.completed);
    EXPECT_TRUE(loaded.fromJournal);
    EXPECT_EQ(loaded.module, original.module);
    EXPECT_EQ(loaded.index, original.index);
    EXPECT_EQ(loaded.attempts, original.attempts);
    EXPECT_EQ(loaded.simNs, original.simNs);
    EXPECT_EQ(loaded.traceRecorded, original.traceRecorded);
    EXPECT_EQ(loaded.faultStats.vrtFlips, 3u);
    EXPECT_EQ(loaded.faultStats.droppedRefs, 1u);
    // Byte-exact where it matters: verdict and metrics snapshots.
    EXPECT_EQ(loaded.verdict.dump(), original.verdict.dump());
    EXPECT_EQ(loaded.metrics.toJson().dump(),
              original.metrics.toJson().dump());
    // And the serialization itself is stable under a second round trip.
    EXPECT_EQ(moduleResultToJson(loaded).dump(), body.dump());
}

TEST(JournalRecord, FromJsonRejectsMalformedBodies)
{
    ModuleResult out;
    EXPECT_FALSE(moduleResultFromJson(Json("not an object"), out));
    Json body = moduleResultToJson(ModuleResult{});
    Json missing = Json::object();
    for (const auto &[key, value] : body.members()) {
        if (key != "metrics")
            missing[key] = value;
    }
    EXPECT_FALSE(moduleResultFromJson(missing, out));
}

TEST(CampaignKey, SensitiveToEveryIdentityInput)
{
    const std::vector<ModuleSpec> specs = tinySpecs();
    CampaignConfig base = journalConfig("unused");
    const std::uint64_t k0 =
        CampaignKey::compute(base, specs).value();

    CampaignConfig seed = base;
    seed.seed += 1;
    EXPECT_NE(CampaignKey::compute(seed, specs).value(), k0);

    CampaignConfig module_seed = base;
    module_seed.moduleSeed += 1;
    EXPECT_NE(CampaignKey::compute(module_seed, specs).value(), k0);

    CampaignConfig tag = base;
    tag.contentTag = "test:synthetic:v2";
    EXPECT_NE(CampaignKey::compute(tag, specs).value(), k0);

    CampaignConfig faults = base;
    faults.faults.dropRefChance = 0.25;
    EXPECT_NE(CampaignKey::compute(faults, specs).value(), k0);

    CampaignConfig watchdog = base;
    watchdog.watchdogBudgetNs = 12345;
    EXPECT_NE(CampaignKey::compute(watchdog, specs).value(), k0);

    std::vector<ModuleSpec> renamed = specs;
    renamed[2].name = "Jx";
    EXPECT_NE(CampaignKey::compute(base, renamed).value(), k0);

    // But not to journal plumbing: path/resume/fsync are not identity.
    CampaignConfig plumbing = base;
    plumbing.journalPath = "elsewhere.jsonl";
    plumbing.resume = true;
    plumbing.journalFsync = false;
    EXPECT_EQ(CampaignKey::compute(plumbing, specs).value(), k0);

    // Per-job keys differ across jobs and campaigns.
    const CampaignKey key = CampaignKey::compute(base, specs);
    const CampaignKey other = CampaignKey::compute(seed, specs);
    EXPECT_NE(key.jobKey(specs[0], 0), key.jobKey(specs[1], 1));
    EXPECT_NE(key.jobKey(specs[0], 0), other.jobKey(specs[0], 0));
}

TEST(JournalFile, WriteThenLoadRecoversHeaderAndJobs)
{
    const std::string path = scratchPath("roundtrip");
    removeFile(path);
    const std::vector<ModuleSpec> specs = tinySpecs();
    const CampaignConfig cfg = journalConfig(path);
    const CampaignKey key = CampaignKey::compute(cfg, specs);

    JournalWriter writer;
    ASSERT_TRUE(writer.open(path, key, cfg, specs.size(),
                            /*append_existing=*/false));
    ModuleResult job;
    job.module = "J1";
    job.index = 1;
    job.ok = true;
    job.attempts = 1;
    ASSERT_TRUE(writer.append(key.jobKey(specs[1], 1), job));
    EXPECT_EQ(writer.recordsWritten(), 2u); // header + one job

    const JournalLoad load = loadJournal(path);
    EXPECT_TRUE(load.fileFound);
    EXPECT_TRUE(load.headerValid);
    EXPECT_EQ(load.headerCampaign, key.value());
    EXPECT_EQ(load.headerSeed, cfg.seed);
    EXPECT_EQ(load.headerJobsTotal, specs.size());
    ASSERT_EQ(load.jobs.size(), 1u);
    EXPECT_EQ(load.jobs[0].key, key.jobKey(specs[1], 1));
    EXPECT_EQ(load.jobs[0].result.module, "J1");
    EXPECT_EQ(load.corruptRecords, 0u);
    EXPECT_FALSE(load.tornTail);
    removeFile(path);
}

TEST(JournalFile, MissingFileReportsNotFound)
{
    const JournalLoad load = loadJournal("does_not_exist.jsonl");
    EXPECT_FALSE(load.fileFound);
    EXPECT_FALSE(load.headerValid);
    EXPECT_TRUE(load.jobs.empty());
}

TEST(JournalFile, TornTailIsDroppedWithoutPoisoningTheRest)
{
    const std::string path = scratchPath("torn");
    removeFile(path);
    const std::vector<ModuleSpec> specs = tinySpecs();
    const CampaignConfig cfg = journalConfig(path);
    const CampaignKey key = CampaignKey::compute(cfg, specs);
    {
        JournalWriter writer;
        ASSERT_TRUE(writer.open(path, key, cfg, specs.size(), false));
        for (std::uint64_t i = 0; i < 3; ++i) {
            ModuleResult job;
            job.module = specs[i].name;
            job.index = i;
            job.ok = true;
            ASSERT_TRUE(writer.append(key.jobKey(specs[i], i), job));
        }
    }
    std::string contents;
    ASSERT_TRUE(readFileToString(path, contents));
    // Tear the final record mid-line, exactly like a crash mid-write.
    ASSERT_TRUE(atomicReplaceFile(
        path, std::string_view(contents)
                  .substr(0, contents.size() - 25)));

    const JournalLoad load = loadJournal(path);
    EXPECT_TRUE(load.headerValid);
    EXPECT_TRUE(load.tornTail);
    EXPECT_EQ(load.corruptRecords, 0u);
    ASSERT_EQ(load.jobs.size(), 2u);
    EXPECT_EQ(load.jobs[0].result.module, "J0");
    EXPECT_EQ(load.jobs[1].result.module, "J1");
    removeFile(path);
}

TEST(JournalFile, CorruptMidFileRecordIsSkippedAndCounted)
{
    const std::string path = scratchPath("corrupt");
    removeFile(path);
    const std::vector<ModuleSpec> specs = tinySpecs();
    const CampaignConfig cfg = journalConfig(path);
    const CampaignKey key = CampaignKey::compute(cfg, specs);
    {
        JournalWriter writer;
        ASSERT_TRUE(writer.open(path, key, cfg, specs.size(), false));
        for (std::uint64_t i = 0; i < 3; ++i) {
            ModuleResult job;
            job.module = specs[i].name;
            job.index = i;
            job.ok = true;
            ASSERT_TRUE(writer.append(key.jobKey(specs[i], i), job));
        }
    }
    std::string contents;
    ASSERT_TRUE(readFileToString(path, contents));
    // Flip one byte inside the *second* job record's body: its CRC no
    // longer matches, the other records are untouched.
    std::vector<std::size_t> line_starts{0};
    for (std::size_t i = 0; i < contents.size(); ++i) {
        if (contents[i] == '\n')
            line_starts.push_back(i + 1);
    }
    ASSERT_GE(line_starts.size(), 4u);
    const std::size_t victim = line_starts[2] + 40;
    contents[victim] = contents[victim] == 'x' ? 'y' : 'x';
    ASSERT_TRUE(atomicReplaceFile(path, contents));

    const JournalLoad load = loadJournal(path);
    EXPECT_TRUE(load.headerValid);
    EXPECT_EQ(load.corruptRecords, 1u);
    EXPECT_FALSE(load.tornTail);
    ASSERT_EQ(load.jobs.size(), 2u);
    EXPECT_EQ(load.jobs[0].result.module, "J0");
    EXPECT_EQ(load.jobs[1].result.module, "J2");
    removeFile(path);
}

TEST(JournalWriteFaultSpec, ParsesRecordAndByteOffsets)
{
    auto fault = JournalWriteFault::parse("3");
    ASSERT_TRUE(fault.has_value());
    EXPECT_EQ(fault->crashAtRecord, 3);
    EXPECT_EQ(fault->partialBytes, -1);
    EXPECT_TRUE(fault->armed());
    EXPECT_TRUE(fault->firesAt(3));
    EXPECT_FALSE(fault->firesAt(2));

    fault = JournalWriteFault::parse("5:17");
    ASSERT_TRUE(fault.has_value());
    EXPECT_EQ(fault->crashAtRecord, 5);
    EXPECT_EQ(fault->partialBytes, 17);

    EXPECT_FALSE(JournalWriteFault::parse("").has_value());
    EXPECT_FALSE(JournalWriteFault::parse("x").has_value());
    EXPECT_FALSE(JournalWriteFault::parse("3:").has_value());
}

// --- runner-level resume contract -----------------------------------

/** Count how many times the job body actually executed. */
JobFn
countingJob(std::atomic<int> &executions)
{
    JobFn inner = syntheticJob();
    return [&executions, inner](JobContext &ctx) {
        executions.fetch_add(1, std::memory_order_relaxed);
        return inner(ctx);
    };
}

TEST(CampaignResume, CompletedJournalRunsNothingAndMatchesByteForByte)
{
    const std::string path = scratchPath("resume_full");
    removeFile(path);
    const std::vector<ModuleSpec> specs = tinySpecs();
    CampaignConfig cfg = journalConfig(path);
    cfg.journalFsync = false; // keep the unit test fast

    std::atomic<int> executions{0};
    const CampaignRunner runner(cfg);
    const CampaignResult clean =
        runner.run(specs, countingJob(executions));
    EXPECT_EQ(executions.load(), 4);
    EXPECT_TRUE(clean.allOk());
    EXPECT_FALSE(clean.interrupted);
    EXPECT_EQ(clean.scheduledJobs, 4u);

    cfg.resume = true;
    const CampaignRunner resumer(cfg);
    const CampaignResult resumed =
        resumer.run(specs, countingJob(executions));
    EXPECT_EQ(executions.load(), 4) << "journaled jobs must not re-run";
    EXPECT_EQ(resumed.journaledJobs, 4u);
    EXPECT_EQ(resumed.scheduledJobs, 0u);
    EXPECT_TRUE(resumed.allOk());
    EXPECT_EQ(resumed.verdicts().dump(), clean.verdicts().dump());
    EXPECT_EQ(deterministicMetrics(resumed), deterministicMetrics(clean));
    removeFile(path);
}

TEST(CampaignResume, PartialJournalRunsOnlyMissingJobs)
{
    const std::string path = scratchPath("resume_partial");
    removeFile(path);
    const std::vector<ModuleSpec> specs = tinySpecs();
    CampaignConfig cfg = journalConfig(path);
    cfg.journalFsync = false;

    std::atomic<int> executions{0};
    const CampaignRunner runner(cfg);
    const CampaignResult clean =
        runner.run(specs, countingJob(executions));
    ASSERT_TRUE(clean.allOk());

    // Drop the records for jobs 1 and 3, as if the campaign had been
    // killed before they finished.
    std::string contents;
    ASSERT_TRUE(readFileToString(path, contents));
    std::istringstream lines(contents);
    std::string line;
    std::string kept;
    int line_no = 0;
    while (std::getline(lines, line)) {
        if (line_no != 2 && line_no != 4)
            kept += line + "\n";
        ++line_no;
    }
    ASSERT_TRUE(atomicReplaceFile(path, kept));

    executions.store(0);
    cfg.resume = true;
    const CampaignRunner resumer(cfg);
    const CampaignResult resumed =
        resumer.run(specs, countingJob(executions));
    EXPECT_EQ(executions.load(), 2) << "only the missing jobs re-run";
    EXPECT_EQ(resumed.journaledJobs, 2u);
    EXPECT_EQ(resumed.scheduledJobs, 2u);
    EXPECT_TRUE(resumed.allOk());
    EXPECT_EQ(resumed.verdicts().dump(), clean.verdicts().dump());
    EXPECT_EQ(deterministicMetrics(resumed), deterministicMetrics(clean));
    removeFile(path);
}

TEST(CampaignResume, ForeignJournalIsRotatedAsideAndIgnored)
{
    const std::string path = scratchPath("resume_foreign");
    const std::string stale = path + ".stale";
    removeFile(path);
    removeFile(stale);
    const std::vector<ModuleSpec> specs = tinySpecs();
    CampaignConfig cfg = journalConfig(path);
    cfg.journalFsync = false;

    std::atomic<int> executions{0};
    const CampaignRunner runner(cfg);
    (void)runner.run(specs, countingJob(executions));
    ASSERT_EQ(executions.load(), 4);

    // Same journal, different campaign seed: every record is foreign.
    CampaignConfig other = cfg;
    other.seed += 1;
    other.resume = true;
    const CampaignRunner other_runner(other);
    const CampaignResult result =
        other_runner.run(specs, countingJob(executions));
    EXPECT_EQ(executions.load(), 8) << "nothing may resume across seeds";
    EXPECT_EQ(result.journaledJobs, 0u);
    EXPECT_TRUE(fileExists(stale)) << "old journal rotated, not lost";
    removeFile(path);
    removeFile(stale);
}

// A journal written under an older schema (whose job records carried
// wall-clock histograms) fails the header check: --resume rotates it
// aside and re-runs every job instead of splicing its records in.
TEST(CampaignResume, OlderSchemaJournalIsRotatedAside)
{
    const std::string path = scratchPath("resume_schema1");
    const std::string stale = path + ".stale";
    removeFile(path);
    removeFile(stale);
    const std::vector<ModuleSpec> specs = tinySpecs();
    CampaignConfig cfg = journalConfig(path);
    cfg.journalFsync = false;

    std::atomic<int> executions{0};
    (void)CampaignRunner(cfg).run(specs, countingJob(executions));
    ASSERT_EQ(executions.load(), 4);

    // Rewrite record 0 as a schema-1 header with a valid checksum.
    std::string contents;
    ASSERT_TRUE(readFileToString(path, contents));
    const std::size_t eol = contents.find('\n');
    ASSERT_NE(eol, std::string::npos);
    std::optional<Json> frame = Json::parse(contents.substr(0, eol));
    ASSERT_TRUE(frame.has_value());
    Json body = *frame->find("body");
    ASSERT_EQ(body.find("schema")->asInt(), kJournalSchemaVersion);
    body["schema"] = Json(1);
    Json old_frame = Json::object();
    old_frame["crc"] = Json(crc32cHex(body.dump()));
    old_frame["body"] = std::move(body);
    ASSERT_TRUE(atomicReplaceFile(
        path, old_frame.dump() + contents.substr(eol)));

    const JournalLoad load = loadJournal(path);
    EXPECT_TRUE(load.fileFound);
    EXPECT_FALSE(load.headerValid);
    EXPECT_EQ(load.corruptRecords, 1u);

    cfg.resume = true;
    const CampaignResult result =
        CampaignRunner(cfg).run(specs, countingJob(executions));
    EXPECT_EQ(executions.load(), 8) << "no record of the old schema reused";
    EXPECT_EQ(result.journaledJobs, 0u);
    EXPECT_TRUE(result.allOk());
    EXPECT_TRUE(fileExists(stale)) << "old journal rotated, not lost";
    removeFile(path);
    removeFile(stale);
}

TEST(CampaignResume, QuarantinedJobReattemptsWithFreshSalts)
{
    const std::string path = scratchPath("resume_quarantine");
    removeFile(path);
    std::vector<ModuleSpec> specs = tinySpecs(2);
    CampaignConfig cfg = journalConfig(path);
    cfg.journalFsync = false;
    cfg.watchdogBudgetNs = 1'000'000; // 1 ms of simulated time
    cfg.maxWatchdogRetries = 1;       // two attempts per run

    // Job J1 hangs (waits past the watchdog) until the effective
    // attempt counter reaches 2 — i.e. it can only ever succeed on a
    // *resumed* ladder, never within the first run's two attempts.
    const JobFn job = [](JobContext &ctx) {
        if (ctx.spec.name == "J1" && ctx.attempt < 2)
            ctx.host.wait(2'000'000);
        JobOutcome outcome;
        outcome.ok = true;
        Json verdict = Json::object();
        verdict["attempt"] = Json(ctx.attempt);
        outcome.verdict = std::move(verdict);
        return outcome;
    };

    const CampaignRunner runner(cfg);
    const CampaignResult first = runner.run(specs, job);
    EXPECT_EQ(first.quarantinedJobs, 1u);
    EXPECT_FALSE(first.allOk());
    ASSERT_EQ(first.modules.size(), 2u);
    EXPECT_TRUE(first.modules[1].quarantined);
    EXPECT_EQ(first.modules[1].attempts, 2);

    cfg.resume = true;
    const CampaignRunner resumer(cfg);
    const CampaignResult second = resumer.run(specs, job);
    // The quarantined job was NOT treated as complete: it re-ran, with
    // the ladder continued (attempts 2..) and fresh salts, and now
    // succeeds at effective attempt 2.
    EXPECT_EQ(second.journaledJobs, 1u) << "only the ok job restores";
    EXPECT_EQ(second.scheduledJobs, 1u);
    EXPECT_TRUE(second.allOk());
    EXPECT_EQ(second.modules[1].attempts, 3);
    EXPECT_FALSE(second.modules[1].quarantined);
    EXPECT_EQ(second.modules[1].verdict.find("attempt")->asInt(), 2);
    removeFile(path);
}

TEST(Cancellation, StopFlagMakesCampaignResumable)
{
    const std::string path = scratchPath("cancel");
    removeFile(path);
    resetStopFlag();
    const std::vector<ModuleSpec> specs = tinySpecs();
    CampaignConfig cfg = journalConfig(path);
    cfg.journalFsync = false;
    cfg.stopFlag = stopFlagPtr();

    // Request the stop from inside job 1: jobs 2 and 3 are never
    // started, job 1 itself still completes (the stop lands between
    // its commands only on the *next* job's poll in the serial path —
    // the job body here finishes without issuing further commands).
    std::atomic<int> executions{0};
    JobFn inner = syntheticJob();
    const JobFn job = [&](JobContext &ctx) {
        executions.fetch_add(1, std::memory_order_relaxed);
        // Run the body first: the stop must land *after* this job's
        // host commands, or the job itself would be abandoned at the
        // host poll point and stay pending.
        JobOutcome outcome = inner(ctx);
        if (ctx.index == 1)
            requestStop();
        return outcome;
    };

    const CampaignRunner runner(cfg);
    const CampaignResult interrupted = runner.run(specs, job);
    EXPECT_TRUE(interrupted.interrupted);
    EXPECT_EQ(interrupted.pendingJobs, 2u);
    EXPECT_FALSE(interrupted.allOk());
    EXPECT_EQ(executions.load(), 2);

    // The report of the interrupted run says so, resumably.
    ExperimentReport partial("cancel_test");
    interrupted.fillReport(partial);
    ASSERT_NE(partial.json().find("results"), nullptr);
    const Json *flag =
        partial.json().find("results")->find("interrupted");
    ASSERT_NE(flag, nullptr);
    EXPECT_TRUE(flag->asBool());

    // Resume after clearing the stop: finishes the pending two jobs
    // and matches a clean uninterrupted run byte-for-byte.
    resetStopFlag();
    CampaignConfig resume_cfg = cfg;
    resume_cfg.resume = true;
    const CampaignRunner resumer(resume_cfg);
    const CampaignResult resumed = resumer.run(specs, job);
    EXPECT_EQ(resumed.journaledJobs, 2u);
    EXPECT_TRUE(resumed.allOk());

    removeFile(path);
    CampaignConfig clean_cfg = journalConfig("");
    clean_cfg.journalFsync = false;
    const CampaignRunner clean_runner(clean_cfg);
    const CampaignResult clean = clean_runner.run(specs, inner);
    EXPECT_EQ(resumed.verdicts().dump(), clean.verdicts().dump());
    EXPECT_EQ(deterministicMetrics(resumed), deterministicMetrics(clean));
    resetStopFlag();
}

TEST(Cancellation, SignalHandlerSetsTheStopFlag)
{
    resetStopFlag();
    ASSERT_TRUE(installStopSignalHandlers());
    EXPECT_FALSE(stopRequested());
    std::raise(SIGTERM);
    EXPECT_TRUE(stopRequested());
    resetStopFlag();
}

TEST(Cancellation, HostThrowsStopRequestedAtPollPoint)
{
    std::atomic<bool> stop{false};
    ModuleSpec spec = tinySpecs(1)[0];
    DramModule module(spec, 2021);
    SoftMcHost host(module);
    host.attachStopFlag(&stop);
    host.writeRow(0, 1, DataPattern::allOnes()); // flag clear: fine
    stop.store(true);
    EXPECT_THROW(host.readRow(0, 1), StopRequested);
}

} // namespace
} // namespace utrr
