/**
 * @file
 * Crash-recovery harness (DESIGN.md §14): a forked child runs a
 * journaled campaign with a planned SIGKILL at a chosen point of the
 * journal stream — after a record commits, halfway through a record's
 * bytes, even mid-header — then the parent resumes from the survivor
 * journal and asserts that the deterministic projection of the merged
 * report is byte-identical to an uninterrupted run, for both the
 * serial and the parallel scheduler.
 *
 * This is the in-process twin of scripts/crash_recovery_smoke.sh
 * (which drives the reverse_engineer binary the same way in CI).
 */

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/durable_file.hh"
#include "common/logging.hh"
#include "dram/module_spec.hh"
#include "fault/io_fault.hh"
#include "obs/report.hh"
#include "runner/campaign.hh"
#include "runner/journal.hh"

namespace utrr
{
namespace
{

std::string
scratchPath(const std::string &stem)
{
    return "recovery_test_" + stem + ".jsonl";
}

void
removeFile(const std::string &path)
{
    std::remove(path.c_str());
}

/** Six cheap deterministic jobs with real simulated work. */
std::vector<ModuleSpec>
recoverySpecs()
{
    std::vector<ModuleSpec> specs;
    for (int i = 0; i < 6; ++i) {
        ModuleSpec spec = *findModuleSpec("A0");
        spec.name = logFmt("R", i);
        spec.rowsPerBank = 1024;
        specs.push_back(spec);
    }
    return specs;
}

JobFn
recoveryJob()
{
    return [](JobContext &ctx) {
        // A few commands so sim_ns, metrics and the verdict all carry
        // nontrivial, schedule-independent content.
        ctx.host.writeRow(0, 2, DataPattern::allZeros());
        ctx.host.hammer(0, 3, 64);
        ctx.host.refBurst(4);
        const RowReadout readout = ctx.host.readRow(0, 2);
        const int flips =
            readout.countFlipsVs(DataPattern::allZeros(), 2);
        ctx.metrics.counter("recovery.jobs").inc();
        ctx.metrics.counter("recovery.flips")
            .inc(static_cast<std::uint64_t>(flips));
        JobOutcome outcome;
        outcome.ok = true;
        Json verdict = Json::object();
        verdict["index"] = Json(ctx.index);
        verdict["flips"] = Json(static_cast<std::int64_t>(flips));
        verdict["draw"] = Json(ctx.rng.next());
        outcome.verdict = std::move(verdict);
        return outcome;
    };
}

CampaignConfig
recoveryConfig(int jobs, const std::string &journal)
{
    CampaignConfig cfg;
    cfg.jobs = jobs;
    cfg.seed = 99;
    cfg.journalPath = journal;
    cfg.journalFsync = false; // the SIGKILL arrives via the fault
                              // hook, which fsyncs its torn prefix
    cfg.contentTag = "test:recovery:v1";
    return cfg;
}

/** The byte-equality surface: deterministic projection of the report. */
std::string
projectedReport(const CampaignResult &result)
{
    ExperimentReport report("recovery");
    report.setSeed(99);
    result.fillReport(report);
    return deterministicProjection(report.json()).dump();
}

/**
 * Fork a child that runs the campaign with @p fault armed. Returns the
 * child's fate: died by the expected SIGKILL, or exited (status 42
 * means "campaign returned", i.e. the fault never fired).
 */
struct ChildFate
{
    bool signaled = false;
    int signal = 0;
    int exitStatus = -1;
};

ChildFate
runCrashingChild(const CampaignConfig &cfg,
                 const std::vector<ModuleSpec> &specs,
                 const JournalWriteFault &fault, bool via_env)
{
    const pid_t pid = fork();
    if (pid == 0) {
        // Child: arm the crash, run, and report survival via exit
        // status. _exit keeps gtest/atexit machinery out of the child.
        CampaignConfig child_cfg = cfg;
        if (via_env) {
            const std::string spec_text =
                std::to_string(fault.crashAtRecord) +
                (fault.partialBytes >= 0
                     ? ":" + std::to_string(fault.partialBytes)
                     : "");
            ::setenv("UTRR_JOURNAL_CRASH", spec_text.c_str(), 1);
        } else {
            child_cfg.journalFault = fault;
        }
        const CampaignRunner runner(child_cfg);
        (void)runner.run(specs, recoveryJob());
        ::_exit(42);
    }
    ChildFate fate;
    if (pid < 0)
        return fate; // fork failed; caller's assertions will flag it
    int status = 0;
    ::waitpid(pid, &status, 0);
    fate.signaled = WIFSIGNALED(status);
    fate.signal = fate.signaled ? WTERMSIG(status) : 0;
    fate.exitStatus = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return fate;
}

/**
 * The harness proper: SIGKILL the campaign at journal record
 * @p crash_at (optionally mid-record after @p partial_bytes), resume,
 * and require the resumed report to match the clean reference
 * byte-for-byte.
 */
void
crashResumeAndCompare(int jobs, std::int64_t crash_at,
                      std::int64_t partial_bytes, bool via_env,
                      const std::string &tag)
{
    const std::string journal = scratchPath(tag);
    removeFile(journal);
    removeFile(journal + ".stale");
    const std::vector<ModuleSpec> specs = recoverySpecs();

    // Clean reference: same campaign, journaling off.
    CampaignConfig clean_cfg = recoveryConfig(jobs, "");
    const CampaignRunner clean_runner(clean_cfg);
    const std::string reference =
        projectedReport(clean_runner.run(specs, recoveryJob()));

    JournalWriteFault fault;
    fault.crashAtRecord = crash_at;
    fault.partialBytes = partial_bytes;
    const ChildFate fate = runCrashingChild(
        recoveryConfig(jobs, journal), specs, fault, via_env);
    ASSERT_TRUE(fate.signaled)
        << "child exited with status " << fate.exitStatus
        << " instead of dying at journal record " << crash_at;
    ASSERT_EQ(fate.signal, SIGKILL);

    CampaignConfig resume_cfg = recoveryConfig(jobs, journal);
    resume_cfg.resume = true;
    const CampaignRunner resumer(resume_cfg);
    const CampaignResult resumed = resumer.run(specs, recoveryJob());
    EXPECT_TRUE(resumed.allOk());
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.journaledJobs + resumed.scheduledJobs,
              specs.size());
    EXPECT_EQ(projectedReport(resumed), reference)
        << "resume after SIGKILL at record " << crash_at
        << " diverged from the uninterrupted run";

    removeFile(journal);
    removeFile(journal + ".stale");
}

TEST(CrashRecovery, SerialKillAfterFirstJobCommits)
{
    // Record 0 is the header; record 2 = second job committed.
    crashResumeAndCompare(1, 2, -1, false, "serial_r2");
}

TEST(CrashRecovery, SerialKillMidRecordLeavesRecoverableTornTail)
{
    const std::string journal = scratchPath("serial_torn");
    removeFile(journal);
    const std::vector<ModuleSpec> specs = recoverySpecs();

    JournalWriteFault fault;
    fault.crashAtRecord = 3;
    fault.partialBytes = 20; // tear the 4th record after 20 bytes
    const ChildFate fate = runCrashingChild(
        recoveryConfig(1, journal), specs, fault, false);
    ASSERT_TRUE(fate.signaled);

    // The survivor journal must show exactly the planned tear.
    const JournalLoad load = loadJournal(journal);
    EXPECT_TRUE(load.headerValid);
    EXPECT_TRUE(load.tornTail);
    EXPECT_EQ(load.jobs.size(), 2u);

    CampaignConfig resume_cfg = recoveryConfig(1, journal);
    resume_cfg.resume = true;
    const CampaignRunner resumer(resume_cfg);
    const CampaignResult resumed = resumer.run(specs, recoveryJob());
    EXPECT_TRUE(resumed.journalTornTail);
    EXPECT_EQ(resumed.journaledJobs, 2u);
    EXPECT_TRUE(resumed.allOk());

    CampaignConfig clean_cfg = recoveryConfig(1, "");
    const CampaignRunner clean_runner(clean_cfg);
    EXPECT_EQ(projectedReport(resumed),
              projectedReport(clean_runner.run(specs, recoveryJob())));
    removeFile(journal);
}

TEST(CrashRecovery, SerialKillMidHeaderFallsBackToFreshRun)
{
    // Dying 10 bytes into the *header* leaves a journal with no valid
    // campaign record at all: resume must rotate it aside and rerun
    // everything — and still match the clean bytes.
    crashResumeAndCompare(1, 0, 10, false, "serial_header");
}

TEST(CrashRecovery, ParallelKillAtEveryEarlyRecord)
{
    // jobs=4: the pool schedules nondeterministically, so which jobs
    // are journaled at the kill point varies — the resumed report must
    // match the reference regardless.
    for (std::int64_t crash_at = 1; crash_at <= 4; ++crash_at) {
        crashResumeAndCompare(4, crash_at, -1, false,
                              "par_r" + std::to_string(crash_at));
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(CrashRecovery, ParallelKillMidRecord)
{
    crashResumeAndCompare(4, 3, 25, false, "par_torn");
}

TEST(CrashRecovery, EnvVarArmsTheCrashExactlyLikeTheConfigHook)
{
    // UTRR_JOURNAL_CRASH is how the CI smoke script arms the crash in
    // an unmodified binary; it must behave exactly like the config
    // hook (the child sets the variable after fork, so the parent's
    // environment is untouched).
    crashResumeAndCompare(1, 2, 15, true, "env_armed");
}

TEST(CrashRecovery, ResumeOfACompletedJournalIsANoOpReplay)
{
    // No crash at all: run to completion, then "resume" — everything
    // restores from the journal and the bytes still match.
    const std::string journal = scratchPath("noop");
    removeFile(journal);
    const std::vector<ModuleSpec> specs = recoverySpecs();
    CampaignConfig cfg = recoveryConfig(1, journal);
    const CampaignRunner runner(cfg);
    const std::string reference =
        projectedReport(runner.run(specs, recoveryJob()));

    cfg.resume = true;
    const CampaignRunner resumer(cfg);
    const CampaignResult resumed = resumer.run(specs, recoveryJob());
    EXPECT_EQ(resumed.journaledJobs, specs.size());
    EXPECT_EQ(resumed.scheduledJobs, 0u);
    EXPECT_EQ(projectedReport(resumed), reference);
    removeFile(journal);
}

} // namespace
} // namespace utrr
