/**
 * @file
 * Deterministic parallel campaign engine.
 *
 * A campaign is a batch of independent module jobs (the Table-1 shape:
 * one black-box experiment per DDR4 module). CampaignRunner executes
 * them on a fixed-size worker pool with these guarantees:
 *
 *  - **Isolation**: every job (and every retry attempt) gets a freshly
 *    constructed DramModule + SoftMcHost + FaultInjector + metrics
 *    registry + command trace. No simulator state is shared between
 *    jobs, so workers never need a lock on the hot path.
 *
 *  - **Determinism**: each job draws from an RNG forked off the
 *    campaign seed by module *name* (Rng::fork(name)), and the fault
 *    injector is seeded from (campaign seed, job index, attempt).
 *    Results are therefore bit-identical regardless of worker count or
 *    scheduling order — the property pinned by test_runner's
 *    serial-vs-parallel equivalence suite.
 *
 *  - **Bounded retry**: a job that dies with WatchdogTimeout is retried
 *    up to maxWatchdogRetries times with an attempt-salted RNG/fault
 *    stream; on exhaustion it is quarantined (reported, not fatal) and
 *    the rest of the campaign still completes.
 *
 *  - **Order-independent aggregation**: per-job verdicts, metric
 *    registries, trace buffers and fault tallies are captured into a
 *    results slot owned by that job alone, then merged single-threaded
 *    after the pool joins (metrics under a "module.<name>." prefix,
 *    campaign-level rollups under "campaign.*").
 *
 * `jobs = 1` runs everything inline on the calling thread — exactly the
 * historical serial path, no threads spawned.
 */

#ifndef UTRR_RUNNER_CAMPAIGN_HH
#define UTRR_RUNNER_CAMPAIGN_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "dram/module.hh"
#include "fault/fault_injector.hh"
#include "fault/io_fault.hh"
#include "obs/metrics.hh"
#include "obs/report.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "softmc/host.hh"

namespace utrr
{

struct ProfileCache;

/**
 * Campaign-wide knobs. The defaults reproduce the historical serial
 * sweeps: fault-free, no watchdog, no tracing.
 */
struct CampaignConfig
{
    /** Worker threads; <= 0 selects hardwareConcurrency(). */
    int jobs = 0;

    /** Campaign master seed; every job forks from it by module name. */
    std::uint64_t seed = 1;

    /** DramModule physics seed (kept separate so the same silicon can
     *  be campaigned under different experiment seeds). */
    std::uint64_t moduleSeed = 2021;

    /** Fault rates; an all-zero config attaches no injector at all. */
    FaultConfig faults;

    /**
     * Simulated-time watchdog armed per attempt (0 disarms). Jobs may
     * additionally arm their own budget (e.g. TrrRevengConfig's).
     */
    Time watchdogBudgetNs = 0;

    /** Retries after the first attempt for WatchdogTimeout deaths. */
    int maxWatchdogRetries = 2;

    /** Per-job command-trace ring capacity (0 = tracing off). */
    std::size_t traceCapacity = 0;

    /**
     * Streaming telemetry sink (not owned; nullptr = no telemetry).
     * The runner emits campaign_start, one heartbeat per finished job
     * (from whichever worker ran it) and campaign_end. Telemetry is
     * observability only — it never feeds back into job execution, so
     * attaching a sink cannot perturb the determinism guarantees.
     */
    TelemetrySink *telemetry = nullptr;

    // --- durability (DESIGN.md §14) ----------------------------------

    /**
     * Write-ahead result journal path (empty = journaling off). Every
     * finished job is appended as a checksummed, fsynced JSONL record
     * *before* its result is published, so a crash at any instant
     * loses at most the jobs still in flight.
     */
    std::string journalPath;

    /**
     * Resume from an existing journal: completed jobs whose content
     * key matches this campaign are loaded instead of re-run; only the
     * missing (or quarantined — those re-attempt with fresh salts)
     * jobs are scheduled. A journal written by a different campaign
     * configuration is rotated aside to "<journalPath>.stale".
     */
    bool resume = false;

    /** fsync the journal after each record (off only for benches). */
    bool journalFsync = true;

    /**
     * Identity of the job *body* and its configuration, folded into
     * the campaign content hash. Callers must change this string
     * whenever the job function would produce different results for
     * the same (spec, seed) — e.g. "identify:battery:v1" vs a digest
     * of the fuzz options — so stale journals can never resume into a
     * differently-configured campaign.
     */
    std::string contentTag;

    /**
     * Cooperative-stop flag (not owned; nullptr = never stops).
     * Polled by workers between jobs and by the host at its watchdog
     * poll point, so SIGINT/SIGTERM (via runner/cancellation.hh)
     * abandons in-flight work within a few simulated commands, the
     * journal stays complete, and run() returns a partial result with
     * interrupted = true.
     */
    const std::atomic<bool> *stopFlag = nullptr;

    /**
     * Crash-test hook forwarded to the journal writer (tests/CI only):
     * the append of record N kills the process mid-write. When unset,
     * UTRR_JOURNAL_CRASH from the environment is honoured instead.
     */
    std::optional<JournalWriteFault> journalFault;

    /**
     * Unread. The frozen end-to-end benchmark (perfbench/driver.cc)
     * still sets it; it is kept only so that file builds unchanged
     * (runner/profile_cache.hh).
     */
    ProfileCache *profileCache = nullptr;
};

/** Everything a job body may touch. All of it is job-private. */
struct JobContext
{
    const ModuleSpec &spec;
    /** Stable campaign position of this job. */
    std::uint64_t index;
    /** 0 on the first try, 1.. on watchdog retries. */
    int attempt;
    /** Job-keyed fork of the campaign seed (attempt-salted on retry). */
    Rng rng;
    DramModule &module;
    SoftMcHost &host;
    /** nullptr when the campaign runs fault-free. */
    FaultInjector *fault;
    MetricsRegistry &metrics;
    /**
     * The campaign's DramModule silicon seed. Job bodies that build
     * additional private module instances (e.g. the pattern
     * synthesizer's fresh-substrate evaluations) must seed them from
     * this so a job is a pure function of (spec, seed, moduleSeed).
     */
    std::uint64_t moduleSeed;
    /**
     * The campaign's cooperative-stop flag (nullptr = never stops).
     * Job bodies that build private SoftMcHosts should attach it so a
     * SIGINT lands inside long in-job loops too, not only at job
     * boundaries.
     */
    const std::atomic<bool> *stopFlag;
};

/** What a job body returns. */
struct JobOutcome
{
    bool ok = false;
    /** Free-form verdict payload; byte-compared by equivalence tests,
     *  so job bodies must keep wall-clock values out of it. */
    Json verdict;
};

/**
 * A job body. Must be safe to call concurrently from several workers:
 * touch only the JobContext (and immutable campaign inputs), never
 * shared mutable state.
 */
using JobFn = std::function<JobOutcome(JobContext &)>;

/** Result of one module job (its final attempt). */
struct ModuleResult
{
    std::string module;
    std::uint64_t index = 0;
    bool ok = false;
    /** True when watchdog retries were exhausted. */
    bool quarantined = false;
    /**
     * Holds a final result (fresh or journaled)? False for jobs that
     * were interrupted mid-flight or never scheduled — those are
     * excluded from aggregation and reported as pending.
     */
    bool completed = false;
    /** Restored from the write-ahead journal instead of executed. */
    bool fromJournal = false;
    /**
     * Total attempts, including those of prior interrupted runs (a
     * quarantined job resumed from a journal continues the ladder with
     * freshly salted attempts instead of replaying its failure).
     */
    int attempts = 0;
    /** Last error (watchdog/exception text); empty on success. */
    std::string error;
    Json verdict;
    /** Job-private registry captured at job end. */
    MetricsRegistry metrics;
    FaultInjector::Stats faultStats;
    std::vector<TraceEvent> traceEvents;
    std::uint64_t traceRecorded = 0;
    double wallMs = 0.0;
    Time simNs = 0;
};

/** Aggregated campaign outcome. */
struct CampaignResult
{
    /** Per-module results in campaign (input) order. */
    std::vector<ModuleResult> modules;
    int jobsUsed = 1;
    double wallMs = 0.0;
    std::uint64_t watchdogRetries = 0;
    std::uint64_t quarantinedJobs = 0;
    /** Jobs whose final attempt was not ok (includes quarantined). */
    std::uint64_t failedJobs = 0;
    /**
     * True when a cooperative stop interrupted the campaign before
     * every job finished: the journal (if any) is complete for the
     * finished jobs and the run is resumable.
     */
    bool interrupted = false;
    /** Jobs restored from the journal rather than executed. */
    std::uint64_t journaledJobs = 0;
    /** Jobs actually scheduled (campaign size minus journaled). */
    std::uint64_t scheduledJobs = 0;
    /** Jobs without a final result (interrupted / never started). */
    std::uint64_t pendingJobs = 0;
    /** Journal recovery diagnostics (resume only). */
    std::uint64_t journalCorruptRecords = 0;
    std::uint64_t journalForeignRecords = 0;
    bool journalTornTail = false;
    FaultInjector::Stats faultTotals;
    /**
     * Per-module registries merged under "module.<name>." plus
     * campaign rollup metrics ("campaign.*"). Every value is a
     * function of the campaign's inputs (campaign.workers is the
     * worker count); the campaign's wall time is wallMs alone.
     */
    MetricsRegistry merged;

    bool allOk() const { return failedJobs == 0 && pendingJobs == 0; }

    /**
     * Deterministic per-module verdict array (campaign order): module,
     * ok, attempts, quarantined, error and the job's verdict payload.
     * dump() of this value is the byte-equality surface of the
     * serial-vs-parallel tests.
     */
    Json verdicts() const;

    /**
     * Fill @p report with per-module rounds, campaign-level results
     * (failures, retries, fault-event totals), timing (campaign wall
     * time + summed simulated time) and the merged metrics snapshot.
     */
    void fillReport(ExperimentReport &report) const;
};

/**
 * The runner. Stateless between run() calls; a single instance may be
 * reused for several campaigns.
 */
class CampaignRunner
{
  public:
    explicit CampaignRunner(CampaignConfig config);

    const CampaignConfig &config() const { return cfg; }

    /** Execute @p fn once per spec; blocks until all jobs finished. */
    CampaignResult run(const std::vector<ModuleSpec> &specs,
                       const JobFn &fn) const;

    /** Detected hardware concurrency (>= 1). */
    static int hardwareConcurrency();

  private:
    /**
     * Execute one job. @p attempt_base > 0 continues a prior run's
     * retry ladder (resume of a quarantined job): every RNG/fault salt
     * uses the *effective* attempt (base + local), so the re-run draws
     * fresh streams instead of replaying the recorded failure.
     */
    ModuleResult runJob(const ModuleSpec &spec, std::uint64_t index,
                        const JobFn &fn, int attempt_base) const;

    CampaignConfig cfg;
};

} // namespace utrr

#endif // UTRR_RUNNER_CAMPAIGN_HH
