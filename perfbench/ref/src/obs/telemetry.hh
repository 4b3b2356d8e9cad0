/**
 * @file
 * Streaming campaign telemetry: JSONL heartbeats that make a
 * long-running campaign observable while it runs instead of only after
 * it exits.
 *
 * One record per line, flushed as written, so `tail -f telemetry.jsonl`
 * (or the future campaign server) sees progress live. Three record
 * types share a `type` field and a monotonically increasing `seq`:
 *
 *   campaign_start — schema version, job count, worker count, seed
 *   heartbeat      — one per finished job: which module, ok/attempts/
 *                    quarantined, jobs done/total, wall-clock ETA,
 *                    campaign retry/quarantine/failure tallies, the
 *                    job's wall and simulated time, and the job's
 *                    private counter registry (its metrics delta —
 *                    job registries start empty, so the snapshot IS
 *                    the delta)
 *   campaign_end   — final tallies and overall ok
 *
 * Telemetry is explicitly *outside* the determinism surface: wall
 * times, ETA and arrival order depend on scheduling. Everything the
 * equivalence tests byte-compare (verdicts, merged counters) stays in
 * CampaignResult. The sink serializes writers with a mutex and owns
 * the running campaign tallies (jobs done, retries, quarantines,
 * failures), bumping them under that same mutex — so tally updates and
 * record emission are atomic and jobs_done is monotone in file order
 * no matter which worker finished first. Schema is validated in CI by
 * scripts/telemetry_check.py.
 */

#ifndef UTRR_OBS_TELEMETRY_HH
#define UTRR_OBS_TELEMETRY_HH

#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>

#include "common/types.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"

namespace utrr
{

/**
 * Everything a per-job heartbeat reports. Only per-job facts live
 * here; the campaign-wide running totals (jobs done, retries,
 * quarantines, failures) are accumulated by the sink itself under its
 * write mutex, keeping them consistent with emission order.
 */
struct JobHeartbeat
{
    std::string module;
    std::uint64_t jobIndex = 0;
    bool ok = false;
    int attempts = 0;
    bool quarantined = false;

    double jobWallMs = 0.0;
    Time jobSimNs = 0;

    /** The job's private registry (counters only are emitted). */
    const MetricsRegistry *metrics = nullptr;
};

/** Current version of the JSONL record schema. */
inline constexpr int kTelemetrySchemaVersion = 1;

/**
 * Thread-safe JSONL writer. Construct with a path (owns the stream) or
 * an external ostream (tests). Each record is one compact JSON line,
 * flushed immediately.
 */
class TelemetrySink
{
  public:
    /**
     * Open (truncate) @p path; good() reports whether that worked.
     * With @p fsync_each_record, every emitted line is additionally
     * fsynced, so telemetry survives a crash as completely as the
     * result journal does (at a per-record I/O cost — reserve it for
     * durable campaigns).
     */
    explicit TelemetrySink(const std::string &path,
                           bool fsync_each_record = false);

    /** Write into a caller-owned stream (kept alive by the caller). */
    explicit TelemetrySink(std::ostream &os);

    TelemetrySink(const TelemetrySink &) = delete;
    TelemetrySink &operator=(const TelemetrySink &) = delete;

    bool good() const;

    /**
     * Emit the campaign_start record, start the ETA clock and zero the
     * running campaign tallies.
     */
    void campaignStart(std::uint64_t jobs_total, int workers,
                       std::uint64_t seed);

    /**
     * Emit the campaign_resume record (right after campaign_start, by
     * a campaign resuming from a write-ahead journal): how many jobs
     * were restored from the journal versus scheduled to run. Seeds
     * the jobs_done tally with the journaled count so heartbeat
     * jobs_done keeps counting toward jobs_total.
     */
    void campaignResume(std::uint64_t journaled,
                        std::uint64_t scheduled);

    /**
     * Emit one heartbeat record (safe from any worker thread). Counts
     * the job into the running tallies under the write mutex, so
     * jobs_done in the emitted stream is strictly monotone.
     */
    void heartbeat(const JobHeartbeat &beat);

    /** Emit the campaign_end record. */
    void campaignEnd(std::uint64_t jobs_total, std::uint64_t failures,
                     std::uint64_t retries, std::uint64_t quarantined,
                     double wall_ms);

    /** Records written so far. */
    std::uint64_t recordsWritten() const;

  private:
    /** Stamp type/seq/wall_ms onto @p record and write one line. */
    void emit(const char *type, Json record);

    double elapsedMs() const;

    mutable std::mutex mutex;
    std::unique_ptr<std::ofstream> owned;
    std::ostream *out = nullptr;
    /** Non-empty => fsync this path after every emitted record. */
    std::string fsyncTarget;
    std::uint64_t seq = 0;
    std::uint64_t totalJobs = 0;
    /** Running campaign tallies, guarded by `mutex` like the stream. */
    std::uint64_t jobsDone = 0;
    std::uint64_t retriesTotal = 0;
    std::uint64_t quarantinedTotal = 0;
    std::uint64_t failuresTotal = 0;
    std::chrono::steady_clock::time_point startWall;
};

} // namespace utrr

#endif // UTRR_OBS_TELEMETRY_HH
