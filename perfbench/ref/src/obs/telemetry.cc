#include "obs/telemetry.hh"

#include <algorithm>

#include "common/durable_file.hh"
#include "common/logging.hh"

namespace utrr
{

TelemetrySink::TelemetrySink(const std::string &path,
                             bool fsync_each_record)
    : owned(std::make_unique<std::ofstream>(path,
                                            std::ios::out |
                                                std::ios::trunc)),
      out(owned.get()), startWall(std::chrono::steady_clock::now())
{
    if (!owned->good())
        warn(logFmt("telemetry: cannot open ", path, " for writing"));
    else if (fsync_each_record)
        fsyncTarget = path;
}

TelemetrySink::TelemetrySink(std::ostream &os)
    : out(&os), startWall(std::chrono::steady_clock::now())
{
}

bool
TelemetrySink::good() const
{
    const std::lock_guard<std::mutex> lock(mutex);
    return out != nullptr && out->good();
}

std::uint64_t
TelemetrySink::recordsWritten() const
{
    const std::lock_guard<std::mutex> lock(mutex);
    return seq;
}

double
TelemetrySink::elapsedMs() const
{
    const auto delta = std::chrono::steady_clock::now() - startWall;
    return std::chrono::duration<double, std::milli>(delta).count();
}

void
TelemetrySink::emit(const char *type, Json record)
{
    // `record` already holds the type-specific fields; prepend the
    // envelope by building a fresh object (keys keep insertion order).
    Json line = Json::object();
    line["type"] = type;
    line["seq"] = seq;
    line["wall_ms"] = elapsedMs();
    for (const auto &[key, value] : record.members())
        line[key] = value;
    ++seq;
    *out << line.dump() << '\n';
    out->flush();
    // A flush reaches the OS; the fsync (a second fd on the same file
    // — fsync durability is per-file, not per-descriptor) reaches the
    // disk, matching the result journal's crash guarantee.
    if (!fsyncTarget.empty())
        fsyncPath(fsyncTarget);
}

void
TelemetrySink::campaignStart(std::uint64_t jobs_total, int workers,
                             std::uint64_t seed)
{
    const std::lock_guard<std::mutex> lock(mutex);
    startWall = std::chrono::steady_clock::now();
    totalJobs = jobs_total;
    jobsDone = 0;
    retriesTotal = 0;
    quarantinedTotal = 0;
    failuresTotal = 0;
    Json record = Json::object();
    record["schema"] = kTelemetrySchemaVersion;
    record["jobs_total"] = jobs_total;
    record["workers"] = workers;
    record["seed"] = seed;
    emit("campaign_start", std::move(record));
}

void
TelemetrySink::campaignResume(std::uint64_t journaled,
                              std::uint64_t scheduled)
{
    const std::lock_guard<std::mutex> lock(mutex);
    // Journaled jobs emit no heartbeat of their own; seeding the tally
    // here keeps jobs_done monotone and lets it still reach jobs_total
    // by campaign_end.
    jobsDone = journaled;
    Json record = Json::object();
    record["schema"] = kTelemetrySchemaVersion;
    record["journaled"] = journaled;
    record["scheduled"] = scheduled;
    record["jobs_total"] = totalJobs;
    emit("campaign_resume", std::move(record));
}

void
TelemetrySink::heartbeat(const JobHeartbeat &beat)
{
    const std::lock_guard<std::mutex> lock(mutex);
    // Tally update and record emission happen under the same mutex, so
    // the stream's jobs_done is strictly monotone in file order even
    // when workers finish (and contend) simultaneously.
    jobsDone += 1;
    retriesTotal +=
        static_cast<std::uint64_t>(std::max(beat.attempts - 1, 0));
    quarantinedTotal += beat.quarantined ? 1 : 0;
    failuresTotal += beat.ok ? 0 : 1;

    Json record = Json::object();
    record["module"] = beat.module;
    record["job_index"] = beat.jobIndex;
    record["ok"] = beat.ok;
    record["attempts"] = beat.attempts;
    record["quarantined"] = beat.quarantined;
    record["jobs_done"] = jobsDone;
    record["jobs_total"] = totalJobs;
    // Wall-clock ETA: elapsed / done scaled to the remainder. Crude but
    // honest for a pool draining uniform jobs; -1 when undefined (no
    // campaign_start announced a plausible total).
    double eta_ms = -1.0;
    if (totalJobs >= jobsDone) {
        eta_ms = elapsedMs() / static_cast<double>(jobsDone) *
            static_cast<double>(totalJobs - jobsDone);
    }
    record["eta_ms"] = eta_ms;
    record["retries"] = retriesTotal;
    record["quarantined_total"] = quarantinedTotal;
    record["failures"] = failuresTotal;
    record["job_wall_ms"] = beat.jobWallMs;
    record["job_sim_ns"] = static_cast<std::int64_t>(beat.jobSimNs);
    Json metrics = Json::object();
    if (beat.metrics != nullptr) {
        for (const auto &[name, counter] : beat.metrics->counters())
            metrics[name] = counter.value;
    }
    record["metrics"] = std::move(metrics);
    emit("heartbeat", std::move(record));
}

void
TelemetrySink::campaignEnd(std::uint64_t jobs_total,
                           std::uint64_t failures, std::uint64_t retries,
                           std::uint64_t quarantined, double wall_ms)
{
    const std::lock_guard<std::mutex> lock(mutex);
    Json record = Json::object();
    record["jobs_total"] = jobs_total;
    record["failures"] = failures;
    record["retries"] = retries;
    record["quarantined"] = quarantined;
    record["campaign_wall_ms"] = wall_ms;
    record["ok"] = failures == 0;
    emit("campaign_end", std::move(record));
}

} // namespace utrr
