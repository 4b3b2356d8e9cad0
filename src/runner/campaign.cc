#include "runner/campaign.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <thread>

#include "common/logging.hh"
#include "obs/profiler.hh"
#include "runner/journal.hh"

namespace utrr
{

namespace
{

double
elapsedMs(std::chrono::steady_clock::time_point begin)
{
    const auto delta = std::chrono::steady_clock::now() - begin;
    return std::chrono::duration<double, std::milli>(delta).count();
}

void
accumulate(FaultInjector::Stats &into, const FaultInjector::Stats &from)
{
    into.vrtFlips += from.vrtFlips;
    into.noiseBits += from.noiseBits;
    into.jitteredRefs += from.jitteredRefs;
    into.droppedRefs += from.droppedRefs;
    into.droppedWrs += from.droppedWrs;
    into.droppedHammerActs += from.droppedHammerActs;
    into.tempSteps += from.tempSteps;
}

std::uint64_t
faultEventCount(const FaultInjector::Stats &stats)
{
    return stats.vrtFlips + stats.noiseBits + stats.jitteredRefs +
        stats.droppedCommands();
}

} // namespace

CampaignRunner::CampaignRunner(CampaignConfig config) : cfg(config)
{
}

int
CampaignRunner::hardwareConcurrency()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

ModuleResult
CampaignRunner::runJob(const ModuleSpec &spec, std::uint64_t index,
                       const JobFn &fn, int attempt_base) const
{
    ModuleResult result;
    result.module = spec.name;
    result.index = index;
    result.attempts = attempt_base;
    const auto wall_begin = std::chrono::steady_clock::now();

    const int max_attempts = 1 + std::max(0, cfg.maxWatchdogRetries);
    for (int local = 0; local < max_attempts; ++local) {
        // The effective attempt continues a prior run's ladder when
        // this is the resume of a quarantined job (attempt_base > 0),
        // so every salt below draws a stream the failed run never saw.
        const int attempt = attempt_base + local;
        ++result.attempts;

        // A fresh substrate per attempt: a job that died mid-experiment
        // must not leak hammered rows or drifted retention into its
        // retry, and jobs never share an instance with one another.
        DramModule module(spec, cfg.moduleSeed);
        SoftMcHost host(module);
        MetricsRegistry metrics;
        host.attachMetrics(&metrics);
        host.attachStopFlag(cfg.stopFlag);
        if (cfg.traceCapacity > 0)
            host.trace().enable(cfg.traceCapacity);

        std::optional<FaultInjector> injector;
        if (cfg.faults.anyEnabled()) {
            // Attempt 0 reproduces the historical serial chaos-sweep
            // seeding exactly; retries re-salt so a deterministic
            // failure is not simply replayed.
            std::uint64_t fault_seed = cfg.seed * 1'000'003 + index;
            if (attempt > 0)
                fault_seed = hashMix(
                    fault_seed ^
                    hashMix(static_cast<std::uint64_t>(attempt)));
            injector.emplace(cfg.faults, fault_seed);
            host.attachFaultInjector(&*injector);
        }
        if (cfg.watchdogBudgetNs > 0)
            host.setWatchdogBudget(cfg.watchdogBudgetNs);

        // Job-keyed RNG: forked off the campaign seed by module name,
        // never by worker id or arrival order.
        Rng job_rng = Rng(cfg.seed).fork(spec.name);
        if (attempt > 0)
            job_rng = job_rng.fork(static_cast<std::uint64_t>(attempt));

        JobContext ctx{spec,
                       index,
                       attempt,
                       job_rng,
                       module,
                       host,
                       injector ? &*injector : nullptr,
                       metrics,
                       cfg.moduleSeed,
                       cfg.stopFlag};

        // Root-anchored so jobs-1 (inline on the caller's thread) and
        // jobs-N (worker threads) merge to identical profile paths.
        ProfSpan job_span("campaign.job", host.clockPtr(), nullptr,
                          ProfSpan::kAtRoot);

        auto capture = [&]() {
            host.publishPerfCounters();
            result.metrics = metrics;
            result.traceEvents = host.trace().events();
            result.traceRecorded = host.trace().recorded();
            if (injector)
                result.faultStats = injector->stats();
            result.simNs = host.now();
        };

        try {
            JobOutcome outcome = fn(ctx);
            result.ok = outcome.ok;
            result.verdict = std::move(outcome.verdict);
            result.error.clear();
            result.completed = true;
            capture();
            break;
        } catch (const StopRequested &e) {
            // Cooperative stop: the job is abandoned mid-flight, not
            // failed — it stays pending (completed = false) and will
            // be re-run from scratch on resume.
            result.ok = false;
            result.completed = false;
            result.error = e.what();
            capture();
            break;
        } catch (const WatchdogTimeout &e) {
            result.ok = false;
            result.error = e.what();
            capture();
            if (local + 1 == max_attempts) {
                result.quarantined = true;
                result.completed = true;
            }
        } catch (const std::exception &e) {
            // Non-watchdog failures are not retried: they indicate a
            // bug or bad configuration, not a sick-substrate run.
            result.ok = false;
            result.error = e.what();
            result.completed = true;
            capture();
            break;
        }
    }

    result.wallMs = elapsedMs(wall_begin);
    return result;
}

CampaignResult
CampaignRunner::run(const std::vector<ModuleSpec> &specs,
                    const JobFn &fn) const
{
    CampaignResult out;
    out.modules.resize(specs.size());
    const std::uint64_t jobs_total = specs.size();

    // jobsUsed is derived from the *campaign* size, not from how many
    // jobs remain after a resume — the value lands in the report and
    // a resumed run must reproduce the uninterrupted run's bytes.
    const int want = cfg.jobs <= 0 ? hardwareConcurrency() : cfg.jobs;
    const int workers = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(std::max(want, 1)),
        std::max<std::size_t>(specs.size(), 1)));
    out.jobsUsed = workers;

    // --- write-ahead journal / resume (DESIGN.md §14) ----------------
    JournalWriter journal;
    CampaignKey key;
    std::vector<int> attempt_base(specs.size(), 0);
    bool resumed_existing = false;
    if (!cfg.journalPath.empty()) {
        key = CampaignKey::compute(cfg, specs);
        if (cfg.resume) {
            JournalLoad load = loadJournal(cfg.journalPath);
            if (load.fileFound && load.headerValid &&
                load.headerCampaign == key.value()) {
                resumed_existing = true;
                out.journalCorruptRecords = load.corruptRecords;
                out.journalTornTail = load.tornTail;
                for (JournalJobRecord &rec : load.jobs) {
                    // Re-key every record against *this* campaign; a
                    // stale or foreign record can never splice in.
                    const std::uint64_t i = rec.result.index;
                    if (i >= specs.size() ||
                        specs[i].name != rec.result.module ||
                        rec.key != key.jobKey(specs[i], i)) {
                        ++out.journalForeignRecords;
                        continue;
                    }
                    if (rec.result.ok) {
                        // Last occurrence wins (a crash can race a
                        // rewrite of the same job on a prior resume).
                        out.modules[i] = std::move(rec.result);
                        attempt_base[i] = 0;
                    } else if (rec.result.quarantined) {
                        // Re-attempt with the ladder continued past
                        // the recorded attempts: fresh salts, not a
                        // replay of the recorded failure.
                        attempt_base[i] = rec.result.attempts;
                    }
                    // A plain (non-quarantined) failure re-runs from
                    // scratch: it is deterministic, so the re-run
                    // reproduces the uninterrupted run's bytes.
                }
            } else if (load.fileFound) {
                // Valid-looking file for some *other* campaign (or no
                // readable header, e.g. an older schema): rotate it
                // aside rather than overwrite — it may be another
                // run's progress.
                out.journalForeignRecords += load.jobs.size();
                const std::string stale = cfg.journalPath + ".stale";
                if (renameFile(cfg.journalPath, stale)) {
                    warn(logFmt("journal ", cfg.journalPath,
                                " belongs to a different campaign or "
                                "schema; rotated to ",
                                stale));
                } else {
                    warn(logFmt("journal ", cfg.journalPath,
                                " is foreign and could not be "
                                "rotated; overwriting"));
                }
            }
        }
        // Arm the crash hook *before* open(): the header is journal
        // record 0, and the recovery harness must be able to tear it
        // too.
        const std::optional<JournalWriteFault> write_fault =
            cfg.journalFault ? cfg.journalFault
                             : JournalWriteFault::fromEnv();
        if (write_fault)
            journal.setWriteFault(write_fault);
        if (!journal.open(cfg.journalPath, key, cfg, jobs_total,
                          resumed_existing)) {
            warn(logFmt("cannot open journal ", cfg.journalPath,
                        "; campaign continues without durability"));
        }
    }

    std::vector<std::size_t> pending_idx;
    pending_idx.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (!out.modules[i].completed)
            pending_idx.push_back(i);
    }
    out.journaledJobs = jobs_total - pending_idx.size();
    out.scheduledJobs = pending_idx.size();

    // Workers report only per-job facts; the sink owns the running
    // campaign tallies and bumps them under its write mutex, so
    // jobs_done stays monotone in stream order under contention.
    auto emitHeartbeat = [&](const ModuleResult &m) {
        if (cfg.telemetry == nullptr)
            return;
        JobHeartbeat beat;
        beat.module = m.module;
        beat.jobIndex = m.index;
        beat.ok = m.ok;
        beat.attempts = m.attempts;
        beat.quarantined = m.quarantined;
        beat.jobWallMs = m.wallMs;
        beat.jobSimNs = m.simNs;
        beat.metrics = &m.metrics;
        cfg.telemetry->heartbeat(beat);
    };
    if (cfg.telemetry != nullptr) {
        cfg.telemetry->campaignStart(jobs_total, workers, cfg.seed);
        if (resumed_existing) {
            cfg.telemetry->campaignResume(out.journaledJobs,
                                          out.scheduledJobs);
        }
    }

    const auto stopSeen = [this]() {
        return cfg.stopFlag != nullptr &&
            cfg.stopFlag->load(std::memory_order_relaxed);
    };

    // Write-ahead ordering: the journal record is on disk before the
    // result is published to the merge set or telemetry — a crash
    // after either publish can therefore never lose an unjournaled
    // result.
    const auto processJob = [&](std::size_t i) {
        ModuleResult r = runJob(specs[i], i, fn, attempt_base[i]);
        if (r.completed && journal.isOpen())
            journal.append(key.jobKey(specs[i], i), r);
        out.modules[i] = std::move(r);
        if (out.modules[i].completed)
            emitHeartbeat(out.modules[i]);
    };

    const auto wall_begin = std::chrono::steady_clock::now();
    const int spawn = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(workers), pending_idx.size()));
    if (spawn <= 1) {
        // The historical serial path: no threads, campaign order.
        for (const std::size_t i : pending_idx) {
            if (stopSeen())
                break;
            processJob(i);
        }
    } else {
        // Work queue: an atomic cursor over the pending-index vector.
        // Each worker writes only its own results slot, so the pool
        // needs no locking beyond the journal's internal mutex; the
        // joins below order every write before the single-threaded
        // aggregation.
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(spawn));
        for (int w = 0; w < spawn; ++w) {
            pool.emplace_back([&]() {
                for (;;) {
                    if (stopSeen())
                        return;
                    const std::size_t slot =
                        next.fetch_add(1, std::memory_order_relaxed);
                    if (slot >= pending_idx.size())
                        return;
                    processJob(pending_idx[slot]);
                }
            });
        }
        for (std::thread &worker : pool)
            worker.join();
    }
    out.wallMs = elapsedMs(wall_begin);

    // Aggregation: single-threaded, in campaign order, so the merged
    // registry and rollups are independent of scheduling. Jobs without
    // a final result (stop-interrupted or never started) are excluded
    // and surface as pendingJobs instead.
    Time sim_total = 0;
    for (const ModuleResult &m : out.modules) {
        if (!m.completed) {
            ++out.pendingJobs;
            continue;
        }
        out.watchdogRetries +=
            static_cast<std::uint64_t>(std::max(m.attempts - 1, 0));
        out.quarantinedJobs += m.quarantined ? 1 : 0;
        out.failedJobs += m.ok ? 0 : 1;
        accumulate(out.faultTotals, m.faultStats);
        sim_total += m.simNs;
        out.merged.merge(m.metrics, "module." + m.module + ".");
    }
    out.interrupted = out.pendingJobs > 0;
    out.merged.counter("campaign.jobs")
        .inc(static_cast<std::uint64_t>(out.modules.size()));
    out.merged.counter("campaign.watchdog_retries")
        .inc(out.watchdogRetries);
    out.merged.counter("campaign.quarantined").inc(out.quarantinedJobs);
    out.merged.counter("campaign.failures").inc(out.failedJobs);
    out.merged.counter("campaign.fault.events")
        .inc(faultEventCount(out.faultTotals));
    out.merged.counter("campaign.fault.dropped_commands")
        .inc(out.faultTotals.droppedCommands());
    out.merged.gauge("campaign.workers").set(workers);
    out.merged.gauge("campaign.sim_ns")
        .set(static_cast<double>(sim_total));
    if (cfg.telemetry != nullptr) {
        cfg.telemetry->campaignEnd(jobs_total, out.failedJobs,
                                   out.watchdogRetries,
                                   out.quarantinedJobs, out.wallMs);
    }
    return out;
}

Json
CampaignResult::verdicts() const
{
    Json array = Json::array();
    for (const ModuleResult &m : modules) {
        Json entry = Json::object();
        entry["module"] = Json(m.module);
        if (!m.completed) {
            entry["pending"] = Json(true);
            array.push(std::move(entry));
            continue;
        }
        entry["ok"] = Json(m.ok);
        entry["attempts"] = Json(m.attempts);
        entry["quarantined"] = Json(m.quarantined);
        if (!m.error.empty())
            entry["error"] = Json(m.error);
        entry["verdict"] = m.verdict;
        array.push(std::move(entry));
    }
    return array;
}

void
CampaignResult::fillReport(ExperimentReport &report) const
{
    Time sim_total = 0;
    for (const ModuleResult &m : modules) {
        Json round = Json::object();
        round["module"] = Json(m.module);
        if (!m.completed) {
            // Interrupted mid-flight or never started: resumable.
            round["pending"] = Json(true);
            report.addRound(std::move(round));
            continue;
        }
        round["ok"] = Json(m.ok);
        round["attempts"] = Json(m.attempts);
        round["quarantined"] = Json(m.quarantined);
        if (!m.error.empty())
            round["error"] = Json(m.error);
        round["verdict"] = m.verdict;
        round["fault_events"] = Json(faultEventCount(m.faultStats));
        round["fresh_trace_events"] = Json(m.traceRecorded);
        round["wall_ms"] = Json(m.wallMs);
        round["sim_ns"] = Json(static_cast<std::int64_t>(m.simNs));
        report.addRound(std::move(round));
        sim_total += m.simNs;
    }
    report.setResult("modules",
                     Json(static_cast<std::uint64_t>(modules.size())));
    report.setResult("failures", Json(failedJobs));
    report.setResult("watchdog_retries", Json(watchdogRetries));
    report.setResult("quarantined", Json(quarantinedJobs));
    report.setResult("jobs", Json(jobsUsed));
    report.setResult("fault_events", Json(faultEventCount(faultTotals)));
    report.setResult("vrt_flips", Json(faultTotals.vrtFlips));
    report.setResult("dropped_commands",
                     Json(faultTotals.droppedCommands()));
    // Structured error roll-up: one entry per job whose final attempt
    // failed, machine-readable enough for CI to key on. Deterministic
    // (error text carries simulated times only), so the key's presence
    // does not perturb resumed-vs-clean byte equality.
    if (failedJobs > 0) {
        Json errors = Json::array();
        for (const ModuleResult &m : modules) {
            if (!m.completed || m.ok)
                continue;
            Json entry = Json::object();
            entry["module"] = Json(m.module);
            entry["quarantined"] = Json(m.quarantined);
            entry["attempts"] = Json(m.attempts);
            entry["error"] = Json(m.error);
            errors.push(std::move(entry));
        }
        report.setResult("errors", std::move(errors));
    }
    // Emitted only when true so a completed resumed run's report stays
    // byte-identical to the uninterrupted run's.
    if (interrupted) {
        report.setResult("interrupted", Json(true));
        report.setResult("pending", Json(pendingJobs));
    }
    report.setTiming(wallMs, sim_total);
    report.attachMetrics(merged);
}

} // namespace utrr
