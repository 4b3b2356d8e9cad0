/**
 * @file
 * Cross-job profile cache: snapshot-at-profile-completion reuse.
 *
 * Row scouting dominates the wall time of identification campaigns and
 * is a pure function of (module spec, silicon seed): every attempt,
 * fuzz case and repeated battery over the same module re-derives the
 * same row groups from the same physics. The cache stores, per
 * (module, seed, tag) key, the device state right after a profiling
 * block completed — a DramModule snapshot (COW row sharing keeps it
 * cheap), the host snapshot, the job's metrics registry and the block's
 * JSON payload — so later jobs restore and go instead of re-profiling
 * (JobContext::profiled in runner/campaign.hh).
 *
 * Thread-safe: campaign workers may probe and fill it concurrently.
 * Entries are immutable once inserted (shared_ptr<const Entry>), and
 * restoring from one never mutates it — DramModule::restore clones the
 * TRR state and shares row contents copy-on-write.
 */

#ifndef UTRR_RUNNER_PROFILE_CACHE_HH
#define UTRR_RUNNER_PROFILE_CACHE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "dram/module.hh"
#include "obs/metrics.hh"
#include "obs/report.hh"
#include "softmc/host.hh"

namespace utrr
{

class ProfileCache
{
  public:
    /** One cached profile: the device right after the block ran, plus
     *  the block's payload. */
    struct Entry
    {
        DramModule::Snapshot module;
        SoftMcHost::Snapshot host;
        MetricsRegistry metrics;
        Json payload;
    };

    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
    };

    /** Cache key: the profile is a pure function of these three. The
     *  tag must version the profiling body (e.g. "identify:pools:v1")
     *  so a changed block can never resume a stale profile. */
    static std::string key(const ModuleSpec &spec,
                           std::uint64_t module_seed,
                           const std::string &tag);

    /** Look up a key; counts a hit or miss. nullptr when absent. */
    std::shared_ptr<const Entry> find(const std::string &key) const;

    /** Publish an entry. First insert wins (all producers of a key
     *  compute identical state, so dropping a racing duplicate is
     *  harmless). */
    void insert(const std::string &key,
                std::shared_ptr<const Entry> entry);

    Stats stats() const;
    std::size_t size() const;

  private:
    mutable std::mutex mu;
    std::map<std::string, std::shared_ptr<const Entry>> entries;
    mutable Stats tally;
};

} // namespace utrr

#endif // UTRR_RUNNER_PROFILE_CACHE_HH
