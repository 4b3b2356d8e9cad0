/**
 * @file
 * Structured experiment reports: a conventional JSON shape shared by
 * the TRR Analyzer, Row Scout and the bench harnesses so every run
 * leaves a machine-readable artifact (config + RNG seed + per-round
 * data + results + wall/sim time + a metrics snapshot).
 *
 * Shape:
 *   {
 *     "report": "<name>",
 *     "config":  { ... },            // experiment configuration
 *     "rounds":  [ {...}, ... ],     // per-round vectors (optional)
 *     "results": { ... },            // outcome summary
 *     "timing":  { "wall_ms": w, "sim_ns": s },
 *     "metrics": { counters/gauges/histograms }   // optional snapshot
 *   }
 */

#ifndef UTRR_OBS_REPORT_HH
#define UTRR_OBS_REPORT_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"

namespace utrr
{

struct ProfileTree;

/**
 * Builder for one experiment report.
 */
class ExperimentReport
{
  public:
    explicit ExperimentReport(const std::string &name);

    /** Record a configuration key (any Json-convertible scalar). */
    void setConfig(const std::string &key, Json value);

    /** Record the master RNG seed of the run (config section). */
    void setSeed(std::uint64_t seed);

    /** Append one per-round record. */
    void addRound(Json round);

    /** Record a result key. */
    void setResult(const std::string &key, Json value);

    /**
     * Install a whole named top-level section (e.g. the synthesizer's
     * "bypass_table"). Section content survives deterministicProjection
     * except for the usual wall-clock keys, so sections must hold only
     * campaign-input-determined data if byte-equality matters.
     */
    void setSection(const std::string &name, Json value);

    /** Record wall-clock and simulated duration. */
    void setTiming(double wall_ms, Time sim_ns);

    /** Attach a metrics snapshot. */
    void attachMetrics(const MetricsRegistry &registry);

    /**
     * Attach the span-profiler self-report: the full tree plus the
     * per-subsystem ranking by exclusive wall time ("profile" section).
     */
    void attachProfile(const ProfileTree &profile);

    /** Direct access for nested structures. */
    Json &config() { return root["config"]; }
    Json &results() { return root["results"]; }

    const Json &json() const { return root; }

    /** Serialize (pretty-printed). */
    std::string dump() const { return root.dump(1); }

    /**
     * Write to a file. Returns false (after warning) when the file
     * cannot be opened or the write fails — callers that persist
     * results must check and propagate the failure.
     */
    [[nodiscard]] bool writeFile(const std::string &path) const;

  private:
    Json root;
};

/**
 * The deterministic projection of a report: a deep copy with every
 * wall-clock-dependent key removed — timing.wall_ms, per-round
 * wall_ms, the "campaign.wall_ms" gauge, every "<name>.us"
 * ScopedTimer histogram (obs/timer.hh), and the whole profile
 * section (span wall times) — along with the host memory-management
 * tallies (RowState COW copy/share and restore-path counters), which
 * shift when a snapshot pins row containers and would otherwise
 * separate a cached-profile campaign from an identically-behaving
 * from-scratch one. What remains is a pure function of the
 * campaign inputs, so an interrupted-then-resumed campaign must
 * reproduce it byte-for-byte (DESIGN.md §14); the crash-recovery
 * tests and scripts/report_diff.py compare dump()s of this value.
 */
Json deterministicProjection(const Json &report);

} // namespace utrr

#endif // UTRR_OBS_REPORT_HH
