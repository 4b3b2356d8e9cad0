/**
 * @file
 * Structured experiment reports: a conventional JSON shape shared by
 * the campaign runner and the bench harnesses so every run leaves a
 * machine-readable artifact (config + RNG seed + per-round data +
 * results + wall/sim time + a metrics snapshot).
 *
 * Shape:
 *   {
 *     "report": "<name>",
 *     "config":  { ... },            // experiment configuration
 *     "rounds":  [ {...}, ... ],     // per-round vectors (optional)
 *     "results": { ... },            // outcome summary
 *     "timing":  { "wall_ms": w, "sim_ns": s },
 *     "metrics": { counters/gauges }  // optional snapshot
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
 * The deterministic projection of a report: a deep copy without its
 * wall-clock values — every "wall_ms" key (timing.wall_ms and each
 * round's wall_ms) and the top-level profile section (span wall
 * times). Nothing else is dropped: a metrics registry holds no wall
 * time, so every counter and gauge, the RowState COW and restore-path
 * counters included, is a pure function of the campaign inputs. An
 * interrupted-then-resumed campaign must reproduce the projection
 * byte-for-byte (DESIGN.md §14); the crash-recovery tests and
 * scripts/report_diff.py compare dump()s of this value.
 */
Json deterministicProjection(const Json &report);

} // namespace utrr

#endif // UTRR_OBS_REPORT_HH
