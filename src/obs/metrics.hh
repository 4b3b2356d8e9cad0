/**
 * @file
 * Metrics registry: named counters and gauges populated by the
 * simulator substrate (DRAM module, refresh engine, TRR models) and by
 * the experiment harnesses.
 *
 * Two access regimes:
 *
 *  - MetricsRegistry — metrics a real memory controller could observe
 *    (command counts, read-back flips, simulated time). Every value is
 *    a function of the simulation's inputs: wall time goes to the span
 *    profiler (obs/profiler.hh), never here. Handles returned by the
 *    registry are stable for its lifetime, so hot paths resolve a name
 *    once and increment through the pointer.
 *
 *  - GroundTruthStore — chip-internal truth (TRR detections, counter
 *    table / sampler occupancy, TRR-induced victim refreshes) that
 *    U-TRR must *infer* rather than read. Reading it is only possible
 *    through a GroundTruthProbe, and every probe read is counted, so a
 *    black-box experiment can prove after the fact that it never peeked
 *    (peekCount() == 0) while validation tests may compare inference
 *    against truth openly.
 */

#ifndef UTRR_OBS_METRICS_HH
#define UTRR_OBS_METRICS_HH

#include <cstdint>
#include <map>
#include <string>

#include "obs/json.hh"

namespace utrr
{

/** Monotonically increasing event count. */
struct Counter
{
    std::uint64_t value = 0;

    void inc(std::uint64_t n = 1) { value += n; }
};

/** Last-write-wins instantaneous value. */
struct Gauge
{
    double value = 0.0;

    void set(double v) { value = v; }
};

/**
 * Named metric store. Names are free-form; the convention is
 * dotted paths ("dram.acts.bank0", "row_scout.replacements").
 */
class MetricsRegistry
{
  public:
    /** Find-or-create. Returned references stay valid until clear(). */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);

    /** Lookup without creating; nullptr when absent. */
    const Counter *findCounter(const std::string &name) const;
    const Gauge *findGauge(const std::string &name) const;

    const std::map<std::string, Counter> &counters() const
    {
        return counterMap;
    }
    const std::map<std::string, Gauge> &gauges() const
    {
        return gaugeMap;
    }

    /** Drop every metric (invalidates all handles). */
    void clear();

    /**
     * Fold @p other into this registry, prepending @p prefix to every
     * name: counters add, gauges last-write-wins. With per-source
     * prefixes (e.g. "module.A5.") the result is independent of merge
     * order, which is how a parallel campaign combines per-worker
     * registries at join time — each worker writes its own registry
     * lock-free and the single-threaded merge happens after the
     * threads are joined.
     */
    void merge(const MetricsRegistry &other,
               const std::string &prefix = "");

    /** Snapshot as {"counters": {...}, "gauges": {...}}. */
    Json toJson() const;

    /**
     * Rebuild a registry from a toJson() snapshot. The inverse is
     * exact — counters are integers, gauges are doubles printed with
     * round-trip precision — so a registry that goes through the
     * result journal merges bit-identically to one that never left
     * memory. Returns false on a malformed snapshot (@p out is left
     * cleared).
     */
    static bool fromJson(const Json &snapshot, MetricsRegistry &out);

  private:
    std::map<std::string, Counter> counterMap;
    std::map<std::string, Gauge> gaugeMap;
};

class GroundTruthProbe;

/**
 * Chip-internal metric store. The chip writes through the handles;
 * reading requires a GroundTruthProbe (each read is tallied).
 */
class GroundTruthStore
{
  public:
    /** Write handles for the chip-side instrumentation. */
    Counter &counter(const std::string &name)
    {
        return inner.counter(name);
    }
    Gauge &gauge(const std::string &name) { return inner.gauge(name); }

    /** Probe reads performed so far (0 == provably black-box run). */
    std::uint64_t peekCount() const { return peeks; }

  private:
    friend class GroundTruthProbe;

    MetricsRegistry inner;
    mutable std::uint64_t peeks = 0;
};

/**
 * Read-side handle onto a GroundTruthStore. Every accessor bumps the
 * store's peek counter — the audit trail separating white-box
 * validation from the black-box methodology.
 */
class GroundTruthProbe
{
  public:
    explicit GroundTruthProbe(const GroundTruthStore &store)
        : store(&store)
    {
    }

    /** Counter value (0 when the counter was never written). */
    std::uint64_t counter(const std::string &name) const;

    /** Gauge value (0 when never written). */
    double gauge(const std::string &name) const;

    /** Full snapshot of the store. */
    Json snapshot() const;

  private:
    const GroundTruthStore *store;
};

} // namespace utrr

#endif // UTRR_OBS_METRICS_HH
