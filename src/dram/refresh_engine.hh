/**
 * @file
 * In-DRAM regular-refresh engine.
 *
 * The memory controller only issues opaque REF commands; the chip
 * internally decides which rows each REF refreshes. The paper's
 * Observation A8 shows vendor A refreshes every row once every 3758 REF
 * commands (i.e. faster than the 64 ms / ~8K-REF specification), while
 * vendors B and C follow the nominal ~8K-REF period. U-TRR relies on
 * this periodicity to tell regular refreshes apart from TRR-induced
 * ones.
 */

#ifndef UTRR_DRAM_REFRESH_ENGINE_HH
#define UTRR_DRAM_REFRESH_ENGINE_HH

#include <cstdint>
#include <optional>
#include <utility>

#include "common/types.hh"
#include "obs/metrics.hh"

namespace utrr
{

/**
 * Sliding-window regular refresh: each REF refreshes the next chunk of
 * physical rows; a full sweep takes exactly `periodRefs` REF commands.
 */
class RefreshEngine
{
  public:
    /**
     * @param phys_rows physical rows per bank (all banks refresh in
     *                  lock step)
     * @param period_refs REF commands per full sweep
     */
    RefreshEngine(Row phys_rows, int period_refs);

    /**
     * Advance by one REF command; returns the half-open physical row
     * range [lo, hi) refreshed by this REF, or nullopt when this REF
     * refreshes no rows (period longer than the row count). Each sweep
     * chunk is contiguous, so a single range always suffices — no heap
     * allocation on the per-REF hot path.
     */
    std::optional<std::pair<Row, Row>> onRefresh();

    /** REF commands needed to refresh every row once. */
    int periodRefs() const { return period; }

    /** Total REF commands seen. */
    std::uint64_t refCount() const { return refs; }

    /**
     * Number of REF commands from now until the sweep next reaches the
     * given physical row (0 if the next REF refreshes it).
     */
    int refsUntilRow(Row phys_row) const;

    /** Restart the sweep from row 0 (testing convenience). */
    void reset();

    /**
     * Attach a metrics registry (not owned; nullptr detaches). Records
     * rows swept ("dram.rows_regular_refreshed") and completed sweeps
     * ("dram.refresh_sweeps").
     */
    void attachMetrics(MetricsRegistry *registry);

  private:
    Row physRows;
    int period;
    std::uint64_t refs = 0;
    Row position = 0;
    Counter *ctrRowsRefreshed = nullptr;
    Counter *ctrSweeps = nullptr;
};

} // namespace utrr

#endif // UTRR_DRAM_REFRESH_ENGINE_HH
