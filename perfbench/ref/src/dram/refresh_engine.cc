#include "dram/refresh_engine.hh"

#include "common/logging.hh"
#include "obs/profiler.hh"

namespace utrr
{

RefreshEngine::RefreshEngine(Row phys_rows, int period_refs)
    : physRows(phys_rows), period(period_refs)
{
    UTRR_ASSERT(phys_rows > 0, "need rows");
    UTRR_ASSERT(period_refs > 0, "need a positive refresh period");
}

std::optional<std::pair<Row, Row>>
RefreshEngine::onRefresh()
{
    UTRR_PROF_SCOPE("refresh_engine.on_refresh");
    // Integer bresenham-style accumulator: after `period` REFs exactly
    // `physRows` rows have been refreshed, with no drift.
    const std::uint64_t step = refs % static_cast<std::uint64_t>(period);
    const auto rows64 = static_cast<std::uint64_t>(physRows);
    Row begin = static_cast<Row>(step * rows64 /
                                 static_cast<std::uint64_t>(period));
    const Row end = static_cast<Row>((step + 1) * rows64 /
                                     static_cast<std::uint64_t>(period));
#ifdef UTRR_MUTATION_REFRESH_OFF_BY_ONE
    // Deliberate mutation (-DUTRR_MUTATION=ON): every sweep chunk skips
    // its first row, so chunk-start rows are never regular-refreshed.
    // The differential fuzzing oracle must flag this (mutation sanity
    // test); never enable it in a real build.
    if (begin < end)
        ++begin;
#endif
    ++refs;
    position = end >= physRows ? 0 : end;

    if (ctrRowsRefreshed != nullptr && end > begin)
        ctrRowsRefreshed->inc(static_cast<std::uint64_t>(end - begin));
    if (ctrSweeps != nullptr && refs % static_cast<std::uint64_t>(period) == 0)
        ctrSweeps->inc();

    if (end > begin)
        return std::make_pair(begin, end);
    return std::nullopt;
}

int
RefreshEngine::refsUntilRow(Row phys_row) const
{
    UTRR_ASSERT(phys_row >= 0 && phys_row < physRows, "row out of range");
    // Find the smallest k >= 0 such that REF number (refs + k) covers
    // phys_row. REF with in-period step s covers [s*R/P, (s+1)*R/P).
    const auto rows64 = static_cast<std::uint64_t>(physRows);
    const auto period64 = static_cast<std::uint64_t>(period);
    // The step that covers phys_row: s = floor((row * P + P - 1) / R)
    // adjusted; derive directly: s is the largest s with
    // s*R/P <= row, i.e. s = floor(((row + 1) * P - 1) / R).
    const std::uint64_t target =
        ((static_cast<std::uint64_t>(phys_row) + 1) * period64 - 1) /
        rows64;
    const std::uint64_t current = refs % period64;
    if (target >= current)
        return static_cast<int>(target - current);
    return static_cast<int>(period64 - current + target);
}

void
RefreshEngine::reset()
{
    refs = 0;
    position = 0;
}

void
RefreshEngine::attachMetrics(MetricsRegistry *registry)
{
    if (registry == nullptr) {
        ctrRowsRefreshed = nullptr;
        ctrSweeps = nullptr;
        return;
    }
    ctrRowsRefreshed = &registry->counter("dram.rows_regular_refreshed");
    ctrSweeps = &registry->counter("dram.refresh_sweeps");
}

} // namespace utrr
