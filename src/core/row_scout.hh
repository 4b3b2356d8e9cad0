/**
 * @file
 * Row Scout (RS): DRAM retention-time profiler (paper §4, Fig. 6).
 *
 * RS finds row groups that satisfy the TRR Analyzer's requirements:
 *  - profiled rows hold their data for T/2 but reliably fail after T
 *    (so a missing failure can only mean a refresh occurred);
 *  - rows within a group share the same nominal retention time T;
 *  - rows sit at the physical distances prescribed by the row-group
 *    layout (e.g. "R-R" leaves one aggressor slot between them);
 *  - retention is *consistent*: RS re-validates every candidate many
 *    times (1000x in the paper) to reject rows affected by Variable
 *    Retention Time.
 *
 * The algorithm mirrors Fig. 6: scan the configured row range with an
 * escalating retention target T, form candidate groups matching the
 * layout, validate their consistency, and escalate T until enough
 * groups are found.
 */

#ifndef UTRR_CORE_ROW_SCOUT_HH
#define UTRR_CORE_ROW_SCOUT_HH

#include <set>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "core/mapping_reveng.hh"
#include "core/row_group.hh"
#include "dram/data_pattern.hh"
#include "softmc/host.hh"

namespace utrr
{

/**
 * Row Scout profiling configuration (the "profiling configuration" box
 * of Fig. 3).
 */
struct RowScoutConfig
{
    Bank bank = 0;
    /** Logical row range [rowStart, rowEnd) to search. */
    Row rowStart = 0;
    Row rowEnd = 8 * 1024;
    /** Desired group layout. */
    RowGroupLayout layout = RowGroupLayout::parse("R-R");
    /** Number of groups to find. */
    int groupCount = 1;
    /** Data pattern used for profiling (and later by TRR-A). */
    DataPattern pattern = DataPattern::allOnes();
    /** Initial retention target and escalation step. */
    Time initialT = 200 * kNsPerMs;
    Time stepT = 100 * kNsPerMs;
    Time maxT = 2'000 * kNsPerMs;
    /**
     * Retention-consistency validations per candidate row. The paper
     * uses 1000; tests lower it for speed.
     */
    int consistencyChecks = 1000;
    /** Minimum physical distance between two selected groups. */
    int groupSeparation = 16;
    /**
     * Self-healing: post-acceptance stability re-validations per
     * profiled row (0 disables the pass). Under fault injection a row
     * can flip to a VRT high-retention mode *after* acceptance; the
     * re-validation pass catches it, evicts the group and scouts a
     * replacement at the same retention T.
     */
    int revalidateChecks = 0;
    /** Bounded retries: max group evictions per re-validation pass. */
    int maxEvictions = 8;
    /**
     * Physical rows never to select (e.g. rows burned by a previous
     * scout whose groups produced degenerate analyzer results).
     */
    std::vector<Row> excludePhys;
};

/**
 * Row Scout.
 */
class RowScout
{
  public:
    RowScout(SoftMcHost &host, DiscoveredMapping mapping,
             RowScoutConfig config);

    /**
     * Run the Fig. 6 search. Returns the found groups (possibly fewer
     * than requested if maxT is reached; a warning is emitted then).
     */
    std::vector<RowGroup> scout();

    /**
     * Scan the configured range once: the rows that fail within @p t,
     * as (logical row, observed flip count) in ascending row order.
     * The range is written and read back with one host range op each.
     */
    std::vector<std::pair<Row, int>> scanFailingRows(Time t);

    /**
     * Validate that a row holds data for T/2 and fails after T,
     * @p checks times (the VRT filter).
     */
    bool validateRetention(Row logical_row, Time t, int checks);

    /** Number of consistency validations performed so far. */
    std::uint64_t validationsRun() const { return validations; }

    /**
     * Self-healing pass (also run by scout() when revalidateChecks > 0):
     * re-validate every group's rows against their profiled retention;
     * evict groups with a row that no longer holds-then-fails (VRT mode
     * flip, retention drift), permanently burn the offending rows, and
     * scout replacement groups at the same retention T. Bounded by
     * maxEvictions; may return fewer groups than requested.
     */
    std::vector<RowGroup> revalidateAndReplace(std::vector<RowGroup> groups);

    /** Groups evicted by re-validation so far. */
    std::uint64_t evictionsPerformed() const { return evictions; }

    /** Replacement groups found after evictions so far. */
    std::uint64_t replacementsFound() const { return replacements; }

  private:
    /** Physical rows as one flag each (row_scout.cc). */
    class PhysRowSet;

    /**
     * Candidate groups at @p t, in ascending physical base row, from
     * @p first_fail: per row of the range (index row - rowStart), the
     * smallest scanned T the row failed at, or 0.
     */
    std::vector<RowGroup> formCandidateGroups(
        const std::vector<Time> &first_fail, Time t) const;

    /**
     * Validate @p candidates in order and append to @p groups each
     * consistent one that keeps clear of the rows in @p reserved (which
     * every kept group's span joins), stopping once @p groups holds
     * @p needed groups.
     */
    void acceptGroups(std::vector<RowGroup> candidates, Time t,
                      PhysRowSet &reserved, std::vector<RowGroup> &groups,
                      int needed);
    std::vector<RowGroup> scoutReplacements(
        const std::vector<RowGroup> &existing, Time t, int needed);

    SoftMcHost &host;
    DiscoveredMapping mapping;
    RowScoutConfig cfg;
    std::uint64_t validations = 0;
    std::uint64_t evictions = 0;
    std::uint64_t replacements = 0;
    /** Physical rows evicted by re-validation; never selected again. */
    std::set<Row> burnedPhys;
};

} // namespace utrr

#endif // UTRR_CORE_ROW_SCOUT_HH
