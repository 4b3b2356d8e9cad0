#include "core/row_scout.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/profiler.hh"

namespace utrr
{

/**
 * A set of physical rows as one flag per row: O(1) membership and
 * ascending iteration for the per-scan bookkeeping.
 */
class RowScout::PhysRowSet
{
  public:
    /** Room for rows [0, @p rows); larger rows grow the set. */
    explicit PhysRowSet(Row rows)
        : flags(static_cast<std::size_t>(std::max<Row>(rows, 0)), 0)
    {
    }

    void
    insert(Row phys)
    {
        UTRR_ASSERT(phys >= 0,
                    logFmt("physical row ", phys, " out of range"));
        if (phys >= bound())
            flags.resize(static_cast<std::size_t>(phys) + 1, 0);
        flags[static_cast<std::size_t>(phys)] = 1;
    }

    bool
    contains(Row phys) const
    {
        return phys >= 0 && phys < bound() &&
            flags[static_cast<std::size_t>(phys)] != 0;
    }

    /** One past the largest row the set holds without growing. */
    Row bound() const { return static_cast<Row>(flags.size()); }

  private:
    std::vector<std::uint8_t> flags;
};

RowScout::RowScout(SoftMcHost &host, DiscoveredMapping mapping,
                   RowScoutConfig config)
    : host(host), mapping(std::move(mapping)), cfg(std::move(config))
{
    UTRR_ASSERT(cfg.rowStart >= 0 && cfg.rowEnd > cfg.rowStart,
                "bad row range");
    UTRR_ASSERT(cfg.initialT > 0 && cfg.stepT > 0, "bad T schedule");
    burnedPhys.insert(cfg.excludePhys.begin(), cfg.excludePhys.end());
}

std::vector<std::pair<Row, int>>
RowScout::scanFailingRows(Time t)
{
    // Batch profiling pass: initialize every row in the range, let the
    // whole range decay for t with refresh disabled, then read back.
    ProfSpan span("row_scout.scan", host.clockPtr(), &host.trace());
    host.writeRows(cfg.bank, cfg.rowStart, cfg.rowEnd, cfg.pattern);
    host.wait(t);
    const std::vector<int> flips =
        host.readRows(cfg.bank, cfg.rowStart, cfg.rowEnd, cfg.pattern);

    std::vector<std::pair<Row, int>> failing;
    for (std::size_t i = 0; i < flips.size(); ++i) {
        if (flips[i] > 0)
            failing.emplace_back(cfg.rowStart + static_cast<Row>(i),
                                 flips[i]);
    }
    return failing;
}

bool
RowScout::validateRetention(Row logical_row, Time t, int checks)
{
    UTRR_PROF_SCOPE_SIM("row_scout.validate", host.clockPtr());
    for (int i = 0; i < checks; ++i) {
        ++validations;
        // Hold check: the row must retain its data strictly longer
        // than t/2 (0.55*t adds margin for the time an experiment
        // spends hammering before the mid-point REF). A row that fails
        // before t/2 could never be saved by a TRR-induced refresh and
        // would always read as "not refreshed" (paper footnote 4).
        host.writeRow(cfg.bank, logical_row, cfg.pattern);
        host.wait(t * 55 / 100);
        if (host.readRow(cfg.bank, logical_row)
                .countFlipsVs(cfg.pattern, logical_row) != 0) {
            return false;
        }
        // Fail check: the row must reliably fail after t.
        host.writeRow(cfg.bank, logical_row, cfg.pattern);
        host.wait(t);
        if (host.readRow(cfg.bank, logical_row)
                .countFlipsVs(cfg.pattern, logical_row) == 0) {
            return false;
        }
    }
    return true;
}

std::vector<RowGroup>
RowScout::formCandidateGroups(const std::vector<Time> &first_fail,
                              Time t) const
{
    // Eligible rows: failed first in (t/2, t], so they hold for t/2 and
    // fail by t — exactly the side-channel requirement.
    PhysRowSet eligible_phys(mapping.rows());
    for (std::size_t i = 0; i < first_fail.size(); ++i) {
        const Time fail_t = first_fail[i];
        if (fail_t <= t / 2 || fail_t > t)
            continue;
        const Row logical = cfg.rowStart + static_cast<Row>(i);
        if (mapping.isAnomalous(logical))
            continue;
        const Row phys = mapping.toPhysical(logical);
        if (burnedPhys.count(phys))
            continue; // evicted by re-validation; never trust it again
        eligible_phys.insert(phys);
    }

    std::vector<RowGroup> candidates;
    const auto &offsets = cfg.layout.profiledOffsets();
    for (Row base = 0; base < eligible_phys.bound(); ++base) {
        if (!eligible_phys.contains(base))
            continue;
        bool ok = true;
        for (int off : offsets) {
            if (!eligible_phys.contains(base + off)) {
                ok = false;
                break;
            }
        }
        if (!ok)
            continue;
        // Gap (aggressor) positions must be addressable, in range and
        // not known-remapped.
        for (int gap : cfg.layout.gapOffsets()) {
            const Row gap_logical = mapping.toLogical(base + gap);
            if (gap_logical < cfg.rowStart || gap_logical >= cfg.rowEnd ||
                mapping.isAnomalous(gap_logical)) {
                ok = false;
                break;
            }
        }
        if (!ok)
            continue;

        RowGroup group;
        group.layout = cfg.layout;
        group.basePhysRow = base;
        group.bank = cfg.bank;
        group.retention = t;
        for (int off : offsets) {
            ProfiledRow row;
            row.bank = cfg.bank;
            row.physRow = base + off;
            row.logicalRow = mapping.toLogical(base + off);
            row.retention = t;
            group.rows.push_back(row);
        }
        candidates.push_back(std::move(group));
    }
    return candidates;
}

void
RowScout::acceptGroups(std::vector<RowGroup> candidates, Time t,
                       PhysRowSet &reserved, std::vector<RowGroup> &groups,
                       int needed)
{
    const auto overlaps_reserved = [&](const RowGroup &group) {
        for (int d = -cfg.groupSeparation;
             d < cfg.layout.span() + cfg.groupSeparation; ++d) {
            if (reserved.contains(group.basePhysRow + d))
                return true;
        }
        return false;
    };
    for (RowGroup &group : candidates) {
        if (overlaps_reserved(group))
            continue;
        bool consistent = true;
        for (const ProfiledRow &row : group.rows) {
            if (!validateRetention(row.logicalRow, t,
                                   cfg.consistencyChecks)) {
                consistent = false;
                UTRR_DEBUG("row ", row.logicalRow,
                           " failed consistency (VRT?)");
                break;
            }
        }
        if (!consistent)
            continue;
        for (int d = 0; d < cfg.layout.span(); ++d)
            reserved.insert(group.basePhysRow + d);
        groups.push_back(std::move(group));
        if (static_cast<int>(groups.size()) >= needed)
            return;
    }
}

std::vector<RowGroup>
RowScout::scout()
{
    // All returned groups must share one retention time T (paper §4.1:
    // "multiple rows that have the same retention times"), so every T
    // escalation restarts group selection from scratch (Fig. 6).
    // first_fail[i]: the first T row rowStart + i failed at, or 0.
    std::vector<Time> first_fail(
        static_cast<std::size_t>(cfg.rowEnd - cfg.rowStart), 0);
    std::vector<RowGroup> best;

    ProfSpan span("row_scout.scout", host.clockPtr(), &host.trace());
    for (Time t = cfg.initialT; t <= cfg.maxT; t += cfg.stepT) {
        UTRR_DEBUG("row scout: scanning at T = ", nsToMs(t), " ms");
        for (const auto &[row, flips] : scanFailingRows(t)) {
            Time &first = first_fail[static_cast<std::size_t>(
                row - cfg.rowStart)];
            if (first == 0)
                first = t;
        }

        std::vector<RowGroup> groups;
        PhysRowSet reserved_phys(mapping.rows());
        acceptGroups(formCandidateGroups(first_fail, t), t, reserved_phys,
                     groups, cfg.groupCount);
        if (static_cast<int>(groups.size()) >= cfg.groupCount)
            return revalidateAndReplace(std::move(groups));
        if (groups.size() > best.size())
            best = std::move(groups);
    }

    warn(logFmt("row scout found only ", best.size(), " of ",
                cfg.groupCount, " requested groups (layout ",
                cfg.layout.text(), ")"));
    return revalidateAndReplace(std::move(best));
}

std::vector<RowGroup>
RowScout::scoutReplacements(const std::vector<RowGroup> &existing, Time t,
                            int needed)
{
    // Replacement groups must share the survivors' retention T (paper
    // §4.1), so eligibility is rebuilt at exactly that T: one scan at
    // the hold point marks early failers ineligible, one scan at T
    // marks the rest eligible.
    std::vector<Time> first_fail(
        static_cast<std::size_t>(cfg.rowEnd - cfg.rowStart), 0);
    for (const Time scan_t : {t / 2, t}) {
        for (const auto &[row, flips] : scanFailingRows(scan_t)) {
            Time &first = first_fail[static_cast<std::size_t>(
                row - cfg.rowStart)];
            if (first == 0)
                first = scan_t;
        }
    }

    PhysRowSet reserved_phys(mapping.rows());
    for (const RowGroup &group : existing) {
        for (int d = 0; d < cfg.layout.span(); ++d)
            reserved_phys.insert(group.basePhysRow + d);
    }
    std::vector<RowGroup> found;
    acceptGroups(formCandidateGroups(first_fail, t), t, reserved_phys,
                 found, needed);
    return found;
}

std::vector<RowGroup>
RowScout::revalidateAndReplace(std::vector<RowGroup> groups)
{
    if (cfg.revalidateChecks <= 0)
        return groups;
    ProfSpan span("row_scout.revalidate", host.clockPtr(), &host.trace());

    int eviction_budget = cfg.maxEvictions;
    while (eviction_budget > 0) {
        // Stability pass: every accepted row must still hold for T/2
        // and fail at T. A row that stopped failing (VRT flip to the
        // high-retention mode, upward drift) would make "no flips" an
        // ambiguous signal in the analyzer, so its group is evicted.
        std::size_t i = 0;
        bool evicted_any = false;
        while (i < groups.size() && eviction_budget > 0) {
            RowGroup &group = groups[i];
            bool healthy = true;
            for (const ProfiledRow &row : group.rows) {
                if (!validateRetention(row.logicalRow, group.retention,
                                       cfg.revalidateChecks)) {
                    UTRR_DEBUG("row scout: evicting group at phys ",
                               group.basePhysRow, " (row ",
                               row.logicalRow, " unstable)");
                    healthy = false;
                    break;
                }
            }
            if (healthy) {
                ++i;
                continue;
            }
            for (const ProfiledRow &row : group.rows)
                burnedPhys.insert(row.physRow);
            groups.erase(groups.begin() +
                         static_cast<std::ptrdiff_t>(i));
            ++evictions;
            --eviction_budget;
            evicted_any = true;
            if (MetricsRegistry *m = host.attachedMetrics())
                m->counter("row_scout.evictions").inc();
        }
        if (!evicted_any)
            break;

        const int missing =
            cfg.groupCount - static_cast<int>(groups.size());
        if (missing <= 0 || groups.empty())
            break;
        // Replacements profile at the survivors' shared T; they get the
        // same stability pass on the next loop iteration.
        for (RowGroup &fresh :
             scoutReplacements(groups, groups.front().retention,
                               missing)) {
            groups.push_back(std::move(fresh));
            ++replacements;
            if (MetricsRegistry *m = host.attachedMetrics())
                m->counter("row_scout.replacements").inc();
        }
    }

    if (static_cast<int>(groups.size()) < cfg.groupCount) {
        warn(logFmt("row scout re-validation left ", groups.size(),
                    " of ", cfg.groupCount, " groups after ", evictions,
                    " evictions"));
    }
    return groups;
}

} // namespace utrr
