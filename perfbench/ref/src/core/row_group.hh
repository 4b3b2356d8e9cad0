/**
 * @file
 * Row groups: sets of retention-profiled rows at configurable relative
 * positions (paper §3.1, §4.1).
 *
 * A layout string uses 'R' for a retention-profiled row and '-' for a
 * one-row gap, e.g. "R-R" (two profiled rows around one aggressor
 * position) or "RRR-RRR" (three profiled rows on each side of an
 * aggressor position). Positions refer to *physical* row order; Row
 * Scout uses the reverse-engineered mapping to realize them.
 */

#ifndef UTRR_CORE_ROW_GROUP_HH
#define UTRR_CORE_ROW_GROUP_HH

#include <string>
#include <vector>

#include "common/types.hh"

namespace utrr
{

/**
 * Parsed row-group layout.
 */
class RowGroupLayout
{
  public:
    /** Parse a layout string such as "R-R" or "RRR-RRR". */
    static RowGroupLayout parse(const std::string &text);

    /** Offsets (in physical rows) of the profiled ('R') positions. */
    const std::vector<int> &profiledOffsets() const { return rOffsets; }

    /** Offsets of the gap ('-') positions (aggressor candidates). */
    const std::vector<int> &gapOffsets() const { return gaps; }

    /** Total number of row positions the layout spans. */
    int span() const { return spanRows; }

    /** Number of profiled rows. */
    int profiledRows() const
    {
        return static_cast<int>(rOffsets.size());
    }

    /** Original layout string. */
    const std::string &text() const { return layoutText; }

  private:
    std::string layoutText;
    std::vector<int> rOffsets;
    std::vector<int> gaps;
    int spanRows = 0;
};

/**
 * One retention-profiled row as reported by Row Scout.
 */
struct ProfiledRow
{
    Bank bank = 0;
    /** Host-visible (logical) row address. */
    Row logicalRow = kInvalidRow;
    /** Physical location according to the discovered mapping. */
    Row physRow = kInvalidRow;
    /** Nominal retention time T: the row holds data for T/2 but fails
     *  after T. */
    Time retention = 0;
};

/**
 * A group of profiled rows matching a layout, anchored at a base
 * physical row.
 */
struct RowGroup
{
    RowGroupLayout layout;
    Row basePhysRow = kInvalidRow;
    Bank bank = 0;
    /** Profiled rows, in layout order. */
    std::vector<ProfiledRow> rows;
    /** Nominal retention time shared by the group. */
    Time retention = 0;

    /** Physical rows of the gap positions (aggressor placements). */
    std::vector<Row> gapPhysRows() const;
};

} // namespace utrr

#endif // UTRR_CORE_ROW_GROUP_HH
