/**
 * @file
 * Logical-to-physical row address mapping (paper §5.3).
 *
 * Two effects make consecutive logical rows non-adjacent in silicon:
 *
 *  1. the row decoder may scramble addresses (we model the common
 *     "swap the last two rows of every 4-row group" layout observed in
 *     real chips, i.e. logical 0,1,2,3 -> physical 0,1,3,2);
 *  2. post-manufacturing repair remaps faulty logical rows to spare
 *     physical rows elsewhere in the bank.
 *
 * U-TRR must reverse-engineer this mapping before running experiments;
 * core/mapping_reveng.{hh,cc} does exactly that against this model.
 */

#ifndef UTRR_DRAM_MAPPING_HH
#define UTRR_DRAM_MAPPING_HH

#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace utrr
{

/** Row-decoder scrambling schemes. */
enum class RowScramble
{
    /** Physical order equals logical order. */
    kSequential,
    /** Within each 4-row group, the last two rows are swapped. */
    kSwapHalfPairs,
    /** Bit 0 and bit 1 of the row address are exchanged. */
    kBitSwap01,
};

/** Human-readable scramble name. */
std::string scrambleName(RowScramble scramble);

/**
 * Apply a decoder scramble to a row address. All modelled schemes are
 * involutions, so the same function maps logical->physical and back.
 */
Row applyScramble(RowScramble scramble, Row row);

/**
 * Bijective logical<->physical row mapping for one bank, including
 * spare-row remaps.
 *
 * The physical row space is [0, rows + spareRows): indices >= rows are
 * spare rows used as remap targets.
 */
class RowMapping
{
  public:
    /**
     * @param scramble decoder scrambling scheme
     * @param rows number of addressable (logical) rows
     * @param remap_count number of repaired rows remapped to spares
     * @param rng source of randomness for choosing repaired rows
     * @param spare_rows size of the spare region
     */
    RowMapping(RowScramble scramble, Row rows, int remap_count, Rng rng,
               Row spare_rows = 64);

    /** Map a logical row address to its physical location. */
    Row toPhysical(Row logical) const;

    /**
     * Map a physical location back to the logical address that selects
     * it, or kInvalidRow for unmapped physical rows (vacated by repair,
     * or unused spares).
     */
    Row toLogical(Row physical) const;

    /** Number of addressable logical rows. */
    Row rows() const { return rowCount; }

    /** Total physical rows including spares. */
    Row physicalRows() const { return rowCount + spareCount; }

    /** True if the given logical row was remapped by repair. */
    bool isRemapped(Row logical) const;

    /** Number of remapped rows. */
    int remapCount() const { return static_cast<int>(repairs.size()); }

  private:
    /** A repaired row: its logical address and the spare it moved to. */
    struct Repair
    {
        Row logical;
        Row spare;
    };

    Row scrambleRow(Row logical) const;
    Row unscrambleRow(Row physical) const;

    RowScramble scramble;
    Row rowCount;
    Row spareCount;
    /**
     * Every repair, in placement order. A few per bank and never more
     * than the spares, so every lookup is a scan. The scrambled slot a
     * repaired row vacated is unmapped (toLogical gives kInvalidRow).
     */
    std::vector<Repair> repairs;
};

} // namespace utrr

#endif // UTRR_DRAM_MAPPING_HH
