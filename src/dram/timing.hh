/**
 * @file
 * DDR4 timing parameters used by the SoftMC-like host to advance the
 * simulated clock.
 *
 * Values follow the typical DDR4 datasheet numbers the paper quotes
 * (footnote 10): tRAS = 35 ns, tRP = 15 ns, tRFC = 350 ns and
 * tREFI = 7.8 us, which allow at most 149 single-bank hammers between two
 * REF commands.
 */

#ifndef UTRR_DRAM_TIMING_HH
#define UTRR_DRAM_TIMING_HH

#include "common/types.hh"

namespace utrr
{

/**
 * DDR4 timing parameters (all in nanoseconds).
 */
struct Timing
{
    /** ACT to PRE minimum (row active time). */
    Time tRAS = 35;
    /** PRE to ACT minimum (precharge time). */
    Time tRP = 15;
    /** ACT to RD/WR minimum. */
    Time tRCD = 15;
    /** REF completion time. */
    Time tRFC = 350;
    /** Average periodic refresh interval. */
    Time tREFI = 7'800;
    /** Four-activation window: at most 4 ACTs per tFAW across banks. */
    Time tFAW = 30;
    /** RD/WR burst occupancy (command to data completion). */
    Time tBURST = 5;
    /** Write recovery before PRE. */
    Time tWR = 15;

    /** Nominal refresh period over which all rows must be refreshed. */
    Time refreshPeriod = 64 * kNsPerMs;

    /** One full ACT+PRE hammer cycle. */
    Time hammerCycle() const { return tRAS + tRP; }

    /** One ACT + WR/RD burst + PRE row access (writeRow, readRow). */
    Time rowCycle() const { return tRAS + tBURST + tRP; }

    /**
     * Maximum number of single-bank hammers that fit between two REF
     * commands at the default refresh rate (149 with default values).
     */
    int
    hammersPerRefi() const
    {
        return static_cast<int>((tREFI - tRFC) / hammerCycle());
    }

    /** Number of REF commands the controller issues per refresh period. */
    int
    refsPerPeriod() const
    {
        return static_cast<int>(refreshPeriod / tREFI);
    }
};

} // namespace utrr

#endif // UTRR_DRAM_TIMING_HH
