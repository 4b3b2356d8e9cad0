/**
 * @file
 * Specifications of the 45 DDR4 modules the paper characterizes
 * (Table 1).
 *
 * Each spec carries the module's geometry, its ground-truth TRR version,
 * the measured HC_first, and the paper-reported results
 * (% vulnerable rows, max bit flips per row per hammer) that our bench
 * harnesses compare against. Ranges in Table 1 (e.g. "13K-15K" for
 * modules A1-5) are interpolated across the modules of the group.
 */

#ifndef UTRR_DRAM_MODULE_SPEC_HH
#define UTRR_DRAM_MODULE_SPEC_HH

#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "dram/mapping.hh"
#include "trr/trr.hh"

namespace utrr
{

/**
 * Static description of one DDR4 module.
 */
struct ModuleSpec
{
    std::string name;    // e.g. "A5"
    char vendor = 'A';   // 'A', 'B' or 'C'
    std::string date;    // manufacturing date, yy-ww
    int chipDensityGbit = 8;
    int ranks = 1;
    int banks = 16;
    int pins = 8; // DQ pins per chip (x8 / x16)
    Row rowsPerBank = 32 * 1024;
    int rowBits = 64 * 1024; // 8 KiB row across the rank

    /** Ground-truth TRR implementation. */
    TrrVersion trr = TrrVersion::kNone;

    /** REF commands per full regular-refresh sweep (Obs. A8: 3758). */
    int refreshPeriodRefs = 8'192;

    /** Minimum per-aggressor double-sided ACTs for the first flip. */
    double hcFirst = 15'000.0;
    /** Row-to-row spread (lognormal sigma) of hammer thresholds. */
    double hcRowSigma = 0.45;

    /** Row-decoder scrambling of this module. */
    RowScramble scramble = RowScramble::kSequential;
    /** Repaired (remapped) rows per bank. */
    int remapsPerBank = 3;

    /** Paper-reported fraction of vulnerable rows (for comparison). */
    double paperVulnerableRowsPct = 0.0;
    /** Paper-reported max bit flips per row per hammer. */
    double paperMaxFlipsPerHammer = 0.0;

    /** Paired-row organization (vendor C modules C0-8, Obs. C3). */
    bool
    paired() const
    {
        return trr == TrrVersion::kCTrr1;
    }

    /** Total physical rows per bank including the spare region. */
    Row
    physRowsPerBank() const
    {
        return rowsPerBank + 64;
    }

    /** Convenience accessors mirroring Table 1 columns. */
    TrrTraits traits() const { return trrTraits(trr); }
};

/** All 45 module specs of Table 1, in table order. */
const std::vector<ModuleSpec> &allModuleSpecs();

/** Look up a module spec by name ("A0" ... "C14"). */
std::optional<ModuleSpec> findModuleSpec(const std::string &name);

} // namespace utrr

#endif // UTRR_DRAM_MODULE_SPEC_HH
