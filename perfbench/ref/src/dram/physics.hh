/**
 * @file
 * Cell-level physical models: data retention (including VRT) and
 * RowHammer charge disturbance.
 *
 * These models are the substitute for real DDR4 silicon (see DESIGN.md).
 * They reproduce the behaviours U-TRR exploits:
 *
 *  - every row retains data for a row-specific time once refreshes stop;
 *    a small fraction of rows are "retention-weak" (hundreds of ms),
 *    which is what Row Scout hunts for;
 *  - some weak cells exhibit Variable Retention Time (VRT): their
 *    retention toggles between a low and a high state, defeating naive
 *    profiling — Row Scout's 1000x validation must filter them out;
 *  - activating a row disturbs physically adjacent rows; enough
 *    disturbance charge flips cells. Each row has a distribution of
 *    vulnerable cells; the weakest one defines the row's HC_first.
 *    Alternating between two aggressors pumps more charge per ACT than
 *    re-activating the same aggressor, making interleaved double-sided
 *    hammering emergently stronger than cascaded hammering (§5.2).
 */

#ifndef UTRR_DRAM_PHYSICS_HH
#define UTRR_DRAM_PHYSICS_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace utrr
{

/**
 * Configuration of the retention-failure model.
 */
struct RetentionModelConfig
{
    /**
     * Fraction of rows whose weakest cell fails within a few seconds at
     * the reference temperature (85 C). Retention-weak rows are common
     * at high temperature; Row Scout needs enough of them to assemble
     * multi-row groups such as RRR-RRR (paper §4.1).
     */
    double weakRowFraction = 0.62;
    /** Weak-row retention: lognormal median (ms) and sigma. */
    double weakRetMedianMs = 450.0;
    double weakRetSigma = 0.6;
    /** Clamp range (ms) for weak-row retention. */
    double weakRetMinMs = 110.0;
    double weakRetMaxMs = 2'500.0;
    /** Strong-row retention range (ms), uniform. */
    double strongRetMinMs = 4'000.0;
    double strongRetMaxMs = 60'000.0;
    /** Maximum number of failing cells per weak row. */
    int maxWeakCellsPerRow = 4;
    /** Additional weak cells fall in [T, T*(1+spread)]. */
    double weakCellSpread = 0.9;
    /** Fraction of weak rows containing a VRT cell. */
    double vrtRowFraction = 0.06;
    /** High-state retention multiplier for VRT cells. */
    double vrtHighFactor = 3.0;
    /** Mean dwell time in each VRT state (ms). */
    double vrtDwellMs = 4'000.0;
    /** Operating temperature; retention halves every +10 C. */
    double tempCelsius = 85.0;
    /** Reference temperature of the ranges above. */
    double refTempCelsius = 85.0;

    /** Retention scale factor for the configured temperature. */
    double tempScale() const;
};

/**
 * Configuration of the RowHammer disturbance model.
 *
 * Charge is measured in "units": one unit is the disturbance a victim
 * receives from one ACT of an immediately adjacent aggressor when the
 * previous disturbance came from a different row (alternating pattern).
 * HC_first counts per-aggressor ACTs of an interleaved double-sided
 * attack, so the weakest cell of the module's weakest row has a
 * threshold of 2 * hcFirst units.
 */
struct HammerModelConfig
{
    /** Module-level HC_first (Table 1 column). */
    double hcFirst = 15'000.0;
    /** Lognormal sigma of the per-row base threshold above hcFirst. */
    double rowSigma = 0.45;
    /** Number of hammer-vulnerable cells modelled per row. */
    int cellsPerRow = 192;
    /** Strongest modelled cell threshold = base * (1 + cellSpreadMax). */
    double cellSpreadMax = 9.0;
    /** Disturbance weight of a distance-2 aggressor. */
    double distance2Weight = 0.05;
    /**
     * Weight of an ACT whose previous disturber was the same row.
     * Makes alternating (interleaved double-sided) hammering stronger
     * than back-to-back re-activation, and single-sided hammering
     * ~4x weaker than interleaved double-sided per aggressor ACT.
     */
    double repeatWeight = 0.5;
    /** Weight factor when aggressor and victim store the same data. */
    double sameDataWeight = 0.6;
    /**
     * Paired-row organization (vendor C modules C0-8, Observation C3):
     * row R only disturbs its pair row R^1, and vice versa.
     */
    bool paired = false;
};

/**
 * A retention-weak cell within a row.
 */
struct WeakCell
{
    Col col = 0;
    /** Low-state retention time (ns) at operating temperature. */
    Time retention = 0;
    /** The data value this cell holds charge for; it decays to !charged. */
    bool chargedValue = true;
    /** Whether the cell exhibits VRT. */
    bool vrt = false;
};

/**
 * A RowHammer-vulnerable cell within a row.
 */
struct HammerCell
{
    /** Charge units required to flip this cell. */
    double threshold = 0.0;
    Col col = 0;
    /** The value the cell flips away from. */
    bool chargedValue = true;
};

/**
 * Immutable physical description of one row, generated deterministically
 * from (module seed, bank, physical row).
 */
struct RowPhysics
{
    /** Weak cells sorted by ascending retention. */
    std::vector<WeakCell> weakCells;
    /** Hammer cells sorted by ascending threshold. */
    std::vector<HammerCell> hammerCells;

    /**
     * Strict lower bound on every hammer-cell threshold of this row,
     * known without generating the cells themselves (it is the per-row
     * base threshold; cells spread upward from it). The bank defers
     * hammer-cell generation until a row's accumulated charge reaches
     * this bound, which keeps lightly-disturbed rows (every neighbour
     * of a scanned row) free of the ~cellsPerRow generation cost.
     * +inf for hand-built physics that never attach hammer cells.
     */
    double hammerBaseThreshold =
        std::numeric_limits<double>::infinity();

    /** Retention of the weakest (non-VRT-adjusted) cell; 0 if none. */
    Time minRetention() const
    {
        return weakCells.empty() ? 0 : weakCells.front().retention;
    }

    /** Threshold of the weakest hammer cell (+inf if none modelled). */
    double minHammerThreshold() const;
};

/**
 * Generates per-row physics on demand.
 */
class PhysicsGenerator
{
  public:
    PhysicsGenerator(RetentionModelConfig ret_cfg,
                     HammerModelConfig ham_cfg, std::uint64_t module_seed,
                     int row_bits);

    /** Deterministically generate the physics of one physical row. */
    RowPhysics generate(Bank bank, Row phys_row) const;

    /** Generate only the retention part (cheaper; used by tests). */
    RowPhysics generateRetention(Bank bank, Row phys_row) const;

    const RetentionModelConfig &retentionConfig() const { return retCfg; }
    const HammerModelConfig &hammerConfig() const { return hamCfg; }
    int rowBits() const { return bits; }

  private:
    void fillRetention(RowPhysics &phys, Rng &rng) const;
    double drawHammerBase(Rng &rng) const;
    void fillHammer(RowPhysics &phys, Rng &rng, double base) const;

    Rng rowRng(Bank bank, Row phys_row) const;

    RetentionModelConfig retCfg;
    HammerModelConfig hamCfg;
    std::uint64_t seed;
    int bits;
};

} // namespace utrr

#endif // UTRR_DRAM_PHYSICS_HH
