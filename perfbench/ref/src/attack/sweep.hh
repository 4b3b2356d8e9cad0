/**
 * @file
 * Bank-sweep harness for attack evaluation (paper §7.2-§7.3).
 *
 * The paper sweeps aggressor positions across a whole DRAM bank and
 * reports per-row flip distributions (Fig. 8), the fraction of
 * vulnerable rows (Fig. 9, Table 1) and per-8-byte-word flip counts
 * (Fig. 10). A full sweep of a 64K-row bank takes hours even on real
 * hardware; the harness samples a configurable number of uniformly
 * spread victim positions (use positions >= rowsPerBank for the
 * paper's full sweep).
 */

#ifndef UTRR_ATTACK_SWEEP_HH
#define UTRR_ATTACK_SWEEP_HH

#include "attack/evaluator.hh"
#include "attack/pattern.hh"
#include "common/stats.hh"
#include "core/reveng.hh"
#include "dram/module_spec.hh"

namespace utrr
{

/** Sweep configuration. */
struct SweepConfig
{
    Bank bank = 0;
    /** Victim anchor positions sampled across the bank. */
    int positions = 64;
    /**
     * REF intervals each position runs for; 0 selects one full
     * regular-refresh sweep (the victim's maximum unrefreshed window).
     */
    int windowRefs = 0;
    /**
     * Aggressor hammers knob (semantics per vendor, see
     * CustomPatternParams::aggressorHammers); 0 selects the vendor
     * default.
     */
    int aggressorHammers = 0;
};

/** Aggregated sweep statistics. */
struct SweepResult
{
    int positionsTested = 0;
    int victimRowsTested = 0;
    int vulnerableRows = 0;
    /** Flips per victim row (box-plot input, Fig. 8). */
    std::vector<double> flipsPerRow;
    /** Flips per 8-byte word across all victims (Fig. 10). */
    Histogram wordFlips;
    int maxRowFlips = 0;
    /** Normalized x-axis of Fig. 8. */
    double hammersPerAggrPerRef = 0.0;

    double
    vulnerableFraction() const
    {
        return victimRowsTested == 0
            ? 0.0
            : static_cast<double>(vulnerableRows) /
                static_cast<double>(victimRowsTested);
    }

    /** Table 1's "Max. Bit Flips per Row per Hammer" column. */
    double
    maxFlipsPerRowPerHammer() const
    {
        return hammersPerAggrPerRef == 0.0
            ? 0.0
            : static_cast<double>(maxRowFlips) / hammersPerAggrPerRef;
    }
};

/**
 * Default custom-pattern parameters for a module, as the paper derives
 * them per vendor in §7.1 (24 hammers/aggressor for A, 220 per window
 * for B, window-filling burst for C).
 */
CustomPatternParams defaultCustomParams(const ModuleSpec &spec);

/** Custom-pattern parameters from a reverse-engineered profile. */
CustomPatternParams customParamsFromProfile(char vendor,
                                            const TrrProfile &profile,
                                            bool paired);

/** Sweep the U-TRR custom pattern over sampled victim positions. */
SweepResult sweepCustomPattern(SoftMcHost &host,
                               const DiscoveredMapping &mapping,
                               const CustomPatternParams &params,
                               const SweepConfig &config);

/** Baseline pattern families for comparison sweeps. */
enum class BaselineKind
{
    kSingleSided,
    kDoubleSided,
    kManySided9, // TRRespass-style 9-sided
    kManySided19,
};

std::string baselineName(BaselineKind kind);

/** Sweep a baseline pattern over sampled victim positions. */
SweepResult sweepBaseline(SoftMcHost &host,
                          const DiscoveredMapping &mapping,
                          BaselineKind kind, const SweepConfig &config);

} // namespace utrr

#endif // UTRR_ATTACK_SWEEP_HH
