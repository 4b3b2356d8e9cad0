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
#include "attack/hammer_pattern.hh"
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
 * Parameters of the U-TRR custom patterns (§7.1), normally taken from
 * a reverse-engineered TrrProfile.
 */
struct CustomPatternParams
{
    /** 'A', 'B' or 'C' (selects the evasion strategy). */
    char vendor = 'A';
    /** Discovered TRR-to-REF period. */
    int trrPeriod = 9;
    /**
     * Aggressor hammers: per aggressor per slot (vendor A) or per
     * aggressor per TRR window (vendors B and C).
     */
    int aggressorHammers = 24;
    /** Vendor B: per-bank detection (B_TRR3) — dummy in the same bank. */
    bool perBankSampler = false;
    /** Paired-row modules (C0-8): vendor C's aggressors get a fixed
     *  share instead of an eighth of the window. */
    bool paired = false;
};

/**
 * Default custom-pattern parameters for a module: the profile
 * derivation below, fed the spec's TRR-to-REF period, sampler scope
 * and row pairing (24 hammers/aggressor for A, up to 220 per window
 * for B, an eighth of the window for C).
 */
CustomPatternParams defaultCustomParams(const ModuleSpec &spec);

/** Custom-pattern parameters from a reverse-engineered profile. */
CustomPatternParams customParamsFromProfile(char vendor,
                                            const TrrProfile &profile,
                                            bool paired);

/**
 * The vendor's custom pattern as data (H = ACTs per REF slot, P the
 * TRR-to-REF period, T the aggressor hammers):
 *  - A: every slot, both aggressors T times, then 16 same-bank dummy
 *    rows share the rest of the slot, so the low-count aggressor
 *    entries are evicted from the counter table before every
 *    TRR-capable REF;
 *  - B: period P; the aggressors fill the first floor(T/(H/2)) slots
 *    and take the rest of T in the next one, then dummies fill every
 *    slot's remaining time, four banks in parallel (one same-bank row
 *    for a per-bank sampler), so the sampler almost surely holds a
 *    dummy when the next TRR-capable REF arrives;
 *  - C: period P; one dummy row takes the first P*H - 2T ACTs after
 *    the TRR event, then the aggressors fill the rest of the period
 *    unobserved.
 */
HammerPattern customPattern(const CustomPatternParams &params,
                            const Timing &timing);

/**
 * Bind a custom pattern around physical victim @p victim_phys as
 * bindPattern() does, except that multi-bank dummy rounds (vendor B)
 * run in the banks after the victim's, never in its own.
 */
PatternBinding bindCustomPattern(const HammerPattern &pattern,
                                 const ModuleSpec &spec,
                                 const DiscoveredMapping &mapping,
                                 Bank bank, Row victim_phys);

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

/**
 * Sweep a baseline pattern over sampled victim positions: one
 * aggressor element of 1, 2, 9 or 19 rows filling every slot, bound at
 * anchor-1+2i (bindComb) on every module.
 */
SweepResult sweepBaseline(SoftMcHost &host,
                          const DiscoveredMapping &mapping,
                          BaselineKind kind, const SweepConfig &config);

} // namespace utrr

#endif // UTRR_ATTACK_SWEEP_HH
