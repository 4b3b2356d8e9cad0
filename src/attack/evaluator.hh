/**
 * @file
 * Attack evaluation harness (paper §7.2-§7.4).
 *
 * Runs a bound HammerPattern (attack/hammer_pattern.hh) for a fixed
 * number of REF intervals ("slots") while issuing REF commands at the
 * default rate (one per tREFI), exactly as the paper's SoftMC programs
 * do, then reads the victim rows and collects flip statistics:
 *  - bit flips per victim row (Fig. 8);
 *  - whether each row is vulnerable at all (Fig. 9, Table 1);
 *  - bit flips per 8-byte dataword, the unit of typical ECC (Fig. 10).
 *
 * Each slot issues what planSlot() plans for it, through the immediate
 * host API. Slots are synchronized with TRR-capable REFs
 * (alignToTrrEvent, the stand-in for the timing-channel
 * synchronization of SMASH [19] the paper relies on), so a pattern's
 * base period and phases place its hammers relative to the TRR window.
 */

#ifndef UTRR_ATTACK_EVALUATOR_HH
#define UTRR_ATTACK_EVALUATOR_HH

#include <map>
#include <utility>
#include <vector>

#include "attack/hammer_pattern.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "softmc/host.hh"

namespace utrr
{

/** Result of running one pattern at one position. */
struct AttackOutcome
{
    /** Flip count per (bank, logical victim row). */
    std::map<std::pair<Bank, Row>, int> victimFlips;
    /** Flip count per 8-byte word, for every word with >= 1 flip. */
    Histogram wordFlips;
    /** REF intervals executed. */
    int slots = 0;

    /** Total flips across victims. */
    int totalFlips() const;
    /** Largest per-row flip count. */
    int maxRowFlips() const;
    /** Number of victims with at least one flip. */
    int vulnerableRows() const;
};

/**
 * REF-synchronized attack runner.
 */
class AttackEvaluator
{
  public:
    explicit AttackEvaluator(SoftMcHost &host);

    /**
     * Align the next slot boundary to a TRR event: hammer a throwaway
     * dummy row and issue REFs until the module performs a TRR-induced
     * refresh (observed via the module's TRR counter — the simulation
     * stand-in for the REF-timing side channel the paper uses for
     * synchronization).
     */
    void alignToTrrEvent(Bank bank, Row dummy_logical, int max_refs = 64);

    /**
     * Run @p pattern on @p binding's rows for @p slots REF intervals
     * against the given victim rows and collect flip statistics.
     */
    AttackOutcome run(const HammerPattern &pattern,
                      const PatternBinding &binding,
                      const std::vector<std::pair<Bank, Row>> &victims,
                      int slots,
                      const DataPattern &victim_pattern =
                          DataPattern::allOnes(),
                      const DataPattern &aggressor_pattern =
                          DataPattern::allZeros());

    /**
     * Issue the bursts planSlot() plans for slot @p slot of @p pattern
     * on @p binding's rows: no pad, no REF. run() calls it once per
     * slot that is not lost to overrun debt.
     */
    void runSlot(const HammerPattern &pattern,
                 const PatternBinding &binding, std::uint64_t slot);

  private:
    SoftMcHost &host;
    /** Per-slot scratch, reused so the slot loop stays allocation-free
     *  after the first slot. */
    SlotPlan slotScratch;
    std::vector<std::pair<Bank, Row>> rowScratch;
    std::vector<int> countScratch;
};

} // namespace utrr

#endif // UTRR_ATTACK_EVALUATOR_HH
