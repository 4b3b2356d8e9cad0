/**
 * @file
 * RowHammer access patterns (paper §2.3, §7.1).
 *
 * A pattern emits DDR commands for one REF interval ("slot") at a time;
 * the AttackEvaluator issues a REF at the end of every slot, exactly
 * like the paper's SoftMC programs, which comply with the default
 * 7.8 us refresh rate while hammering. Slots are synchronized with
 * TRR-capable REFs (the evaluator aligns slot 0 to a TRR event, the
 * stand-in for the timing-channel synchronization of SMASH [19] the
 * paper relies on), so patterns can place their hammers relative to the
 * TRR window:
 *
 *  - vendor A (§7.1): hammer both aggressors a few tens of times per
 *    slot, then hammer 16 dummy rows so the freshly (re)inserted,
 *    low-count aggressor entries are evicted from the counter table
 *    before every TRR-capable REF;
 *  - vendor B: hammer the aggressors right after a TRR-capable REF and
 *    fill the rest of the window with dummy-row activations (in four
 *    banks, tFAW-bound) so the sampler almost surely holds a dummy when
 *    the next TRR-capable REF arrives;
 *  - vendor C: fill the detection window (the first ~2K ACTs after a
 *    TRR event) with dummy activations, then hammer the aggressors
 *    unobserved until the next TRR event.
 */

#ifndef UTRR_ATTACK_PATTERN_HH
#define UTRR_ATTACK_PATTERN_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "core/mapping_reveng.hh"
#include "softmc/host.hh"

namespace utrr
{

/**
 * A REF-synchronized RowHammer access pattern.
 */
class AccessPattern
{
  public:
    virtual ~AccessPattern() = default;

    /** Pattern name for tables and logs. */
    virtual std::string name() const = 0;

    /** Called once when the evaluator starts running the pattern. */
    virtual void begin(SoftMcHost &) {}

    /** Emit the commands of one REF interval. */
    virtual void runSlot(SoftMcHost &host, std::uint64_t slot) = 0;

    /** Aggressor rows (bank, logical) that need data initialization. */
    virtual std::vector<std::pair<Bank, Row>> aggressorRows() const = 0;
};

/** Classic single-sided RowHammer (Fig. 2a). */
class SingleSidedPattern : public AccessPattern
{
  public:
    SingleSidedPattern(Bank bank, Row aggressor_logical,
                       int hammers_per_slot);

    std::string name() const override { return "single-sided"; }
    void runSlot(SoftMcHost &host, std::uint64_t slot) override;
    std::vector<std::pair<Bank, Row>> aggressorRows() const override;

  private:
    Bank bank;
    Row aggressor;
    int hammers;
};

/** Classic double-sided RowHammer (Fig. 2b). */
class DoubleSidedPattern : public AccessPattern
{
  public:
    DoubleSidedPattern(Bank bank, Row aggr0_logical, Row aggr1_logical,
                       int hammers_per_aggr_per_slot);

    std::string name() const override { return "double-sided"; }
    void runSlot(SoftMcHost &host, std::uint64_t slot) override;
    std::vector<std::pair<Bank, Row>> aggressorRows() const override;

  private:
    Bank bank;
    Row aggr0;
    Row aggr1;
    int hammers;
};

/** TRRespass-style many-sided hammering (the state-of-the-art
 *  baseline [24]). */
class ManySidedPattern : public AccessPattern
{
  public:
    ManySidedPattern(Bank bank, std::vector<Row> aggressors_logical,
                     int hammers_per_aggr_per_slot);

    std::string name() const override;
    void runSlot(SoftMcHost &host, std::uint64_t slot) override;
    std::vector<std::pair<Bank, Row>> aggressorRows() const override;

  private:
    Bank bank;
    std::vector<Row> aggressors;
    int hammers;
};

/**
 * Parameters of the U-TRR custom patterns, normally taken from a
 * reverse-engineered TrrProfile.
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
    /** Vendor A: number of dummy rows used to evict the aggressors. */
    int dummyCount = 16;
    /** Vendor B: dummy banks hammered in parallel (tFAW-bound). */
    int dummyBanks = 4;
    /** Vendor B: per-bank detection (B_TRR3) — dummy in the same bank. */
    bool perBankSampler = false;
    /** Vendor C: discovered detection-window length in ACTs. */
    int windowActs = 2'048;
    /** Paired-row modules (C0-8): aggressors are the pair rows. */
    bool paired = false;
};

/** Vendor A custom pattern (§7.1). */
class VendorAPattern : public AccessPattern
{
  public:
    VendorAPattern(Bank bank, Row aggr0, Row aggr1,
                   std::vector<Row> dummies, int hammers_per_aggr,
                   Timing timing);

    std::string name() const override { return "utrr-A"; }
    void runSlot(SoftMcHost &host, std::uint64_t slot) override;
    std::vector<std::pair<Bank, Row>> aggressorRows() const override;

  private:
    Bank bank;
    Row aggr0;
    Row aggr1;
    std::vector<Row> dummies;
    int aggrHammers;
    int dummyHammers;
};

/** Vendor B custom pattern (§7.1). */
class VendorBPattern : public AccessPattern
{
  public:
    /**
     * @param dummy_rows (bank, logical) dummy rows hammered in parallel
     *        after the aggressors within each TRR window
     */
    VendorBPattern(Bank bank, Row aggr0, Row aggr1,
                   std::vector<std::pair<Bank, Row>> dummy_rows,
                   int hammers_per_aggr_per_window, int trr_period,
                   Timing timing);

    std::string name() const override { return "utrr-B"; }
    void begin(SoftMcHost &host) override;
    void runSlot(SoftMcHost &host, std::uint64_t slot) override;
    std::vector<std::pair<Bank, Row>> aggressorRows() const override;

  private:
    Bank bank;
    Row aggr0;
    Row aggr1;
    std::vector<std::pair<Bank, Row>> dummyRows;
    int aggrPerWindow;
    int trrPeriod;
    Timing timing;
    int aggrLeftInWindow = 0;
};

/** Vendor C custom pattern (§7.1). */
class VendorCPattern : public AccessPattern
{
  public:
    VendorCPattern(Bank bank, Row aggr0, Row aggr1, Row dummy,
                   int window_acts, int trr_period, Timing timing);

    std::string name() const override { return "utrr-C"; }
    void begin(SoftMcHost &host) override;
    void runSlot(SoftMcHost &host, std::uint64_t slot) override;
    std::vector<std::pair<Bank, Row>> aggressorRows() const override;

  private:
    Bank bank;
    Row aggr0;
    Row aggr1;
    Row dummy;
    int windowActs;
    int trrPeriod;
    Timing timing;
    int burstLeftInWindow = 0;
};

/**
 * Build the U-TRR custom pattern for a victim row using the discovered
 * TRR parameters.
 *
 * @param victim_phys the anchor victim (physical); aggressors are its
 *        physical neighbours (or pair rows for paired modules)
 */
std::unique_ptr<AccessPattern> makeCustomPattern(
    const CustomPatternParams &params, SoftMcHost &host,
    const DiscoveredMapping &mapping, Bank bank, Row victim_phys);

/** Victim (logical) rows a custom pattern at @p victim_phys targets. */
std::vector<Row> customPatternVictims(const CustomPatternParams &params,
                                      const DiscoveredMapping &mapping,
                                      Row victim_phys);

} // namespace utrr

#endif // UTRR_ATTACK_PATTERN_HH
