/**
 * @file
 * Non-uniform RowHammer pattern representation (Blacksmith-style).
 *
 * TRRespass-style uniform patterns hammer every aggressor equally in
 * every REF-to-REF slot; the samplers the paper reverse-engineers (§6)
 * all catch that shape. Blacksmith showed that giving each aggressor
 * group its own *frequency*, *phase* and *amplitude* relative to the
 * refresh cadence defeats far more in-DRAM trackers. This file is our
 * version of that abstraction, specialized to the REF-synchronized
 * slot structure of the U-TRR methodology. It is the one attack-pattern
 * representation: the synthesizer's draws, the §7.1 custom patterns,
 * the single-, double- and many-sided baselines and the TRRespass
 * combs are all HammerPattern values.
 *
 *  - A HammerPattern is a base period (in REF slots) plus an ordered
 *    list of PatternElements. Element order is emission order inside a
 *    slot, so "dummy burst first, then aggressors" is representable.
 *  - A PatternElement is either an aggressor group (N rows hammered
 *    round robin: 1 single-sided, 2 double-sided, more the TRRespass
 *    n-sided comb) or a dummy-row group, active in slot s of the
 *    period when
 *        pos >= phase && (pos - phase) % frequency < span
 *    with pos = s % basePeriod; its amplitude is ACTs per row per
 *    active slot (0 = fill whatever budget the slot has left).
 *  - Dummy elements may fan out over several banks: banks > 1 lowers
 *    to hammerMultiBank rounds that fill the remaining *time* of the
 *    slot (bank-parallel ACTs are cheaper per own-bank ACT, exactly
 *    the trick the vendor-B custom pattern uses to feed a chip-wide
 *    sampler).
 *
 * The representation is pure data: planSlot() computes, with integer
 * arithmetic only, which bursts a slot issues, and both
 * AttackEvaluator::run (attack/evaluator.hh), which drives the host
 * through it, and the softmc::Program lowering (lowerToProgram)
 * consume that one plan. A PatternBinding places a pattern on
 * concrete rows. Same pattern, binding and timing -> same command
 * stream, which is the determinism surface tests/test_synth.cc pins.
 */

#ifndef UTRR_ATTACK_HAMMER_PATTERN_HH
#define UTRR_ATTACK_HAMMER_PATTERN_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "core/mapping_reveng.hh"
#include "dram/module_spec.hh"
#include "dram/timing.hh"
#include "softmc/command.hh"

namespace utrr
{

/** What a pattern element activates. */
enum class ElementKind
{
    kAggressors, // the rows adjacent to the victim
    kDummies,    // far-away decoy rows fed to the TRR sampler
};

/**
 * One access group of a non-uniform pattern: zenhammer's
 * per-aggressor access pattern, quantized to REF slots.
 */
struct PatternElement
{
    ElementKind kind = ElementKind::kAggressors;

    /** Aggressors: the binding's first @c rows aggressors, hammered
     *  round robin (1 single-sided, 2 double-sided, up to 20 for the
     *  many-sided comb). Dummies: distinct decoy rows cycled through
     *  (1..16). */
    int rows = 2;

    /** Dummies only: parallel banks (1 = same-bank ACTs, >1 =
     *  hammerMultiBank rounds). Aggressors always use 1. */
    int banks = 1;

    /** Slots between activation bursts within the base period. */
    int frequency = 1;

    /** First active slot of the base period. */
    int phase = 0;

    /** Consecutive active slots per burst. */
    int span = 1;

    /** ACTs per row per active slot; 0 = fill the remaining slot
     *  budget (ACT budget for same-bank groups, time for multi-bank
     *  groups). */
    int amplitude = 0;
};

/** A complete non-uniform pattern. */
struct HammerPattern
{
    /** Pattern length in REF slots; slot s maps to s % basePeriod. */
    int basePeriod = 1;

    /** Emission order inside a slot = vector order. */
    std::vector<PatternElement> elements;

    /** Is @p element active in @p slot? */
    bool activeAt(const PatternElement &element,
                  std::uint64_t slot) const;

    /** Max aggressor rows over aggressor elements (at least 1). */
    int aggressorRowCount() const;

    /** Max dummy rows / banks over dummy elements (0 if none). */
    int dummyRowCount() const;
    int dummyBankCount() const;
};

/** Hard bounds of the representation (shared by drawPattern and the
 *  validator so the property tests can pin them). */
struct PatternLimits
{
    static constexpr int kMaxBasePeriod = 64;
    /** The 19-sided baseline and 20-sided TRRespass combs; the
     *  synthesizer draws 1 or 2. */
    static constexpr int kMaxAggressorRows = 20;
    static constexpr int kMaxDummyRows = 16;
    static constexpr int kMaxDummyBanks = 4;
    static constexpr int kMaxElements = 6;
    static constexpr int kMaxAmplitude = 160;
};

/**
 * Structural validation. Returns "" when @p pattern is well-formed,
 * else a one-line description of the first problem (phase within the
 * period, span/frequency positive, at least one aggressor element,
 * limits respected, ...).
 */
std::string validatePattern(const HammerPattern &pattern);

/**
 * Classify a pattern for the bypass table. One of:
 *  - "uniform":     aggressors only, active every slot
 *  - "window-fill": dummy burst precedes the aggressor phase (the
 *                   vendor-C candidate-window shape)
 *  - "early-aggr":  aggressors confined to a prefix of the period,
 *                   dummies elsewhere (the vendor-B sampler shape)
 *  - "decoy-evict": aggressors + dummies share every slot (the
 *                   vendor-A counter-eviction shape)
 */
std::string patternClass(const HammerPattern &pattern);

/**
 * The uniform n-sided pattern, TRRespass's family: one aggressor
 * element of @p rows rows, active in every slot, @p amplitude ACTs per
 * row per slot (0 = fill the slot's ACT budget).
 */
HammerPattern uniformPattern(int rows, int amplitude = 0);

/** Render to the "#"-commented key=value text format (corpus-style). */
std::string serializeHammerPattern(const HammerPattern &pattern);

/**
 * Parse the text format. Returns "" and fills @p out on success, else
 * an error message. Round-trips with serializeHammerPattern().
 */
std::string parseHammerPattern(const std::string &text,
                               HammerPattern &out);

// --- binding to a concrete module ------------------------------------

/**
 * Concrete rows for one (bank, victim) placement of a pattern.
 * Aggressors are the victim's neighbours (or its remap pair partners
 * on paired-row modules); dummies are far rows that can never disturb
 * the victim themselves.
 */
struct PatternBinding
{
    Bank bank = 0;
    /** Aggressor rows, logical, in round-robin order; an aggressor
     *  element of N rows hammers the first N. */
    std::vector<Row> aggressors;
    /** Decoy rows, logical; sized to the pattern's dummyRowCount(). */
    std::vector<Row> dummies;
    /** Banks for multi-bank dummy rounds; [0] is the victim's bank. */
    std::vector<Bank> dummyBanks;
};

/**
 * Bind @p pattern around physical victim row @p victim_phys: aggressor
 * i sits at victim_phys - 1 + 2i (at the pair partner of
 * victim_phys + 2i on paired-row modules), so two aggressors sandwich
 * the victim.
 */
PatternBinding bindPattern(const HammerPattern &pattern,
                           const ModuleSpec &spec,
                           const DiscoveredMapping &mapping, Bank bank,
                           Row victim_phys);

/**
 * Bind an aggressor comb with no dummies: @p rows aggressors at
 * physical rows first_phys + i * stride, whatever the module's row
 * pairing (the baselines and the TRRespass fuzzer place rows this
 * way).
 */
PatternBinding bindComb(const DiscoveredMapping &mapping, Bank bank,
                        Row first_phys, int rows, int stride);

/**
 * The (bank, logical row) victims this binding attacks: the victim
 * itself, plus — on paired-row modules with double-sided aggressors —
 * the second pair victim at victim_phys + 2.
 */
std::vector<std::pair<Bank, Row>>
patternVictims(const HammerPattern &pattern, const ModuleSpec &spec,
               const DiscoveredMapping &mapping, Bank bank,
               Row victim_phys);

// --- slot planning ----------------------------------------------------

/** One planned burst of a slot. */
struct BurstPlan
{
    /** Index into HammerPattern::elements. */
    std::size_t element = 0;
    /** Same-bank bursts: ACTs per row. */
    int hammersPerRow = 0;
    /** Multi-bank bursts: hammerMultiBank rounds. */
    int rounds = 0;
};

/** Deterministic plan of one slot. */
struct SlotPlan
{
    std::vector<BurstPlan> bursts;
    /** ACTs the plan issues in the victim's bank. */
    int actsOwnBank = 0;
    /** Slot time the plan consumes (host cost model). */
    Time timePlanned = 0;
};

/**
 * Plan slot @p slot of @p pattern under @p timing. Pure integer
 * arithmetic over the host's published cost model (hammerCycle per
 * same-bank ACT, max(hammerCycle, banks*tFAW/4) per multi-bank round),
 * so the plan — and everything emitted from it — is a deterministic
 * function of (pattern, slot, timing).
 */
SlotPlan planSlot(const HammerPattern &pattern, std::uint64_t slot,
                  const Timing &timing);

/**
 * planSlot() into a caller-owned plan, reusing its burst-vector
 * capacity — the allocation-free form for per-slot hot loops.
 */
void planSlotInto(const HammerPattern &pattern, std::uint64_t slot,
                  const Timing &timing, SlotPlan &plan);

/**
 * Lower @p slots slots of a bound pattern to a softmc::Program: per
 * slot the planned ACT/PRE bursts, a wait() pad up to the slot budget
 * (tREFI - tRFC), and one REF. The canonical compiled form used for
 * corpus anchors and the determinism/TimingChecker tests. Multi-bank
 * rounds lower to round-robin ACT/PRE across the banks, truncated to
 * what fits the slot at the ISA's *serial* cost (the program form has
 * no bank-parallel primitive, so it carries fewer fill ACTs than
 * AttackEvaluator::run while keeping the identical aggressor stream
 * and REF cadence).
 */
Program lowerToProgram(const HammerPattern &pattern,
                       const PatternBinding &binding,
                       const Timing &timing, int slots);

} // namespace utrr

#endif // UTRR_ATTACK_HAMMER_PATTERN_HH
