/**
 * @file
 * TRRespass-style black-box pattern fuzzer (Frigo et al., S&P'20 —
 * the paper's state-of-the-art baseline [24]).
 *
 * TRRespass knows nothing about the TRR internals: it fuzzes
 * many-sided hammering patterns (number of aggressor pairs, spacing,
 * hammer distribution) and keeps whatever flips bits. The paper shows
 * this fails on 29 of 42 DDR4 modules; U-TRR's insight-driven patterns
 * succeed on all 45. The fuzzer here reproduces that comparison on the
 * simulated modules (bench_trrespass).
 */

#ifndef UTRR_ATTACK_TRRESPASS_HH
#define UTRR_ATTACK_TRRESPASS_HH

#include "attack/evaluator.hh"
#include "common/rng.hh"
#include "core/mapping_reveng.hh"

namespace utrr
{

/** One fuzzed many-sided pattern shape. */
struct FuzzedPattern
{
    int sides = 2;        // aggressor rows
    int spacing = 2;      // physical rows between aggressors
    int hammersPerAggr = 0; // per REF interval (0 = fill the budget)

    std::string describe() const;
};

/** Outcome of fuzzing one module. */
struct FuzzResult
{
    FuzzedPattern best;
    int bestFlips = 0;
    int patternsTried = 0;
    bool anyFlips() const { return bestFlips > 0; }
};

/**
 * The fuzzer.
 */
class TrrespassFuzzer
{
  public:
    struct Config
    {
        /** Random pattern shapes to try. */
        int attempts = 24;
        /** REF intervals each attempt hammers for. */
        int windowRefs = 0; // 0 = one regular-refresh period
        /** Victim anchors evaluated per attempt. */
        int positions = 2;
        int minSides = 2;
        int maxSides = 20;
    };

    TrrespassFuzzer(SoftMcHost &host, DiscoveredMapping mapping,
                    Config config, std::uint64_t seed);

    /** Fuzz the module; returns the best pattern found. */
    FuzzResult fuzz();

    /** Evaluate one specific shape (flips summed over positions). */
    int evaluateShape(const FuzzedPattern &shape);

  private:
    SoftMcHost &host;
    DiscoveredMapping mapping;
    Config cfg;
    Rng rng;
};

} // namespace utrr

#endif // UTRR_ATTACK_TRRESPASS_HH
