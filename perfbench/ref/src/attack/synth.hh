/**
 * @file
 * Seeded non-uniform pattern synthesizer and per-TRR bypass table.
 *
 * Closes the paper's §7.1 loop automatically: instead of hand-crafting
 * one custom pattern per reverse-engineered TRR mechanism, a seeded
 * fuzzer draws Blacksmith-style non-uniform patterns (hammer_pattern.hh)
 * from ranged parameter distributions, evaluates them against the
 * simulated module, re-verifies winners on a fresh substrate, shrinks
 * them with the generic ddmin engine (check/minimizer.hh, dropping
 * whole pattern *elements* instead of program lines), and sweeps the
 * survivor across banks.
 *
 * The per-module search runs as one CampaignRunner job, so a full
 * 45-module synthesis inherits the runner's guarantees: bit-identical
 * verdicts for any --jobs N, write-ahead journaling, resume, and
 * cooperative cancellation. The campaign's deliverable is the
 * **bypass table**: for every TRR version, which pattern class beats
 * the mechanism and at what per-aggressor hammer budget.
 *
 * Everything here is a pure function of (spec, campaign seed, module
 * seed, config): pattern draws come from the job's Rng fork, every
 * evaluation builds a fresh DramModule + SoftMcHost, and no wall-clock
 * value enters a verdict.
 */

#ifndef UTRR_ATTACK_SYNTH_HH
#define UTRR_ATTACK_SYNTH_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "attack/hammer_pattern.hh"
#include "common/rng.hh"
#include "dram/module_spec.hh"
#include "obs/json.hh"
#include "obs/report.hh"
#include "obs/telemetry.hh"
#include "runner/campaign.hh"

namespace utrr
{

/**
 * Ranged parameter distributions of the fuzzer (the FuzzingParameterSet
 * idea): every drawn pattern stays inside these bounds, which the
 * property tests pin against drawPattern's output.
 */
struct SynthRanges
{
    int minBasePeriod = 2;
    int maxBasePeriod = 24;
    /** Per-row-per-slot ACT bound for explicit (non-fill) amplitudes. */
    int minAmplitude = 8;
    int maxAmplitude = 120;
    int maxDummyRows = 16;
    int maxDummyBanks = 4;
};

/**
 * Draw one random non-uniform pattern. @p trr_period_hint biases the
 * base-period distribution toward the module's TRR-to-REF period (the
 * zenhammer move of seeding pattern lengths from measured refresh
 * behaviour); pass 0 to draw blind. The result always satisfies
 * validatePattern().
 */
HammerPattern drawPattern(Rng &rng, const SynthRanges &ranges,
                          int trr_period_hint);

/** Per-module synthesis knobs. */
struct SynthConfig
{
    /** Candidate patterns drawn before giving up on a module. */
    int attempts = 96;

    /** Victim anchor positions tried per candidate. */
    int positions = 4;

    /** Evaluation window in REF slots (0 = the module's full regular
     *  refresh period — required for high-HC_first modules, where a
     *  shorter window cannot accumulate enough disturbance). */
    int windowRefs = 0;

    /** Warm-up window in REF slots run at a far-away anchor before the
     *  measured window (0 = cold start). A real attack sweep hammers
     *  many positions back to back, so a mechanism's steady state
     *  carries residue of earlier activity — e.g. the vendor-A counter
     *  table holds stale high-count entries that keep fresh aggressors
     *  below the detection maximum. A cold single-position evaluation
     *  hides bypasses that only exist in that steady state. */
    int warmupRefs = 384;

    /** Banks the minimized winner is swept across. */
    int sweepBanks = 4;

    /** ddmin the winner down to its load-bearing elements. */
    bool minimize = true;
    std::size_t minimizeMaxEvaluations = 48;

    /** Bank the search runs in. */
    Bank bank = 0;

    /** DramModule silicon seed for every evaluation substrate. */
    std::uint64_t moduleSeed = 2021;

    /** TRR-to-REF period hint; -1 = take it from the module spec's
     *  ground-truth traits, 0 = search blind. */
    int trrPeriodHint = -1;

    SynthRanges ranges;
};

/** Outcome of evaluating one bound pattern at one anchor. */
struct PatternEval
{
    int flips = 0;
    int vulnerableRows = 0;
};

/**
 * Evaluate @p pattern around physical victim @p anchor on a fresh
 * DramModule + SoftMcHost (seeded with cfg.moduleSeed). Pure: equal
 * arguments produce equal results. @p stop propagates cooperative
 * cancellation into the evaluation host (may throw StopRequested).
 */
PatternEval evaluatePattern(const ModuleSpec &spec,
                            const SynthConfig &cfg,
                            const HammerPattern &pattern, Bank bank,
                            Row anchor,
                            const std::atomic<bool> *stop = nullptr);

/** Per-module synthesis outcome. */
struct SynthModuleResult
{
    /** Did any drawn pattern flip bits (and survive verification)? */
    bool beaten = false;

    /** The minimized winner; meaningful only when beaten. */
    HammerPattern best;
    std::string bestClass;

    int attemptsTried = 0;
    /** 0-based index of the winning draw (-1 = none). */
    int winningAttempt = -1;
    /** Physical victim anchor of the winning evaluation. */
    Row anchor = 0;
    int searchFlips = 0;
    /** Flips of the minimized winner on a fresh substrate. */
    int verifyFlips = 0;

    int elementsBefore = 0;
    int elementsAfter = 0;
    std::size_t minimizeEvaluations = 0;

    /** Aggressor ACTs per aggressor row per base period (the bypass
     *  table's hammer-budget column). */
    int hammersPerAggrPerPeriod = 0;

    /** Flips of the winner re-bound on banks 0..sweepBanks-1. */
    std::vector<int> bankFlips;

    /** Evaluation window actually used (REF slots). */
    int windowRefs = 0;
};

/**
 * Search -> verify -> minimize -> bank-sweep for one module. @p rng is
 * the job's forked stream (consumed); @p stop is polled between
 * evaluations and inside them.
 */
SynthModuleResult
synthesizeForModule(const ModuleSpec &spec, const SynthConfig &cfg,
                    Rng rng, const std::atomic<bool> *stop = nullptr);

/** Render a SynthModuleResult as the job's verdict Json (ints, bools
 *  and strings only: this is byte-compared across --jobs N). */
Json synthVerdict(const ModuleSpec &spec,
                  const SynthModuleResult &result);

/** Campaign-level configuration. */
struct SynthCampaignConfig
{
    SynthConfig synth;

    /** Worker threads; <= 0 selects hardware concurrency. */
    int jobs = 1;
    /** Campaign master seed (forked per module by name). */
    std::uint64_t seed = 1;

    std::string journalPath;
    bool resume = false;
    int maxWatchdogRetries = 2;

    TelemetrySink *telemetry = nullptr;
    const std::atomic<bool> *stopFlag = nullptr;
};

/** Content tag folding every result-affecting synth knob, so stale
 *  journals can never resume into a differently-configured campaign. */
std::string synthContentTag(const SynthConfig &cfg);

/** Run the synthesis campaign over @p specs. */
CampaignResult runSynthCampaign(const std::vector<ModuleSpec> &specs,
                                const SynthCampaignConfig &cfg);

/**
 * Build the bypass table from a finished campaign: a "modules" array
 * (campaign order) and a "by_trr" roll-up (which pattern class beats
 * which mechanism at what hammer budget). Deterministic — part of the
 * jobs-N byte-equality surface.
 */
Json bypassTable(const CampaignResult &result,
                 const std::vector<ModuleSpec> &specs);

/**
 * Fill @p report with the campaign rounds/results plus the
 * "bypass_table" section.
 */
void fillBypassReport(ExperimentReport &report,
                      const CampaignResult &result,
                      const std::vector<ModuleSpec> &specs,
                      const SynthCampaignConfig &cfg);

} // namespace utrr

#endif // UTRR_ATTACK_SYNTH_HH
