/**
 * @file
 * Parallel differential fuzzing campaigns on the CampaignRunner.
 *
 * A fuzz campaign is a batch of N independent program checks against
 * one module: job i generates program i from the fuzz seed, runs the
 * oracle suite on it, and reports a deterministic verdict. Scheduling
 * reuses the campaign runner's worker pool, so verdicts (and the merged
 * metrics) are bit-identical for any --jobs value — pinned by the
 * jobs-1-vs-N equivalence test.
 *
 * Violating programs are then re-derived serially (every program is a
 * pure function of (seed, index)) and shrunk with the delta-debugging
 * minimizer, ready to be persisted as corpus entries.
 */

#ifndef UTRR_CHECK_FUZZ_CAMPAIGN_HH
#define UTRR_CHECK_FUZZ_CAMPAIGN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "check/fuzzer.hh"
#include "check/oracles.hh"
#include "dram/module_spec.hh"
#include "runner/campaign.hh"

namespace utrr
{

/** Campaign-level knobs. */
struct FuzzCampaignOptions
{
    /** Programs to generate and check. */
    std::uint64_t count = 100;

    /** Worker threads (<= 0 selects hardware concurrency). */
    int jobs = 1;

    /** Fuzz stream seed; program i is (fuzzSeed, i). */
    std::uint64_t fuzzSeed = 1;

    FuzzConfig fuzz;
    OracleConfig oracle;

    /** Shrink violating programs with the ddmin minimizer. */
    bool minimize = true;

    /** Findings minimized/reported in detail (the rest are counted). */
    std::size_t maxFindings = 16;

    /**
     * Write-ahead result journal (empty = off): each checked program
     * is persisted before it counts, and `resume` reloads finished
     * checks so only the missing indices re-run. The journal is keyed
     * to the full fuzz configuration — changing any generation or
     * oracle knob orphans old records (CampaignConfig::contentTag).
     */
    std::string journalPath;
    bool resume = false;

    /** Cooperative-stop flag forwarded to the campaign (may be null). */
    const std::atomic<bool> *stopFlag = nullptr;
};

/** One violating program. */
struct FuzzFinding
{
    /** Program index within the campaign. */
    std::uint64_t index = 0;
    /** Oracle that fired first. */
    std::string oracle;
    std::string detail;
    /**
     * Every distinct oracle that fired on this program, in suite order.
     * `oracle` is only the front of this list; when several planted or
     * real bugs coexist, an earlier-ordered oracle (e.g. differential)
     * can front every finding and hide later catches (e.g. accounting)
     * from the front-only view.
     */
    std::vector<std::string> oracles;
    /** The generated program and its minimized repro. */
    Program program;
    Program minimized;
    std::size_t minimizeEvaluations = 0;
};

/** Campaign outcome. */
struct FuzzCampaignResult
{
    std::uint64_t programs = 0;
    /** Programs with at least one oracle violation. */
    std::uint64_t violating = 0;
    /** Detailed findings (at most maxFindings). */
    std::vector<FuzzFinding> findings;
    /** The underlying runner result (verdicts, merged metrics). */
    CampaignResult campaign;

    bool clean() const { return violating == 0; }
};

/** Run a fuzz campaign against one module. */
FuzzCampaignResult runFuzzCampaign(const ModuleSpec &spec,
                                   const FuzzCampaignOptions &options);

} // namespace utrr

#endif // UTRR_CHECK_FUZZ_CAMPAIGN_HH
