/**
 * @file
 * TRR Analyzer (TRR-A): runs retention-side-channel experiments that
 * reveal when a TRR mechanism refreshes a victim row (paper §3.2, §5,
 * Figs. 4 and 7).
 *
 * An experiment follows the paper's template:
 *  1. (optional) reset the TRR mechanism's internal state by issuing
 *     REFs at the default rate while hammering many dummy rows
 *     (Requirement 4);
 *  2. initialize the aggressor rows and the RS-provided victim rows
 *     with their configured data patterns;
 *  3. wait T/2 with refresh disabled;
 *  4. for each round: hammer the aggressor rows (interleaved or
 *     cascaded; Requirements 1-2) plus optional dummy rows, then issue
 *     the configured number of REF commands (Requirement 3);
 *  5. wait another T/2;
 *  6. read the profiled rows: a row with no bit flips must have been
 *     refreshed (TRR-induced or regular) during step 4.
 */

#ifndef UTRR_CORE_TRR_ANALYZER_HH
#define UTRR_CORE_TRR_ANALYZER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "core/mapping_reveng.hh"
#include "core/row_group.hh"
#include "dram/data_pattern.hh"
#include "softmc/host.hh"

namespace utrr
{

/** §5.2: the order in which multiple aggressor rows are hammered. */
enum class HammerMode
{
    kInterleaved, // one ACT per aggressor per pass
    kCascaded,    // each aggressor hammered to completion in turn
};

/** How to reset TRR internal state before an experiment. */
enum class TrrResetMode
{
    kNone,        // keep state (needed for REF-periodicity analyses)
    kDummyHammer, // the paper's black-box dummy-hammering procedure
};

/** One aggressor row and its hammer count (Requirement 1). */
struct AggressorSpec
{
    /** Physical row (groups are laid out physically). */
    Row physRow = kInvalidRow;
    int hammers = 0;
};

/**
 * Experiment configuration (the "experiment configuration" of Fig. 3).
 */
struct TrrExperimentConfig
{
    std::vector<AggressorSpec> aggressors;
    HammerMode mode = HammerMode::kInterleaved;

    /** Rounds of (hammer + REF); hammer counts apply per round. */
    int rounds = 1;
    /** REF commands issued at the end of each round. */
    int refsPerRound = 1;

    /** Dummy rows hammered in addition to aggressors (Requirement 2). */
    int dummyRowCount = 0;
    int dummyHammers = 0;
    /** Hammer dummies before (true) or after (false) the aggressors. */
    bool dummiesFirst = false;

    TrrResetMode reset = TrrResetMode::kDummyHammer;
    /** REFs issued at the default rate during the reset dance. */
    int resetRefs = 768;
    /** Dummy rows cycled during reset and ACTs issued between REFs. */
    int resetDummies = 32;
    int resetHammersPerRefi = 16;

    /** Victim init pattern; must match the RS profiling pattern. */
    DataPattern victimPattern = DataPattern::allOnes();
    DataPattern aggressorPattern = DataPattern::allZeros();
    /** Initialize aggressors before victims (ACT order matters for
     *  window-based TRR). */
    bool initAggressorsFirst = true;
    /**
     * Skip aggressor initialization entirely. Hammered rows restore
     * their own charge on every ACT, so re-initialization is only
     * needed when the aggressor data pattern must change; skipping it
     * keeps init ACTs out of ACT-order-sensitive analyses.
     */
    bool skipAggressorInit = false;

    /**
     * Self-healing: read-back votes per profiled row. When a fault
     * injector with any active rate is attached to the host, each
     * profiled row is read this many times and the refreshed/flip
     * verdict is taken by majority, so transient read-back bit noise
     * cannot masquerade as a (missed) TRR refresh. Without an active
     * injector a single read is issued — keeping fault-free runs
     * bit-identical to the baseline.
     */
    int readVotes = 3;
};

/**
 * Outcome of one experiment.
 */
struct TrrExperimentResult
{
    /** Per profiled row (group order): retention flips observed. */
    std::vector<int> flips;
    /** Per profiled row: true if the row must have been refreshed. */
    std::vector<bool> refreshed;
    /** Host REF-command count just before the first round's REFs. */
    std::uint64_t refsBefore = 0;
    /** Host REF-command count after the last round's REFs. */
    std::uint64_t refsAfter = 0;

    /** True if at least one profiled row was refreshed. */
    bool anyRefreshed() const;
    /** Bitmask of refreshed rows (LSB = first profiled row). */
    std::uint64_t refreshedMask() const;
};

/** Cumulative command counts sampled at the end of one hammer round. */
struct RoundRecord
{
    /** Host REF-command count after this round's REF burst. */
    std::uint64_t refsAfter = 0;
    /** Host ACT count after this round's hammering. */
    std::uint64_t actsAfter = 0;
    /** Simulated time after this round (ns). */
    Time simAfter = 0;
};

/** Outcome of an experiment spanning several row groups at once. */
struct TrrMultiResult
{
    /** Per-group results (flips/refreshed per profiled row). */
    std::vector<TrrExperimentResult> perGroup;
    std::uint64_t refsBefore = 0;
    std::uint64_t refsAfter = 0;
    /** One record per hammer round, in round order. */
    std::vector<RoundRecord> rounds;
    /** Simulated time the experiment occupied (ns). */
    Time simNs = 0;

    /** True if any row of group @p g was refreshed. */
    bool groupRefreshed(std::size_t g) const
    {
        return perGroup.at(g).anyRefreshed();
    }
};

/**
 * The TRR Analyzer.
 */
class TrrAnalyzer
{
  public:
    TrrAnalyzer(SoftMcHost &host, DiscoveredMapping mapping);

    /** Run one experiment against a row group. */
    TrrExperimentResult runExperiment(const RowGroup &group,
                                      const TrrExperimentConfig &config);

    /**
     * Run one experiment observing several groups simultaneously (all
     * must share the same retention time; Row Scout guarantees this).
     * Aggressors in @p config may reference any group's gap rows.
     */
    TrrMultiResult runExperimentMulti(const std::vector<RowGroup> &groups,
                                      const TrrExperimentConfig &config);

    /**
     * §5.3 pre-check: verify (with refresh disabled) that the given
     * aggressors actually hammer the group's profiled rows, i.e. no row
     * involved was remapped by post-manufacturing repair.
     */
    bool verifyAdjacency(const RowGroup &group,
                         const std::vector<AggressorSpec> &aggressors,
                         int hammers = 300'000);

    /**
     * Adjacency verification with hammer-count escalation: modules with
     * very high HC_first need more than the paper's 300K single-sided
     * activations before flips appear in the simulated cells.
     */
    bool verifyAdjacencyEscalating(
        const RowGroup &group,
        const std::vector<AggressorSpec> &aggressors,
        int max_hammers = 8 * 1024 * 1024);

    /**
     * The black-box TRR-state reset dance (Requirement 4): REFs at the
     * default rate while round-robin hammering dummy rows at least 100
     * rows away from every row in @p avoid_phys.
     */
    void resetTrrState(Bank bank, const std::vector<Row> &avoid_phys,
                       int refs, int dummies, int hammers_per_refi);

    /**
     * Pick @p count dummy logical rows in @p bank at least 100 physical
     * rows away from every entry of @p avoid_phys.
     */
    std::vector<Row> pickDummyRows(Bank bank,
                                   const std::vector<Row> &avoid_phys,
                                   int count) const;

    const DiscoveredMapping &discoveredMapping() const { return mapping; }

  private:
    std::vector<Row> avoidListOf(
        const RowGroup &group,
        const std::vector<AggressorSpec> &aggressors) const;

    SoftMcHost &host;
    DiscoveredMapping mapping;
};

} // namespace utrr

#endif // UTRR_CORE_TRR_ANALYZER_HH
