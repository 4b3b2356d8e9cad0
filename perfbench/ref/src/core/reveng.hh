/**
 * @file
 * Automated TRR reverse engineering (paper §6).
 *
 * TrrReveng drives Row Scout and the TRR Analyzer to re-derive, from
 * outside the chip, every property the paper uncovers:
 *
 *  - which REF commands are TRR-capable (Obs. A1 / B1 / C1);
 *  - how many neighbours a TRR-induced refresh covers (A2 / B2 / C3);
 *  - the aggressor-detection strategy: counter table vs. ACT sampling
 *    vs. post-TRR detection window (A3 / B3 / C2);
 *  - the aggressor-tracking capacity (A4 / B4);
 *  - vendor-A specifics: evict-min insertion (A5), counter reset on
 *    detection (A6), indefinite table persistence (A7);
 *  - vendor-B specifics: sampler retention across TRR refreshes (B5);
 *  - vendor-C specifics: detection-window length (C2);
 *  - whether detection state is per-bank or chip-wide (A4 / B4);
 *  - the regular-refresh period in REF commands (A8).
 *
 * Every procedure is black-box: it only issues DDR commands and reads
 * data back through the retention side channel.
 */

#ifndef UTRR_CORE_REVENG_HH
#define UTRR_CORE_REVENG_HH

#include <map>
#include <string>
#include <vector>

#include "common/types.hh"
#include "core/row_scout.hh"
#include "core/trr_analyzer.hh"
#include "obs/json.hh"

namespace utrr
{

/** Aggressor-detection strategy families (Table 1 column). */
enum class DetectionType
{
    kUnknown,
    kCounterBased,  // vendor A
    kSamplingBased, // vendor B
    kWindowBased,   // vendor C ("Mix" in Table 1)
};

std::string detectionTypeName(DetectionType type);

/**
 * Everything TrrReveng can discover about a module's TRR mechanism.
 */
struct TrrProfile
{
    int trrToRefPeriod = 0;
    int neighborsRefreshed = 0;
    DetectionType detection = DetectionType::kUnknown;
    int aggressorCapacity = -1;
    bool perBank = false;
    bool evictsMinCounter = false;
    bool countersResetOnDetect = false;
    bool tableEntriesPersist = false;
    bool samplerRetained = false;
    /** Detection-window length in ACTs (0 = no window observed). */
    int detectionWindowActs = 0;
    int regularRefreshPeriodRefs = 0;

    std::string summary() const;
};

/**
 * Reverse-engineering configuration.
 */
struct TrrRevengConfig
{
    Bank bank = 0;
    Bank secondBank = 1; // for the per-bank-scope experiment
    Row scoutRowStart = 0;
    Row scoutRowEnd = 6 * 1024;
    /**
     * Row range for the RRR-RRR layout: six retention-matched rows in
     * a 7-row span are rare, so the wide-group scout covers much more
     * of the bank (clamped to the bank size).
     */
    Row wideScoutRowEnd = 48 * 1024;
    /** Retention-consistency validations per scouted row. */
    int consistencyChecks = 50;
    /**
     * Post-acceptance stability checks per profiled row (Row Scout
     * self-healing; 0 disables). Enable when a fault injector is
     * active so VRT-flipped rows are evicted and replaced.
     */
    int revalidateChecks = 0;
    /** Default per-aggressor hammers in discovery experiments. */
    int aggressorHammers = 5'000;
    /** Iterations for REF-periodicity discovery. */
    int periodIterations = 128;
    /** Capacity probe points (ascending). */
    std::vector<int> capacityProbes = {2, 4, 8, 15, 16, 17, 18};
    /** Iterations per capacity probe. */
    int capacityIterations = 480;
    /** Upper bound on iterations for regular-refresh discovery. */
    int regularRefreshMaxIters = 22'000;
    /** Dummy-burst sizes probed for the detection window. The first
     *  (small) probe establishes the baseline detectability of a
     *  late-hammered aggressor. */
    std::vector<int> windowProbes = {16, 128, 512, 1'024, 2'048};
    /**
     * Self-healing: retries with freshly scouted rows when a discovery
     * procedure returns a degenerate result (no dominant period, zero
     * neighbours, unknown detection type). The previous pool's rows are
     * burned — a row whose retention silently changed (VRT, drift)
     * would keep producing garbage.
     */
    int maxRetries = 2;
    /**
     * Simulated-time watchdog budget armed at the start of discoverAll
     * (0 disables): an experiment that overruns it fails with a
     * structured WatchdogTimeout instead of spinning forever.
     */
    Time watchdogBudgetNs = 0;
};

/**
 * The reverse-engineering driver.
 */
class TrrReveng
{
  public:
    TrrReveng(SoftMcHost &host, DiscoveredMapping mapping,
              TrrRevengConfig config);

    // --- individual discovery procedures -----------------------------

    /** Obs. A1/B1/C1: one TRR-capable REF per how many REFs. */
    int discoverTrrRefPeriod();

    /** Obs. A2/B2/C3: rows refreshed around a detected aggressor. */
    int discoverNeighborsRefreshed();

    /** Obs. A3/B3/C2: detection strategy family. */
    DetectionType discoverDetectionType();

    /** Obs. A4/B4: how many aggressors TRR can track at once. */
    int discoverAggressorCapacity();

    /** Obs. A5: is the lowest-counter entry evicted on insertion? */
    bool discoverEvictMinPolicy();

    /** Obs. A6: does detection reset the detected row's counter? */
    bool discoverCounterResetOnDetect();

    /** Obs. A7: do table entries persist until evicted? */
    bool discoverTablePersistence();

    /** Obs. B5: does the sampled row survive a TRR-induced refresh? */
    bool discoverSamplerRetention();

    /** Obs. C2: detection-window length in ACTs (0 = unbounded). */
    int discoverDetectionWindow();

    /** Obs. A4/B4: per-bank or chip-wide detection state. */
    bool discoverPerBankScope();

    /** Obs. A8: REF commands per regular-refresh sweep. */
    int discoverRegularRefreshPeriod();

    /** Run the full battery. @p include_slow adds capacity/regular. */
    TrrProfile discoverAll(bool include_slow = true);

    /**
     * Outcome of the campaign-battery identification (the two
     * properties every Table-1 module can be told apart by).
     */
    struct IdentifyOutcome
    {
        int trrToRefPeriod = 0;
        int neighborsRefreshed = 0;
        /** Fresh-row retries the identification needed. */
        std::uint64_t freshRowRetries = 0;
    };

    /**
     * TRR-to-REF period plus neighbour count under the config's
     * watchdog budget (cfg.watchdogBudgetNs, 0 = disarmed). A budget
     * overrun propagates as WatchdogTimeout so a campaign runner can
     * retry or quarantine the job; the watchdog is disarmed either way.
     */
    IdentifyOutcome identify();

    // --- profile reuse (DESIGN.md §16) --------------------------------

    /**
     * Pre-scout the 16-group R-R pool of cfg.bank — the first pool
     * identify() consumes — without running any discovery. Campaign
     * jobs wrap this call in JobContext::profiled() so the scouting is
     * snapshotted once per module and restored on every later job over
     * the same silicon. The wide (RRR-RRR) group is deliberately left
     * to its lazy scouting point between the period and neighbour
     * experiments: hoisting it ahead of the period experiments shifts
     * the refresh-engine interleaving and can flip identifications.
     */
    void warmUp();

    /**
     * Serialize the scouted pools (R-R pools, wide pool, burned rows,
     * fresh-row-retry count) as JSON. All fields are integers or
     * layout strings, so an export/import round trip is exact.
     */
    Json exportPools() const;

    /**
     * Replace the pools with a previously exported state. Importing
     * what exportPools() just returned is a no-op by construction;
     * importing into a fresh TrrReveng over a restored device snapshot
     * reconstructs the scouted state without re-scouting.
     */
    void importPools(const Json &pools);

    // --- primitives shared by the procedures (public for tests) ------

    /**
     * Lazily scout a pool of R-R groups in @p bank (all sharing one
     * retention time) and return the first @p count of them.
     */
    std::vector<RowGroup> groupsRR(int count, Bank bank);

    /** Lazily scout one RRR-RRR group. */
    const RowGroup &groupWide();

    /**
     * Hammer plan for one iteration of an iteration sequence: per-group
     * aggressor hammers (0 = skip) placed on each group's gap row.
     */
    struct IterationPlan
    {
        std::vector<int> hammersPerGroup;
        HammerMode mode = HammerMode::kCascaded;
        int dummyRowCount = 0;
        int dummyHammers = 0;
        bool dummiesFirst = false;
        bool initAggressorsEachIter = true;
        /**
         * Read-back votes per profiled row. Iteration analyses keep
         * this at 1 even under fault injection: every RD is an ACT the
         * TRR observes, and on first-sampled-wins TRRs the analyzer's
         * own reads — the first in-window ACTs after a TRR fire — get
         * sampled as the "aggressor", diverting the next TRR refresh
         * to unprofiled rows (an invisible event). Read noise can only
         * add flips, never fake the all-zeros "refreshed" signal, so
         * minimal reads are strictly safer for event-timing analyses;
         * quorum voting stays the TrrAnalyzer default where flip
         * verdicts, not timing, are at stake.
         */
        int readVotes = 1;
    };

    /** Refresh-event trace of an iteration sequence. */
    struct IterationTrace
    {
        /** [iteration][group] -> refreshed-rows bitmask. */
        std::vector<std::vector<std::uint64_t>> masks;

        /** Iterations at which any row of @p group was refreshed. */
        std::vector<int> eventsOf(std::size_t group) const;
        /** Iterations at which any group saw a refresh. */
        std::vector<int> anyEvents() const;
        /** Most common gap between successive events (0 if < 2). */
        static int dominantPeriod(const std::vector<int> &events);
    };

    /**
     * Run an iteration sequence: one TRR-state reset, then
     * @p iterations single-REF experiments following @p plan
     * (first_iter_plan, when provided, replaces the plan in
     * iteration 0 — used by the persistence analyses).
     */
    IterationTrace runIterations(const std::vector<RowGroup> &groups,
                                 const IterationPlan &plan,
                                 int iterations,
                                 const IterationPlan *first_iter_plan =
                                     nullptr);

    /** Fresh-row retries performed so far (degenerate results). */
    std::uint64_t freshRowRetriesPerformed() const
    {
        return freshRowRetries;
    }

  private:
    TrrExperimentConfig configFor(const std::vector<RowGroup> &groups,
                                  const IterationPlan &plan) const;

    /** One detection-type probe (retry loop lives in the public API). */
    DetectionType discoverDetectionTypeOnce();

    /**
     * Burn the cached R-R pool of @p bank (its rows are never selected
     * again) so the next groupsRR call scouts fresh rows; counts as one
     * fresh-row retry.
     */
    void retryWithFreshRows(const char *why, Bank bank);

    /** Same for the wide (RRR-RRR) pool. */
    void retryWithFreshWideGroup(const char *why);

    /**
     * Scout a replacement RRR-RRR group (any bank, burned rows
     * excluded); false when none can be found, so callers can fall
     * back instead of asserting.
     */
    bool refillWidePool();

    /**
     * Burn the rows of @p bad (groups caught by a per-round sanity
     * check: they read "refreshed" unconditionally because their
     * retention margin silently vanished) and drop them from the cached
     * pool of @p bank, so the next groupsRR call tops it up with fresh
     * rows.
     */
    void quarantineGroups(Bank bank, const std::vector<RowGroup> &bad);

    /**
     * Post-measurement health check (only run under an active fault
     * injector): every profiled row of @p group must still hold for
     * T/2 and fail after T. The check issues no REF, so a clean read
     * after T cannot be a TRR refresh — it proves the row's retention
     * margin silently vanished (VRT flip, temperature drift) and its
     * refresh events were garbage.
     */
    bool groupStillHealthy(const RowGroup &group);

    /** True when an attached fault injector has any hook active. */
    bool chaosActive() const;

    SoftMcHost &host;
    DiscoveredMapping mapping;
    TrrRevengConfig cfg;
    TrrAnalyzer analyzer;
    /** Cached R-R pools per bank. */
    std::map<Bank, std::vector<RowGroup>> rrPools;
    std::vector<RowGroup> widePool;
    /** Physical rows burned by fresh-row retries, per bank. */
    std::map<Bank, std::vector<Row>> burnedByBank;
    std::uint64_t freshRowRetries = 0;
};

} // namespace utrr

#endif // UTRR_CORE_REVENG_HH
