/**
 * @file
 * SoftMC-like host: precise command-level control over a DRAM module.
 *
 * The host's one command interface is its immediate API (act, wr, rd,
 * writeRow, readRow, writeRows, readRows, hammer, refBurst, wait, ...),
 * used by Row Scout and the TRR Analyzer. A recorded Program (fuzz
 * programs, corpus replays, lowered attack patterns) executes through
 * the same API, one call per instruction.
 *
 * Every command advances a simulated nanosecond clock per DDR4 timing,
 * mirroring how a real SoftMC program occupies the command bus.
 */

#ifndef UTRR_SOFTMC_HOST_HH
#define UTRR_SOFTMC_HOST_HH

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "dram/module.hh"
#include "dram/timing.hh"
#include "mitigation/mitigation.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "softmc/command.hh"

namespace utrr
{

class FaultInjector;

/**
 * Execution tier of the host (DESIGN.md §17). Both tiers are
 * bit-identical by contract — pinned by the fuzz suite's execution
 * oracle — so the choice is purely a speed/debuggability trade-off.
 */
enum class ExecMode
{
    /**
     * Run hammer bursts — single-row, interleaved and multi-bank alike,
     * and a program's runs of ACT+PRE pairs on one row — as round-robin
     * folds through DramModule::actInterleavedBurst, and row ranges
     * (writeRows, readRows) as one DramModule call each (default). An
     * attached fault injector does not force per-ACT hammering on the
     * immediate API: its drops are drawn ahead in ACT order, the
     * drop-free runs fold and each round that holds a drop replays per
     * ACT.
     */
    kCompiled,
    /** One command at a time — the reference path (`--no-compile`). */
    kInterpreted,
};

/**
 * Structured error thrown when a simulated-time watchdog budget set via
 * SoftMcHost::setWatchdogBudget expires. Experiments that can hang under
 * fault injection (e.g. a retry loop whose candidate rows keep dying)
 * catch this and fail the run cleanly instead of spinning forever.
 */
class WatchdogTimeout : public std::runtime_error
{
  public:
    WatchdogTimeout(Time budget_ns, Time deadline_ns, Time now_ns,
                    std::uint64_t acts_issued, std::uint64_t refs_issued);

    /** Budget the watchdog was armed with (ns of simulated time). */
    Time budgetNs;
    /** Simulated deadline that was crossed. */
    Time deadlineNs;
    /** Simulated time when the overrun was detected. */
    Time nowNs;
    /** Commands issued by the host up to the overrun. */
    std::uint64_t actsIssued;
    std::uint64_t refsIssued;
};

/**
 * Structured error thrown when a cooperative-stop flag attached via
 * SoftMcHost::attachStopFlag is observed set at the watchdog poll point
 * (i.e. after any simulated command). Campaign workers let it unwind the
 * whole job body — the job is abandoned, not retried, and the campaign
 * returns a resumable partial result (DESIGN.md §14).
 */
class StopRequested : public std::runtime_error
{
  public:
    explicit StopRequested(Time now_ns);

    /** Simulated time when the stop was observed. */
    Time nowNs;
};

/** One captured READ result. */
struct ReadRecord
{
    Bank bank = 0;
    Row row = kInvalidRow;
    Time when = 0;
    RowReadout readout;
};

/** Result of executing a Program. */
struct ExecResult
{
    std::vector<ReadRecord> reads;
    Time startTime = 0;
    Time endTime = 0;
};

/**
 * The SoftMC host.
 */
class SoftMcHost
{
  public:
    SoftMcHost(DramModule &module, Timing timing = {});

    /** Current simulated time. */
    Time now() const { return clock; }

    /**
     * Stable pointer to the simulated clock, for ProfSpan sim-time
     * attribution (valid for the host's lifetime).
     */
    const Time *clockPtr() const { return &clock; }

    const Timing &timing() const { return timingParams; }
    DramModule &module() { return dram; }

    // --- immediate command API ---------------------------------------

    void act(Bank bank, Row row);
    void pre(Bank bank);
    void wr(Bank bank, const DataPattern &pattern);
    void wrWord(Bank bank, int word_idx, std::uint64_t value);
    RowReadout rd(Bank bank);
    void ref();

    /** Issue @p count REF commands back to back (tRFC apart). */
    void refBurst(int count);

    /** Issue @p count REFs at the default rate (one per tREFI). */
    void refAtDefaultRate(int count);

    /** Advance time with the command bus idle (refresh paused). */
    void wait(Time ns);

    /** Advance time while refreshing at the default rate. */
    void waitWithRefresh(Time ns);

    // --- composites ----------------------------------------------------

    /** ACT + WR + PRE. */
    void writeRow(Bank bank, Row row, const DataPattern &pattern);

    /** ACT + RD + PRE. */
    RowReadout readRow(Bank bank, Row row);

    /**
     * writeRow() of @p pattern to each logical row of [@p first,
     * @p last) of @p bank, in order. In kCompiled mode with no
     * mitigation, and when no ACT of the range can poll past the
     * watchdog deadline, the range runs as one DramModule::writeRows()
     * call: the watchdog is checked once up front, the stop flag is
     * polled once after the range, and an attached fault injector or
     * command trace runs per row through the module's range hook, in
     * the per-row order (ACT, FAULT, WR, PRE).
     */
    void writeRows(Bank bank, Row first, Row last,
                   const DataPattern &pattern);

    /**
     * readRow() of each logical row of [@p first, @p last) of @p bank,
     * in order, reduced to its flips against @p expected at the row's
     * own address (element i is row first + i). Runs as one
     * DramModule::readRows() call under the writeRows() gate; an
     * injector's read hooks (onRowRead, then corruptReadout) run per
     * row through the range hook.
     */
    std::vector<int> readRows(Bank bank, Row first, Row last,
                              const DataPattern &expected);

    /** `count` ACT+PRE cycles on one row. */
    void hammer(Bank bank, Row row, int count);

    /**
     * Interleaved hammering (§5.2): activate each aggressor once per
     * round until every aggressor reaches its count.
     */
    void hammerInterleaved(
        const std::vector<std::pair<Bank, Row>> &rows,
        const std::vector<int> &counts);

    /**
     * Cascaded hammering (§5.2): hammer each aggressor to completion
     * before moving to the next.
     */
    void hammerCascaded(const std::vector<std::pair<Bank, Row>> &rows,
                        const std::vector<int> &counts);

    /**
     * Hammer one row in each of several banks simultaneously; bank-level
     * parallelism is bounded by tFAW (footnote 12 of the paper).
     * Advances time by the tFAW-constrained duration. Every ACT issues
     * at the call's start time, so in kCompiled mode with no mitigation
     * and at most DramBank::kMaxInterleavedFold rows, the call's
     * drop-free rounds run as DramModule::actInterleavedBurst folds at
     * stride 0 (a bank that cannot fold replays its own ACTs there) and
     * a round that holds an injected drop replays per ACT, each drop's
     * FAULT event after its ACT record, as in the per-ACT loop.
     */
    void hammerMultiBank(const std::vector<std::pair<Bank, Row>> &rows,
                         int count_each);

    // --- program execution ---------------------------------------------

    /**
     * Execute a recorded program, capturing reads: each instruction is
     * its immediate-API call (act, pre, wr, wrWord, rd, ref, wait,
     * waitWithRefresh). In kCompiled mode with no mitigation and no
     * fault injector attached, a run of two or more ACT+PRE pairs on
     * one (bank, row) is one hammer() call instead. Results are
     * bit-identical either way. A mitigation hooks every ACT, and
     * under an injector the pairs stay plain commands because
     * hammer()'s cycles draw hammer-ACT drops and plain ACTs do not.
     */
    ExecResult execute(const Program &program);

    /**
     * Select this host's execution tier. New hosts start in the
     * process-wide default mode (see setDefaultExecMode).
     */
    void setExecMode(ExecMode mode) { execModeV = mode; }
    ExecMode execMode() const { return execModeV; }

    /**
     * Process-wide default tier for hosts created afterwards — the
     * `--no-compile` escape hatch for debugging divergences without
     * plumbing a flag through every experiment layer.
     */
    static void setDefaultExecMode(ExecMode mode);
    static ExecMode defaultExecMode();

    /** Total ACT commands issued through this host. */
    std::uint64_t actCount() const { return acts; }

    /** Total REF commands issued through this host. */
    std::uint64_t refCommandCount() const { return refCmds; }

    /**
     * Attach a controller-side RowHammer mitigation (not owned). The
     * policy sees every ACT/REF this host issues; neighbour refreshes
     * it orders are performed as real ACT+PRE cycles (costing command
     * bus time) before the triggering activation, and throttling
     * delays stall the clock.
     */
    void attachMitigation(ControllerMitigation *policy)
    {
        mitigation = policy;
    }

    ControllerMitigation *attachedMitigation() { return mitigation; }

    // --- fault injection & watchdog -------------------------------------

    /**
     * Attach a fault injector (not owned; nullptr detaches). The host
     * consults it on every REF/WR/RD, hammer cycle and bulk time
     * advance; the injector records its events into this host's command
     * trace and, when a metrics registry is attached, its counters.
     * An injector whose every rate is zero is guaranteed bit-identical
     * to no injector at all.
     */
    void attachFaultInjector(FaultInjector *injector);

    FaultInjector *faultInjector() { return fault; }

    /**
     * Arm (or re-arm) a simulated-time watchdog: once the clock passes
     * now() + @p budget_ns, the next command throws WatchdogTimeout.
     * A non-positive budget disarms.
     */
    void setWatchdogBudget(Time budget_ns);

    /** Disarm the watchdog. */
    void clearWatchdog();

    /** Armed deadline (ns of simulated time), or -1 when disarmed. */
    Time watchdogDeadline() const { return wdDeadline; }

    /**
     * Attach a cooperative-stop flag (not owned; nullptr detaches).
     * Polled at the watchdog poll point — after every simulated
     * command — so a long-running job observes SIGINT/SIGTERM within
     * a few commands and unwinds via StopRequested. The flag is only
     * ever read (relaxed), never written, by the host.
     */
    void attachStopFlag(const std::atomic<bool> *flag)
    {
        stopFlag = flag;
    }

    // --- snapshot / restore (DESIGN.md §16) -----------------------------

    /**
     * The host's restorable state: simulated clock, command counters,
     * watchdog arming and the command trace (self-contained copy).
     * Attached collaborators — metrics, mitigation, fault injector,
     * stop flag — are environment, not state, and stay attached across
     * a restore. Pair with DramModule::snapshot() for a full device
     * snapshot; restoring only one side of the pair tears the clock
     * away from the module state it produced.
     */
    struct Snapshot
    {
        Time clock = 0;
        std::uint64_t acts = 0;
        std::uint64_t refCmds = 0;
        Time wdBudget = 0;
        Time wdDeadline = -1;
        CommandTrace trace;
    };

    /** Capture the host's state at this instant. */
    Snapshot snapshotState() const;

    /**
     * Rewind to a snapshot (taken from this host or from any host over
     * a module restored to the matching DramModule::Snapshot).
     */
    void restoreState(const Snapshot &snap);

    // --- observability --------------------------------------------------

    /**
     * Command trace. Disabled (and free) by default; call
     * trace().enable(capacity) to start recording every command this
     * host issues into a ring buffer.
     */
    CommandTrace &trace() { return cmdTrace; }
    const CommandTrace &trace() const { return cmdTrace; }

    /**
     * Attach a metrics registry (not owned; nullptr detaches). Forwards
     * to the DRAM module — and to an attached fault injector — so
     * substrate and fault metrics land in the same registry.
     */
    void attachMetrics(MetricsRegistry *registry);

    MetricsRegistry *attachedMetrics() { return metrics; }

    /**
     * Publish the substrate's always-on perf tallies into the attached
     * registry: the DRAM fast-path counters (DramModule::
     * publishPerfCounters) plus trace.dropped_events (command-trace
     * ring overflow). Assignment-publish — safe to call repeatedly.
     */
    void publishPerfCounters();

  private:
    void applyMitigation(Bank bank, Row row);
    void hammerOnce(Bank bank, Row row);
    void pollStopFlag();
    void checkWatchdog();
    /**
     * True when a hammer burst of @p cycles can run fused: compiled
     * mode, no mitigation, more than one cycle, and the watchdog
     * provably cannot fire before the burst completes. An attached
     * fault injector does not decline the burst (its drops split it
     * into folded drop-free runs), but it moves the last poll point to
     * the end of the last cycle, where a dropped cycle polls.
     */
    bool canBatchHammer(std::int64_t cycles) const;

    /**
     * True when a range of @p rows row accesses can run as one module
     * call: compiled mode, no mitigation, and no ACT of the range polls
     * past the watchdog deadline (the per-row loop throws after the
     * crossing ACT, with that row open).
     */
    bool canBatchRows(Row rows) const;

    /** The per-row trace records and fault hooks of a fused range. */
    class RangeHook;

    /** Range hook to pass the module: null with no injector or trace. */
    DramModule::RowRangeHook *rangeHook(RangeHook &hook);

    /** Host-side rest of a fused range: clock, ACT count, stop flag. */
    void finishRows(Row rows);

    /**
     * One compiled hammer call in flight (hammer, hammerInterleaved,
     * hammerMultiBank): the round robin's aggressors, their plans —
     * each built at its first surviving ACT, because a dropped ACT
     * materializes nothing; a default plan (no bank) is not built yet —
     * and the cycle cursor against the attached injector's next drop.
     */
    struct HammerBurst
    {
        const std::pair<Bank, Row> *rows;
        DramModule::ActPlan *plans;
        int n;
        /**
         * Every ACT at the call's start and ACT-only trace records,
         * with a drop's FAULT event after its ACT (the hammerMultiBank
         * loop); otherwise one ACT+PRE cycle per hammerCycle(), with
         * the FAULT event first (hammerOnce).
         */
        bool multiBank;
        /** Cycles issued so far, and in the whole call. */
        std::int64_t cycle;
        std::int64_t total;
        /** Index of the next dropped cycle; `total` when none is left. */
        std::int64_t nextDrop;
    };

    /**
     * Index of the first dropped cycle at or after @p cycle of a
     * @p total-cycle burst, or @p total: the injector's drop draws for
     * those cycles, in ACT order (none without an injector).
     */
    std::int64_t nextHammerDrop(std::int64_t cycle, std::int64_t total);

    /** Build aggressor @p i's plan at @p first_act unless it is built. */
    void planBurstAggressor(HammerBurst &burst, int i, Time first_act);

    /**
     * Run @p rounds round-robin passes of the burst from its cursor (at
     * a round boundary): runs of drop-free rounds fold
     * (foldHammerRounds), a round that holds a drop replays per ACT
     * (replayHammerCycle), and so does every round of more than
     * DramBank::kMaxInterleavedFold aggressors. Polls nothing.
     */
    void hammerRounds(HammerBurst &burst, int rounds);

    /**
     * Run @p rounds drop-free passes as one
     * DramModule::actInterleavedBurst, then replay what the per-cycle
     * loop leaves on the host side: trace records, clock and ACT count.
     */
    void foldHammerRounds(HammerBurst &burst, int rounds);

    /** One cycle of the burst per ACT: aggressor @p i, dropped or not. */
    void replayHammerCycle(HammerBurst &burst, int i);

    /**
     * Cross-call ActPlan cache for the batched hammer paths. A plan
     * stays valid while the module's planEpoch() is unchanged (no
     * WR/wrWord, no snapshot restore — see DramModule::planEpoch), so
     * repeated hammers of the same rows skip the address translation
     * and per-row victim lookups entirely. Direct-mapped; a conflict
     * just rebuilds. Only batched (compiled-tier) paths consult it —
     * the interpreter path never does.
     */
    struct PlanCacheEntry
    {
        Bank bank = -1;
        Row row = kInvalidRow;
        std::uint64_t epoch = 0; // 0 never matches a live epoch
        DramModule::ActPlan plan;
    };
    static constexpr std::size_t kPlanCacheSlots = 64;
    /**
     * Valid cached plan, or one freshly built at @p first_act — the
     * time of the row's first ACT in the burst, so that a miss
     * materializes rows exactly when the interpreter would — and
     * cached. The reference stays valid until the next call.
     */
    const DramModule::ActPlan &cachedPlan(Bank bank, Row row,
                                          Time first_act);

    DramModule &dram;
    Timing timingParams;
    ExecMode execModeV = defaultExecMode();
    Time clock = 0;
    std::uint64_t acts = 0;
    std::uint64_t refCmds = 0;
    ControllerMitigation *mitigation = nullptr;
    FaultInjector *fault = nullptr;
    Time wdBudget = 0;
    Time wdDeadline = -1;
    const std::atomic<bool> *stopFlag = nullptr;
    CommandTrace cmdTrace;
    MetricsRegistry *metrics = nullptr;
    std::vector<PlanCacheEntry> planCache;
};

} // namespace utrr

#endif // UTRR_SOFTMC_HOST_HH
