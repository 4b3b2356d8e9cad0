#include "softmc/host.hh"

#include <algorithm>

#include "common/logging.hh"
#include "fault/fault_injector.hh"
#include "obs/profiler.hh"

namespace utrr
{

namespace
{

/** Process-wide default tier. Atomic: campaign workers construct hosts
 *  concurrently; writes happen in CLI setup, before workers spawn. */
std::atomic<ExecMode> g_defaultExecMode{ExecMode::kCompiled};

} // namespace

void
SoftMcHost::setDefaultExecMode(ExecMode mode)
{
    g_defaultExecMode.store(mode, std::memory_order_relaxed);
}

ExecMode
SoftMcHost::defaultExecMode()
{
    return g_defaultExecMode.load(std::memory_order_relaxed);
}

WatchdogTimeout::WatchdogTimeout(Time budget_ns, Time deadline_ns,
                                 Time now_ns, std::uint64_t acts_issued,
                                 std::uint64_t refs_issued)
    : std::runtime_error(logFmt(
          "watchdog budget of ", budget_ns, "ns exceeded: now=", now_ns,
          "ns deadline=", deadline_ns, "ns after ", acts_issued,
          " ACTs / ", refs_issued, " REFs")),
      budgetNs(budget_ns), deadlineNs(deadline_ns), nowNs(now_ns),
      actsIssued(acts_issued), refsIssued(refs_issued)
{
}

StopRequested::StopRequested(Time now_ns)
    : std::runtime_error(
          logFmt("cooperative stop requested at ", now_ns, "ns")),
      nowNs(now_ns)
{
}

SoftMcHost::SoftMcHost(DramModule &module, Timing timing)
    : dram(module), timingParams(timing), planCache(kPlanCacheSlots)
{
}

const DramModule::ActPlan &
SoftMcHost::cachedPlan(Bank bank, Row row, Time first_act)
{
    PlanCacheEntry &entry = planCache[
        (static_cast<std::size_t>(static_cast<std::uint32_t>(row)) * 31u +
         static_cast<std::size_t>(static_cast<std::uint32_t>(bank))) %
        kPlanCacheSlots];
    if (entry.bank != bank || entry.row != row ||
        entry.epoch != dram.planEpoch()) {
        entry.plan = dram.buildActPlan(bank, row, first_act);
        entry.bank = bank;
        entry.row = row;
        entry.epoch = dram.planEpoch();
    }
    return entry.plan;
}

void
SoftMcHost::attachMetrics(MetricsRegistry *registry)
{
    metrics = registry;
    dram.attachMetrics(registry);
    if (fault != nullptr)
        fault->attachMetrics(registry);
}

void
SoftMcHost::publishPerfCounters()
{
    dram.publishPerfCounters();
    if (metrics != nullptr)
        metrics->counter("trace.dropped_events").value = cmdTrace.dropped();
}

void
SoftMcHost::attachFaultInjector(FaultInjector *injector)
{
    if (fault != nullptr && fault != injector)
        fault->attachTrace(nullptr);
    fault = injector;
    if (fault != nullptr) {
        fault->attachTrace(&cmdTrace);
        if (metrics != nullptr)
            fault->attachMetrics(metrics);
    }
}

void
SoftMcHost::setWatchdogBudget(Time budget_ns)
{
    if (budget_ns <= 0) {
        clearWatchdog();
        return;
    }
    wdBudget = budget_ns;
    wdDeadline = clock + budget_ns;
}

void
SoftMcHost::clearWatchdog()
{
    wdBudget = 0;
    wdDeadline = -1;
}

SoftMcHost::Snapshot
SoftMcHost::snapshotState() const
{
    Snapshot snap;
    snap.clock = clock;
    snap.acts = acts;
    snap.refCmds = refCmds;
    snap.wdBudget = wdBudget;
    snap.wdDeadline = wdDeadline;
    snap.trace = cmdTrace;
    return snap;
}

void
SoftMcHost::restoreState(const Snapshot &snap)
{
    clock = snap.clock;
    acts = snap.acts;
    refCmds = snap.refCmds;
    wdBudget = snap.wdBudget;
    wdDeadline = snap.wdDeadline;
    cmdTrace = snap.trace;
    // An attached fault injector records into the host's trace through
    // a cached pointer; the copy assignment above did not move the
    // object, so the pointer stays valid.
}

void
SoftMcHost::pollStopFlag()
{
    // The null check keeps the fault-free hot path to one predictable
    // branch.
    if (stopFlag != nullptr &&
        stopFlag->load(std::memory_order_relaxed)) {
        throw StopRequested(clock);
    }
}

void
SoftMcHost::checkWatchdog()
{
    // The stop flag shares the watchdog's poll point (after every
    // command).
    pollStopFlag();
    if (wdDeadline >= 0 && clock > wdDeadline)
        throw WatchdogTimeout(wdBudget, wdDeadline, clock, acts, refCmds);
}

void
SoftMcHost::applyMitigation(Bank bank, Row row)
{
    const MitigationAction action =
        mitigation->onActivate(bank, row, clock);
    clock += action.delayNs;
    // Victim refreshes are real ACT+PRE cycles issued while the bank
    // is still precharged (before the triggering activation opens it).
    const Row rows = dram.spec().rowsPerBank;
    for (Row victim : action.refreshRows) {
        if (victim < 0 || victim >= rows)
            continue;
        dram.act(bank, victim, clock);
        dram.pre(bank, clock);
        cmdTrace.record(TraceKind::kAct, bank, victim, clock,
                        timingParams.tRAS);
        clock += timingParams.hammerCycle();
        ++acts;
    }
}

void
SoftMcHost::act(Bank bank, Row row)
{
    if (mitigation != nullptr)
        applyMitigation(bank, row);
    dram.act(bank, row, clock);
    cmdTrace.record(TraceKind::kAct, bank, row, clock, timingParams.tRAS);
    clock += timingParams.tRAS;
    ++acts;
    checkWatchdog();
}

void
SoftMcHost::pre(Bank bank)
{
    dram.pre(bank, clock);
    cmdTrace.record(TraceKind::kPre, bank, kInvalidRow, clock,
                    timingParams.tRP);
    clock += timingParams.tRP;
}

void
SoftMcHost::wr(Bank bank, const DataPattern &pattern)
{
    // The protocol check comes before the injector's WR-drop draw, so
    // a WR to a closed bank dies whether or not its draw would hit.
    UTRR_ASSERT(dram.bankAt(bank).openRow() != kInvalidRow,
                "WR with no open row");
    // A dropped WR occupies the bus but leaves the row's old contents
    // in place; the consumer sees it as massive unexpected flips.
    if (fault == nullptr || !fault->shouldDropWr(bank, clock))
        dram.wr(bank, pattern, clock);
    cmdTrace.record(TraceKind::kWr, bank, kInvalidRow, clock,
                    timingParams.tBURST);
    clock += timingParams.tBURST;
}

void
SoftMcHost::wrWord(Bank bank, int word_idx, std::uint64_t value)
{
    dram.wrWord(bank, word_idx, value);
    cmdTrace.record(TraceKind::kWr, bank, kInvalidRow, clock,
                    timingParams.tBURST);
    clock += timingParams.tBURST;
}

RowReadout
SoftMcHost::rd(Bank bank)
{
    // Checked before the injector's VRT draw, which needs an open row.
    const Row open = dram.bankAt(bank).openRow();
    UTRR_ASSERT(open != kInvalidRow, "RD with no open row");
    if (fault != nullptr)
        fault->onRowRead(dram, bank, open, clock);
    RowReadout readout = dram.rd(bank);
    if (fault != nullptr)
        fault->corruptReadout(readout, bank, clock);
    cmdTrace.record(TraceKind::kRd, bank, kInvalidRow, clock,
                    timingParams.tBURST);
    clock += timingParams.tBURST;
    return readout;
}

void
SoftMcHost::ref()
{
    if (mitigation != nullptr)
        mitigation->onRefresh(clock);
    // A dropped REF occupies the bus and counts on the host side, but
    // the module never performs the refresh sweep.
    if (fault == nullptr || !fault->shouldDropRef(clock))
        dram.ref(clock);
    cmdTrace.record(TraceKind::kRef, 0, kInvalidRow, clock,
                    timingParams.tRFC);
    clock += timingParams.tRFC;
    ++refCmds;
    checkWatchdog();
}

void
SoftMcHost::refBurst(int count)
{
    UTRR_PROF_SCOPE_SIM("softmc.ref_burst", &clock);
    for (int i = 0; i < count; ++i)
        ref();
}

void
SoftMcHost::refAtDefaultRate(int count)
{
    UTRR_PROF_SCOPE_SIM("softmc.ref_default_rate", &clock);
    const Time start = clock;
    for (int i = 0; i < count; ++i) {
        ref();
        Time gap = timingParams.tREFI - timingParams.tRFC;
        if (fault != nullptr)
            gap += fault->refJitter(clock);
        clock += gap;
    }
    if (fault != nullptr)
        fault->onTimeAdvance(dram, start, clock);
    checkWatchdog();
}

void
SoftMcHost::wait(Time ns)
{
    UTRR_PROF_SCOPE_SIM("softmc.wait", &clock);
    UTRR_ASSERT(ns >= 0, "cannot wait negative time");
    cmdTrace.record(TraceKind::kWait, 0, kInvalidRow, clock, ns);
    const Time start = clock;
    clock += ns;
    if (fault != nullptr)
        fault->onTimeAdvance(dram, start, clock);
    checkWatchdog();
}

void
SoftMcHost::waitWithRefresh(Time ns)
{
    UTRR_PROF_SCOPE_SIM("softmc.wait_refresh", &clock);
    const Time start = clock;
    const Time deadline = clock + ns;
    while (clock + timingParams.tREFI <= deadline) {
        Time gap = timingParams.tREFI - timingParams.tRFC;
        if (fault != nullptr)
            gap += fault->refJitter(clock);
        clock += gap;
        ref();
    }
    clock = std::max(clock, deadline);
    if (fault != nullptr)
        fault->onTimeAdvance(dram, start, clock);
    checkWatchdog();
}

void
SoftMcHost::writeRow(Bank bank, Row row, const DataPattern &pattern)
{
    act(bank, row);
    wr(bank, pattern);
    pre(bank);
}

RowReadout
SoftMcHost::readRow(Bank bank, Row row)
{
    act(bank, row);
    RowReadout readout = rd(bank);
    pre(bank);
    return readout;
}

class SoftMcHost::RangeHook final : public DramModule::RowRangeHook
{
  public:
    explicit RangeHook(SoftMcHost &host) : host(host) {}

    bool
    writeRow(Bank bank, Row logical, Time act) override
    {
        const Time wr = recordAct(bank, logical, act);
        const bool kept =
            host.fault == nullptr || !host.fault->shouldDropWr(bank, wr);
        recordBurst(TraceKind::kWr, bank, wr);
        return kept;
    }

    int
    readRow(Bank bank, Row logical, Time act,
            const DataPattern &expected) override
    {
        const Time rd = recordAct(bank, logical, act);
        FaultInjector *fault = host.fault;
        if (fault != nullptr) {
            fault->onRowRead(host.dram, bank,
                             host.dram.bankAt(bank).openRow(), rd);
        }
        RowReadout readout = host.dram.rd(bank);
        if (fault != nullptr)
            fault->corruptReadout(readout, bank, rd);
        recordBurst(TraceKind::kRd, bank, rd);
        return readout.countFlipsVs(expected, logical);
    }

  private:
    /** The ACT record; returns the time of the row's WR or RD. */
    Time
    recordAct(Bank bank, Row logical, Time act)
    {
        const Time ras = host.timingParams.tRAS;
        host.cmdTrace.record(TraceKind::kAct, bank, logical, act, ras);
        return act + ras;
    }

    /** The WR or RD record at @p at, then the row's PRE record. */
    void
    recordBurst(TraceKind kind, Bank bank, Time at)
    {
        const Timing &t = host.timingParams;
        host.cmdTrace.record(kind, bank, kInvalidRow, at, t.tBURST);
        host.cmdTrace.record(TraceKind::kPre, bank, kInvalidRow,
                             at + t.tBURST, t.tRP);
    }

    SoftMcHost &host;
};

bool
SoftMcHost::canBatchRows(Row rows) const
{
    if (execModeV != ExecMode::kCompiled || mitigation != nullptr ||
        rows <= 0) {
        return false;
    }
    // Every row's ACT polls the watchdog; the last one does at start +
    // (rows-1)*rowCycle + tRAS.
    const Time last_poll =
        (rows - 1) * timingParams.rowCycle() + timingParams.tRAS;
    return wdDeadline < 0 || clock + last_poll <= wdDeadline;
}

DramModule::RowRangeHook *
SoftMcHost::rangeHook(RangeHook &hook)
{
    return fault != nullptr || cmdTrace.enabled() ? &hook : nullptr;
}

void
SoftMcHost::finishRows(Row rows)
{
    acts += static_cast<std::uint64_t>(rows);
    clock += rows * timingParams.rowCycle();
    // One poll for the range, as for a fused hammer; a deadline inside
    // the last row's burst or PRE fires on the next command, as in the
    // per-row loop, whose WR, RD and PRE do not poll.
    pollStopFlag();
}

void
SoftMcHost::writeRows(Bank bank, Row first, Row last,
                      const DataPattern &pattern)
{
    UTRR_PROF_SCOPE_SIM("softmc.write_rows", &clock);
    if (!canBatchRows(last - first)) {
        for (Row r = first; r < last; ++r)
            writeRow(bank, r, pattern);
        return;
    }
    RangeHook hook(*this);
    dram.writeRows(bank, first, last, pattern, clock, timingParams,
                   rangeHook(hook));
    finishRows(last - first);
}

std::vector<int>
SoftMcHost::readRows(Bank bank, Row first, Row last,
                     const DataPattern &expected)
{
    UTRR_PROF_SCOPE_SIM("softmc.read_rows", &clock);
    std::vector<int> flips(
        static_cast<std::size_t>(std::max<Row>(last - first, 0)));
    if (!canBatchRows(last - first)) {
        for (Row r = first; r < last; ++r) {
            flips[static_cast<std::size_t>(r - first)] =
                readRow(bank, r).countFlipsVs(expected, r);
        }
        return flips;
    }
    RangeHook hook(*this);
    dram.readRows(bank, first, last, expected, clock, timingParams,
                  flips.data(), rangeHook(hook));
    finishRows(last - first);
    return flips;
}

void
SoftMcHost::hammerOnce(Bank bank, Row row)
{
    if (fault != nullptr && fault->shouldDropHammerAct(bank, row, clock)) {
        // The cycle burns bus time and counts on the host side, but the
        // module never sees the activation (no disturbance, no TRR
        // sampling).
        cmdTrace.record(TraceKind::kAct, bank, row, clock,
                        timingParams.tRAS);
        clock += timingParams.hammerCycle();
        ++acts;
        checkWatchdog();
        return;
    }
    act(bank, row);
    pre(bank);
}

bool
SoftMcHost::canBatchHammer(std::int64_t cycles) const
{
    if (execModeV != ExecMode::kCompiled || mitigation != nullptr ||
        cycles <= 1) {
        return false;
    }
    // The interpreter's watchdog fires after the ACT that crosses the
    // deadline (mid-burst, with the bank left open); if any poll of
    // this burst could cross it, run the exact per-cycle path instead.
    // The last ACT's poll point is at start + (cycles-1)*hammerCycle +
    // tRAS; a dropped cycle polls only after its whole cycle, so with
    // an injector attached the last poll can be at start +
    // cycles*hammerCycle.
    const Time last_poll = fault != nullptr
        ? cycles * timingParams.hammerCycle()
        : (cycles - 1) * timingParams.hammerCycle() + timingParams.tRAS;
    return wdDeadline < 0 || clock + last_poll <= wdDeadline;
}

std::int64_t
SoftMcHost::nextHammerDrop(std::int64_t cycle, std::int64_t total)
{
    return cycle +
        (fault != nullptr ? fault->hammerActsBeforeDrop(total - cycle)
                          : total - cycle);
}

void
SoftMcHost::planBurstAggressor(HammerBurst &burst, int i, Time first_act)
{
    // A default ActPlan has no bank: the aggressor is not planned yet.
    if (burst.plans[i].bankPtr == nullptr) {
        burst.plans[i] = cachedPlan(burst.rows[i].first,
                                    burst.rows[i].second, first_act);
    }
}

void
SoftMcHost::hammerRounds(HammerBurst &burst, int rounds)
{
    const bool foldable = burst.n <= DramBank::kMaxInterleavedFold;
    while (rounds > 0) {
        // Whole drop-free rounds ahead of the cursor, which sits at a
        // round boundary (no division when every round is drop-free,
        // as in a fault-free call).
        const std::int64_t ahead = burst.nextDrop - burst.cycle;
        const int free =
            ahead >= static_cast<std::int64_t>(rounds) * burst.n
            ? rounds : static_cast<int>(ahead / burst.n);
        if (foldable && free > 0) {
            foldHammerRounds(burst, free);
            rounds -= free;
            continue;
        }
        // The round that holds the next drop replays per ACT — and so
        // does every round of more aggressors than one fold takes.
        const int replay = foldable ? 1 : rounds;
        for (int k = 0; k < replay; ++k) {
            for (int i = 0; i < burst.n; ++i)
                replayHammerCycle(burst, i);
        }
        rounds -= replay;
    }
}

void
SoftMcHost::foldHammerRounds(HammerBurst &burst, int rounds)
{
    const Time ras = timingParams.tRAS;
    const Time stride = burst.multiBank ? 0 : timingParams.hammerCycle();
    // Every ACT of the first folded round survives, so an aggressor
    // not planned yet has its first surviving ACT there.
    for (int i = 0; i < burst.n; ++i)
        planBurstAggressor(burst, i, clock + static_cast<Time>(i) * stride);
    dram.actInterleavedBurst(burst.plans, burst.n, rounds, clock, stride);
    if (cmdTrace.enabled()) {
        Time t = clock;
        for (int k = 0; k < rounds; ++k) {
            for (int i = 0; i < burst.n; ++i) {
                const auto &[bank, row] = burst.rows[i];
                cmdTrace.record(TraceKind::kAct, bank, row, t, ras);
                if (!burst.multiBank) {
                    cmdTrace.record(TraceKind::kPre, bank, kInvalidRow,
                                    t + ras, timingParams.tRP);
                }
                t += stride;
            }
        }
    }
    const auto cycles = static_cast<std::int64_t>(burst.n) * rounds;
    burst.cycle += cycles;
    acts += static_cast<std::uint64_t>(cycles);
    clock += cycles * stride;
}

void
SoftMcHost::replayHammerCycle(HammerBurst &burst, int i)
{
    const auto &[bank, row] = burst.rows[i];
    const Time ras = timingParams.tRAS;
    if (burst.cycle == burst.nextDrop) {
        // The bus slot burns and the module never sees the ACT. The
        // FAULT event lands where the interpreter records it: before
        // the ACT in hammerOnce, after it in the multi-bank loop.
        if (!burst.multiBank)
            fault->dropHammerAct(bank, row, clock);
        cmdTrace.record(TraceKind::kAct, bank, row, clock, ras);
        if (burst.multiBank)
            fault->dropHammerAct(bank, row, clock);
        burst.nextDrop = nextHammerDrop(burst.cycle + 1, burst.total);
    } else {
        planBurstAggressor(burst, i, clock);
        dram.actPlanned(burst.plans[i], clock);
        cmdTrace.record(TraceKind::kAct, bank, row, clock, ras);
        if (!burst.multiBank) {
            cmdTrace.record(TraceKind::kPre, bank, kInvalidRow, clock + ras,
                            timingParams.tRP);
        }
    }
    if (!burst.multiBank)
        clock += timingParams.hammerCycle();
    ++burst.cycle;
    ++acts;
}

void
SoftMcHost::hammer(Bank bank, Row row, int count)
{
    UTRR_PROF_SCOPE_SIM("softmc.hammer", &clock);
    if (!canBatchHammer(count)) {
        for (int i = 0; i < count; ++i)
            hammerOnce(bank, row);
        return;
    }
    // Fused burst: the one-aggressor case of the round-robin fold. The
    // plan cache makes back-to-back bursts of the same row (dummy fills
    // hammer the same handful every REF slot) skip translation and row
    // lookups.
    const std::pair<Bank, Row> target{bank, row};
    DramModule::ActPlan plan;
    HammerBurst burst{&target, &plan, 1, false, 0, count,
                      nextHammerDrop(0, count)};
    hammerRounds(burst, count);
    // The fused span polls cancellation once instead of per ACT. The
    // watchdog was pre-checked up to the last poll point; a deadline
    // inside the last ACT's PRE fires on the next command, as in the
    // interpreter, whose PRE does not poll.
    pollStopFlag();
}

void
SoftMcHost::hammerInterleaved(
    const std::vector<std::pair<Bank, Row>> &rows,
    const std::vector<int> &counts)
{
    UTRR_PROF_SCOPE_SIM("softmc.hammer_interleaved", &clock);
    UTRR_ASSERT(rows.size() == counts.size(),
                "one count per aggressor row");
    std::int64_t total = 0;
    for (int c : counts)
        total += std::max(c, 0);
    if (!canBatchHammer(total)) {
        bool remaining = true;
        std::vector<int> left(counts);
        while (remaining) {
            remaining = false;
            for (std::size_t i = 0; i < rows.size(); ++i) {
                if (left[i] <= 0)
                    continue;
                hammerOnce(rows[i].first, rows[i].second);
                if (--left[i] > 0)
                    remaining = true;
            }
        }
        return;
    }

    // Batched round robin, in phases: the aggressors still running
    // share min(left) more rounds, then those that finished leave
    // (order kept), exactly as the interpreter's passes skip them.
    // Scratch stays on the stack for the common small fan-outs; a
    // heap-allocated vector per call would eat a measurable slice of
    // the fold's win (the batched path runs once per REF slot).
    const std::size_t n = rows.size();
    constexpr std::size_t kStackAggr = 16;
    std::pair<Bank, Row> rowsBuf[kStackAggr];
    DramModule::ActPlan plansBuf[kStackAggr];
    int leftBuf[kStackAggr];
    std::vector<std::pair<Bank, Row>> rowsHeap;
    std::vector<DramModule::ActPlan> plansHeap;
    std::vector<int> leftHeap;
    std::pair<Bank, Row> *live = rowsBuf;
    DramModule::ActPlan *plans = plansBuf;
    int *left = leftBuf;
    if (n > kStackAggr) {
        rowsHeap.resize(n);
        plansHeap.resize(n);
        leftHeap.resize(n);
        live = rowsHeap.data();
        plans = plansHeap.data();
        left = leftHeap.data();
    }
    int m = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (counts[i] <= 0)
            continue;
        live[m] = rows[i];
        left[m] = counts[i];
        ++m;
    }
    HammerBurst burst{live, plans, m, false, 0, total,
                      nextHammerDrop(0, total)};
    while (burst.n > 0) {
        const int rounds = *std::min_element(left, left + burst.n);
        hammerRounds(burst, rounds);
        int kept = 0;
        for (int i = 0; i < burst.n; ++i) {
            left[i] -= rounds;
            if (left[i] == 0)
                continue;
            live[kept] = live[i];
            plans[kept] = plans[i];
            left[kept] = left[i];
            ++kept;
        }
        burst.n = kept;
    }
    // The fused span polls cancellation once instead of per ACT (the
    // watchdog was pre-checked for the whole run).
    pollStopFlag();
}

void
SoftMcHost::hammerCascaded(const std::vector<std::pair<Bank, Row>> &rows,
                           const std::vector<int> &counts)
{
    UTRR_PROF_SCOPE_SIM("softmc.hammer_cascaded", &clock);
    UTRR_ASSERT(rows.size() == counts.size(),
                "one count per aggressor row");
    for (std::size_t i = 0; i < rows.size(); ++i)
        hammer(rows[i].first, rows[i].second, counts[i]);
}

void
SoftMcHost::hammerMultiBank(
    const std::vector<std::pair<Bank, Row>> &rows, int count_each)
{
    UTRR_PROF_SCOPE_SIM("softmc.hammer_multibank", &clock);
    // Banks hammer in parallel; throughput is limited by both the
    // per-bank cycle time and the four-activation window.
    const auto banks = static_cast<std::int64_t>(rows.size());
    if (banks == 0 || count_each <= 0)
        return;

    // Every ACT of the call issues at its start time, so in the compiled
    // tier the call is an interleaved burst at stride 0 (plans built at
    // that time materialize rows as the loop would; dropped cycles
    // replay their round per ACT); a mitigation and more rows than one
    // fold takes keep the per-ACT loop.
    const Time start = clock;
    const int n = static_cast<int>(banks);
    Time penalty = 0;
    if (execModeV == ExecMode::kCompiled && mitigation == nullptr &&
        n <= DramBank::kMaxInterleavedFold) {
        DramModule::ActPlan plans[DramBank::kMaxInterleavedFold];
        const std::int64_t total = banks * count_each;
        HammerBurst burst{rows.data(), plans, n, true, 0, total,
                          nextHammerDrop(0, total)};
        hammerRounds(burst, count_each);
    } else {
        for (int i = 0; i < count_each; ++i) {
            for (const auto &[bank, row] : rows) {
                if (mitigation != nullptr) {
                    const Time before = clock;
                    applyMitigation(bank, row);
                    penalty += clock - before;
                    clock = before;
                }
                cmdTrace.record(TraceKind::kAct, bank, row, clock,
                                timingParams.tRAS);
                ++acts;
                if (fault != nullptr &&
                    fault->shouldDropHammerAct(bank, row, clock))
                    continue; // bus slot burnt, module never sees the ACT
                dram.act(bank, row, clock);
                dram.pre(bank, clock);
            }
        }
    }
    const Time per_bank_bound =
        static_cast<Time>(count_each) * timingParams.hammerCycle();
    const Time tfaw_bound = static_cast<Time>(count_each) * banks *
        timingParams.tFAW / 4;
    clock = start + std::max(per_bank_bound, tfaw_bound) + penalty;
    checkWatchdog();
}

namespace
{

/**
 * Consecutive ACT+PRE pairs on one (bank, row) starting at ins[@p at]:
 * the length of the hammer loop it opens, 0 when it opens none.
 */
int
hammerRunAt(const std::vector<Instr> &ins, std::size_t at)
{
    const Instr &first = ins[at];
    int pairs = 0;
    for (std::size_t j = at; j + 1 < ins.size(); j += 2) {
        if (ins[j].op != Op::kAct || ins[j].bank != first.bank ||
            ins[j].row != first.row || ins[j + 1].op != Op::kPre ||
            ins[j + 1].bank != first.bank) {
            break;
        }
        ++pairs;
    }
    return pairs;
}

} // namespace

ExecResult
SoftMcHost::execute(const Program &program)
{
    UTRR_PROF_SCOPE_SIM("softmc.execute", &clock);
    // In the compiled tier a run of two or more ACT+PRE pairs on one
    // row is one hammer() call, which folds the burst and keeps the
    // per-ACT watchdog poll points. A mitigation or fault injector
    // keeps every pair a plain ACT and PRE: the mitigation hooks each
    // command as recorded, and hammer() would draw hammer-ACT drops
    // that a program's plain ACTs never draw.
    const bool fold_hammers = execModeV == ExecMode::kCompiled &&
        mitigation == nullptr && fault == nullptr;
    const std::vector<Instr> &ins = program.instructions();
    ExecResult result;
    result.startTime = clock;
    for (std::size_t i = 0; i < ins.size(); ++i) {
        const Instr &instr = ins[i];
        switch (instr.op) {
          case Op::kAct: {
            // A lone pair runs as ACT then PRE: hammer(..., 1) never
            // folds.
            const int pairs = fold_hammers ? hammerRunAt(ins, i) : 0;
            if (pairs < 2) {
                act(instr.bank, instr.row);
                break;
            }
            int cycles = pairs;
#ifdef UTRR_MUTATION_FUSION_OFF_BY_ONE
            // Planted bug for CI mutation-sanity: a folded hammer run
            // silently loses one cycle. The compiled-vs-interpreted
            // execution oracle must catch this.
            --cycles;
#endif
            hammer(instr.bank, instr.row, cycles);
            i += 2 * static_cast<std::size_t>(pairs) - 1;
            break;
          }
          case Op::kPre:
            pre(instr.bank);
            break;
          case Op::kWr:
            wr(instr.bank, instr.pattern);
            break;
          case Op::kWrWord:
            wrWord(instr.bank, instr.wordIdx, instr.value);
            break;
          case Op::kRd: {
            // rd() first: with no open row it dies with its own
            // message, before the row address is translated.
            ReadRecord record;
            record.bank = instr.bank;
            record.when = clock;
            record.readout = rd(instr.bank);
            record.row = dram.toLogical(
                instr.bank, dram.bankAt(instr.bank).openRow());
            result.reads.push_back(std::move(record));
            break;
          }
          case Op::kRef:
            ref();
            break;
          case Op::kWait:
            wait(instr.waitNs);
            break;
          case Op::kWaitRef:
            waitWithRefresh(instr.waitNs);
            break;
        }
    }
    result.endTime = clock;
    return result;
}

} // namespace utrr
