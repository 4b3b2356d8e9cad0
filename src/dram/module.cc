#include "dram/module.hh"

#include <sstream>

#include "common/logging.hh"
#include "obs/profiler.hh"

namespace utrr
{

DramModule::DramModule(ModuleSpec spec, std::uint64_t seed,
                       const RetentionModelConfig *retention_overrides)
    : moduleSpec(std::move(spec)),
      engine(moduleSpec.physRowsPerBank(), moduleSpec.refreshPeriodRefs)
{
    RetentionModelConfig ret_cfg;
    if (retention_overrides != nullptr)
        ret_cfg = *retention_overrides;

    HammerModelConfig ham_cfg;
    ham_cfg.hcFirst = moduleSpec.hcFirst;
    ham_cfg.rowSigma = moduleSpec.hcRowSigma;
    ham_cfg.paired = moduleSpec.paired();

    gen = std::make_unique<PhysicsGenerator>(ret_cfg, ham_cfg, seed,
                                             moduleSpec.rowBits);

    Rng map_rng(hashMix(seed ^ 0xdeadbeefULL));
    banks.reserve(static_cast<std::size_t>(moduleSpec.banks));
    mappings.reserve(static_cast<std::size_t>(moduleSpec.banks));
    for (Bank b = 0; b < moduleSpec.banks; ++b) {
        banks.emplace_back(b, moduleSpec.physRowsPerBank(), gen.get());
        mappings.emplace_back(moduleSpec.scramble, moduleSpec.rowsPerBank,
                              moduleSpec.remapsPerBank,
                              map_rng.fork(static_cast<std::uint64_t>(b)));
        openLogical.push_back(kInvalidRow);
    }

    trr = makeTrr(moduleSpec.trr, moduleSpec.banks,
                  hashMix(seed ^ 0x7272ULL));
    trr->attachGroundTruth(&gtStore);
    gtTrrEvents = &gtStore.counter("chip.trr_events");
    gtTrrVictims = &gtStore.counter("chip.trr_victim_refreshes");
}

DramBank &
DramModule::bankAt(Bank bank)
{
    UTRR_ASSERT(bank >= 0 && bank < moduleSpec.banks,
                logFmt("bank ", bank, " out of range"));
    return banks[static_cast<std::size_t>(bank)];
}

const DramBank &
DramModule::bankAt(Bank bank) const
{
    UTRR_ASSERT(bank >= 0 && bank < moduleSpec.banks,
                logFmt("bank ", bank, " out of range"));
    return banks[static_cast<std::size_t>(bank)];
}

const RowMapping &
DramModule::mapping(Bank bank) const
{
    UTRR_ASSERT(bank >= 0 && bank < moduleSpec.banks,
                logFmt("bank ", bank, " out of range"));
    return mappings[static_cast<std::size_t>(bank)];
}

Row
DramModule::toPhysical(Bank bank, Row logical_row) const
{
    return mapping(bank).toPhysical(logical_row);
}

Row
DramModule::toLogical(Bank bank, Row phys_row) const
{
    return mapping(bank).toLogical(phys_row);
}

void
DramModule::act(Bank bank, Row logical_row, Time now)
{
    const Row phys = toPhysical(bank, logical_row);
    bankAt(bank).activate(phys, now);
    openLogical[static_cast<std::size_t>(bank)] = logical_row;
    trr->onActivate(bank, phys);
    if (ctrActs != nullptr) {
        ctrActs->inc();
        ctrBankActs[static_cast<std::size_t>(bank)]->inc();
    }
}

DramModule::ActPlan
DramModule::buildActPlan(Bank bank, Row logical_row, Time now)
{
    ActPlan plan;
    plan.bank = bank;
    plan.phys = toPhysical(bank, logical_row);
    plan.bankPtr = &bankAt(bank);
    plan.bankPlan = plan.bankPtr->buildActPlan(plan.phys, now);
    return plan;
}

bool
DramModule::actInterleavedBurst(const ActPlan *plans, int n, int rounds,
                                Time start, Time stride)
{
    if (n <= 0 || n > DramBank::kMaxInterleavedFold || rounds <= 0)
        return false;
    // Group the plans per bank, preserving global round order: the
    // within-bank subsequence keeps every victim's contributor order
    // and the earlier/later-in-round aggressor relation intact, and
    // banks share no physical state, so each one independently runs
    // its first round per ACT and folds or — when it cannot prove
    // foldability (VRT aggressor, duplicate row, charge near the hammer
    // floor) — replays the rest (DramBank::activateRoundRobin). All
    // scratch is stack-allocated: the fold's win over the per-cycle
    // loop would drown in per-call heap traffic otherwise.
    constexpr int kCap = DramBank::kMaxInterleavedFold;
    DramBank *banks[kCap];
    const DramBank::ActPlan *groups[kCap][kCap];
    // Aggressor i's first ACT: global slot i of the fused train.
    Time firstTimes[kCap][kCap];
    int groupSize[kCap] = {};
    int bankCount = 0;
    for (int i = 0; i < n; ++i) {
        DramBank *bank = plans[i].bankPtr;
        int g = 0;
        while (g < bankCount && banks[g] != bank)
            ++g;
        if (g == bankCount)
            banks[bankCount++] = bank;
        groups[g][groupSize[g]] = &plans[i].bankPlan;
        firstTimes[g][groupSize[g]] = start + static_cast<Time>(i) * stride;
        ++groupSize[g];
    }
    for (int g = 0; g < bankCount; ++g) {
        banks[g]->activateRoundRobin(groups[g], firstTimes[g], groupSize[g],
                                     rounds, static_cast<Time>(n) * stride);
    }
    // TRR observes the exact round-robin ACT order (folded or replayed
    // per mechanism); the TRR tables never read bank charge state
    // mid-burst, so physics-then-TRR ordering is state-preserving.
    Bank trrBanks[kCap];
    Row trrRows[kCap];
    for (int i = 0; i < n; ++i) {
        trrBanks[i] = plans[i].bank;
        trrRows[i] = plans[i].phys;
    }
    trr->onActivateRoundRobin(trrBanks, trrRows, n, rounds);
    if (ctrActs != nullptr) {
        ctrActs->inc(static_cast<std::uint64_t>(n) *
                     static_cast<std::uint64_t>(rounds));
        for (int i = 0; i < n; ++i) {
            ctrBankActs[static_cast<std::size_t>(plans[i].bank)]->inc(
                static_cast<std::uint64_t>(rounds));
        }
    }
    return true;
}

void
DramModule::actPlanned(const ActPlan &plan, Time now)
{
    plan.bankPtr->activatePlanned(plan.bankPlan, now);
    trr->onActivate(plan.bank, plan.phys);
    if (ctrActs != nullptr) {
        ctrActs->inc();
        ctrBankActs[static_cast<std::size_t>(plan.bank)]->inc();
    }
}

template <typename Access>
void
DramModule::accessRows(Bank bank, Row first, Row last, Time start,
                       const Timing &timing, Access &&access)
{
    UTRR_ASSERT(first >= 0 && first <= last &&
                    last <= moduleSpec.rowsPerBank,
                logFmt("row range [", first, ", ", last, ") out of range"));
    DramBank &target = bankAt(bank);
    const RowMapping &map = mapping(bank);
    const Time cycle = timing.rowCycle();
    Time act = start;
    for (Row logical = first; logical < last; ++logical, act += cycle) {
        const Row phys = map.toPhysical(logical);
        RowState &row = target.activate(phys, act);
        trr->onActivate(bank, phys);
        access(logical, row, act);
        target.precharge(act + timing.tRAS + timing.tBURST);
    }
    if (ctrActs != nullptr) {
        const auto n = static_cast<std::uint64_t>(last - first);
        ctrActs->inc(n);
        ctrBankActs[static_cast<std::size_t>(bank)]->inc(n);
    }
}

void
DramModule::writeRows(Bank bank, Row first, Row last,
                      const DataPattern &pattern, Time start,
                      const Timing &timing, RowRangeHook *hook)
{
    accessRows(bank, first, last, start, timing,
               [&](Row logical, RowState &row, Time act) {
                   if (hook != nullptr && !hook->writeRow(bank, logical, act))
                       return; // dropped: the row keeps its old data
                   row.writePattern(pattern, logical, act + timing.tRAS);
                   ++planEpochV;
               });
}

void
DramModule::readRows(Bank bank, Row first, Row last,
                     const DataPattern &expected, Time start,
                     const Timing &timing, int *flips, RowRangeHook *hook)
{
    accessRows(bank, first, last, start, timing,
               [&](Row logical, RowState &row, Time act) {
                   int &out = flips[logical - first];
                   if (hook != nullptr) {
                       out = hook->readRow(bank, logical, act, expected);
                       return;
                   }
                   if (ctrReadFlipBits != nullptr)
                       ctrReadFlipBits->inc(row.committedFlipCount());
                   out = row.readFlipCount(expected, logical);
               });
}

void
DramModule::pre(Bank bank, Time now)
{
    bankAt(bank).precharge(now);
    openLogical[static_cast<std::size_t>(bank)] = kInvalidRow;
}

void
DramModule::wr(Bank bank, const DataPattern &pattern, Time now)
{
    const Row logical = openLogical[static_cast<std::size_t>(bank)];
    UTRR_ASSERT(logical != kInvalidRow, "WR with no open row");
    bankAt(bank).writeOpenRow(pattern, logical, now);
    ++planEpochV; // stored words changed: cached plan weights are stale
}

void
DramModule::wrWord(Bank bank, int word_idx, std::uint64_t value)
{
    bankAt(bank).writeOpenRowWord(word_idx, value);
    ++planEpochV; // stored words changed: cached plan weights are stale
}

RowReadout
DramModule::rd(Bank bank) const
{
    RowReadout readout = bankAt(bank).readOpenRow();
    if (ctrReadFlipBits != nullptr)
        ctrReadFlipBits->inc(readout.rawFlips().size());
    return readout;
}

std::vector<Row>
DramModule::victimRowsOf(Row aggressor_phys) const
{
    std::vector<Row> victims;
    if (moduleSpec.paired()) {
        // Obs. C3: only the pair row is coupled, and only it is
        // refreshed.
        victims.push_back(aggressor_phys ^ 1);
        return victims;
    }
    const int neighbours = moduleSpec.traits().neighborsRefreshed;
    const int reach = neighbours >= 4 ? 2 : 1;
    for (int d = 1; d <= reach; ++d) {
        victims.push_back(aggressor_phys - d);
        victims.push_back(aggressor_phys + d);
    }
    return victims;
}

void
DramModule::ref(Time now)
{
    UTRR_PROF_SCOPE("dram.ref");
    for (Bank b = 0; b < moduleSpec.banks; ++b) {
        UTRR_ASSERT(banks[static_cast<std::size_t>(b)].openRow() ==
                        kInvalidRow,
                    logFmt("REF with bank ", b, " open"));
    }
    ++refs;

    // Regular refresh: every bank refreshes the same physical window.
    if (const auto range = engine.onRefresh()) {
        for (auto &bank : banks)
            bank.refreshRange(range->first, range->second, now);
    }

    // TRR-induced refresh piggybacking on this REF (footnote 3).
    for (const TrrRefreshAction &action : trr->onRefresh()) {
        DramBank &bank = bankAt(action.bank);
        ++trrEvents;
        gtTrrEvents->inc();
        for (Row victim : victimRowsOf(action.aggressorPhysRow)) {
            if (victim < 0 || victim >= moduleSpec.physRowsPerBank())
                continue;
            bank.refreshRow(victim, now);
            ++trrRefreshes;
            gtTrrVictims->inc();
            gtVictimCounter(action.bank, victim).inc();
        }
    }
    if (ctrRefs != nullptr)
        ctrRefs->inc();
}

Counter &
DramModule::gtVictimCounter(Bank bank, Row phys_row)
{
    const auto key = std::make_pair(bank, phys_row);
    auto it = gtVictimCounters.find(key);
    if (it == gtVictimCounters.end()) {
        std::ostringstream name;
        name << "chip.trr_victim_refresh.b" << bank << ".r" << phys_row;
        it = gtVictimCounters.emplace(key, &gtStore.counter(name.str()))
                 .first;
    }
    return *it->second;
}

void
DramModule::attachMetrics(MetricsRegistry *registry)
{
    metrics = registry;
    engine.attachMetrics(registry);
    if (registry == nullptr) {
        ctrActs = nullptr;
        ctrRefs = nullptr;
        ctrReadFlipBits = nullptr;
        ctrBankActs.clear();
        return;
    }
    ctrActs = &registry->counter("dram.acts");
    ctrRefs = &registry->counter("dram.refs");
    ctrReadFlipBits = &registry->counter("dram.read_flip_bits");
    ctrBankActs.clear();
    for (Bank b = 0; b < moduleSpec.banks; ++b) {
        std::ostringstream name;
        name << "dram.acts.bank" << b;
        ctrBankActs.push_back(&registry->counter(name.str()));
    }
}

int
DramModule::refsUntilRegularRefresh(Row phys_row) const
{
    return engine.refsUntilRow(phys_row);
}

RowPerfCounters
DramModule::perfTotals() const
{
    RowPerfCounters total;
    for (const DramBank &bank : banks) {
        const RowPerfCounters &p = bank.perf();
        total.restoreFastPath += p.restoreFastPath;
        total.restoreSlowPath += p.restoreSlowPath;
        total.hammerCellAttaches += p.hammerCellAttaches;
        total.readoutCowCopies += p.readoutCowCopies;
        total.readoutShares += p.readoutShares;
    }
    return total;
}

void
DramModule::publishPerfCounters()
{
    if (metrics == nullptr)
        return;
    const RowPerfCounters t = perfTotals();
    metrics->counter("dram.restore.fast_path").value = t.restoreFastPath;
    metrics->counter("dram.restore.slow_path").value = t.restoreSlowPath;
    metrics->counter("dram.hammer_cell_attaches").value =
        t.hammerCellAttaches;
    metrics->counter("dram.readout.cow_copies").value = t.readoutCowCopies;
    metrics->counter("dram.readout.cow_shares").value = t.readoutShares;
}

void
DramModule::scaleRowRetention(Bank bank, Row phys_row, double factor,
                              Time now)
{
    bankAt(bank).scaleRowRetention(phys_row, factor, now);
}

void
DramModule::scaleAllRetention(double factor)
{
    for (auto &bank : banks)
        bank.scaleAllRetention(factor);
}

} // namespace utrr
