#include "check/reference_module.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace utrr
{

ReferenceModule::ReferenceModule(const ModuleSpec &module_spec,
                                 std::uint64_t seed,
                                 const RetentionModelConfig
                                     *retention_overrides,
                                 Timing timing)
    : spec(module_spec), timingParams(timing)
{
    // Seed derivations must match DramModule's constructor exactly:
    // the reference builds the *same silicon*, then interprets its
    // dynamics independently.
    RetentionModelConfig ret_cfg;
    if (retention_overrides != nullptr)
        ret_cfg = *retention_overrides;

    HammerModelConfig ham_cfg;
    ham_cfg.hcFirst = spec.hcFirst;
    ham_cfg.rowSigma = spec.hcRowSigma;
    ham_cfg.paired = spec.paired();

    gen = std::make_unique<PhysicsGenerator>(ret_cfg, ham_cfg, seed,
                                             spec.rowBits);
    vrtDwellNs = msToNs(ret_cfg.vrtDwellMs);
    vrtHighFactor = ret_cfg.vrtHighFactor;

    Rng map_rng(hashMix(seed ^ 0xdeadbeefULL));
    banks.resize(static_cast<std::size_t>(spec.banks));
    mappings.reserve(static_cast<std::size_t>(spec.banks));
    for (Bank b = 0; b < spec.banks; ++b) {
        mappings.emplace_back(spec.scramble, spec.rowsPerBank,
                              spec.remapsPerBank,
                              map_rng.fork(static_cast<std::uint64_t>(b)));
    }

    trr = makeTrr(spec.trr, spec.banks, hashMix(seed ^ 0x7272ULL));
    trr->attachGroundTruth(&gtStore);
}

std::uint64_t
ReferenceModule::rowRefreshCount(Bank bank) const
{
    UTRR_ASSERT(bank >= 0 && bank < spec.banks, "bank out of range");
    return banks[static_cast<std::size_t>(bank)].rowRefreshes;
}

ReferenceModule::RefRow &
ReferenceModule::materialize(RefBank &bank, Bank bank_id, Row phys_row,
                             Time when)
{
    UTRR_ASSERT(phys_row >= 0 && phys_row < spec.physRowsPerBank(),
                logFmt("reference row ", phys_row, " out of range"));
    auto it = bank.rows.find(phys_row);
    if (it != bank.rows.end())
        return it->second;

    // A first-touch row counts as freshly refreshed *now*, exactly like
    // DramBank::rowAt. The production bank materializes retention-only
    // physics and attaches hammer cells lazily; the reference generates
    // everything eagerly — fillRetention draws first from the same
    // per-row stream, so the weak cells are identical, and untouched
    // hammer cells are inert at zero charge.
    RefRow row;
    row.phys = gen->generate(bank_id, phys_row);
    row.lastRestore = when;
    row.lastVrtCheck = when;
    row.vrtRng = Rng(hashMix(
        0x9e3779b9ULL ^ (static_cast<std::uint64_t>(bank_id) << 44) ^
        static_cast<std::uint64_t>(phys_row)));
    return bank.rows.emplace(phys_row, std::move(row)).first->second;
}

bool
ReferenceModule::storedBit(const RefRow &row, Col col) const
{
    const auto it = row.overrides.find(col / 64);
    if (it != row.overrides.end())
        return ((it->second >> (col % 64)) & 1) != 0;
    return row.pattern.bit(row.patRow, col);
}

std::uint64_t
ReferenceModule::storedWord(const RefRow &row, int word_idx) const
{
    const auto it = row.overrides.find(word_idx);
    if (it != row.overrides.end())
        return it->second;
    return row.pattern.word(row.patRow, word_idx);
}

Time
ReferenceModule::effectiveRetention(RefRow &row, const WeakCell &cell,
                                    Time when)
{
    const Time retention = cell.retention;
    if (!cell.vrt)
        return retention;

    // The symmetric telegraph process consumes exactly one Bernoulli
    // draw per elapsed interval, mirroring RowState::effectiveRetention
    // draw for draw (the VRT stream is part of the visible state).
    const Time dt = when - row.lastVrtCheck;
    if (dt > 0 && vrtDwellNs > 0) {
        const double p_switch =
            0.5 * (1.0 -
                   std::exp(-2.0 * static_cast<double>(dt) /
                            static_cast<double>(vrtDwellNs)));
        if (row.vrtRng.chance(p_switch))
            row.vrtHigh = !row.vrtHigh;
        row.lastVrtCheck = when;
    }
    if (!row.vrtHigh)
        return retention;
    return static_cast<Time>(static_cast<double>(retention) *
                             vrtHighFactor);
}

void
ReferenceModule::commitDueFlips(RefRow &row, Time when)
{
    const Time elapsed = when - row.lastRestore;

    for (const WeakCell &cell : row.phys.weakCells) {
        if (elapsed <= effectiveRetention(row, cell, when))
            continue;
        if (storedBit(row, cell.col) != cell.chargedValue)
            continue;
        row.flipped.insert(cell.col);
    }

    // Naive full scan: no reliance on the threshold ordering the
    // production commit early-exits on.
    for (const HammerCell &cell : row.phys.hammerCells) {
        if (cell.threshold > row.charge)
            continue;
        if (storedBit(row, cell.col) != cell.chargedValue)
            continue;
        row.flipped.insert(cell.col);
    }
}

void
ReferenceModule::restore(RefRow &row, Time when)
{
    commitDueFlips(row, when);
    row.lastRestore = when;
    row.charge = 0.0;
    row.lastAggressor = kInvalidRow;
}

void
ReferenceModule::disturbOne(RefBank &bank, Bank bank_id, Row aggressor,
                            RefRow &aggr_state, Row victim,
                            double weight, Time when)
{
    if (victim < 0 || victim >= spec.physRowsPerBank())
        return;
    RefRow &v = materialize(bank, bank_id, victim, when);

    const auto &ham = gen->hammerConfig();
    double w = weight;
    if (v.lastAggressor == aggressor)
        w *= ham.repeatWeight;
    if (storedWord(aggr_state, 0) == storedWord(v, 0))
        w *= ham.sameDataWeight;
    v.charge += w;
    v.lastAggressor = aggressor;
}

std::vector<Row>
ReferenceModule::victimRowsOf(Row aggressor_phys) const
{
    std::vector<Row> victims;
    if (spec.paired()) {
        victims.push_back(aggressor_phys ^ 1);
        return victims;
    }
    const int neighbours = spec.traits().neighborsRefreshed;
    const int reach = neighbours >= 4 ? 2 : 1;
    for (int d = 1; d <= reach; ++d) {
        victims.push_back(aggressor_phys - d);
        victims.push_back(aggressor_phys + d);
    }
    return victims;
}

void
ReferenceModule::doAct(Bank bank_id, Row logical_row)
{
    RefBank &bank = banks[static_cast<std::size_t>(bank_id)];
    UTRR_ASSERT(bank.open == kInvalidRow,
                logFmt("reference ACT to open bank ", bank_id));
    const Row phys =
        mappings[static_cast<std::size_t>(bank_id)].toPhysical(
            logical_row);
    bank.open = phys;
    bank.openLogical = logical_row;
    restore(materialize(bank, bank_id, phys, clock), clock);

    RefRow &aggr = bank.rows.at(phys);
    const auto &ham = gen->hammerConfig();
    if (ham.paired) {
        disturbOne(bank, bank_id, phys, aggr, phys ^ 1, 1.0, clock);
    } else {
        disturbOne(bank, bank_id, phys, aggr, phys - 1, 1.0, clock);
        disturbOne(bank, bank_id, phys, aggr, phys + 1, 1.0, clock);
        if (ham.distance2Weight > 0.0) {
            disturbOne(bank, bank_id, phys, aggr, phys - 2,
                       ham.distance2Weight, clock);
            disturbOne(bank, bank_id, phys, aggr, phys + 2,
                       ham.distance2Weight, clock);
        }
    }
    trr->onActivate(bank_id, phys);
}

void
ReferenceModule::doPre(Bank bank_id)
{
    RefBank &bank = banks[static_cast<std::size_t>(bank_id)];
    bank.open = kInvalidRow;
    bank.openLogical = kInvalidRow;
}

void
ReferenceModule::doWr(Bank bank_id, const DataPattern &pattern)
{
    RefBank &bank = banks[static_cast<std::size_t>(bank_id)];
    UTRR_ASSERT(bank.open != kInvalidRow, "reference WR with no open row");
    RefRow &row = bank.rows.at(bank.open);
    // Mirrors RowState::writePattern: pending-but-uncommitted decay is
    // simply erased; the VRT stream state is untouched.
    row.pattern = pattern;
    row.patRow = bank.openLogical;
    row.overrides.clear();
    row.flipped.clear();
    row.lastRestore = clock;
}

void
ReferenceModule::doWrWord(Bank bank_id, int word_idx,
                          std::uint64_t value)
{
    RefBank &bank = banks[static_cast<std::size_t>(bank_id)];
    UTRR_ASSERT(bank.open != kInvalidRow,
                "reference WRW with no open row");
    RefRow &row = bank.rows.at(bank.open);
    row.overrides[word_idx] = value;
    const Col lo = static_cast<Col>(word_idx) * 64;
    auto it = row.flipped.lower_bound(lo);
    while (it != row.flipped.end() && *it < lo + 64)
        it = row.flipped.erase(it);
}

ReferenceRead
ReferenceModule::doRd(Bank bank_id)
{
    RefBank &bank = banks[static_cast<std::size_t>(bank_id)];
    UTRR_ASSERT(bank.open != kInvalidRow, "reference RD with no open row");
    const RefRow &row = bank.rows.at(bank.open);

    ReferenceRead read;
    read.bank = bank_id;
    read.row = bank.openLogical;
    read.when = clock;
    const int words = spec.rowBits / 64;
    read.words.resize(static_cast<std::size_t>(words));
    // Rebuild every word from scratch; no committed-flips shortcut.
    for (int w = 0; w < words; ++w)
        read.words[static_cast<std::size_t>(w)] = storedWord(row, w);
    for (Col col : row.flipped)
        read.words[static_cast<std::size_t>(col / 64)] ^=
            1ULL << (col % 64);
    return read;
}

void
ReferenceModule::doRef()
{
    for (Bank b = 0; b < spec.banks; ++b) {
        UTRR_ASSERT(banks[static_cast<std::size_t>(b)].open ==
                        kInvalidRow,
                    logFmt("reference REF with bank ", b, " open"));
    }

    // Regular sweep: the step covers [step*R/P, (step+1)*R/P). This is
    // the *specified* sweep; the production engine's mutation hook (if
    // compiled in) diverges from it, which is the point.
    const auto period = static_cast<std::uint64_t>(
        spec.refreshPeriodRefs);
    const auto rows64 =
        static_cast<std::uint64_t>(spec.physRowsPerBank());
    const std::uint64_t step = refs % period;
    const Row begin = static_cast<Row>(step * rows64 / period);
    const Row end = static_cast<Row>((step + 1) * rows64 / period);
    ++refs;

    for (auto &bank : banks) {
        // Naive: scan every materialized row instead of a range walk.
        for (auto &[phys, row] : bank.rows) {
            if (phys < begin || phys >= end)
                continue;
            ++bank.rowRefreshes;
            restore(row, clock);
        }
    }

    for (const TrrRefreshAction &action : trr->onRefresh()) {
        RefBank &bank =
            banks[static_cast<std::size_t>(action.bank)];
        ++trrEvents;
        for (Row victim : victimRowsOf(action.aggressorPhysRow)) {
            if (victim < 0 || victim >= spec.physRowsPerBank())
                continue;
            // Mirrors DramBank::refreshRow: the refresh is counted even
            // for untouched rows, which stay implicitly fresh.
            ++bank.rowRefreshes;
            ++trrVictims;
            auto it = bank.rows.find(victim);
            if (it != bank.rows.end())
                restore(it->second, clock);
        }
    }
}

void
ReferenceModule::doWaitRef(Time ns)
{
    const Time deadline = clock + ns;
    while (clock + timingParams.tREFI <= deadline) {
        clock += timingParams.tREFI - timingParams.tRFC;
        doRef();
        clock += timingParams.tRFC;
    }
    clock = std::max(clock, deadline);
}

ReferenceResult
ReferenceModule::execute(const Program &program)
{
    ReferenceResult result;
    result.startTime = clock;
    for (const Instr &instr : program.instructions()) {
        switch (instr.op) {
          case Op::kAct:
            doAct(instr.bank, instr.row);
            clock += timingParams.tRAS;
            break;
          case Op::kPre:
            doPre(instr.bank);
            clock += timingParams.tRP;
            break;
          case Op::kWr:
            doWr(instr.bank, instr.pattern);
            clock += timingParams.tBURST;
            break;
          case Op::kWrWord:
            doWrWord(instr.bank, instr.wordIdx, instr.value);
            clock += timingParams.tBURST;
            break;
          case Op::kRd:
            result.reads.push_back(doRd(instr.bank));
            clock += timingParams.tBURST;
            break;
          case Op::kRef:
            doRef();
            clock += timingParams.tRFC;
            break;
          case Op::kWait:
            UTRR_ASSERT(instr.waitNs >= 0, "cannot wait negative time");
            clock += instr.waitNs;
            break;
          case Op::kWaitRef:
            doWaitRef(instr.waitNs);
            break;
        }
    }
    result.endTime = clock;
    return result;
}

} // namespace utrr
