#include "dram/bank.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "obs/profiler.hh"

namespace utrr
{

DramBank::DramBank(Bank id, Row phys_rows,
                   const PhysicsGenerator *generator)
    : id(id), physRowCount(phys_rows), gen(generator),
      slotOf(static_cast<std::size_t>(phys_rows), -1)
{
    UTRR_ASSERT(gen != nullptr, "bank needs a physics generator");
}

RowState &
DramBank::materialize(Row phys_row, Time now)
{
    // Retention physics only; hammer cells attach lazily once
    // disturbance charge approaches the row's base threshold (they are
    // ~30x larger to generate).
    RowPhysics phys = gen->generateRetention(id, phys_row);
    const auto &ret = gen->retentionConfig();
    Rng vrt_rng = Rng(hashMix(
        0x9e3779b9ULL ^ (static_cast<std::uint64_t>(id) << 44) ^
        static_cast<std::uint64_t>(phys_row)));
    slotOf[static_cast<std::size_t>(phys_row)] =
        static_cast<std::int32_t>(states.size());
    states.emplace_back(std::move(phys), now, vrt_rng, gen->rowBits(),
                        msToNs(ret.vrtDwellMs), ret.vrtHighFactor);
    // Born at scale 1.0 and step 0: the row adopts the bank-wide scale
    // at its first use if temperature steps came before it.
    states.back().attachBank(&context);
    return states.back();
}

void
DramBank::attachHammerCells(Row phys_row, RowState &state)
{
    UTRR_PROF_SCOPE("bank.attach_hammer_cells");
    ++context.perf.hammerCellAttaches;
    RowPhysics full = gen->generate(id, phys_row);
    state.setHammerCells(std::move(full.hammerCells));
}

void
DramBank::scaleRowRetention(Row phys_row, double factor, Time now)
{
    RowState &state = rowAt(phys_row, now);
    if (!state.hasOwnRetentionScale())
        ownScaleSlots.push_back(slotOf[static_cast<std::size_t>(phys_row)]);
    state.scaleRetention(factor);
}

void
DramBank::scaleAllRetention(double factor)
{
    context.retentionScale *= factor;
    ++context.retentionSteps;
    for (std::int32_t slot : ownScaleSlots)
        states[static_cast<std::size_t>(slot)].scaleRetention(factor);
}

const RowState *
DramBank::peekRow(Row phys_row) const
{
    if (phys_row < 0 || phys_row >= physRowCount)
        return nullptr;
    const std::int32_t slot = slotOf[static_cast<std::size_t>(phys_row)];
    return slot < 0 ? nullptr : &states[static_cast<std::size_t>(slot)];
}

RowState &
DramBank::activate(Row phys_row, Time now)
{
    UTRR_ASSERT(open == kInvalidRow,
                logFmt("ACT to bank ", id, " with row ", open,
                       " still open"));
    const ActPlan plan = buildActPlan(phys_row, now);
    activatePlanned(plan, now);
    open = phys_row;
    return *plan.aggr;
}

void
DramBank::precharge(Time /*now*/)
{
    open = kInvalidRow;
}

DramBank::ActPlan
DramBank::buildActPlan(Row phys_row, Time now)
{
    ActPlan plan;
    plan.phys = phys_row;
    plan.aggr = &rowAt(phys_row, now);
    const auto &ham = gen->hammerConfig();
    const std::uint64_t word0 = plan.aggr->storedWord0();
    const auto add = [&](Row victim, double base) {
        if (victim < 0 || victim >= physRowCount)
            return;
        RowState &v = rowAt(victim, now);
        // Alternating aggressors pump more charge than repeated
        // activation of the same row (makes interleaved > cascaded,
        // §5.2), and same stored data disturbs less. FP products are
        // order-sensitive: this is the one multiply order.
        double w_first = base;
        double w_repeat = base * ham.repeatWeight;
        if (word0 == v.storedWord0()) {
            w_first *= ham.sameDataWeight;
            w_repeat *= ham.sameDataWeight;
        }
        plan.victims[plan.victimCount++] = {&v, w_first, w_repeat};
    };
    if (ham.paired) {
        // Paired-row organization (C0-8): a row only disturbs its pair.
        add(phys_row ^ 1, 1.0);
    } else {
        add(phys_row - 1, 1.0);
        add(phys_row + 1, 1.0);
        if (ham.distance2Weight > 0.0) {
            add(phys_row - 2, ham.distance2Weight);
            add(phys_row + 2, ham.distance2Weight);
        }
    }
    return plan;
}

void
DramBank::activatePlanned(const ActPlan &plan, Time now)
{
    ++acts;
    RowState &aggr = *plan.aggr;
    if (aggr.needsHammerCells())
        attachHammerCells(plan.phys, aggr);
    aggr.restoreCharge(now);
    for (int i = 0; i < plan.victimCount; ++i) {
        const ActPlan::PlannedVictim &v = plan.victims[i];
        const double w = v.state->lastDisturber() == plan.phys
            ? v.wRepeat : v.wFirst;
        v.state->addDisturbance(plan.phys, w);
    }
}

void
DramBank::activateRoundRobin(const ActPlan *const *plans,
                             const Time *first_times, int n, int rounds,
                             Time round_gap)
{
    UTRR_ASSERT(open == kInvalidRow,
                logFmt("hammer burst into bank ", id, " with row ", open,
                       " still open"));
    for (int i = 0; i < n; ++i)
        activatePlanned(*plans[i], first_times[i]);
    if (rounds <= 1)
        return;
    if (interleavedRoundsFoldable(plans, n, round_gap)) {
        applyInterleavedRounds(plans, first_times, n, rounds - 1,
                               round_gap);
        return;
    }
    for (int k = 1; k < rounds; ++k) {
        for (int i = 0; i < n; ++i) {
            activatePlanned(*plans[i],
                            first_times[i] + static_cast<Time>(k) * round_gap);
        }
    }
}

bool
DramBank::interleavedRoundsFoldable(const ActPlan *const *plans, int n,
                                    Time round_gap) const
{
    if (n > kMaxInterleavedFold)
        return false; // keeps applyInterleavedRounds allocation-free
    for (int i = 0; i < n; ++i) {
        // A duplicate aggressor would restore twice per pass, breaking
        // the one-fast-forward-per-aggressor bookkeeping below.
        for (int j = 0; j < i; ++j) {
            if (plans[j]->phys == plans[i]->phys)
                return false;
        }
    }
    for (int i = 0; i < n; ++i) {
        // Worst-case charge the other listed aggressors pump into this
        // one between two of its restores: each lands at most once per
        // pass, with whichever of its two planned weights is larger.
        double bound = 0.0;
        for (int j = 0; j < n; ++j) {
            if (j == i)
                continue;
            for (int v = 0; v < plans[j]->victimCount; ++v) {
                const ActPlan::PlannedVictim &pv = plans[j]->victims[v];
                if (pv.state == plans[i]->aggr)
                    bound += std::max(pv.wFirst, pv.wRepeat);
            }
        }
        if (!plans[i]->aggr->restoresFastForwardable(round_gap, bound))
            return false;
    }
    return true;
}

void
DramBank::applyInterleavedRounds(const ActPlan *const *plans,
                                 const Time *first_times, int n, int rounds,
                                 Time round_gap)
{
    acts += static_cast<std::uint64_t>(n) *
        static_cast<std::uint64_t>(rounds);
    const Time last_shift = static_cast<Time>(rounds) * round_gap;
    // Non-aggressor victims: gather each unique row's contributors in
    // round order, then accumulate `rounds` passes of them in one call
    // (addDisturbanceRoundRobin: live weights on the first pass, exact
    // binade-stepped accumulation after).
    // All scratch lives on the stack — kMaxInterleavedFold aggressors
    // with at most 4 planned victims each, every aggressor hitting a
    // given victim at most once per pass.
    struct VictimSeq
    {
        RowState *state;
        int m;
        Row aggrs[kMaxInterleavedFold];
        double wFirst[kMaxInterleavedFold];
        double wRepeat[kMaxInterleavedFold];
    };
    const auto isListedAggr = [&](const RowState *s) {
        for (int k = 0; k < n; ++k) {
            if (plans[k]->aggr == s)
                return true;
        }
        return false;
    };
    VictimSeq seqs[kMaxInterleavedFold * 4];
    int seqCount = 0;
    for (int i = 0; i < n; ++i) {
        for (int v = 0; v < plans[i]->victimCount; ++v) {
            const ActPlan::PlannedVictim &pv = plans[i]->victims[v];
            if (isListedAggr(pv.state))
                continue;
            VictimSeq *seq = nullptr;
            for (int s = 0; s < seqCount; ++s) {
                if (seqs[s].state == pv.state) {
                    seq = &seqs[s];
                    break;
                }
            }
            if (seq == nullptr) {
                seq = &seqs[seqCount++];
                seq->state = pv.state;
                seq->m = 0;
            }
            seq->aggrs[seq->m] = plans[i]->phys;
            seq->wFirst[seq->m] = pv.wFirst;
            seq->wRepeat[seq->m] = pv.wRepeat;
            ++seq->m;
        }
    }
    for (int s = 0; s < seqCount; ++s) {
        seqs[s].state->addDisturbanceRoundRobin(
            seqs[s].aggrs, seqs[s].wFirst, seqs[s].wRepeat, seqs[s].m,
            rounds);
    }

    // Aggressors: every pass restores each one on the proven fast path,
    // wiping whatever earlier-in-round aggressors added since its last
    // restore — so only the final pass's disturbances from
    // later-in-round aggressors survive, applied here against the
    // post-restore (invalid) lastDisturber exactly as the per-cycle
    // loop would leave them.
    for (int i = 0; i < n; ++i) {
        plans[i]->aggr->fastForwardRestores(
            first_times[i] + last_shift, static_cast<std::uint64_t>(rounds));
    }
    for (int i = 0; i < n; ++i) {
        for (int v = 0; v < plans[i]->victimCount; ++v) {
            const ActPlan::PlannedVictim &pv = plans[i]->victims[v];
            for (int k = 0; k < i; ++k) {
                if (plans[k]->aggr != pv.state)
                    continue;
                const double w =
                    pv.state->lastDisturber() == plans[i]->phys
                    ? pv.wRepeat : pv.wFirst;
                pv.state->addDisturbance(plans[i]->phys, w);
            }
        }
    }
}

void
DramBank::writeOpenRow(const DataPattern &pattern, Row pattern_row,
                       Time now)
{
    UTRR_ASSERT(open != kInvalidRow, "WR with no open row");
    rowAt(open, now).writePattern(pattern, pattern_row, now);
}

void
DramBank::writeOpenRowWord(int word_idx, std::uint64_t value)
{
    UTRR_ASSERT(open != kInvalidRow, "WR with no open row");
    const std::int32_t slot = slotOf[static_cast<std::size_t>(open)];
    UTRR_ASSERT(slot >= 0, "open row must be materialized");
    states[static_cast<std::size_t>(slot)].writeWord(word_idx, value);
}

RowReadout
DramBank::readOpenRow() const
{
    UTRR_ASSERT(open != kInvalidRow, "RD with no open row");
    const std::int32_t slot = slotOf[static_cast<std::size_t>(open)];
    UTRR_ASSERT(slot >= 0, "open row must be materialized");
    return states[static_cast<std::size_t>(slot)].read();
}

void
DramBank::refreshRow(Row phys_row, Time now)
{
    ++rowRefreshes;
    if (phys_row < 0 || phys_row >= physRowCount)
        return;
    const std::int32_t slot = slotOf[static_cast<std::size_t>(phys_row)];
    if (slot < 0)
        return; // untouched rows count as fresh at materialization
    RowState &state = states[static_cast<std::size_t>(slot)];
    if (state.needsHammerCells())
        attachHammerCells(phys_row, state);
    state.restoreCharge(now);
}

void
DramBank::refreshRange(Row phys_lo, Row phys_hi, Time now)
{
    const Row lo = std::max<Row>(phys_lo, 0);
    const Row hi = std::min(phys_hi, physRowCount);
    for (Row r = lo; r < hi; ++r) {
        // Most of a sweep's rows were never touched (a workload scans
        // one bank of sixteen), so the skip is the fall-through: laid
        // out the other way, it costs a taken branch per row and the
        // inline restore below made REFs up to 1.4x slower.
        const std::int32_t slot = slotOf[static_cast<std::size_t>(r)];
        if (slot < 0) [[likely]]
            continue;
        ++rowRefreshes;
        RowState &state = states[static_cast<std::size_t>(slot)];
        if (state.needsHammerCells())
            attachHammerCells(r, state);
        state.restoreCharge(now);
    }
}

} // namespace utrr
