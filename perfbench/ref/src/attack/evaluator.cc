#include "attack/evaluator.hh"

#include <algorithm>

#include "common/logging.hh"

namespace utrr
{

int
AttackOutcome::totalFlips() const
{
    int total = 0;
    for (const auto &[row, flips] : victimFlips)
        total += flips;
    return total;
}

int
AttackOutcome::maxRowFlips() const
{
    int best = 0;
    for (const auto &[row, flips] : victimFlips)
        best = std::max(best, flips);
    return best;
}

int
AttackOutcome::vulnerableRows() const
{
    int count = 0;
    for (const auto &[row, flips] : victimFlips)
        count += flips > 0 ? 1 : 0;
    return count;
}

AttackEvaluator::AttackEvaluator(SoftMcHost &host) : host(host)
{
}

void
AttackEvaluator::alignToTrrEvent(Bank bank, Row dummy_logical,
                                 int max_refs)
{
    const std::uint64_t before = host.module().trrRefreshCount();
    for (int i = 0; i < max_refs; ++i) {
        host.hammer(bank, dummy_logical, 8);
        host.ref();
        host.wait(host.timing().tREFI - host.timing().tRFC -
                  8 * host.timing().hammerCycle());
        if (host.module().trrRefreshCount() != before)
            return;
    }
    debug("no TRR event observed during alignment (no TRR?)");
}

AttackOutcome
AttackEvaluator::run(AccessPattern &pattern,
                     const std::vector<std::pair<Bank, Row>> &victims,
                     int slots, const DataPattern &victim_pattern,
                     const DataPattern &aggressor_pattern)
{
    // Initialize victim and aggressor data.
    for (const auto &[bank, row] : victims)
        host.writeRow(bank, row, victim_pattern);
    for (const auto &[bank, row] : pattern.aggressorRows())
        host.writeRow(bank, row, aggressor_pattern);

    pattern.begin(host);

    // The controller keeps the REF cadence no matter what: if a slot's
    // commands overrun the interval (e.g. because a throttling
    // mitigation injected delays), the excess time is a debt that eats
    // subsequent hammer slots — the attacker cannot stretch tREFI.
    const Time slot_budget = host.timing().tREFI - host.timing().tRFC;
    Time debt = 0;
    for (int slot = 0; slot < slots; ++slot) {
        if (debt >= slot_budget) {
            debt -= slot_budget;
            host.wait(slot_budget);
            host.ref();
            continue; // this hammer slot was lost to the overrun
        }
        const Time start = host.now();
        pattern.runSlot(host, static_cast<std::uint64_t>(slot));
        const Time used = debt + (host.now() - start);
        if (used < slot_budget) {
            host.wait(slot_budget - used);
            debt = 0;
        } else {
            debt = used - slot_budget;
        }
        host.ref();
    }

    AttackOutcome outcome;
    outcome.slots = slots;
    for (const auto &[bank, row] : victims) {
        const RowReadout readout = host.readRow(bank, row);
        const std::vector<Col> flips =
            readout.flipsVs(victim_pattern, row);
        outcome.victimFlips[{bank, row}] =
            static_cast<int>(flips.size());

        // Per-8-byte-word flip counts (Fig. 10).
        std::map<int, int> per_word;
        for (Col col : flips)
            ++per_word[col / 64];
        for (const auto &[word, count] : per_word)
            outcome.wordFlips.add(count);
    }
    return outcome;
}

} // namespace utrr
