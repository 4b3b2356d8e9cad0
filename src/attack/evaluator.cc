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

void
AttackEvaluator::runSlot(const HammerPattern &pattern,
                         const PatternBinding &binding,
                         std::uint64_t slot)
{
    planSlotInto(pattern, slot, host.timing(), slotScratch);
    for (const BurstPlan &burst : slotScratch.bursts) {
        const PatternElement &e = pattern.elements[burst.element];
        if (e.kind == ElementKind::kAggressors) {
            if (e.rows >= 2) {
                rowScratch.clear();
                for (int r = 0; r < e.rows; ++r)
                    rowScratch.emplace_back(binding.bank,
                                            binding.aggressors[r]);
                countScratch.assign(rowScratch.size(),
                                    burst.hammersPerRow);
                host.hammerInterleaved(rowScratch, countScratch);
            } else {
                host.hammer(binding.bank, binding.aggressors[0],
                            burst.hammersPerRow);
            }
        } else if (e.banks <= 1) {
            for (int r = 0; r < e.rows; ++r) {
                host.hammer(binding.bank,
                            binding.dummies[r % binding.dummies.size()],
                            burst.hammersPerRow);
            }
        } else {
            rowScratch.clear();
            for (int b = 0; b < e.banks; ++b) {
                rowScratch.emplace_back(
                    binding.dummyBanks[b % binding.dummyBanks.size()],
                    binding.dummies[b % binding.dummies.size()]);
            }
            host.hammerMultiBank(rowScratch, burst.rounds);
        }
    }
}

AttackOutcome
AttackEvaluator::run(const HammerPattern &pattern,
                     const PatternBinding &binding,
                     const std::vector<std::pair<Bank, Row>> &victims,
                     int slots, const DataPattern &victim_pattern,
                     const DataPattern &aggressor_pattern)
{
    UTRR_ASSERT(validatePattern(pattern).empty(),
                "cannot run an invalid pattern");
    UTRR_ASSERT(binding.aggressors.size() >=
                    static_cast<std::size_t>(pattern.aggressorRowCount()),
                "binding has fewer aggressors than the pattern hammers");

    // Initialize victim and aggressor data.
    for (const auto &[bank, row] : victims)
        host.writeRow(bank, row, victim_pattern);
    for (const Row row : binding.aggressors)
        host.writeRow(binding.bank, row, aggressor_pattern);

    // The controller keeps the REF cadence no matter what: if a slot's
    // commands overrun the interval (a throttling mitigation injected
    // delays, or a mitigation's victim refreshes took bus time), the
    // excess time is a debt that eats subsequent hammer slots — the
    // attacker cannot stretch tREFI. The plan itself never overruns.
    // Slot s always issues planSlot(s): a slot lost to debt loses its
    // bursts, and nothing it would have issued carries over.
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
        runSlot(pattern, binding, static_cast<std::uint64_t>(slot));
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
