#include "mitigation/blockhammer.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"

namespace utrr
{

BlockHammer::BlockHammer(int banks, Params params) : params(params)
{
    UTRR_ASSERT(banks > 0, "need at least one bank");
    bankState.resize(static_cast<std::size_t>(banks));
    for (auto &state : bankState) {
        state.counters.assign(
            static_cast<std::size_t>(params.filterCounters), 0);
    }
}

std::size_t
BlockHammer::slotOf(Row logical_row, int hash) const
{
    const std::uint64_t mixed = hashMix(
        (static_cast<std::uint64_t>(hash) << 40) ^
        static_cast<std::uint64_t>(logical_row));
    return static_cast<std::size_t>(
        mixed % static_cast<std::uint64_t>(params.filterCounters));
}

int
BlockHammer::estimateOf(Bank bank, Row logical_row) const
{
    const auto &counters =
        bankState.at(static_cast<std::size_t>(bank)).counters;
    int estimate = counters[slotOf(logical_row, 0)];
    for (int h = 1; h < params.hashes; ++h) {
        estimate =
            std::min(estimate, counters[slotOf(logical_row, h)]);
    }
    return estimate;
}

bool
BlockHammer::isBlacklisted(Bank bank, Row logical_row) const
{
    return estimateOf(bank, logical_row) >= params.blacklistThreshold;
}

MitigationAction
BlockHammer::onActivate(Bank bank, Row logical_row, Time now)
{
    auto &state = bankState.at(static_cast<std::size_t>(bank));
    for (int h = 0; h < params.hashes; ++h)
        ++state.counters[slotOf(logical_row, h)];

    MitigationAction action;
    if (!isBlacklisted(bank, logical_row))
        return action;

    // Throttle: spread the remaining allowed activations of the
    // blacklisted row uniformly over the remaining window so that it
    // cannot exceed maxActsPerWindow.
    const Time min_gap = params.windowNs /
        std::max(1, params.maxActsPerWindow);
    const Time release = std::max(state.nextAllowed, now) + min_gap;
    if (release > now) {
        action.delayNs = release - now;
        delayed += action.delayNs;
    }
    state.nextAllowed = release;
    return action;
}

void
BlockHammer::onRefresh(Time /*now*/)
{
    ++refs;
    if (refs % static_cast<std::uint64_t>(params.windowRefs) != 0)
        return;
    for (auto &state : bankState) {
        std::fill(state.counters.begin(), state.counters.end(), 0);
        state.nextAllowed = 0;
    }
}

void
BlockHammer::reset()
{
    for (auto &state : bankState) {
        std::fill(state.counters.begin(), state.counters.end(), 0);
        state.nextAllowed = 0;
    }
    refs = 0;
    ordered = 0;
    delayed = 0;
}

} // namespace utrr
