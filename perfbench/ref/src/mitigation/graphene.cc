#include "mitigation/graphene.hh"

#include "common/logging.hh"

namespace utrr
{

Graphene::Graphene(int banks, Params params) : params(params)
{
    UTRR_ASSERT(banks > 0, "need at least one bank");
    bankState.resize(static_cast<std::size_t>(banks));
}

MitigationAction
Graphene::onActivate(Bank bank, Row logical_row, Time /*now*/)
{
    auto &state = bankState.at(static_cast<std::size_t>(bank));
    auto &counts = state.counts;

    // Misra-Gries update.
    auto it = counts.find(logical_row);
    if (it != counts.end()) {
        ++it->second;
    } else if (static_cast<int>(counts.size()) < params.tableEntries) {
        it = counts.emplace(logical_row, state.spillover + 1).first;
    } else {
        // Decrement-all step: every tracked count and the newcomer
        // share one decrement; entries at the spillover floor vanish.
        ++state.spillover;
        for (auto entry = counts.begin(); entry != counts.end();) {
            if (entry->second <= state.spillover)
                entry = counts.erase(entry);
            else
                ++entry;
        }
        return {};
    }

    MitigationAction action;
    if (it->second >= params.threshold) {
        for (int d = 1; d <= params.blastRadius; ++d) {
            action.refreshRows.push_back(logical_row - d);
            action.refreshRows.push_back(logical_row + d);
        }
        ordered += action.refreshRows.size();
        it->second = state.spillover; // restart the estimate
    }
    return action;
}

void
Graphene::onRefresh(Time /*now*/)
{
    ++refs;
    if (refs % static_cast<std::uint64_t>(params.windowRefs) != 0)
        return;
    for (auto &state : bankState) {
        state.counts.clear();
        state.spillover = 0;
    }
}

void
Graphene::reset()
{
    for (auto &state : bankState) {
        state.counts.clear();
        state.spillover = 0;
    }
    refs = 0;
    ordered = 0;
    delayed = 0;
}

int
Graphene::countOf(Bank bank, Row logical_row) const
{
    const auto &counts =
        bankState.at(static_cast<std::size_t>(bank)).counts;
    const auto it = counts.find(logical_row);
    return it == counts.end() ? 0 : it->second;
}

} // namespace utrr
