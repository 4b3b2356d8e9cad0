#include "trr/vendor_a.hh"

#include <algorithm>

#include "common/logging.hh"

namespace utrr
{

VendorATrr::VendorATrr(int banks, Params params) : params(params)
{
    UTRR_ASSERT(banks > 0, "need at least one bank");
    UTRR_ASSERT(params.tableEntries > 0, "table needs entries");
    bankState.resize(static_cast<std::size_t>(banks));
}

VendorATrr::Entry *
VendorATrr::entryOf(Bank bank, Row phys_row)
{
    for (Entry &entry :
         bankState.at(static_cast<std::size_t>(bank)).table) {
        if (entry.row == phys_row)
            return &entry;
    }
    return nullptr;
}

void
VendorATrr::onActivate(Bank bank, Row phys_row)
{
    // One walk finds the row's entry or, failing that, the first entry
    // with the smallest counter (what std::min_element would pick).
    auto &table = bankState.at(static_cast<std::size_t>(bank)).table;
    Entry *victim = nullptr;
    for (Entry &entry : table) {
        if (entry.row == phys_row) {
            ++entry.count;
            return;
        }
        if (victim == nullptr || entry.count < victim->count)
            victim = &entry;
    }

    if (table.size() <
        static_cast<std::size_t>(params.tableEntries)) {
        table.push_back({phys_row, 1});
        return;
    }

    // Table full: evict the entry with the smallest counter (Obs. A5).
    *victim = {phys_row, 1};
}

void
VendorATrr::onActivateRoundRobin(const Bank *banks, const Row *phys_rows,
                                 int n, int rounds)
{
    if (n <= 0 || rounds <= 0)
        return;
    if (n > kMaxRoundRobinRows) {
        // More rows than the stack scratch below holds: replay per ACT.
        TrrMechanism::onActivateRoundRobin(banks, phys_rows, n, rounds);
        return;
    }
    // The first round runs per ACT: it inserts untracked rows and may
    // evict (Obs. A5) — even a listed row an earlier ACT of the same
    // round inserted.
    for (int i = 0; i < n; ++i)
        VendorATrr::onActivate(banks[i], phys_rows[i]);
    // From then on an ACT of a tracked row is a pure counter increment
    // (no insert, no eviction, no RNG), so if the first round left every
    // listed row tracked, the other rounds add exactly `rounds - 1` per
    // listing whatever their order. Otherwise replay them per ACT.
    Entry *hits[kMaxRoundRobinRows];
    for (int i = 0; i < n; ++i) {
        hits[i] = entryOf(banks[i], phys_rows[i]);
        if (hits[i] == nullptr) {
            TrrMechanism::onActivateRoundRobin(banks, phys_rows, n,
                                               rounds - 1);
            return;
        }
    }
    for (int i = 0; i < n; ++i)
        hits[i]->count += static_cast<std::uint64_t>(rounds - 1);
}

void
VendorATrr::onGroundTruthAttached()
{
    gtTrrRefs = &gt->counter("trr.trr_capable_refs");
    gtDetections = &gt->counter("trr.detections");
    gtOccupancy.clear();
    for (std::size_t b = 0; b < bankState.size(); ++b) {
        gtOccupancy.push_back(
            &gt->gauge(logFmt("trr.table_occupancy.bank", b)));
    }
}

std::vector<TrrRefreshAction>
VendorATrr::onRefresh()
{
    ++refCount;
    if (refCount % static_cast<std::uint64_t>(params.trrRefPeriod) != 0)
        return {};
    if (gtTrrRefs != nullptr)
        gtTrrRefs->inc();

    const bool tref_b = nextIsTrefB;
    nextIsTrefB = !nextIsTrefB;

    std::vector<TrrRefreshAction> actions;
    for (Bank bank = 0;
         bank < static_cast<Bank>(bankState.size()); ++bank) {
        auto &state = bankState[static_cast<std::size_t>(bank)];
        auto &table = state.table;
        if (table.empty())
            continue;

        if (tref_b) {
            // TREF_b: traverse the table one entry per instance.
            Entry &entry = table[state.trefBPtr % table.size()];
            state.trefBPtr = (state.trefBPtr + 1) % table.size();
            actions.push_back({bank, entry.row});
            entry.count = 0; // Obs. A6
        } else {
            // TREF_a: detect the highest counter since last detection.
            auto hottest = std::max_element(
                table.begin(), table.end(),
                [](const Entry &a, const Entry &b) {
                    return a.count < b.count;
                });
            if (hottest->count == 0)
                continue; // nothing accumulated since the last reset
            actions.push_back({bank, hottest->row});
            hottest->count = 0; // Obs. A6
        }
    }
    if (gtDetections != nullptr) {
        gtDetections->inc(actions.size());
        for (std::size_t b = 0; b < bankState.size(); ++b) {
            gtOccupancy[b]->set(
                static_cast<double>(bankState[b].table.size()));
        }
    }
    return actions;
}

void
VendorATrr::reset()
{
    for (auto &state : bankState) {
        state.table.clear();
        state.trefBPtr = 0;
    }
    refCount = 0;
    nextIsTrefB = false;
}

std::vector<std::pair<Row, std::uint64_t>>
VendorATrr::tableOf(Bank bank) const
{
    std::vector<std::pair<Row, std::uint64_t>> rows;
    for (const Entry &entry :
         bankState.at(static_cast<std::size_t>(bank)).table) {
        rows.emplace_back(entry.row, entry.count);
    }
    return rows;
}

} // namespace utrr
