#include "trr/vendor_c.hh"

#include <algorithm>

#include "common/logging.hh"

namespace utrr
{

VendorCTrr::VendorCTrr(int banks, Params params, std::uint64_t seed)
    : params(params), rng(seed), seed(seed)
{
    UTRR_ASSERT(banks > 0, "need at least one bank");
    bankState.resize(static_cast<std::size_t>(banks));
}

inline void
VendorCTrr::observe(BankState &state, Row phys_row)
{
    if (state.actsInWindow >= params.windowActs) {
        if (state.candidate)
            return; // beyond the detection window: invisible to TRR
        // No aggressor was detected in the whole window: the deferred
        // TRR-induced refresh keeps looking, so the detection window
        // reopens (Obs. C1).
        state.actsInWindow = 0;
    }
    ++state.actsInWindow;

    // First-sampled-wins: each in-window ACT is sampled with a fixed
    // probability, and the first sampled ACT locks in as the candidate
    // until it is consumed by a TRR-induced refresh. Rows activated
    // earlier in the window are therefore strongly more likely to be
    // detected (Obs. C2).
    if (state.candidate)
        return;
    if (rng.chance(params.sampleProbability)) {
        state.candidate = phys_row;
        if (gtCandidates != nullptr)
            gtCandidates->inc();
    }
}

void
VendorCTrr::onActivate(Bank bank, Row phys_row)
{
    observe(bankState.at(static_cast<std::size_t>(bank)), phys_row);
}

void
VendorCTrr::onActivateRoundRobin(const Bank *banks, const Row *phys_rows,
                                 int n, int rounds)
{
    if (n <= 0 || rounds <= 0)
        return;
    // Replay ACT by ACT while a listed bank still lacks a candidate.
    // Only a TRR-induced refresh clears one, so once every listed bank
    // holds one, an ACT draws nothing: it only advances its bank's
    // window count, which stops at windowActs (no reopening with a
    // candidate held). The rest of the sequence folds to one capped
    // addition per aggressor.
    int missing = 0;
    for (int i = 0; i < n; ++i) {
        bool repeat = false;
        for (int j = 0; j < i && !repeat; ++j)
            repeat = banks[j] == banks[i];
        if (!repeat &&
            !bankState.at(static_cast<std::size_t>(banks[i])).candidate)
            ++missing;
    }
    const std::int64_t total = static_cast<std::int64_t>(n) * rounds;
    std::int64_t pos = 0;
    for (; missing > 0 && pos < total; ++pos) {
        const auto i = static_cast<std::size_t>(pos % n);
        BankState &state = bankState.at(static_cast<std::size_t>(banks[i]));
        const bool held = state.candidate.has_value();
        observe(state, phys_rows[i]);
        if (!held && state.candidate)
            --missing;
    }
    const std::int64_t rest = total - pos;
    if (rest == 0)
        return;
    const std::int64_t next = pos % n;
    for (int i = 0; i < n; ++i) {
        // ACTs of position i among the remaining sequence positions.
        const std::int64_t acts = rest / n +
            ((i - next + n) % n < rest % n ? 1 : 0);
        BankState &state = bankState[static_cast<std::size_t>(banks[i])];
        if (state.actsInWindow < params.windowActs) {
            state.actsInWindow = static_cast<int>(std::min<std::int64_t>(
                state.actsInWindow + acts, params.windowActs));
        }
    }
}

void
VendorCTrr::onGroundTruthAttached()
{
    gtTrrRefs = &gt->counter("trr.trr_capable_refs");
    gtDetections = &gt->counter("trr.detections");
    gtCandidates = &gt->counter("trr.candidates_sampled");
    gtOccupied = &gt->gauge("trr.candidate_occupancy");
}

std::vector<TrrRefreshAction>
VendorCTrr::onRefresh()
{
    ++refsSinceTrr;
    if (refsSinceTrr < params.trrRefPeriod)
        return {};
    if (gtTrrRefs != nullptr)
        gtTrrRefs->inc();

    // Eligible: fire for every bank holding a candidate; if none exists
    // anywhere, defer to a later REF (Obs. C1).
    std::vector<TrrRefreshAction> actions;
    for (Bank bank = 0;
         bank < static_cast<Bank>(bankState.size()); ++bank) {
        auto &state = bankState[static_cast<std::size_t>(bank)];
        if (!state.candidate)
            continue;
        actions.push_back({bank, *state.candidate});
        state.candidate.reset();
        state.actsInWindow = 0; // reopen the detection window
    }
    if (!actions.empty())
        refsSinceTrr = 0;
    if (gtDetections != nullptr) {
        gtDetections->inc(actions.size());
        int occupied = 0;
        for (const auto &state : bankState)
            occupied += state.candidate ? 1 : 0;
        gtOccupied->set(occupied);
    }
    return actions;
}

void
VendorCTrr::reset()
{
    for (auto &state : bankState)
        state = BankState{};
    refsSinceTrr = 0;
    rng = Rng(seed);
}

std::optional<Row>
VendorCTrr::candidateOf(Bank bank) const
{
    return bankState.at(static_cast<std::size_t>(bank)).candidate;
}

int
VendorCTrr::windowActsOf(Bank bank) const
{
    return bankState.at(static_cast<std::size_t>(bank)).actsInWindow;
}

} // namespace utrr
