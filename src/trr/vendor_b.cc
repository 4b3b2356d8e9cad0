#include "trr/vendor_b.hh"

#include <algorithm>

#include "common/logging.hh"

namespace utrr
{

VendorBTrr::VendorBTrr(int banks, Params params, std::uint64_t seed)
    : params(params), banks(banks), rng(seed), seed(seed),
      sampleCut(Rng::chanceCut(params.sampleProbability))
{
    UTRR_ASSERT(banks > 0, "need at least one bank");
    bankSamples.resize(static_cast<std::size_t>(banks));
}

void
VendorBTrr::onGroundTruthAttached()
{
    gtTrrRefs = &gt->counter("trr.trr_capable_refs");
    gtDetections = &gt->counter("trr.detections");
    gtSamples = &gt->counter("trr.samples_taken");
    gtOccupied = &gt->gauge("trr.sampler_occupancy");
}

void
VendorBTrr::onActivate(Bank bank, Row phys_row)
{
    // Pseudo-random ACT sampling: the hardware likely uses an LFSR; we
    // use a seeded deterministic PRNG, which is observationally
    // equivalent to the paper's description. This is chance(p), its
    // draw compared as an integer; p <= 0 and p >= 1 draw nothing.
    const double p = params.sampleProbability;
    if (p <= 0.0 || (p < 1.0 && rng.next() >= sampleCut))
        return;
    holdSample(bank, phys_row);
    if (gtSamples != nullptr) {
        gtSamples->inc();
        gtOccupied->set(occupiedSamplers);
    }
}

void
VendorBTrr::onActivateRoundRobin(const Bank *banks, const Row *phys_rows,
                                 int n, int rounds)
{
    const double p = params.sampleProbability;
    if (n <= 0 || rounds <= 0 || p <= 0.0)
        return; // chance() draws nothing at rate zero
    if (n > kMaxRoundRobinRows || p >= 1.0) {
        // More rows than the stack scratch below holds, or a rate at
        // which chance() hits without drawing: replay per ACT.
        TrrMechanism::onActivateRoundRobin(banks, phys_rows, n, rounds);
        return;
    }
    // A sampler has no closed form over a burst: every ACT is a draw
    // (the stream position is state) and every hit a counted sample.
    // But only a sampler's last hit decides what it holds, and it holds
    // something once it had any. So the draw loop only counts hits and
    // keeps each listing's last hit round, without a branch, on a local
    // copy of the stream; the replay below applies those last hits.
    std::uint64_t hits = 0;
    int last[kMaxRoundRobinRows];
    Rng stream = rng;
    if (n == 1) {
        // One listing: whether it was hit matters, not when, so the
        // loop is the bare draw and count (any round will do below).
        for (int k = 0; k < rounds; ++k)
            hits += static_cast<std::uint64_t>(stream.next() < sampleCut);
        last[0] = hits > 0 ? 0 : -1;
    } else {
        std::fill_n(last, n, -1);
        for (int k = 0; k < rounds; ++k) {
            for (int i = 0; i < n; ++i) {
                // Masks, not a select: a compiler turns `hit ? k :
                // last[i]` back into a branch that mispredicts on
                // every hit.
                const auto hit =
                    static_cast<std::uint64_t>(stream.next() < sampleCut);
                hits += hit;
                const int keep = static_cast<int>(hit) - 1; // 0 on a hit
                last[i] = (last[i] & keep) | (k & ~keep);
            }
        }
    }
    rng = stream;
    if (hits == 0)
        return;
    // Replay the last hits in ACT order, (round, listing): the final
    // sample of each sampler, and the samplers that took one, are then
    // what the per-ACT sequence leaves. Insertion keeps equal rounds in
    // listing order.
    int order[kMaxRoundRobinRows];
    int hit_listings = 0;
    for (int i = 0; i < n; ++i) {
        if (last[i] < 0)
            continue;
        int j = hit_listings++;
        for (; j > 0 && last[order[j - 1]] > last[i]; --j)
            order[j] = order[j - 1];
        order[j] = i;
    }
    for (int j = 0; j < hit_listings; ++j)
        holdSample(banks[order[j]], phys_rows[order[j]]);
    if (gtSamples != nullptr) {
        gtSamples->inc(hits);
        gtOccupied->set(occupiedSamplers);
    }
}

void
VendorBTrr::holdSample(Bank bank, Row phys_row)
{
    if (params.perBank) {
        std::optional<Row> &slot =
            bankSamples.at(static_cast<std::size_t>(bank));
        occupiedSamplers += slot ? 0 : 1;
        slot = phys_row;
    } else {
        occupiedSamplers = 1;
        sample = TrrRefreshAction{bank, phys_row};
    }
}

std::vector<TrrRefreshAction>
VendorBTrr::onRefresh()
{
    ++refCount;
    if (refCount % static_cast<std::uint64_t>(params.trrRefPeriod) != 0)
        return {};
    if (gtTrrRefs != nullptr)
        gtTrrRefs->inc();

    std::vector<TrrRefreshAction> actions;
    if (params.perBank) {
        for (Bank bank = 0; bank < banks; ++bank) {
            const auto &s =
                bankSamples[static_cast<std::size_t>(bank)];
            if (s)
                actions.push_back({bank, *s}); // sample kept (Obs. B5)
        }
    } else if (sample) {
        actions.push_back(*sample); // sample kept (Obs. B5)
    }
    if (gtDetections != nullptr)
        gtDetections->inc(actions.size());
    return actions;
}

void
VendorBTrr::reset()
{
    refCount = 0;
    sample.reset();
    for (auto &s : bankSamples)
        s.reset();
    occupiedSamplers = 0;
    rng = Rng(seed);
}

std::optional<TrrRefreshAction>
VendorBTrr::currentSample() const
{
    return sample;
}

std::optional<Row>
VendorBTrr::currentSampleOf(Bank bank) const
{
    return bankSamples.at(static_cast<std::size_t>(bank));
}

} // namespace utrr
