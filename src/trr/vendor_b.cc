#include "trr/vendor_b.hh"

#include "common/logging.hh"

namespace utrr
{

VendorBTrr::VendorBTrr(int banks, Params params, std::uint64_t seed)
    : params(params), banks(banks), rng(seed), seed(seed)
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
    // equivalent to the paper's description.
    if (rng.chance(params.sampleProbability))
        takeSample(bank, phys_row);
}

void
VendorBTrr::onActivateRoundRobin(const Bank *banks, const Row *phys_rows,
                                 int n, int rounds)
{
    // A sampler has no closed form over a burst: every ACT is a draw
    // (the stream position is state) and every hit is a counted
    // sample. What a burst saves is the virtual dispatch per ACT, and
    // the stream round trip through memory: takeSample() never draws,
    // so the loop runs on a local copy of the stream.
    Rng stream = rng;
    const double p = params.sampleProbability;
    for (int k = 0; k < rounds; ++k) {
        for (int i = 0; i < n; ++i) {
            if (stream.chance(p))
                takeSample(banks[i], phys_rows[i]);
        }
    }
    rng = stream;
}

void
VendorBTrr::takeSample(Bank bank, Row phys_row)
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
    if (gtSamples != nullptr) {
        gtSamples->inc();
        gtOccupied->set(occupiedSamplers);
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

std::unique_ptr<TrrMechanism>
VendorBTrr::clone() const
{
    // Memberwise copy carries every piece of detection state
    // (including the Rng stream position) plus the current
    // ground-truth handles; a clone installed into another chip
    // must be re-attached to that chip's store.
    return std::make_unique<VendorBTrr>(*this);
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
