/**
 * @file
 * Vendor B's sampling-based TRR (paper §6.2, Observations B1-B5).
 *
 * Behavioural summary implemented here:
 *  - every 4th (B_TRR1), 9th (B_TRR2) or 2nd (B_TRR3) REF command is
 *    TRR-capable (Obs. B1);
 *  - the mechanism pseudo-randomly samples the row address of incoming
 *    ACT commands; a newly sampled row overwrites the previous sample
 *    (Obs. B3, B4). The sampling probability is tuned so that ~2K
 *    consecutive ACTs to one row get it sampled essentially always;
 *  - B_TRR1/B_TRR2 share a single sampler across all banks; B_TRR3
 *    samples per bank (Obs. B4 + footnote 13);
 *  - a TRR-induced refresh does not clear the sample: the same row keeps
 *    being detected until another row is sampled (Obs. B5).
 */

#ifndef UTRR_TRR_VENDOR_B_HH
#define UTRR_TRR_VENDOR_B_HH

#include <optional>
#include <vector>

#include "common/rng.hh"
#include "trr/trr.hh"

namespace utrr
{

/**
 * Sampling-based TRR (vendor B).
 */
class VendorBTrr : public TrrMechanism
{
  public:
    struct Params
    {
        int trrRefPeriod = 4;
        bool perBank = false;
        /**
         * Per-ACT sampling probability. High enough that a burst of a
         * few dozen dummy ACTs reliably replaces the sample (§7.2
         * reports that ~12 dummy activations begin to induce flips),
         * while thousands of consecutive ACTs to one row make its
         * detection essentially certain (Obs. B3).
         */
        double sampleProbability = 1.0 / 24.0;
    };

    VendorBTrr(int banks, Params params, std::uint64_t seed);

    void onActivate(Bank bank, Row phys_row) override;
    void onActivateRoundRobin(const Bank *banks, const Row *phys_rows,
                              int n, int rounds) override;
    std::vector<TrrRefreshAction> onRefresh() override;
    void reset() override;
    std::string name() const override { return "B-sampler"; }

    /** White-box view of the current sample (chip-wide mode). */
    std::optional<TrrRefreshAction> currentSample() const;

    /** White-box view of one bank's sample (per-bank mode). */
    std::optional<Row> currentSampleOf(Bank bank) const;

    /** White-box copy of the sampler stream at its current position. */
    Rng samplerStream() const { return rng; }

  protected:
    void onGroundTruthAttached() override;

  private:
    /**
     * A sampler hit: @p phys_row becomes the (bank's) sample. The
     * ground-truth tallies are the caller's.
     */
    void holdSample(Bank bank, Row phys_row);

    Params params;
    int banks;
    Rng rng;
    std::uint64_t seed;
    /** Rng::chanceCut(params.sampleProbability). */
    std::uint64_t sampleCut;
    std::uint64_t refCount = 0;
    /** Chip-wide sample (used when !params.perBank). */
    std::optional<TrrRefreshAction> sample;
    /** Per-bank samples (used when params.perBank). */
    std::vector<std::optional<Row>> bankSamples;
    /** Samplers holding a sample: banks with one, or 0/1 chip-wide
     *  (only a reset empties a sampler, Obs. B5). */
    int occupiedSamplers = 0;

    // Ground-truth handles (resolved once at attach; null = detached).
    Counter *gtTrrRefs = nullptr;
    Counter *gtDetections = nullptr;
    Counter *gtSamples = nullptr;
    Gauge *gtOccupied = nullptr;
};

} // namespace utrr

#endif // UTRR_TRR_VENDOR_B_HH
