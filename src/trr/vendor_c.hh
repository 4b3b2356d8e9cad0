/**
 * @file
 * Vendor C's window-based TRR (paper §6.3, Observations C1-C3).
 *
 * Behavioural summary implemented here:
 *  - a TRR-induced refresh is *eligible* once every 17 (C_TRR1),
 *    9 (C_TRR2) or 8 (C_TRR3) REF commands; if no aggressor candidate
 *    has been detected when eligibility arrives, the TRR-induced refresh
 *    is deferred to a later REF (Obs. C1);
 *  - candidates are detected only among the rows targeted by the first
 *    2K ACT commands per bank (1K for C_TRR3) following a TRR-induced
 *    refresh; rows activated *earlier* in the window are more likely to
 *    be the detected candidate (Obs. C2). We model this with a
 *    decreasing replacement probability of 1/i^2 for the i-th ACT of
 *    the window;
 *  - detection state is per bank; performing the TRR-induced refresh
 *    consumes the candidate and reopens the detection window.
 *
 * The paired-row organization of modules C0-8 (Obs. C3) is a property of
 * the DRAM array (see HammerModelConfig::paired), not of this state
 * machine; the chip refreshes only the pair row for such modules.
 */

#ifndef UTRR_TRR_VENDOR_C_HH
#define UTRR_TRR_VENDOR_C_HH

#include <optional>
#include <vector>

#include "common/rng.hh"
#include "trr/trr.hh"

namespace utrr
{

/**
 * Window-based TRR (vendor C).
 */
class VendorCTrr : public TrrMechanism
{
  public:
    struct Params
    {
        int trrRefPeriod = 17;
        /** Detection window length in per-bank ACT commands. */
        int windowActs = 2'048;
        /**
         * Per-ACT sampling probability within the window. The first
         * sampled ACT becomes the candidate and stays until consumed,
         * so earlier rows are strongly favoured (Obs. C2).
         */
        double sampleProbability = 1.0 / 128.0;
    };

    VendorCTrr(int banks, Params params, std::uint64_t seed);

    void onActivate(Bank bank, Row phys_row) override;
    void onActivateRoundRobin(const Bank *banks, const Row *phys_rows,
                              int n, int rounds) override;
    std::vector<TrrRefreshAction> onRefresh() override;
    void reset() override;
    std::string name() const override { return "C-window"; }

    /** White-box view of one bank's current candidate. */
    std::optional<Row> candidateOf(Bank bank) const;

    /** White-box view of one bank's ACT count within its window. */
    int windowActsOf(Bank bank) const;

  protected:
    void onGroundTruthAttached() override;

  private:
    struct BankState
    {
        int actsInWindow = 0;
        std::optional<Row> candidate;
    };

    /** One ACT of @p state's bank: window count, maybe a draw. */
    void observe(BankState &state, Row phys_row);

    Params params;
    Rng rng;
    std::uint64_t seed;
    std::vector<BankState> bankState;
    /** REFs since the last performed TRR-induced refresh. */
    int refsSinceTrr = 0;

    // Ground-truth handles (resolved once at attach; null = detached).
    Counter *gtTrrRefs = nullptr;
    Counter *gtDetections = nullptr;
    Counter *gtCandidates = nullptr;
    Gauge *gtOccupied = nullptr;
};

} // namespace utrr

#endif // UTRR_TRR_VENDOR_C_HH
