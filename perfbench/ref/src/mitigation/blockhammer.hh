/**
 * @file
 * BlockHammer-style activation throttling (Yaglikci et al., HPCA'21).
 *
 * Instead of refreshing victims, the controller bounds how fast any
 * row can be activated: per-bank counting Bloom filters estimate each
 * row's activation count in the current window; rows whose estimate
 * exceeds the blacklist threshold have their subsequent activations
 * delayed so that no row can reach HC_first activations within a
 * refresh window. Dummy-row evasion does not help an attacker — the
 * aggressors themselves get throttled, not mis-tracked.
 */

#ifndef UTRR_MITIGATION_BLOCKHAMMER_HH
#define UTRR_MITIGATION_BLOCKHAMMER_HH

#include <array>
#include <vector>

#include "mitigation/mitigation.hh"

namespace utrr
{

/**
 * BlockHammer-style throttler.
 */
class BlockHammer : public ControllerMitigation
{
  public:
    struct Params
    {
        /** Counting-Bloom-filter size (counters per bank). */
        int filterCounters = 4'096;
        /** Hash functions. */
        int hashes = 3;
        /** Estimated count at which a row is blacklisted. */
        int blacklistThreshold = 512;
        /** Max activations of one row allowed per window. */
        int maxActsPerWindow = 4'096;
        /** REF commands per window (filters swap/clear). */
        int windowRefs = 8'192;
        /** Window duration used to spread allowed ACTs (ns). */
        Time windowNs = 64 * kNsPerMs;
    };

    BlockHammer(int banks, Params params);

    MitigationAction onActivate(Bank bank, Row logical_row,
                                Time now) override;
    void onRefresh(Time now) override;
    void reset() override;
    std::string name() const override { return "BlockHammer"; }

    /** White-box: current count estimate of a row. */
    int estimateOf(Bank bank, Row logical_row) const;

    /** Rows currently considered blacklisted. */
    bool isBlacklisted(Bank bank, Row logical_row) const;

  private:
    std::size_t slotOf(Row logical_row, int hash) const;

    struct BankState
    {
        std::vector<int> counters;
        /** Per-row last throttled-ACT release time is approximated by
         *  one shared value per bank slot; good enough for the
         *  single-aggressor-pair workloads evaluated here. */
        Time nextAllowed = 0;
    };

    Params params;
    std::vector<BankState> bankState;
    std::uint64_t refs = 0;
};

} // namespace utrr

#endif // UTRR_MITIGATION_BLOCKHAMMER_HH
