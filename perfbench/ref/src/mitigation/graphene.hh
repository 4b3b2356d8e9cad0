/**
 * @file
 * Graphene (Park et al., MICRO'20): Misra-Gries frequent-item counting
 * in the memory controller.
 *
 * Per bank, a Misra-Gries summary with N entries plus a spillover
 * counter tracks row activations within one refresh window (tREFW).
 * Whenever a row's estimated count crosses the threshold T, the
 * controller refreshes its neighbours and resets the estimate. The
 * Misra-Gries guarantee makes this exhaustive: *no* row can be
 * activated more than T + W/N times (W = window activations) without
 * a neighbour refresh — unlike the reverse-engineered TRR tables,
 * there is no dummy-row pattern that starves a tracked aggressor.
 */

#ifndef UTRR_MITIGATION_GRAPHENE_HH
#define UTRR_MITIGATION_GRAPHENE_HH

#include <unordered_map>
#include <vector>

#include "mitigation/mitigation.hh"

namespace utrr
{

/**
 * Graphene controller mitigation.
 */
class Graphene : public ControllerMitigation
{
  public:
    struct Params
    {
        /** Misra-Gries table entries per bank. */
        int tableEntries = 128;
        /** Estimated-count threshold triggering a neighbour refresh. */
        int threshold = 2'000;
        /** REF commands per tracking window (reset cadence). */
        int windowRefs = 8'192;
        int blastRadius = 1;
    };

    Graphene(int banks, Params params);

    MitigationAction onActivate(Bank bank, Row logical_row,
                                Time now) override;
    void onRefresh(Time now) override;
    void reset() override;
    std::string name() const override { return "Graphene"; }

    /** White-box: estimated count of a row (0 if untracked). */
    int countOf(Bank bank, Row logical_row) const;

  private:
    struct BankState
    {
        /** row -> estimated count. */
        std::unordered_map<Row, int> counts;
        /** Misra-Gries spillover counter. */
        int spillover = 0;
    };

    Params params;
    std::vector<BankState> bankState;
    std::uint64_t refs = 0;
};

} // namespace utrr

#endif // UTRR_MITIGATION_GRAPHENE_HH
