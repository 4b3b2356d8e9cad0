/**
 * @file
 * Controller-side RowHammer mitigations (paper §2.4, §8).
 *
 * The paper classifies proposed mitigations into refresh-rate
 * increases, isolation, activation tracking and throttling, and
 * suggests (§8) using the U-TRR principles to evaluate them. This
 * library implements three representative tracking/throttling
 * mechanisms from the literature as *memory-controller* policies:
 *
 *  - PARA (Kim et al., ISCA'14): probabilistic adjacent-row refresh
 *    on every activation;
 *  - Graphene (Park et al., MICRO'20): Misra-Gries frequent-item
 *    counting with a guaranteed detection threshold per refresh window;
 *  - BlockHammer-style throttling (Yaglikci et al., HPCA'21):
 *    rate-tracking with activation delays for blacklisted rows.
 *
 * A mitigation attaches to the SoftMC host: on every ACT it may order
 * neighbour-row refreshes (performed as real ACT+PRE cycles, costing
 * command-bus time like a real controller) and/or delay the
 * activation. Unlike the in-DRAM TRR models, these are *not*
 * reverse-engineering targets — they are evaluation baselines for the
 * custom attack patterns.
 *
 * Controllers do not know the in-DRAM physical row mapping unless the
 * vendor discloses it; each mechanism therefore takes a
 * `mapping_aware` flag. Unaware mechanisms assume logical adjacency
 * and refresh the wrong rows on scrambled modules — measurably
 * weakening them (see bench_mitigations).
 */

#ifndef UTRR_MITIGATION_MITIGATION_HH
#define UTRR_MITIGATION_MITIGATION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace utrr
{

/** What the controller does around one ACT command. */
struct MitigationAction
{
    /** Logical rows to refresh (ACT+PRE) immediately after the ACT. */
    std::vector<Row> refreshRows;
    /** Delay injected before the ACT (throttling mechanisms). */
    Time delayNs = 0;
};

/**
 * A memory-controller RowHammer mitigation policy.
 */
class ControllerMitigation
{
  public:
    virtual ~ControllerMitigation() = default;

    /** Consulted on every ACT the host issues. */
    virtual MitigationAction onActivate(Bank bank, Row logical_row,
                                        Time now) = 0;

    /** Consulted on every REF the host issues (window bookkeeping). */
    virtual void onRefresh(Time /*now*/) {}

    /** Clear all state. */
    virtual void reset() = 0;

    virtual std::string name() const = 0;

    /** Victim refreshes this mitigation ordered so far. */
    std::uint64_t refreshesOrdered() const { return ordered; }

    /** Total delay injected so far (throttling cost). */
    Time delayInjected() const { return delayed; }

  protected:
    std::uint64_t ordered = 0;
    Time delayed = 0;
};

} // namespace utrr

#endif // UTRR_MITIGATION_MITIGATION_HH
