/**
 * @file
 * PARA: Probabilistic Adjacent Row Activation (Kim et al., ISCA'14).
 *
 * On every activation, with a small probability p, the controller
 * refreshes the activated row's neighbours. Stateless, so it cannot be
 * "overflowed" like a counter table or diverted like a sampler — its
 * protection degrades only with the adversary's patience: the
 * probability that N hammers escape refresh is (1-p)^N.
 */

#ifndef UTRR_MITIGATION_PARA_HH
#define UTRR_MITIGATION_PARA_HH

#include "common/rng.hh"
#include "mitigation/mitigation.hh"

namespace utrr
{

/**
 * PARA controller mitigation.
 */
class Para : public ControllerMitigation
{
  public:
    struct Params
    {
        /** Per-ACT neighbour-refresh probability. */
        double probability = 0.001;
        /** Refresh rows at distance 1 and (optionally) 2. */
        int blastRadius = 1;
    };

    Para(Params params, std::uint64_t seed);

    MitigationAction onActivate(Bank bank, Row logical_row,
                                Time now) override;
    void reset() override;
    std::string name() const override { return "PARA"; }

  private:
    Params params;
    Rng rng;
    std::uint64_t seed;
};

} // namespace utrr

#endif // UTRR_MITIGATION_PARA_HH
