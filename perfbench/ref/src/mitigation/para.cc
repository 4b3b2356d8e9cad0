#include "mitigation/para.hh"

namespace utrr
{

Para::Para(Params params, std::uint64_t seed)
    : params(params), rng(seed), seed(seed)
{
}

MitigationAction
Para::onActivate(Bank /*bank*/, Row logical_row, Time /*now*/)
{
    MitigationAction action;
    if (!rng.chance(params.probability))
        return action;
    for (int d = 1; d <= params.blastRadius; ++d) {
        action.refreshRows.push_back(logical_row - d);
        action.refreshRows.push_back(logical_row + d);
    }
    ordered += action.refreshRows.size();
    return action;
}

void
Para::reset()
{
    rng = Rng(seed);
    ordered = 0;
    delayed = 0;
}

} // namespace utrr
