#include "attack/trrespass.hh"

#include "common/logging.hh"

namespace utrr
{

std::string
FuzzedPattern::describe() const
{
    return logFmt(sides, "-sided, spacing ", spacing, ", ",
                  hammersPerAggr, " hammers/aggr/REF");
}

TrrespassFuzzer::TrrespassFuzzer(SoftMcHost &host,
                                 DiscoveredMapping mapping,
                                 Config config, std::uint64_t seed)
    : host(host), mapping(std::move(mapping)), cfg(config), rng(seed)
{
}

int
TrrespassFuzzer::evaluateShape(const FuzzedPattern &shape)
{
    const ModuleSpec &spec = host.module().spec();
    const int window = cfg.windowRefs > 0 ? cfg.windowRefs
                                          : spec.refreshPeriodRefs;
    AttackEvaluator evaluator(host);
    // Every aggressor of the comb hammers hammersPerAggr times per REF
    // interval (capped at an equal share of the interval), or that
    // share when hammersPerAggr is 0.
    const HammerPattern pattern =
        uniformPattern(shape.sides, shape.hammersPerAggr);

    int total_flips = 0;
    for (int p = 0; p < cfg.positions; ++p) {
        // Anchor of the aggressor comb; victims are the rows between
        // consecutive aggressors.
        const Row anchor = 1'024 +
            static_cast<Row>(rng.uniformInt(
                0, spec.rowsPerBank - 64 * shape.spacing - 2'048));

        const int stride = shape.spacing + 1;
        std::vector<std::pair<Bank, Row>> victims;
        for (int s = 0; shape.spacing >= 1 && s + 1 < shape.sides; ++s) {
            // First victim row inside each gap.
            victims.emplace_back(
                0, mapping.toLogical(anchor + s * stride + 1));
        }
        if (victims.empty())
            victims.emplace_back(0, mapping.toLogical(anchor + 1));

        const AttackOutcome outcome = evaluator.run(
            pattern, bindComb(mapping, 0, anchor, shape.sides, stride),
            victims, window);
        total_flips += outcome.totalFlips();
    }
    return total_flips;
}

FuzzResult
TrrespassFuzzer::fuzz()
{
    FuzzResult result;
    for (int attempt = 0; attempt < cfg.attempts; ++attempt) {
        FuzzedPattern shape;
        shape.sides = static_cast<int>(
            rng.uniformInt(cfg.minSides, cfg.maxSides));
        shape.spacing = static_cast<int>(rng.uniformInt(1, 3));
        shape.hammersPerAggr = 0; // fill the REF interval
        const int flips = evaluateShape(shape);
        ++result.patternsTried;
        if (flips > result.bestFlips) {
            result.bestFlips = flips;
            result.best = shape;
        }
        UTRR_DEBUG("fuzz attempt ", attempt, " (", shape.describe(),
                   "): ", flips, " flips");
    }
    return result;
}

} // namespace utrr
