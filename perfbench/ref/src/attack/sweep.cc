#include "attack/sweep.hh"

#include <algorithm>
#include <functional>

#include "common/logging.hh"

namespace utrr
{

CustomPatternParams
defaultCustomParams(const ModuleSpec &spec)
{
    CustomPatternParams params;
    params.vendor = spec.vendor;
    params.trrPeriod = spec.traits().trrToRefPeriod;
    params.paired = spec.paired();
    switch (spec.vendor) {
      case 'A':
        params.aggressorHammers = 24; // per aggressor per REF (§7.1)
        params.dummyCount = 16;
        break;
      case 'B': {
        // Per aggressor per TRR window (§7.1: 220 for the 4-REF window
        // of B_TRR1, 73 for the 2-REF window of B_TRR3): always leave
        // enough slack for the sampler-diverting dummy activations.
        const Timing timing;
        const int window_budget =
            params.trrPeriod * timing.hammersPerRefi();
        params.aggressorHammers =
            std::min(220, std::max(20, window_budget / 2 - 76));
        params.perBankSampler = spec.trr == TrrVersion::kBTrr3;
        params.dummyBanks = 4;
        break;
      }
      case 'C':
      default:
        params.windowActs =
            spec.trr == TrrVersion::kCTrr3 ? 1'024 : 2'048;
        // Per aggressor per TRR window: an eighth of the window budget
        // each, the rest going to the detection-diverting dummy burst
        // (§7.1). Paired-row modules couple each victim to a single
        // repeat-discounted aggressor, so they get a larger share.
        {
            const Timing timing;
            const int window_budget =
                params.trrPeriod * timing.hammersPerRefi();
            params.aggressorHammers =
                spec.paired() ? 140 : window_budget / 8;
        }
        break;
    }
    return params;
}

CustomPatternParams
customParamsFromProfile(char vendor, const TrrProfile &profile,
                        bool paired)
{
    CustomPatternParams params;
    params.vendor = vendor;
    params.trrPeriod = profile.trrToRefPeriod;
    params.paired = paired;
    switch (vendor) {
      case 'A':
        params.aggressorHammers = 24;
        params.dummyCount = 16;
        break;
      case 'B': {
        const Timing timing;
        const int window_budget =
            params.trrPeriod * timing.hammersPerRefi();
        params.aggressorHammers =
            std::min(220, std::max(20, window_budget / 2 - 76));
        params.perBankSampler = profile.perBank;
        break;
      }
      case 'C':
      default: {
        params.windowActs = profile.detectionWindowActs > 0
            ? profile.detectionWindowActs
            : 2'048;
        const Timing timing;
        params.aggressorHammers =
            paired ? 140
                   : params.trrPeriod * timing.hammersPerRefi() / 8;
        break;
      }
    }
    return params;
}

namespace
{

double
hammersPerAggrPerRef(const CustomPatternParams &params,
                     const Timing & /*timing*/)
{
    switch (params.vendor) {
      case 'A':
        return params.aggressorHammers;
      case 'B':
        return static_cast<double>(params.aggressorHammers) /
            static_cast<double>(params.trrPeriod);
      case 'C':
      default:
        return static_cast<double>(params.aggressorHammers) /
            static_cast<double>(params.trrPeriod);
    }
}

/** Victim anchors uniformly spread over the bank's physical rows. */
std::vector<Row>
anchorPositions(const DiscoveredMapping &mapping, int positions,
                bool paired)
{
    const Row rows = mapping.rows();
    const Row usable = rows - 16;
    std::vector<Row> anchors;
    const int count = std::min<int>(positions, usable / 8);
    for (int i = 0; i < count; ++i) {
        Row anchor = 8 +
            static_cast<Row>((static_cast<std::int64_t>(usable) * i) /
                             count);
        if (paired)
            anchor &= ~1; // paired victims anchor on even rows
        anchors.push_back(anchor);
    }
    return anchors;
}

SweepResult
runSweep(SoftMcHost &host, const DiscoveredMapping &mapping,
         const SweepConfig &config,
         const std::function<std::unique_ptr<AccessPattern>(Row)>
             &make_pattern,
         const std::function<std::vector<Row>(Row)> &victims_of,
         double hammers_per_aggr_per_ref)
{
    const ModuleSpec &spec = host.module().spec();
    const int window = config.windowRefs > 0 ? config.windowRefs
                                             : spec.refreshPeriodRefs;

    AttackEvaluator evaluator(host);
    SweepResult result;
    result.hammersPerAggrPerRef = hammers_per_aggr_per_ref;

    const bool paired = spec.paired();
    for (Row anchor : anchorPositions(mapping, config.positions, paired)) {
        // Re-synchronize the slot boundary with the TRR event cadence.
        const Row align_dummy =
            mapping.toLogical((anchor + 9'000) % mapping.rows());
        evaluator.alignToTrrEvent(config.bank, align_dummy);

        std::unique_ptr<AccessPattern> pattern = make_pattern(anchor);
        std::vector<std::pair<Bank, Row>> victims;
        for (Row victim : victims_of(anchor))
            victims.emplace_back(config.bank, victim);

        const AttackOutcome outcome =
            evaluator.run(*pattern, victims, window);

        ++result.positionsTested;
        for (const auto &[key, flips] : outcome.victimFlips) {
            ++result.victimRowsTested;
            result.flipsPerRow.push_back(static_cast<double>(flips));
            if (flips > 0)
                ++result.vulnerableRows;
            result.maxRowFlips = std::max(result.maxRowFlips, flips);
        }
        for (const auto &[count, n] : outcome.wordFlips.bins())
            result.wordFlips.add(count, n);
    }
    return result;
}

} // namespace

SweepResult
sweepCustomPattern(SoftMcHost &host, const DiscoveredMapping &mapping,
                   const CustomPatternParams &params,
                   const SweepConfig &config)
{
    CustomPatternParams effective = params;
    if (config.aggressorHammers > 0)
        effective.aggressorHammers = config.aggressorHammers;

    return runSweep(
        host, mapping, config,
        [&](Row anchor) {
            return makeCustomPattern(effective, host, mapping,
                                     config.bank, anchor);
        },
        [&](Row anchor) {
            return customPatternVictims(effective, mapping, anchor);
        },
        hammersPerAggrPerRef(effective, host.timing()));
}

std::string
baselineName(BaselineKind kind)
{
    switch (kind) {
      case BaselineKind::kSingleSided:
        return "single-sided";
      case BaselineKind::kDoubleSided:
        return "double-sided";
      case BaselineKind::kManySided9:
        return "9-sided";
      case BaselineKind::kManySided19:
        return "19-sided";
    }
    return "?";
}

SweepResult
sweepBaseline(SoftMcHost &host, const DiscoveredMapping &mapping,
              BaselineKind kind, const SweepConfig &config)
{
    const Timing timing = host.timing();
    const int budget = timing.hammersPerRefi();

    auto make_pattern =
        [&](Row anchor) -> std::unique_ptr<AccessPattern> {
        switch (kind) {
          case BaselineKind::kSingleSided:
            return std::make_unique<SingleSidedPattern>(
                config.bank, mapping.toLogical(anchor - 1), budget);
          case BaselineKind::kDoubleSided:
            return std::make_unique<DoubleSidedPattern>(
                config.bank, mapping.toLogical(anchor - 1),
                mapping.toLogical(anchor + 1), budget / 2);
          case BaselineKind::kManySided9:
          case BaselineKind::kManySided19: {
            const int sides =
                kind == BaselineKind::kManySided9 ? 9 : 19;
            std::vector<Row> aggressors;
            for (int i = 0; i < sides; ++i) {
                aggressors.push_back(
                    mapping.toLogical(anchor - 1 + 2 * i));
            }
            return std::make_unique<ManySidedPattern>(
                config.bank, std::move(aggressors),
                std::max(1, budget / sides));
          }
        }
        panic("unknown baseline kind");
    };

    auto victims_of = [&](Row anchor) {
        return std::vector<Row>{mapping.toLogical(anchor)};
    };

    const double hammers = kind == BaselineKind::kDoubleSided
        ? budget / 2.0
        : static_cast<double>(budget);
    return runSweep(host, mapping, config, make_pattern, victims_of,
                    hammers);
}

} // namespace utrr
