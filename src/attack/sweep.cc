#include "attack/sweep.hh"

#include <algorithm>
#include <functional>

#include "common/logging.hh"

namespace utrr
{

namespace
{

/** Vendor A: decoy rows that evict the aggressors' counter entries. */
constexpr int kVendorADummyRows = 16;

/** Vendor B: banks hammered in parallel for the chip-wide sampler
 *  (tFAW-bound, footnote 12). */
constexpr int kVendorBDummyBanks = 4;

} // namespace

CustomPatternParams
defaultCustomParams(const ModuleSpec &spec)
{
    TrrProfile profile;
    profile.trrToRefPeriod = spec.traits().trrToRefPeriod;
    profile.perBank = spec.traits().perBank;
    return customParamsFromProfile(spec.vendor, profile, spec.paired());
}

CustomPatternParams
customParamsFromProfile(char vendor, const TrrProfile &profile,
                        bool paired)
{
    CustomPatternParams params;
    params.vendor = vendor;
    params.trrPeriod = profile.trrToRefPeriod;
    params.paired = paired;
    const int window_budget =
        params.trrPeriod * Timing{}.hammersPerRefi();
    switch (vendor) {
      case 'A':
        params.aggressorHammers = 24; // per aggressor per REF (§7.1)
        break;
      case 'B':
        // Per aggressor per TRR window (§7.1: 220 for the 4-REF window
        // of B_TRR1, 73 for the 2-REF window of B_TRR3): always leave
        // enough slack for the sampler-diverting dummy activations.
        params.aggressorHammers =
            std::min(220, std::max(20, window_budget / 2 - 76));
        params.perBankSampler = profile.perBank;
        break;
      case 'C':
      default:
        // Per aggressor per TRR window: an eighth of the window budget
        // each, the rest going to the detection-diverting dummy burst
        // (§7.1). Paired-row modules couple each victim to a single
        // repeat-discounted aggressor, so they get a larger share.
        params.aggressorHammers = paired ? 140 : window_budget / 8;
        break;
    }
    return params;
}

HammerPattern
customPattern(const CustomPatternParams &params, const Timing &timing)
{
    const int slot_acts = timing.hammersPerRefi();
    const int period = params.trrPeriod;
    HammerPattern pattern;
    PatternElement aggr; // both aggressors, round robin
    PatternElement dummies;
    dummies.kind = ElementKind::kDummies;
    switch (params.vendor) {
      case 'A':
        aggr.amplitude =
            std::clamp(params.aggressorHammers, 1, slot_acts / 2);
        dummies.rows = kVendorADummyRows; // share the rest of the slot
        pattern.elements = {aggr, dummies};
        return pattern;
      case 'B': {
        UTRR_ASSERT(period > 0, "need the TRR-to-REF period");
        // Slot 0 of the period is the first interval after a
        // TRR-capable REF: the aggressors take half of every slot
        // until T is spent, dummies the time every slot has left.
        const int half = slot_acts / 2;
        const int full_slots =
            std::min(params.aggressorHammers / half, period);
        const int rest =
            full_slots < period ? params.aggressorHammers % half : 0;
        pattern.basePeriod = period;
        aggr.frequency = period;
        if (full_slots > 0) {
            aggr.span = full_slots;
            pattern.elements.push_back(aggr);
        }
        if (rest > 0) {
            aggr.phase = full_slots;
            aggr.span = 1;
            aggr.amplitude = rest;
            pattern.elements.push_back(aggr);
        }
        if (params.perBankSampler) {
            // B_TRR3 samples per bank: the dummy must share the
            // aggressors' bank (footnote 13).
            dummies.rows = 1;
        } else {
            dummies.rows = kVendorBDummyBanks;
            dummies.banks = kVendorBDummyBanks;
        }
        pattern.elements.push_back(dummies);
        return pattern;
      }
      case 'C': {
        UTRR_ASSERT(period > 0, "need the TRR-to-REF period");
        // The dummy burst fills the whole TRR window except the ACTs
        // reserved for the aggressor hammers, hiding the aggressors
        // from the detection window regardless of its exact length.
        const int aggr_hammers =
            params.aggressorHammers > 0 ? params.aggressorHammers : 80;
        const int burst =
            std::max(0, period * slot_acts - 2 * aggr_hammers);
        const int burst_slots = burst / slot_acts;
        pattern.basePeriod = period;
        dummies.rows = 1;
        dummies.frequency = period;
        if (burst_slots > 0) {
            dummies.span = burst_slots;
            pattern.elements.push_back(dummies);
        }
        if (burst % slot_acts > 0) {
            dummies.phase = burst_slots;
            dummies.span = 1;
            dummies.amplitude = burst % slot_acts;
            pattern.elements.push_back(dummies);
        }
        aggr.frequency = period;
        aggr.phase = burst_slots;
        aggr.span = period - burst_slots;
        pattern.elements.push_back(aggr);
        return pattern;
      }
      default:
        panic(logFmt("unknown vendor '", params.vendor, "'"));
    }
}

PatternBinding
bindCustomPattern(const HammerPattern &pattern, const ModuleSpec &spec,
                  const DiscoveredMapping &mapping, Bank bank,
                  Row victim_phys)
{
    PatternBinding binding =
        bindPattern(pattern, spec, mapping, bank, victim_phys);
    if (pattern.dummyBankCount() > 1) {
        for (std::size_t i = 0; i < binding.dummyBanks.size(); ++i) {
            binding.dummyBanks[i] =
                static_cast<Bank>((bank + 1 + i) % spec.banks);
        }
    }
    return binding;
}

namespace
{

double
hammersPerAggrPerRef(const CustomPatternParams &params)
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
         const SweepConfig &config, const HammerPattern &pattern,
         const std::function<PatternBinding(Row)> &bind_at,
         const std::function<std::vector<std::pair<Bank, Row>>(Row)>
             &victims_of,
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

        const AttackOutcome outcome = evaluator.run(
            pattern, bind_at(anchor), victims_of(anchor), window);

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

/** Aggressor rows of a baseline's one element. */
int
baselineRows(BaselineKind kind)
{
    switch (kind) {
      case BaselineKind::kSingleSided:
        return 1;
      case BaselineKind::kDoubleSided:
        return 2;
      case BaselineKind::kManySided9:
        return 9;
      case BaselineKind::kManySided19:
        return 19;
    }
    panic("unknown baseline kind");
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

    const ModuleSpec &spec = host.module().spec();
    const HammerPattern pattern = customPattern(effective, host.timing());
    return runSweep(
        host, mapping, config, pattern,
        [&](Row anchor) {
            return bindCustomPattern(pattern, spec, mapping, config.bank,
                                     anchor);
        },
        [&](Row anchor) {
            return patternVictims(pattern, spec, mapping, config.bank,
                                  anchor);
        },
        hammersPerAggrPerRef(effective));
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
    const HammerPattern pattern = uniformPattern(baselineRows(kind));
    const int budget = host.timing().hammersPerRefi();
    const double hammers = kind == BaselineKind::kDoubleSided
        ? budget / 2.0
        : static_cast<double>(budget);
    return runSweep(
        host, mapping, config, pattern,
        [&](Row anchor) {
            return bindComb(mapping, config.bank, anchor - 1,
                            pattern.aggressorRowCount(), 2);
        },
        [&](Row anchor) {
            return std::vector<std::pair<Bank, Row>>{
                {config.bank, mapping.toLogical(anchor)}};
        },
        hammers);
}

} // namespace utrr
