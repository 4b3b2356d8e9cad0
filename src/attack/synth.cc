#include "attack/synth.hh"

#include <algorithm>
#include <climits>
#include <map>
#include <set>
#include <sstream>

#include "attack/evaluator.hh"
#include "check/minimizer.hh"
#include "common/logging.hh"
#include "obs/profiler.hh"
#include "softmc/host.hh"

namespace utrr
{

namespace
{

/** Periods the modelled TRR mechanisms actually use; draws favour
 *  these over a blind uniform period. */
constexpr int kLikelyPeriods[] = {2, 4, 8, 9, 16, 17};

int
clampInt(int value, int lo, int hi)
{
    return std::max(lo, std::min(value, hi));
}

int
drawBasePeriod(Rng &rng, const SynthRanges &ranges, int hint)
{
    const double pick = rng.uniform();
    int period;
    if (hint > 0 && pick < 0.6) {
        period = hint;
    } else if (pick < 0.85) {
        period = kLikelyPeriods[rng.uniformInt(
            0, std::size(kLikelyPeriods) - 1)];
    } else {
        period = static_cast<int>(rng.uniformInt(
            ranges.minBasePeriod, ranges.maxBasePeriod));
    }
    return clampInt(period, ranges.minBasePeriod,
                    ranges.maxBasePeriod);
}

/**
 * Deterministic insight-seeded candidates, tried before any random
 * draw. This is the paper's §7.1 move folded into the search: the
 * reverse-engineered mechanism class dictates a counter-shape (decoy
 * eviction for the vendor-A counter table, early-aggressor +
 * multi-bank sampler feed for vendor B, window-fill for vendor C), so
 * the known shape family goes first and the fuzzer only has to find
 * what insight alone cannot. Clamped into @p ranges so every candidate
 * obeys the same bounds as drawPattern's output.
 */
std::vector<HammerPattern>
insightCandidates(const ModuleSpec &spec, const SynthRanges &ranges,
                  int hint)
{
    std::vector<HammerPattern> out;
    const int period =
        clampInt(std::max(2, hint), 2, ranges.maxBasePeriod);

    if (spec.vendor == 'A') {
        // Decoy-evict at three aggressor amplitudes around the §7.1
        // operating point (24 per aggressor per REF).
        for (const int amp : {24, 40, 16}) {
            HammerPattern p;
            p.basePeriod = 1;
            PatternElement aggr;
            aggr.kind = ElementKind::kAggressors;
            aggr.rows = 2;
            aggr.amplitude = clampInt(amp, 1, ranges.maxAmplitude);
            PatternElement decoys;
            decoys.kind = ElementKind::kDummies;
            decoys.rows = clampInt(16, 1, ranges.maxDummyRows);
            decoys.amplitude = 0; // fill
            p.elements = {aggr, decoys};
            out.push_back(p);
        }
    } else if (spec.vendor == 'B') {
        // Early-aggr: aggressors own a prefix of the TRR window, then
        // multi-bank (or, for the per-bank B_TRR3 sampler, same-bank)
        // dummies divert the sampler for the rest of it.
        for (const int banks : {4, 1}) {
            for (const int aspan : {std::max(1, period / 2), 1}) {
                HammerPattern p;
                p.basePeriod = period;
                PatternElement aggr;
                aggr.kind = ElementKind::kAggressors;
                aggr.rows = 2;
                aggr.frequency = period;
                aggr.span = aspan;
                aggr.amplitude = 0;
                PatternElement fill;
                fill.kind = ElementKind::kDummies;
                fill.rows = clampInt(4, 1, ranges.maxDummyRows);
                fill.banks = clampInt(banks, 1, ranges.maxDummyBanks);
                fill.frequency = period;
                fill.phase = aspan;
                fill.span = period - aspan;
                fill.amplitude = 0;
                p.elements = {aggr, fill};
                if (validatePattern(p).empty())
                    out.push_back(p);
            }
        }
    } else {
        // Window-fill: a dummy burst captures the detection window's
        // candidate slot(s), then the aggressors hammer unobserved.
        for (const int prefix : {1, 2, std::max(1, period / 2)}) {
            if (prefix >= period)
                continue;
            HammerPattern p;
            p.basePeriod = period;
            PatternElement burst;
            burst.kind = ElementKind::kDummies;
            burst.rows = clampInt(2, 1, ranges.maxDummyRows);
            burst.frequency = period;
            burst.span = prefix;
            burst.amplitude = 0;
            PatternElement aggr;
            aggr.kind = ElementKind::kAggressors;
            aggr.rows = 2;
            aggr.frequency = period;
            aggr.phase = prefix;
            aggr.span = period - prefix;
            aggr.amplitude = 0;
            p.elements = {burst, aggr};
            if (validatePattern(p).empty())
                out.push_back(p);
        }
    }

    // Small periods collapse span/prefix variants onto each other;
    // keep the first of each distinct shape.
    std::set<std::string> seen;
    std::vector<HammerPattern> unique;
    for (const HammerPattern &p : out)
        if (seen.insert(serializeHammerPattern(p)).second)
            unique.push_back(p);
    return unique;
}

/** Aggressor ACTs per aggressor row per base period — the bypass
 *  table's hammer-budget column. */
int
aggressorHammersPerPeriod(const HammerPattern &pattern,
                          const Timing &timing)
{
    int total = 0;
    for (int slot = 0; slot < pattern.basePeriod; ++slot) {
        const SlotPlan plan =
            planSlot(pattern, static_cast<std::uint64_t>(slot), timing);
        for (const BurstPlan &burst : plan.bursts) {
            if (pattern.elements[burst.element].kind ==
                ElementKind::kAggressors)
                total += burst.hammersPerRow;
        }
    }
    return total;
}

} // namespace

HammerPattern
drawPattern(Rng &rng, const SynthRanges &ranges, int trr_period_hint)
{
    HammerPattern pattern;
    // Family weights: the decoy/early/window shapes are each the known
    // counter-move against one mechanism family (§7.1); uniform is the
    // TRRespass control arm.
    const int family = static_cast<int>(rng.uniformInt(0, 7));
    pattern.basePeriod = drawBasePeriod(rng, ranges, trr_period_hint);

    const auto drawAmplitude = [&](int lo, int hi) {
        lo = clampInt(lo, 1, ranges.maxAmplitude);
        hi = clampInt(hi, lo, ranges.maxAmplitude);
        return static_cast<int>(rng.uniformInt(lo, hi));
    };

    if (family == 0) {
        // Uniform: aggressors every slot, the TRRespass shape.
        PatternElement aggr;
        aggr.kind = ElementKind::kAggressors;
        aggr.rows = static_cast<int>(rng.uniformInt(1, 2));
        aggr.frequency = 1;
        aggr.span = 1;
        aggr.amplitude = rng.chance(0.5)
            ? 0
            : drawAmplitude(ranges.minAmplitude, ranges.maxAmplitude);
        pattern.elements.push_back(aggr);
    } else if (family <= 2) {
        // Decoy-evict: low-amplitude aggressors plus a large same-bank
        // decoy set in every slot (floods a counter table until the
        // aggressor entries evict).
        PatternElement aggr;
        aggr.kind = ElementKind::kAggressors;
        aggr.rows = static_cast<int>(rng.uniformInt(1, 2));
        aggr.frequency = 1;
        aggr.span = 1;
        aggr.amplitude =
            drawAmplitude(ranges.minAmplitude,
                          std::min(48, ranges.maxAmplitude));
        PatternElement decoys;
        decoys.kind = ElementKind::kDummies;
        decoys.rows = static_cast<int>(
            rng.uniformInt(6, std::max(6, ranges.maxDummyRows)));
        decoys.frequency = 1;
        decoys.span = 1;
        decoys.amplitude = 0; // fill
        pattern.elements.push_back(aggr);
        pattern.elements.push_back(decoys);
    } else if (family <= 4) {
        // Early-aggr: aggressors confined to a prefix of the period,
        // dummy fill elsewhere (starves a sampler of aggressor ACTs in
        // the slots it samples from).
        const int period = std::max(pattern.basePeriod, 2);
        pattern.basePeriod = period;
        PatternElement aggr;
        aggr.kind = ElementKind::kAggressors;
        aggr.rows = static_cast<int>(rng.uniformInt(1, 2));
        aggr.frequency = period;
        aggr.span = static_cast<int>(
            rng.uniformInt(1, std::max(1, period / 2)));
        aggr.amplitude = rng.chance(0.5)
            ? 0
            : drawAmplitude(ranges.minAmplitude, ranges.maxAmplitude);
        PatternElement fill;
        fill.kind = ElementKind::kDummies;
        fill.rows = static_cast<int>(rng.uniformInt(1, 4));
        const int bank_pick = static_cast<int>(rng.uniformInt(0, 2));
        fill.banks =
            std::min(1 << bank_pick, ranges.maxDummyBanks);
        fill.frequency = 1;
        fill.span = period;
        fill.amplitude = 0; // fill the remaining slot time
        pattern.elements.push_back(aggr);
        pattern.elements.push_back(fill);
    } else {
        // Window-fill: a dummy burst owns the first slots of the
        // period (captures a detection window's candidate), then the
        // aggressors hammer unobserved.
        const int period = std::max(pattern.basePeriod, 2);
        pattern.basePeriod = period;
        const int prefix =
            static_cast<int>(rng.uniformInt(1, period - 1));
        PatternElement burst;
        burst.kind = ElementKind::kDummies;
        burst.rows = static_cast<int>(rng.uniformInt(1, 4));
        burst.frequency = period;
        burst.span = prefix;
        burst.amplitude = 0;
        PatternElement aggr;
        aggr.kind = ElementKind::kAggressors;
        aggr.rows = static_cast<int>(rng.uniformInt(1, 2));
        aggr.frequency = period;
        aggr.phase = prefix;
        aggr.span = period - prefix;
        aggr.amplitude = 0;
        pattern.elements.push_back(burst);
        pattern.elements.push_back(aggr);
    }

    UTRR_ASSERT(validatePattern(pattern).empty(),
                "drawPattern produced an invalid pattern");
    return pattern;
}

PatternEval
evaluatePattern(const ModuleSpec &spec, const SynthConfig &cfg,
                const HammerPattern &pattern, Bank bank, Row anchor,
                const std::atomic<bool> *stop)
{
    // Fresh substrate per evaluation: the result is a pure function of
    // (spec, moduleSeed, pattern, bank, anchor, window), never of what
    // an earlier candidate hammered.
    DramModule module(spec, cfg.moduleSeed);
    SoftMcHost host(module);
    host.attachStopFlag(stop);
    const DiscoveredMapping mapping(spec.scramble, spec.rowsPerBank);

    AttackEvaluator evaluator(host);

    // Warm up the mitigation into its sweep steady state: run the same
    // pattern at the diametrically opposite anchor first, exactly as a
    // prior position of a multi-position sweep would have. Rows there
    // are ~rows/2 away, so no warm-up row aliases the measured binding.
    if (cfg.warmupRefs > 0) {
        Row warm_anchor =
            (anchor + mapping.rows() / 2) % mapping.rows();
        warm_anchor = std::min<Row>(
            std::max<Row>(warm_anchor, 8), mapping.rows() - 8);
        if (spec.paired())
            warm_anchor &= ~1;
        evaluator.run(pattern,
                      bindPattern(pattern, spec, mapping, bank,
                                  warm_anchor),
                      {}, cfg.warmupRefs);
    }

    const Row align_dummy =
        mapping.toLogical((anchor + 9'000) % mapping.rows());
    evaluator.alignToTrrEvent(bank, align_dummy);

    const PatternBinding binding =
        bindPattern(pattern, spec, mapping, bank, anchor);
    const std::vector<std::pair<Bank, Row>> victims =
        patternVictims(pattern, spec, mapping, bank, anchor);

    const int window = cfg.windowRefs > 0 ? cfg.windowRefs
                                          : spec.refreshPeriodRefs;
    const AttackOutcome outcome =
        evaluator.run(pattern, binding, victims, window);

    PatternEval eval;
    eval.flips = outcome.totalFlips();
    eval.vulnerableRows = outcome.vulnerableRows();
    return eval;
}

SynthModuleResult
synthesizeForModule(const ModuleSpec &spec, const SynthConfig &cfg,
                    Rng rng, const std::atomic<bool> *stop)
{
    SynthModuleResult result;
    result.windowRefs = cfg.windowRefs > 0 ? cfg.windowRefs
                                           : spec.refreshPeriodRefs;
    const int hint = cfg.trrPeriodHint >= 0
        ? cfg.trrPeriodHint
        : spec.traits().trrToRefPeriod;

    const Row usable = spec.rowsPerBank - 16;
    const int positions = std::max(1, cfg.positions);
    const Row stride = std::max<Row>(1, usable / positions);

    // --- search ------------------------------------------------------
    // Insight first, fuzzing second: the first attempts replay the
    // deterministic §7.1 shape family for the module's mechanism
    // class, then the seeded draws explore beyond it.
    const std::vector<HammerPattern> seeded =
        insightCandidates(spec, cfg.ranges, hint);
    HammerPattern winner;
    {
        ProfSpan span("synth.search");
        for (int attempt = 0;
             attempt < cfg.attempts && !result.beaten; ++attempt) {
            ++result.attemptsTried;
            const HammerPattern candidate =
                attempt < static_cast<int>(seeded.size())
                    ? seeded[static_cast<std::size_t>(attempt)]
                    : drawPattern(rng, cfg.ranges, hint);
            // Per-attempt anchor jitter: the victim's regular-refresh
            // offset inside the evaluation window is position-
            // dependent, so repeated attempts must explore different
            // rows, not retry the same ones.
            const Row jitter =
                static_cast<Row>(rng.uniformInt(0, stride - 1));
            for (int i = 0; i < positions; ++i) {
                Row anchor = 8 + stride * i + jitter;
                anchor = std::min<Row>(anchor, spec.rowsPerBank - 8);
                if (spec.paired())
                    anchor &= ~1; // paired victims sit on even rows
                const PatternEval eval = evaluatePattern(
                    spec, cfg, candidate, cfg.bank, anchor, stop);
                if (eval.flips > 0) {
                    result.beaten = true;
                    result.winningAttempt = attempt;
                    result.anchor = anchor;
                    result.searchFlips = eval.flips;
                    winner = candidate;
                    break;
                }
            }
        }
    }
    if (!result.beaten)
        return result;
    result.elementsBefore =
        static_cast<int>(winner.elements.size());

    // --- minimize: ddmin over pattern *elements* ---------------------
    HammerPattern best = winner;
    if (cfg.minimize && winner.elements.size() > 1) {
        ProfSpan span("synth.minimize");
        MinimizeOptions options;
        options.maxEvaluations = cfg.minimizeMaxEvaluations;
        const DdminResult pass = ddminIndices(
            winner.elements.size(),
            [&](const std::vector<std::size_t> &kept) {
                HammerPattern candidate;
                candidate.basePeriod = winner.basePeriod;
                for (const std::size_t i : kept)
                    candidate.elements.push_back(winner.elements[i]);
                if (!validatePattern(candidate).empty())
                    return false; // e.g. dropped every aggressor
                return evaluatePattern(spec, cfg, candidate, cfg.bank,
                                       result.anchor, stop)
                           .flips > 0;
            },
            options);
        result.minimizeEvaluations = pass.evaluations;
        HammerPattern minimized;
        minimized.basePeriod = winner.basePeriod;
        for (const std::size_t i : pass.kept)
            minimized.elements.push_back(winner.elements[i]);
        if (validatePattern(minimized).empty())
            best = minimized;
    }
    result.best = best;
    result.bestClass = patternClass(best);
    result.elementsAfter = static_cast<int>(best.elements.size());
    result.hammersPerAggrPerPeriod =
        aggressorHammersPerPeriod(best, Timing{});

    // --- verify: replay the minimized winner on a fresh substrate ----
    {
        ProfSpan span("synth.verify");
        result.verifyFlips =
            evaluatePattern(spec, cfg, best, cfg.bank, result.anchor,
                            stop)
                .flips;
    }

    // --- sweep the survivor across banks -----------------------------
    {
        ProfSpan span("synth.sweep");
        const int banks = std::min(cfg.sweepBanks, spec.banks);
        for (int bank = 0; bank < banks; ++bank) {
            result.bankFlips.push_back(
                evaluatePattern(spec, cfg, best,
                                static_cast<Bank>(bank),
                                result.anchor, stop)
                    .flips);
        }
    }
    return result;
}

Json
synthVerdict(const ModuleSpec &spec, const SynthModuleResult &result)
{
    Json v = Json::object();
    v["trr"] = Json(trrVersionName(spec.trr));
    v["beaten"] = Json(result.beaten);
    v["attempts_tried"] = Json(result.attemptsTried);
    v["window_refs"] = Json(result.windowRefs);
    if (!result.beaten)
        return v;
    v["winning_attempt"] = Json(result.winningAttempt);
    v["anchor"] = Json(static_cast<std::int64_t>(result.anchor));
    v["search_flips"] = Json(result.searchFlips);
    v["verify_flips"] = Json(result.verifyFlips);
    v["pattern_class"] = Json(result.bestClass);
    v["pattern"] = Json(serializeHammerPattern(result.best));
    v["elements_before"] = Json(result.elementsBefore);
    v["elements_after"] = Json(result.elementsAfter);
    v["minimize_evals"] =
        Json(static_cast<std::uint64_t>(result.minimizeEvaluations));
    v["hammers_per_aggr_per_period"] =
        Json(result.hammersPerAggrPerPeriod);
    Json banks = Json::array();
    for (const int flips : result.bankFlips)
        banks.push(Json(flips));
    v["bank_flips"] = std::move(banks);
    return v;
}

std::string
synthContentTag(const SynthConfig &cfg)
{
    std::ostringstream oss;
    oss << "synth:v2:" << cfg.attempts << ':' << cfg.positions << ':'
        << cfg.windowRefs << ':' << cfg.warmupRefs << ':'
        << cfg.sweepBanks << ':'
        << (cfg.minimize ? 1 : 0) << ':'
        << cfg.minimizeMaxEvaluations << ':' << cfg.bank << ':'
        << cfg.moduleSeed << ':' << cfg.trrPeriodHint << ':'
        << cfg.ranges.minBasePeriod << ':' << cfg.ranges.maxBasePeriod
        << ':' << cfg.ranges.minAmplitude << ':'
        << cfg.ranges.maxAmplitude << ':' << cfg.ranges.maxDummyRows
        << ':' << cfg.ranges.maxDummyBanks;
    return oss.str();
}

CampaignResult
runSynthCampaign(const std::vector<ModuleSpec> &specs,
                 const SynthCampaignConfig &cfg)
{
    CampaignConfig runner_cfg;
    runner_cfg.jobs = cfg.jobs;
    runner_cfg.seed = cfg.seed;
    runner_cfg.moduleSeed = cfg.synth.moduleSeed;
    runner_cfg.maxWatchdogRetries = cfg.maxWatchdogRetries;
    runner_cfg.journalPath = cfg.journalPath;
    runner_cfg.resume = cfg.resume;
    runner_cfg.telemetry = cfg.telemetry;
    runner_cfg.stopFlag = cfg.stopFlag;
    runner_cfg.contentTag = synthContentTag(cfg.synth);

    const SynthConfig synth = cfg.synth;
    CampaignRunner runner(runner_cfg);
    return runner.run(specs, [synth](JobContext &ctx) {
        SynthConfig job_cfg = synth;
        job_cfg.moduleSeed = ctx.moduleSeed;
        // A named sub-stream, so a future second consumer of the job
        // RNG cannot shift the synthesis draws.
        const SynthModuleResult result = synthesizeForModule(
            ctx.spec, job_cfg, ctx.rng.fork("synth"), ctx.stopFlag);

        ctx.metrics.counter("synth.attempts")
            .inc(static_cast<std::uint64_t>(result.attemptsTried));
        if (result.beaten) {
            ctx.metrics.counter("synth.beaten").inc();
            ctx.metrics.counter("synth.verify_flips")
                .inc(static_cast<std::uint64_t>(result.verifyFlips));
        }

        JobOutcome outcome;
        outcome.ok = result.beaten;
        outcome.verdict = synthVerdict(ctx.spec, result);
        return outcome;
    });
}

Json
bypassTable(const CampaignResult &result,
            const std::vector<ModuleSpec> &specs)
{
    struct Group
    {
        std::string trr;
        int total = 0;
        int beaten = 0;
        std::set<std::string> classes;
        int minBudget = INT_MAX;
        int maxBudget = 0;
        std::string exampleModule;
        std::string examplePattern;
        int exampleFlips = 0;
    };
    std::vector<Group> groups;
    std::map<std::string, std::size_t> group_index;

    Json modules = Json::array();
    for (std::size_t i = 0;
         i < result.modules.size() && i < specs.size(); ++i) {
        const ModuleResult &m = result.modules[i];
        const ModuleSpec &spec = specs[i];
        Json row = Json::object();
        row["module"] = Json(spec.name);
        if (!m.completed) {
            row["pending"] = Json(true);
            modules.push(std::move(row));
            continue;
        }
        for (const auto &[key, value] : m.verdict.members())
            row[key] = value;
        modules.push(std::move(row));

        const std::string trr = trrVersionName(spec.trr);
        if (group_index.find(trr) == group_index.end()) {
            group_index[trr] = groups.size();
            groups.push_back(Group{});
            groups.back().trr = trr;
        }
        Group &group = groups[group_index[trr]];
        ++group.total;
        const Json *beaten = m.verdict.find("beaten");
        if (beaten == nullptr || !beaten->asBool())
            continue;
        ++group.beaten;
        if (const Json *cls = m.verdict.find("pattern_class"))
            group.classes.insert(cls->asString());
        if (const Json *budget =
                m.verdict.find("hammers_per_aggr_per_period")) {
            const int b = static_cast<int>(budget->asInt());
            group.minBudget = std::min(group.minBudget, b);
            group.maxBudget = std::max(group.maxBudget, b);
        }
        if (group.exampleModule.empty()) {
            group.exampleModule = spec.name;
            if (const Json *pattern = m.verdict.find("pattern"))
                group.examplePattern = pattern->asString();
            if (const Json *flips = m.verdict.find("verify_flips"))
                group.exampleFlips = static_cast<int>(flips->asInt());
        }
    }

    Json by_trr = Json::array();
    for (const Group &group : groups) {
        Json row = Json::object();
        row["trr"] = Json(group.trr);
        row["modules"] = Json(group.total);
        row["beaten"] = Json(group.beaten);
        Json classes = Json::array();
        for (const std::string &cls : group.classes)
            classes.push(Json(cls));
        row["pattern_classes"] = std::move(classes);
        if (group.beaten > 0) {
            row["min_hammers_per_aggr_per_period"] =
                Json(group.minBudget);
            row["max_hammers_per_aggr_per_period"] =
                Json(group.maxBudget);
            row["example_module"] = Json(group.exampleModule);
            row["example_flips"] = Json(group.exampleFlips);
            row["example_pattern"] = Json(group.examplePattern);
        }
        by_trr.push(std::move(row));
    }

    Json table = Json::object();
    table["modules"] = std::move(modules);
    table["by_trr"] = std::move(by_trr);
    return table;
}

void
fillBypassReport(ExperimentReport &report, const CampaignResult &result,
                 const std::vector<ModuleSpec> &specs,
                 const SynthCampaignConfig &cfg)
{
    report.setSeed(cfg.seed);
    report.setConfig("module_seed", Json(cfg.synth.moduleSeed));
    report.setConfig("attempts", Json(cfg.synth.attempts));
    report.setConfig("positions", Json(cfg.synth.positions));
    report.setConfig("window_refs", Json(cfg.synth.windowRefs));
    report.setConfig("warmup_refs", Json(cfg.synth.warmupRefs));
    report.setConfig("sweep_banks", Json(cfg.synth.sweepBanks));
    report.setConfig("content_tag",
                     Json(synthContentTag(cfg.synth)));
    report.setConfig(
        "modules", Json(static_cast<std::uint64_t>(specs.size())));
    result.fillReport(report);
    report.setSection("bypass_table", bypassTable(result, specs));
}

} // namespace utrr
