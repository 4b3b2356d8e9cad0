#include "core/reveng.hh"

#include <algorithm>
#include <map>

#include "common/logging.hh"
#include "fault/fault_injector.hh"
#include "obs/profiler.hh"

namespace utrr
{

std::string
detectionTypeName(DetectionType type)
{
    switch (type) {
      case DetectionType::kUnknown:
        return "unknown";
      case DetectionType::kCounterBased:
        return "counter-based";
      case DetectionType::kSamplingBased:
        return "sampling-based";
      case DetectionType::kWindowBased:
        return "window-based";
    }
    return "?";
}

std::string
TrrProfile::summary() const
{
    return logFmt("TRR: 1/", trrToRefPeriod, " REFs, ",
                  neighborsRefreshed, " neighbours, ",
                  detectionTypeName(detection), ", capacity ",
                  aggressorCapacity, ", ",
                  perBank ? "per-bank" : "chip-wide",
                  ", regular refresh every ", regularRefreshPeriodRefs,
                  " REFs");
}

std::vector<int>
TrrReveng::IterationTrace::eventsOf(std::size_t group) const
{
    std::vector<int> events;
    for (std::size_t it = 0; it < masks.size(); ++it) {
        if (masks[it].at(group) != 0)
            events.push_back(static_cast<int>(it));
    }
    return events;
}

std::vector<int>
TrrReveng::IterationTrace::anyEvents() const
{
    std::vector<int> events;
    for (std::size_t it = 0; it < masks.size(); ++it) {
        bool any = false;
        for (std::uint64_t mask : masks[it])
            any = any || mask != 0;
        if (any)
            events.push_back(static_cast<int>(it));
    }
    return events;
}

int
TrrReveng::IterationTrace::dominantPeriod(const std::vector<int> &events)
{
    if (events.size() < 2)
        return 0;
    std::map<int, int> diff_counts;
    for (std::size_t i = 1; i < events.size(); ++i)
        ++diff_counts[events[i] - events[i - 1]];
    int best_diff = 0;
    int best_count = 0;
    for (const auto &[diff, count] : diff_counts) {
        if (count > best_count) {
            best_count = count;
            best_diff = diff;
        }
    }
    return best_diff;
}

TrrReveng::TrrReveng(SoftMcHost &host, DiscoveredMapping mapping,
                     TrrRevengConfig config)
    : host(host), mapping(mapping), cfg(std::move(config)),
      analyzer(host, std::move(mapping))
{
}

void
TrrReveng::retryWithFreshRows(const char *why, Bank bank)
{
    auto &burned = burnedByBank[bank];
    for (const RowGroup &group : rrPools[bank]) {
        for (const ProfiledRow &row : group.rows)
            burned.push_back(row.physRow);
        for (Row gap : group.gapPhysRows())
            burned.push_back(gap);
    }
    rrPools[bank].clear();
    ++freshRowRetries;
    if (MetricsRegistry *m = host.attachedMetrics())
        m->counter("reveng.fresh_row_retries").inc();
    warn(logFmt("reveng: ", why, " — retrying with fresh rows (",
                burned.size(), " burned in bank ", bank, ")"));
}

void
TrrReveng::retryWithFreshWideGroup(const char *why)
{
    for (const RowGroup &group : widePool) {
        auto &burned = burnedByBank[group.bank];
        for (const ProfiledRow &row : group.rows)
            burned.push_back(row.physRow);
        for (Row gap : group.gapPhysRows())
            burned.push_back(gap);
    }
    widePool.clear();
    ++freshRowRetries;
    if (MetricsRegistry *m = host.attachedMetrics())
        m->counter("reveng.fresh_row_retries").inc();
    warn(logFmt("reveng: ", why,
                " — retrying with a fresh wide group"));
}

bool
TrrReveng::chaosActive() const
{
    const FaultInjector *injector = host.faultInjector();
    return injector != nullptr && injector->enabled();
}

bool
TrrReveng::groupStillHealthy(const RowGroup &group)
{
    RowScoutConfig scout_cfg;
    scout_cfg.bank = group.bank;
    RowScout scout(host, mapping, scout_cfg);
    for (const ProfiledRow &row : group.rows)
        if (!scout.validateRetention(row.logicalRow, group.retention, 1))
            return false;
    return true;
}

void
TrrReveng::quarantineGroups(Bank bank, const std::vector<RowGroup> &bad)
{
    auto &burned = burnedByBank[bank];
    for (const RowGroup &group : bad) {
        for (const ProfiledRow &row : group.rows)
            burned.push_back(row.physRow);
        for (Row gap : group.gapPhysRows())
            burned.push_back(gap);
    }
    auto &pool = rrPools[bank];
    pool.erase(std::remove_if(pool.begin(), pool.end(),
                              [&bad](const RowGroup &group) {
                                  for (const RowGroup &b : bad)
                                      if (b.basePhysRow ==
                                          group.basePhysRow)
                                          return true;
                                  return false;
                              }),
               pool.end());
    if (MetricsRegistry *m = host.attachedMetrics())
        m->counter("reveng.quarantined_groups").inc(bad.size());
    warn(logFmt("reveng: quarantined ", bad.size(),
                " group(s) that read refreshed unconditionally (bank ",
                bank, ")"));
}

std::vector<RowGroup>
TrrReveng::groupsRR(int count, Bank bank)
{
    UTRR_PROF_SCOPE_SIM("reveng.scout_groups", host.clockPtr());
    auto &pool = rrPools[bank];
    if (static_cast<int>(pool.size()) < count) {
        // Over-scout: the §5.3 adjacency pre-check drops groups whose
        // aggressor slot or profiled rows were remapped by repair.
        RowScoutConfig scout_cfg;
        scout_cfg.bank = bank;
        scout_cfg.rowStart = cfg.scoutRowStart;
        scout_cfg.rowEnd = cfg.scoutRowEnd;
        scout_cfg.layout = RowGroupLayout::parse("R-R");
        scout_cfg.groupCount = count + 3;
        scout_cfg.consistencyChecks = cfg.consistencyChecks;
        scout_cfg.revalidateChecks = cfg.revalidateChecks;
        scout_cfg.excludePhys = burnedByBank[bank];
        RowScout scout(host, mapping, scout_cfg);
        pool.clear();
        for (RowGroup &group : scout.scout()) {
            AggressorSpec probe;
            probe.physRow = group.gapPhysRows().front();
            if (!analyzer.verifyAdjacencyEscalating(group, {probe})) {
                warn(logFmt("dropping group at physical row ",
                            group.basePhysRow,
                            ": aggressor cannot hammer it (remapped?)"));
                continue;
            }
            pool.push_back(std::move(group));
        }
    }
    const int have = std::min<int>(count, static_cast<int>(pool.size()));
    return {pool.begin(), pool.begin() + have};
}

bool
TrrReveng::refillWidePool()
{
    // Six retention-matched rows in a 7-row span are rare; scan the
    // whole bank and fall back to other banks if needed.
    const int banks = host.module().spec().banks;
    for (int attempt = 0; attempt < banks && widePool.empty();
         ++attempt) {
        RowScoutConfig scout_cfg;
        scout_cfg.bank = (cfg.bank + attempt) % banks;
        scout_cfg.rowStart = cfg.scoutRowStart;
        scout_cfg.rowEnd = std::min(cfg.wideScoutRowEnd,
                                    host.module().spec().rowsPerBank);
        scout_cfg.layout = RowGroupLayout::parse("RRR-RRR");
        scout_cfg.groupCount = 1;
        scout_cfg.consistencyChecks = cfg.consistencyChecks;
        scout_cfg.revalidateChecks = cfg.revalidateChecks;
        scout_cfg.excludePhys = burnedByBank[scout_cfg.bank];
        RowScout scout(host, mapping, scout_cfg);
        widePool = scout.scout();
    }
    return !widePool.empty();
}

const RowGroup &
TrrReveng::groupWide()
{
    if (widePool.empty()) {
        refillWidePool();
        UTRR_ASSERT(!widePool.empty(),
                    "row scout found no RRR-RRR group in any bank");
    }
    return widePool.front();
}

void
TrrReveng::warmUp()
{
    // Scout only the R-R pool: identify() consumes it first, so
    // pre-scouting it leaves the device command stream identical to
    // the lazy flow. The wide (RRR-RRR) group must NOT be pre-scouted
    // here — lazily it is scouted *after* the period experiments, and
    // hoisting those commands ahead of them shifts the refresh-engine
    // interleaving enough to flip identifications on some modules.
    UTRR_PROF_SCOPE_SIM("reveng.warm_up", host.clockPtr());
    groupsRR(16, cfg.bank);
}

TrrExperimentConfig
TrrReveng::configFor(const std::vector<RowGroup> &groups,
                     const IterationPlan &plan) const
{
    UTRR_ASSERT(plan.hammersPerGroup.size() == groups.size(),
                "one hammer count per group");
    TrrExperimentConfig config;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        if (plan.hammersPerGroup[g] <= 0)
            continue;
        AggressorSpec aggr;
        aggr.physRow = groups[g].gapPhysRows().front();
        aggr.hammers = plan.hammersPerGroup[g];
        config.aggressors.push_back(aggr);
    }
    config.mode = plan.mode;
    config.rounds = 1;
    config.refsPerRound = 1;
    config.dummyRowCount = plan.dummyRowCount;
    config.dummyHammers = plan.dummyHammers;
    config.dummiesFirst = plan.dummiesFirst;
    config.reset = TrrResetMode::kNone;
    config.skipAggressorInit = !plan.initAggressorsEachIter;
    config.readVotes = plan.readVotes;
    return config;
}

TrrReveng::IterationTrace
TrrReveng::runIterations(const std::vector<RowGroup> &groups,
                         const IterationPlan &plan, int iterations,
                         const IterationPlan *first_iter_plan)
{
    UTRR_PROF_SCOPE_SIM("reveng.iterations", host.clockPtr());
    // One reset up front; iterations themselves must not reset so that
    // REF-count periodicities stay observable.
    std::vector<Row> avoid;
    for (const RowGroup &group : groups) {
        for (const ProfiledRow &row : group.rows)
            avoid.push_back(row.physRow);
        for (Row gap : group.gapPhysRows())
            avoid.push_back(gap);
    }
    analyzer.resetTrrState(groups.front().bank, avoid, 768, 32, 16);

    IterationTrace trace;
    for (int it = 0; it < iterations; ++it) {
        const IterationPlan &active =
            (it == 0 && first_iter_plan != nullptr) ? *first_iter_plan
                                                    : plan;
        TrrExperimentConfig config = configFor(groups, active);
        if (it == 0)
            config.skipAggressorInit = false; // data must exist once
        const TrrMultiResult result =
            analyzer.runExperimentMulti(groups, config);
        std::vector<std::uint64_t> masks;
        for (const TrrExperimentResult &res : result.perGroup)
            masks.push_back(res.refreshedMask());
        trace.masks.push_back(std::move(masks));
    }
    return trace;
}

namespace
{

/**
 * Period estimate from event iterations, aware of TRR deferral: a
 * vendor-C TRR eligible every p REFs may defer when no aggressor is
 * detected at the eligible REF, lengthening some gaps to p+1 — but a
 * gap can never be shorter than p. When the mode lands on a gap whose
 * predecessor is also frequent, the mode is the deferred variant and
 * the shorter gap is the true period. Vendors without deferral produce
 * exact gaps, so the rule never fires for them.
 */
int
periodFromEvents(const std::vector<int> &events)
{
    if (events.size() < 2)
        return 0;
    std::map<int, int> counts;
    for (std::size_t i = 1; i < events.size(); ++i)
        ++counts[events[i] - events[i - 1]];
    int mode = 0;
    int mode_count = 0;
    for (const auto &[gap, count] : counts) {
        if (count > mode_count) {
            mode = gap;
            mode_count = count;
        }
    }
    const auto prev = counts.find(mode - 1);
    if (prev != counts.end() && prev->second * 2 >= mode_count)
        return mode - 1;
    return mode;
}

} // namespace

int
TrrReveng::discoverTrrRefPeriod()
{
    // Paper §6.1.1: with N >= 16 hammered row groups, some group is
    // refreshed at every TRR-capable REF, exposing the TRR-to-REF
    // ratio as the dominant gap between refresh events.
    const bool chaos = chaosActive();

    // One measurement pass over @p iterations iterations, with the
    // per-round sanity checks, two layers. First: one TRR-capable REF
    // serves one of the 16 hammered groups, so no healthy group can
    // see events in nearly every iteration. Second (only under active
    // fault injection): re-validate each group's retention margin after
    // the measurement — the check issues no REF, so a row reading clean
    // after T proves its margin silently vanished (VRT flip,
    // temperature drift) and its events were garbage at whatever rate
    // they fired. Broken groups are dropped from the analysis and
    // their rows burned.
    auto measure = [&](int iterations) {
        std::vector<RowGroup> groups = groupsRR(16, cfg.bank);
        UTRR_ASSERT(!groups.empty(), "no R-R groups available");

        IterationPlan plan;
        plan.hammersPerGroup.assign(groups.size(), 2'000);
        plan.mode = HammerMode::kCascaded;

        const IterationTrace trace =
            runIterations(groups, plan, iterations);

        std::vector<bool> stuck(groups.size(), false);
        std::vector<RowGroup> stuck_groups;
        for (std::size_t g = 0; g < groups.size(); ++g) {
            const auto group_events = trace.eventsOf(g);
            const bool always_on =
                static_cast<int>(group_events.size()) * 10 >
                iterations * 9;
            if (always_on || (chaos && !groupStillHealthy(groups[g]))) {
                stuck[g] = true;
                stuck_groups.push_back(groups[g]);
            }
        }
        if (!stuck_groups.empty())
            quarantineGroups(cfg.bank, stuck_groups);

        std::vector<int> events;
        for (int it = 0; it < iterations; ++it) {
            bool any = false;
            for (std::size_t g = 0; g < groups.size(); ++g)
                any = any || (!stuck[g] && trace.masks[it][g] != 0);
            if (any)
                events.push_back(it);
        }
        return periodFromEvents(events);
    };

    for (int attempt = 0;; ++attempt) {
        int period = measure(cfg.periodIterations);

        // Long periods leave few gap samples (period 17 in 64
        // iterations is only ~3 gaps), so under fault injection a
        // single disturbed gap can hijack the vote. Confirm with an
        // iteration count scaled to the estimate — enough fires for a
        // robust mode — before trusting it.
        if (chaos && period > 1 && cfg.periodIterations < 10 * period) {
            const int confirm_iters = std::min(12 * period, 400);
            warn(logFmt("reveng: period estimate ", period,
                        " rests on few samples — confirming over ",
                        confirm_iters, " iterations"));
            period = measure(confirm_iters);
        }

        // Period 1 (an event every iteration) is as degenerate as no
        // period at all: it means every surviving signal row is broken,
        // not that every REF is TRR-capable.
        if (period > 1 || attempt >= cfg.maxRetries) {
            inform(logFmt("TRR-capable REF period: ", period));
            return period;
        }
        retryWithFreshRows("no dominant TRR-REF period", cfg.bank);
    }
}

int
TrrReveng::discoverNeighborsRefreshed()
{
    // Paper Obs. A2/B2/C3: profile three rows on each side of one
    // aggressor (RRR-RRR) and see which of them a TRR-induced refresh
    // covers. The dominant refresh mask across events belongs to the
    // aggressor (counter/sampler noise produces minority masks).
    for (int attempt = 0;; ++attempt) {
        // By value: the retry paths below burn the pool this reference
        // would point into.
        const RowGroup group = groupWide();

        IterationPlan plan;
        plan.hammersPerGroup = {cfg.aggressorHammers};

        const IterationTrace trace =
            runIterations({group}, plan, cfg.periodIterations);

        // Per-round sanity checks (as in discoverTrrRefPeriod): a row
        // whose bit is set in nearly every iteration, or that fails the
        // no-REF retention re-validation after the measurement, has
        // lost its retention margin and reads "refreshed" regardless of
        // TRR; mask it out so it cannot pose as part of the dominant
        // TRR footprint.
        const int iterations = static_cast<int>(trace.masks.size());
        std::uint64_t stuck_mask = 0;
        RowScoutConfig check_cfg;
        check_cfg.bank = group.bank;
        RowScout checker(host, mapping, check_cfg);
        for (std::size_t r = 0; r < group.rows.size(); ++r) {
            int set_count = 0;
            for (const auto &masks : trace.masks)
                set_count += (masks[0] >> r) & 1 ? 1 : 0;
            const bool always_on = set_count * 10 > iterations * 9;
            if (always_on ||
                (chaosActive() &&
                 !checker.validateRetention(group.rows[r].logicalRow,
                                            group.retention, 1)))
                stuck_mask |= std::uint64_t{1} << r;
        }
        if (stuck_mask != 0) {
            if (MetricsRegistry *m = host.attachedMetrics())
                m->counter("reveng.stuck_rows")
                    .inc(static_cast<std::uint64_t>(
                        std::popcount(stuck_mask)));
            // A broken row may itself be a true victim — masking it out
            // would silently undercount the TRR footprint. Prefer a
            // fresh group; fall back to masked analysis only when the
            // retry budget or the supply of fresh groups is spent.
            if (attempt < cfg.maxRetries) {
                retryWithFreshWideGroup(
                    "broken row in the neighbour analysis");
                if (refillWidePool())
                    continue;
            }
            warn(logFmt("reveng: masking ", std::popcount(stuck_mask),
                        " broken row(s) out of the neighbour analysis "
                        "(no retry budget or fresh groups left)"));
        }

        std::map<std::uint64_t, int> mask_counts;
        for (const auto &masks : trace.masks) {
            if ((masks[0] & ~stuck_mask) != 0)
                ++mask_counts[masks[0] & ~stuck_mask];
        }
        std::uint64_t best_mask = 0;
        int best_count = 0;
        for (const auto &[mask, count] : mask_counts) {
            if (count > best_count) {
                best_count = count;
                best_mask = mask;
            }
        }
        const int neighbours = std::popcount(best_mask);
        if (neighbours > 0 || attempt >= cfg.maxRetries) {
            inform(logFmt("neighbours refreshed per TRR refresh: ",
                          neighbours));
            return neighbours;
        }
        retryWithFreshWideGroup("no TRR refresh mask observed");
        if (!refillWidePool()) {
            warn("reveng: no fresh RRR-RRR group available — giving "
                 "up on the neighbour analysis");
            return neighbours;
        }
    }
}

DetectionType
TrrReveng::discoverDetectionType()
{
    DetectionType type = DetectionType::kUnknown;
    for (int attempt = 0;; ++attempt) {
        type = discoverDetectionTypeOnce();
        if (type != DetectionType::kUnknown ||
            attempt >= cfg.maxRetries) {
            return type;
        }
        retryWithFreshRows("ambiguous detection type", cfg.bank);
    }
}

DetectionType
TrrReveng::discoverDetectionTypeOnce()
{
    std::vector<RowGroup> groups = groupsRR(2, cfg.bank);
    UTRR_ASSERT(groups.size() == 2, "need two R-R groups");

    // Test (a) — multi-aggressor state with traversal: hammer the
    // first aggressor once, then give it ZERO activations (not even
    // re-initialization). A counter table retains the entry and its
    // traversal (TREF_b) keeps detecting it periodically (Obs. A7); a
    // sampler or detection window can never detect a row that is not
    // activated again.
    {
        IterationPlan first;
        first.hammersPerGroup = {2'000, cfg.aggressorHammers};
        first.mode = HammerMode::kCascaded;
        IterationPlan rest = first;
        rest.hammersPerGroup = {0, cfg.aggressorHammers};
        rest.initAggressorsEachIter = false;

        const IterationTrace trace =
            runIterations(groups, rest, 900, &first);
        int late_events = 0;
        for (int it : trace.eventsOf(0)) {
            if (it >= 2)
                ++late_events;
        }
        if (late_events >= 2) {
            inform("detection type: counter-based");
            return DetectionType::kCounterBased;
        }
    }

    // Test (b) — order bias with equal hammer counts: a sampler favours
    // the aggressor hammered last; a post-TRR detection window favours
    // the one hammered first.
    {
        IterationPlan plan;
        plan.hammersPerGroup = {2'000, 2'000};
        plan.mode = HammerMode::kCascaded;
        const IterationTrace trace = runIterations(groups, plan, 160);
        const auto e0 = trace.eventsOf(0).size();
        const auto e1 = trace.eventsOf(1).size();
        if (e0 + e1 == 0) {
            warn("detection-type probe saw no TRR refreshes");
            return DetectionType::kUnknown;
        }
        const double share0 = static_cast<double>(e0) /
            static_cast<double>(e0 + e1);
        if (share0 <= 0.3) {
            inform("detection type: sampling-based");
            return DetectionType::kSamplingBased;
        }
        if (share0 >= 0.7) {
            inform("detection type: window-based");
            return DetectionType::kWindowBased;
        }
        warn(logFmt("ambiguous detection-type share ", share0));
        return DetectionType::kUnknown;
    }
}

int
TrrReveng::discoverAggressorCapacity()
{
    // Paper §6.1.2: grow the number of simultaneously hammered
    // aggressors until some group stops ever being refreshed.
    int last_pass = 1;
    for (int n : cfg.capacityProbes) {
        std::vector<RowGroup> groups = groupsRR(n, cfg.bank);
        if (static_cast<int>(groups.size()) < n) {
            warn(logFmt("capacity probe stopped at N=", n,
                        ": only ", groups.size(), " groups available"));
            break;
        }
        IterationPlan plan;
        plan.hammersPerGroup.assign(groups.size(), 1'000);
        plan.mode = HammerMode::kCascaded;
        // With N tracked aggressors, each one is only detected every
        // ~N TRR-refresh rounds; scale the run so a covered group sees
        // ~10 expected events and a zero count really means starvation.
        const int iterations = std::max(cfg.capacityIterations, 90 * n);
        const IterationTrace trace =
            runIterations(groups, plan, iterations);
        // Starvation shows as a group receiving far less than its fair
        // share of refreshes (a starved aggressor may still catch a
        // stray detection during the initial transient).
        std::vector<int> event_counts;
        for (std::size_t g = 0; g < groups.size(); ++g) {
            event_counts.push_back(
                static_cast<int>(trace.eventsOf(g).size()));
        }
        std::vector<int> sorted = event_counts;
        std::sort(sorted.begin(), sorted.end());
        const int median = sorted[sorted.size() / 2];
        bool all_covered = true;
        for (int events : event_counts) {
            if (events < std::max(1, median / 3)) {
                all_covered = false;
                break;
            }
        }
        inform(logFmt("capacity probe N=", n, ": ",
                      all_covered ? "all groups refreshed"
                                  : "starving group found"));
        if (!all_covered)
            break;
        last_pass = n;
    }
    return last_pass;
}

bool
TrrReveng::discoverEvictMinPolicy()
{
    // Paper Obs. A5: with 17 aggressors, the one hammered least must be
    // the standing eviction victim and never get detected.
    std::vector<RowGroup> groups = groupsRR(17, cfg.bank);
    if (groups.size() < 17) {
        warn("evict-min probe needs 17 groups; skipping");
        return false;
    }
    IterationPlan plan;
    plan.hammersPerGroup.assign(groups.size(), 100);
    plan.hammersPerGroup[0] = 50; // the low-count aggressor, first
    plan.mode = HammerMode::kCascaded;
    const IterationTrace trace = runIterations(groups, plan, 300);
    return trace.eventsOf(0).empty();
}

bool
TrrReveng::discoverCounterResetOnDetect()
{
    // Paper Obs. A6: with counters reset on detection, two steadily
    // hammered aggressors alternate in TREF_a detections, so the
    // lighter one receives a substantial share of the refreshes.
    std::vector<RowGroup> groups = groupsRR(2, cfg.bank);
    UTRR_ASSERT(groups.size() == 2, "need two R-R groups");
    IterationPlan plan;
    plan.hammersPerGroup = {2'000, 3'000};
    plan.mode = HammerMode::kCascaded;
    const IterationTrace trace = runIterations(groups, plan, 400);
    const auto e0 = trace.eventsOf(0).size();
    const auto e1 = trace.eventsOf(1).size();
    if (e0 + e1 == 0)
        return false;
    const double share0 =
        static_cast<double>(e0) / static_cast<double>(e0 + e1);
    return share0 >= 0.25;
}

bool
TrrReveng::discoverTablePersistence()
{
    // Paper Obs. A7: hammer once, then watch: table entries keep being
    // detected (via the traversal) long after hammering stops.
    std::vector<RowGroup> groups = groupsRR(1, cfg.bank);
    UTRR_ASSERT(!groups.empty(), "need one R-R group");
    IterationPlan first;
    first.hammersPerGroup = {cfg.aggressorHammers};
    IterationPlan rest;
    rest.hammersPerGroup = {0};

    const int iterations = 510;
    const IterationTrace trace =
        runIterations(groups, rest, iterations, &first);
    for (int it : trace.eventsOf(0)) {
        if (it >= 2 * iterations / 3)
            return true;
    }
    return false;
}

bool
TrrReveng::discoverSamplerRetention()
{
    // Paper Obs. B5: a TRR-induced refresh does not clear the sampled
    // row. Observing *two* refresh events from a single hammer burst
    // proves it: a cleared-on-use sampler could only produce one.
    // The victims' own init/read ACTs eventually re-seed the sampler,
    // so the window is short; several independent trials make the
    // probe robust.
    std::vector<RowGroup> groups = groupsRR(1, cfg.bank);
    UTRR_ASSERT(!groups.empty(), "need one R-R group");
    IterationPlan first;
    first.hammersPerGroup = {cfg.aggressorHammers};
    IterationPlan rest;
    rest.hammersPerGroup = {0};
    for (int trial = 0; trial < 6; ++trial) {
        const IterationTrace trace =
            runIterations(groups, rest, 16, &first);
        if (trace.eventsOf(0).size() >= 2)
            return true;
    }
    return false;
}

int
TrrReveng::discoverDetectionWindow()
{
    // Paper Obs. C2: insert a growing burst of ACTs to a first
    // aggressor before hammering a second one. Once the burst covers
    // the whole detection window, the second aggressor becomes
    // invisible to TRR. Only meaningful for window-based detection —
    // discoverAll() gates on the detection type.
    std::vector<RowGroup> groups = groupsRR(2, cfg.bank);
    UTRR_ASSERT(groups.size() == 2, "need two R-R groups");

    double baseline_share = -1.0;
    for (int burst : cfg.windowProbes) {
        IterationPlan plan;
        plan.hammersPerGroup = {burst, 2'000};
        plan.mode = HammerMode::kCascaded;
        plan.initAggressorsEachIter = false;
        const IterationTrace trace = runIterations(groups, plan, 170);
        const auto e0 = trace.eventsOf(0).size();
        const auto e1 = trace.eventsOf(1).size();
        const double share1 = e0 + e1 == 0
            ? 0.0
            : static_cast<double>(e1) / static_cast<double>(e0 + e1);
        inform(logFmt("window probe burst=", burst, ": late-aggressor ",
                      "share ", share1));
        if (baseline_share < 0.0) {
            baseline_share = share1;
            if (baseline_share < 0.3)
                return 0; // no early-ACT advantage: not window-based
            continue;
        }
        if (share1 <= 0.12)
            return burst;
    }
    return 0;
}

bool
TrrReveng::discoverPerBankScope()
{
    // Paper Obs. A4/B4: hammer one aggressor in each of two banks; if
    // detection state is chip-wide, only the most recently hammered
    // bank's victims ever get refreshed.
    std::vector<RowGroup> groups_a = groupsRR(1, cfg.bank);
    UTRR_ASSERT(!groups_a.empty(), "need a group in the first bank");
    const RowGroup &group_a = groups_a.front();
    const Time t = group_a.retention;

    // The second bank's group must share the first group's retention
    // time so a single experiment timeline serves both.
    RowScoutConfig scout_cfg;
    scout_cfg.bank = cfg.secondBank;
    scout_cfg.rowStart = cfg.scoutRowStart;
    scout_cfg.rowEnd = cfg.scoutRowEnd;
    scout_cfg.layout = RowGroupLayout::parse("R-R");
    scout_cfg.groupCount = 1;
    scout_cfg.consistencyChecks = cfg.consistencyChecks;
    scout_cfg.initialT = t;
    scout_cfg.stepT = 50 * kNsPerMs;
    scout_cfg.maxT = t;
    RowScout scout(host, mapping, scout_cfg);
    const std::vector<RowGroup> groups_b = scout.scout();
    if (groups_b.empty()) {
        warn("per-bank probe: no matching-T group in second bank");
        return true;
    }
    const RowGroup &group_b = groups_b.front();

    auto avoid_of = [](const RowGroup &group) {
        std::vector<Row> avoid;
        for (const ProfiledRow &row : group.rows)
            avoid.push_back(row.physRow);
        for (Row gap : group.gapPhysRows())
            avoid.push_back(gap);
        return avoid;
    };
    analyzer.resetTrrState(group_a.bank, avoid_of(group_a), 384, 32, 16);
    analyzer.resetTrrState(group_b.bank, avoid_of(group_b), 384, 32, 16);

    const Row aggr_a =
        mapping.toLogical(group_a.gapPhysRows().front());
    const Row aggr_b =
        mapping.toLogical(group_b.gapPhysRows().front());

    int events_a = 0;
    int events_b = 0;
    for (int it = 0; it < 72; ++it) {
        host.writeRow(group_a.bank, aggr_a, DataPattern::allZeros());
        host.writeRow(group_b.bank, aggr_b, DataPattern::allZeros());
        for (const ProfiledRow &row : group_a.rows)
            host.writeRow(row.bank, row.logicalRow,
                          DataPattern::allOnes());
        for (const ProfiledRow &row : group_b.rows)
            host.writeRow(row.bank, row.logicalRow,
                          DataPattern::allOnes());
        host.wait(t / 2);
        // Bank A first, bank B last: a chip-wide sampler ends up
        // holding the bank-B aggressor.
        host.hammer(group_a.bank, aggr_a, 3'000);
        host.hammer(group_b.bank, aggr_b, 3'000);
        host.ref();
        host.wait(t / 2);

        bool hit_a = false;
        for (const ProfiledRow &row : group_a.rows) {
            if (host.readRow(row.bank, row.logicalRow)
                    .countFlipsVs(DataPattern::allOnes(),
                                  row.logicalRow) == 0) {
                hit_a = true;
            }
        }
        bool hit_b = false;
        for (const ProfiledRow &row : group_b.rows) {
            if (host.readRow(row.bank, row.logicalRow)
                    .countFlipsVs(DataPattern::allOnes(),
                                  row.logicalRow) == 0) {
                hit_b = true;
            }
        }
        events_a += hit_a ? 1 : 0;
        events_b += hit_b ? 1 : 0;
    }
    inform(logFmt("per-bank probe: bank-A events ", events_a,
                  ", bank-B events ", events_b));
    return events_a >= 1;
}

int
TrrReveng::discoverRegularRefreshPeriod()
{
    // Paper Obs. A8: with no hammering at all, a profiled row is only
    // ever refreshed by the periodic sweep; the gap (in REF commands)
    // between refresh events is the internal regular-refresh period.
    // A single-R layout keeps TRR-induced refreshes of the profiled
    // row's own neighbourhood out of the picture.
    RowScoutConfig scout_cfg;
    scout_cfg.bank = cfg.bank;
    scout_cfg.rowStart = cfg.scoutRowStart;
    scout_cfg.rowEnd = cfg.scoutRowEnd;
    scout_cfg.layout = RowGroupLayout::parse("R");
    scout_cfg.groupCount = 1;
    // This analysis watches a single row over thousands of iterations;
    // a VRT row that sneaks past a reduced validation budget would fake
    // refresh events, so insist on a strong consistency check here.
    scout_cfg.consistencyChecks = std::max(cfg.consistencyChecks, 250);
    RowScout scout(host, mapping, scout_cfg);
    const std::vector<RowGroup> groups = scout.scout();
    UTRR_ASSERT(!groups.empty(), "no single-R group found");
    const RowGroup &group = groups.front();

    TrrExperimentConfig config;
    config.reset = TrrResetMode::kNone;
    config.refsPerRound = 1;

    std::vector<int> events;
    for (int it = 0; it < cfg.regularRefreshMaxIters; ++it) {
        const TrrExperimentResult result =
            analyzer.runExperiment(group, config);
        if (result.anyRefreshed())
            events.push_back(it);
        if (events.size() >= 4)
            break;
    }
    if (events.size() < 2) {
        warn("regular-refresh probe saw fewer than two events");
        return 0;
    }
    const int period = IterationTrace::dominantPeriod(events);
    inform(logFmt("regular-refresh period: ", period, " REFs"));
    return period;
}

TrrReveng::IdentifyOutcome
TrrReveng::identify()
{
    UTRR_PROF_SCOPE_SIM("reveng.identify", host.clockPtr());
    if (cfg.watchdogBudgetNs > 0)
        host.setWatchdogBudget(cfg.watchdogBudgetNs);
    IdentifyOutcome outcome;
    try {
        outcome.trrToRefPeriod = discoverTrrRefPeriod();
        outcome.neighborsRefreshed = discoverNeighborsRefreshed();
    } catch (...) {
        host.clearWatchdog();
        throw;
    }
    host.clearWatchdog();
    outcome.freshRowRetries = freshRowRetries;
    return outcome;
}

TrrProfile
TrrReveng::discoverAll(bool include_slow)
{
    UTRR_PROF_SCOPE_SIM("reveng.discover_all", host.clockPtr());
    if (cfg.watchdogBudgetNs > 0)
        host.setWatchdogBudget(cfg.watchdogBudgetNs);
    TrrProfile profile;
    profile.trrToRefPeriod = discoverTrrRefPeriod();
    profile.neighborsRefreshed = discoverNeighborsRefreshed();
    profile.detection = discoverDetectionType();

    switch (profile.detection) {
      case DetectionType::kCounterBased:
        profile.countersResetOnDetect = discoverCounterResetOnDetect();
        profile.tableEntriesPersist = discoverTablePersistence();
        if (include_slow)
            profile.evictsMinCounter = discoverEvictMinPolicy();
        break;
      case DetectionType::kSamplingBased:
        profile.samplerRetained = discoverSamplerRetention();
        break;
      case DetectionType::kWindowBased:
        profile.detectionWindowActs = discoverDetectionWindow();
        break;
      case DetectionType::kUnknown:
        break;
    }

    if (include_slow) {
        profile.aggressorCapacity = discoverAggressorCapacity();
        profile.perBank = discoverPerBankScope();
        profile.regularRefreshPeriodRefs = discoverRegularRefreshPeriod();
    }
    return profile;
}

} // namespace utrr
