#include "core/trr_analyzer.hh"

#include <algorithm>

#include "common/logging.hh"
#include "fault/fault_injector.hh"
#include "obs/profiler.hh"

namespace utrr
{

bool
TrrExperimentResult::anyRefreshed() const
{
    return std::any_of(refreshed.begin(), refreshed.end(),
                       [](bool r) { return r; });
}

std::uint64_t
TrrExperimentResult::refreshedMask() const
{
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < refreshed.size() && i < 64; ++i) {
        if (refreshed[i])
            mask |= 1ULL << i;
    }
    return mask;
}

TrrAnalyzer::TrrAnalyzer(SoftMcHost &host, DiscoveredMapping mapping)
    : host(host), mapping(std::move(mapping))
{
}

std::vector<Row>
TrrAnalyzer::pickDummyRows(Bank bank, const std::vector<Row> &avoid_phys,
                           int count) const
{
    // Dummy rows come from the same bank (TRR may be bank-scoped) and
    // must sit >= 100 physical rows away from every avoided row so that
    // hammering them cannot disturb the experiment (paper §5.2).
    constexpr Row kMinDistance = 100;
    UTRR_ASSERT(bank >= 0 && bank < host.module().spec().banks,
                "bad bank");
    const Row rows = host.module().spec().rowsPerBank;

    std::vector<Row> dummies;
    Row candidate_phys = 0;
    // Start scanning from a position past the densest avoided cluster.
    for (Row phys : avoid_phys)
        candidate_phys = std::max(candidate_phys, phys);
    candidate_phys += kMinDistance;

    int guard = 0;
    while (static_cast<int>(dummies.size()) < count &&
           guard < 4 * count + 1'000) {
        ++guard;
        Row phys = candidate_phys % rows;
        candidate_phys += 4; // spacing so dummies don't disturb each other
        bool ok = true;
        for (Row avoided : avoid_phys) {
            if (std::abs(phys - avoided) < kMinDistance) {
                ok = false;
                break;
            }
        }
        if (!ok)
            continue;
        const Row logical = mapping.toLogical(phys);
        if (logical < 0 || logical >= rows ||
            mapping.isAnomalous(logical)) {
            continue;
        }
        dummies.push_back(logical);
    }
    UTRR_ASSERT(static_cast<int>(dummies.size()) == count,
                "could not place the requested dummy rows");
    return dummies;
}

void
TrrAnalyzer::resetTrrState(Bank bank, const std::vector<Row> &avoid_phys,
                           int refs, int dummies, int hammers_per_refi)
{
    ProfSpan span("trr_analyzer.reset_trr_state", host.clockPtr(),
                  &host.trace());
    const std::vector<Row> dummy_rows =
        pickDummyRows(bank, avoid_phys, dummies);
    // Each REF slot's dummy ACTs issue as one round of an interleaved
    // burst (one ACT per listed row, in list order): the same ACTs at
    // the same times as one-ACT hammers, at one call per slot.
    std::vector<std::pair<Bank, Row>> slot(
        static_cast<std::size_t>(std::max(hammers_per_refi, 0)));
    const std::vector<int> once(slot.size(), 1);
    std::size_t next = 0;
    for (int i = 0; i < refs; ++i) {
        for (auto &aggressor : slot) {
            aggressor = {bank, dummy_rows[next]};
            next = (next + 1) % dummy_rows.size();
        }
        host.hammerInterleaved(slot, once);
        host.ref();
        // Pad to the default REF rate.
        const Time used = static_cast<Time>(hammers_per_refi) *
                host.timing().hammerCycle() +
            host.timing().tRFC;
        if (used < host.timing().tREFI)
            host.wait(host.timing().tREFI - used);
    }
}

std::vector<Row>
TrrAnalyzer::avoidListOf(
    const RowGroup &group,
    const std::vector<AggressorSpec> &aggressors) const
{
    std::vector<Row> avoid;
    for (const ProfiledRow &row : group.rows)
        avoid.push_back(row.physRow);
    for (const AggressorSpec &aggr : aggressors)
        avoid.push_back(aggr.physRow);
    return avoid;
}

TrrExperimentResult
TrrAnalyzer::runExperiment(const RowGroup &group,
                           const TrrExperimentConfig &config)
{
    TrrMultiResult multi = runExperimentMulti({group}, config);
    return std::move(multi.perGroup.front());
}

TrrMultiResult
TrrAnalyzer::runExperimentMulti(const std::vector<RowGroup> &groups,
                                const TrrExperimentConfig &config)
{
    UTRR_ASSERT(!groups.empty(), "need at least one row group");
    const Bank bank = groups.front().bank;
    const Time retention = groups.front().retention;

    ProfSpan span("trr_analyzer.experiment", host.clockPtr(),
                  &host.trace());
    const Time sim_begin = host.now();

    std::vector<Row> avoid;
    for (const RowGroup &group : groups) {
        UTRR_ASSERT(group.bank == bank,
                    "multi-group experiments are single-bank");
        UTRR_ASSERT(group.retention == retention,
                    "groups must share one retention time");
        for (const ProfiledRow &row : group.rows)
            avoid.push_back(row.physRow);
    }
    for (const AggressorSpec &aggr : config.aggressors)
        avoid.push_back(aggr.physRow);

    // Step 0 (optional): reset TRR internal state (Requirement 4).
    if (config.reset == TrrResetMode::kDummyHammer) {
        resetTrrState(bank, avoid, config.resetRefs, config.resetDummies,
                      config.resetHammersPerRefi);
    }

    // Step 1: initialize aggressor and victim rows.
    {
        ProfSpan init_span("trr_analyzer.init_rows", host.clockPtr(),
                           &host.trace());
        auto init_aggressors = [&] {
            if (config.skipAggressorInit)
                return;
            for (const AggressorSpec &aggr : config.aggressors) {
                host.writeRow(bank, mapping.toLogical(aggr.physRow),
                              config.aggressorPattern);
            }
        };
        auto init_victims = [&] {
            for (const RowGroup &group : groups) {
                for (const ProfiledRow &row : group.rows) {
                    host.writeRow(bank, row.logicalRow,
                                  config.victimPattern);
                }
            }
        };
        if (config.initAggressorsFirst) {
            init_aggressors();
            init_victims();
        } else {
            init_victims();
            init_aggressors();
        }
    }

    // Step 2: let the victims decay for T/2.
    host.wait(retention / 2);

    // Step 3: hammer rounds, each ending in REF commands.
    std::vector<std::pair<Bank, Row>> aggr_rows;
    std::vector<int> aggr_counts;
    for (const AggressorSpec &aggr : config.aggressors) {
        aggr_rows.emplace_back(bank, mapping.toLogical(aggr.physRow));
        aggr_counts.push_back(aggr.hammers);
    }
    std::vector<Row> dummy_rows;
    if (config.dummyRowCount > 0) {
        dummy_rows =
            pickDummyRows(bank, avoid, config.dummyRowCount);
    }
    auto hammer_dummies = [&] {
        for (Row dummy : dummy_rows)
            host.hammer(bank, dummy, config.dummyHammers);
    };

    TrrMultiResult multi;
    multi.refsBefore = host.refCommandCount();
    {
        ProfSpan hammer_span("trr_analyzer.hammer_rounds",
                             host.clockPtr(), &host.trace());
        for (int round = 0; round < config.rounds; ++round) {
            if (config.dummiesFirst)
                hammer_dummies();
            if (!aggr_rows.empty()) {
                if (config.mode == HammerMode::kInterleaved)
                    host.hammerInterleaved(aggr_rows, aggr_counts);
                else
                    host.hammerCascaded(aggr_rows, aggr_counts);
            }
            if (!config.dummiesFirst)
                hammer_dummies();
            host.refBurst(config.refsPerRound);
            multi.rounds.push_back({host.refCommandCount(),
                                    host.actCount(), host.now()});
        }
    }
    multi.refsAfter = host.refCommandCount();

    // Step 4: second half of the retention window.
    host.wait(retention / 2);

    // Step 5: read the victims back. Under active fault injection each
    // row is read several times and the verdict taken by majority
    // (quorum voting): a transient read-back corruption then cannot
    // flip the refreshed/not-refreshed signal the whole methodology
    // rests on. Repeated reads are side-effect-free — the first ACT of
    // the read-back already committed all due retention flips.
    FaultInjector *injector = host.faultInjector();
    const int votes =
        injector != nullptr && injector->enabled() && config.readVotes > 1
            ? config.readVotes
            : 1;
    {
        ProfSpan readback_span("trr_analyzer.readback", host.clockPtr(),
                               &host.trace());
        for (const RowGroup &group : groups) {
            TrrExperimentResult result;
            result.refsBefore = multi.refsBefore;
            result.refsAfter = multi.refsAfter;
            for (const ProfiledRow &row : group.rows) {
                int zero_votes = 0;
                std::vector<int> counts;
                counts.reserve(static_cast<std::size_t>(votes));
                for (int v = 0; v < votes; ++v) {
                    const RowReadout readout =
                        host.readRow(bank, row.logicalRow);
                    const int flips = readout.countFlipsVs(
                        config.victimPattern, row.logicalRow);
                    counts.push_back(flips);
                    if (flips == 0)
                        ++zero_votes;
                }
                const bool refreshed = 2 * zero_votes > votes;
                // Report the median flip count so one corrupted read
                // cannot skew the magnitude either.
                std::sort(counts.begin(), counts.end());
                result.flips.push_back(
                    counts[counts.size() / 2]);
                result.refreshed.push_back(refreshed);
                if (MetricsRegistry *m = host.attachedMetrics();
                    m != nullptr && votes > 1) {
                    m->counter("trr_analyzer.read_votes")
                        .inc(static_cast<std::uint64_t>(votes));
                    const bool unanimous =
                        zero_votes == 0 || zero_votes == votes;
                    if (!unanimous)
                        m->counter("trr_analyzer.vote_overrides").inc();
                }
            }
            multi.perGroup.push_back(std::move(result));
        }
    }
    multi.simNs = host.now() - sim_begin;
    return multi;
}

bool
TrrAnalyzer::verifyAdjacency(const RowGroup &group,
                             const std::vector<AggressorSpec> &aggressors,
                             int hammers)
{
    const Bank bank = group.bank;
    for (const ProfiledRow &row : group.rows)
        host.writeRow(bank, row.logicalRow, DataPattern::allOnes());

    std::vector<std::pair<Bank, Row>> rows;
    std::vector<int> counts;
    for (const AggressorSpec &aggr : aggressors) {
        host.writeRow(bank, mapping.toLogical(aggr.physRow),
                      DataPattern::allZeros());
        rows.emplace_back(bank, mapping.toLogical(aggr.physRow));
        counts.push_back(hammers);
    }
    host.hammerInterleaved(rows, counts);

    // Each aggressor must flip at least one profiled row in its
    // physical neighbourhood; none flipping means the row addresses do
    // not land where assumed (a remapped aggressor or victim, §5.3).
    // The criterion is per-aggressor (not per-victim) so it also holds
    // for paired-row organizations, where only the pair row couples.
    std::vector<int> flips;
    for (const ProfiledRow &row : group.rows) {
        const RowReadout readout = host.readRow(bank, row.logicalRow);
        flips.push_back(readout.countFlipsVs(DataPattern::allOnes(),
                                             row.logicalRow));
    }
    for (const AggressorSpec &aggr : aggressors) {
        bool hit = false;
        for (std::size_t i = 0; i < group.rows.size(); ++i) {
            if (std::abs(group.rows[i].physRow - aggr.physRow) <= 2 &&
                flips[i] > 0) {
                hit = true;
                break;
            }
        }
        if (!hit)
            return false;
    }
    return true;
}

bool
TrrAnalyzer::verifyAdjacencyEscalating(
    const RowGroup &group, const std::vector<AggressorSpec> &aggressors,
    int max_hammers)
{
    for (int hammers = 300'000; hammers <= max_hammers; hammers *= 2) {
        if (verifyAdjacency(group, aggressors, hammers))
            return true;
    }
    return false;
}

} // namespace utrr
