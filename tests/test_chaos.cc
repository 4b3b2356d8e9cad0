/**
 * @file
 * Self-healing pipeline tests: Row Scout eviction/replacement under a
 * mid-experiment VRT flip, TRR Analyzer quorum voting under read noise,
 * reveng fresh-row retries, the reveng-level watchdog, and end-to-end
 * identification of representative modules under the documented chaos
 * fault rates.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/reveng.hh"
#include "core/row_scout.hh"
#include "core/trr_analyzer.hh"
#include "dram/module.hh"
#include "fault/fault_injector.hh"
#include "softmc/host.hh"

namespace utrr
{
namespace
{

ModuleSpec
smallSpec(TrrVersion trr)
{
    ModuleSpec spec = *findModuleSpec("A5");
    spec.trr = trr;
    spec.rowsPerBank = 4 * 1024;
    spec.banks = 1;
    spec.remapsPerBank = 0;
    spec.scramble = RowScramble::kSequential;
    return spec;
}

bool
groupsContainPhys(const std::vector<RowGroup> &groups, Row phys)
{
    for (const RowGroup &group : groups)
        for (const ProfiledRow &row : group.rows)
            if (row.physRow == phys)
                return true;
    return false;
}

TEST(ChaosRowScout, EvictsVrtFlippedRowAndReplacesGroup)
{
    DramModule module(smallSpec(TrrVersion::kNone), 41);
    SoftMcHost host(module);
    MetricsRegistry metrics;
    host.attachMetrics(&metrics);
    const auto mapping =
        DiscoveredMapping::identity(module.spec().rowsPerBank);

    RowScoutConfig cfg;
    cfg.rowEnd = 2'048;
    cfg.layout = RowGroupLayout::parse("R-R");
    cfg.groupCount = 2;
    cfg.consistencyChecks = 10;
    cfg.revalidateChecks = 4;
    RowScout scout(host, mapping, cfg);
    std::vector<RowGroup> groups = scout.scout();
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(scout.evictionsPerformed(), 0u);

    // A VRT mode flip after acceptance: the row's retention jumps 3x,
    // so it no longer fails after its profiled T — the retention side
    // channel would silently misread "no flips" as "TRR refreshed it".
    const Row sabotaged = groups.front().rows.front().physRow;
    module.scaleRowRetention(0, sabotaged, 3.0, host.now());

    groups = scout.revalidateAndReplace(std::move(groups));
    EXPECT_EQ(scout.evictionsPerformed(), 1u);
    EXPECT_GE(scout.replacementsFound(), 1u);
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_FALSE(groupsContainPhys(groups, sabotaged));
    EXPECT_EQ(metrics.counter("row_scout.evictions").value, 1u);
    EXPECT_GE(metrics.counter("row_scout.replacements").value, 1u);
    // Replacements share the evicted group's retention time.
    EXPECT_EQ(groups.front().retention, groups.back().retention);
}

TEST(ChaosTrrAnalyzer, QuorumVotingAbsorbsReadNoise)
{
    DramModule module(smallSpec(TrrVersion::kNone), 43);
    SoftMcHost host(module);
    MetricsRegistry metrics;
    host.attachMetrics(&metrics);
    const auto mapping =
        DiscoveredMapping::identity(module.spec().rowsPerBank);

    RowScoutConfig scout_cfg;
    scout_cfg.rowEnd = 2'048;
    scout_cfg.layout = RowGroupLayout::parse("R-R");
    scout_cfg.groupCount = 1;
    scout_cfg.consistencyChecks = 10;
    RowScout scout(host, mapping, scout_cfg);
    const auto groups = scout.scout();
    ASSERT_FALSE(groups.empty());

    // Every readout is corrupted by one bit; with no TRR and no refresh
    // the profiled rows MUST read back flipped, and without quorum
    // voting a noise bit landing on a flipped cell could cancel it.
    FaultConfig fault_cfg;
    fault_cfg.readNoiseChancePerRead = 1.0;
    fault_cfg.readNoiseMaxBits = 1;
    FaultInjector injector(fault_cfg, 7);
    host.attachFaultInjector(&injector);

    TrrAnalyzer analyzer(host, mapping);
    TrrExperimentConfig cfg;
    cfg.aggressors = {{groups.front().gapPhysRows().front(), 3'000}};
    cfg.reset = TrrResetMode::kNone;
    const auto result = analyzer.runExperiment(groups.front(), cfg);

    EXPECT_FALSE(result.anyRefreshed());
    EXPECT_GT(result.flips[0], 0);
    EXPECT_GT(result.flips[1], 0);
    // Two profiled rows, three votes each.
    EXPECT_EQ(metrics.counter("trr_analyzer.read_votes").value, 6u);
    EXPECT_GT(injector.stats().noiseBits, 0u);
}

TEST(ChaosReveng, RetriesWithFreshRowsOnDegenerateResult)
{
    // A module with TRR disabled never shows a refresh event, so period
    // discovery is degenerate by construction; the driver must burn the
    // pool and retry with fresh rows exactly maxRetries times.
    DramModule module(smallSpec(TrrVersion::kNone), 47);
    SoftMcHost host(module);
    MetricsRegistry metrics;
    host.attachMetrics(&metrics);
    const DiscoveredMapping mapping =
        DiscoveredMapping::identity(module.spec().rowsPerBank);

    TrrRevengConfig cfg;
    cfg.scoutRowEnd = 2'048;
    cfg.consistencyChecks = 10;
    cfg.periodIterations = 12;
    cfg.maxRetries = 2;
    TrrReveng reveng(host, mapping, cfg);

    EXPECT_EQ(reveng.discoverTrrRefPeriod(), 0);
    EXPECT_EQ(reveng.freshRowRetriesPerformed(), 2u);
    EXPECT_EQ(metrics.counter("reveng.fresh_row_retries").value, 2u);
}

TEST(ChaosReveng, WatchdogBudgetFailsPathologicalConfigCleanly)
{
    DramModule module(smallSpec(TrrVersion::kATrr1), 53);
    SoftMcHost host(module);
    const DiscoveredMapping mapping =
        DiscoveredMapping::identity(module.spec().rowsPerBank);

    TrrRevengConfig cfg;
    cfg.scoutRowEnd = 2'048;
    cfg.consistencyChecks = 10;
    // 1 ms of simulated time cannot even cover one retention wait: the
    // run must end in a structured timeout, not spin or abort.
    cfg.watchdogBudgetNs = 1 * kNsPerMs;
    TrrReveng reveng(host, mapping, cfg);

    try {
        reveng.discoverAll(false);
        FAIL() << "watchdog did not fire";
    } catch (const WatchdogTimeout &e) {
        EXPECT_EQ(e.budgetNs, 1 * kNsPerMs);
        EXPECT_GT(e.nowNs, e.deadlineNs);
    }
    host.clearWatchdog();
}

struct ChaosCase
{
    const char *module;
};

/** Keeps the pointer out of the test names gtest prints (and ctest
 *  copies into its own). */
void
PrintTo(const ChaosCase &c, std::ostream *os)
{
    *os << c.module;
}

class ChaosIdentification : public testing::TestWithParam<ChaosCase>
{
};

/**
 * End-to-end acceptance: under the documented default chaos rates the
 * pipeline still derives the correct TRR-to-REF ratio and neighbour
 * count (one representative module per vendor; the full 45-module sweep
 * is `reverse_engineer --chaos`).
 */
TEST_P(ChaosIdentification, PeriodAndNeighboursSurviveInjection)
{
    const ModuleSpec spec = *findModuleSpec(GetParam().module);
    DramModule module(spec, 2021);
    SoftMcHost host(module);
    MetricsRegistry metrics;
    host.attachMetrics(&metrics);
    FaultInjector injector(FaultConfig::chaosDefaults(), 1);
    host.attachFaultInjector(&injector);

    const DiscoveredMapping mapping(spec.scramble, spec.rowsPerBank);
    TrrRevengConfig cfg;
    cfg.scoutRowEnd = 6 * 1024;
    cfg.consistencyChecks = 15;
    cfg.periodIterations = 64;
    cfg.revalidateChecks = 8;
    TrrReveng reveng(host, mapping, cfg);
    host.setWatchdogBudget(3'600ll * 1'000'000'000);

    const TrrTraits truth = spec.traits();
    EXPECT_EQ(reveng.discoverTrrRefPeriod(), truth.trrToRefPeriod);
    EXPECT_EQ(reveng.discoverNeighborsRefreshed(),
              spec.paired() ? 1 : truth.neighborsRefreshed);
}

INSTANTIATE_TEST_SUITE_P(RepresentativeModules, ChaosIdentification,
                         testing::Values(ChaosCase{"A5"},
                                         ChaosCase{"B8"},
                                         ChaosCase{"C9"}),
                         [](const auto &info) {
                             return info.param.module;
                         });

} // namespace
} // namespace utrr
