#include <gtest/gtest.h>

#include "core/row_scout.hh"
#include "core/trr_analyzer.hh"
#include "dram/module.hh"
#include "obs/metrics.hh"
#include "softmc/host.hh"

namespace utrr
{
namespace
{

TEST(MetricsRegistry, FindOrCreateReturnsStableHandles)
{
    MetricsRegistry registry;
    Counter &a = registry.counter("dram.acts");
    a.inc(3);
    Counter &b = registry.counter("dram.acts");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.value, 3u);

    Gauge &g = registry.gauge("occupancy");
    g.set(0.5);
    EXPECT_EQ(&registry.gauge("occupancy"), &g);
}

TEST(MetricsRegistry, FindDoesNotCreate)
{
    MetricsRegistry registry;
    EXPECT_EQ(registry.findCounter("missing"), nullptr);
    EXPECT_EQ(registry.findGauge("missing"), nullptr);
    registry.counter("present").inc();
    ASSERT_NE(registry.findCounter("present"), nullptr);
    EXPECT_EQ(registry.findCounter("present")->value, 1u);
    EXPECT_EQ(registry.counters().size(), 1u);
}

TEST(MetricsRegistry, ToJsonSnapshotsEverything)
{
    MetricsRegistry registry;
    registry.counter("c").inc(2);
    registry.gauge("g").set(1.25);

    const Json snapshot = registry.toJson();
    EXPECT_EQ(snapshot.find("counters")->find("c")->asInt(), 2);
    EXPECT_EQ(snapshot.find("gauges")->find("g")->asNumber(), 1.25);
    // Counters and gauges are the whole snapshot.
    EXPECT_EQ(snapshot.members().size(), 2u);
}

TEST(MetricsRegistry, MergeAddsCountersAndPrefixesNames)
{
    MetricsRegistry a;
    a.counter("dram.acts").inc(5);
    a.gauge("occupancy").set(0.25);

    MetricsRegistry b;
    b.counter("dram.acts").inc(7);
    b.gauge("occupancy").set(0.75);

    // Un-prefixed merge: counters add, gauges last-write-wins.
    MetricsRegistry merged;
    merged.merge(a);
    merged.merge(b);
    EXPECT_EQ(merged.findCounter("dram.acts")->value, 12u);
    EXPECT_EQ(merged.findGauge("occupancy")->value, 0.75);

    // Prefixed merge keeps per-source sections disjoint, so the
    // result is independent of merge order.
    MetricsRegistry campaign;
    campaign.merge(a, "module.A5.");
    campaign.merge(b, "module.B8.");
    EXPECT_EQ(campaign.findCounter("module.A5.dram.acts")->value, 5u);
    EXPECT_EQ(campaign.findCounter("module.B8.dram.acts")->value, 7u);
    EXPECT_EQ(campaign.findCounter("dram.acts"), nullptr);
}

TEST(GroundTruth, ChipWritesDoNotCountAsPeeks)
{
    GroundTruthStore store;
    store.counter("trr.detections").inc(5);
    store.gauge("trr.sampler_occupancy").set(1);
    EXPECT_EQ(store.peekCount(), 0u);
}

TEST(GroundTruth, EveryProbeReadIsCounted)
{
    GroundTruthStore store;
    store.counter("trr.detections").inc(5);

    GroundTruthProbe probe(store);
    EXPECT_EQ(probe.counter("trr.detections"), 5u);
    EXPECT_EQ(store.peekCount(), 1u);
    probe.gauge("trr.sampler_occupancy");
    EXPECT_EQ(store.peekCount(), 2u);
    probe.snapshot();
    EXPECT_EQ(store.peekCount(), 3u);
    // Reading a never-written metric still counts as a peek.
    EXPECT_EQ(probe.counter("absent"), 0u);
    EXPECT_EQ(store.peekCount(), 4u);
}

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

TEST(ModuleMetrics, HostForwardsAndSubstratePopulates)
{
    DramModule module(smallSpec(TrrVersion::kATrr1), 41);
    SoftMcHost host(module);
    MetricsRegistry registry;
    host.attachMetrics(&registry);
    EXPECT_EQ(host.attachedMetrics(), &registry);

    host.hammer(0, 100, 50);
    host.refBurst(10);
    host.writeRow(0, 7, DataPattern::allOnes());
    host.readRow(0, 7);

    EXPECT_EQ(registry.findCounter("dram.acts")->value,
              host.actCount());
    EXPECT_EQ(registry.findCounter("dram.acts.bank0")->value,
              host.actCount());
    EXPECT_EQ(registry.findCounter("dram.refs")->value, 10u);
    EXPECT_GT(registry.findCounter("dram.rows_regular_refreshed")->value,
              0u);
    ASSERT_NE(registry.findCounter("dram.read_flip_bits"), nullptr);

    // Detaching stops the flow without touching recorded values.
    host.attachMetrics(nullptr);
    const std::uint64_t acts = registry.findCounter("dram.acts")->value;
    host.hammer(0, 100, 10);
    EXPECT_EQ(registry.findCounter("dram.acts")->value, acts);
}

/**
 * The observability acceptance gate for the methodology: a full
 * black-box experiment (scout + analyzer) must complete without a
 * single ground-truth read.
 */
TEST(GroundTruth, BlackBoxExperimentNeverPeeks)
{
    DramModule module(smallSpec(TrrVersion::kATrr1), 41);
    SoftMcHost host(module);
    MetricsRegistry registry;
    host.attachMetrics(&registry);

    const DiscoveredMapping mapping =
        DiscoveredMapping::identity(module.spec().rowsPerBank);
    RowScoutConfig scout_cfg;
    scout_cfg.rowEnd = 2'048;
    scout_cfg.layout = RowGroupLayout::parse("R-R");
    scout_cfg.groupCount = 1;
    scout_cfg.consistencyChecks = 15;
    RowScout scout(host, mapping, scout_cfg);
    const auto groups = scout.scout();
    ASSERT_FALSE(groups.empty());

    TrrAnalyzer analyzer(host, mapping);
    TrrExperimentConfig cfg;
    cfg.aggressors = {{groups.front().gapPhysRows().front(), 3'000}};
    cfg.reset = TrrResetMode::kDummyHammer;
    cfg.resetRefs = 128;
    analyzer.runExperiment(groups.front(), cfg);

    EXPECT_EQ(module.groundTruthPeeks(), 0u);

    // ... while the chip-side truth was being written all along.
    GroundTruthProbe probe = module.groundTruthProbe();
    EXPECT_GT(probe.counter("trr.trr_capable_refs"), 0u);
    EXPECT_EQ(module.groundTruthPeeks(), 1u);
}

} // namespace
} // namespace utrr
