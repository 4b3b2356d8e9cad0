/**
 * @file
 * Hierarchical span profiler: tree shape, dual-clock attribution,
 * exclusive-time math, exporter formats, merge determinism across
 * campaign worker counts, bit-identity of instrumented simulation with
 * profiling disabled vs enabled, the phase markers a traced span
 * writes into a command trace, and the always-on substrate perf
 * counters (restore fast path, lazy hammer attaches, COW readouts,
 * trace-ring overflow).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/trr_analyzer.hh"
#include "dram/module.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "obs/trace.hh"
#include "runner/campaign.hh"
#include "softmc/host.hh"

namespace utrr
{
namespace
{

/** Arms the profiler for one test and leaves it clean afterwards. */
class ProfilerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Profiler::instance().reset();
        Profiler::setEnabled(true);
    }

    void
    TearDown() override
    {
        Profiler::setEnabled(false);
        Profiler::instance().reset();
    }
};

const ProfileNode *
childNamed(const ProfileNode &node, const std::string &label)
{
    for (const ProfileNode &child : node.children) {
        if (child.label == label)
            return &child;
    }
    return nullptr;
}

TEST_F(ProfilerTest, NestedSpansBuildTheExpectedTree)
{
    {
        ProfSpan a("a");
        {
            ProfSpan b("b");
        }
        {
            ProfSpan b("b");
        }
    }
    {
        ProfSpan c("c");
    }

    const ProfileTree tree = Profiler::instance().collect();
    ASSERT_EQ(tree.root.children.size(), 2u);
    // Children are sorted by label: deterministic export order.
    EXPECT_EQ(tree.root.children[0].label, "a");
    EXPECT_EQ(tree.root.children[1].label, "c");

    const ProfileNode *a = childNamed(tree.root, "a");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->calls, 1u);
    const ProfileNode *b = childNamed(*a, "b");
    ASSERT_NE(b, nullptr);
    // Same label, same parent: one node, two calls.
    EXPECT_EQ(b->calls, 2u);
    EXPECT_TRUE(b->children.empty());
}

TEST_F(ProfilerTest, SimulatedTimeIsAttributedPerSpan)
{
    Time clock = 0;
    {
        ProfSpan outer("outer", &clock);
        clock += 100;
        {
            ProfSpan inner("inner", &clock);
            clock += 40;
        }
        clock += 10;
    }

    const ProfileTree tree = Profiler::instance().collect();
    const ProfileNode *outer = childNamed(tree.root, "outer");
    ASSERT_NE(outer, nullptr);
    EXPECT_EQ(outer->simNs, 150);
    const ProfileNode *inner = childNamed(*outer, "inner");
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(inner->simNs, 40);
    // Exclusive = inclusive minus children-inclusive.
    EXPECT_EQ(outer->exclusiveSimNs(), 110);
    EXPECT_EQ(inner->exclusiveSimNs(), 40);
}

TEST_F(ProfilerTest, ExclusiveTimeClampsWhenChildrenExceedParent)
{
    // Children measured longer than the parent (possible when a child
    // span is still open at collect() time): exclusive clamps at zero
    // rather than wrapping the unsigned subtraction.
    ProfileNode parent;
    parent.wallNs = 50;
    parent.simNs = 50;
    ProfileNode child;
    child.wallNs = 80;
    child.simNs = 80;
    parent.children.push_back(child);
    EXPECT_EQ(parent.exclusiveWallNs(), 0u);
    EXPECT_EQ(parent.exclusiveSimNs(), 0);
}

TEST_F(ProfilerTest, RootAnchoredSpanIgnoresTheCurrentNesting)
{
    {
        ProfSpan outer("outer");
        ProfSpan rooted("rooted", nullptr, nullptr, ProfSpan::kAtRoot);
    }
    const ProfileTree tree = Profiler::instance().collect();
    // "rooted" is a top-level sibling of "outer", not its child.
    EXPECT_NE(childNamed(tree.root, "rooted"), nullptr);
    const ProfileNode *outer = childNamed(tree.root, "outer");
    ASSERT_NE(outer, nullptr);
    EXPECT_EQ(childNamed(*outer, "rooted"), nullptr);
}

TEST_F(ProfilerTest, DisabledProfilerRecordsNothing)
{
    Profiler::setEnabled(false);
    {
        ProfSpan a("a");
        UTRR_PROF_SCOPE("b");
    }
    EXPECT_TRUE(Profiler::instance().collect().empty());
}

/** The phase markers of @p trace, as "B:label@ns" / "E:label@ns". */
std::vector<std::string>
phaseLog(const CommandTrace &trace)
{
    std::vector<std::string> log;
    for (const TraceEvent &event : trace.events()) {
        if (event.kind != TraceKind::kPhaseBegin &&
            event.kind != TraceKind::kPhaseEnd)
            continue;
        log.push_back(
            (event.kind == TraceKind::kPhaseBegin ? "B:" : "E:") +
            std::string(event.phase) + "@" + std::to_string(event.start));
    }
    return log;
}

TEST_F(ProfilerTest, TracedSpansRecordNestedPhasesAtTheSimulatedClock)
{
    for (const bool profiling : {false, true}) {
        SCOPED_TRACE(profiling ? "profiling on" : "profiling off");
        Profiler::setEnabled(profiling);
        CommandTrace trace(64);
        Time clock = 100;
        {
            ProfSpan outer("outer.span", &clock, &trace);
            clock += 10;
            {
                ProfSpan inner("inner.span", &clock, &trace);
                clock += 5;
            }
            ProfSpan untraced("untraced.span", &clock);
            clock += 1;
        }
        EXPECT_EQ(phaseLog(trace),
                  (std::vector<std::string>{
                      "B:outer.span@100", "B:inner.span@110",
                      "E:inner.span@115", "E:outer.span@116"}));
    }
    // The profiled pass also built the tree, sim time included.
    const ProfileTree tree = Profiler::instance().collect();
    const ProfileNode *outer = childNamed(tree.root, "outer.span");
    ASSERT_NE(outer, nullptr);
    EXPECT_EQ(outer->calls, 1u);
    EXPECT_EQ(outer->simNs, 16);
    ASSERT_NE(childNamed(*outer, "inner.span"), nullptr);
    EXPECT_EQ(childNamed(*outer, "inner.span")->simNs, 5);
}

TEST_F(ProfilerTest, NullOrDisabledTraceRecordsNoPhase)
{
    CommandTrace disabled;
    Time clock = 0;
    {
        ProfSpan untraced("a", &clock, nullptr);
        ProfSpan off("b", &clock, &disabled);
        clock += 3;
    }
    EXPECT_EQ(disabled.recorded(), 0u);
    // Both still profile as usual.
    const ProfileTree tree = Profiler::instance().collect();
    const ProfileNode *a = childNamed(tree.root, "a");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(childNamed(*a, "b"), nullptr);
    EXPECT_EQ(childNamed(*a, "b")->simNs, 3);
}

TEST_F(ProfilerTest, TracedExperimentBracketsEachStageInOrder)
{
    ModuleSpec spec = *findModuleSpec("A5");
    spec.rowsPerBank = 4 * 1024;
    spec.banks = 1;
    spec.remapsPerBank = 0;
    spec.scramble = RowScramble::kSequential;
    DramModule module(spec, 3);
    SoftMcHost host(module);
    host.trace().enable(1 << 16);

    RowGroup group;
    group.layout = RowGroupLayout::parse("R-R");
    group.basePhysRow = 1'000;
    group.retention = msToNs(64);
    for (const Row row : {1'000, 1'002})
        group.rows.push_back({0, row, row, group.retention});
    TrrExperimentConfig cfg;
    cfg.aggressors = {{1'001, 500}};
    cfg.reset = TrrResetMode::kDummyHammer;
    cfg.resetRefs = 4;
    cfg.rounds = 2;

    TrrAnalyzer analyzer(host,
                         DiscoveredMapping::identity(spec.rowsPerBank));
    const Time begin = host.now();
    (void)analyzer.runExperimentMulti({group}, cfg);

    const std::vector<std::string> log = phaseLog(host.trace());
    std::vector<std::string> names;
    for (const std::string &entry : log)
        names.push_back(entry.substr(0, entry.find('@')));
    EXPECT_EQ(names, (std::vector<std::string>{
                         "B:trr_analyzer.experiment",
                         "B:trr_analyzer.reset_trr_state",
                         "E:trr_analyzer.reset_trr_state",
                         "B:trr_analyzer.init_rows",
                         "E:trr_analyzer.init_rows",
                         "B:trr_analyzer.hammer_rounds",
                         "E:trr_analyzer.hammer_rounds",
                         "B:trr_analyzer.readback",
                         "E:trr_analyzer.readback",
                         "E:trr_analyzer.experiment"}));
    EXPECT_EQ(log.front(), "B:trr_analyzer.experiment@" +
                               std::to_string(begin));
    EXPECT_EQ(log.back(), "E:trr_analyzer.experiment@" +
                              std::to_string(host.now()));
}

TEST_F(ProfilerTest, ResetDropsAllRecordedSpans)
{
    {
        ProfSpan a("a");
    }
    EXPECT_FALSE(Profiler::instance().collect().empty());
    Profiler::instance().reset();
    EXPECT_TRUE(Profiler::instance().collect().empty());
}

TEST_F(ProfilerTest, FoldedSimOutputIsTheExpectedFormat)
{
    Time clock = 0;
    {
        ProfSpan a("a", &clock);
        clock += 100;
        {
            ProfSpan b("b", &clock);
            clock += 40;
        }
    }
    std::ostringstream folded;
    Profiler::instance().collect().foldedSim(folded);
    // One "path value" line per node with non-zero exclusive sim time.
    EXPECT_EQ(folded.str(), "a 100\na;b 40\n");
}

TEST_F(ProfilerTest, TableRanksByExclusiveWallTime)
{
    {
        ProfSpan a("alpha");
    }
    const std::string table = Profiler::instance().collect().table();
    EXPECT_NE(table.find("exclusive wall time"), std::string::npos);
    EXPECT_NE(table.find("alpha"), std::string::npos);
}

TEST_F(ProfilerTest, TableTruncationFooterCountsTheHiddenRows)
{
    ProfileTree tree;
    for (const char *label : {"aa", "bb", "cc"}) {
        ProfileNode node;
        node.label = label;
        node.calls = 1;
        node.wallNs = 1'000'000;
        tree.root.children.push_back(std::move(node));
    }
    // Exactly max_rows entries: every row printed, no footer.
    EXPECT_EQ(tree.table(3).find("more"), std::string::npos);
    // One entry over the cap — the historical off-by-one — must still
    // print the footer, with the true hidden count.
    const std::string truncated = tree.table(2);
    EXPECT_NE(truncated.find("... 1 more"), std::string::npos);
    EXPECT_EQ(truncated.find("cc"), std::string::npos);
}

TEST_F(ProfilerTest, ExitedThreadSlotsAreReused)
{
    const auto spanOnFreshThread = []() {
        std::thread([]() {
            ProfSpan span("worker.span");
        }).join();
    };
    spanOnFreshThread();
    const std::size_t slots = Profiler::instance().threadCount();
    // A process running many campaigns spawns fresh workers per run;
    // exited threads hand their slot back, so the registry stays at
    // the peak concurrent count instead of growing per thread spawned.
    for (int i = 0; i < 8; ++i)
        spanOnFreshThread();
    EXPECT_EQ(Profiler::instance().threadCount(), slots);
    // Recorded data survives the hand-back until reset().
    const ProfileTree tree = Profiler::instance().collect();
    const ProfileNode *span = childNamed(tree.root, "worker.span");
    ASSERT_NE(span, nullptr);
    EXPECT_EQ(span->calls, 9u);
}

/**
 * Deterministic projection of a profile tree: every path with its call
 * count and inclusive simulated time (wall time is schedule-dependent
 * and excluded on purpose).
 */
void
simProjection(const ProfileNode &node, const std::string &prefix,
              std::ostream &os)
{
    for (const ProfileNode &child : node.children) {
        const std::string path =
            prefix.empty() ? child.label : prefix + ";" + child.label;
        os << path << " calls=" << child.calls << " sim=" << child.simNs
           << "\n";
        simProjection(child, path, os);
    }
}

std::string
campaignProfile(int jobs)
{
    Profiler::instance().reset();
    CampaignConfig config;
    config.jobs = jobs;
    config.seed = 7;
    CampaignRunner runner(config);
    std::vector<ModuleSpec> specs;
    for (const char *name : {"A0", "B0", "C0", "A5"})
        specs.push_back(*findModuleSpec(name));
    const CampaignResult result =
        runner.run(specs, [](JobContext &ctx) {
            ctx.host.hammer(0, 1'000, 200);
            ctx.host.refBurst(16);
            JobOutcome outcome;
            outcome.ok = true;
            outcome.verdict = Json::object();
            return outcome;
        });
    EXPECT_TRUE(result.allOk());

    std::ostringstream os;
    simProjection(Profiler::instance().collect().root, "", os);
    Profiler::instance().reset();
    return os.str();
}

TEST_F(ProfilerTest, MergedTreeIsIdenticalAcrossWorkerCounts)
{
    // The determinism contract extended to profiling: per-job spans
    // anchor at the tree root, so call counts and simulated time merge
    // to the same tree whether jobs ran inline (jobs=1) or across
    // worker threads.
    const std::string serial = campaignProfile(1);
    const std::string parallel = campaignProfile(3);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
    // Sanity: the instrumented paths actually appear.
    EXPECT_NE(serial.find("campaign.job"), std::string::npos);
    EXPECT_NE(serial.find("softmc.hammer"), std::string::npos);
}

std::uint64_t
tracedSessionHash(bool profiled)
{
    Profiler::instance().reset();
    Profiler::setEnabled(profiled);
    DramModule module(*findModuleSpec("A5"), 99);
    SoftMcHost host(module);
    host.trace().enable(64 * 1024);
    host.writeRow(0, 500, DataPattern::allOnes());
    host.hammer(0, 501, 2'000);
    host.refBurst(32);
    host.waitWithRefresh(msToNs(2));
    (void)host.readRow(0, 500);
    const std::uint64_t hash =
        host.trace().contentHash() ^ (static_cast<std::uint64_t>(
            host.now()) * 31) ^ host.actCount();
    Profiler::setEnabled(false);
    Profiler::instance().reset();
    return hash;
}

TEST_F(ProfilerTest, ProfilingNeverPerturbsTheSimulation)
{
    // Command-for-command bit-identity of an instrumented session with
    // profiling off vs on: spans observe the clock, never advance it.
    EXPECT_EQ(tracedSessionHash(false), tracedSessionHash(true));
}

TEST(RowPerfCountersTest, FastPathCountersMatchPublishedMetrics)
{
    // Identity mapping so aggressor/victim rows address physical
    // neighbours directly.
    ModuleSpec spec = *findModuleSpec("A5");
    spec.trr = TrrVersion::kNone;
    spec.scramble = RowScramble::kSequential;
    spec.remapsPerBank = 0;
    DramModule module(spec, 5);
    SoftMcHost host(module);
    MetricsRegistry registry;
    host.attachMetrics(&registry);

    for (Row r = 0; r < 64; ++r)
        host.writeRow(0, r, DataPattern::allOnes());
    // Double-sided past HC_first (A5: 13-15K): the victim's charge
    // crosses its hammer threshold, so touching it afterwards takes
    // the lazy hammer-cell attach path.
    host.hammerInterleaved({{0, 999}, {0, 1'001}}, {40'000, 40'000});
    (void)host.readRow(0, 1'000);
    host.refBurst(64);            // restores hit the fast path
    for (Row r = 0; r < 8; ++r)
        (void)host.readRow(0, r); // COW readouts share, never copy

    const RowPerfCounters totals = module.perfTotals();
    EXPECT_GT(totals.restoreFastPath, 0u);
    EXPECT_GT(totals.hammerCellAttaches, 0u);
    EXPECT_GT(totals.readoutShares, 0u);

    host.publishPerfCounters();
    EXPECT_EQ(registry.counter("dram.restore.fast_path").value,
              totals.restoreFastPath);
    EXPECT_EQ(registry.counter("dram.restore.slow_path").value,
              totals.restoreSlowPath);
    EXPECT_EQ(registry.counter("dram.hammer_cell_attaches").value,
              totals.hammerCellAttaches);
    EXPECT_EQ(registry.counter("dram.readout.cow_copies").value,
              totals.readoutCowCopies);
    EXPECT_EQ(registry.counter("dram.readout.cow_shares").value,
              totals.readoutShares);

    // Assignment-publish: republishing must not double-count.
    host.publishPerfCounters();
    EXPECT_EQ(registry.counter("dram.restore.fast_path").value,
              totals.restoreFastPath);
}

TEST(RowPerfCountersTest, TraceRingOverflowIsAccounted)
{
    DramModule module(*findModuleSpec("A5"), 6);
    SoftMcHost host(module);
    MetricsRegistry registry;
    host.attachMetrics(&registry);
    host.trace().enable(16);

    host.hammer(0, 100, 64); // 128 ACT/PRE events >> 16-slot ring
    EXPECT_GT(host.trace().dropped(), 0u);
    EXPECT_EQ(host.trace().size(), 16u);

    host.publishPerfCounters();
    EXPECT_EQ(registry.counter("trace.dropped_events").value,
              host.trace().dropped());

    // The Chrome export flags the truncation with an instant marker.
    std::ostringstream os;
    host.trace().exportChromeTrace(os);
    EXPECT_NE(os.str().find("trace ring overflow"), std::string::npos);
}

TEST(RowPerfCountersTest, ChromeExportMergesTheProfileTrack)
{
    Profiler::instance().reset();
    Profiler::setEnabled(true);
    Time clock = 0;
    {
        ProfSpan span("merged.span", &clock);
        clock += 10;
    }
    const ProfileTree tree = Profiler::instance().collect();
    Profiler::setEnabled(false);
    Profiler::instance().reset();

    CommandTrace trace(16);
    trace.record(TraceKind::kAct, 0, 1, 0, 10);
    std::ostringstream os;
    trace.exportChromeTrace(os, &tree);
    EXPECT_NE(os.str().find("merged.span"), std::string::npos);
    EXPECT_NE(os.str().find("profiler"), std::string::npos);
}

} // namespace
} // namespace utrr
