#include <gtest/gtest.h>

#include <sstream>
#include <type_traits>
#include <utility>

#include "core/row_scout.hh"
#include "core/trr_analyzer.hh"
#include "dram/module.hh"
#include "obs/json.hh"
#include "obs/trace.hh"
#include "softmc/host.hh"

namespace utrr
{
namespace
{

TEST(CommandTrace, DisabledByDefault)
{
    CommandTrace trace;
    EXPECT_FALSE(trace.enabled());
    EXPECT_EQ(trace.capacity(), 0u);
    trace.record(TraceKind::kAct, 0, 42, 100, 35);
    trace.beginPhase("ignored", 0);
    EXPECT_EQ(trace.size(), 0u);
    EXPECT_EQ(trace.recorded(), 0u);
}

TEST(CommandTrace, RecordsEventsInOrder)
{
    CommandTrace trace(16);
    trace.record(TraceKind::kAct, 1, 7, 0, 35);
    trace.record(TraceKind::kPre, 1, kInvalidRow, 35, 15);
    trace.record(TraceKind::kRef, 0, kInvalidRow, 50, 350);

    const auto events = trace.events();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].kind, TraceKind::kAct);
    EXPECT_EQ(events[0].bank, 1);
    EXPECT_EQ(events[0].row, 7);
    EXPECT_EQ(events[1].kind, TraceKind::kPre);
    EXPECT_EQ(events[2].kind, TraceKind::kRef);
    EXPECT_EQ(events[2].duration, 350);
}

TEST(CommandTrace, ContentHashStableAndOrderSensitive)
{
    // The hash is the determinism-oracle surface of the fuzz harness:
    // equal iff same events in same order.
    CommandTrace a(16);
    a.record(TraceKind::kAct, 1, 7, 0, 35);
    a.record(TraceKind::kPre, 1, kInvalidRow, 35, 15);

    CommandTrace b(16);
    b.record(TraceKind::kAct, 1, 7, 0, 35);
    b.record(TraceKind::kPre, 1, kInvalidRow, 35, 15);
    EXPECT_EQ(a.contentHash(), b.contentHash());

    // Swapped order must hash differently.
    CommandTrace c(16);
    c.record(TraceKind::kPre, 1, kInvalidRow, 35, 15);
    c.record(TraceKind::kAct, 1, 7, 0, 35);
    EXPECT_NE(a.contentHash(), c.contentHash());

    // Any field perturbation must hash differently.
    CommandTrace d(16);
    d.record(TraceKind::kAct, 1, 8, 0, 35);
    d.record(TraceKind::kPre, 1, kInvalidRow, 35, 15);
    EXPECT_NE(a.contentHash(), d.contentHash());

    EXPECT_EQ(CommandTrace(16).contentHash(),
              CommandTrace(8).contentHash());
}

TEST(CommandTrace, ContentHashIndependentOfRingPosition)
{
    // Two traces holding the same surviving events must hash equal
    // even when one of them wrapped (the hash walks oldest-first, not
    // buffer order).
    CommandTrace wrapped(2);
    wrapped.record(TraceKind::kAct, 0, 1, 0, 35);  // evicted
    wrapped.record(TraceKind::kAct, 0, 2, 35, 35);
    wrapped.record(TraceKind::kPre, 0, kInvalidRow, 70, 15);

    CommandTrace fresh(2);
    fresh.record(TraceKind::kAct, 0, 2, 35, 35);
    fresh.record(TraceKind::kPre, 0, kInvalidRow, 70, 15);

    EXPECT_EQ(wrapped.contentHash(), fresh.contentHash());
}

TEST(CommandTrace, RingWrapsAroundKeepingNewest)
{
    CommandTrace trace(8);
    for (int i = 0; i < 20; ++i) {
        trace.record(TraceKind::kAct, 0, static_cast<Row>(i),
                     static_cast<Time>(i) * 50, 35);
    }
    EXPECT_EQ(trace.size(), 8u);
    EXPECT_EQ(trace.recorded(), 20u);
    EXPECT_EQ(trace.dropped(), 12u);

    // Oldest-first unwrap: rows 12..19 in order.
    const auto events = trace.events();
    ASSERT_EQ(events.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(events[static_cast<std::size_t>(i)].row, 12 + i);
}

TEST(CommandTrace, ClearKeepsCapacity)
{
    CommandTrace trace(4);
    trace.record(TraceKind::kAct, 0, 1, 0, 35);
    trace.clear();
    EXPECT_TRUE(trace.enabled());
    EXPECT_EQ(trace.size(), 0u);
    trace.record(TraceKind::kAct, 0, 2, 0, 35);
    EXPECT_EQ(trace.events().front().row, 2);
}

// Ring events point into their trace's name pool, so a copy would
// dangle; a move keeps the pool and with it every label.
static_assert(!std::is_copy_constructible_v<CommandTrace>);
static_assert(!std::is_copy_assignable_v<CommandTrace>);

TEST(CommandTrace, MoveKeepsPhaseLabels)
{
    CommandTrace source(8);
    source.beginPhase("hammer", 0);
    source.record(TraceKind::kAct, 1, 7, 10, 35);
    const CommandTrace moved(std::move(source));
    const auto events = moved.events();
    ASSERT_EQ(events.size(), 2u);
    ASSERT_NE(events[0].phase, nullptr);
    EXPECT_STREQ(events[0].phase, "hammer");
}

TEST(CommandTrace, TextListingMentionsEveryEvent)
{
    CommandTrace trace(8);
    trace.record(TraceKind::kAct, 2, 99, 0, 35);
    trace.beginPhase("hammer", 35);
    trace.record(TraceKind::kRef, 0, kInvalidRow, 40, 350);
    trace.endPhase("hammer", 400);

    const std::string text = trace.text();
    EXPECT_NE(text.find("ACT"), std::string::npos);
    EXPECT_NE(text.find("REF"), std::string::npos);
    EXPECT_NE(text.find("hammer"), std::string::npos);
    EXPECT_NE(text.find("99"), std::string::npos);
}

TEST(CommandTrace, ChromeTraceRoundTripsThroughJsonParser)
{
    CommandTrace trace(64);
    trace.beginPhase("experiment", 0);
    trace.record(TraceKind::kAct, 3, 123, 10, 35);
    trace.record(TraceKind::kPre, 3, kInvalidRow, 45, 15);
    trace.record(TraceKind::kRef, 0, kInvalidRow, 60, 350);
    trace.endPhase("experiment", 410);

    std::ostringstream os;
    trace.exportChromeTrace(os);
    const auto doc = Json::parse(os.str());
    ASSERT_TRUE(doc.has_value());

    const Json *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->size(), 5u);

    // Phase begin/end plus "X" duration slices; per-bank tid tracks.
    int begins = 0;
    int ends = 0;
    int slices = 0;
    for (std::size_t i = 0; i < events->size(); ++i) {
        const Json &event = events->at(i);
        const std::string ph = event.find("ph")->asString();
        if (ph == "B")
            ++begins;
        else if (ph == "E")
            ++ends;
        else if (ph == "X")
            ++slices;
    }
    EXPECT_EQ(begins, 1);
    EXPECT_EQ(ends, 1);
    EXPECT_EQ(slices, 3);

    // The ACT slice carries its bank track and row argument.
    bool act_found = false;
    for (std::size_t i = 0; i < events->size(); ++i) {
        const Json &event = events->at(i);
        if (event.find("name")->asString() != "ACT")
            continue;
        act_found = true;
        EXPECT_EQ(event.find("tid")->asInt(), 3 + 1);
        const Json *args = event.find("args");
        ASSERT_NE(args, nullptr);
        EXPECT_EQ(args->find("row")->asInt(), 123);
    }
    EXPECT_TRUE(act_found);
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

/**
 * Acceptance criterion: a Chrome trace from a real TRR Analyzer run
 * parses as valid JSON, contains ACT and REF events, and its timestamps
 * are monotonically non-decreasing.
 */
TEST(CommandTrace, TrrAnalyzerRunExportsValidMonotonicChromeTrace)
{
    DramModule module(smallSpec(TrrVersion::kATrr1), 41);
    SoftMcHost host(module);
    host.trace().enable(1 << 16);

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
    cfg.rounds = 4;
    analyzer.runExperiment(groups.front(), cfg);

    std::ostringstream os;
    host.trace().exportChromeTrace(os);
    const auto doc = Json::parse(os.str());
    ASSERT_TRUE(doc.has_value()) << "trace is not valid JSON";

    const Json *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_GT(events->size(), 0u);

    bool has_act = false;
    bool has_ref = false;
    double last_ts = -1.0;
    for (std::size_t i = 0; i < events->size(); ++i) {
        const Json &event = events->at(i);
        const std::string name = event.find("name")->asString();
        has_act = has_act || name == "ACT";
        has_ref = has_ref || name == "REF";
        const double ts = event.find("ts")->asNumber();
        EXPECT_GE(ts, last_ts) << "timestamp regression at event " << i;
        last_ts = ts;
    }
    EXPECT_TRUE(has_act);
    EXPECT_TRUE(has_ref);
}

} // namespace
} // namespace utrr
