#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include "core/row_scout.hh"
#include "core/trr_analyzer.hh"
#include "dram/module.hh"
#include "obs/json.hh"
#include "obs/report.hh"
#include "softmc/host.hh"

namespace utrr
{
namespace
{

TEST(Json, ScalarRoundTrip)
{
    EXPECT_EQ(Json::parse("42")->asInt(), 42);
    EXPECT_EQ(Json::parse("-7")->asInt(), -7);
    EXPECT_DOUBLE_EQ(Json::parse("2.5")->asNumber(), 2.5);
    EXPECT_TRUE(Json::parse("true")->asBool());
    EXPECT_FALSE(Json::parse("false")->asBool());
    EXPECT_TRUE(Json::parse("null")->isNull());
    EXPECT_EQ(Json::parse("\"hi\"")->asString(), "hi");
}

TEST(Json, LargeIntegersSurviveExactly)
{
    const std::int64_t big = 123'456'789'012'345'678LL;
    Json value(big);
    const auto parsed = Json::parse(value.dump());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->asInt(), big);
}

TEST(Json, StringEscapesRoundTrip)
{
    const std::string nasty = "line\nbreak \"quoted\" back\\slash \t tab";
    Json value(nasty);
    const auto parsed = Json::parse(value.dump());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->asString(), nasty);
}

TEST(Json, NestedDocumentRoundTrip)
{
    Json root = Json::object();
    root["name"] = Json("experiment");
    Json rounds = Json::array();
    for (int i = 0; i < 3; ++i) {
        Json round = Json::object();
        round["refs"] = Json(i * 10);
        round["hit"] = Json(i % 2 == 0);
        rounds.push(std::move(round));
    }
    root["rounds"] = std::move(rounds);

    for (int indent : {-1, 1, 4}) {
        const auto parsed = Json::parse(root.dump(indent));
        ASSERT_TRUE(parsed.has_value()) << "indent " << indent;
        const Json *r = parsed->find("rounds");
        ASSERT_NE(r, nullptr);
        ASSERT_EQ(r->size(), 3u);
        EXPECT_EQ(r->at(2).find("refs")->asInt(), 20);
        EXPECT_TRUE(r->at(0).find("hit")->asBool());
    }
}

TEST(Json, ObjectKeysKeepInsertionOrder)
{
    Json root = Json::object();
    root["zebra"] = Json(1);
    root["alpha"] = Json(2);
    ASSERT_EQ(root.members().size(), 2u);
    EXPECT_EQ(root.members()[0].first, "zebra");
    EXPECT_EQ(root.members()[1].first, "alpha");
}

TEST(Json, MalformedInputsRejected)
{
    EXPECT_FALSE(Json::parse("").has_value());
    EXPECT_FALSE(Json::parse("{").has_value());
    EXPECT_FALSE(Json::parse("[1,]").has_value());
    EXPECT_FALSE(Json::parse("\"unterminated").has_value());
    EXPECT_FALSE(Json::parse("{\"a\" 1}").has_value());
    EXPECT_FALSE(Json::parse("42 trailing").has_value());
}

TEST(ExperimentReport, HasTheConventionalShape)
{
    ExperimentReport report("unit");
    report.setConfig("rows", Json(64));
    report.setSeed(41);
    Json round = Json::object();
    round["refs_after"] = Json(4);
    report.addRound(std::move(round));
    report.setResult("flips", Json(3));
    report.setTiming(1.5, 2'000);

    const auto parsed = Json::parse(report.dump());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->find("report")->asString(), "unit");
    EXPECT_EQ(parsed->find("config")->find("rows")->asInt(), 64);
    EXPECT_EQ(parsed->find("config")->find("seed")->asInt(), 41);
    ASSERT_EQ(parsed->find("rounds")->size(), 1u);
    EXPECT_EQ(parsed->find("results")->find("flips")->asInt(), 3);
    EXPECT_DOUBLE_EQ(parsed->find("timing")->find("wall_ms")->asNumber(),
                     1.5);
    EXPECT_EQ(parsed->find("timing")->find("sim_ns")->asInt(), 2'000);
}

TEST(ExperimentReport, WriteFileRoundTrips)
{
    ExperimentReport report("file_test");
    report.setResult("ok", Json(true));
    MetricsRegistry registry;
    registry.counter("dram.acts").inc(9);
    report.attachMetrics(registry);

    const std::string path =
        testing::TempDir() + "utrr_report_test.json";
    ASSERT_TRUE(report.writeFile(path));

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    const auto parsed = Json::parse(buffer.str());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->find("results")->find("ok")->asBool());
    EXPECT_EQ(parsed->find("metrics")
                  ->find("counters")
                  ->find("dram.acts")
                  ->asInt(),
              9);
    std::remove(path.c_str());
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

TEST(ExperimentReport, AnalyzerReportRecordsMonotonicRounds)
{
    DramModule module(smallSpec(TrrVersion::kATrr1), 41);
    SoftMcHost host(module);
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
    cfg.aggressors = {{groups.front().gapPhysRows().front(), 2'000}};
    cfg.reset = TrrResetMode::kNone;
    cfg.rounds = 5;
    cfg.refsPerRound = 2;
    const TrrMultiResult result =
        analyzer.runExperimentMulti({groups.front()}, cfg);

    ASSERT_EQ(result.rounds.size(), 5u);
    for (std::size_t i = 1; i < result.rounds.size(); ++i) {
        EXPECT_GT(result.rounds[i].refsAfter,
                  result.rounds[i - 1].refsAfter);
        EXPECT_GT(result.rounds[i].actsAfter,
                  result.rounds[i - 1].actsAfter);
        EXPECT_GT(result.rounds[i].simAfter,
                  result.rounds[i - 1].simAfter);
    }
    EXPECT_EQ(result.rounds.back().refsAfter, result.refsAfter);
    EXPECT_GT(result.simNs, 0);
}

/** The report fixture scripts/test_report_diff.py also reads. */
std::optional<Json>
reportFixture()
{
    std::ifstream in(UTRR_REPORT_FIXTURE);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return Json::parse(buffer.str());
}

TEST(ExperimentReport, ProjectionMatchesTheScriptFixture)
{
    const std::optional<Json> fixture = reportFixture();
    ASSERT_TRUE(fixture.has_value()) << UTRR_REPORT_FIXTURE;
    const Json &report = *fixture;
    const Json projected = deterministicProjection(report);

    // Dropped: timing.wall_ms, every rounds[].wall_ms, the top-level
    // profile section.
    EXPECT_EQ(projected.find("timing")->find("wall_ms"), nullptr);
    EXPECT_NE(projected.find("timing")->find("sim_ns"), nullptr);
    const Json &rounds = *projected.find("rounds");
    ASSERT_EQ(rounds.size(), 2u);
    for (std::size_t i = 0; i < rounds.size(); ++i) {
        EXPECT_EQ(rounds.at(i).find("wall_ms"), nullptr);
        EXPECT_NE(rounds.at(i).find("sim_ns"), nullptr);
    }
    EXPECT_EQ(projected.find("profile"), nullptr);

    // Compared: everything else, "x.us", "eta_ms" and a nested
    // "profile" key included.
    EXPECT_NE(projected.find("config")->find("profile"), nullptr);
    EXPECT_NE(projected.find("results")->find("eta_ms"), nullptr);
    EXPECT_NE(projected.find("metrics")->find("counters")->find(
                  "module.B8.x.us"),
              nullptr);
    EXPECT_EQ(projected.find("metrics")->dump(),
              report.find("metrics")->dump());

    // A wall-clock change leaves the projection as it was...
    Json slower = report;
    slower["timing"]["wall_ms"] = Json(9000.0);
    slower["profile"] = Json::object();
    EXPECT_EQ(deterministicProjection(slower).dump(), projected.dump());
    // ...and a change to any other key does not.
    Json changed = report;
    changed["metrics"]["counters"]["module.B8.x.us"] = Json(8);
    EXPECT_NE(deterministicProjection(changed).dump(), projected.dump());
    changed = report;
    changed["results"]["eta_ms"] = Json(6);
    EXPECT_NE(deterministicProjection(changed).dump(), projected.dump());
}

} // namespace
} // namespace utrr
