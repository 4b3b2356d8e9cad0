#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/retention_profiler.hh"
#include "core/row_scout.hh"
#include "dram/module.hh"
#include "fault/fault_injector.hh"
#include "softmc/host.hh"

namespace utrr
{
namespace
{

ModuleSpec
smallSpec()
{
    ModuleSpec spec = *findModuleSpec("A5");
    spec.trr = TrrVersion::kNone; // scouting needs no TRR
    spec.rowsPerBank = 4 * 1024;
    spec.banks = 1;
    spec.remapsPerBank = 0;
    spec.scramble = RowScramble::kSequential;
    return spec;
}

struct ScoutFixture : public ::testing::Test
{
    ScoutFixture() : module(smallSpec(), 5), host(module) {}

    RowScoutConfig
    config(const char *layout, int groups)
    {
        RowScoutConfig cfg;
        cfg.rowEnd = 2'048;
        cfg.layout = RowGroupLayout::parse(layout);
        cfg.groupCount = groups;
        cfg.consistencyChecks = 15;
        return cfg;
    }

    DramModule module;
    SoftMcHost host;
};

TEST_F(ScoutFixture, FindsSingleRowGroups)
{
    RowScout scout(host,
                   DiscoveredMapping::identity(module.spec().rowsPerBank),
                   config("R", 3));
    const auto groups = scout.scout();
    ASSERT_EQ(groups.size(), 3u);
    for (const RowGroup &group : groups) {
        EXPECT_EQ(group.rows.size(), 1u);
        EXPECT_GT(group.retention, 0);
    }
}

TEST_F(ScoutFixture, FindsRRGroupsWithCorrectSpacing)
{
    RowScout scout(host,
                   DiscoveredMapping::identity(module.spec().rowsPerBank),
                   config("R-R", 4));
    const auto groups = scout.scout();
    ASSERT_EQ(groups.size(), 4u);
    for (const RowGroup &group : groups) {
        ASSERT_EQ(group.rows.size(), 2u);
        EXPECT_EQ(group.rows[1].physRow - group.rows[0].physRow, 2);
        EXPECT_EQ(group.gapPhysRows().front(),
                  group.rows[0].physRow + 1);
    }
}

TEST_F(ScoutFixture, GroupsShareOneRetentionTime)
{
    // Fig. 6: all groups must share the final escalated T.
    RowScout scout(host,
                   DiscoveredMapping::identity(module.spec().rowsPerBank),
                   config("R-R", 5));
    const auto groups = scout.scout();
    ASSERT_GE(groups.size(), 2u);
    for (const RowGroup &group : groups)
        EXPECT_EQ(group.retention, groups.front().retention);
}

TEST_F(ScoutFixture, ProfiledRowsHoldHalfTAndFailAtT)
{
    // The side-channel contract: rows survive T/2, fail after T.
    RowScout scout(host,
                   DiscoveredMapping::identity(module.spec().rowsPerBank),
                   config("R-R", 2));
    const auto groups = scout.scout();
    ASSERT_FALSE(groups.empty());
    for (const RowGroup &group : groups) {
        for (const ProfiledRow &row : group.rows) {
            host.writeRow(row.bank, row.logicalRow,
                          DataPattern::allOnes());
            host.wait(group.retention / 2);
            EXPECT_EQ(host.readRow(row.bank, row.logicalRow)
                          .countFlipsVs(DataPattern::allOnes(),
                                        row.logicalRow),
                      0);
            host.writeRow(row.bank, row.logicalRow,
                          DataPattern::allOnes());
            host.wait(group.retention + group.retention / 100);
            EXPECT_GT(host.readRow(row.bank, row.logicalRow)
                          .countFlipsVs(DataPattern::allOnes(),
                                        row.logicalRow),
                      0);
        }
    }
}

TEST_F(ScoutFixture, GroupsRespectSeparation)
{
    RowScoutConfig cfg = config("R-R", 4);
    cfg.groupSeparation = 32;
    RowScout scout(
        host, DiscoveredMapping::identity(module.spec().rowsPerBank),
        cfg);
    const auto groups = scout.scout();
    for (std::size_t i = 0; i < groups.size(); ++i) {
        for (std::size_t j = i + 1; j < groups.size(); ++j) {
            EXPECT_GE(std::abs(groups[i].basePhysRow -
                               groups[j].basePhysRow),
                      32);
        }
    }
}

TEST_F(ScoutFixture, ValidationRejectsVrtRows)
{
    // Directly exercise the consistency filter: find a VRT row and
    // check that validateRetention rejects it at its apparent T.
    RowScout scout(host,
                   DiscoveredMapping::identity(module.spec().rowsPerBank),
                   config("R", 1));
    const auto &gen = module.physics();
    int vrt_rejected = 0;
    int vrt_seen = 0;
    for (Row r = 0; r < 2'048 && vrt_seen < 5; ++r) {
        const RowPhysics phys = gen.generateRetention(0, r);
        bool vrt = false;
        for (const WeakCell &cell : phys.weakCells)
            vrt = vrt || cell.vrt;
        if (!vrt || phys.minRetention() > msToNs(1'000))
            continue;
        const Time t = phys.minRetention() + msToNs(40);
        // Only rows whose *observable* failure depends on the VRT cell
        // are inconsistent; a second weak cell below t makes the row
        // legitimately consistent despite the VRT cell.
        if (phys.weakCells.size() > 1 &&
            phys.weakCells[1].retention <= t)
            continue;
        ++vrt_seen;
        if (!scout.validateRetention(r, t, 250))
            ++vrt_rejected;
    }
    ASSERT_GT(vrt_seen, 0);
    EXPECT_EQ(vrt_rejected, vrt_seen);
}

TEST_F(ScoutFixture, ScanFindsDecayedRows)
{
    RowScout scout(host,
                   DiscoveredMapping::identity(module.spec().rowsPerBank),
                   config("R", 1));
    const auto failing = scout.scanFailingRows(msToNs(2'600));
    // All weak rows (retention <= 2.5 s) fail after 2.6 s: roughly
    // half the scanned range.
    EXPECT_GT(failing.size(), 700u);
    EXPECT_LT(failing.size(), 1'600u);
}

TEST_F(ScoutFixture, ScrambledMappingYieldsPhysicalSpacing)
{
    ModuleSpec spec = smallSpec();
    spec.scramble = RowScramble::kSwapHalfPairs;
    DramModule scrambled(spec, 6);
    SoftMcHost scrambled_host(scrambled);
    RowScout scout(
        scrambled_host,
        DiscoveredMapping(RowScramble::kSwapHalfPairs,
                          spec.rowsPerBank),
        config("R-R", 2));
    const auto groups = scout.scout();
    ASSERT_FALSE(groups.empty());
    for (const RowGroup &group : groups) {
        // Physical spacing of 2 regardless of the logical addresses.
        EXPECT_EQ(group.rows[1].physRow - group.rows[0].physRow, 2);
        // And the logical rows really map there.
        for (const ProfiledRow &row : group.rows) {
            EXPECT_EQ(applyScramble(RowScramble::kSwapHalfPairs,
                                    row.logicalRow),
                      row.physRow);
        }
    }
}

// ---------------------------------------------------------------------
// Pins: the full-size scouts of the identify job, reduced to what they
// found and what they issued. Each module runs one R-R scout over rows
// [0, 6144) for 16 groups (traced, with a re-validation pass and a
// few excluded rows) and one RRR-RRR scout over its wide range
// (untraced), then scans each scout's range again at T/2 and T, then
// profiles a band with RetentionProfiler (traced). Both execution tiers
// must give the pinned digest, so any change to the rows selected, the
// validation effort, the command stream or the flips a scan sees moves
// the pin.
// ---------------------------------------------------------------------


std::string
groupsDigest(const std::vector<RowGroup> &groups)
{
    std::ostringstream oss;
    oss << "[";
    for (std::size_t i = 0; i < groups.size(); ++i) {
        oss << (i ? " " : "") << groups[i].bank << ":"
            << groups[i].basePhysRow << "@" << nsToMs(groups[i].retention);
    }
    oss << "]";
    return oss.str();
}

std::string
traceDigest(const CommandTrace &trace)
{
    EXPECT_EQ(trace.dropped(), 0U) << "trace ring too small";
    std::ostringstream oss;
    oss << trace.recorded() << "/0x" << std::hex << trace.contentHash();
    return oss.str();
}

std::string
scoutPinDigest(const char *name, std::uint64_t seed, ExecMode mode,
               const FaultConfig &faults)
{
    const ModuleSpec spec = *findModuleSpec(name);
    DramModule module(spec, seed);
    SoftMcHost host(module);
    host.setExecMode(mode);
    MetricsRegistry metrics;
    host.attachMetrics(&metrics);
    FaultInjector injector(faults, seed);
    if (faults.anyEnabled())
        host.attachFaultInjector(&injector);
    const DiscoveredMapping mapping(spec.scramble, spec.rowsPerBank);
    std::ostringstream oss;

    host.trace().enable(1 << 19);
    RowScoutConfig rr;
    rr.rowEnd = 6 * 1024;
    rr.layout = RowGroupLayout::parse("R-R");
    rr.groupCount = 16;
    rr.consistencyChecks = 4;
    rr.revalidateChecks = 2;
    rr.excludePhys = {1'000, 1'001, 1'002, 2'500};
    RowScout rr_scout(host, mapping, rr);
    const std::vector<RowGroup> rr_groups = rr_scout.scout();
    oss << "rr=" << groupsDigest(rr_groups)
        << " trace=" << traceDigest(host.trace());
    host.trace().disable();

    RowScoutConfig wide;
    wide.rowEnd = std::min<Row>(48 * 1024, spec.rowsPerBank);
    wide.layout = RowGroupLayout::parse("RRR-RRR");
    wide.groupCount = 1;
    wide.consistencyChecks = 4;
    RowScout wide_scout(host, mapping, wide);
    const std::vector<RowGroup> wide_groups = wide_scout.scout();
    oss << " wide=" << groupsDigest(wide_groups);
    for (const RowScout *scout : {&rr_scout, &wide_scout}) {
        oss << " v/e/r=" << scout->validationsRun() << "/"
            << scout->evictionsPerformed() << "/"
            << scout->replacementsFound();
    }

    oss << " scans=[";
    const Time rr_t = rr_groups.empty() ? rr.initialT
                                        : rr_groups.front().retention;
    const Time wide_t = wide_groups.empty()
        ? wide.initialT : wide_groups.front().retention;
    oss << rr_scout.scanFailingRows(rr_t / 2).size() << ","
        << rr_scout.scanFailingRows(rr_t).size() << ","
        << wide_scout.scanFailingRows(wide_t / 2).size() << ","
        << wide_scout.scanFailingRows(wide_t).size() << "]";

    host.trace().enable(1 << 19);
    RetentionProfiler::Config band;
    band.bank = 1;
    band.rowStart = 3'000;
    band.rowEnd = 4'000;
    band.repeats = 2;
    const RetentionProfile profile =
        RetentionProfiler(host, band).profile();
    oss << " profile=" << profile.rowsProfiled << "/"
        << profile.failedAtMin << "/" << profile.neverFailed << "/"
        << profile.vrtSuspects << "{";
    bool first = true;
    for (const auto &[ms, rows] : profile.histogramMs) {
        oss << (first ? "" : ",") << ms << ":" << rows;
        first = false;
    }
    oss << "} trace=" << traceDigest(host.trace());

    host.publishPerfCounters();
    oss << " acts=" << host.actCount() << " clock=" << host.now()
        << " flip_bits=" << metrics.counter("dram.read_flip_bits").value
        << " shares=" << metrics.counter("dram.readout.cow_shares").value;
    if (faults.anyEnabled()) {
        const FaultInjector::Stats &s = injector.stats();
        oss << " faults=" << s.vrtFlips << "/" << s.noiseBits << "/"
            << s.droppedWrs << "/" << s.tempSteps;
    }
    return oss.str();
}

void
expectPinnedInBothTiers(const char *name, std::uint64_t seed,
                        const std::string &pinned,
                        const FaultConfig &faults = {})
{
    for (const ExecMode mode :
         {ExecMode::kCompiled, ExecMode::kInterpreted}) {
        SCOPED_TRACE(mode == ExecMode::kCompiled ? "compiled"
                                                 : "interpreted");
        EXPECT_EQ(scoutPinDigest(name, seed, mode, faults), pinned);
    }
}

TEST(RowScoutPins, A5)
{
    expectPinnedInBothTiers("A5", 5,
        "rr=[0:68@300 0:219@300 0:510@300 0:606@300 0:702@300 "
        "0:977@300 0:1521@300 0:2414@300 0:2548@300 0:2928@300 "
        "0:3327@300 0:3477@300 0:3865@300 0:4097@300 0:4178@300 "
        "0:4542@300] trace=77098/0xe94879e21ec1a9b6 "
        "wide=[0:28455@600] v/e/r=244/0/0 v/e/r=41/0/0 "
        "scans=[74,567,4744,14215] "
        "profile=1000/6/521/0"
        "{125:6,250:67,500:193,1000:143,2000:61,4000:9} "
        "trace=72012/0x60ba17aa382575f4 acts=762398 "
        "clock=160311931890 flip_bits=91617 shares=381199");
}

TEST(RowScoutPins, B8)
{
    expectPinnedInBothTiers("B8", 8,
        "rr=[0:18@300 0:285@300 0:485@300 0:519@300 0:662@300 "
        "0:1038@300 0:1101@300 0:1138@300 0:1179@300 0:1760@300 "
        "0:2264@300 0:2378@300 0:2564@300 0:2756@300 0:2947@300 "
        "0:2990@300] trace=76881/0x91d14a2bfeda6333 "
        "wide=[0:27209@500] v/e/r=228/0/0 v/e/r=42/0/0 "
        "scans=[75,584,2006,7688] "
        "profile=1000/2/549/1"
        "{125:2,250:51,500:178,1000:156,2000:56,4000:8} "
        "trace=72012/0xacb95b07f0bc9e19 acts=467430 "
        "clock=151810708650 flip_bits=44697 shares=233715");
}

TEST(RowScoutPins, C9)
{
    expectPinnedInBothTiers("C9", 9,
        "rr=[0:24@300 0:133@300 0:172@300 0:469@300 0:717@300 "
        "0:910@300 0:1034@300 0:1086@300 0:1583@300 0:1874@300 "
        "0:1907@300 0:1938@300 0:2014@300 0:2146@300 0:2411@300 "
        "0:2533@300] trace=77147/0x9aeebd252f3f6b99 "
        "wide=[0:11452@700] v/e/r=247/0/0 v/e/r=35/0/0 "
        "scans=[60,596,6689,16341] "
        "profile=1000/7/529/3"
        "{125:7,250:59,500:173,1000:171,2000:56,4000:5} "
        "trace=72012/0x2ac1410d8dc6e468 acts=860694 "
        "clock=160672338170 flip_bits=123687 shares=430347");
}

// The same under chaos faults with a raised VRT-flip rate, so that
// re-validation evicts groups and scouts replacements, scans read
// dropped writes and noisy readouts, and retention drifts.
TEST(RowScoutPins, A5UnderFaults)
{
    FaultConfig faults = FaultConfig::chaosDefaults();
    faults.vrtFlipChancePerRead = 1e-2;
    faults.dropWrChance = 1e-3;
    expectPinnedInBothTiers("A5", 5,
        "rr=[0:68@300 0:510@300 0:606@300 0:702@300 0:977@300 "
        "0:2414@300 0:4097@300 0:4178@300 0:4544@300 0:5008@300 "
        "0:5728@300 0:6000@300 0:6041@300] "
        "trace=383025/0xc1154757f93d67d8 wide=[0:36413@700] "
        "v/e/r=601/7/4 v/e/r=105/0/0 scans=[72,493,6194,15239] "
        "profile=1000/7/521/11"
        "{125:7,250:67,500:187,1000:134,2000:64,4000:20} "
        "trace=72444/0xb659f8e6fda593e2 acts=960652 "
        "clock=392547835860 flip_bits=120484 shares=480326 "
        "faults=4846/312/497/7849",
        faults);
}

} // namespace
} // namespace utrr
