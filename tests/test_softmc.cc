#include <gtest/gtest.h>

#include "dram/module.hh"
#include "obs/profiler.hh"
#include "softmc/host.hh"

namespace utrr
{
namespace
{

ModuleSpec
smallSpec()
{
    ModuleSpec spec = *findModuleSpec("A5");
    spec.trr = TrrVersion::kNone;
    spec.rowsPerBank = 4 * 1024;
    spec.banks = 2;
    spec.remapsPerBank = 0;
    spec.scramble = RowScramble::kSequential;
    return spec;
}

struct HostFixture : public ::testing::Test
{
    HostFixture() : module(smallSpec(), 1), host(module) {}

    DramModule module;
    SoftMcHost host;
};

TEST_F(HostFixture, ClockAdvancesPerCommand)
{
    const Timing &t = host.timing();
    EXPECT_EQ(host.now(), 0);
    host.act(0, 10);
    EXPECT_EQ(host.now(), t.tRAS);
    host.pre(0);
    EXPECT_EQ(host.now(), t.tRAS + t.tRP);
    host.ref();
    EXPECT_EQ(host.now(), t.tRAS + t.tRP + t.tRFC);
}

TEST_F(HostFixture, HammerCycleTiming)
{
    host.hammer(0, 10, 100);
    EXPECT_EQ(host.now(), 100 * host.timing().hammerCycle());
    EXPECT_EQ(host.actCount(), 100u);
}

TEST_F(HostFixture, WriteReadRoundTrip)
{
    host.writeRow(0, 42, DataPattern::colStripe());
    const RowReadout readout = host.readRow(0, 42);
    EXPECT_EQ(readout.countFlipsVs(DataPattern::colStripe(), 42), 0);
}

TEST_F(HostFixture, WaitAdvancesWithoutCommands)
{
    host.wait(12'345);
    EXPECT_EQ(host.now(), 12'345);
    EXPECT_EQ(host.refCommandCount(), 0u);
}

TEST_F(HostFixture, WaitWithRefreshIssuesRefsAtDefaultRate)
{
    host.waitWithRefresh(78'000); // 10 tREFI
    EXPECT_EQ(host.refCommandCount(), 10u);
    EXPECT_GE(host.now(), 78'000);
}

TEST_F(HostFixture, RefAtDefaultRateSpacing)
{
    host.refAtDefaultRate(5);
    EXPECT_EQ(host.refCommandCount(), 5u);
    EXPECT_EQ(host.now(), 5 * host.timing().tREFI);
}

TEST_F(HostFixture, InterleavedHammerAlternates)
{
    // Interleaved hammering of two neighbours accumulates full-weight
    // disturbance on the victim between them.
    host.writeRow(0, 100, DataPattern::allOnes());
    host.hammerInterleaved({{0, 99}, {0, 101}}, {50, 50});
    const Row phys = module.toPhysical(0, 100);
    const double interleaved =
        module.bankAt(0).peekRow(phys)->hammerCharge();

    host.writeRow(0, 200, DataPattern::allOnes());
    host.hammerCascaded({{0, 199}, {0, 201}}, {50, 50});
    const double cascaded = module.bankAt(0)
                                .peekRow(module.toPhysical(0, 200))
                                ->hammerCharge();
    EXPECT_GT(interleaved, 1.3 * cascaded);
}

TEST_F(HostFixture, InterleavedHonoursPerRowCounts)
{
    host.hammerInterleaved({{0, 10}, {0, 400}}, {3, 7});
    EXPECT_EQ(host.actCount(), 10u);
}

TEST_F(HostFixture, MultiBankHammerBoundedByBankCycle)
{
    // 4 banks, one ACT per bank per round: the per-bank cycle time
    // dominates tFAW with default timing.
    const Time start = host.now();
    host.hammerMultiBank({{0, 1}, {1, 1}}, 10);
    EXPECT_EQ(host.now() - start, 10 * host.timing().hammerCycle());
    EXPECT_EQ(host.actCount(), 20u);
}

TEST_F(HostFixture, MultiBankHammerTfawBound)
{
    // With 8 "banks" (more than 4 ACTs per tFAW window can serve),
    // the tFAW bound kicks in when it exceeds the per-bank cycle.
    Timing timing;
    timing.tFAW = 400; // make tFAW dominate: 8 * 400 / 4 = 800 / round
    SoftMcHost slow_host(module, timing);
    std::vector<std::pair<Bank, Row>> rows;
    for (Bank b = 0; b < 2; ++b)
        rows.emplace_back(b, 1);
    const Time start = slow_host.now();
    slow_host.hammerMultiBank(rows, 5);
    EXPECT_EQ(slow_host.now() - start, 5 * 2 * 400 / 4);
}

TEST_F(HostFixture, ProgramExecutionCapturesReads)
{
    Program program;
    program.writeRow(0, 7, DataPattern::allOnes())
        .writeRow(0, 9, DataPattern::allZeros())
        .readRow(0, 7)
        .readRow(0, 9)
        .ref(2);
    const ExecResult result = host.execute(program);
    ASSERT_EQ(result.reads.size(), 2u);
    EXPECT_EQ(result.reads[0].row, 7);
    EXPECT_EQ(result.reads[0].readout.countFlipsVs(
                  DataPattern::allOnes(), 7),
              0);
    EXPECT_EQ(result.reads[1].row, 9);
    EXPECT_EQ(host.refCommandCount(), 2u);
    EXPECT_GT(result.endTime, result.startTime);
}

TEST_F(HostFixture, ProgramHammerAndWait)
{
    Program program;
    program.hammer(0, 3, 10).wait(1'000).waitWithRefresh(78'000);
    host.execute(program);
    EXPECT_EQ(host.actCount(), 10u);
    EXPECT_EQ(host.refCommandCount(), 10u);
}

TEST(Program, InstructionToString)
{
    Program program;
    program.act(1, 2).pre(1).ref().wait(5);
    const auto &instrs = program.instructions();
    ASSERT_EQ(instrs.size(), 4u);
    EXPECT_EQ(instrs[0].toString(), "ACT b1 r2");
    EXPECT_EQ(instrs[1].toString(), "PRE b1");
    EXPECT_EQ(instrs[2].toString(), "REF");
    EXPECT_EQ(instrs[3].toString(), "WAIT 5ns");
}

TEST(Program, CompositeSizes)
{
    Program program;
    program.writeRow(0, 1, DataPattern::allOnes());
    EXPECT_EQ(program.size(), 3u); // ACT + WR + PRE
    program.hammer(0, 2, 5);
    EXPECT_EQ(program.size(), 13u);
}

// ---------------------------------------------------------------------
// SoftMcHost::execute: the one hammer-run fold of the compiled tier
// (DESIGN.md §17). The tests below count the hammer() calls a program
// makes; bit-identical behaviour is pinned by the execution oracle and
// the conformance suite. They assume the clean tree (no UTRR_MUTATION
// build).
// ---------------------------------------------------------------------

#ifndef UTRR_MUTATION_FUSION_OFF_BY_ONE

/** `softmc.hammer` calls under `softmc.execute` while @p host runs
 *  @p program, with the profiler armed. */
std::uint64_t
hammerCallsOf(SoftMcHost &host, const Program &program)
{
    Profiler::instance().reset();
    Profiler::setEnabled(true);
    host.execute(program);
    const ProfileTree tree = Profiler::instance().collect();
    Profiler::setEnabled(false);
    Profiler::instance().reset();
    std::uint64_t calls = 0;
    for (const ProfileNode &exec : tree.root.children) {
        if (exec.label != "softmc.execute")
            continue;
        for (const ProfileNode &child : exec.children) {
            if (child.label == "softmc.hammer")
                calls += child.calls;
        }
    }
    return calls;
}

TEST_F(HostFixture, HammerRunExecutesAsOneHammerCall)
{
    DramModule module2(smallSpec(), 1);
    SoftMcHost interp(module2);
    interp.setExecMode(ExecMode::kInterpreted);
    Program program;
    program.hammer(0, 42, 100).hammer(0, 44, 100); // 2 × 100 (ACT, PRE)

    EXPECT_EQ(hammerCallsOf(host, program), 2U);
    EXPECT_EQ(hammerCallsOf(interp, program), 0U);
    EXPECT_EQ(host.now(), interp.now());
    EXPECT_EQ(host.actCount(), 200U);
    EXPECT_EQ(interp.actCount(), 200U);
}

TEST_F(HostFixture, RunsBreakAtRowAndBankBoundaries)
{
    // Interleaved double-sided hammer: the ACT+PRE pairs alternate rows
    // and banks, so each pair is a run of one and none folds. Neither
    // does a lone pair followed by an open-row write on its row.
    Program program;
    for (int i = 0; i < 3; ++i) {
        program.hammer(0, 10, 1);
        program.hammer(1, 20, 1);
    }
    program.hammer(0, 10, 1);
    program.act(0, 10);
    program.wr(0, DataPattern::allZeros());
    program.wrWord(0, 3, 0xfeedULL);
    program.pre(0);

    EXPECT_EQ(hammerCallsOf(host, program), 0U);
    EXPECT_EQ(host.actCount(), 8U);
    EXPECT_EQ(host.now(), 8 * host.timing().hammerCycle() +
                              2 * host.timing().tBURST);
}

#endif // !UTRR_MUTATION_FUSION_OFF_BY_ONE

TEST_F(HostFixture, CompiledAndInterpretedTiersMatchBitForBit)
{
    // One host per tier over identically-seeded silicon: reads, clock
    // and ACT accounting must agree exactly.
    DramModule module2(smallSpec(), 1);
    SoftMcHost interp(module2);
    host.setExecMode(ExecMode::kCompiled);
    interp.setExecMode(ExecMode::kInterpreted);

    Program program;
    program.writeRow(0, 500, DataPattern::allOnes());
    program.writeRow(0, 499, DataPattern::allZeros());
    program.writeRow(0, 501, DataPattern::allZeros());
    for (int i = 0; i < 2000; ++i) {
        program.hammer(0, 499, 1);
        program.hammer(0, 501, 1);
    }
    program.hammer(0, 499, 5000).hammer(0, 501, 5000);
    program.ref(16).readRow(0, 500);

    const ExecResult a = host.execute(program);
    const ExecResult b = interp.execute(program);
    EXPECT_EQ(host.now(), interp.now());
    EXPECT_EQ(host.actCount(), interp.actCount());
    ASSERT_EQ(a.reads.size(), b.reads.size());
    for (std::size_t i = 0; i < a.reads.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(a.reads[i].bank, b.reads[i].bank);
        EXPECT_EQ(a.reads[i].row, b.reads[i].row);
        EXPECT_EQ(a.reads[i].when, b.reads[i].when);
        EXPECT_EQ(a.reads[i].readout.rawFlips(),
                  b.reads[i].readout.rawFlips());
    }
}

} // namespace
} // namespace utrr
