#include <gtest/gtest.h>

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
    spec.trr = TrrVersion::kNone;
    spec.rowsPerBank = 2'048;
    spec.banks = 2;
    spec.remapsPerBank = 0;
    spec.scramble = RowScramble::kSequential;
    return spec;
}

TEST(HostProtocol, ReadWithoutActDies)
{
    DramModule module(smallSpec(), 1);
    SoftMcHost host(module);
    EXPECT_DEATH(host.rd(0), "RD with no open row");
}

// A program's RD reaches rd() before its row address is translated, so
// a closed bank dies with the host's own message.
TEST(HostProtocol, ProgramReadWithoutActDies)
{
    DramModule module(smallSpec(), 1);
    SoftMcHost host(module);
    Program program;
    program.rd(0);
    EXPECT_DEATH(host.execute(program), "RD with no open row");
}

// The protocol check comes before the injector is consulted: a VRT
// draw on the read or a WR-drop draw that hits must not turn a closed
// bank into an out-of-range row or a silently "dropped" WR.
TEST(HostProtocol, ProgramReadWithoutActDiesUnderFaults)
{
    DramModule module(smallSpec(), 1);
    SoftMcHost host(module);
    FaultConfig faults;
    faults.vrtFlipChancePerRead = 1.0;
    FaultInjector injector(faults, 1);
    host.attachFaultInjector(&injector);
    Program program;
    program.rd(0);
    EXPECT_DEATH(host.execute(program), "RD with no open row");
}

TEST(HostProtocol, WriteWithoutActDiesUnderFaults)
{
    DramModule module(smallSpec(), 1);
    SoftMcHost host(module);
    FaultConfig faults;
    faults.dropWrChance = 1.0;
    FaultInjector injector(faults, 1);
    host.attachFaultInjector(&injector);
    EXPECT_DEATH(host.wr(0, DataPattern::allOnes()),
                 "WR with no open row");
}

TEST(HostProtocol, WriteWithoutActDies)
{
    DramModule module(smallSpec(), 1);
    SoftMcHost host(module);
    EXPECT_DEATH(host.wr(0, DataPattern::allOnes()),
                 "WR with no open row");
}

TEST(HostProtocol, DoubleActDies)
{
    DramModule module(smallSpec(), 1);
    SoftMcHost host(module);
    host.act(0, 5);
    EXPECT_DEATH(host.act(0, 6), "still open");
}

TEST(HostProtocol, OutOfRangeRowDies)
{
    DramModule module(smallSpec(), 1);
    SoftMcHost host(module);
    EXPECT_DEATH(host.act(0, 1'000'000), "out of range");
    EXPECT_DEATH(host.act(0, -1), "out of range");
}

TEST(HostProtocol, OutOfRangeBankDies)
{
    DramModule module(smallSpec(), 1);
    SoftMcHost host(module);
    EXPECT_DEATH(host.act(7, 0), "bank");
}

TEST(HostProtocol, NegativeWaitDies)
{
    DramModule module(smallSpec(), 1);
    SoftMcHost host(module);
    EXPECT_DEATH(host.wait(-5), "negative");
}

TEST(HostProtocol, BanksAreIndependent)
{
    DramModule module(smallSpec(), 2);
    SoftMcHost host(module);
    host.act(0, 10);
    host.act(1, 20); // different bank: legal while bank 0 is open
    host.wr(0, DataPattern::allOnes());
    host.wr(1, DataPattern::allZeros());
    const RowReadout r0 = host.rd(0);
    const RowReadout r1 = host.rd(1);
    host.pre(0);
    host.pre(1);
    EXPECT_EQ(r0.countFlipsVs(DataPattern::allOnes(), 10), 0);
    EXPECT_EQ(r1.countFlipsVs(DataPattern::allZeros(), 20), 0);
}

TEST(HostProtocol, InterleavedCountMismatchDies)
{
    DramModule module(smallSpec(), 1);
    SoftMcHost host(module);
    EXPECT_DEATH(host.hammerInterleaved({{0, 1}}, {1, 2}),
                 "one count per aggressor");
}

TEST(HostProtocol, ClockMonotonicAcrossOperations)
{
    DramModule module(smallSpec(), 3);
    SoftMcHost host(module);
    Time last = host.now();
    auto advance = [&](auto &&op) {
        op();
        EXPECT_GE(host.now(), last);
        last = host.now();
    };
    advance([&] { host.writeRow(0, 4, DataPattern::allOnes()); });
    advance([&] { host.hammer(0, 100, 7); });
    advance([&] { host.ref(); });
    advance([&] { host.wait(123); });
    advance([&] { host.waitWithRefresh(50'000); });
    advance([&] { host.readRow(0, 4); });
}

TEST(HostProtocol, WrWordRoundTrip)
{
    DramModule module(smallSpec(), 4);
    SoftMcHost host(module);
    host.act(0, 9);
    host.wr(0, DataPattern::allZeros());
    host.wrWord(0, 3, 0xdeadbeefULL);
    const RowReadout readout = host.rd(0);
    host.pre(0);
    EXPECT_EQ(readout.word(3), 0xdeadbeefULL);
    EXPECT_EQ(readout.word(2), 0ULL);
}

} // namespace
} // namespace utrr
