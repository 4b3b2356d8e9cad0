#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

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
    spec.rowsPerBank = 2 * 1024;
    spec.banks = 2;
    spec.remapsPerBank = 0;
    spec.scramble = RowScramble::kSequential;
    return spec;
}

TEST(FaultConfig, DisabledByDefault)
{
    FaultConfig cfg;
    EXPECT_FALSE(cfg.anyEnabled());
    FaultInjector injector(cfg, 1);
    EXPECT_FALSE(injector.enabled());
}

TEST(FaultConfig, ChaosDefaultsEnableEveryHook)
{
    const FaultConfig cfg = FaultConfig::chaosDefaults();
    EXPECT_TRUE(cfg.anyEnabled());
    EXPECT_GT(cfg.vrtFlipChancePerRead, 0.0);
    EXPECT_GT(cfg.readNoiseChancePerRead, 0.0);
    EXPECT_GT(cfg.refJitterChance, 0.0);
    EXPECT_GT(cfg.dropRefChance, 0.0);
    EXPECT_GT(cfg.dropWrChance, 0.0);
    EXPECT_GT(cfg.dropHammerActChance, 0.0);
    EXPECT_GT(cfg.tempStepIntervalNs, 0);
}

TEST(FaultConfig, EachRateAloneEnables)
{
    FaultConfig cfg;
    cfg.vrtFlipChancePerRead = 0.1;
    EXPECT_TRUE(cfg.anyEnabled());
    cfg = FaultConfig();
    cfg.tempStepIntervalNs = 1'000;
    EXPECT_TRUE(cfg.anyEnabled());
    cfg = FaultConfig();
    cfg.dropHammerActChance = 0.5;
    EXPECT_TRUE(cfg.anyEnabled());
}

TEST(FaultInjector, DropHooksFireAtRateOne)
{
    FaultConfig cfg;
    cfg.dropRefChance = 1.0;
    cfg.dropWrChance = 1.0;
    cfg.dropHammerActChance = 1.0;
    FaultInjector injector(cfg, 2);
    EXPECT_TRUE(injector.shouldDropRef(0));
    EXPECT_TRUE(injector.shouldDropWr(0, 10));
    EXPECT_TRUE(injector.shouldDropHammerAct(0, 5, 20));
    EXPECT_EQ(injector.stats().droppedRefs, 1u);
    EXPECT_EQ(injector.stats().droppedWrs, 1u);
    EXPECT_EQ(injector.stats().droppedHammerActs, 1u);
    EXPECT_EQ(injector.stats().droppedCommands(), 3u);
}

TEST(FaultInjector, DropHooksNeverFireAtRateZero)
{
    FaultInjector injector(FaultConfig{}, 2);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(injector.shouldDropRef(i));
        EXPECT_FALSE(injector.shouldDropWr(0, i));
        EXPECT_FALSE(injector.shouldDropHammerAct(0, 5, i));
    }
    EXPECT_EQ(injector.stats().droppedCommands(), 0u);
}

TEST(FaultInjector, RefJitterStaysWithinBound)
{
    FaultConfig cfg;
    cfg.refJitterChance = 1.0;
    cfg.refJitterMaxNs = 200;
    FaultInjector injector(cfg, 3);
    bool nonzero = false;
    for (int i = 0; i < 200; ++i) {
        const Time jitter = injector.refJitter(i);
        EXPECT_GE(jitter, -200);
        EXPECT_LE(jitter, 200);
        nonzero = nonzero || jitter != 0;
    }
    EXPECT_TRUE(nonzero);
    EXPECT_EQ(injector.stats().jitteredRefs, 200u);
}

TEST(FaultInjector, VrtFlipTogglesRowMembership)
{
    DramModule module(smallSpec(), 7);
    FaultConfig cfg;
    cfg.vrtFlipChancePerRead = 1.0;
    cfg.vrtScaleFactor = 3.0;
    FaultInjector injector(cfg, 4);

    injector.onRowRead(module, 0, 100, 0);
    EXPECT_EQ(injector.vrtFlippedRowCount(), 1u);
    injector.onRowRead(module, 0, 100, 10);
    EXPECT_EQ(injector.vrtFlippedRowCount(), 0u);
    injector.onRowRead(module, 1, 200, 20);
    EXPECT_EQ(injector.vrtFlippedRowCount(), 1u);
    EXPECT_EQ(injector.stats().vrtFlips, 3u);
}

TEST(FaultInjector, ReadNoiseInjectsBoundedBits)
{
    DramModule module(smallSpec(), 7);
    SoftMcHost host(module);
    host.writeRow(0, 50, DataPattern::allOnes());
    RowReadout readout = host.readRow(0, 50);
    EXPECT_TRUE(readout.rawFlips().empty());

    FaultConfig cfg;
    cfg.readNoiseChancePerRead = 1.0;
    cfg.readNoiseMaxBits = 2;
    FaultInjector injector(cfg, 5);
    injector.corruptReadout(readout, 0, 0);
    const std::size_t corrupted = readout.rawFlips().size();
    EXPECT_GE(corrupted, 1u);
    EXPECT_LE(corrupted, 2u);
    EXPECT_EQ(injector.stats().noiseBits, corrupted);
}

TEST(FaultInjector, TemperatureWalkStaysClamped)
{
    DramModule module(smallSpec(), 7);
    FaultConfig cfg;
    cfg.tempStepIntervalNs = 1'000;
    cfg.tempStepMaxFactor = 1.01;
    cfg.tempMaxDrift = 1.05;
    FaultInjector injector(cfg, 6);

    injector.onTimeAdvance(module, 0, 500'000);
    EXPECT_GT(injector.stats().tempSteps, 0u);
    EXPECT_GE(injector.temperatureScale(), 1.0 / 1.05 - 1e-12);
    EXPECT_LE(injector.temperatureScale(), 1.05 + 1e-12);
}

TEST(FaultInjector, MetricsExported)
{
    FaultConfig cfg;
    cfg.dropRefChance = 1.0;
    FaultInjector injector(cfg, 8);
    EXPECT_TRUE(injector.shouldDropRef(0));

    MetricsRegistry registry;
    injector.attachMetrics(&registry);
    // Attachment seeds already-accumulated tallies.
    EXPECT_EQ(registry.counter("fault.dropped_refs").value, 1u);
    EXPECT_TRUE(injector.shouldDropRef(1));
    EXPECT_EQ(registry.counter("fault.dropped_refs").value, 2u);
}

/**
 * The tentpole invariant: attaching an injector whose every rate is
 * zero must be bit-identical to not attaching one. Run a representative
 * experiment (write, hammer, refresh at default rate, retention wait,
 * read back) on two hosts and compare every observable.
 */
TEST(FaultInjector, RateZeroInjectorIsBitIdentical)
{
    const ModuleSpec spec = smallSpec();
    DramModule plain_module(spec, 99);
    DramModule faulty_module(spec, 99);
    SoftMcHost plain(plain_module);
    SoftMcHost faulty(faulty_module);
    FaultInjector injector(FaultConfig{}, 12345);
    faulty.attachFaultInjector(&injector);

    auto experiment = [](SoftMcHost &host) {
        std::vector<std::vector<Col>> observations;
        for (Row row = 40; row < 44; ++row)
            host.writeRow(0, row, DataPattern::colStripe());
        host.hammer(0, 41, 2'000);
        host.refAtDefaultRate(16);
        host.waitWithRefresh(50 * kNsPerMs);
        host.wait(800 * kNsPerMs);
        for (Row row = 40; row < 44; ++row)
            observations.push_back(host.readRow(0, row).rawFlips());
        return observations;
    };

    const auto expected = experiment(plain);
    const auto observed = experiment(faulty);
    EXPECT_EQ(expected, observed);
    EXPECT_EQ(plain.now(), faulty.now());
    EXPECT_EQ(plain.actCount(), faulty.actCount());
    EXPECT_EQ(plain.refCommandCount(), faulty.refCommandCount());
    EXPECT_EQ(injector.stats().droppedCommands(), 0u);
    EXPECT_EQ(injector.stats().vrtFlips, 0u);
    EXPECT_EQ(injector.stats().noiseBits, 0u);
}

TEST(Watchdog, ExpiresWithStructuredError)
{
    DramModule module(smallSpec(), 7);
    SoftMcHost host(module);
    host.wait(1'000);
    const Time armed_at = host.now();
    host.setWatchdogBudget(10'000);
    EXPECT_EQ(host.watchdogDeadline(), armed_at + 10'000);

    try {
        host.waitWithRefresh(10 * kNsPerMs);
        FAIL() << "watchdog did not fire";
    } catch (const WatchdogTimeout &e) {
        EXPECT_EQ(e.budgetNs, 10'000);
        EXPECT_EQ(e.deadlineNs, armed_at + 10'000);
        EXPECT_GT(e.nowNs, e.deadlineNs);
        EXPECT_EQ(e.actsIssued, host.actCount());
        EXPECT_EQ(e.refsIssued, host.refCommandCount());
        EXPECT_NE(std::string(e.what()).find("watchdog"),
                  std::string::npos);
    }

    // The host stays usable after disarming.
    host.clearWatchdog();
    EXPECT_EQ(host.watchdogDeadline(), -1);
    host.writeRow(0, 10, DataPattern::allOnes());
    EXPECT_TRUE(host.readRow(0, 10).rawFlips().empty());
}

TEST(Watchdog, GenerousBudgetNeverFires)
{
    DramModule module(smallSpec(), 7);
    SoftMcHost host(module);
    host.setWatchdogBudget(3'600ll * 1'000'000'000);
    host.writeRow(0, 10, DataPattern::allOnes());
    host.hammer(0, 11, 100);
    host.refAtDefaultRate(8);
    EXPECT_NO_THROW(host.waitWithRefresh(100 * kNsPerMs));
}

// A deadline after the last hammer ACT's poll point but inside its PRE:
// in both tiers the burst completes, and the next command throws the
// same timeout (the interpreter polls after each ACT, never after a
// PRE, and the compiled fold must not poll later than it does).
TEST(Watchdog, DeadlineInsideTheLastPreFiresOnTheNextCommand)
{
    using Fired = std::tuple<Time, Time, Time, std::uint64_t,
                             std::uint64_t>;
    const auto probe = [](ExecMode mode) {
        DramModule module(*findModuleSpec("A0"), 7);
        SoftMcHost host(module);
        host.setExecMode(mode);
        const Timing &timing = host.timing();
        host.setWatchdogBudget(99 * timing.hammerCycle() + timing.tRAS);
        EXPECT_NO_THROW(host.hammer(0, 1'000, 100));
        EXPECT_EQ(host.now(), 100 * timing.hammerCycle());
        try {
            host.ref();
        } catch (const WatchdogTimeout &e) {
            return Fired{e.budgetNs, e.deadlineNs, e.nowNs, e.actsIssued,
                         e.refsIssued};
        }
        ADD_FAILURE() << "watchdog did not fire on the next command";
        return Fired{};
    };
    const Fired compiled = probe(ExecMode::kCompiled);
    EXPECT_EQ(std::get<3>(compiled), 100U);
    EXPECT_EQ(compiled, probe(ExecMode::kInterpreted));
}

// A dropped hammer cycle polls the watchdog only after its whole cycle,
// so with every cycle dropped (chance(1) draws nothing) the deadline
// inside the last PRE lies before the last poll point: the interpreter
// throws inside the call, after the 100th ACT, and the compiled tier
// must throw the same timeout rather than fold the burst past it.
TEST(Watchdog, DroppedLastCycleFiresInsideTheBurstInBothTiers)
{
    using Fired = std::tuple<Time, Time, Time, std::uint64_t,
                             std::uint64_t>;
    const auto probe = [](ExecMode mode) {
        DramModule module(*findModuleSpec("A0"), 7);
        SoftMcHost host(module);
        host.setExecMode(mode);
        FaultConfig cfg;
        cfg.dropHammerActChance = 1.0;
        FaultInjector injector(cfg, 3);
        host.attachFaultInjector(&injector);
        const Timing &timing = host.timing();
        host.setWatchdogBudget(99 * timing.hammerCycle() + timing.tRAS);
        try {
            host.hammer(0, 1'000, 100);
        } catch (const WatchdogTimeout &e) {
            EXPECT_EQ(injector.stats().droppedHammerActs, 100U);
            return Fired{e.budgetNs, e.deadlineNs, e.nowNs, e.actsIssued,
                         e.refsIssued};
        }
        ADD_FAILURE() << "watchdog did not fire inside the burst";
        return Fired{};
    };
    const Fired interpreted = probe(ExecMode::kInterpreted);
    EXPECT_EQ(std::get<2>(interpreted), 5'000);
    EXPECT_EQ(std::get<3>(interpreted), 100U);
    EXPECT_EQ(probe(ExecMode::kCompiled), interpreted);
}

} // namespace
} // namespace utrr
