#include <gtest/gtest.h>

#include "attack/evaluator.hh"
#include "attack/sweep.hh"
#include "attack/synth.hh"
#include "attack/trrespass.hh"
#include "dram/module.hh"
#include "softmc/host.hh"

namespace utrr
{
namespace
{

struct AttackFixture
{
    explicit AttackFixture(const std::string &name,
                           std::uint64_t seed = 21)
        : spec(*findModuleSpec(name)), module(spec, seed), host(module),
          mapping(spec.scramble, spec.rowsPerBank)
    {
    }

    SweepConfig
    sweepConfig(int positions = 6)
    {
        SweepConfig cfg;
        cfg.positions = positions;
        return cfg;
    }

    ModuleSpec spec;
    DramModule module;
    SoftMcHost host;
    DiscoveredMapping mapping;
};

TEST(Patterns, SlotBudgetsRespected)
{
    AttackFixture fix("A5");
    const Timing timing = fix.host.timing();
    const Time slot_budget = timing.tREFI - timing.tRFC;

    const HammerPattern pattern =
        customPattern(defaultCustomParams(fix.spec), timing);
    const PatternBinding binding =
        bindCustomPattern(pattern, fix.spec, fix.mapping, 0, 5'000);
    AttackEvaluator evaluator(fix.host);
    for (std::uint64_t slot = 0; slot < 32; ++slot) {
        const Time start = fix.host.now();
        evaluator.runSlot(pattern, binding, slot);
        EXPECT_LE(fix.host.now() - start, slot_budget)
            << "slot " << slot;
        fix.host.wait(slot_budget - (fix.host.now() - start));
        fix.host.ref();
    }
}

TEST(Patterns, VendorAHammerCounts)
{
    AttackFixture fix("A5");
    const HammerPattern pattern =
        customPattern(defaultCustomParams(fix.spec), fix.host.timing());
    const PatternBinding binding =
        bindCustomPattern(pattern, fix.spec, fix.mapping, 0, 5'000);
    AttackEvaluator evaluator(fix.host);
    const std::uint64_t before = fix.host.actCount();
    evaluator.runSlot(pattern, binding, 0);
    // 2 aggressors x 24 + 16 dummies x 6 = 144 ACTs per slot.
    EXPECT_EQ(fix.host.actCount() - before, 144u);
}

TEST(Patterns, AggressorRowsAreVictimNeighbours)
{
    AttackFixture fix("A5");
    const Row anchor = 5'000;
    const HammerPattern pattern =
        customPattern(defaultCustomParams(fix.spec), fix.host.timing());
    const PatternBinding binding =
        bindCustomPattern(pattern, fix.spec, fix.mapping, 0, anchor);
    ASSERT_EQ(binding.aggressors.size(), 2u);
    std::vector<Row> phys;
    for (const Row logical : binding.aggressors)
        phys.push_back(fix.mapping.toPhysical(logical));
    std::sort(phys.begin(), phys.end());
    EXPECT_EQ(phys[0], anchor - 1);
    EXPECT_EQ(phys[1], anchor + 1);
}

TEST(Patterns, PairedAggressorsArePairRows)
{
    AttackFixture fix("C7");
    CustomPatternParams params = defaultCustomParams(fix.spec);
    ASSERT_TRUE(params.paired);
    const Row anchor = 5'000; // even
    const HammerPattern pattern =
        customPattern(params, fix.host.timing());
    const PatternBinding binding =
        bindCustomPattern(pattern, fix.spec, fix.mapping, 0, anchor);
    std::vector<Row> phys;
    for (const Row logical : binding.aggressors)
        phys.push_back(fix.mapping.toPhysical(logical));
    std::sort(phys.begin(), phys.end());
    EXPECT_EQ(phys[0], anchor + 1);     // pair of anchor
    EXPECT_EQ(phys[1], anchor + 3);     // pair of anchor + 2
    const auto victims =
        patternVictims(pattern, fix.spec, fix.mapping, 0, anchor);
    EXPECT_EQ(victims.size(), 2u);
}

TEST(Patterns, VendorBUsesMultipleBanksForDummies)
{
    AttackFixture fix("B8");
    CustomPatternParams params = defaultCustomParams(fix.spec);
    EXPECT_FALSE(params.perBankSampler);
    const HammerPattern pattern =
        customPattern(params, fix.host.timing());
    const PatternBinding binding =
        bindCustomPattern(pattern, fix.spec, fix.mapping, 0, 5'000);
    AttackEvaluator evaluator(fix.host);
    // Dummy hammering happens in banks other than the aggressor bank;
    // run a full window and check ACT distribution.
    for (std::uint64_t slot = 0; slot < 4; ++slot) {
        evaluator.runSlot(pattern, binding, slot);
        fix.host.ref();
    }
    int banks_with_acts = 0;
    for (Bank b = 0; b < fix.spec.banks; ++b)
        banks_with_acts +=
            fix.module.bankAt(b).actCount() > 0 ? 1 : 0;
    EXPECT_GE(banks_with_acts, 4);
}

TEST(Patterns, VendorB3DummySharesAggressorBank)
{
    AttackFixture fix("B13");
    CustomPatternParams params = defaultCustomParams(fix.spec);
    EXPECT_TRUE(params.perBankSampler);
    const HammerPattern pattern =
        customPattern(params, fix.host.timing());
    const PatternBinding binding =
        bindCustomPattern(pattern, fix.spec, fix.mapping, 0, 5'000);
    AttackEvaluator evaluator(fix.host);
    for (std::uint64_t slot = 0; slot < 2; ++slot) {
        evaluator.runSlot(pattern, binding, slot);
        fix.host.ref();
    }
    for (Bank b = 1; b < fix.spec.banks; ++b)
        EXPECT_EQ(fix.module.bankAt(b).actCount(), 0u);
}

TEST(AttackEvaluatorTest, AlignToTrrEventStopsAtEvent)
{
    AttackFixture fix("A5");
    AttackEvaluator evaluator(fix.host);
    const std::uint64_t before = fix.module.trrRefreshCount();
    evaluator.alignToTrrEvent(0, 9'000);
    EXPECT_GT(fix.module.trrRefreshCount(), before);
}

TEST(AttackEvaluatorTest, OutcomeAccounting)
{
    AttackOutcome outcome;
    outcome.victimFlips[{0, 1}] = 3;
    outcome.victimFlips[{0, 2}] = 0;
    outcome.victimFlips[{0, 3}] = 7;
    EXPECT_EQ(outcome.totalFlips(), 10);
    EXPECT_EQ(outcome.maxRowFlips(), 7);
    EXPECT_EQ(outcome.vulnerableRows(), 2);
}

TEST(Sweeps, CustomPatternBeatsBaselines)
{
    // The headline §7 result, in miniature: the U-TRR pattern flips
    // rows that single-, double- and many-sided hammering cannot.
    AttackFixture fix("A5");
    SweepConfig cfg;
    cfg.positions = 4;

    const SweepResult custom = sweepCustomPattern(
        fix.host, fix.mapping, defaultCustomParams(fix.spec), cfg);
    EXPECT_GE(custom.vulnerableRows, 3);
    EXPECT_GT(custom.maxRowFlips, 5);

    for (BaselineKind kind :
         {BaselineKind::kDoubleSided, BaselineKind::kManySided9}) {
        const SweepResult baseline =
            sweepBaseline(fix.host, fix.mapping, kind, cfg);
        EXPECT_EQ(baseline.vulnerableRows, 0) << baselineName(kind);
    }
}

TEST(Sweeps, WithoutTrrDoubleSidedFlips)
{
    // Sanity: the baselines fail *because of TRR*, not because the
    // hammering is too weak.
    ModuleSpec spec = *findModuleSpec("A5");
    spec.trr = TrrVersion::kNone;
    DramModule module(spec, 22);
    SoftMcHost host(module);
    DiscoveredMapping mapping(spec.scramble, spec.rowsPerBank);
    SweepConfig cfg;
    cfg.positions = 4;
    const SweepResult result =
        sweepBaseline(host, mapping, BaselineKind::kDoubleSided, cfg);
    EXPECT_GE(result.vulnerableRows, 3);
}

TEST(Sweeps, ResultArithmetic)
{
    SweepResult result;
    result.victimRowsTested = 10;
    result.vulnerableRows = 4;
    result.maxRowFlips = 30;
    result.hammersPerAggrPerRef = 20.0;
    EXPECT_DOUBLE_EQ(result.vulnerableFraction(), 0.4);
    EXPECT_DOUBLE_EQ(result.maxFlipsPerRowPerHammer(), 1.5);
}

// The non-uniform synthesizer must strictly dominate the uniform
// TRRespass baseline: one module per vendor where the black-box
// fuzzer finds nothing but the insight-seeded synthesis flips bits.
// Seeds are pinned — both searches are pure functions of them.
TEST(BaselineGuard, UniformFuzzerFailsWhereSynthesizerSucceeds)
{
    for (const char *name : {"A5", "B13", "C12"}) {
        AttackFixture fix(name, 2021);
        TrrespassFuzzer::Config fuzz_cfg;
        fuzz_cfg.attempts = 8;
        fuzz_cfg.positions = 2;
        TrrespassFuzzer fuzzer(fix.host, fix.mapping, fuzz_cfg, 1);
        const FuzzResult fuzz = fuzzer.fuzz();
        EXPECT_FALSE(fuzz.anyFlips())
            << name << ": uniform baseline unexpectedly flips ("
            << fuzz.best.describe() << ")";

        SynthConfig synth_cfg;
        synth_cfg.attempts = 8;
        synth_cfg.sweepBanks = 1;
        const SynthModuleResult synth = synthesizeForModule(
            fix.spec, synth_cfg, Rng(1).fork(name).fork("synth"));
        EXPECT_TRUE(synth.beaten) << name;
        EXPECT_GT(synth.verifyFlips, 0) << name;
    }
}

TEST(Sweeps, DefaultParamsPerVendor)
{
    EXPECT_EQ(defaultCustomParams(*findModuleSpec("A5")).vendor, 'A');
    EXPECT_EQ(defaultCustomParams(*findModuleSpec("A5")).trrPeriod, 9);
    EXPECT_EQ(defaultCustomParams(*findModuleSpec("B8")).aggressorHammers,
              220);
    // B_TRR3's 2-REF window only fits ~73 hammers per aggressor (§7.1).
    EXPECT_EQ(
        defaultCustomParams(*findModuleSpec("B13")).aggressorHammers,
        73);
    EXPECT_TRUE(defaultCustomParams(*findModuleSpec("C7")).paired);
}

} // namespace
} // namespace utrr
