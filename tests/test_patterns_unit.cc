#include <gtest/gtest.h>

#include <map>

#include "attack/evaluator.hh"
#include "attack/sweep.hh"
#include "dram/module.hh"
#include "mitigation/mitigation.hh"
#include "softmc/host.hh"

namespace utrr
{
namespace
{

struct PatternFixture : public ::testing::Test
{
    PatternFixture()
        : spec(*findModuleSpec("B8")), module(spec, 71), host(module),
          mapping(spec.scramble, spec.rowsPerBank)
    {
    }

    ModuleSpec spec;
    DramModule module;
    SoftMcHost host;
    DiscoveredMapping mapping;
};

TEST_F(PatternFixture, VendorBFrontLoadsAggressors)
{
    // Aggressors hammer right after the TRR-capable REF (window slot
    // 0), dummies fill the later slots.
    CustomPatternParams params;
    params.vendor = 'B';
    params.trrPeriod = 4;
    params.aggressorHammers = 220;
    const HammerPattern pattern = customPattern(params, host.timing());
    const PatternBinding binding =
        bindCustomPattern(pattern, spec, mapping, 0, 101);
    AttackEvaluator evaluator(host);

    const std::uint64_t acts0 = host.actCount();
    evaluator.runSlot(pattern, binding, 0);
    const std::uint64_t after0 = host.actCount();
    // Slot 0: up to 74 hammers per aggressor (capacity/2) + dummies.
    const std::uint64_t aggr_bank_acts =
        module.bankAt(0).actCount();
    EXPECT_GE(aggr_bank_acts, 140u);
    EXPECT_GT(after0, acts0);

    // By the last slot of the window the aggressor quota is exhausted:
    // only dummies hammer.
    evaluator.runSlot(pattern, binding, 1);
    evaluator.runSlot(pattern, binding, 2);
    const std::uint64_t bank0_before = module.bankAt(0).actCount();
    evaluator.runSlot(pattern, binding, 3);
    EXPECT_EQ(module.bankAt(0).actCount(), bank0_before);

    // A new window replenishes the quota.
    evaluator.runSlot(pattern, binding, 4);
    EXPECT_GT(module.bankAt(0).actCount(), bank0_before);
}

TEST_F(PatternFixture, VendorCBurstPrecedesAggressors)
{
    const ModuleSpec c_spec = *findModuleSpec("C9");
    DramModule c_module(c_spec, 72);
    SoftMcHost c_host(c_module);
    const Row dummy = 9'000;
    CustomPatternParams params;
    params.vendor = 'C';
    params.trrPeriod = 9;
    params.aggressorHammers = 470; // leaves a 401-ACT dummy burst
    const HammerPattern pattern = customPattern(params, c_host.timing());
    PatternBinding binding;
    binding.aggressors = {100, 102};
    binding.dummies = {dummy};
    AttackEvaluator evaluator(c_host);

    // Slot 0 and 1: first 401 ACTs go to the dummy; remaining budget
    // to the aggressors.
    evaluator.runSlot(pattern, binding, 0); // 149 dummy ACTs
    evaluator.runSlot(pattern, binding, 1); // 149 dummy ACTs
    evaluator.runSlot(pattern, binding, 2); // 103 dummy + 23 per aggressor
    const Row dummy_phys = c_module.toPhysical(0, dummy);
    // The dummy row itself was activated 401 times in this window.
    // (White-box check through the bank ACT counter is total-bank, so
    // check via the victim charge of the dummy's neighbour instead.)
    const RowState *neighbour =
        c_module.bankAt(0).peekRow(dummy_phys + 1);
    ASSERT_NE(neighbour, nullptr);
    EXPECT_GT(neighbour->hammerCharge(), 100.0);
}

TEST_F(PatternFixture, SingleAndManySidedActCounts)
{
    AttackEvaluator evaluator(host);
    PatternBinding single;
    single.aggressors = {500};
    const std::uint64_t before = host.actCount();
    evaluator.runSlot(uniformPattern(1, 10), single, 0);
    EXPECT_EQ(host.actCount() - before, 10u);

    const HammerPattern many = uniformPattern(3, 5);
    PatternBinding comb;
    comb.aggressors = {600, 602, 604};
    const std::uint64_t before_many = host.actCount();
    evaluator.runSlot(many, comb, 0);
    EXPECT_EQ(host.actCount() - before_many, 15u);
    EXPECT_EQ(many.aggressorRowCount(), 3);
    EXPECT_EQ(bindComb(mapping, 0, 599, 3, 2).aggressors.size(), 3u);
}

/** Delays every ACT, as a throttling mitigation does. */
class ThrottleEveryAct : public ControllerMitigation
{
  public:
    explicit ThrottleEveryAct(Time delay) : delay(delay) {}

    MitigationAction
    onActivate(Bank, Row row, Time) override
    {
        acts[row] += 1;
        MitigationAction action;
        action.delayNs = delay;
        delayed += delay;
        return action;
    }

    void reset() override { acts.clear(); }
    std::string name() const override { return "throttle"; }

    std::map<Row, int> acts;

  private:
    Time delay;
};

TEST_F(PatternFixture, EvaluatorKeepsRefCadenceUnderOverruns)
{
    // A slot throttled to 3x its interval must lose hammer slots, not
    // stretch the REF cadence.
    const int hammers = 10;
    ThrottleEveryAct throttle(3 * host.timing().tREFI / hammers);
    host.attachMitigation(&throttle);
    PatternBinding binding;
    binding.aggressors = {60};
    AttackEvaluator evaluator(host);
    const std::uint64_t refs_before = host.refCommandCount();
    evaluator.run(uniformPattern(1, hammers), binding, {{0, 50}}, 12);
    // All 12 REFs issued...
    EXPECT_EQ(host.refCommandCount() - refs_before, 12u);
    // ...but the pattern only got to run in a fraction of the slots
    // (one ACT of the aggressor is its data write).
    const int slots_run = (throttle.acts[60] - 1) / hammers;
    EXPECT_GE(slots_run, 1);
    EXPECT_LE(slots_run, 5);
}

TEST_F(PatternFixture, CustomVictimsForNormalModules)
{
    const HammerPattern pattern =
        customPattern(defaultCustomParams(spec), host.timing());
    const auto victims = patternVictims(pattern, spec, mapping, 0, 5'000);
    ASSERT_EQ(victims.size(), 1u);
    EXPECT_EQ(mapping.toPhysical(victims[0].second), 5'000);
}

TEST_F(PatternFixture, FarDummySelectionRespectsDistance)
{
    const HammerPattern pattern =
        customPattern(defaultCustomParams(spec), host.timing());
    const PatternBinding binding =
        bindCustomPattern(pattern, spec, mapping, 0, 5'000);
    AttackEvaluator evaluator(host);
    evaluator.runSlot(pattern, binding, 0);
    evaluator.runSlot(pattern, binding, 1);
    evaluator.runSlot(pattern, binding, 2);
    evaluator.runSlot(pattern, binding, 3);
    // No dummy activity may have disturbed the victim neighbourhood:
    // rows within +-2 of the victim got charge only from the two
    // aggressors.
    for (Row d : {-2, -1, 1, 2}) {
        const RowState *row =
            module.bankAt(0).peekRow(5'000 + d);
        if (row == nullptr)
            continue;
        const Row disturber = row->lastDisturber();
        if (disturber != kInvalidRow) {
            EXPECT_LE(std::abs(disturber - 5'000), 2)
                << "victim neighbourhood disturbed by row "
                << disturber;
        }
    }
}

} // namespace
} // namespace utrr
