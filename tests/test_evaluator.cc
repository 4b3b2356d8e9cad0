#include <gtest/gtest.h>

#include "attack/evaluator.hh"
#include "dram/module.hh"
#include "softmc/host.hh"

namespace utrr
{
namespace
{

/** Align works against every vendor's TRR cadence. */
class AlignPerVendor : public ::testing::TestWithParam<const char *>
{
};

TEST_P(AlignPerVendor, StopsRightAfterATrrEvent)
{
    const ModuleSpec spec = *findModuleSpec(GetParam());
    DramModule module(spec, 81);
    SoftMcHost host(module);
    AttackEvaluator evaluator(host);

    const std::uint64_t before = module.trrRefreshCount();
    evaluator.alignToTrrEvent(0, 9'000);
    const std::uint64_t after = module.trrRefreshCount();
    ASSERT_GT(after, before);

    // The very next REFs must not fire again until a full TRR period
    // has elapsed (the dummy row keeps the detector fed).
    const int period = spec.traits().trrToRefPeriod;
    for (int i = 1; i < period; ++i) {
        host.hammer(0, 9'000, 8);
        host.ref();
        EXPECT_EQ(module.trrRefreshCount(), after)
            << "unexpected TRR refresh " << i
            << " REFs after alignment";
    }
}

INSTANTIATE_TEST_SUITE_P(Vendors, AlignPerVendor,
                         ::testing::Values("A5", "B8", "B13", "C9",
                                           "C12"));

TEST(Evaluator, AlignGivesUpWithoutTrr)
{
    ModuleSpec spec = *findModuleSpec("A5");
    spec.trr = TrrVersion::kNone;
    DramModule module(spec, 82);
    SoftMcHost host(module);
    AttackEvaluator evaluator(host);
    const std::uint64_t refs = host.refCommandCount();
    evaluator.alignToTrrEvent(0, 9'000, 16);
    EXPECT_EQ(host.refCommandCount() - refs, 16u); // capped
}

TEST(Evaluator, WordHistogramMatchesVictimFlips)
{
    // Synthetic check: hammer without refresh so the victim flips,
    // then verify the word histogram covers exactly the flipped bits.
    ModuleSpec spec = *findModuleSpec("A5");
    spec.trr = TrrVersion::kNone;
    DramModule module(spec, 83);
    SoftMcHost host(module);
    const DiscoveredMapping mapping(spec.scramble, spec.rowsPerBank);
    AttackEvaluator evaluator(host);

    const Row anchor = 3'000;
    const AttackOutcome outcome = evaluator.run(
        uniformPattern(2, 74), bindComb(mapping, 0, anchor - 1, 2, 2),
        {{0, mapping.toLogical(anchor)}}, 1'024);

    std::uint64_t flips_from_words = 0;
    for (const auto &[count, n] : outcome.wordFlips.bins())
        flips_from_words += static_cast<std::uint64_t>(count) * n;
    EXPECT_EQ(flips_from_words,
              static_cast<std::uint64_t>(outcome.totalFlips()));
}

TEST(Evaluator, RefsIssuedOncePerSlot)
{
    ModuleSpec spec = *findModuleSpec("A5");
    spec.trr = TrrVersion::kNone;
    DramModule module(spec, 84);
    SoftMcHost host(module);
    AttackEvaluator evaluator(host);
    PatternBinding binding;
    binding.aggressors = {100};
    const std::uint64_t refs = host.refCommandCount();
    const Time start = host.now();
    evaluator.run(uniformPattern(1, 10), binding, {{0, 200}}, 64);
    EXPECT_EQ(host.refCommandCount() - refs, 64u);
    // Wall time: 64 slots at tREFI each (plus init/readback).
    EXPECT_GE(host.now() - start, 64 * host.timing().tREFI);
}

} // namespace
} // namespace utrr
