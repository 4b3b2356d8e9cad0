#include <gtest/gtest.h>

#include "attack/sweep.hh"
#include "dram/module.hh"
#include "softmc/host.hh"

namespace utrr
{
namespace
{

/**
 * Parameterized sanity sweep over all 45 Table-1 module
 * configurations: every module must construct, serve basic command
 * sequences, fire its TRR under hammering, and yield sane custom
 * attack parameters.
 */
class EveryModule : public ::testing::TestWithParam<std::string>
{
  protected:
    ModuleSpec
    spec() const
    {
        return *findModuleSpec(GetParam());
    }
};

TEST_P(EveryModule, ConstructsAndRoundTrips)
{
    DramModule module(spec(), 3);
    SoftMcHost host(module);
    const Row row = 1'234;
    host.writeRow(0, row, DataPattern::checkerboard());
    EXPECT_EQ(host.readRow(0, row).countFlipsVs(
                  DataPattern::checkerboard(), row),
              0);
    // The last bank works too.
    const Bank last = spec().banks - 1;
    host.writeRow(last, row, DataPattern::colStripe());
    EXPECT_EQ(host.readRow(last, row)
                  .countFlipsVs(DataPattern::colStripe(), row),
              0);
}

TEST_P(EveryModule, TrrFiresUnderSustainedHammering)
{
    DramModule module(spec(), 4);
    SoftMcHost host(module);
    // Hammer two rows and REF for two nominal refresh periods.
    const int period = spec().traits().trrToRefPeriod;
    for (int slot = 0; slot < 4 * period + 4; ++slot) {
        host.hammerInterleaved({{0, 4'000}, {0, 4'002}}, {60, 60});
        host.ref();
    }
    EXPECT_GT(module.trrRefreshCount(), 0u)
        << trrVersionName(spec().trr);
}

TEST_P(EveryModule, MappingRoundTripsEveryBank)
{
    DramModule module(spec(), 5);
    for (Bank b = 0; b < spec().banks; ++b) {
        for (Row r : {0, 1, 2, 3, 1'000, spec().rowsPerBank - 1}) {
            EXPECT_EQ(module.toLogical(b, module.toPhysical(b, r)), r)
                << "bank " << b << " row " << r;
        }
    }
}

TEST_P(EveryModule, CustomParamsAreExecutable)
{
    const ModuleSpec s = spec();
    const CustomPatternParams params = defaultCustomParams(s);
    EXPECT_EQ(params.vendor, s.vendor);
    EXPECT_EQ(params.trrPeriod, s.traits().trrToRefPeriod);
    EXPECT_GT(params.aggressorHammers, 0);

    // One pattern slot must fit in a REF interval.
    DramModule module(s, 6);
    SoftMcHost host(module);
    const DiscoveredMapping mapping(s.scramble, s.rowsPerBank);
    const HammerPattern pattern = customPattern(params, host.timing());
    const PatternBinding binding =
        bindCustomPattern(pattern, s, mapping, 0, 5'000);
    AttackEvaluator evaluator(host);
    const Time slot_budget =
        host.timing().tREFI - host.timing().tRFC;
    for (std::uint64_t slot = 0; slot < 4; ++slot) {
        const Time start = host.now();
        evaluator.runSlot(pattern, binding, slot);
        EXPECT_LE(host.now() - start, slot_budget) << "slot " << slot;
        host.wait(slot_budget - (host.now() - start));
        host.ref();
    }
}

std::vector<std::string>
allModuleNames()
{
    std::vector<std::string> names;
    for (const ModuleSpec &spec : allModuleSpecs())
        names.push_back(spec.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(Table1, EveryModule,
                         ::testing::ValuesIn(allModuleNames()));

} // namespace
} // namespace utrr
