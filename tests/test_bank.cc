#include <gtest/gtest.h>

#include "dram/bank.hh"

namespace utrr
{
namespace
{

struct BankFixture : public ::testing::Test
{
    BankFixture()
        : gen(RetentionModelConfig{}, hammerConfig(), 1, 64 * 1024),
          bank(0, 4'096, &gen)
    {
    }

    static HammerModelConfig
    hammerConfig()
    {
        HammerModelConfig cfg;
        cfg.hcFirst = 1'000;
        return cfg;
    }

    PhysicsGenerator gen;
    DramBank bank;
};

TEST_F(BankFixture, ActivateWriteReadRoundTrip)
{
    bank.activate(100, 0);
    bank.writeOpenRow(DataPattern::allOnes(), 100, 0);
    const RowReadout readout = bank.readOpenRow();
    bank.precharge(0);
    EXPECT_EQ(readout.countFlipsVs(DataPattern::allOnes(), 100), 0);
    EXPECT_EQ(bank.openRow(), kInvalidRow);
}

TEST_F(BankFixture, OpenRowTracked)
{
    EXPECT_EQ(bank.openRow(), kInvalidRow);
    bank.activate(7, 0);
    EXPECT_EQ(bank.openRow(), 7);
    bank.precharge(0);
    EXPECT_EQ(bank.openRow(), kInvalidRow);
}

TEST_F(BankFixture, ActCountsTracked)
{
    for (int i = 0; i < 5; ++i) {
        bank.activate(9, i);
        bank.precharge(i);
    }
    EXPECT_EQ(bank.actCount(), 5u);
}

TEST_F(BankFixture, ActivationDisturbsNeighbours)
{
    // Hammer row 100 many times; neighbours accumulate charge.
    for (int i = 0; i < 50; ++i) {
        bank.activate(100, i);
        bank.precharge(i);
    }
    const RowState *victim = bank.peekRow(101);
    ASSERT_NE(victim, nullptr);
    EXPECT_GT(victim->hammerCharge(), 0.0);
    EXPECT_EQ(victim->lastDisturber(), 100);
}

TEST_F(BankFixture, RepeatedActsDiscountedVsAlternating)
{
    // Single-sided: every disturbance after the first comes from the
    // same row and is weighted down.
    for (int i = 0; i < 100; ++i) {
        bank.activate(100, i);
        bank.precharge(i);
    }
    const double single = bank.peekRow(101)->hammerCharge();

    // Alternating double-sided: 100 ACTs total on the two sides.
    for (int i = 0; i < 50; ++i) {
        bank.activate(200, i);
        bank.precharge(i);
        bank.activate(202, i);
        bank.precharge(i);
    }
    const double alternating = bank.peekRow(201)->hammerCharge();
    EXPECT_GT(alternating, 1.5 * single);
}

TEST_F(BankFixture, DistanceTwoWeaker)
{
    for (int i = 0; i < 100; ++i) {
        bank.activate(300, i);
        bank.precharge(i);
    }
    const double d1 = bank.peekRow(301)->hammerCharge();
    const double d2 = bank.peekRow(302)->hammerCharge();
    EXPECT_GT(d1, 5.0 * d2);
}

TEST_F(BankFixture, RefreshRangeRestoresRows)
{
    bank.activate(50, 0);
    bank.writeOpenRow(DataPattern::allOnes(), 50, 0);
    bank.precharge(0);
    // Let it decay past any retention time, but refresh it first.
    bank.refreshRange(0, 100, msToNs(50));
    EXPECT_GT(bank.rowRefreshCount(), 0u);
    const RowState *row = bank.peekRow(50);
    EXPECT_EQ(row->lastRefresh(), msToNs(50));
}

TEST_F(BankFixture, RefreshRowOnUntouchedRowIsNoop)
{
    bank.refreshRow(999, 0);
    EXPECT_EQ(bank.peekRow(999), nullptr);
}

TEST_F(BankFixture, MaterializedRowsGrowLazily)
{
    EXPECT_EQ(bank.materializedRows(), 0u);
    bank.activate(10, 0);
    bank.precharge(0);
    // Activated row plus its 4 disturbed neighbours.
    EXPECT_EQ(bank.materializedRows(), 5u);
}

TEST_F(BankFixture, HammerCellsAttachLazilyAtChargeThreshold)
{
    // Light disturbance materializes the victim with retention physics
    // only: the ~cellsPerRow hammer population stays deferred.
    for (int i = 0; i < 10; ++i) {
        bank.activate(400, i);
        bank.precharge(i);
    }
    const RowState *victim = bank.peekRow(401);
    ASSERT_NE(victim, nullptr);
    EXPECT_GT(victim->hammerCharge(), 0.0);
    EXPECT_FALSE(victim->hasHammerCells());

    // Interleaved double-sided hammering far past the base threshold;
    // the next refresh crosses needsHammerCells() and attaches the
    // deferred population before restoring the row.
    for (int i = 0; i < 10'000; ++i) {
        bank.activate(400, 100 + i);
        bank.precharge(100 + i);
        bank.activate(402, 100 + i);
        bank.precharge(100 + i);
    }
    bank.refreshRow(401, 20'000);
    victim = bank.peekRow(401);
    EXPECT_TRUE(victim->hasHammerCells());
    EXPECT_EQ(victim->hammerCharge(), 0.0);
}

TEST_F(BankFixture, RefreshRangeClampsToPhysicalBounds)
{
    bank.activate(0, 0);
    bank.writeOpenRow(DataPattern::allOnes(), 0, 0);
    bank.precharge(0);
    // A sweep window extending past both ends of the bank clamps to
    // the physical row range: only the materialized rows (0 plus its
    // two disturbed right neighbours) are refreshed.
    bank.refreshRange(-100, 1 << 20, msToNs(10));
    EXPECT_EQ(bank.rowRefreshCount(), 3u);
    EXPECT_EQ(bank.peekRow(0)->lastRefresh(), msToNs(10));
}

TEST(PairedBank, OnlyPairRowDisturbed)
{
    HammerModelConfig ham;
    ham.hcFirst = 1'000;
    ham.paired = true;
    PhysicsGenerator gen(RetentionModelConfig{}, ham, 2, 64 * 1024);
    DramBank bank(0, 4'096, &gen);

    for (int i = 0; i < 50; ++i) {
        bank.activate(101, i); // odd row: pair is 100
        bank.precharge(i);
    }
    ASSERT_NE(bank.peekRow(100), nullptr);
    EXPECT_GT(bank.peekRow(100)->hammerCharge(), 0.0);
    // Non-pair neighbour 102 must be untouched.
    EXPECT_EQ(bank.peekRow(102), nullptr);
}

TEST(DataCoupling, SameDataDisturbsLess)
{
    HammerModelConfig ham;
    ham.hcFirst = 1'000;
    PhysicsGenerator gen(RetentionModelConfig{}, ham, 3, 64 * 1024);
    DramBank bank(0, 4'096, &gen);

    // Victim 101 stores ones; aggressor 100 stores zeros (inverse).
    bank.activate(101, 0);
    bank.writeOpenRow(DataPattern::allOnes(), 101, 0);
    bank.precharge(0);
    bank.activate(100, 0);
    bank.writeOpenRow(DataPattern::allZeros(), 100, 0);
    bank.precharge(0);
    for (int i = 0; i < 100; ++i) {
        bank.activate(100, i);
        bank.precharge(i);
    }
    const double inverse_data = bank.peekRow(101)->hammerCharge();

    // Same set-up but aggressor stores the same data as the victim.
    bank.activate(201, 0);
    bank.writeOpenRow(DataPattern::allOnes(), 201, 0);
    bank.precharge(0);
    bank.activate(200, 0);
    bank.writeOpenRow(DataPattern::allOnes(), 200, 0);
    bank.precharge(0);
    for (int i = 0; i < 100; ++i) {
        bank.activate(200, i);
        bank.precharge(i);
    }
    const double same_data = bank.peekRow(201)->hammerCharge();
    EXPECT_LT(same_data, inverse_data);

    // Coupling reads word 0 as stored, overrides included: an aggressor
    // written like the victim whose word 0 is then rewritten to zeros
    // disturbs exactly like the inverse-data one, and the reverse case
    // exactly like the same-data one.
    const auto hammer_with_word0 = [&](Row aggr, const DataPattern &pattern,
                                       std::uint64_t word0) {
        bank.activate(aggr + 1, 0);
        bank.writeOpenRow(DataPattern::allOnes(), aggr + 1, 0);
        bank.precharge(0);
        bank.activate(aggr, 0);
        bank.writeOpenRow(pattern, aggr, 0);
        bank.writeOpenRowWord(0, word0);
        bank.precharge(0);
        for (int i = 0; i < 100; ++i) {
            bank.activate(aggr, i);
            bank.precharge(i);
        }
        return bank.peekRow(aggr + 1)->hammerCharge();
    };
    EXPECT_EQ(hammer_with_word0(300, DataPattern::allOnes(), 0),
              inverse_data);
    EXPECT_EQ(hammer_with_word0(400, DataPattern::allZeros(), ~0ULL),
              same_data);
}

} // namespace
} // namespace utrr
