#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "dram/row.hh"

namespace utrr
{
namespace
{

constexpr int kBits = 64 * 1024;

RowState
makeRow(RowPhysics physics, Time now = 0)
{
    return RowState(std::move(physics), now, Rng(1), kBits,
                    msToNs(4'000), 3.0);
}

RowPhysics
oneWeakCell(Col col, Time retention, bool charged = true)
{
    RowPhysics phys;
    WeakCell cell;
    cell.col = col;
    cell.retention = retention;
    cell.chargedValue = charged;
    phys.weakCells.push_back(cell);
    return phys;
}

TEST(RowState, FreshRowReadsCleanly)
{
    RowState row = makeRow(oneWeakCell(10, msToNs(100)));
    row.writePattern(DataPattern::allOnes(), 5, 0);
    EXPECT_EQ(row.read().countFlipsVs(DataPattern::allOnes(), 5), 0);
}

TEST(RowState, RetentionFlipAppearsAfterRetentionTime)
{
    RowState row = makeRow(oneWeakCell(10, msToNs(100)));
    row.writePattern(DataPattern::allOnes(), 5, 0);
    row.restoreCharge(msToNs(150)); // ACT at 150 ms: flip commits
    const RowReadout readout = row.read();
    const auto flips = readout.flipsVs(DataPattern::allOnes(), 5);
    ASSERT_EQ(flips.size(), 1u);
    EXPECT_EQ(flips[0], 10);
    EXPECT_FALSE(readout.bit(10));
}

TEST(RowState, RefreshBeforeRetentionPreventsFlip)
{
    RowState row = makeRow(oneWeakCell(10, msToNs(100)));
    row.writePattern(DataPattern::allOnes(), 5, 0);
    row.restoreCharge(msToNs(60));  // refresh in time
    row.restoreCharge(msToNs(150)); // 90 ms since refresh: still fine
    EXPECT_EQ(row.read().countFlipsVs(DataPattern::allOnes(), 5), 0);
}

TEST(RowState, RefreshAfterFailureCommitsTheFlip)
{
    // Paper footnote 4 / §3: a refresh restores whatever the cell
    // holds; a flip that already happened is preserved.
    RowState row = makeRow(oneWeakCell(10, msToNs(100)));
    row.writePattern(DataPattern::allOnes(), 5, 0);
    row.restoreCharge(msToNs(150)); // too late, flip committed
    row.restoreCharge(msToNs(160));
    row.restoreCharge(msToNs(10'000));
    EXPECT_EQ(row.read().countFlipsVs(DataPattern::allOnes(), 5), 1);
}

TEST(RowState, WriteClearsFlips)
{
    RowState row = makeRow(oneWeakCell(10, msToNs(100)));
    row.writePattern(DataPattern::allOnes(), 5, 0);
    row.restoreCharge(msToNs(150));
    row.writePattern(DataPattern::allOnes(), 5, msToNs(151));
    EXPECT_EQ(row.read().countFlipsVs(DataPattern::allOnes(), 5), 0);
}

TEST(RowState, DischargedCellDoesNotFlip)
{
    // A true-cell storing 0 has no charge to lose.
    RowState row = makeRow(oneWeakCell(10, msToNs(100), true));
    row.writePattern(DataPattern::allZeros(), 5, 0);
    row.restoreCharge(msToNs(500));
    EXPECT_EQ(row.read().countFlipsVs(DataPattern::allZeros(), 5), 0);
}

TEST(RowState, AntiCellFlipsZeroToOne)
{
    RowState row = makeRow(oneWeakCell(10, msToNs(100), false));
    row.writePattern(DataPattern::allZeros(), 5, 0);
    row.restoreCharge(msToNs(200));
    const RowReadout readout = row.read();
    EXPECT_TRUE(readout.bit(10)); // 0 decayed to 1
}

TEST(RowState, HammerFlipAtThreshold)
{
    RowPhysics phys;
    HammerCell cell;
    cell.col = 20;
    cell.threshold = 100.0;
    cell.chargedValue = true;
    phys.hammerCells.push_back(cell);
    RowState row = makeRow(std::move(phys));
    row.writePattern(DataPattern::allOnes(), 5, 0);
    row.addDisturbance(99, 99.0);
    row.restoreCharge(1'000);
    EXPECT_EQ(row.read().countFlipsVs(DataPattern::allOnes(), 5), 0);
    row.addDisturbance(99, 101.0);
    row.restoreCharge(2'000);
    EXPECT_EQ(row.read().countFlipsVs(DataPattern::allOnes(), 5), 1);
}

TEST(RowState, RestoreResetsHammerCharge)
{
    RowPhysics phys;
    HammerCell cell;
    cell.col = 20;
    cell.threshold = 100.0;
    cell.chargedValue = true;
    phys.hammerCells.push_back(cell);
    RowState row = makeRow(std::move(phys));
    row.writePattern(DataPattern::allOnes(), 5, 0);
    row.addDisturbance(99, 60.0);
    row.restoreCharge(1'000); // resets accumulated charge
    row.addDisturbance(99, 60.0);
    row.restoreCharge(2'000);
    EXPECT_EQ(row.read().countFlipsVs(DataPattern::allOnes(), 5), 0);
    EXPECT_EQ(row.hammerCharge(), 0.0);
}

TEST(RowState, LastDisturberTracked)
{
    RowState row = makeRow(RowPhysics{});
    EXPECT_EQ(row.lastDisturber(), kInvalidRow);
    row.addDisturbance(42, 1.0);
    EXPECT_EQ(row.lastDisturber(), 42);
    row.restoreCharge(10);
    EXPECT_EQ(row.lastDisturber(), kInvalidRow);
}

TEST(RowState, WriteWordOverridesAndRecharges)
{
    RowState row = makeRow(oneWeakCell(10, msToNs(100)));
    row.writePattern(DataPattern::allOnes(), 5, 0);
    row.restoreCharge(msToNs(150)); // col 10 flipped
    row.writeWord(0, 0xffffffffffffffffULL); // rewrite word 0
    EXPECT_EQ(row.read().countFlipsVs(DataPattern::allOnes(), 5), 0);
}

TEST(RowState, WriteWordLeavesOtherFlips)
{
    RowState row = makeRow(oneWeakCell(100, msToNs(100)));
    row.writePattern(DataPattern::allOnes(), 5, 0);
    row.restoreCharge(msToNs(150)); // col 100 (word 1) flipped
    row.writeWord(0, 0x1234ULL);    // unrelated word
    const RowReadout readout = row.read();
    EXPECT_EQ(readout.word(0), 0x1234ULL);
    // Diffs vs all-ones: 59 zero bits of 0x1234 plus the retention
    // flip at col 100.
    EXPECT_EQ(readout.flipsVs(DataPattern::allOnes(), 5).size(), 60u);
}

TEST(RowState, VrtCellRetentionVaries)
{
    RowPhysics phys = oneWeakCell(10, msToNs(100));
    phys.weakCells[0].vrt = true;
    RowState row = makeRow(std::move(phys));

    // Over many trials the VRT cell must sometimes survive past its
    // low-state retention (high state = 3x retention).
    int survived = 0;
    int failed = 0;
    Time now = 0;
    for (int i = 0; i < 200; ++i) {
        row.writePattern(DataPattern::allOnes(), 5, now);
        now += msToNs(150); // beyond low-state, below high-state
        row.restoreCharge(now);
        if (row.read().countFlipsVs(DataPattern::allOnes(), 5) == 0)
            ++survived;
        else
            ++failed;
        now += msToNs(50);
    }
    EXPECT_GT(survived, 5);
    EXPECT_GT(failed, 5);
}

TEST(RowState, FastPathStillAdvancesLastRestore)
{
    // A chain of skipped scans (each restore well inside retention)
    // must keep advancing lastRestore: if a skip left it stale, the
    // final window would look longer than retention and flip a cell
    // that was in fact refreshed in time.
    RowState row = makeRow(oneWeakCell(10, msToNs(100)));
    row.writePattern(DataPattern::allOnes(), 5, 0);
    for (int i = 1; i <= 20; ++i)
        row.restoreCharge(msToNs(90) * i); // always 90 ms apart
    EXPECT_EQ(row.lastRefresh(), msToNs(90) * 20);
    EXPECT_EQ(row.read().countFlipsVs(DataPattern::allOnes(), 5), 0);
    // One window past retention still commits.
    row.restoreCharge(msToNs(90) * 20 + msToNs(150));
    EXPECT_EQ(row.read().countFlipsVs(DataPattern::allOnes(), 5), 1);
}

TEST(RowState, ScaleRetentionInvalidatesFastPathCache)
{
    // Halving the retention scale must take effect on the very next
    // restore, even though the previous restores were fast-path skips
    // that never touched the cell list.
    RowState row = makeRow(oneWeakCell(10, msToNs(100)));
    row.writePattern(DataPattern::allOnes(), 5, 0);
    row.restoreCharge(msToNs(90)); // within nominal retention
    EXPECT_EQ(row.read().countFlipsVs(DataPattern::allOnes(), 5), 0);
    row.scaleRetention(0.5); // effective retention now 50 ms
    row.restoreCharge(msToNs(90) + msToNs(90));
    EXPECT_EQ(row.read().countFlipsVs(DataPattern::allOnes(), 5), 1);
}

TEST(RowState, ScaleRetentionUpExtendsTheSkipWindow)
{
    RowState row = makeRow(oneWeakCell(10, msToNs(100)));
    row.writePattern(DataPattern::allOnes(), 5, 0);
    row.scaleRetention(10.0); // effective retention 1 s
    row.restoreCharge(msToNs(800));
    EXPECT_EQ(row.read().countFlipsVs(DataPattern::allOnes(), 5), 0);
    row.restoreCharge(msToNs(800) + msToNs(1'100));
    EXPECT_EQ(row.read().countFlipsVs(DataPattern::allOnes(), 5), 1);
}

TEST(RowReadout, IsStableSnapshotAcrossRowMutation)
{
    // The readout shares state with the row copy-on-write: mutating the
    // row after the read must not change the snapshot.
    RowState row = makeRow(oneWeakCell(10, msToNs(100)));
    row.writePattern(DataPattern::allOnes(), 5, 0);
    row.restoreCharge(msToNs(150)); // col 10 flipped
    row.writeWord(2, 0xabcdULL);
    const RowReadout snapshot = row.read();
    // col-10 retention flip + the 54 zero bits of the 0xabcd override.
    ASSERT_EQ(snapshot.countFlipsVs(DataPattern::allOnes(), 5), 1 + 54);

    row.writeWord(0, ~0ULL);        // clears the col-10 flip
    row.writeWord(2, ~0ULL);        // rewrites the override
    row.restoreCharge(msToNs(400)); // commits nothing new
    row.writePattern(DataPattern::allZeros(), 5, msToNs(401));

    // Snapshot unchanged; the row reflects the new state.
    EXPECT_EQ(snapshot.countFlipsVs(DataPattern::allOnes(), 5), 1 + 54);
    EXPECT_FALSE(snapshot.bit(10));
    EXPECT_EQ(snapshot.word(2), 0xabcdULL);
    EXPECT_EQ(row.read().countFlipsVs(DataPattern::allZeros(), 5), 0);
}

TEST(RowReadout, InjectFlipDoesNotTouchTheRow)
{
    RowState row = makeRow(oneWeakCell(10, msToNs(100)));
    row.writePattern(DataPattern::allOnes(), 5, 0);
    row.restoreCharge(msToNs(150)); // col 10 flipped
    RowReadout readout = row.read();

    readout.injectFlip(20);
    EXPECT_EQ(readout.countFlipsVs(DataPattern::allOnes(), 5), 2);
    readout.injectFlip(10); // double fault on the committed flip
    EXPECT_EQ(readout.countFlipsVs(DataPattern::allOnes(), 5), 1);

    // The stored row never saw either injection.
    EXPECT_EQ(row.committedFlipCount(), 1u);
    const auto real = row.read().flipsVs(DataPattern::allOnes(), 5);
    ASSERT_EQ(real.size(), 1u);
    EXPECT_EQ(real[0], 10);
}

TEST(RowReadout, WordAppliesFlips)
{
    RowState row = makeRow(oneWeakCell(3, msToNs(100)));
    row.writePattern(DataPattern::allOnes(), 0, 0);
    row.restoreCharge(msToNs(200));
    const RowReadout readout = row.read();
    EXPECT_EQ(readout.word(0), ~0ULL ^ (1ULL << 3));
    EXPECT_EQ(readout.word(1), ~0ULL);
}

TEST(RowReadout, FlipsVsDifferentPatternDiffsWholeRow)
{
    RowState row = makeRow(RowPhysics{});
    row.writePattern(DataPattern::allOnes(), 0, 0);
    const RowReadout readout = row.read();
    const auto diff = readout.flipsVs(DataPattern::allZeros(), 0);
    EXPECT_EQ(diff.size(), static_cast<std::size_t>(kBits));
}

// ---------------------------------------------------------------------
// diffReadout / diffReadoutCount: the word-at-a-time XOR+ctz diff
// behind every readback scan (DESIGN.md §17).
// ---------------------------------------------------------------------

/** Readout of @p bits bits holding @p pattern at @p row with the given
 *  committed flips — built directly, no RowState needed. */
RowReadout
makeReadout(const DataPattern &pattern, Row row, std::vector<Col> flips,
            int bits)
{
    return RowReadout(
        pattern, row, nullptr,
        flips.empty()
            ? nullptr
            : std::make_shared<const std::vector<Col>>(std::move(flips)),
        bits);
}

/** Reference implementation: probe every bit position one at a time. */
std::vector<Col>
naiveDiff(const RowReadout &readout, const DataPattern &expected,
          Row expected_row)
{
    std::vector<Col> result;
    for (Col col = 0; col < readout.rowBits(); ++col)
        if (readout.bit(col) != expected.bit(expected_row, col))
            result.push_back(col);
    return result;
}

TEST(DiffReadout, AllZeroDiffIsEmpty)
{
    const RowReadout readout =
        makeReadout(DataPattern::random(9), 42, {}, 512);
    EXPECT_TRUE(diffReadout(readout, DataPattern::random(9), 42).empty());
    EXPECT_EQ(diffReadoutCount(readout, DataPattern::random(9), 42), 0);
}

TEST(DiffReadout, SparseFlipsInAlignedRow)
{
    // Flips in the first, a middle and the last word of a word-aligned
    // row, including bit 0 and bit 63 word boundaries.
    const std::vector<Col> flips = {0, 63, 200, 511};
    const RowReadout readout =
        makeReadout(DataPattern::allOnes(), 7, flips, 512);
    EXPECT_EQ(diffReadout(readout, DataPattern::allOnes(), 7), flips);
    EXPECT_EQ(diffReadoutCount(readout, DataPattern::allOnes(), 7), 4);
}

TEST(DiffReadout, UnalignedTailIsMaskedNotTruncated)
{
    // 130-bit row: two full words plus a 2-bit tail. A flip inside the
    // tail must be reported; the 62 garbage bit positions past the end
    // of the row must not be.
    const int bits = 130;
    const RowReadout readout =
        makeReadout(DataPattern::allOnes(), 0, {129}, bits);
    // vs the stored pattern: only the committed tail flip.
    const std::vector<Col> tail_only = {129};
    EXPECT_EQ(diffReadout(readout, DataPattern::allOnes(), 0), tail_only);
    // vs the inverse pattern: every *real* bit differs except col 129
    // (which the flip restored to zero) — nothing beyond bit 129.
    const auto diff = diffReadout(readout, DataPattern::allZeros(), 0);
    EXPECT_EQ(diff.size(), static_cast<std::size_t>(bits - 1));
    EXPECT_EQ(diff.back(), 128);
    EXPECT_EQ(diffReadoutCount(readout, DataPattern::allZeros(), 0),
              bits - 1);
}

TEST(DiffReadout, DenseDiffMatchesNaiveBitProbe)
{
    // Random data vs a different random expectation: roughly half of
    // all bits differ. The word-at-a-time diff must agree with the
    // per-bit reference probe exactly, columns in ascending order.
    for (const int bits : {64, 192, 321}) {
        SCOPED_TRACE(bits);
        const RowReadout readout =
            makeReadout(DataPattern::random(3), 11, {5, 70}, bits);
        const auto fast = diffReadout(readout, DataPattern::random(4), 11);
        EXPECT_EQ(fast, naiveDiff(readout, DataPattern::random(4), 11));
        EXPECT_EQ(diffReadoutCount(readout, DataPattern::random(4), 11),
                  static_cast<int>(fast.size()));
        EXPECT_TRUE(std::is_sorted(fast.begin(), fast.end()));
    }
}

} // namespace
} // namespace utrr
