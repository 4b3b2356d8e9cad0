#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
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

TEST(RowState, StoredWord0FollowsEveryWrite)
{
    RowState row = makeRow(RowPhysics{});
    EXPECT_EQ(row.storedWord0(), 0u); // born all-zeros
    row.writePattern(DataPattern::checkerboard(), 5, 0);
    EXPECT_EQ(row.storedWord0(), DataPattern::checkerboard().word(5, 0));
    row.writeWord(1, 0x1234ULL); // another word: no change
    EXPECT_EQ(row.storedWord0(), DataPattern::checkerboard().word(5, 0));
    row.writeWord(0, 0x5678ULL);
    EXPECT_EQ(row.storedWord0(), 0x5678ULL);
    EXPECT_EQ(row.read().word(0), 0x5678ULL);
    row.writePattern(DataPattern::random(7), 9, 0); // drops the override
    EXPECT_EQ(row.storedWord0(), DataPattern::random(7).word(9, 0));
}

TEST(RowState, SizeStaysAt248Bytes)
{
    // Rows dominate a module's memory, so the cached coupling word sits
    // in padding (DESIGN.md §12). The layout is pinned where it was
    // measured: libstdc++ on x86-64.
#if defined(__GLIBCXX__) && defined(__x86_64__)
    EXPECT_EQ(sizeof(RowState), 248u);
#else
    GTEST_SKIP() << "RowState's size is pinned for libstdc++ on x86-64";
#endif
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


// ---------------------------------------------------------------------
// Exact accumulation (DESIGN.md §17): addDisturbanceRoundRobin against
// the per-ACT additions it stands for, including its one-aggressor
// form (one weight as first and repeat weight), a single-row run.
// ---------------------------------------------------------------------

/** The per-ACT loop: one live-weight add per aggressor per round. */
double
sequentialRoundRobin(double c, Row &last, const std::vector<Row> &aggrs,
                     const std::vector<double> &w_first,
                     const std::vector<double> &w_repeat, int rounds)
{
    for (int k = 0; k < rounds; ++k) {
        for (std::size_t i = 0; i < aggrs.size(); ++i) {
            c += last == aggrs[i] ? w_repeat[i] : w_first[i];
            last = aggrs[i];
        }
    }
    return c;
}

/** A row holding exactly @p charge, last disturbed by @p last. */
RowState
chargedRow(double charge, Row last)
{
    RowState row = makeRow(RowPhysics{});
    row.addDisturbance(last, charge); // 0.0 + charge is exact
    return row;
}

/** Exponent E of a positive normal @p c: c in [2^E, 2^(E+1)). */
int
binadeOf(double c)
{
    return static_cast<int>(std::bit_cast<std::uint64_t>(c) >> 52) - 1023;
}

/**
 * Seeded random cases with the shapes where binade stepping could go
 * wrong: addends tied at exactly half an ulp of the charge, charges
 * just below a power of two, zero and subnormal starts, addends under
 * half an ulp (the charge is a fixed point), addends of a whole binade
 * or more, subnormal addends, 1 to 8 aggressors (adjacent repeats
 * too), runs of up to 3·10^5 rounds, and a pre-burst lastDisturber
 * that takes either weight branch on the first pass.
 */
class AccumulationCases
{
  public:
    explicit AccumulationCases(std::uint64_t seed) : rng(seed) {}

    struct Case
    {
        double charge;
        Row last;
        std::vector<Row> aggrs;
        std::vector<double> wFirst;
        std::vector<double> wRepeat;
        int rounds;
    };

    Case
    next(std::map<std::string, int> &shapes)
    {
        Case c;
        c.charge = startCharge(shapes);
        const int m = static_cast<int>(rng.uniformInt(1, 8));
        Row row = 500;
        for (int i = 0; i < m; ++i) {
            // Mostly distinct rows (the fold's shape), sometimes an
            // adjacent repeat that takes the repeat weight mid-round.
            if (i == 0 || !rng.chance(0.1))
                row += static_cast<Row>(rng.uniformInt(1, 3));
            else
                ++shapes["adjacent repeat"];
            c.aggrs.push_back(row);
        }
        // Both first-pass branches: the pre-burst lastDisturber is the
        // first aggressor (repeat weight), the last one (what steady
        // passes see), or an unrelated row.
        switch (rng.uniformInt(0, 2)) {
          case 0:
            c.last = c.aggrs.front();
            ++shapes["last is first aggressor"];
            break;
          case 1:
            c.last = c.aggrs.back();
            ++shapes["last is last aggressor"];
            break;
          default:
            c.last = rng.chance(0.5) ? kInvalidRow : 7;
            ++shapes["last is unrelated"];
            break;
        }
        for (int i = 0; i < m; ++i) {
            c.wFirst.push_back(addend(c.charge, shapes));
            c.wRepeat.push_back(
                rng.chance(0.8) ? c.wFirst.back() * rng.uniformReal(0.3, 1.0)
                                : addend(c.charge, shapes));
        }
        // Mostly short enough to keep 10^5 cases quick; one in 200
        // runs up to 3·10^5 rounds.
        const double top = rng.chance(0.005) ? 3e5 : 3e3;
        c.rounds = static_cast<int>(
            std::exp(rng.uniformReal(0.0, std::log(top))));
        if (c.rounds >= 10'000)
            ++shapes["rounds >= 10^4"];
        return c;
    }

  private:
    double
    startCharge(std::map<std::string, int> &shapes)
    {
        switch (rng.uniformInt(0, 5)) {
          case 0:
            ++shapes["zero start"];
            return 0.0;
          case 1:
            ++shapes["subnormal start"];
            return std::ldexp(
                static_cast<double>(rng.uniformInt(1, (1LL << 52) - 1)),
                -1074);
          case 2: {
            // 2^E minus a few ulps: the first steps cross a binade.
            ++shapes["just below a power of two"];
            const int e = static_cast<int>(rng.uniformInt(-4, 40));
            return std::ldexp(
                static_cast<double>((1LL << 53) - rng.uniformInt(1, 64)),
                e - 53);
          }
          case 3:
            ++shapes["huge start"];
            return std::ldexp(rng.uniformReal(1.0, 2.0),
                              static_cast<int>(rng.uniformInt(50, 70)));
          default:
            ++shapes["normal start"];
            return std::ldexp(rng.uniformReal(1.0, 2.0),
                              static_cast<int>(rng.uniformInt(-10, 30)));
        }
    }

    /** One weight, shaped relative to the charge's binade. */
    double
    addend(double charge, std::map<std::string, int> &shapes)
    {
        const bool normal = charge >= 0x1p-1022;
        const int e = normal ? binadeOf(charge) : -1022;
        switch (rng.uniformInt(0, 9)) {
          case 0:
            if (!normal)
                break;
            // (2j+1)/2 ulps: exactly tied while the charge stays here.
            ++shapes["tied addend"];
            return std::ldexp(static_cast<double>(
                                  2 * rng.uniformInt(0, 1'000) + 1),
                              e - 53);
          case 1:
            if (!normal)
                break;
            // Under half an ulp: rounds away, the charge stays put.
            ++shapes["sub-half-ulp addend"];
            return std::ldexp(rng.uniformReal(0.01, 0.999), e - 53);
          case 2:
            if (!normal)
                break;
            ++shapes["binade-sized addend"];
            return std::ldexp(rng.uniformReal(1.0, 4.0), e);
          case 3:
            ++shapes["subnormal addend"];
            return std::ldexp(
                static_cast<double>(rng.uniformInt(1, 1LL << 40)), -1074);
          default:
            break;
        }
        ++shapes["plain addend"];
        return rng.uniformReal(0.01, 3.0);
    }

    Rng rng;
};

TEST(RowAccumulation, RoundRobinMatchesPerActAdditionsBitForBit)
{
    AccumulationCases cases(20'211);
    std::map<std::string, int> shapes;
    for (int n = 0; n < 100'000; ++n) {
        const AccumulationCases::Case c = cases.next(shapes);
        Row last = c.last;
        const double want = sequentialRoundRobin(
            c.charge, last, c.aggrs, c.wFirst, c.wRepeat, c.rounds);
        RowState row = chargedRow(c.charge, c.last);
        row.addDisturbanceRoundRobin(c.aggrs.data(), c.wFirst.data(),
                                     c.wRepeat.data(),
                                     static_cast<int>(c.aggrs.size()),
                                     c.rounds);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(row.hammerCharge()),
                  std::bit_cast<std::uint64_t>(want))
            << "case " << n << ": start " << c.charge << ", m "
            << c.aggrs.size() << ", rounds " << c.rounds << ", got "
            << row.hammerCharge() << " want " << want;
        ASSERT_EQ(row.lastDisturber(), last) << "case " << n;
    }
    for (const char *shape :
         {"zero start", "subnormal start", "just below a power of two",
          "huge start", "normal start", "tied addend",
          "sub-half-ulp addend", "binade-sized addend", "subnormal addend",
          "plain addend", "adjacent repeat", "last is first aggressor",
          "last is last aggressor", "last is unrelated",
          "rounds >= 10^4"}) {
        EXPECT_GT(shapes[shape], 0) << shape;
    }
}

TEST(RowAccumulation, RunMatchesPerActAdditionsBitForBit)
{
    AccumulationCases cases(7);
    std::map<std::string, int> shapes;
    for (int n = 0; n < 20'000; ++n) {
        const AccumulationCases::Case c = cases.next(shapes);
        const double added = c.wFirst.front();
        double want = c.charge;
        for (int i = 0; i < c.rounds; ++i)
            want += added;
        RowState row = chargedRow(c.charge, c.last);
        const Row aggr = 42;
        row.addDisturbanceRoundRobin(&aggr, &added, &added, 1, c.rounds);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(row.hammerCharge()),
                  std::bit_cast<std::uint64_t>(want))
            << "case " << n << ": start " << c.charge << ", added "
            << added << ", n " << c.rounds;
        ASSERT_EQ(row.lastDisturber(), 42);
    }
}

TEST(RowAccumulation, LongRunCrossesBinadesExactly)
{
    // The §5.3 adjacency check's shape: 3·10^5 ACTs of one aggressor
    // into a fresh victim, through about eighteen binades.
    RowState row = makeRow(RowPhysics{});
    const double w = 0.8530000000000001;
    const Row aggr = 9;
    row.addDisturbanceRoundRobin(&aggr, &w, &w, 1, 300'000);
    double want = 0.0;
    for (int i = 0; i < 300'000; ++i)
        want += w;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(row.hammerCharge()),
              std::bit_cast<std::uint64_t>(want));
    EXPECT_NE(row.hammerCharge(), 300'000 * w); // rounding did accrue
}

TEST(RowAccumulation, ValuesThatCannotStepTakeRealAdds)
{
    // Never produced by the simulator, but the accumulator must still
    // match the per-ACT adds: negative and non-finite addends or
    // charges, and zero addends on a zero charge (a fixed point that
    // only real adds can see).
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const struct
    {
        double charge;
        std::vector<double> adds;
    } cases[] = {
        {0.0, {0.0}},
        {0.0, {0.0, 0.0, 0.0}},
        {5.0, {-0.75}},
        {5.0, {1.5, -0.25}},
        {-3.0, {0.125}},
        {-3.0, {-0.125, 0.5}},
        {1.0, {inf}},
        {1.0, {0.5, -inf}},
        {inf, {0.5}},
        {0.0, {nan}},
        {2.0, {0.25, nan}},
    };
    const std::vector<int> roundCounts = {1, 2, 31, 1'000, 300'000};
    for (const auto &c : cases) {
        const int m = static_cast<int>(c.adds.size());
        std::vector<Row> aggrs;
        for (int i = 0; i < m; ++i)
            aggrs.push_back(100 + 2 * i);
        for (const int rounds : roundCounts) {
            Row last = kInvalidRow;
            const double want = sequentialRoundRobin(c.charge, last, aggrs,
                                                     c.adds, c.adds, rounds);
            RowState row = chargedRow(c.charge, kInvalidRow);
            row.addDisturbanceRoundRobin(aggrs.data(), c.adds.data(),
                                         c.adds.data(), m, rounds);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(row.hammerCharge()),
                      std::bit_cast<std::uint64_t>(want))
                << "start " << c.charge << ", m " << m << ", rounds "
                << rounds << ", got " << row.hammerCharge() << " want "
                << want;
            if (m == 1) {
                RowState run = chargedRow(c.charge, kInvalidRow);
                const Row aggr = 42;
                run.addDisturbanceRoundRobin(&aggr, c.adds.data(),
                                             c.adds.data(), 1, rounds);
                EXPECT_EQ(std::bit_cast<std::uint64_t>(run.hammerCharge()),
                          std::bit_cast<std::uint64_t>(want))
                    << "run: start " << c.charge << ", rounds " << rounds;
            }
        }
    }
}

} // namespace
} // namespace utrr
