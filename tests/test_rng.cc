#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.hh"

namespace utrr
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 10'000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(Rng, UniformIntCoversRangeInclusive)
{
    Rng rng(9);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2'000; ++i) {
        const std::int64_t v = rng.uniformInt(3, 10);
        ASSERT_GE(v, 3);
        ASSERT_LE(v, 10);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, ChanceEdgeCases)
{
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(11);
    int hits = 0;
    for (int i = 0; i < 20'000; ++i)
        hits += rng.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(hits / 20'000.0, 0.25, 0.02);
}

/** The decision chance(p) takes on the draw @p x (0 < p < 1). */
bool
floatDecision(std::uint64_t x, double p)
{
    return static_cast<double>(x >> 11) * 0x1.0p-53 < p;
}

TEST(Rng, ChanceCutMatchesTheFloatCompare)
{
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    std::vector<double> rates = {0x1.0p-53, 1.0 / 115.0, 1.0 / 24.0, 0.5,
                                 1.0 - 0x1.0p-53};
    // Random rates of three shapes: on the 2^-53 grid, off it (a
    // product's low bits make p·2^53 fractional), and 1/n.
    Rng pick(29);
    for (int i = 0; i < 1'500; ++i) {
        for (const double p :
             {pick.uniform(), pick.uniform() * pick.uniform(),
              1.0 / static_cast<double>(pick.uniformInt(2, 1'000'000))}) {
            if (p > 0.0)
                rates.push_back(p);
        }
    }
    for (const double p : rates) {
        SCOPED_TRACE(p);
        const std::uint64_t cut = Rng::chanceCut(p);
        ASSERT_GT(cut, 0u);
        ASSERT_EQ(cut % 2'048, 0u) << "the cut is a 53-bit threshold";
        // The boundary draws, their 2^11 neighbourhoods and the ends.
        const std::uint64_t step = std::uint64_t{1} << 11;
        std::vector<std::uint64_t> draws = {0, cut - 1, cut, kMax};
        if (cut >= step)
            draws.push_back(cut - step);
        if (cut <= kMax - step)
            draws.push_back(cut + step);
        for (const std::uint64_t x : draws)
            ASSERT_EQ(x < cut, floatDecision(x, p)) << "x = " << x;
        // The hit at cut - 1 and the miss at cut pin it exactly.
        ASSERT_TRUE(floatDecision(cut - 1, p));
        ASSERT_FALSE(floatDecision(cut, p));
    }
    EXPECT_EQ(Rng::chanceCut(0x1.0p-53), std::uint64_t{1} << 11);
    EXPECT_EQ(Rng::chanceCut(0.5), std::uint64_t{1} << 63);
    // chance() draws nothing at p <= 0 or p >= 1, so callers test those
    // edges first; the cut itself stays defined there.
    EXPECT_EQ(Rng::chanceCut(0.0), 0u);
    EXPECT_EQ(Rng::chanceCut(-1.0), 0u);
    EXPECT_EQ(Rng::chanceCut(std::nan("")), 0u);
    EXPECT_EQ(Rng::chanceCut(1.0), kMax);
    EXPECT_EQ(Rng::chanceCut(2.0), kMax);
}

TEST(Rng, ChanceCutReplaysChanceOnALiveStream)
{
    for (const double p : {1.0 / 24.0, 1.0 / 115.0, 0.5}) {
        Rng a(31);
        Rng b(31);
        const std::uint64_t cut = Rng::chanceCut(p);
        int hits = 0;
        for (int i = 0; i < 1'000'000; ++i) {
            const bool expected = a.chance(p);
            ASSERT_EQ(b.next() < cut, expected) << "draw " << i;
            hits += expected ? 1 : 0;
        }
        EXPECT_NEAR(hits / 1e6, p, 0.01);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    double sum = 0.0;
    double sq = 0.0;
    const int n = 20'000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, GaussianScaled)
{
    Rng rng(17);
    double sum = 0.0;
    const int n = 10'000;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(5.0, 2.0);
    EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, LogNormalMedian)
{
    Rng rng(19);
    int below = 0;
    const int n = 10'000;
    for (int i = 0; i < n; ++i)
        below += rng.logNormal(0.0, 0.6) < 1.0 ? 1 : 0;
    // Median of exp(N(0, s)) is 1.
    EXPECT_NEAR(below / static_cast<double>(n), 0.5, 0.03);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(23);
    double sum = 0.0;
    const int n = 20'000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(3.0);
    EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, ForkIsIndependentOfParentUsage)
{
    Rng a(42);
    Rng fork1 = a.fork(1);
    // Forks with the same stream id from the same state match.
    Rng b(42);
    Rng fork2 = b.fork(1);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(fork1.next(), fork2.next());
}

TEST(Rng, ForkStreamsDiffer)
{
    Rng a(42);
    Rng f1 = a.fork(1);
    Rng f2 = a.fork(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += f1.next() == f2.next() ? 1 : 0;
    EXPECT_LT(equal, 3);
}

TEST(Rng, HashMixIsDeterministic)
{
    EXPECT_EQ(hashMix(12345), hashMix(12345));
    EXPECT_NE(hashMix(12345), hashMix(12346));
}

TEST(Rng, HashStringIsStable)
{
    // FNV-1a is a fixed algorithm: pin a known value so a silent change
    // of the hash (which would reshuffle every named stream) is caught.
    EXPECT_EQ(hashString(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(hashString("fault.vrt"), hashString("fault.vrt"));
    EXPECT_NE(hashString("fault.vrt"), hashString("fault.noise"));
}

TEST(Rng, NamedForkIsDeterministic)
{
    Rng a(7);
    Rng b(7);
    Rng fa = a.fork("fault.vrt");
    Rng fb = b.fork("fault.vrt");
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(fa.next(), fb.next());
}

TEST(Rng, NamedForkStreamsDiffer)
{
    Rng a(7);
    Rng f1 = a.fork("fault.vrt");
    Rng f2 = a.fork("fault.noise");
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += f1.next() == f2.next() ? 1 : 0;
    EXPECT_LT(equal, 3);
}

TEST(Rng, NamedForkMatchesNumericForkOfHash)
{
    Rng a(7);
    Rng b(7);
    Rng named = a.fork("stream");
    Rng numeric = b.fork(hashString("stream"));
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(named.next(), numeric.next());
}

} // namespace
} // namespace utrr
