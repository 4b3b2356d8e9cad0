#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "obs/metrics.hh"
#include "trr/vendor_c.hh"

namespace utrr
{
namespace
{

VendorCTrr::Params
defaultParams()
{
    VendorCTrr::Params params;
    params.trrRefPeriod = 17;
    params.windowActs = 2'048;
    return params;
}

/** Hammer until the bank holds a candidate (sampling is
 *  probabilistic). */
void
hammerUntilCandidate(VendorCTrr &trr, Bank bank, Row row,
                     int max_acts = 4'000)
{
    for (int i = 0; i < max_acts && !trr.candidateOf(bank); ++i)
        trr.onActivate(bank, row);
}

TEST(VendorCTrr, EligibleEverySeventeenthRef)
{
    VendorCTrr trr(1, defaultParams(), 1);
    hammerUntilCandidate(trr, 0, 55);
    ASSERT_TRUE(trr.candidateOf(0).has_value());
    for (int ref = 1; ref <= 17; ++ref) {
        const auto actions = trr.onRefresh();
        EXPECT_EQ(!actions.empty(), ref == 17) << "ref " << ref;
    }
}

TEST(VendorCTrr, DeferredWhenNoCandidate)
{
    // Obs. C1: with no aggressor detected, the TRR-induced refresh is
    // deferred past the eligibility point to a later REF.
    VendorCTrr trr(1, defaultParams(), 2);
    for (int ref = 0; ref < 40; ++ref)
        EXPECT_TRUE(trr.onRefresh().empty());
    // Now a candidate appears; the very next REF performs the refresh.
    hammerUntilCandidate(trr, 0, 77);
    const auto actions = trr.onRefresh();
    ASSERT_EQ(actions.size(), 1u);
    EXPECT_EQ(actions[0].aggressorPhysRow, 77);
}

TEST(VendorCTrr, EarlierRowsStronglyFavoured)
{
    // Obs. C2: hammer row A heavily first, then row B; A should be the
    // detected candidate nearly always.
    int a_wins = 0;
    for (int trial = 0; trial < 50; ++trial) {
        VendorCTrr trr(1, defaultParams(), 100 + trial);
        for (int i = 0; i < 1'000; ++i)
            trr.onActivate(0, 10);
        for (int i = 0; i < 1'000; ++i)
            trr.onActivate(0, 20);
        if (trr.candidateOf(0) && *trr.candidateOf(0) == 10)
            ++a_wins;
    }
    EXPECT_GE(a_wins, 45);
}

TEST(VendorCTrr, ActsBeyondWindowInvisibleWhileCandidateHeld)
{
    VendorCTrr::Params params = defaultParams();
    params.windowActs = 64;
    params.sampleProbability = 1.0; // first ACT is always the candidate
    VendorCTrr trr(1, params, 3);
    trr.onActivate(0, 10);
    // Fill the rest of the window.
    while (trr.windowActsOf(0) < 64)
        trr.onActivate(0, 10);
    ASSERT_TRUE(trr.candidateOf(0).has_value());
    // Massive hammering of another row cannot displace the candidate.
    for (int i = 0; i < 50'000; ++i)
        trr.onActivate(0, 99);
    EXPECT_EQ(*trr.candidateOf(0), 10);
}

TEST(VendorCTrr, WindowReopensWhenExhaustedEmpty)
{
    // Obs. C1 (defer): if the whole window passes without a detection,
    // the mechanism keeps looking instead of going blind.
    VendorCTrr::Params params = defaultParams();
    params.windowActs = 16;
    params.sampleProbability = 0.0; // nothing sampled...
    VendorCTrr trr(1, params, 4);
    for (int i = 0; i < 100; ++i)
        trr.onActivate(0, 5);
    EXPECT_FALSE(trr.candidateOf(0).has_value());
    EXPECT_LE(trr.windowActsOf(0), 16);
}

TEST(VendorCTrr, FiringConsumesCandidateAndReopensWindow)
{
    VendorCTrr trr(1, defaultParams(), 5);
    hammerUntilCandidate(trr, 0, 42);
    for (int ref = 0; ref < 17; ++ref)
        trr.onRefresh();
    EXPECT_FALSE(trr.candidateOf(0).has_value());
    EXPECT_EQ(trr.windowActsOf(0), 0);
}

TEST(VendorCTrr, PerBankCandidates)
{
    VendorCTrr trr(2, defaultParams(), 6);
    hammerUntilCandidate(trr, 0, 100);
    hammerUntilCandidate(trr, 1, 200);
    for (int ref = 0; ref < 16; ++ref)
        trr.onRefresh();
    const auto actions = trr.onRefresh();
    ASSERT_EQ(actions.size(), 2u);
    EXPECT_EQ(actions[0].aggressorPhysRow, 100);
    EXPECT_EQ(actions[1].aggressorPhysRow, 200);
}

TEST(VendorCTrr, CadenceAnchoredOnFiring)
{
    // After a deferred firing, the next eligibility is a full period
    // after the fire, not after the original eligibility point.
    VendorCTrr trr(1, defaultParams(), 7);
    for (int ref = 0; ref < 25; ++ref)
        EXPECT_TRUE(trr.onRefresh().empty()); // deferred (no candidate)
    hammerUntilCandidate(trr, 0, 9);
    EXPECT_FALSE(trr.onRefresh().empty()); // fires now
    hammerUntilCandidate(trr, 0, 9);
    for (int ref = 1; ref <= 17; ++ref) {
        const auto actions = trr.onRefresh();
        EXPECT_EQ(!actions.empty(), ref == 17);
    }
}

TEST(VendorCTrr, ResetClearsEverything)
{
    VendorCTrr trr(1, defaultParams(), 8);
    hammerUntilCandidate(trr, 0, 11);
    for (int ref = 0; ref < 10; ++ref)
        trr.onRefresh();
    trr.reset();
    EXPECT_FALSE(trr.candidateOf(0).has_value());
    EXPECT_EQ(trr.windowActsOf(0), 0);
}

TEST(VendorCTrr, ShortWindowVersion)
{
    // C_TRR3: 1K-ACT window, every 8th REF.
    VendorCTrr::Params params;
    params.trrRefPeriod = 8;
    params.windowActs = 1'024;
    VendorCTrr trr(1, params, 9);
    hammerUntilCandidate(trr, 0, 3);
    for (int ref = 1; ref <= 8; ++ref) {
        const auto actions = trr.onRefresh();
        EXPECT_EQ(!actions.empty(), ref == 8);
    }
}


// ---------------------------------------------------------------------
// Burst hook (DESIGN.md §17): onActivateRoundRobin, single-row bursts
// included, against the per-ACT onActivate() sequence it stands for.
// ---------------------------------------------------------------------

/** A clone of @p trr on its own ground-truth store. */
std::unique_ptr<VendorCTrr>
cloneOnto(const VendorCTrr &trr, GroundTruthStore &store)
{
    std::unique_ptr<VendorCTrr> copy(
        static_cast<VendorCTrr *>(trr.clone().release()));
    copy->attachGroundTruth(&store);
    return copy;
}

struct WindowConfig
{
    const char *name;
    VendorCTrr::Params params;
};

/** Prints the window by name. gtest would otherwise dump the raw bytes,
 *  address of @c name included, into the listed test name, and ctest
 *  names discovered from that listing would change from run to run. */
void
PrintTo(const WindowConfig &config, std::ostream *os)
{
    *os << config.name;
}

/** The modelled C_TRR1 window, a short one that bursts fill, one that
 *  samples its first ACT, and one that never samples (windows reopen). */
class VendorCBurstHooks : public ::testing::TestWithParam<WindowConfig>
{
};

TEST_P(VendorCBurstHooks, MatchPerActReplay)
{
    constexpr int kBanks = 4;
    const VendorCTrr::Params params = GetParam().params;
    const VendorCTrr base(kBanks, params, 41);
    GroundTruthStore hooks_truth;
    GroundTruthStore loop_truth;
    const auto hooks = cloneOnto(base, hooks_truth);
    const auto loop = cloneOnto(base, loop_truth);
    Rng rng(hashString(GetParam().name));

    const auto same_state = [](const VendorCTrr &a, const VendorCTrr &b) {
        for (Bank bank = 0; bank < kBanks; ++bank) {
            ASSERT_EQ(a.candidateOf(bank), b.candidateOf(bank))
                << "bank " << bank;
            ASSERT_EQ(a.windowActsOf(bank), b.windowActsOf(bank))
                << "bank " << bank;
        }
    };
    const auto check = [&](const std::string &op) {
        SCOPED_TRACE(op);
        same_state(*hooks, *loop);
        const GroundTruthProbe hp(hooks_truth);
        const GroundTruthProbe lp(loop_truth);
        for (const char *name : {"trr.candidates_sampled",
                                 "trr.detections", "trr.trr_capable_refs"})
            ASSERT_EQ(hp.counter(name), lp.counter(name)) << name;
        ASSERT_EQ(hp.gauge("trr.candidate_occupancy"),
                  lp.gauge("trr.candidate_occupancy"));
        // The next draws: a full REF period consumes every candidate,
        // then one-row-each ACTs must be sampled at the same one.
        GroundTruthStore hs;
        GroundTruthStore ls;
        const auto h = cloneOnto(*hooks, hs);
        const auto l = cloneOnto(*loop, ls);
        for (int ref = 0; ref < params.trrRefPeriod; ++ref) {
            h->onRefresh();
            l->onRefresh();
        }
        for (Row r = 0; r < 512; ++r) {
            h->onActivate(0, 10'000 + r);
            l->onActivate(0, 10'000 + r);
        }
        same_state(*h, *l);
    };
    // What the hooks met: banks holding candidates or not, windows
    // at the cap, the fold taking over mid-call.
    std::map<std::string, int> ran;
    const auto census = [&](const std::vector<Bank> &banks) {
        int held = 0;
        for (Bank bank : banks) {
            held += loop->candidateOf(bank) ? 1 : 0;
            if (loop->windowActsOf(bank) == params.windowActs)
                ++ran[loop->candidateOf(bank) ? "window at cap, held"
                                               : "window at cap, empty"];
        }
        return held;
    };

    for (int op = 0; op < 300; ++op) {
        const auto kind = rng.uniformInt(0, 9);
        if (kind <= 6) {
            // kind 0-2: one row's burst; 3-6: up to eight rows with
            // repeating banks.
            const int n =
                kind <= 2 ? 1 : static_cast<int>(rng.uniformInt(1, 8));
            std::vector<Bank> banks;
            std::vector<Row> rows;
            for (int i = 0; i < n; ++i) {
                banks.push_back(
                    static_cast<Bank>(rng.uniformInt(0, kBanks - 1)));
                rows.push_back(static_cast<Row>(rng.uniformInt(100, 119)));
            }
            const int rounds = static_cast<int>(
                rng.chance(0.1) ? rng.uniformInt(1, 50'000)
                                : rng.uniformInt(1, 400));
            const int held_before = census(banks);
            ran[held_before == n ? "all held before"
                : held_before == 0 ? "none held before"
                                   : "some held before"]++;
            hooks->onActivateRoundRobin(banks.data(), rows.data(), n,
                                        rounds);
            for (int k = 0; k < rounds; ++k) {
                for (int i = 0; i < n; ++i)
                    loop->onActivate(banks[i], rows[i]);
            }
            ran[held_before < n && census(banks) == n
                    ? "candidates drawn mid-call" : "no new candidate"]++;
            check(kind <= 2 ? "burst" : "round robin");
        } else if (kind <= 8) {
            ++ran["refresh"];
            const auto a = hooks->onRefresh();
            const auto b = loop->onRefresh();
            ASSERT_EQ(a.size(), b.size());
            for (std::size_t i = 0; i < a.size(); ++i) {
                ASSERT_EQ(a[i].bank, b[i].bank);
                ASSERT_EQ(a[i].aggressorPhysRow, b[i].aggressorPhysRow);
            }
            check("refresh");
        } else {
            const Bank bank = static_cast<Bank>(rng.uniformInt(0, kBanks - 1));
            ++ran["single ACT"];
            hooks->onActivate(bank, 7);
            loop->onActivate(bank, 7);
            check("single ACT");
        }
        if (::testing::Test::HasFatalFailure())
            return;
    }
    const double p = params.sampleProbability;
    std::vector<std::string> expected = {"none held before", "refresh",
                                         "single ACT", "window at cap, empty"};
    if (p > 0.0) {
        expected = {"all held before", "none held before",
                    "candidates drawn mid-call", "refresh", "single ACT",
                    "window at cap, held"};
    }
    for (const std::string &what : expected)
        EXPECT_GT(ran[what], 0) << what;
}

INSTANTIATE_TEST_SUITE_P(
    Windows, VendorCBurstHooks,
    ::testing::Values(WindowConfig{"CTrr1", {17, 2'048, 1.0 / 128.0}},
                      WindowConfig{"ShortWindow", {8, 64, 1.0 / 128.0}},
                      WindowConfig{"FirstActSampled", {9, 64, 1.0}},
                      WindowConfig{"NeverSampled", {9, 32, 0.0}}),
    [](const auto &info) { return std::string(info.param.name); });

} // namespace
} // namespace utrr
