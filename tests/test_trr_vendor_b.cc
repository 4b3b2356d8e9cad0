#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "obs/metrics.hh"
#include "trr/vendor_b.hh"

namespace utrr
{
namespace
{

VendorBTrr::Params
chipWide(int period = 4)
{
    VendorBTrr::Params params;
    params.trrRefPeriod = period;
    params.perBank = false;
    return params;
}

TEST(VendorBTrr, SamplesAfterEnoughActivations)
{
    // Obs. B3: thousands of consecutive ACTs to one row make its
    // detection essentially certain.
    VendorBTrr trr(1, chipWide(), 1);
    for (int i = 0; i < 2'000; ++i)
        trr.onActivate(0, 123);
    ASSERT_TRUE(trr.currentSample().has_value());
    EXPECT_EQ(trr.currentSample()->aggressorPhysRow, 123);
}

TEST(VendorBTrr, OnlyEveryFourthRefPerformsTrr)
{
    VendorBTrr trr(1, chipWide(4), 2);
    for (int i = 0; i < 2'000; ++i)
        trr.onActivate(0, 5);
    for (int ref = 1; ref <= 40; ++ref) {
        const auto actions = trr.onRefresh();
        EXPECT_EQ(!actions.empty(), ref % 4 == 0)
            << "unexpected action set at REF " << ref;
    }
}

TEST(VendorBTrr, ConfigurablePeriods)
{
    for (int period : {2, 9}) {
        VendorBTrr trr(1, chipWide(period), 3);
        for (int i = 0; i < 2'000; ++i)
            trr.onActivate(0, 5);
        int first_action_ref = 0;
        for (int ref = 1; ref <= period * 2; ++ref) {
            if (!trr.onRefresh().empty() && first_action_ref == 0)
                first_action_ref = ref;
        }
        EXPECT_EQ(first_action_ref, period);
    }
}

TEST(VendorBTrr, NewSampleOverwritesOld)
{
    // Obs. B4: sampling capacity of exactly one row.
    VendorBTrr trr(1, chipWide(), 4);
    for (int i = 0; i < 2'000; ++i)
        trr.onActivate(0, 111);
    for (int i = 0; i < 2'000; ++i)
        trr.onActivate(0, 222);
    ASSERT_TRUE(trr.currentSample().has_value());
    EXPECT_EQ(trr.currentSample()->aggressorPhysRow, 222);
}

TEST(VendorBTrr, SamplerSharedAcrossBanks)
{
    // Obs. B4: a row from another bank overwrites the sample.
    VendorBTrr trr(4, chipWide(), 5);
    for (int i = 0; i < 2'000; ++i)
        trr.onActivate(0, 111);
    for (int i = 0; i < 2'000; ++i)
        trr.onActivate(3, 333);
    ASSERT_TRUE(trr.currentSample().has_value());
    EXPECT_EQ(trr.currentSample()->bank, 3);
    EXPECT_EQ(trr.currentSample()->aggressorPhysRow, 333);
}

TEST(VendorBTrr, TrrRefreshDoesNotClearSample)
{
    // Obs. B5.
    VendorBTrr trr(1, chipWide(), 6);
    for (int i = 0; i < 2'000; ++i)
        trr.onActivate(0, 77);
    int detections = 0;
    for (int ref = 0; ref < 16; ++ref) {
        for (const auto &action : trr.onRefresh()) {
            EXPECT_EQ(action.aggressorPhysRow, 77);
            ++detections;
        }
    }
    EXPECT_EQ(detections, 4); // every 4th of 16 REFs, same row
}

TEST(VendorBTrr, PerBankModeKeepsIndependentSamples)
{
    VendorBTrr::Params params;
    params.trrRefPeriod = 2;
    params.perBank = true;
    VendorBTrr trr(2, params, 7);
    for (int i = 0; i < 2'000; ++i)
        trr.onActivate(0, 100);
    for (int i = 0; i < 2'000; ++i)
        trr.onActivate(1, 200);
    EXPECT_EQ(trr.currentSampleOf(0).value(), 100);
    EXPECT_EQ(trr.currentSampleOf(1).value(), 200);
    trr.onRefresh();
    const auto actions = trr.onRefresh(); // 2nd REF: TRR-capable
    ASSERT_EQ(actions.size(), 2u);
}

TEST(VendorBTrr, SamplingIsProbabilistic)
{
    // A handful of ACTs is usually not sampled; the probability over
    // many trials matches the configured rate roughly.
    int sampled = 0;
    for (int trial = 0; trial < 300; ++trial) {
        VendorBTrr trr(1, chipWide(), 1'000 + trial);
        trr.onActivate(0, 9);
        sampled += trr.currentSample().has_value() ? 1 : 0;
    }
    // One ACT: expected sampling rate = params.sampleProbability.
    EXPECT_GT(sampled, 1);
    EXPECT_LT(sampled, 60);
}

TEST(VendorBTrr, ResetClearsSampleAndPhase)
{
    VendorBTrr trr(1, chipWide(), 8);
    for (int i = 0; i < 2'000; ++i)
        trr.onActivate(0, 42);
    trr.onRefresh();
    trr.reset();
    EXPECT_FALSE(trr.currentSample().has_value());
    for (int i = 0; i < 2'000; ++i)
        trr.onActivate(0, 43);
    for (int ref = 1; ref <= 4; ++ref) {
        const auto actions = trr.onRefresh();
        EXPECT_EQ(!actions.empty(), ref == 4);
    }
}


// B_TRR3's trr.sampler_occupancy gauge counts the banks holding a
// sample. It is kept as samples land, not by walking the banks, so it
// must match that walk after seeded per-ACT, round-robin and REF ops,
// and across resets (which zero it).
TEST(VendorBTrr, PerBankOccupancyGaugeCountsSampledBanks)
{
    constexpr int kBanks = 16;
    GroundTruthStore truth;
    std::unique_ptr<TrrMechanism> trr = std::make_unique<VendorBTrr>(
        kBanks, VendorBTrr::Params{2, true, 1.0 / 24.0}, 5);
    trr->attachGroundTruth(&truth);
    const auto sampled_banks = [&] {
        int n = 0;
        for (Bank bank = 0; bank < kBanks; ++bank) {
            n += static_cast<const VendorBTrr &>(*trr).currentSampleOf(bank)
                ? 1 : 0;
        }
        return n;
    };
    Rng rng(31);
    std::uint64_t samples_at_reset = 0;
    std::map<int, int> seen;
    for (int op = 0; op < 800; ++op) {
        const auto kind = rng.uniformInt(0, 38);
        if (kind <= 23) {
            trr->onActivate(static_cast<Bank>(rng.uniformInt(0, kBanks - 1)),
                            static_cast<Row>(rng.uniformInt(100, 119)));
        } else if (kind <= 31) {
            const int n = static_cast<int>(rng.uniformInt(1, 4));
            std::vector<Bank> banks;
            std::vector<Row> rows;
            for (int i = 0; i < n; ++i) {
                banks.push_back(
                    static_cast<Bank>(rng.uniformInt(0, kBanks - 1)));
                rows.push_back(static_cast<Row>(rng.uniformInt(100, 119)));
            }
            trr->onActivateRoundRobin(banks.data(), rows.data(), n,
                                      static_cast<int>(rng.uniformInt(1, 200)));
        } else if (kind <= 37) {
            trr->onRefresh();
        } else {
            trr->reset();
            samples_at_reset =
                GroundTruthProbe(truth).counter("trr.samples_taken");
        }
        // The gauge moves only when a sample lands.
        const GroundTruthProbe probe(truth);
        if (probe.counter("trr.samples_taken") == samples_at_reset)
            continue;
        const int walk = sampled_banks();
        ++seen[walk];
        ASSERT_EQ(probe.gauge("trr.sampler_occupancy"), walk)
            << "op " << op;
    }
    // The count rose from few banks to all of them.
    EXPECT_GT(seen.size(), 8u);
    EXPECT_GT(seen[kBanks], 0);
}

// ---------------------------------------------------------------------
// Burst hook (DESIGN.md §17): onActivateRoundRobin, single-row bursts
// included, against the per-ACT onActivate() sequence it stands for.
// ---------------------------------------------------------------------

/** A copy of @p trr on its own ground-truth store. */
std::unique_ptr<VendorBTrr>
cloneOnto(const VendorBTrr &trr, GroundTruthStore &store)
{
    auto copy = std::make_unique<VendorBTrr>(trr);
    copy->attachGroundTruth(&store);
    return copy;
}

/**
 * A random sequence of bursts, round robins, REFs and single ACTs, run
 * through the burst hook on one clone and as per-ACT onActivate() calls
 * on another, compared after every step.
 */
void
matchPerActReplay(bool per_bank, double sample_probability)
{
    constexpr int kBanks = 4;
    constexpr std::uint64_t kSeed = 99;
    VendorBTrr::Params params;
    params.perBank = per_bank;
    params.trrRefPeriod = params.perBank ? 2 : 4;
    params.sampleProbability = sample_probability;
    const VendorBTrr base(kBanks, params, kSeed);
    GroundTruthStore hooks_truth;
    GroundTruthStore loop_truth;
    const auto hooks = cloneOnto(base, hooks_truth);
    const auto loop = cloneOnto(base, loop_truth);
    Rng rng(params.perBank ? 13 : 12);

    const auto same_sample = [](const VendorBTrr &a, const VendorBTrr &b) {
        const auto x = a.currentSample();
        const auto y = b.currentSample();
        ASSERT_EQ(x.has_value(), y.has_value());
        if (x) {
            ASSERT_EQ(x->bank, y->bank);
            ASSERT_EQ(x->aggressorPhysRow, y->aggressorPhysRow);
        }
        for (Bank bank = 0; bank < kBanks; ++bank)
            ASSERT_EQ(a.currentSampleOf(bank), b.currentSampleOf(bank));
    };
    const auto check = [&](const std::string &op) {
        SCOPED_TRACE(op);
        same_sample(*hooks, *loop);
        const GroundTruthProbe hp(hooks_truth);
        const GroundTruthProbe lp(loop_truth);
        for (const char *name : {"trr.samples_taken", "trr.detections",
                                 "trr.trr_capable_refs"})
            ASSERT_EQ(hp.counter(name), lp.counter(name)) << name;
        ASSERT_EQ(hp.gauge("trr.sampler_occupancy"),
                  lp.gauge("trr.sampler_occupancy"));
        // The next draws: both sampler streams sit at the same
        // position, so one-row-each ACTs get sampled at the same ones.
        GroundTruthStore hs;
        GroundTruthStore ls;
        const auto h = cloneOnto(*hooks, hs);
        const auto l = cloneOnto(*loop, ls);
        for (Row r = 0; r < 256; ++r) {
            h->onActivate(r % kBanks, 10'000 + r);
            l->onActivate(r % kBanks, 10'000 + r);
        }
        same_sample(*h, *l);
    };

    std::map<std::string, int> ran;
    for (int op = 0; op < 300; ++op) {
        const auto kind = rng.uniformInt(0, 9);
        if (kind <= 3) {
            const Bank bank = static_cast<Bank>(rng.uniformInt(0, kBanks - 1));
            const Row row = static_cast<Row>(rng.uniformInt(100, 119));
            const int count = static_cast<int>(
                rng.chance(0.1) ? rng.uniformInt(1, 50'000)
                                : rng.uniformInt(1, 3'000));
            ++ran["burst"];
            hooks->onActivateRoundRobin(&bank, &row, 1, count);
            for (int i = 0; i < count; ++i)
                loop->onActivate(bank, row);
            check("burst");
        } else if (kind <= 7) {
            // Up to eight rows with repeating banks (a cross-bank
            // interleave or a multi-bank fill).
            const int n = static_cast<int>(rng.uniformInt(1, 8));
            std::vector<Bank> banks;
            std::vector<Row> rows;
            for (int i = 0; i < n; ++i) {
                banks.push_back(
                    static_cast<Bank>(rng.uniformInt(0, kBanks - 1)));
                rows.push_back(static_cast<Row>(rng.uniformInt(100, 119)));
            }
            const int rounds = static_cast<int>(rng.uniformInt(1, 3'000));
            ++ran["round robin"];
            for (int i = 1; i < n; ++i) {
                if (banks[i] == banks[0]) {
                    ++ran["repeated bank"];
                    break;
                }
            }
            hooks->onActivateRoundRobin(banks.data(), rows.data(), n,
                                        rounds);
            for (int k = 0; k < rounds; ++k) {
                for (int i = 0; i < n; ++i)
                    loop->onActivate(banks[i], rows[i]);
            }
            check("round robin");
        } else if (kind == 8) {
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
    for (const char *what :
         {"burst", "round robin", "repeated bank", "refresh", "single ACT"})
        EXPECT_GT(ran[what], 0) << what;
    const std::uint64_t samples =
        GroundTruthProbe(loop_truth).counter("trr.samples_taken");
    if (sample_probability > 0.0 && sample_probability < 1.0) {
        // The sequence really sampled, many times over.
        EXPECT_GT(samples, 1'000u);
        return;
    }
    // chance()'s edges: every ACT samples (p = 1) or none does (p = 0),
    // and neither path draws, so both streams sit at the seed.
    EXPECT_EQ(samples == 0, sample_probability <= 0.0);
    for (const VendorBTrr *trr : {hooks.get(), loop.get()}) {
        Rng stream = trr->samplerStream();
        Rng seeded(kSeed);
        for (int i = 0; i < 4; ++i)
            EXPECT_EQ(stream.next(), seeded.next());
    }
}

/** Chip-wide (B_TRR1) and per-bank (B_TRR3) samplers. */
class VendorBBurstHooks : public ::testing::TestWithParam<bool>
{
};

TEST_P(VendorBBurstHooks, MatchPerActReplay)
{
    const bool per_bank = GetParam();
    // The mode's rate, then chance()'s two no-draw edges.
    for (const double p : {per_bank ? 1.0 / 24.0 : 1.0 / 115.0, 0.0, 1.0}) {
        SCOPED_TRACE(p);
        ASSERT_NO_FATAL_FAILURE(matchPerActReplay(per_bank, p));
    }
}

INSTANTIATE_TEST_SUITE_P(Modes, VendorBBurstHooks, ::testing::Bool(),
                         [](const auto &info) {
                             return std::string(info.param ? "PerBank"
                                                           : "ChipWide");
                         });

} // namespace
} // namespace utrr
