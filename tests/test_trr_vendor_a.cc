#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "obs/metrics.hh"
#include "trr/vendor_a.hh"

namespace utrr
{
namespace
{

std::vector<TrrRefreshAction>
advanceToTrrRef(VendorATrr &trr, int period = 9)
{
    // Issue REFs until the TRR-capable one; return its actions.
    for (int i = 0; i < period - 1; ++i) {
        const auto actions = trr.onRefresh();
        EXPECT_TRUE(actions.empty());
    }
    return trr.onRefresh();
}

TEST(VendorATrr, OnlyEveryNinthRefIsTrrCapable)
{
    VendorATrr trr(1);
    trr.onActivate(0, 100);
    int trr_refs = 0;
    for (int ref = 1; ref <= 90; ++ref) {
        const auto actions = trr.onRefresh();
        if (!actions.empty()) {
            ++trr_refs;
            EXPECT_EQ(ref % 9, 0) << "TRR refresh at REF " << ref;
        }
    }
    EXPECT_GE(trr_refs, 5);
}

TEST(VendorATrr, CountsActivationsPerRow)
{
    VendorATrr trr(1);
    for (int i = 0; i < 5; ++i)
        trr.onActivate(0, 100);
    trr.onActivate(0, 200);
    const auto table = trr.tableOf(0);
    ASSERT_EQ(table.size(), 2u);
    EXPECT_EQ(table[0].first, 100);
    EXPECT_EQ(table[0].second, 5u);
    EXPECT_EQ(table[1].second, 1u);
}

TEST(VendorATrr, TrefADetectsHighestCounter)
{
    VendorATrr trr(1);
    for (int i = 0; i < 10; ++i)
        trr.onActivate(0, 100);
    for (int i = 0; i < 50; ++i)
        trr.onActivate(0, 200);
    const auto actions = advanceToTrrRef(trr);
    ASSERT_EQ(actions.size(), 1u);
    EXPECT_EQ(actions[0].aggressorPhysRow, 200);
}

TEST(VendorATrr, DetectionResetsCounter)
{
    // Obs. A6: after detection the counter restarts from zero, so the
    // other aggressor wins the next TREF even if hammered less since.
    VendorATrr trr(1);
    for (int i = 0; i < 50; ++i)
        trr.onActivate(0, 200);
    for (int i = 0; i < 10; ++i)
        trr.onActivate(0, 100);
    auto actions = advanceToTrrRef(trr); // TREF_a: row 200, reset
    ASSERT_EQ(actions[0].aggressorPhysRow, 200);
    const auto table = trr.tableOf(0);
    const auto it = std::find_if(table.begin(), table.end(),
                                 [](const auto &entry) {
                                     return entry.first == 200;
                                 });
    ASSERT_NE(it, table.end());
    EXPECT_EQ(it->second, 0u);
}

TEST(VendorATrr, TableCapacity16)
{
    // Obs. A4: at most 16 rows tracked per bank.
    VendorATrr trr(1);
    for (Row r = 0; r < 40; ++r)
        trr.onActivate(0, r);
    EXPECT_EQ(trr.tableOf(0).size(), 16u);
}

TEST(VendorATrr, EvictsMinimumCounter)
{
    // Obs. A5: inserting into a full table evicts the smallest counter.
    VendorATrr trr(1);
    for (Row r = 0; r < 16; ++r) {
        for (int i = 0; i < 10; ++i)
            trr.onActivate(0, r);
    }
    trr.onActivate(0, 5); // row 5 now has 11
    for (int i = 0; i < 3; ++i)
        trr.onActivate(0, 100); // must evict one 10-count row
    const auto table = trr.tableOf(0);
    bool has100 = false;
    for (const auto &[row, count] : table)
        has100 = has100 || row == 100;
    EXPECT_TRUE(has100);
    EXPECT_EQ(table.size(), 16u);
}

TEST(VendorATrr, TrefBTraversesTable)
{
    // Obs. A3/A7: TREF_b walks the table and re-detects entries whose
    // counters are zero, indefinitely.
    VendorATrr trr(1);
    trr.onActivate(0, 100);
    trr.onActivate(0, 200);

    std::vector<Row> detected;
    for (int ref = 0; ref < 9 * 8; ++ref) {
        for (const auto &action : trr.onRefresh())
            detected.push_back(action.aggressorPhysRow);
    }
    // Both rows keep being detected even though activation stopped.
    EXPECT_GE(std::count(detected.begin(), detected.end(), 100), 2);
    EXPECT_GE(std::count(detected.begin(), detected.end(), 200), 2);
}

TEST(VendorATrr, PerBankTables)
{
    VendorATrr trr(2);
    for (int i = 0; i < 10; ++i) {
        trr.onActivate(0, 100);
        trr.onActivate(1, 900);
    }
    const auto actions = advanceToTrrRef(trr);
    ASSERT_EQ(actions.size(), 2u);
    EXPECT_EQ(actions[0].bank, 0);
    EXPECT_EQ(actions[0].aggressorPhysRow, 100);
    EXPECT_EQ(actions[1].bank, 1);
    EXPECT_EQ(actions[1].aggressorPhysRow, 900);
}

TEST(VendorATrr, NoDetectionWithEmptyTable)
{
    VendorATrr trr(1);
    for (int ref = 0; ref < 36; ++ref)
        EXPECT_TRUE(trr.onRefresh().empty());
}

TEST(VendorATrr, TrefASkipsAllZeroCounters)
{
    // After the only entry is detected (count -> 0) and never
    // re-hammered, TREF_a has nothing to detect; only TREF_b keeps
    // cycling the entry.
    VendorATrr trr(1);
    trr.onActivate(0, 100);
    int detections = 0;
    for (int ref = 0; ref < 18 * 4; ++ref)
        detections += static_cast<int>(trr.onRefresh().size());
    // TREF_b fires every 18 REFs on the single entry; TREF_a only the
    // first time (counter 1), then the counter stays zero.
    EXPECT_GE(detections, 4);
    EXPECT_LE(detections, 6);
}

TEST(VendorATrr, ResetClearsState)
{
    VendorATrr trr(1);
    for (int i = 0; i < 100; ++i)
        trr.onActivate(0, 50);
    trr.reset();
    EXPECT_TRUE(trr.tableOf(0).empty());
    // REF counter restarts: the 9th REF after reset is TRR-capable.
    trr.onActivate(0, 60);
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(trr.onRefresh().empty());
    EXPECT_FALSE(trr.onRefresh().empty());
}

// ---------------------------------------------------------------------
// Burst hook (DESIGN.md §17): onActivateRoundRobin, single-row bursts
// included, against the per-ACT onActivate() sequence it stands for.
// ---------------------------------------------------------------------

/** A clone of @p trr on its own ground-truth store. */
std::unique_ptr<VendorATrr>
cloneOnto(const VendorATrr &trr, GroundTruthStore &store)
{
    std::unique_ptr<VendorATrr> copy(
        static_cast<VendorATrr *>(trr.clone().release()));
    copy->attachGroundTruth(&store);
    return copy;
}

bool
tracks(const VendorATrr &trr, Bank bank, Row row)
{
    for (const auto &[entry_row, count] : trr.tableOf(bank)) {
        if (entry_row == row)
            return true;
    }
    return false;
}

TEST(VendorABurstHooks, MatchPerActReplay)
{
    constexpr int kBanks = 4;
    const VendorATrr::Params params;
    const VendorATrr base(kBanks, params);
    GroundTruthStore hooks_truth;
    GroundTruthStore loop_truth;
    const auto hooks = cloneOnto(base, hooks_truth);
    const auto loop = cloneOnto(base, loop_truth);
    Rng rng(77);

    const auto same_tables = [](const VendorATrr &a, const VendorATrr &b) {
        for (Bank bank = 0; bank < kBanks; ++bank)
            ASSERT_EQ(a.tableOf(bank), b.tableOf(bank)) << "bank " << bank;
    };
    const auto same_actions = [](const std::vector<TrrRefreshAction> &a,
                                 const std::vector<TrrRefreshAction> &b) {
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a[i].bank, b[i].bank);
            ASSERT_EQ(a[i].aggressorPhysRow, b[i].aggressorPhysRow);
        }
    };
    const auto check = [&](const std::string &op) {
        SCOPED_TRACE(op);
        same_tables(*hooks, *loop);
        const GroundTruthProbe hp(hooks_truth);
        const GroundTruthProbe lp(loop_truth);
        for (const char *name : {"trr.detections", "trr.trr_capable_refs"})
            ASSERT_EQ(hp.counter(name), lp.counter(name)) << name;
        for (Bank bank = 0; bank < kBanks; ++bank) {
            const std::string name =
                "trr.table_occupancy.bank" + std::to_string(bank);
            ASSERT_EQ(hp.gauge(name), lp.gauge(name)) << name;
        }
        // The next refreshes: two TRR-capable REFs (TREF_a, TREF_b)
        // must detect the same rows.
        GroundTruthStore hs;
        GroundTruthStore ls;
        const auto h = cloneOnto(*hooks, hs);
        const auto l = cloneOnto(*loop, ls);
        for (int ref = 0; ref < 2 * params.trrRefPeriod; ++ref)
            same_actions(h->onRefresh(), l->onRefresh());
    };

    // Rows 100-127 overflow the 16-entry tables; rows from 6000 up are
    // fresh each time they are drawn.
    Row fresh = 6'000;
    std::map<std::string, int> ran;
    const auto round_robin = [&](const std::vector<Bank> &banks,
                                 const std::vector<Row> &rows, int rounds) {
        const int n = static_cast<int>(banks.size());
        bool all_tracked = true;
        bool free_slot = false;
        for (int i = 0; i < n; ++i) {
            if (!tracks(*loop, banks[i], rows[i])) {
                all_tracked = false;
                free_slot = free_slot ||
                    loop->tableOf(banks[i]).size() <
                        static_cast<std::size_t>(params.tableEntries);
            }
        }
        ++ran[all_tracked ? "all tracked"
              : free_slot ? "untracked, free slot"
                          : "untracked, table full"];
        for (int i = 1; i < n; ++i) {
            if (std::find(banks.begin(), banks.begin() + i, banks[i]) !=
                banks.begin() + i) {
                ++ran["repeated bank"];
                break;
            }
        }
        if (n > TrrMechanism::kMaxRoundRobinRows)
            ++ran["more rows than one fold"];
        hooks->onActivateRoundRobin(banks.data(), rows.data(), n, rounds);
        for (int k = 0; k < rounds; ++k) {
            for (int i = 0; i < n; ++i)
                loop->onActivate(banks[i], rows[i]);
            if (k > 0)
                continue;
            for (int i = 0; i < n; ++i) {
                if (!tracks(*loop, banks[i], rows[i])) {
                    ++ran["first round evicts a listed row"];
                    break;
                }
            }
        }
    };

    for (int op = 0; op < 300; ++op) {
        const auto kind = rng.uniformInt(0, 9);
        if (kind <= 2) {
            const Bank bank = static_cast<Bank>(rng.uniformInt(0, kBanks - 1));
            const Row row = rng.chance(0.2)
                ? fresh++ : static_cast<Row>(rng.uniformInt(100, 127));
            const int count = static_cast<int>(
                rng.chance(0.1) ? rng.uniformInt(1, 50'000)
                                : rng.uniformInt(1, 3'000));
            ++ran["single-row burst"];
            ran["burst of 10^4 or more"] += count >= 10'000 ? 1 : 0;
            round_robin({bank}, {row}, count);
            check("single-row burst");
        } else if (kind <= 5) {
            // Up to twelve rows with repeating banks: past the fold's
            // kMaxRoundRobinRows too.
            const int n = static_cast<int>(
                rng.chance(0.2) ? rng.uniformInt(9, 12)
                                : rng.uniformInt(2, 8));
            std::vector<Bank> banks;
            std::vector<Row> rows;
            for (int i = 0; i < n; ++i) {
                banks.push_back(
                    static_cast<Bank>(rng.uniformInt(0, kBanks - 1)));
                rows.push_back(rng.chance(0.1)
                                   ? fresh++
                                   : static_cast<Row>(
                                         rng.uniformInt(100, 127)));
            }
            round_robin(banks, rows,
                        static_cast<int>(rng.uniformInt(1, 2'000)));
            check("round robin");
        } else if (kind == 6) {
            // A full table whose smallest counter is at least 2 (each
            // of 16 rows inserted with two ACTs evicts one entry below
            // 2), then two untracked rows of that bank: the first round
            // inserts the first and evicts it again for the second.
            const Bank bank = static_cast<Bank>(rng.uniformInt(0, kBanks - 1));
            for (Row r = 0; r < params.tableEntries; ++r) {
                for (int i = 0; i < 2; ++i) {
                    hooks->onActivate(bank, 5'000 + r);
                    loop->onActivate(bank, 5'000 + r);
                }
            }
            const Row first = fresh++;
            const Row second = fresh++;
            round_robin({bank, bank}, {first, second},
                        static_cast<int>(rng.uniformInt(1, 400)));
            check("evicting pair");
        } else if (kind <= 8) {
            ++ran["refresh"];
            same_actions(hooks->onRefresh(), loop->onRefresh());
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
         {"single-row burst", "burst of 10^4 or more", "all tracked",
          "untracked, free slot", "untracked, table full",
          "first round evicts a listed row", "repeated bank",
          "more rows than one fold", "refresh", "single ACT"})
        EXPECT_GT(ran[what], 0) << what;
    // The REFs really detected rows.
    EXPECT_GT(GroundTruthProbe(loop_truth).counter("trr.detections"), 10u);
}

} // namespace
} // namespace utrr
