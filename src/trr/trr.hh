/**
 * @file
 * Target Row Refresh (TRR) mechanism interface.
 *
 * The paper reverse-engineers eight distinct in-DRAM TRR implementations
 * across three vendors (Table 1). We implement each observed behaviour
 * as an executable model plugged into the simulated chip; U-TRR then
 * re-derives the behaviour from outside, treating the chip as a black
 * box.
 *
 * A TRR mechanism observes two command streams:
 *  - onActivate(bank, physical row): every ACT the chip receives;
 *  - onRefresh(): every REF command; the mechanism may piggyback
 *    TRR-induced refreshes on it (footnote 3 of the paper) by returning
 *    the aggressor rows whose neighbourhoods should be refreshed.
 *
 * The *chip* expands each detected aggressor into its victim rows
 * according to the module's neighbour policy (2 or 4 neighbours, or the
 * pair row for the paired organization).
 */

#ifndef UTRR_TRR_TRR_HH
#define UTRR_TRR_TRR_HH

#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/metrics.hh"

namespace utrr
{

/** The TRR implementation versions observed in the paper (Table 1). */
enum class TrrVersion
{
    kNone,
    kATrr1, // counter-based, 16-entry table, refreshes +-1 and +-2
    kATrr2, // counter-based, 16-entry table, refreshes +-1
    kBTrr1, // sampling-based, chip-wide single sampler, TRR on 1/4 REFs
    kBTrr2, // sampling-based, chip-wide single sampler, TRR on 1/9 REFs
    kBTrr3, // sampling-based, per-bank sampler, TRR on 1/2 REFs
    kCTrr1, // window-based, first 2K ACTs, TRR on 1/17 REFs, paired rows
    kCTrr2, // window-based, first 2K ACTs, TRR on 1/9 REFs
    kCTrr3, // window-based, first 1K ACTs, TRR on 1/8 REFs
};

/** Short identifier, e.g. "A_TRR1". */
std::string trrVersionName(TrrVersion version);

/** An aggressor row detected by TRR during a REF command. */
struct TrrRefreshAction
{
    Bank bank = 0;
    Row aggressorPhysRow = kInvalidRow;
};

/**
 * Abstract in-DRAM RowHammer mitigation mechanism.
 */
class TrrMechanism
{
  public:
    virtual ~TrrMechanism() = default;

    /** Observe an ACT command. */
    virtual void onActivate(Bank bank, Row phys_row) = 0;

    /**
     * Most aggressors one folded round robin carries. The compiled tier
     * folds no more rows than this into one onActivateRoundRobin() call
     * (DramBank::kMaxInterleavedFold is this limit), and the fold's
     * stack scratch — vendor A's table hits, each victim's round-robin
     * accumulation in RowState — is sized by it.
     */
    static constexpr int kMaxRoundRobinRows = 8;

    /**
     * Observe @p rounds round-robin passes over @p n aggressors — the
     * ACT sequence rows[0], rows[1], ..., rows[n-1] repeated @p rounds
     * times with no other command in between. Every fused hammer of the
     * compiled tier arrives here (DESIGN.md §17): a single-row burst is
     * n = 1, an interleaved or multi-bank one lists each aggressor.
     * Banks and rows may repeat in the list.
     *
     * The contract: afterwards the mechanism's state — tables, samples,
     * candidates, window counts, RNG stream position and ground-truth
     * counters — is exactly what onActivate() called once per ACT, in
     * that order, would have left. The default does just that. The
     * vendor models override it: vendor A replays the first round per
     * ACT (inserts, Obs. A5 evictions) and folds the rest when every
     * listed row is then tracked, vendor B keeps one sampler draw per
     * ACT but without the virtual call, and vendor C replays per ACT
     * only until every listed bank holds a candidate.
     */
    virtual void
    onActivateRoundRobin(const Bank *banks, const Row *phys_rows, int n,
                         int rounds)
    {
        for (int k = 0; k < rounds; ++k) {
            for (int i = 0; i < n; ++i)
                onActivate(banks[i], phys_rows[i]);
        }
    }

    /**
     * Observe a REF command; returns the aggressor rows (if any) whose
     * neighbourhoods this REF additionally refreshes.
     */
    virtual std::vector<TrrRefreshAction> onRefresh() = 0;

    /** Clear all internal state (white-box testing / fast bench setup). */
    virtual void reset() = 0;

    /** Implementation name for logs. */
    virtual std::string name() const = 0;

    /**
     * Deep copy of the mechanism's mutable state (tables, samplers,
     * windows, RNG streams). The clone carries the source's ground-truth
     * attachment; callers installing a clone into a different chip must
     * re-attachGroundTruth so the truth handles point at that chip's
     * store. This is the primitive DramModule snapshots build on.
     */
    virtual std::unique_ptr<TrrMechanism> clone() const = 0;

    /**
     * Attach the chip's ground-truth store. The mechanism records its
     * internal truth (detections, table/sampler occupancy) there;
     * experiments can only read it through a counted GroundTruthProbe.
     */
    void
    attachGroundTruth(GroundTruthStore *store)
    {
        gt = store;
        onGroundTruthAttached();
    }

  protected:
    /** Subclass hook to cache metric handles once. */
    virtual void onGroundTruthAttached() {}

    GroundTruthStore *gt = nullptr;
};

/** TRR that does nothing (chips without mitigation / disabled TRR). */
class NoTrr : public TrrMechanism
{
  public:
    void onActivate(Bank, Row) override {}
    void onActivateRoundRobin(const Bank *, const Row *, int, int) override
    {
    }
    std::vector<TrrRefreshAction> onRefresh() override { return {}; }
    void reset() override {}
    std::string name() const override { return "none"; }
    std::unique_ptr<TrrMechanism>
    clone() const override
    {
        return std::make_unique<NoTrr>(*this);
    }
};

/**
 * Instantiate the TRR model for a given version.
 *
 * @param version which implementation to build
 * @param banks number of banks in the chip
 * @param seed seed for the pseudo-random elements (vendor B sampler,
 *             vendor C candidate selection)
 */
std::unique_ptr<TrrMechanism> makeTrr(TrrVersion version, int banks,
                                      std::uint64_t seed);

/** Ground-truth properties of a version (drives chip-side expansion). */
struct TrrTraits
{
    /** A TRR-capable REF occurs once every this many REFs. */
    int trrToRefPeriod = 0;
    /** Victim rows refreshed around a detected aggressor (2 or 4). */
    int neighborsRefreshed = 2;
    /** Max aggressor rows tracked (-1 = unknown/not applicable). */
    int aggressorCapacity = 0;
    /** Whether detection state is per-bank or chip-wide. */
    bool perBank = false;
    /** Detection strategy family. */
    std::string detection;
};

/** Traits of each modelled version. */
TrrTraits trrTraits(TrrVersion version);

} // namespace utrr

#endif // UTRR_TRR_TRR_HH
