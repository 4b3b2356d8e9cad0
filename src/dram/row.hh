/**
 * @file
 * Per-row DRAM state: stored data, committed bit flips, charge bookkeeping.
 *
 * A row's contents are represented sparsely: a whole-row DataPattern (what
 * was last written), optional per-word overrides, and the set of columns
 * whose cells have lost their charge ("committed flips"). Charge
 * bookkeeping follows real DRAM behaviour:
 *
 *  - ACT / REF restores the charge of all cells of the row, but a cell
 *    that has *already* decayed past its retention time (or flipped due
 *    to hammering) is sensed wrong and the wrong value is restored — the
 *    flip is committed until the row is rewritten;
 *  - between restores, retention flips become due once
 *    `now - lastRefresh` exceeds a cell's (VRT-state-dependent) retention
 *    time, and hammer flips become due once accumulated disturbance
 *    charge exceeds a cell's threshold.
 *
 * Three hot-path optimizations keep this cheap without changing
 * semantics:
 *
 *  - restoreCharge() skips the cell scan entirely when the elapsed time
 *    is within the row's cached minimum effective retention and the
 *    accumulated charge is below the row's hammer floor. VRT rows never
 *    take the fast path (their telegraph RNG draws are visible state);
 *    retention scaling recomputes the cache — for a bank-wide
 *    temperature step lazily, at the row's next use (RowBankContext).
 *    That check and addDisturbance() are inline; only the cell scan
 *    (commitDueFlips) is out of line.
 *  - read() returns a RowReadout that *shares* the overrides map and
 *    flip list with the row (copy-on-write at every mutation point), so
 *    a RD is O(1) instead of copying both containers.
 *  - The first stored word, which the aggressor-data coupling reads for
 *    the aggressor and every victim of each ACT plan, is kept at write
 *    time (writePattern, writeWord) instead of being looked up.
 */

#ifndef UTRR_DRAM_ROW_HH
#define UTRR_DRAM_ROW_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "dram/data_pattern.hh"
#include "dram/physics.hh"

namespace utrr
{

/**
 * Always-on tallies of the row-state fast paths (one per bank, see
 * DramBank). Plain integers bumped through a pointer — deterministic,
 * cheap enough to leave enabled unconditionally — published into the
 * metrics registry as dram.restore.*, dram.hammer_cell_attaches and
 * dram.readout.cow_* so a regression in the PR 5 invariants (fast-path
 * hit rate collapsing, COW clones exploding) shows up as numbers
 * instead of silent slowdown.
 */
struct RowPerfCounters
{
    /** restoreCharge() calls that skipped the cell scan entirely. */
    std::uint64_t restoreFastPath = 0;
    /** restoreCharge() calls that ran commitDueFlips(). */
    std::uint64_t restoreSlowPath = 0;
    /** Lazy hammer-cell generations (the deferred cold path). */
    std::uint64_t hammerCellAttaches = 0;
    /** Copy-on-write clones forced by a live shared readout. */
    std::uint64_t readoutCowCopies = 0;
    /** Readouts served zero-copy by sharing the row's containers. */
    std::uint64_t readoutShares = 0;
};

/**
 * What a bank shares with every row it owns, through one pointer per
 * row: the fast-path tallies and the bank-wide retention scale.
 *
 * A temperature step (DramBank::scaleAllRetention) multiplies
 * `retentionScale` and bumps `retentionSteps` — O(1) however many rows
 * are materialized. A row stamps the step count its scale reflects and,
 * at its next use, adopts `retentionScale` if the bank has stepped
 * since. That is exact: such a row's eagerly-walked scale would be the
 * same product, bit for bit — it is born at the bank's product and
 * every later step multiplies both by the same factor in the same
 * order. Rows a VRT flip gave their own scale leave this scheme and are
 * multiplied eagerly by every step (DramBank::scaleRowRetention).
 */
struct RowBankContext
{
    RowPerfCounters perf;
    /** Product of every temperature step so far. */
    double retentionScale = 1.0;
    /** Temperature steps so far. */
    std::uint64_t retentionSteps = 0;
};

/**
 * Snapshot of a row's contents as seen by a READ burst.
 *
 * The snapshot shares immutable state with the RowState it came from:
 * both containers are held behind shared_ptr-to-const (null meaning
 * empty) and the row copies-on-write before mutating, so the readout
 * stays a stable snapshot at zero copy cost.
 */
class RowReadout
{
  public:
    /** Empty readout (zero-sized row); useful as a placeholder. */
    RowReadout() = default;

    RowReadout(
        DataPattern pattern, Row pattern_row,
        std::shared_ptr<const std::unordered_map<int, std::uint64_t>>
            overrides,
        std::shared_ptr<const std::vector<Col>> flips, int row_bits);

    /** Value of bit @p col. */
    bool bit(Col col) const;

    /** 64-bit word @p word_idx. */
    std::uint64_t word(int word_idx) const;

    /** Number of whole 64-bit words in the row. */
    int words() const { return bits / 64; }

    /** Total number of bits in the row (may not be word-aligned). */
    int rowBits() const { return bits; }

    /**
     * Columns whose value differs from @p expected (evaluated at row
     * address @p expected_row). Fast path when the expectation matches
     * what was last written.
     */
    std::vector<Col> flipsVs(const DataPattern &expected,
                             Row expected_row) const;

    /** Convenience: number of differing bits vs @p expected. */
    int countFlipsVs(const DataPattern &expected, Row expected_row) const;

    /** Columns currently flipped relative to the last written data. */
    const std::vector<Col> &rawFlips() const;

    /**
     * Fault-injection hook: toggle one bit of this readout in place
     * (models a transient read-back corruption on the bus, not a change
     * to the stored row). Copies-on-write, so the originating row is
     * untouched.
     */
    void injectFlip(Col col);

  private:
    std::uint64_t storedWord(int word_idx) const;
    bool hasOverrides() const { return overrides && !overrides->empty(); }

    DataPattern pattern{};
    Row patternRow = 0;
    std::shared_ptr<const std::unordered_map<int, std::uint64_t>> overrides;
    std::shared_ptr<const std::vector<Col>> flips;
    int bits = 0;
};

/**
 * Word-at-a-time readback diff: XOR each 64-bit word of @p readout
 * against @p expected (evaluated at @p expected_row) and extract
 * differing columns with ctz instead of probing all 64 bit positions.
 * A non-word-aligned tail is masked and compared too. Shared by
 * RowReadout::flipsVs and every readback-scanning caller (RowScout,
 * TRR analyzer, attack evaluator).
 */
std::vector<Col> diffReadout(const RowReadout &readout,
                             const DataPattern &expected, Row expected_row);

/** Popcount-only variant: the number of differing bits, no column list. */
int diffReadoutCount(const RowReadout &readout, const DataPattern &expected,
                     Row expected_row);

/**
 * Mutable state of one physical DRAM row.
 */
class RowState
{
  public:
    /**
     * @param physics immutable retention physics of the row
     * @param now creation time; the row counts as freshly refreshed
     * @param vrt_rng per-row RNG stream driving VRT state switches
     * @param row_bits bits per row
     * @param vrt_dwell mean dwell time (ns) per VRT state
     * @param vrt_high_factor retention multiplier in the VRT high state
     */
    RowState(RowPhysics physics, Time now, Rng vrt_rng, int row_bits,
             Time vrt_dwell, double vrt_high_factor);

    /** Restore charge (ACT or REF): commit due flips, reset charge. */
    void
    restoreCharge(Time now)
    {
        UTRR_ASSERT(hammerAttached || charge < phys.hammerBaseThreshold,
                    "hammer cells must be attached before a restore that "
                    "crosses the row's base threshold");
        syncRetentionScale();
        if (canSkipCommit(now)) {
            if (bank != nullptr)
                ++bank->perf.restoreFastPath;
        } else {
            if (bank != nullptr)
                ++bank->perf.restoreSlowPath;
            commitDueFlips(now);
        }
        lastRestore = now;
        charge = 0.0;
        lastAggressor = kInvalidRow;
    }

    /** Record disturbance from an aggressor ACT. */
    void
    addDisturbance(Row aggressor_phys, double added)
    {
        charge += added;
        lastAggressor = aggressor_phys;
    }

    /**
     * Batched equivalent of @p rounds round-robin passes over @p m
     * (at most TrrMechanism::kMaxRoundRobinRows) disturbing aggressors:
     * the add sequence aggrs[0], aggrs[1], ..., aggrs[m-1] repeated
     * @p rounds times. The first pass resolves each repeat-vs-first
     * weight from the row's live lastDisturber; from the second pass on
     * each add follows the previous aggressor of the round robin, so
     * the weights are fixed. The remaining passes are not performed
     * one add at a time: within one binade of the charge every pass
     * moves it by the same whole number of ulps, so the exact sum
     * advances one integer step per binade, with real additions only
     * where rounding could differ (DESIGN.md §17). The charge and
     * lastDisturber end bit-identical to the matching
     * interpreter-issued addDisturbance() calls; m = 1 is a
     * single-row run.
     */
    void addDisturbanceRoundRobin(const Row *aggrs, const double *w_first,
                                  const double *w_repeat, int m,
                                  int rounds);

    /**
     * True when every restore of a uniform train @p gap ns apart,
     * starting from the row's current state, is guaranteed to take the
     * fast path even if the row accrues up to @p charge_bound charge
     * between consecutive restores (each restore wipes the accrual, so
     * the pre-restore charge never exceeds the current charge plus
     * @p charge_bound) — i.e. the train can be fast-forwarded without
     * any per-call check. VRT rows never qualify (their telegraph RNG
     * draws are visible state).
     */
    bool restoresFastForwardable(Time gap, double charge_bound)
    {
        syncRetentionScale();
        return !vrtRow && charge + charge_bound < hammerFloor &&
            gap <= minRetCache;
    }

    /**
     * Batched equivalent of @p n consecutive fast-path restoreCharge()
     * calls, the last one at @p last_now. The caller must have verified
     * restoresFastForwardable() for the uniform step, and that no
     * disturbance lands on this row between the restores.
     */
    void fastForwardRestores(Time last_now, std::uint64_t n);

    /** Overwrite the whole row with a pattern (WR burst sequence). */
    void writePattern(const DataPattern &pattern, Row pattern_row,
                      Time now);

    /** Overwrite one 64-bit word. */
    void writeWord(int word_idx, std::uint64_t value);

    /** Read the row's current contents. Only valid right after ACT. */
    RowReadout read() const;

    /**
     * read().countFlipsVs(@p expected, @p expected_row) without
     * building the readout, tallying the share read() would. The
     * common case — the expectation is the pattern last written, with
     * no word overrides — is the committed flip count.
     */
    int readFlipCount(const DataPattern &expected, Row expected_row) const;

    /** The pattern last written (defaults to all-zeros). */
    const DataPattern &storedPattern() const { return pattern; }

    /** Row address the pattern was evaluated at. */
    Row patternRow() const { return patRow; }

    /** First stored word; used for cheap aggressor-data coupling. */
    std::uint64_t storedWord0() const { return word0; }

    /** Accumulated, uncommitted disturbance charge (units). */
    double hammerCharge() const { return charge; }

    /** Physical row of the last aggressor that disturbed this row. */
    Row lastDisturber() const { return lastAggressor; }

    /** Time of last charge restore. */
    Time lastRefresh() const { return lastRestore; }

    /** Lazily attach hammer cells (generated on first threshold risk). */
    bool hasHammerCells() const { return !phys.hammerCells.empty(); }
    void setHammerCells(std::vector<HammerCell> cells);

    /**
     * True when the accumulated charge has reached the row's hammer
     * base threshold but the hammer cell list has not been generated
     * yet. The bank must attach the cells (one generate() call) before
     * the next restore so the due flips can commit.
     */
    bool needsHammerCells() const
    {
        return !hammerAttached && charge >= phys.hammerBaseThreshold;
    }

    /** The row's physics (read-only). */
    const RowPhysics &physics() const { return phys; }

    /**
     * Fault-injection hook: multiply the effective retention of every
     * weak cell in this row by @p factor, giving the row its own scale
     * (1.0 = nominal). A mid-experiment VRT mode flip multiplies by the
     * VRT high factor (or its inverse); temperature drift walks the
     * bank-wide scale instead (RowBankContext). Exactly 1.0 is
     * guaranteed bit-identical to the unscaled physics. Invalidates the
     * fast-path minimum-retention cache. A bank's row must be scaled
     * through DramBank::scaleRowRetention, which keeps applying
     * temperature steps to it eagerly.
     */
    void scaleRetention(double factor)
    {
        syncRetentionScale();
        scaleStep = kOwnScale;
        retScale *= factor;
        refreshMinRetention();
    }

    /** True once scaleRetention() gave this row its own scale. */
    bool hasOwnRetentionScale() const { return scaleStep == kOwnScale; }

    /** Effective retention scale (including pending temperature steps). */
    double retentionScale() const
    {
        return lagsBankScale() ? bank->retentionScale : retScale;
    }

    /** Number of committed flips. */
    std::size_t committedFlipCount() const
    {
        return flips ? flips->size() : 0;
    }

    /**
     * Attach the owning bank's shared state (nullptr detaches). A row
     * copied from another bank keeps its scale stamp, which stays
     * meaningful only if @p context carries that bank's step count.
     */
    void attachBank(RowBankContext *context) { bank = context; }

  private:
    /** scaleStep of a row with its own scale: no step count reaches it. */
    static constexpr std::uint64_t kOwnScale =
        std::numeric_limits<std::uint64_t>::max();

    bool lagsBankScale() const
    {
        return bank != nullptr && scaleStep < bank->retentionSteps;
    }
    /** Adopt the bank-wide scale if temperature steps came since. */
    void syncRetentionScale()
    {
        if (lagsBankScale())
            adoptBankScale();
    }
    void adoptBankScale();

    bool storedBit(Col col) const;
    Time effectiveRetention(const WeakCell &cell, Time now);
    void commitDueFlips(Time now);
    void commitFlip(Col col);
    void refreshMinRetention();

    /** True when a restore at @p now provably commits no flip. */
    bool
    canSkipCommit(Time now) const
    {
        if (vrtRow || charge >= hammerFloor)
            return false;
        return now - lastRestore <= minRetCache;
    }

    /** Copy-on-write accessors: clone when a readout shares the state. */
    std::unordered_map<int, std::uint64_t> &mutableOverrides();
    std::vector<Col> &mutableFlips();

    RowPhysics phys;
    DataPattern pattern = DataPattern::allZeros();
    /** Word 0 as stored (its override if any, else the pattern's).
     *  With vrtHigh among the trailing flags it fills padding, so the
     *  row stays 248 bytes on x86-64 (DESIGN.md §12). */
    std::uint64_t word0 = 0;
    Row patRow = 0;
    /** Bits per row; sits in patRow's padding so scaleStep costs no
     *  size (rows dominate a module's memory). */
    int bits;
    /** Null means empty; shared with readouts, copy-on-write. */
    std::shared_ptr<std::unordered_map<int, std::uint64_t>> overrides;
    /** Sorted columns; null means empty; shared, copy-on-write. */
    std::shared_ptr<std::vector<Col>> flips;
    Time lastRestore;
    double charge = 0.0;
    Row lastAggressor = kInvalidRow;
    Rng vrtRng;
    Time lastVrtCheck;
    Time vrtDwell;
    double vrtHighFactor;
    double retScale = 1.0;
    /** Bank step count retScale reflects, or kOwnScale. */
    std::uint64_t scaleStep = 0;
    /** Owning bank's shared state (not owned; may be null). */
    RowBankContext *bank = nullptr;

    // --- restoreCharge fast-path cache ---
    /** Scaled retention of the weakest cell (Time max if none). */
    Time minRetCache = std::numeric_limits<Time>::max();
    /** Minimum hammer threshold to worry about: generated cells' floor
     *  once attached, else the physics' base-threshold lower bound. */
    double hammerFloor = std::numeric_limits<double>::infinity();
    /** Any VRT cell forces the slow path (telegraph draws are state). */
    bool vrtRow = false;
    /** weakCells verified sorted: slow path may stop at first survivor. */
    bool weakSorted = true;
    /** Hammer cells generated (or supplied at construction). */
    bool hammerAttached = false;
    /** Telegraph state of the row's VRT cells. */
    bool vrtHigh = false;
};

} // namespace utrr

#endif // UTRR_DRAM_ROW_HH
