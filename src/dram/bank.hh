/**
 * @file
 * One DRAM bank, operating entirely in *physical* row space.
 *
 * The bank owns the sparse per-row state (rows materialize on first
 * touch), executes the physical side effects of ACT/PRE/WR/RD/row-refresh
 * and applies RowHammer disturbance to the physical neighbours of every
 * activated row. Logical-to-physical translation happens one level up,
 * in DramModule.
 *
 * Row storage is a direct-mapped slot table (`slotOf[phys_row]` indexes
 * into a deque of RowState), so every lookup — including the contiguous
 * scan of refreshRange — is O(1) with no tree walks. The deque keeps
 * references stable while neighbour materialization happens mid-ACT.
 * Hammer cells stay ungenerated until a row's accumulated charge reaches
 * its base-threshold lower bound (RowPhysics::hammerBaseThreshold); until
 * then the cells are inert at any charge the row can hold, so deferring
 * them is bit-identical and skips the dominant cold-path cost.
 */

#ifndef UTRR_DRAM_BANK_HH
#define UTRR_DRAM_BANK_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "dram/physics.hh"
#include "dram/row.hh"
#include "trr/trr.hh"

namespace utrr
{

/**
 * Physical state of one DRAM bank.
 */
class DramBank
{
  public:
    /**
     * @param id bank index (used to derive per-row physics streams)
     * @param phys_rows number of physical rows including spares
     * @param generator shared per-module physics generator (not owned)
     */
    DramBank(Bank id, Row phys_rows, const PhysicsGenerator *generator);

    /**
     * Open a row: restore its charge, disturb its neighbours — one
     * activatePlanned() of a plan built at @p now. Returns the opened
     * row's state.
     */
    RowState &activate(Row phys_row, Time now);

    /** Close the open row. */
    void precharge(Time now);

    /**
     * Pre-resolved single-activation work for one aggressor row: the
     * aggressor's row state and each in-range victim with both possible
     * disturbance weights pre-multiplied (the repeat/same-data factors
     * are constant while no WR lands, so only the lastDisturber branch
     * remains per ACT). Row pointers stay valid while the bank's row
     * storage does — build plans per burst, never across snapshot
     * restores.
     */
    struct ActPlan
    {
        struct PlannedVictim
        {
            RowState *state;
            /** Weight when the victim's last disturber is another row. */
            double wFirst;
            /** Weight when this row was also the previous disturber. */
            double wRepeat;
        };
        Row phys = kInvalidRow;
        RowState *aggr = nullptr;
        int victimCount = 0;
        PlannedVictim victims[4];
    };

    /**
     * Build an activation plan for @p phys_row: materialize the
     * aggressor and then each not-yet-touched in-range victim (its pair
     * row, or -1, +1, -2, +2) at @p now, with both weights in the one
     * multiply order. activate() runs a fresh plan, so a plan built at
     * the time of the aggressor's first ACT materializes rows exactly
     * as per-ACT activation would. The aggressor and its victims must
     * not change stored data while the plan is in use.
     */
    ActPlan buildActPlan(Row phys_row, Time now);

    /**
     * One ACT(+immediate PRE) worth of physical side effects from a
     * prebuilt plan: bump the ACT counter, restore the aggressor's
     * charge, disturb the planned victims. The bank must be (and stays)
     * precharged.
     */
    void activatePlanned(const ActPlan &plan, Time now);

    /** Most aggressors one interleaved fold accepts (stack bounds). */
    static constexpr int kMaxInterleavedFold =
        TrrMechanism::kMaxRoundRobinRows;

    /**
     * Apply @p rounds round-robin ACT+PRE passes over @p n (at most
     * kMaxInterleavedFold) planned aggressors of this bank, in global
     * round order — aggressor i's ACT of round k at
     * @p first_times[i] + k * @p round_gap — bit-identical to that
     * activatePlanned() loop. The first round runs per ACT: it may take
     * the slow restore path, and it resolves each victim's live last
     * disturber. The other rounds fold when interleavedRoundsFoldable()
     * proves them safe, and otherwise replay per ACT at their times.
     * The bank must be (and stays) precharged.
     */
    void activateRoundRobin(const ActPlan *const *plans,
                            const Time *first_times, int n, int rounds,
                            Time round_gap);

    /** Write a whole-row pattern into the open row. */
    void writeOpenRow(const DataPattern &pattern, Row pattern_row,
                      Time now);

    /** Write one 64-bit word of the open row. */
    void writeOpenRowWord(int word_idx, std::uint64_t value);

    /** Read the open row. */
    RowReadout readOpenRow() const;

    /**
     * Refresh a single physical row (used by the internal refresh engine
     * and by TRR-induced refreshes). No disturbance is applied.
     */
    void refreshRow(Row phys_row, Time now);

    /** Refresh all materialized rows in [phys_lo, phys_hi). */
    void refreshRange(Row phys_lo, Row phys_hi, Time now);

    /** Currently open physical row, or kInvalidRow. */
    Row openRow() const { return open; }

    /** Physical rows in this bank (including spares). */
    Row physRows() const { return physRowCount; }

    /** Direct row-state access for white-box tests and fast readback. */
    const RowState *peekRow(Row phys_row) const;

    /** Total ACT commands seen by this bank. */
    std::uint64_t actCount() const { return acts; }

    /** Total single-row refreshes performed in this bank. */
    std::uint64_t rowRefreshCount() const { return rowRefreshes; }

    /** Number of materialized rows (memory footprint diagnostics). */
    std::size_t materializedRows() const { return states.size(); }

    /** Fast-path tallies of every row this bank owns. */
    const RowPerfCounters &perf() const { return context.perf; }

    /**
     * Fault-injection hook: multiply one row's retention scale
     * (materializing the row if needed). The row keeps its own scale
     * from then on, and every later scaleAllRetention() step multiplies
     * it eagerly.
     */
    void scaleRowRetention(Row phys_row, double factor, Time now);

    /**
     * Fault-injection hook: multiply the retention scale of every
     * materialized row and of all rows materialized later (temperature
     * drift affects the whole bank). O(1) plus the rows that
     * scaleRowRetention() gave their own scale: every other row adopts
     * the bank-wide product at its next use (RowBankContext).
     */
    void scaleAllRetention(double factor);

    // ------------------------------------------------------------------
    // Snapshot / restore (DESIGN.md §16)
    // ------------------------------------------------------------------

    /**
     * Everything a bank needs to be rewound to an earlier point. Row
     * contents stay copy-on-write: copying a RowState shares its
     * override map and flip list behind shared_ptr, and either side
     * clones at its next mutation (the PR 5 readout COW extended to
     * snapshots), so the deep-copied part is only the slot table and
     * the per-row bookkeeping scalars.
     */
    struct Snapshot
    {
        std::vector<std::int32_t> slotOf;
        std::deque<RowState> states;
        std::vector<std::int32_t> ownScaleSlots;
        Row open = kInvalidRow;
        std::uint64_t acts = 0;
        std::uint64_t rowRefreshes = 0;
        RowBankContext context;
    };

    /** Capture this bank's mutable state. */
    Snapshot snapshotState() const;

    /**
     * Restore a snapshot taken from this bank or from any bank with the
     * same (id, physRows, generator) — i.e. the same position in a
     * module built from the same (spec, seed). Re-attaches every row to
     * this bank's perf tallies and retention scale.
     */
    void restoreState(const Snapshot &snap);

  private:
    /** Materialize (if needed) and return a row's state. */
    RowState &
    rowAt(Row phys_row, Time now)
    {
        UTRR_ASSERT(phys_row >= 0 && phys_row < physRowCount,
                    logFmt("physical row ", phys_row,
                           " out of range in bank ", id));
        const std::int32_t slot = slotOf[static_cast<std::size_t>(phys_row)];
        if (slot < 0) [[unlikely]]
            return materialize(phys_row, now);
        return states[static_cast<std::size_t>(slot)];
    }

    /** First touch of @p phys_row: build its state, born at @p now. */
    RowState &materialize(Row phys_row, Time now);

    /**
     * True when the round-robin ACT+PRE passes that follow a first
     * pass over the @p n planned aggressors (consecutive restores of
     * the same aggressor @p round_gap ns apart) can be applied as one
     * fold by applyInterleavedRounds(): distinct aggressor rows, and
     * every aggressor's restores provably fast-path even with the
     * worst-case charge the other listed aggressors can pump into it
     * per round. A check — mutates nothing observable (aggressors may
     * adopt pending temperature steps early).
     */
    bool interleavedRoundsFoldable(const ActPlan *const *plans, int n,
                                   Time round_gap) const;

    /**
     * Apply @p rounds further round-robin passes over the planned
     * aggressors in one call, after a first pass ran per ACT through
     * activatePlanned() — bit-identical to continuing that loop. Victim
     * charge accumulates in round order, through the exact
     * binade-stepped RowState::addDisturbanceRoundRobin() (one
     * aggressor included: its victims follow it and take the repeat
     * weight); each aggressor's restores collapse to one fast-forward
     * at its final-pass ACT, @p first_times[i] + @p rounds *
     * @p round_gap, plus the surviving final-pass disturbances from
     * later-in-round aggressors. The caller must have checked
     * interleavedRoundsFoldable().
     */
    void applyInterleavedRounds(const ActPlan *const *plans,
                                const Time *first_times, int n,
                                int rounds, Time round_gap);

    /** Generate and attach hammer cells once charge demands them. */
    void attachHammerCells(Row phys_row, RowState &state);

    Bank id;
    Row physRowCount;
    const PhysicsGenerator *gen;
    /** phys_row -> index into `states`; -1 = not materialized. */
    std::vector<std::int32_t> slotOf;
    /** Materialized rows in first-touch order (stable references). */
    std::deque<RowState> states;
    /** Slots of the rows scaleRowRetention() gave their own scale. */
    std::vector<std::int32_t> ownScaleSlots;
    Row open = kInvalidRow;
    std::uint64_t acts = 0;
    std::uint64_t rowRefreshes = 0;
    /** Shared by every RowState in `states` (addresses stay stable as
     *  long as the bank itself does — banks are built once per module
     *  and never moved). */
    RowBankContext context;
};

} // namespace utrr

#endif // UTRR_DRAM_BANK_HH
