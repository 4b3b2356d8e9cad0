/**
 * @file
 * Top-level simulated DDR4 module.
 *
 * Exposes exactly the interface a memory controller (or SoftMC) has to a
 * real module: ACT/PRE/WR/RD/REF with logical addresses. Internally it
 * translates logical rows to physical locations, applies retention and
 * RowHammer physics through the banks, runs the internal regular-refresh
 * engine, and hosts the (proprietary, invisible from outside) TRR
 * mechanism.
 *
 * Chips of a rank operate in lock step and the modelled TRR designs are
 * command-stream-deterministic, so a single chip-wide model stands in
 * for the per-chip instances (see DESIGN.md).
 */

#ifndef UTRR_DRAM_MODULE_HH
#define UTRR_DRAM_MODULE_HH

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "dram/bank.hh"
#include "dram/mapping.hh"
#include "dram/module_spec.hh"
#include "dram/physics.hh"
#include "dram/refresh_engine.hh"
#include "dram/timing.hh"
#include "obs/metrics.hh"
#include "trr/trr.hh"

namespace utrr
{

/**
 * A simulated DDR4 DRAM module.
 */
class DramModule
{
  public:
    /**
     * @param spec module geometry, physics and TRR configuration
     * @param seed master seed; all per-row physics derive from it
     * @param retention_overrides optional replacement retention config
     */
    DramModule(ModuleSpec spec, std::uint64_t seed = 1,
               const RetentionModelConfig *retention_overrides = nullptr);

    /** Activate (open) a logical row. */
    void act(Bank bank, Row logical_row, Time now);

    /** Precharge (close) a bank. */
    void pre(Bank bank, Time now);

    /** Write a whole-row pattern into the open row of a bank. */
    void wr(Bank bank, const DataPattern &pattern, Time now);

    /** Write one 64-bit word of the open row. */
    void wrWord(Bank bank, int word_idx, std::uint64_t value);

    /** Read the open row of a bank. */
    RowReadout rd(Bank bank) const;

    /** Refresh command: regular refresh sweep + possible TRR refresh. */
    void ref(Time now);

    // ------------------------------------------------------------------
    // Batched activation (the compiled execution tier, DESIGN.md §17).
    // Bit-identical to the equivalent act()/pre() loops: the bank fuses
    // the physical work, the TRR mechanism still observes every ACT.
    // ------------------------------------------------------------------

    /** A bank ActPlan plus the module-level addressing around it. */
    struct ActPlan
    {
        Bank bank = 0;
        Row phys = kInvalidRow;
        DramBank *bankPtr = nullptr;
        DramBank::ActPlan bankPlan;
    };

    /**
     * Build a reusable single-activation plan for (bank, logical row)
     * at the time of the row's first ACT (DramBank::buildActPlan).
     */
    ActPlan buildActPlan(Bank bank, Row logical_row, Time now);

    /**
     * One ACT+immediate-PRE via a prebuilt plan: bank side effects, TRR
     * observation and metrics, with the address translation and row
     * lookups already resolved. The bank must be (and stays) precharged.
     */
    void actPlanned(const ActPlan &plan, Time now);

    /**
     * Apply @p rounds round-robin ACT+PRE passes over the @p n planned
     * aggressors in one call — the ACT sequence plans[0], plans[1],
     * ..., plans[n-1] repeated @p rounds times, one ACT every @p stride
     * ns starting at @p start (stride 0 puts every ACT at @p start, as
     * a multi-bank burst issues them). n = 1 is a single-row hammer
     * burst. Bit-identical to the matching actPlanned() loop (bank
     * physics, TRR observation order, metrics). Each bank runs its own
     * aggressors through DramBank::activateRoundRobin(): the first
     * round per ACT, then one fold of the rest, or — when the bank
     * cannot prove the fold safe — a replay of just its ACTs, each at
     * its time in the full sequence, while the other banks still fold.
     * TRR observes all rounds through one onActivateRoundRobin() call.
     * The banks must be (and stay) precharged. Returns false with
     * nothing mutated only for more than kMaxInterleavedFold
     * aggressors, no aggressors or no rounds; the caller must then run
     * the per-cycle loop.
     */
    bool actInterleavedBurst(const ActPlan *plans, int n, int rounds,
                             Time start, Time stride);

    // ------------------------------------------------------------------
    // Row-range access (the compiled tier's retention scans, DESIGN.md
    // §17). Bit-identical to the equivalent per-row act()/wr()/rd()/
    // pre() loops.
    // ------------------------------------------------------------------

    /**
     * The host side of each row of a range op, for an attached fault
     * injector or command trace: called once per row, right after the
     * row's ACT, while the row is open.
     */
    class RowRangeHook
    {
      public:
        virtual ~RowRangeHook() = default;

        /**
         * Row @p logical of writeRows() opened at @p act; its WR issues
         * tRAS later. Returns false when the WR is dropped.
         */
        virtual bool writeRow(Bank bank, Row logical, Time act) = 0;

        /**
         * Row @p logical of readRows() opened at @p act; its RD issues
         * tRAS later. Returns the readout's flips against @p expected
         * at the row's own address.
         */
        virtual int readRow(Bank bank, Row logical, Time act,
                            const DataPattern &expected) = 0;
    };

    /**
     * Write @p pattern to logical rows [@p first, @p last) of @p bank
     * in one call: row i opens at @p start + i·timing.rowCycle() and is
     * written tRAS later, and every row's plan is built at its own ACT
     * (rows materialize then). Each write advances the plan epoch: it
     * changes the stored word the next rows' same-data weights read.
     * The bank must be precharged; @p hook may be null.
     */
    void writeRows(Bank bank, Row first, Row last,
                   const DataPattern &pattern, Time start,
                   const Timing &timing, RowRangeHook *hook);

    /**
     * Read logical rows [@p first, @p last) of @p bank back at the
     * writeRows() times, storing in @p flips[i] row first + i's flips
     * against @p expected at its own address. Without a hook no
     * readout is built (RowState::readFlipCount); dram.read_flip_bits
     * and the readout-share tally count as rd() would. The bank must
     * be precharged; @p hook may be null.
     */
    void readRows(Bank bank, Row first, Row last,
                  const DataPattern &expected, Time start,
                  const Timing &timing, int *flips, RowRangeHook *hook);

    /**
     * Monotonic counter that advances whenever a cached ActPlan could
     * go stale: a WR/wrWord lands (stored coupling words feed the
     * pre-multiplied plan weights) or a snapshot restore replaces the
     * banks' row storage (the plan's RowState pointers dangle). Plans
     * built under the current epoch stay valid while it is unchanged —
     * activations, refreshes, TRR refreshes and new-row materialization
     * neither move row states (deque storage) nor touch stored data.
     * Starts at 1 so a zero-initialized cache slot can never match.
     */
    std::uint64_t planEpoch() const { return planEpochV; }

    const ModuleSpec &spec() const { return moduleSpec; }

    /** Master seed the module was built with (for experiment reports). */
    std::uint64_t seed() const { return masterSeed; }

    /** Logical<->physical translation for one bank. */
    Row toPhysical(Bank bank, Row logical_row) const;
    Row toLogical(Bank bank, Row phys_row) const;
    const RowMapping &mapping(Bank bank) const;

    /** Total REF commands received. */
    std::uint64_t refCount() const { return refs; }

    /** REFs until the sweep next regular-refreshes a physical row. */
    int refsUntilRegularRefresh(Row phys_row) const;

    /** REF commands per regular-refresh sweep (ground truth). */
    int regularRefreshPeriod() const { return engine.periodRefs(); }

    // ------------------------------------------------------------------
    // White-box access for substrate tests and fast bench setup. U-TRR
    // itself never uses these: it must work through the commands above.
    // ------------------------------------------------------------------

    /** Direct access to the TRR model. */
    TrrMechanism &trrMechanism() { return *trr; }

    /** Direct access to a bank. */
    DramBank &bankAt(Bank bank);
    const DramBank &bankAt(Bank bank) const;

    /** Reset TRR internal state without the dummy-hammer dance. */
    void resetTrrState() { trr->reset(); }

    /** The module's physics generator (tests). */
    const PhysicsGenerator &physics() const { return *gen; }

    /** TRR-induced row refreshes performed so far (ground truth). */
    std::uint64_t trrRefreshCount() const { return trrRefreshes; }

    /** TRR refresh actions (detected aggressors) so far. */
    std::uint64_t trrEventCount() const { return trrEvents; }

    // ------------------------------------------------------------------
    // Snapshot / restore (DESIGN.md §16)
    // ------------------------------------------------------------------

    /**
     * A module's complete restorable state: per-bank slot tables and
     * rows (row contents stay copy-on-write, see DramBank::Snapshot),
     * open-row registers, the refresh engine's sweep position, a deep
     * clone of the TRR mechanism and the command counters.
     *
     * Not captured: the ground-truth store (a monotone observability
     * audit trail, not device state — white-box probe comparisons
     * across a restore are out of scope) and attached metrics handles
     * (environment). Move-only because of the TRR clone.
     */
    struct Snapshot
    {
        std::vector<DramBank::Snapshot> banks;
        std::vector<Row> openLogical;
        RefreshEngine::Snapshot engine;
        std::unique_ptr<TrrMechanism> trr;
        std::uint64_t refs = 0;
        std::uint64_t trrRefreshes = 0;
        std::uint64_t trrEvents = 0;
    };

    /** Capture the module's state at this instant. */
    Snapshot snapshot() const;

    /**
     * Rewind to a snapshot. Valid on the module the snapshot was taken
     * from *and* on any module built from the same (spec, seed) — the
     * physics generator and mappings are pure functions of those, so
     * restoring into a fresh instance forks the captured state. One
     * snapshot can be restored any number of times.
     */
    void restore(const Snapshot &snap);

    // ------------------------------------------------------------------
    // Fault-injection hooks (see src/fault/). Scaling by exactly 1.0 is
    // bit-identical to no injection.
    // ------------------------------------------------------------------

    /** Multiply one physical row's effective retention time. */
    void scaleRowRetention(Bank bank, Row phys_row, double factor,
                           Time now);

    /** Multiply every row's effective retention time (temp drift). */
    void scaleAllRetention(double factor);

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    /**
     * Attach a metrics registry (not owned; nullptr detaches). The
     * module records controller-observable metrics: total and per-bank
     * ACTs, REFs, rows swept by regular refresh, and flipped bits seen
     * by RD bursts.
     */
    void attachMetrics(MetricsRegistry *registry);

    /**
     * Counted read-side handle onto the chip's ground truth (TRR
     * detections, table/sampler occupancy, per-row TRR-induced victim
     * refreshes as "chip.trr_victim_refresh.b<bank>.r<phys>").
     */
    GroundTruthProbe groundTruthProbe() const
    {
        return GroundTruthProbe(gtStore);
    }

    /** Ground-truth reads so far; 0 proves a black-box run. */
    std::uint64_t groundTruthPeeks() const { return gtStore.peekCount(); }

    /** Summed fast-path tallies of every bank (always counted). */
    RowPerfCounters perfTotals() const;

    /**
     * Publish the fast-path tallies into the attached metrics registry
     * (dram.restore.fast_path / .slow_path, dram.hammer_cell_attaches,
     * dram.readout.cow_copies / .cow_shares). Publishing *assigns* the
     * counter values, so calling it repeatedly (e.g. once per campaign
     * capture and once at report time) never double-counts. No-op
     * without a registry.
     */
    void publishPerfCounters();

  private:
    /**
     * The shared loop of writeRows() and readRows(): per row, in
     * order, translate, activate (plan at the ACT), let TRR observe
     * the ACT, run @p access(logical, row state, ACT time) and
     * precharge; then bump the ACT counters once.
     */
    template <typename Access>
    void accessRows(Bank bank, Row first, Row last, Time start,
                    const Timing &timing, Access &&access);

    std::vector<Row> victimRowsOf(Row aggressor_phys) const;
    Counter &gtVictimCounter(Bank bank, Row phys_row);

    ModuleSpec moduleSpec;
    std::unique_ptr<PhysicsGenerator> gen;
    std::vector<DramBank> banks;
    std::vector<RowMapping> mappings;
    std::vector<Row> openLogical;
    RefreshEngine engine;
    std::unique_ptr<TrrMechanism> trr;
    std::uint64_t refs = 0;
    std::uint64_t trrRefreshes = 0;
    std::uint64_t trrEvents = 0;
    std::uint64_t masterSeed = 0;
    /** See planEpoch(). */
    std::uint64_t planEpochV = 1;

    GroundTruthStore gtStore;
    Counter *gtTrrEvents = nullptr;
    Counter *gtTrrVictims = nullptr;
    /** Per-(bank, victim row) counters, cached to avoid name building
     *  on the REF path. */
    std::map<std::pair<Bank, Row>, Counter *> gtVictimCounters;

    MetricsRegistry *metrics = nullptr;
    Counter *ctrActs = nullptr;
    Counter *ctrRefs = nullptr;
    Counter *ctrReadFlipBits = nullptr;
    std::vector<Counter *> ctrBankActs;
};

} // namespace utrr

#endif // UTRR_DRAM_MODULE_HH
