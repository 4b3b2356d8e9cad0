/**
 * @file
 * Naive reference model for the differential fuzzing oracle.
 *
 * ReferenceModule re-implements the visible semantics of
 * DramModule + SoftMcHost as a straight-line shadow interpreter with
 * none of the production fast paths: no sorted-early-break in the
 * hammer-flip commit, no lower_bound range walks in the refresh sweep,
 * no flips-are-the-answer readout shortcut — every refreshed row is
 * found by scanning all materialized rows, every readout word is
 * rebuilt from pattern + overrides + committed flips from scratch.
 *
 * It deliberately shares only the *parameter* layer with the production
 * model (PhysicsGenerator sampling, RowMapping, DataPattern, the TRR
 * state machines): those define what silicon the module is, not how its
 * dynamics are computed, and the oracle targets the dynamics (charge
 * bookkeeping, refresh sweeps, disturb weighting, VRT stream
 * consumption, readout assembly, the host clock model). Any divergence
 * between DramModule under SoftMcHost and this interpreter on the same
 * program is an oracle violation.
 */

#ifndef UTRR_CHECK_REFERENCE_MODULE_HH
#define UTRR_CHECK_REFERENCE_MODULE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "dram/mapping.hh"
#include "dram/module_spec.hh"
#include "dram/physics.hh"
#include "dram/timing.hh"
#include "obs/metrics.hh"
#include "softmc/command.hh"
#include "trr/trr.hh"

namespace utrr
{

/** One captured READ of the reference interpreter. */
struct ReferenceRead
{
    Bank bank = 0;
    Row row = kInvalidRow; // logical row, as host ReadRecords report it
    Time when = 0;
    /** Full row contents, word by word. */
    std::vector<std::uint64_t> words;
};

/** Result of interpreting one program. */
struct ReferenceResult
{
    std::vector<ReferenceRead> reads;
    Time startTime = 0;
    Time endTime = 0;
};

/**
 * The shadow model. One instance interprets one or more programs
 * sequentially (state persists across execute() calls, mirroring a
 * host + module pair).
 */
class ReferenceModule
{
  public:
    ReferenceModule(const ModuleSpec &spec, std::uint64_t seed,
                    const RetentionModelConfig *retention_overrides =
                        nullptr,
                    Timing timing = {});

    /** Interpret a program, advancing the shadow clock. */
    ReferenceResult execute(const Program &program);

    /** Current shadow clock (ns). */
    Time now() const { return clock; }

    // --- accounting surface compared by the oracle suite -------------

    /** REF commands interpreted. */
    std::uint64_t refCount() const { return refs; }

    /** TRR refresh actions (detected aggressors) so far. */
    std::uint64_t trrEventCount() const { return trrEvents; }

    /** TRR-induced victim row refreshes so far. */
    std::uint64_t trrVictimRefreshCount() const { return trrVictims; }

    /** Single-row refreshes performed in one bank (regular + TRR). */
    std::uint64_t rowRefreshCount(Bank bank) const;

  private:
    /** Straight-line mirror of RowState (see src/dram/row.hh). */
    struct RefRow
    {
        RowPhysics phys;
        DataPattern pattern = DataPattern::allZeros();
        Row patRow = 0;
        std::map<int, std::uint64_t> overrides;
        std::set<Col> flipped;
        Time lastRestore = 0;
        double charge = 0.0;
        Row lastAggressor = kInvalidRow;
        Rng vrtRng{0};
        bool vrtHigh = false;
        Time lastVrtCheck = 0;
    };

    struct RefBank
    {
        std::map<Row, RefRow> rows;
        Row open = kInvalidRow;
        Row openLogical = kInvalidRow;
        std::uint64_t rowRefreshes = 0;
    };

    RefRow &materialize(RefBank &bank, Bank bank_id, Row phys_row,
                        Time when);
    bool storedBit(const RefRow &row, Col col) const;
    std::uint64_t storedWord(const RefRow &row, int word_idx) const;
    Time effectiveRetention(RefRow &row, const WeakCell &cell,
                            Time when);
    void commitDueFlips(RefRow &row, Time when);
    void restore(RefRow &row, Time when);
    void disturbOne(RefBank &bank, Bank bank_id, Row aggressor,
                    RefRow &aggr_state, Row victim, double weight,
                    Time when);
    std::vector<Row> victimRowsOf(Row aggressor_phys) const;

    void doAct(Bank bank, Row logical_row);
    void doPre(Bank bank);
    void doWr(Bank bank, const DataPattern &pattern);
    void doWrWord(Bank bank, int word_idx, std::uint64_t value);
    ReferenceRead doRd(Bank bank);
    void doRef();
    void doWaitRef(Time ns);

    ModuleSpec spec;
    Timing timingParams;
    std::unique_ptr<PhysicsGenerator> gen;
    std::vector<RowMapping> mappings;
    std::vector<RefBank> banks;
    std::unique_ptr<TrrMechanism> trr;
    GroundTruthStore gtStore; // sink for the shadow TRR's truth writes
    Time vrtDwellNs = 0;
    double vrtHighFactor = 1.0;
    Time clock = 0;
    std::uint64_t refs = 0;
    std::uint64_t trrEvents = 0;
    std::uint64_t trrVictims = 0;
};

} // namespace utrr

#endif // UTRR_CHECK_REFERENCE_MODULE_HH
