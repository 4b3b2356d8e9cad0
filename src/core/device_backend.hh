/**
 * @file
 * Narrow device-backend seam: command stream in, readouts/trace out.
 *
 * A DeviceBackend is anything that can execute a recorded
 * softmc::Program and report what a memory controller could observe:
 * the captured READ bursts, the simulated clock, and the accounting
 * surface the differential oracles compare (REF counts, TRR events,
 * per-bank row refreshes). Three implementations conform:
 *
 *  - SimBackend (src/core/sim_backend.hh): the production
 *    DramModule + SoftMcHost pair;
 *  - ReferenceBackend (src/check/reference_backend.hh): the naive
 *    exact-mirror interpreter used as the fuzzing oracle;
 *  - TraceReplayBackend (below): replays a previously recorded
 *    execution with canned readouts — a stand-in for remote or
 *    hardware backends whose responses arrive as data, and the cheap
 *    way to rerun analyses against a captured session.
 *
 * The interface contract, pinned by tests/test_backend.cc for every
 * implementation:
 *
 *  1. execute() is deterministic: the same backend construction
 *     executing the same programs yields byte-identical BackendResults.
 *  2. accounting() grows monotonically with execution and is part of
 *     the deterministic surface.
 *  3. traceEvents() MAY be empty (a backend need not record a trace);
 *     when non-empty it must be a timing-legal DDR command stream.
 *
 * State only moves forward: like a real chip behind SoftMC, no backend
 * can be checkpointed or rewound.
 *
 * Intentionally *not* in the interface: the immediate host API
 * (hammer, refBurst, ...) — hammerMultiBank's tFAW-parallel timing
 * cannot be expressed as a serial Program, so RowScout/TrrAnalyzer
 * keep a SoftMcHost reference and reach it through SimBackend::host().
 */

#ifndef UTRR_CORE_DEVICE_BACKEND_HH
#define UTRR_CORE_DEVICE_BACKEND_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/types.hh"
#include "dram/module_spec.hh"
#include "obs/trace.hh"
#include "softmc/command.hh"

namespace utrr
{

/** One captured READ, with the row contents materialized word-wise. */
struct BackendRead
{
    Bank bank = 0;
    /** Host-visible (logical) row address. */
    Row row = kInvalidRow;
    /** Simulated time of the READ (ns). */
    Time when = 0;
    /** Full row contents, word by word. */
    std::vector<std::uint64_t> words;

    bool
    operator==(const BackendRead &other) const
    {
        return bank == other.bank && row == other.row &&
            when == other.when && words == other.words;
    }
    bool operator!=(const BackendRead &o) const { return !(*this == o); }
};

/** Result of executing one Program. */
struct BackendResult
{
    std::vector<BackendRead> reads;
    Time startTime = 0;
    Time endTime = 0;
};

/** The accounting surface the oracles compare across backends. */
struct BackendAccounting
{
    /** REF commands the device received. */
    std::uint64_t refs = 0;
    /** TRR refresh actions (detected aggressors). */
    std::uint64_t trrEvents = 0;
    /** TRR-induced victim row refreshes. */
    std::uint64_t trrVictimRefreshes = 0;
    /** Single-row refreshes per bank (regular + TRR). */
    std::vector<std::uint64_t> rowRefreshes;
};

/** Order-sensitive FNV-1a hash over every read (bank, row, when,
 *  words) — the readback-equivalence surface of the conformance and
 *  fuzzing suites. */
std::uint64_t hashBackendReads(const BackendResult &result);

/** Content hash of a program (instruction-wise; used by trace replay
 *  to reject replaying against a diverged command stream). */
std::uint64_t programHash(const Program &program);

/**
 * The backend interface.
 */
class DeviceBackend
{
  public:
    virtual ~DeviceBackend() = default;

    /** Implementation name for logs and reports ("sim", "reference",
     *  "replay:sim", ...). */
    virtual std::string name() const = 0;

    /** The module this backend stands in for. */
    virtual const ModuleSpec &spec() const = 0;

    /** Execute a program, capturing reads. State persists across
     *  calls, mirroring a host + module pair. */
    virtual BackendResult execute(const Program &program) = 0;

    /** Current simulated time (ns). */
    virtual Time now() const = 0;

    /** Accounting totals so far. */
    virtual BackendAccounting accounting() const = 0;

    /**
     * Command-level trace of everything executed so far, oldest first.
     * Empty when the backend records none (contract point 3); bounded
     * by the backend's ring capacity when it does.
     */
    virtual std::vector<TraceEvent> traceEvents() const { return {}; }
};

// ----------------------------------------------------------------------
// Trace replay
// ----------------------------------------------------------------------

/** One recorded execute() call. */
struct RecordedExecution
{
    std::uint64_t programHash = 0;
    BackendResult result;
    /** Accounting totals *after* this execution. */
    BackendAccounting accounting;
    /** Trace events this execution appended (may be empty). */
    std::vector<TraceEvent> trace;
};

/** A recorded session: the canned responses a TraceReplayBackend
 *  serves. */
struct BackendRecording
{
    /** name() of the backend the session was recorded from. */
    std::string source;
    ModuleSpec spec;
    std::vector<RecordedExecution> executions;
    /**
     * Owned copies of every interned phase/fault label the recorded
     * trace events point at — the source backend's name pool dies with
     * it, the recording must outlive it (see recordExecutions).
     */
    std::deque<std::string> phaseNames;
};

/**
 * Record @p programs against @p source, capturing per-execution reads,
 * accounting and trace deltas. The trace deltas are exact only while
 * the source's trace ring does not wrap; record with adequate capacity
 * (or none — replay of a traceless recording is still exact on reads
 * and accounting).
 */
BackendRecording recordExecutions(DeviceBackend &source,
                                  const std::vector<Program> &programs);

/**
 * Replays a recorded session. execute() serves the next canned result
 * after verifying the submitted program hashes to what was recorded —
 * a diverged command stream is a hard error, not a silent wrong
 * answer. The whole mutable state is the replay cursor.
 */
class TraceReplayBackend : public DeviceBackend
{
  public:
    explicit TraceReplayBackend(BackendRecording recording);

    std::string name() const override { return backendName; }
    const ModuleSpec &spec() const override { return session.spec; }
    BackendResult execute(const Program &program) override;
    Time now() const override;
    BackendAccounting accounting() const override;
    std::vector<TraceEvent> traceEvents() const override;

    /** Executions served so far (the replay cursor). */
    std::size_t position() const { return cursor; }

    /** Executions the recording holds. */
    std::size_t size() const { return session.executions.size(); }

  private:
    BackendRecording session;
    std::string backendName;
    std::size_t cursor = 0;
};

} // namespace utrr

#endif // UTRR_CORE_DEVICE_BACKEND_HH
