/**
 * @file
 * DeviceBackend conformance suite (DESIGN.md §16).
 *
 * One parameterized battery drives every backend implementation — the
 * production simulator (SimBackend, in both its compiled and
 * interpreted execution tiers, DESIGN.md §17), the naive shadow
 * interpreter (ReferenceBackend) and the canned-session replayer
 * (TraceReplayBackend) — through the same canonical program set and
 * pins the interface contract:
 *
 *   1. read-back equivalence against a golden simulator execution, and
 *      deterministic re-execution;
 *   2. an accounting surface that matches the golden execution;
 *   3. a timing-legal command trace (when the backend records one).
 */

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "check/oracles.hh"
#include "check/reference_backend.hh"
#include "core/device_backend.hh"
#include "core/sim_backend.hh"
#include "dram/module_spec.hh"
#include "fault/fault_injector.hh"
#include "softmc/timing_checker.hh"

namespace utrr
{
namespace
{

constexpr std::uint64_t kSeed = 2021;

/**
 * Canonical program set: one program per physics regime (retention
 * decay, RowHammer through TRR, word-granular writes under the
 * refresh sweep), executed in sequence on one backend instance so
 * state carries across execute() calls.
 */
std::vector<Program>
canonicalPrograms(const ModuleSpec &spec)
{
    std::vector<Program> programs;
    {
        Program p;
        for (Row row = 100; row < 106; ++row)
            p.writeRow(0, row, DataPattern::allOnes());
        p.wait(msToNs(1'200));
        for (Row row = 100; row < 106; ++row)
            p.readRow(0, row);
        programs.push_back(std::move(p));
    }
    {
        Program p;
        p.writeRow(0, 500, DataPattern::allOnes());
        p.writeRow(0, 499, DataPattern::allZeros());
        p.writeRow(0, 501, DataPattern::allZeros());
        const int hammers = static_cast<int>(spec.hcFirst);
        for (int i = 0; i < hammers; ++i) {
            p.hammer(0, 499, 1);
            p.hammer(0, 501, 1);
        }
        p.ref(32);
        p.readRow(0, 500);
        programs.push_back(std::move(p));
    }
    {
        Program p;
        p.act(1, 300);
        p.wr(1, DataPattern::random(7));
        p.wrWord(1, 3, 0xfeedULL);
        p.pre(1);
        p.waitWithRefresh(msToNs(150));
        p.readRow(1, 300);
        programs.push_back(std::move(p));
    }
    return programs;
}

std::size_t
traceCapacityFor(const std::vector<Program> &programs)
{
    std::size_t cap = 512;
    for (const Program &program : programs)
        cap += estimateTraceEvents(program, Timing{});
    return cap;
}

enum class BackendKind
{
    kSim,
    kReference,
    kReplay,
};

std::string
kindName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::kSim:
        return "Sim";
      case BackendKind::kReference:
        return "Reference";
      case BackendKind::kReplay:
        return "Replay";
    }
    return "?";
}

/** Backend kind × execution tier (DESIGN.md §17). The tier applies to
 *  the sim backend directly and to the replay backend's recording
 *  source; the reference interpreter ignores it. */
using ConformanceParam = std::tuple<BackendKind, ExecMode>;

std::string
modeName(ExecMode mode)
{
    return mode == ExecMode::kCompiled ? "Compiled" : "Interpreted";
}

/**
 * Build a fresh backend of @p kind over (spec, kSeed). The replay
 * backend is recorded from a fresh simulator run of @p programs — the
 * stand-in for a hardware session whose responses arrive as data.
 */
std::unique_ptr<DeviceBackend>
makeBackend(BackendKind kind, ExecMode mode, const ModuleSpec &spec,
            const std::vector<Program> &programs)
{
    switch (kind) {
      case BackendKind::kSim: {
          auto backend = std::make_unique<SimBackend>(spec, kSeed);
          backend->setExecMode(mode);
          backend->host().trace().enable(traceCapacityFor(programs));
          return backend;
      }
      case BackendKind::kReference:
          return std::make_unique<ReferenceBackend>(spec, kSeed);
      case BackendKind::kReplay: {
          SimBackend source(spec, kSeed);
          source.setExecMode(mode);
          source.host().trace().enable(traceCapacityFor(programs));
          return std::make_unique<TraceReplayBackend>(
              recordExecutions(source, programs));
      }
    }
    return nullptr;
}

void
expectAccountingEq(const BackendAccounting &got,
                   const BackendAccounting &want)
{
    EXPECT_EQ(got.refs, want.refs);
    EXPECT_EQ(got.trrEvents, want.trrEvents);
    EXPECT_EQ(got.trrVictimRefreshes, want.trrVictimRefreshes);
    ASSERT_EQ(got.rowRefreshes.size(), want.rowRefreshes.size());
    for (std::size_t b = 0; b < got.rowRefreshes.size(); ++b)
        EXPECT_EQ(got.rowRefreshes[b], want.rowRefreshes[b])
            << "bank " << b;
}

class BackendConformance
    : public ::testing::TestWithParam<ConformanceParam>
{
  protected:
    const ModuleSpec spec = *findModuleSpec("A0");
    const std::vector<Program> programs = canonicalPrograms(spec);

    std::unique_ptr<DeviceBackend>
    make() const
    {
        return makeBackend(std::get<0>(GetParam()),
                           std::get<1>(GetParam()), spec, programs);
    }
};

TEST_P(BackendConformance, ReadbackMatchesGoldenSim)
{
    // Contract point 1: program in, the exact reads a golden simulator
    // execution captures out — bank, row, time and every word.
    SimBackend golden(spec, kSeed);
    const std::unique_ptr<DeviceBackend> backend = make();
    ASSERT_EQ(backend->spec().name, spec.name);
    for (std::size_t i = 0; i < programs.size(); ++i) {
        SCOPED_TRACE("program " + std::to_string(i));
        const BackendResult want = golden.execute(programs[i]);
        const BackendResult got = backend->execute(programs[i]);
        ASSERT_EQ(got.reads.size(), want.reads.size());
        for (std::size_t r = 0; r < got.reads.size(); ++r)
            EXPECT_TRUE(got.reads[r] == want.reads[r]) << "read " << r;
        EXPECT_EQ(got.endTime, want.endTime);
        EXPECT_EQ(hashBackendReads(got), hashBackendReads(want));
        EXPECT_EQ(backend->now(), golden.now());
    }
}

TEST_P(BackendConformance, AccountingMatchesGoldenSim)
{
    // Contract point 2: the accounting surface after every execution
    // equals the golden simulator's, and REF counts grow monotonically.
    SimBackend golden(spec, kSeed);
    const std::unique_ptr<DeviceBackend> backend = make();
    std::uint64_t last_refs = 0;
    for (std::size_t i = 0; i < programs.size(); ++i) {
        SCOPED_TRACE("program " + std::to_string(i));
        golden.execute(programs[i]);
        backend->execute(programs[i]);
        const BackendAccounting got = backend->accounting();
        expectAccountingEq(got, golden.accounting());
        EXPECT_GE(got.refs, last_refs);
        last_refs = got.refs;
    }
    EXPECT_GT(last_refs, 0u);
}

TEST_P(BackendConformance, TraceIsTimingLegalWhenRecorded)
{
    // Contract point 3: traceEvents() may be empty (the reference
    // interpreter records none); when present, the stream must satisfy
    // the DDR4 timing checker.
    const std::unique_ptr<DeviceBackend> backend = make();
    for (const Program &program : programs)
        backend->execute(program);
    const std::vector<TraceEvent> events = backend->traceEvents();
    if (events.empty()) {
        SUCCEED() << backend->name() << " records no trace";
        return;
    }
    TimingChecker checker(Timing{}, spec.banks);
    for (const TraceEvent &event : events) {
        switch (event.kind) {
          case TraceKind::kAct:
            checker.onAct(event.bank, event.row, event.start);
            break;
          case TraceKind::kPre:
            checker.onPre(event.bank, event.start);
            break;
          case TraceKind::kWr:
            checker.onWrite(event.bank, event.start);
            break;
          case TraceKind::kRd:
            checker.onRead(event.bank, event.start);
            break;
          case TraceKind::kRef:
            checker.onRef(event.start);
            break;
          default:
            break;
        }
    }
    EXPECT_TRUE(checker.clean())
        << checker.violations().size() << " timing violations; first: "
        << checker.violations().front().rule << " "
        << checker.violations().front().detail;
}

TEST_P(BackendConformance, DeterministicAcrossInstances)
{
    // Contract point 1 (determinism half): two instances built the
    // same way produce byte-identical results program by program.
    const std::unique_ptr<DeviceBackend> first = make();
    const std::unique_ptr<DeviceBackend> second = make();
    for (std::size_t i = 0; i < programs.size(); ++i) {
        SCOPED_TRACE("program " + std::to_string(i));
        const BackendResult a = first->execute(programs[i]);
        const BackendResult b = second->execute(programs[i]);
        EXPECT_EQ(hashBackendReads(a), hashBackendReads(b));
        EXPECT_EQ(a.endTime, b.endTime);
    }
    expectAccountingEq(first->accounting(), second->accounting());
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendConformance,
    ::testing::Combine(::testing::Values(BackendKind::kSim,
                                         BackendKind::kReference,
                                         BackendKind::kReplay),
                       ::testing::Values(ExecMode::kCompiled,
                                         ExecMode::kInterpreted)),
    [](const ::testing::TestParamInfo<ConformanceParam> &info) {
        return kindName(std::get<0>(info.param)) +
            modeName(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// Replay-specific contract: divergence is a hard error.
// ---------------------------------------------------------------------

TEST(TraceReplay, DivergedProgramIsRejected)
{
    const ModuleSpec spec = *findModuleSpec("A0");
    const std::vector<Program> programs = canonicalPrograms(spec);
    SimBackend source(spec, kSeed);
    TraceReplayBackend replay(recordExecutions(source, programs));

    Program diverged;
    diverged.readRow(0, 1); // not what was recorded
    EXPECT_THROW(replay.execute(diverged), std::runtime_error);

    // The cursor did not advance: the recorded program still replays.
    const BackendResult result = replay.execute(programs[0]);
    EXPECT_FALSE(result.reads.empty());
}

TEST(TraceReplay, ExhaustedRecordingIsRejected)
{
    const ModuleSpec spec = *findModuleSpec("A0");
    const std::vector<Program> programs = canonicalPrograms(spec);
    SimBackend source(spec, kSeed);
    TraceReplayBackend replay(recordExecutions(source, programs));
    for (const Program &program : programs)
        replay.execute(program);
    EXPECT_EQ(replay.position(), replay.size());
    EXPECT_THROW(replay.execute(programs[0]), std::runtime_error);
}

TEST(TraceReplay, RecordingOwnsItsTraceLabels)
{
    // The recording must stay valid after the source backend dies:
    // interned trace labels are re-homed into the recording's own
    // pool. Fault markers are the label-carrying events that land
    // inside an execution's trace delta, so force one per WR.
    const ModuleSpec spec = *findModuleSpec("A0");
    Program p;
    p.writeRow(0, 7, DataPattern::allOnes());
    p.readRow(0, 7);

    BackendRecording recording;
    {
        SimBackend source(spec, kSeed);
        source.host().trace().enable(4'096);
        FaultConfig faults;
        faults.dropWrChance = 1.0;
        FaultInjector injector(faults, 5);
        source.host().attachFaultInjector(&injector);
        recording = recordExecutions(source, {p});
        source.host().attachFaultInjector(nullptr);
    }

    TraceReplayBackend replay(std::move(recording));
    replay.execute(p);
    bool saw_label = false;
    for (const TraceEvent &event : replay.traceEvents()) {
        if (event.kind == TraceKind::kFault) {
            ASSERT_NE(event.phase, nullptr);
            EXPECT_EQ(std::string(event.phase), "drop_wr");
            saw_label = true;
        }
    }
    EXPECT_TRUE(saw_label);
}

} // namespace
} // namespace utrr
