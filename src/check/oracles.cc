#include "check/oracles.hh"

#include <sstream>

#include "check/reference_backend.hh"
#include "common/logging.hh"
#include "core/sim_backend.hh"
#include "obs/profiler.hh"
#include "softmc/timing_checker.hh"

namespace utrr
{

namespace
{

class ViolationSink
{
  public:
    ViolationSink(OracleReport &report, std::string oracle,
                  std::size_t cap)
        : report(report), oracle(std::move(oracle)), cap(cap)
    {
    }

    ~ViolationSink()
    {
        if (overflow > 0)
            report.violations.push_back(
                {oracle, logFmt("... and ", overflow, " more")});
    }

    void
    add(const std::string &detail)
    {
        if (seen++ < cap)
            report.violations.push_back({oracle, detail});
        else
            ++overflow;
    }

    bool any() const { return seen > 0; }

  private:
    OracleReport &report;
    std::string oracle;
    std::size_t cap;
    std::size_t seen = 0;
    std::size_t overflow = 0;
};

/** Element-wise read/end-time comparison of two backend results. */
void
compareResults(ViolationSink &sink, const BackendResult &got,
               const BackendResult &want, const std::string &wantName)
{
    if (got.reads.size() != want.reads.size()) {
        sink.add(logFmt("read count ", got.reads.size(), " vs ",
                        want.reads.size(), " in ", wantName));
    } else {
        for (std::size_t i = 0; i < got.reads.size(); ++i) {
            const BackendRead &g = got.reads[i];
            const BackendRead &w = want.reads[i];
            if (g.bank != w.bank || g.row != w.row || g.when != w.when) {
                sink.add(logFmt("read ", i, ": got bank ", g.bank,
                                " row ", g.row, " at ", g.when, "ns, ",
                                wantName, " bank ", w.bank, " row ",
                                w.row, " at ", w.when, "ns"));
                continue;
            }
            if (g.words.size() != w.words.size()) {
                sink.add(logFmt("read ", i, ": ", g.words.size(),
                                " words vs ", w.words.size(), " in ",
                                wantName));
                continue;
            }
            for (std::size_t wd = 0; wd < g.words.size(); ++wd) {
                if (g.words[wd] == w.words[wd])
                    continue;
                sink.add(logFmt("read ", i, " (bank ", g.bank, " row ",
                                g.row, ") word ", wd, ": got 0x",
                                std::hex, g.words[wd], " ", wantName,
                                " 0x", w.words[wd], std::dec));
                break; // one word per read keeps reports short
            }
        }
    }
    if (got.endTime != want.endTime)
        sink.add(logFmt("end time ", got.endTime, "ns vs ",
                        want.endTime, "ns in ", wantName));
}

} // namespace

std::size_t
estimateTraceEvents(const Program &program, const Timing &timing)
{
    std::size_t events = 0;
    for (const Instr &instr : program.instructions()) {
        if (instr.op == Op::kWaitRef) {
            events += static_cast<std::size_t>(
                          instr.waitNs / timing.tREFI) +
                2;
        } else {
            events += 1;
        }
    }
    return events;
}

std::string
OracleReport::summary() const
{
    if (clean())
        return "clean";
    std::ostringstream oss;
    std::size_t shown = 0;
    for (const OracleViolation &v : violations) {
        if (shown++ == 3) {
            oss << "; ... (" << violations.size() << " total)";
            break;
        }
        if (shown > 1)
            oss << "; ";
        oss << v.oracle << ": " << v.detail;
    }
    return oss.str();
}

OracleReport
runOracleSuite(const ModuleSpec &spec, const Program &program,
               const OracleConfig &cfg)
{
    UTRR_PROF_SCOPE("oracle.suite");
    OracleReport report;
    const std::size_t trace_cap =
        estimateTraceEvents(program, cfg.timing) + cfg.traceMargin;

    // Production execution, through the backend seam.
    SimBackend sim(spec, cfg.moduleSeed, cfg.retention, cfg.timing);
    sim.host().trace().enable(trace_cap);
    const BackendResult exec = sim.execute(program);

    report.reads = exec.reads.size();
    report.endTime = exec.endTime;
    report.traceHash = sim.host().trace().contentHash();
    report.readHash = hashBackendReads(exec);

    if (sim.host().trace().dropped() > 0) {
        // A wrapped ring would silently blind the timing and determinism
        // oracles; treat it as a harness bug, not a module bug.
        report.violations.push_back(
            {"internal",
             logFmt("trace ring dropped ", sim.host().trace().dropped(),
                    " events (capacity ", trace_cap, ")")});
    }

    // Reference execution.
    ReferenceBackend reference(spec, cfg.moduleSeed, cfg.retention,
                               cfg.timing);
    const BackendResult ref = reference.execute(program);

    {
        UTRR_PROF_SCOPE("oracle.differential");
        ViolationSink sink(report, "differential",
                           cfg.maxViolationsPerOracle);
        compareResults(sink, exec, ref, "reference");
    }

    {
        UTRR_PROF_SCOPE("oracle.timing");
        ViolationSink sink(report, "timing",
                           cfg.maxViolationsPerOracle);
        TimingChecker checker(cfg.timing, spec.banks);
        for (const TraceEvent &event : sim.traceEvents()) {
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
                break; // WAIT / phase / fault markers carry no command
            }
        }
        for (const TimingViolation &v : checker.violations())
            sink.add(logFmt(v.rule, " at ", v.when, "ns: ", v.detail));
    }

    {
        UTRR_PROF_SCOPE("oracle.accounting");
        ViolationSink sink(report, "accounting",
                           cfg.maxViolationsPerOracle);
        const BackendAccounting got = sim.accounting();
        const BackendAccounting want = reference.accounting();
        if (got.refs != want.refs)
            sink.add(logFmt("REF count ", got.refs, " vs ", want.refs,
                            " in reference"));
        if (got.trrEvents != want.trrEvents)
            sink.add(logFmt("TRR events ", got.trrEvents, " vs ",
                            want.trrEvents, " in reference"));
        if (got.trrVictimRefreshes != want.trrVictimRefreshes)
            sink.add(logFmt("TRR victim refreshes ",
                            got.trrVictimRefreshes, " vs ",
                            want.trrVictimRefreshes, " in reference"));
        for (Bank b = 0; b < spec.banks; ++b) {
            const std::size_t idx = static_cast<std::size_t>(b);
            if (got.rowRefreshes[idx] == want.rowRefreshes[idx])
                continue;
            sink.add(logFmt("bank ", b, " row refreshes ",
                            got.rowRefreshes[idx], " vs ",
                            want.rowRefreshes[idx], " in reference"));
        }
        // Sim-only: the black-box counters the accounting surface
        // reports must agree with the white-box ground-truth store.
        const GroundTruthProbe probe = sim.module().groundTruthProbe();
        if (probe.counter("chip.trr_events") != got.trrEvents)
            sink.add(logFmt("ground-truth TRR events ",
                            probe.counter("chip.trr_events"), " vs ",
                            got.trrEvents, " in sim accounting"));
        if (probe.counter("chip.trr_victim_refreshes") !=
            got.trrVictimRefreshes)
            sink.add(logFmt(
                "ground-truth TRR victim refreshes ",
                probe.counter("chip.trr_victim_refreshes"), " vs ",
                got.trrVictimRefreshes, " in sim accounting"));
    }

    {
        UTRR_PROF_SCOPE("oracle.determinism");
        ViolationSink sink(report, "determinism",
                           cfg.maxViolationsPerOracle);
        SimBackend sim2(spec, cfg.moduleSeed, cfg.retention,
                        cfg.timing);
        sim2.host().trace().enable(trace_cap);
        const BackendResult exec2 = sim2.execute(program);
        if (sim2.host().trace().contentHash() != report.traceHash)
            sink.add("command trace differs between identical runs");
        if (exec2.endTime != exec.endTime)
            sink.add(logFmt("end time ", exec2.endTime, "ns vs ",
                            exec.endTime, "ns on rerun"));
        if (hashBackendReads(exec2) != report.readHash)
            sink.add("read-back data differs between identical runs");
    }

    {
        UTRR_PROF_SCOPE("oracle.execution");
        ViolationSink sink(report, "execution",
                           cfg.maxViolationsPerOracle);
        // Run the program through the *opposite* execution tier
        // (DESIGN.md §17): if the primary sim ran compiled, force the
        // interpreter, and vice versa. Everything observable — reads,
        // end time, command trace, accounting — must be bit-identical.
        const ExecMode other = sim.execMode() == ExecMode::kCompiled
                                   ? ExecMode::kInterpreted
                                   : ExecMode::kCompiled;
        const std::string otherName =
            other == ExecMode::kInterpreted ? "interpreted tier"
                                            : "compiled tier";
        SimBackend sim3(spec, cfg.moduleSeed, cfg.retention,
                        cfg.timing);
        sim3.setExecMode(other);
        sim3.host().trace().enable(trace_cap);
        const BackendResult exec3 = sim3.execute(program);
        compareResults(sink, exec, exec3, otherName);
        if (sim3.host().trace().contentHash() != report.traceHash)
            sink.add(logFmt("command trace differs in ", otherName));
        const BackendAccounting got = sim.accounting();
        const BackendAccounting want = sim3.accounting();
        if (got.refs != want.refs)
            sink.add(logFmt("REF count ", got.refs, " vs ", want.refs,
                            " in ", otherName));
        if (got.trrEvents != want.trrEvents)
            sink.add(logFmt("TRR events ", got.trrEvents, " vs ",
                            want.trrEvents, " in ", otherName));
        if (got.trrVictimRefreshes != want.trrVictimRefreshes)
            sink.add(logFmt("TRR victim refreshes ",
                            got.trrVictimRefreshes, " vs ",
                            want.trrVictimRefreshes, " in ",
                            otherName));
        for (Bank b = 0; b < spec.banks; ++b) {
            const std::size_t idx = static_cast<std::size_t>(b);
            if (got.rowRefreshes[idx] == want.rowRefreshes[idx])
                continue;
            sink.add(logFmt("bank ", b, " row refreshes ",
                            got.rowRefreshes[idx], " vs ",
                            want.rowRefreshes[idx], " in ",
                            otherName));
        }
    }

    return report;
}

} // namespace utrr
