#include "core/device_backend.hh"

#include <stdexcept>

#include "common/logging.hh"
#include "common/rng.hh"

namespace utrr
{

namespace
{

void
fnvMix(std::uint64_t &hash, std::uint64_t value)
{
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (byte * 8)) & 0xff;
        hash *= 0x100000001b3ULL;
    }
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

} // namespace

std::uint64_t
hashBackendReads(const BackendResult &result)
{
    std::uint64_t hash = kFnvOffset;
    for (const BackendRead &read : result.reads) {
        fnvMix(hash, static_cast<std::uint64_t>(read.bank));
        fnvMix(hash, static_cast<std::uint64_t>(read.row));
        fnvMix(hash, static_cast<std::uint64_t>(read.when));
        for (const std::uint64_t word : read.words)
            fnvMix(hash, word);
    }
    return hash;
}

std::uint64_t
programHash(const Program &program)
{
    // Instr::toString covers every field (op, addresses, pattern,
    // word/value, wait) in a stable textual form; hashing it avoids
    // chasing DataPattern internals and stays exact.
    std::uint64_t hash = kFnvOffset;
    for (const Instr &instr : program.instructions())
        fnvMix(hash, hashString(instr.toString()));
    return hash;
}

std::uint64_t
DeviceBackend::snapshot()
{
    throw std::logic_error(name() + " backend does not support snapshots");
}

void
DeviceBackend::restore(std::uint64_t)
{
    throw std::logic_error(name() + " backend does not support snapshots");
}

void
DeviceBackend::dropSnapshot(std::uint64_t)
{
}

BackendRecording
recordExecutions(DeviceBackend &source,
                 const std::vector<Program> &programs)
{
    BackendRecording recording;
    recording.source = source.name();
    recording.spec = source.spec();
    recording.executions.reserve(programs.size());
    for (const Program &program : programs) {
        const std::size_t trace_before = source.traceEvents().size();
        RecordedExecution exec;
        exec.programHash = programHash(program);
        exec.result = source.execute(program);
        exec.accounting = source.accounting();
        std::vector<TraceEvent> after = source.traceEvents();
        if (after.size() > trace_before) {
            exec.trace.assign(after.begin() +
                                  static_cast<std::ptrdiff_t>(trace_before),
                              after.end());
        }
        // Re-home interned phase/fault labels into the recording's own
        // pool; the source backend's pool dies with the source.
        for (TraceEvent &event : exec.trace) {
            if (event.phase == nullptr)
                continue;
            const char *interned = nullptr;
            for (const std::string &known : recording.phaseNames) {
                if (known == event.phase) {
                    interned = known.c_str();
                    break;
                }
            }
            if (interned == nullptr) {
                recording.phaseNames.emplace_back(event.phase);
                interned = recording.phaseNames.back().c_str();
            }
            event.phase = interned;
        }
        recording.executions.push_back(std::move(exec));
    }
    return recording;
}

TraceReplayBackend::TraceReplayBackend(BackendRecording recording)
    : session(std::move(recording)),
      backendName("replay:" +
                  (session.source.empty() ? "unknown" : session.source))
{
}

BackendResult
TraceReplayBackend::execute(const Program &program)
{
    if (cursor >= session.executions.size()) {
        throw std::runtime_error(logFmt(
            "trace replay exhausted: execution ", cursor + 1,
            " requested but the recording holds ",
            session.executions.size()));
    }
    const RecordedExecution &exec = session.executions[cursor];
    const std::uint64_t hash = programHash(program);
    if (hash != exec.programHash) {
        throw std::runtime_error(logFmt(
            "trace replay divergence at execution ", cursor,
            ": submitted program hashes to ", hash,
            " but the recording expects ", exec.programHash));
    }
    ++cursor;
    return exec.result;
}

Time
TraceReplayBackend::now() const
{
    return cursor == 0 ? 0 : session.executions[cursor - 1].result.endTime;
}

BackendAccounting
TraceReplayBackend::accounting() const
{
    if (cursor == 0) {
        BackendAccounting zero;
        zero.rowRefreshes.assign(
            static_cast<std::size_t>(session.spec.banks), 0);
        return zero;
    }
    return session.executions[cursor - 1].accounting;
}

std::vector<TraceEvent>
TraceReplayBackend::traceEvents() const
{
    std::vector<TraceEvent> out;
    for (std::size_t i = 0; i < cursor; ++i) {
        const std::vector<TraceEvent> &slice =
            session.executions[i].trace;
        out.insert(out.end(), slice.begin(), slice.end());
    }
    return out;
}

std::uint64_t
TraceReplayBackend::snapshot()
{
    return static_cast<std::uint64_t>(cursor);
}

void
TraceReplayBackend::restore(std::uint64_t token)
{
    if (token > session.executions.size())
        throw std::out_of_range(
            logFmt("replay snapshot token ", token, " out of range"));
    cursor = static_cast<std::size_t>(token);
}

} // namespace utrr
