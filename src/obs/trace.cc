#include "obs/trace.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"
#include "common/rng.hh"
#include "obs/json.hh"
#include "obs/profiler.hh"

namespace utrr
{

const char *
traceKindName(TraceKind kind)
{
    switch (kind) {
      case TraceKind::kAct:
        return "ACT";
      case TraceKind::kPre:
        return "PRE";
      case TraceKind::kWr:
        return "WR";
      case TraceKind::kRd:
        return "RD";
      case TraceKind::kRef:
        return "REF";
      case TraceKind::kWait:
        return "WAIT";
      case TraceKind::kPhaseBegin:
        return "PHASE_BEGIN";
      case TraceKind::kPhaseEnd:
        return "PHASE_END";
      case TraceKind::kFault:
        return "FAULT";
    }
    return "?";
}

void
CommandTrace::enable(std::size_t capacity)
{
    cap = capacity;
    ring.assign(cap, TraceEvent{});
    head = 0;
    count = 0;
    total = 0;
    overflowWarned = false;
}

void
CommandTrace::disable()
{
    cap = 0;
    ring.clear();
    ring.shrink_to_fit();
    head = 0;
    count = 0;
    total = 0;
    overflowWarned = false;
}

void
CommandTrace::clear()
{
    head = 0;
    count = 0;
    total = 0;
    overflowWarned = false;
}

void
CommandTrace::noteOverflow()
{
    // Out of line so the record() fast path stays small; fires exactly
    // once per enable()/clear(). The final dropped count is published
    // as the trace.dropped_events counter when metrics are captured.
    overflowWarned = true;
    warn(logFmt("command trace ring full (capacity ", cap,
                "): oldest events are being overwritten; raise the "
                "trace capacity for a complete Chrome trace"));
}

const char *
CommandTrace::intern(std::string_view name)
{
    for (const std::string &known : phaseNames) {
        if (known == name)
            return known.c_str();
    }
    phaseNames.emplace_back(name);
    return phaseNames.back().c_str();
}

void
CommandTrace::beginPhase(std::string_view name, Time now)
{
    if (cap == 0)
        return;
    TraceEvent &slot = ring[head];
    slot = TraceEvent{TraceKind::kPhaseBegin, 0, kInvalidRow, now, 0,
                      intern(name)};
    advance();
}

void
CommandTrace::endPhase(std::string_view name, Time now)
{
    if (cap == 0)
        return;
    TraceEvent &slot = ring[head];
    slot = TraceEvent{TraceKind::kPhaseEnd, 0, kInvalidRow, now, 0,
                      intern(name)};
    advance();
}

void
CommandTrace::recordFault(const std::string &what, Bank bank, Row row,
                          Time now)
{
    if (cap == 0)
        return;
    TraceEvent &slot = ring[head];
    slot = TraceEvent{TraceKind::kFault, bank, row, now, 0, intern(what)};
    advance();
}

std::vector<TraceEvent>
CommandTrace::events() const
{
    std::vector<TraceEvent> out;
    out.reserve(count);
    // Oldest event sits at `head` once the ring has wrapped, else at 0.
    const std::size_t first = count == cap ? head : 0;
    for (std::size_t i = 0; i < count; ++i)
        out.push_back(ring[(first + i) % cap]);
    return out;
}

std::uint64_t
CommandTrace::contentHash() const
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    const auto mix = [&hash](std::uint64_t value) {
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (value >> (byte * 8)) & 0xff;
            hash *= 0x100000001b3ULL;
        }
    };
    const std::size_t first = count == cap && cap != 0 ? head : 0;
    for (std::size_t i = 0; i < count; ++i) {
        const TraceEvent &event = ring[(first + i) % cap];
        mix(static_cast<std::uint64_t>(event.kind));
        mix(static_cast<std::uint64_t>(event.bank));
        mix(static_cast<std::uint64_t>(event.row));
        mix(static_cast<std::uint64_t>(event.start));
        mix(static_cast<std::uint64_t>(event.duration));
        if (event.phase != nullptr)
            mix(hashString(event.phase));
    }
    return hash;
}

std::string
CommandTrace::text() const
{
    std::ostringstream oss;
    for (const TraceEvent &event : events()) {
        oss << event.start << "ns " << traceKindName(event.kind);
        if (event.phase != nullptr)
            oss << " " << event.phase;
        if (event.phase == nullptr || event.kind == TraceKind::kFault) {
            oss << " bank=" << event.bank;
            if (event.row != kInvalidRow)
                oss << " row=" << event.row;
            if (event.duration > 0)
                oss << " dur=" << event.duration << "ns";
        }
        oss << "\n";
    }
    return oss.str();
}

void
CommandTrace::exportChromeTrace(std::ostream &os,
                                const ProfileTree *profile) const
{
    std::vector<TraceEvent> ordered = events();
    // The simulated clock is monotonic, but mitigation-penalty
    // accounting can record a batch at a rolled-back clock; viewers
    // require non-decreasing timestamps, so order stably by start.
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.start < b.start;
                     });

    Json root = Json::object();
    root["displayTimeUnit"] = Json("ns");
    Json &traceEvents = root["traceEvents"];
    traceEvents = Json::array();
    for (const TraceEvent &event : ordered) {
        Json entry = Json::object();
        const bool is_phase = event.kind == TraceKind::kPhaseBegin ||
                              event.kind == TraceKind::kPhaseEnd;
        const bool is_fault = event.kind == TraceKind::kFault;
        entry["name"] = Json(event.phase != nullptr
                                 ? event.phase
                                 : traceKindName(event.kind));
        if (is_phase)
            entry["ph"] = Json(event.kind == TraceKind::kPhaseBegin
                                   ? "B"
                                   : "E");
        else if (is_fault)
            entry["ph"] = Json("i"); // instant marker
        else
            entry["ph"] = Json("X");
        if (is_fault)
            entry["s"] = Json("g"); // global-scope instant
        // trace_event timestamps are microseconds; keep sub-ns detail.
        entry["ts"] = Json(static_cast<double>(event.start) / 1e3);
        if (!is_phase && !is_fault)
            entry["dur"] =
                Json(static_cast<double>(event.duration) / 1e3);
        entry["pid"] = Json(0);
        // One track per bank for commands; phases on track 0 share the
        // timeline header.
        entry["tid"] = Json(is_phase ? 0 : event.bank + 1);
        if (!is_phase && event.row != kInvalidRow) {
            Json args = Json::object();
            args["row"] = Json(static_cast<std::int64_t>(event.row));
            entry["args"] = std::move(args);
        }
        traceEvents.push(std::move(entry));
    }
    if (dropped() > 0) {
        // Make the truncation visible inside the viewer, not just on
        // stderr: an instant marker at the (new) start of the trace.
        Json lost = Json::object();
        lost["name"] = Json("trace ring overflow");
        lost["ph"] = Json("i");
        lost["s"] = Json("g");
        lost["ts"] = Json(ordered.empty()
                              ? 0.0
                              : static_cast<double>(ordered.front().start)
                                  / 1e3);
        lost["pid"] = Json(0);
        lost["tid"] = Json(0);
        Json args = Json::object();
        args["dropped_events"] = Json(dropped());
        lost["args"] = std::move(args);
        traceEvents.push(std::move(lost));
    }
    if (profile != nullptr && !profile->empty())
        profile->appendChromeEvents(traceEvents, /*pid=*/1);
    root.write(os, 1);
    os << "\n";
}

} // namespace utrr
