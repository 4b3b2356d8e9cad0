/**
 * @file
 * Command trace: a bounded ring buffer of every DDR command the SoftMC
 * host issues (ACT/PRE/WR/RD/REF/WAIT), stamped with simulated time,
 * plus begin/end phase markers from the experiment harnesses.
 *
 * Disabled by default; when disabled the hot-path cost is one branch.
 * The buffer exports as human-readable text and as Chrome trace_event
 * JSON, so a run opens directly in chrome://tracing or Perfetto: DDR
 * commands appear as duration slices on one track per bank, phases on a
 * dedicated track.
 */

#ifndef UTRR_OBS_TRACE_HH
#define UTRR_OBS_TRACE_HH

#include <cstdint>
#include <deque>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hh"

namespace utrr
{

struct ProfileTree;

/** What a trace event records. */
enum class TraceKind : std::uint8_t
{
    kAct,
    kPre,
    kWr,
    kRd,
    kRef,
    kWait,
    kPhaseBegin,
    kPhaseEnd,
    kFault,
};

/** Short mnemonic ("ACT", "REF", ...). */
const char *traceKindName(TraceKind kind);

/** One recorded event. */
struct TraceEvent
{
    TraceKind kind = TraceKind::kAct;
    Bank bank = 0;
    Row row = kInvalidRow;
    /** Simulated start time (ns). */
    Time start = 0;
    /** Simulated duration (ns); 0 for instantaneous markers. */
    Time duration = 0;
    /** Phase name for kPhaseBegin/kPhaseEnd (interned), else nullptr. */
    const char *phase = nullptr;
};

/**
 * The ring buffer. Capacity 0 == disabled (the default).
 */
class CommandTrace
{
  public:
    CommandTrace() = default;
    explicit CommandTrace(std::size_t capacity) { enable(capacity); }

    /**
     * Copies re-intern phase names: ring events point into the owning
     * instance's name pool, so a memberwise copy would leave the new
     * ring dangling into the old pool. Moves keep the pool (deque
     * element addresses survive the move), so the defaults are safe.
     * Copy support is what makes a SoftMcHost snapshot self-contained.
     */
    CommandTrace(const CommandTrace &other) { copyFrom(other); }
    CommandTrace &
    operator=(const CommandTrace &other)
    {
        if (this != &other)
            copyFrom(other);
        return *this;
    }
    CommandTrace(CommandTrace &&) = default;
    CommandTrace &operator=(CommandTrace &&) = default;

    /** (Re)enable with the given capacity; clears recorded events. */
    void enable(std::size_t capacity);

    /** Disable and drop all events. */
    void disable();

    /** Hot-path guard: is recording active? */
    bool enabled() const { return cap != 0; }

    /** Record one command (no-op while disabled). */
    void
    record(TraceKind kind, Bank bank, Row row, Time start, Time duration)
    {
        if (cap == 0)
            return;
        TraceEvent &slot = ring[head];
        slot.kind = kind;
        slot.bank = bank;
        slot.row = row;
        slot.start = start;
        slot.duration = duration;
        slot.phase = nullptr;
        advance();
    }

    /** Record a phase marker (names are interned; no-op if disabled). */
    void beginPhase(std::string_view name, Time now);
    void endPhase(std::string_view name, Time now);

    /**
     * Record an injected-fault event ("drop_ref", "vrt_flip", ...) as
     * an instant marker; @p row may be kInvalidRow when the fault is
     * not row-specific.
     */
    void recordFault(const std::string &what, Bank bank, Row row,
                     Time now);

    std::size_t capacity() const { return cap; }

    /** Events currently held (<= capacity). */
    std::size_t size() const { return count; }

    /** Events recorded over the trace's lifetime (incl. overwritten). */
    std::uint64_t recorded() const { return total; }

    /** Events lost to ring wraparound. */
    std::uint64_t dropped() const { return total - count; }

    /** Drop events, keep capacity. */
    void clear();

    /**
     * Append every event currently held by @p other (oldest first),
     * re-interning phase names so the copies outlive @p other. This is
     * the join-time path for parallel campaigns: each worker records
     * into its own ring lock-free, and the merged buffer is assembled
     * single-threaded after the workers are joined. No-op while
     * disabled; the ring's capacity bounds the merged result as usual.
     */
    void mergeFrom(const CommandTrace &other);

    /** Held events, oldest first. */
    std::vector<TraceEvent> events() const;

    /**
     * Order-sensitive FNV-1a hash of every held event (kind, bank, row,
     * start, duration, phase/fault label). Two traces hash equal iff
     * they recorded the same events in the same order, which is the
     * same-seed determinism surface of the fuzzing oracle suite.
     */
    std::uint64_t contentHash() const;

    /** Human-readable listing (one line per event). */
    std::string text() const;

    /**
     * Chrome trace_event JSON ({"traceEvents": [...]}); timestamps are
     * simulated microseconds, commands are "X" slices on a per-bank
     * track, phases are "B"/"E" pairs on track 0. When @p profile is
     * given, the merged span-profiler tree is appended as nested
     * duration events on its own process track (aggregate wall time,
     * not the simulated timeline). When events were lost to ring
     * wraparound, an instant marker carrying the dropped count flags
     * the truncation.
     */
    void exportChromeTrace(std::ostream &os,
                           const ProfileTree *profile = nullptr) const;

  private:
    void
    advance()
    {
        head = (head + 1) % cap;
        if (count < cap)
            ++count;
        else if (!overflowWarned)
            noteOverflow();
        ++total;
    }

    /** Cold path: warn once when the ring starts overwriting events. */
    void noteOverflow();

    const char *intern(std::string_view name);

    /** Copy every field, re-pointing phases into this name pool. */
    void copyFrom(const CommandTrace &other);

    std::vector<TraceEvent> ring;
    std::size_t cap = 0;
    std::size_t head = 0; // next slot to write
    std::size_t count = 0;
    std::uint64_t total = 0;
    bool overflowWarned = false;
    std::deque<std::string> phaseNames;
};

} // namespace utrr

#endif // UTRR_OBS_TRACE_HH
