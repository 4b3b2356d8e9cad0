/**
 * @file
 * Hierarchical span profiler: RAII scopes nest into a call tree keyed
 * by *static* labels, each node recording wall time, simulated DRAM
 * time and invocation counts.
 *
 * Design constraints (DESIGN.md §13):
 *
 *  - **Near-zero disabled cost.** Profiling is off by default; a
 *    ProfSpan constructed while disabled and untraced is one relaxed
 *    atomic load and a branch at each end. The hot paths (hammer
 *    loops, refresh sweeps) are instrumented unconditionally and pay
 *    only that.
 *
 *  - **Thread-local recording, merge at join.** Every thread records
 *    into its own call tree with no synchronization on the span path;
 *    Profiler::collect() merges the per-thread trees single-threaded.
 *    The campaign runner's determinism contract is untouched: spans
 *    never feed back into simulation state, and the *simulated*-time
 *    and call-count fields of the merged tree are bit-identical for any
 *    worker count (wall time is the only schedule-dependent field).
 *
 *  - **Dual clocks.** A span measures wall time always and simulated
 *    DRAM time when given a pointer to a simulated clock (e.g.
 *    SoftMcHost's); sim attribution is what tells "the campaign spends
 *    its simulated hours in retention waits" apart from "the process
 *    spends its wall seconds in readout diffing".
 *
 *  - **One scope, one object.** A span given a CommandTrace also
 *    brackets its scope with begin/end phase markers named by its
 *    label, stamped at the simulated clock, whenever that trace is
 *    enabled — profiling on or off. Wall time never reaches a metrics
 *    registry: the profile tree is its only sink.
 *
 * Exporters: folded stacks for flamegraph.pl, nested duration events
 * merged into the Chrome trace (see CommandTrace::exportChromeTrace),
 * a JSON tree for ExperimentReport::attachProfile, and a ranking table
 * of subsystems by exclusive wall time.
 */

#ifndef UTRR_OBS_PROFILER_HH
#define UTRR_OBS_PROFILER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/json.hh"

namespace utrr
{

class CommandTrace;

namespace detail
{

/** One node of a thread-private call tree (first-child/next-sibling). */
struct ThreadProfNode
{
    const char *label = nullptr;
    std::int32_t parent = -1;
    std::int32_t firstChild = -1;
    std::int32_t nextSibling = -1;
    std::uint64_t calls = 0;
    /** Inclusive wall nanoseconds. */
    std::uint64_t wallNs = 0;
    /** Inclusive simulated nanoseconds (0 when no sim clock given). */
    Time simNs = 0;
};

/** Per-thread recording state. Only its owning thread writes it. */
struct ThreadProf
{
    std::vector<ThreadProfNode> nodes;
    std::int32_t current = 0;

    ThreadProf();

    /** Find-or-create the child of @p parent labelled @p label. */
    std::int32_t childOf(std::int32_t parent, const char *label);

    /** Drop all recorded spans (keep the root; see Profiler::reset). */
    void clear();
};

} // namespace detail

/** Aggregated profile node after the per-thread trees are merged. */
struct ProfileNode
{
    std::string label;
    std::uint64_t calls = 0;
    /** Inclusive wall nanoseconds (schedule-dependent). */
    std::uint64_t wallNs = 0;
    /** Inclusive simulated nanoseconds (deterministic). */
    Time simNs = 0;
    /** Children sorted by label (deterministic order). */
    std::vector<ProfileNode> children;

    /** Inclusive minus children-inclusive (clamped at zero). */
    std::uint64_t exclusiveWallNs() const;
    Time exclusiveSimNs() const;
};

/** One row of the subsystem ranking (labels aggregated across paths). */
struct ProfileRankEntry
{
    std::string label;
    std::uint64_t calls = 0;
    std::uint64_t exclusiveWallNs = 0;
    Time exclusiveSimNs = 0;
};

/**
 * Merged result of Profiler::collect(). The root node carries no
 * measurements of its own; its children are the top-level spans.
 */
struct ProfileTree
{
    ProfileNode root;

    bool empty() const { return root.children.empty(); }

    /** Sum of every node's exclusive wall time (total measured). */
    std::uint64_t totalWallNs() const;

    /**
     * flamegraph.pl folded-stack output: one "a;b;c value" line per
     * node with a non-zero exclusive value. Wall values are integer
     * microseconds; sim values are integer nanoseconds (deterministic,
     * used by the merge-determinism tests).
     */
    void foldedWall(std::ostream &os) const;
    void foldedSim(std::ostream &os) const;

    /** Nested {label, calls, wall_ns, sim_ns, children} document. */
    Json toJson() const;

    /**
     * Labels aggregated across all tree paths, ranked by exclusive
     * wall time (descending).
     */
    std::vector<ProfileRankEntry> ranking() const;

    /**
     * Human-readable ranking table ("what do we optimize next"):
     * subsystem, calls, exclusive wall ms, share of measured wall,
     * exclusive simulated ms.
     */
    std::string table(std::size_t max_rows = 24) const;

    /**
     * Append the tree as synthetic nested "X" duration events laid out
     * as a flame chart (children sequential inside their parent) on a
     * dedicated process track. Timestamps are cumulative *wall*
     * microseconds, not simulated time — the track is labelled
     * accordingly via a process_name metadata event.
     */
    void appendChromeEvents(Json &trace_events, int pid = 1) const;
};

/**
 * The process-wide profiler. Spans record through thread-local state;
 * this singleton owns every thread's tree and merges them on demand.
 */
class Profiler
{
  public:
    static Profiler &instance();

    /** Hot-path guard: is span recording active? */
    static bool profilingEnabled()
    {
        return enabledFlag.load(std::memory_order_relaxed);
    }

    /** Globally enable/disable span recording. */
    static void setEnabled(bool on)
    {
        enabledFlag.store(on, std::memory_order_relaxed);
    }

    /**
     * Merge every thread's tree into one ProfileTree (children sorted
     * by label). Quiescent-only, like reset(): every recording thread
     * must have joined (or be provably between spans for the duration
     * of the call) — the merge reads per-thread node vectors with no
     * synchronization, so a concurrent span opening on another thread
     * is a data race. A span still open on the *calling* thread is
     * fine; it contributes its completed children only.
     */
    ProfileTree collect() const;

    /**
     * Drop all recorded spans on every registered thread. Only call
     * while no span is open anywhere (between experiments / at
     * campaign start); a live span across reset() is discarded.
     */
    void reset();

    /**
     * Registered recording slots: threads currently recording plus
     * exited threads' slots awaiting reuse. Bounded by the peak
     * concurrent thread count, not the number of threads ever spawned.
     */
    std::size_t threadCount() const;

  private:
    friend class ProfSpan;

    Profiler() = default;

    /** The calling thread's recording state (registered on demand). */
    detail::ThreadProf &threadState();

    /**
     * Return a slot to the free list at thread exit. Recorded data is
     * kept (collect() after join still sees it); only the slot itself
     * becomes reusable by the next registering thread.
     */
    void releaseThread(detail::ThreadProf *state);

    inline static std::atomic<bool> enabledFlag{false};

    mutable std::mutex mutex;
    std::vector<std::unique_ptr<detail::ThreadProf>> threads;
    std::vector<detail::ThreadProf *> freeStates;
};

/**
 * RAII span. Construct with a static (string-literal) label; the label
 * pointer may be stored for the profiler's lifetime. Pass the host's
 * simulated clock to attribute simulated time as well as wall time.
 *
 * Pass the host's trace as well to mark the scope in it: while the
 * trace is enabled, the span records a begin/end phase pair named by
 * its label at the simulated clock (0 without one), whether or not
 * profiling is on. Hot-path spans pass no trace.
 *
 * kAtRoot anchors the span at the thread's tree root instead of the
 * current span — the campaign runner uses it for per-job spans so the
 * merged tree has identical paths whether a job ran inline (jobs=1,
 * inside the caller's spans) or on a worker thread.
 */
class ProfSpan
{
  public:
    enum Anchor
    {
        kNested,
        kAtRoot,
    };

    explicit ProfSpan(const char *label, const Time *sim_clock = nullptr,
                      CommandTrace *trace = nullptr,
                      Anchor anchor = kNested)
    {
        if (trace != nullptr)
            beginPhase(label, sim_clock, trace);
        if (Profiler::profilingEnabled())
            open(label, sim_clock, anchor);
    }

    ProfSpan(const ProfSpan &) = delete;
    ProfSpan &operator=(const ProfSpan &) = delete;

    ~ProfSpan()
    {
        // One branch for both, so a disabled, untraced span pays one.
        if ((state != nullptr) | (phaseTrace != nullptr))
            close();
    }

  private:
    void open(const char *label, const Time *sim_clock, Anchor anchor);
    void close();
    void beginPhase(const char *label, const Time *sim_clock,
                    CommandTrace *trace);

    /** Set while the span is open in the profiler. */
    detail::ThreadProf *state = nullptr;
    /** Set while a phase is open in an enabled trace. */
    CommandTrace *phaseTrace = nullptr;
    // The rest is written by open() or beginPhase() before any read,
    // so a disabled, untraced span initializes only the two above.
    const char *phaseLabel;
    const Time *sim;
    Time simStart;
    std::int32_t node;
    std::int32_t parentAtOpen;
    std::chrono::steady_clock::time_point wallStart;
};

/** Convenience macros for the common wall-only / wall+sim spans. */
#define UTRR_PROF_CAT2(a, b) a##b
#define UTRR_PROF_CAT(a, b) UTRR_PROF_CAT2(a, b)
#define UTRR_PROF_SCOPE(label)                                              \
    ::utrr::ProfSpan UTRR_PROF_CAT(utrr_prof_span_, __LINE__)(label)
#define UTRR_PROF_SCOPE_SIM(label, sim_clock_ptr)                           \
    ::utrr::ProfSpan UTRR_PROF_CAT(utrr_prof_span_, __LINE__)(              \
        label, sim_clock_ptr)

} // namespace utrr

#endif // UTRR_OBS_PROFILER_HH
