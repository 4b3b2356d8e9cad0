#include "obs/profiler.hh"

#include <algorithm>
#include <cstring>
#include <iomanip>
#include <sstream>

#include "obs/trace.hh"

namespace utrr
{

namespace detail
{

ThreadProf::ThreadProf()
{
    nodes.emplace_back(); // node 0: the root (no label, no timings)
}

std::int32_t
ThreadProf::childOf(std::int32_t parent, const char *label)
{
    // Labels are string literals, so pointer equality catches nearly
    // every lookup; strcmp covers the same literal duplicated across
    // translation units.
    for (std::int32_t c = nodes[parent].firstChild; c >= 0;
         c = nodes[c].nextSibling) {
        if (nodes[c].label == label ||
            std::strcmp(nodes[c].label, label) == 0)
            return c;
    }
    const auto idx = static_cast<std::int32_t>(nodes.size());
    ThreadProfNode node;
    node.label = label;
    node.parent = parent;
    node.nextSibling = nodes[parent].firstChild;
    nodes.push_back(node);
    nodes[parent].firstChild = idx;
    return idx;
}

void
ThreadProf::clear()
{
    nodes.clear();
    nodes.emplace_back();
    current = 0;
}

} // namespace detail

// --- ProfileNode / ProfileTree -----------------------------------------

std::uint64_t
ProfileNode::exclusiveWallNs() const
{
    std::uint64_t child_sum = 0;
    for (const ProfileNode &c : children)
        child_sum += c.wallNs;
    return child_sum >= wallNs ? 0 : wallNs - child_sum;
}

Time
ProfileNode::exclusiveSimNs() const
{
    Time child_sum = 0;
    for (const ProfileNode &c : children)
        child_sum += c.simNs;
    return child_sum >= simNs ? 0 : simNs - child_sum;
}

namespace
{

std::uint64_t
sumExclusiveWall(const ProfileNode &node)
{
    std::uint64_t total = node.exclusiveWallNs();
    for (const ProfileNode &c : node.children)
        total += sumExclusiveWall(c);
    return total;
}

void
foldedRec(const ProfileNode &node, std::string &path, bool wall,
          std::ostream &os)
{
    const std::size_t mark = path.size();
    if (!path.empty())
        path += ';';
    path += node.label;

    if (wall) {
        // flamegraph.pl expects integer sample counts; use exclusive
        // microseconds so short spans still show up.
        const std::uint64_t us = node.exclusiveWallNs() / 1000;
        if (us > 0)
            os << path << ' ' << us << '\n';
    } else {
        const Time ns = node.exclusiveSimNs();
        if (ns > 0)
            os << path << ' ' << ns << '\n';
    }

    for (const ProfileNode &c : node.children)
        foldedRec(c, path, wall, os);
    path.resize(mark);
}

Json
nodeToJson(const ProfileNode &node)
{
    Json obj = Json::object();
    obj["label"] = node.label;
    obj["calls"] = node.calls;
    obj["wall_ns"] = node.wallNs;
    obj["sim_ns"] = node.simNs;
    obj["excl_wall_ns"] = node.exclusiveWallNs();
    obj["excl_sim_ns"] = node.exclusiveSimNs();
    Json children = Json::array();
    for (const ProfileNode &c : node.children)
        children.push(nodeToJson(c));
    obj["children"] = std::move(children);
    return obj;
}

void
rankRec(const ProfileNode &node,
        std::vector<ProfileRankEntry> &entries)
{
    if (!node.label.empty()) {
        auto it = std::find_if(entries.begin(), entries.end(),
                               [&](const ProfileRankEntry &e) {
                                   return e.label == node.label;
                               });
        if (it == entries.end()) {
            entries.push_back({node.label, 0, 0, 0});
            it = entries.end() - 1;
        }
        it->calls += node.calls;
        it->exclusiveWallNs += node.exclusiveWallNs();
        it->exclusiveSimNs += node.exclusiveSimNs();
    }
    for (const ProfileNode &c : node.children)
        rankRec(c, entries);
}

} // namespace

std::uint64_t
ProfileTree::totalWallNs() const
{
    std::uint64_t total = 0;
    for (const ProfileNode &c : root.children)
        total += sumExclusiveWall(c);
    return total;
}

void
ProfileTree::foldedWall(std::ostream &os) const
{
    std::string path;
    for (const ProfileNode &c : root.children)
        foldedRec(c, path, /*wall=*/true, os);
}

void
ProfileTree::foldedSim(std::ostream &os) const
{
    std::string path;
    for (const ProfileNode &c : root.children)
        foldedRec(c, path, /*wall=*/false, os);
}

Json
ProfileTree::toJson() const
{
    Json obj = Json::object();
    obj["total_wall_ns"] = totalWallNs();
    Json spans = Json::array();
    for (const ProfileNode &c : root.children)
        spans.push(nodeToJson(c));
    obj["spans"] = std::move(spans);
    return obj;
}

std::vector<ProfileRankEntry>
ProfileTree::ranking() const
{
    std::vector<ProfileRankEntry> entries;
    rankRec(root, entries);
    std::stable_sort(entries.begin(), entries.end(),
                     [](const ProfileRankEntry &a,
                        const ProfileRankEntry &b) {
                         if (a.exclusiveWallNs != b.exclusiveWallNs)
                             return a.exclusiveWallNs > b.exclusiveWallNs;
                         return a.label < b.label;
                     });
    return entries;
}

std::string
ProfileTree::table(std::size_t max_rows) const
{
    const std::vector<ProfileRankEntry> entries = ranking();
    const std::uint64_t total = totalWallNs();

    std::ostringstream os;
    os << "profile: subsystems by exclusive wall time\n";
    os << std::left << std::setw(34) << "  span" << std::right
       << std::setw(12) << "calls" << std::setw(14) << "excl wall ms"
       << std::setw(8) << "share" << std::setw(16) << "excl sim ms"
       << '\n';
    std::size_t rows = 0;
    for (const ProfileRankEntry &e : entries) {
        if (rows >= max_rows)
            break;
        ++rows;
        const double wall_ms =
            static_cast<double>(e.exclusiveWallNs) / 1e6;
        const double sim_ms = static_cast<double>(e.exclusiveSimNs) / 1e6;
        const double share = total == 0
            ? 0.0
            : 100.0 * static_cast<double>(e.exclusiveWallNs) /
                static_cast<double>(total);
        os << "  " << std::left << std::setw(32) << e.label << std::right
           << std::setw(12) << e.calls << std::setw(14) << std::fixed
           << std::setprecision(2) << wall_ms << std::setw(7)
           << std::setprecision(1) << share << '%' << std::setw(16)
           << std::setprecision(2) << sim_ms << '\n';
    }
    if (entries.size() > max_rows)
        os << "  ... " << (entries.size() - max_rows) << " more\n";
    return os.str();
}

namespace
{

/**
 * Lay the aggregate tree out as a flame chart: each node becomes one
 * "X" event whose duration is its inclusive wall time, children placed
 * sequentially from the parent's start. Aggregate times are not a real
 * timeline, but nesting and relative widths are exact.
 */
std::uint64_t
chromeRec(const ProfileNode &node, std::uint64_t start_us, int pid,
          Json &events)
{
    const std::uint64_t dur_us = node.wallNs / 1000;
    Json ev = Json::object();
    ev["name"] = node.label;
    ev["ph"] = "X";
    ev["ts"] = start_us;
    ev["dur"] = dur_us == 0 ? std::uint64_t{1} : dur_us;
    ev["pid"] = pid;
    ev["tid"] = 0;
    Json args = Json::object();
    args["calls"] = node.calls;
    args["sim_ms"] = static_cast<double>(node.simNs) / 1e6;
    ev["args"] = std::move(args);
    events.push(std::move(ev));

    std::uint64_t cursor = start_us;
    for (const ProfileNode &c : node.children)
        cursor += chromeRec(c, cursor, pid, events);
    return dur_us == 0 ? 1 : dur_us;
}

} // namespace

void
ProfileTree::appendChromeEvents(Json &trace_events, int pid) const
{
    Json meta = Json::object();
    meta["name"] = "process_name";
    meta["ph"] = "M";
    meta["pid"] = pid;
    meta["tid"] = 0;
    Json margs = Json::object();
    margs["name"] = "profiler (aggregate wall time)";
    meta["args"] = std::move(margs);
    trace_events.push(std::move(meta));

    std::uint64_t cursor = 0;
    for (const ProfileNode &c : root.children)
        cursor += chromeRec(c, cursor, pid, trace_events);
}

// --- Profiler -----------------------------------------------------------

Profiler &
Profiler::instance()
{
    static Profiler profiler;
    return profiler;
}

detail::ThreadProf &
Profiler::threadState()
{
    // One registration per thread; afterwards the span path touches
    // only thread-local state. The cached pointer stays valid because
    // `threads` owns states by unique_ptr and reset() clears rather
    // than deletes them. The guard's destructor hands the slot back at
    // thread exit, so a process that runs many campaigns (each with
    // fresh worker threads) reuses slots instead of growing `threads`
    // without bound; the slot's recorded data survives the hand-back
    // and keeps merging into collect() until reset().
    struct Registration
    {
        Profiler *owner = nullptr;
        detail::ThreadProf *state = nullptr;

        ~Registration()
        {
            if (owner != nullptr)
                owner->releaseThread(state);
        }
    };
    thread_local Registration reg;
    if (reg.state == nullptr || reg.owner != this) {
        const std::lock_guard<std::mutex> lock(mutex);
        if (freeStates.empty()) {
            auto state = std::make_unique<detail::ThreadProf>();
            reg.state = state.get();
            threads.push_back(std::move(state));
        } else {
            reg.state = freeStates.back();
            freeStates.pop_back();
        }
        reg.owner = this;
    }
    return *reg.state;
}

void
Profiler::releaseThread(detail::ThreadProf *state)
{
    const std::lock_guard<std::mutex> lock(mutex);
    // The exiting thread is past every span (RAII scopes closed before
    // thread_local destruction), so parking the cursor at the root
    // leaves a clean slate for whichever thread reuses the slot.
    state->current = 0;
    freeStates.push_back(state);
}

namespace
{

void
mergeThreadNode(const detail::ThreadProf &prof, std::int32_t idx,
                ProfileNode &into)
{
    const detail::ThreadProfNode &src = prof.nodes[idx];
    auto it = std::find_if(into.children.begin(), into.children.end(),
                           [&](const ProfileNode &n) {
                               return n.label == src.label;
                           });
    if (it == into.children.end()) {
        into.children.emplace_back();
        it = into.children.end() - 1;
        it->label = src.label;
    }
    it->calls += src.calls;
    it->wallNs += src.wallNs;
    it->simNs += src.simNs;
    for (std::int32_t c = prof.nodes[idx].firstChild; c >= 0;
         c = prof.nodes[c].nextSibling)
        mergeThreadNode(prof, c, *it);
}

void
sortTree(ProfileNode &node)
{
    std::sort(node.children.begin(), node.children.end(),
              [](const ProfileNode &a, const ProfileNode &b) {
                  return a.label < b.label;
              });
    for (ProfileNode &c : node.children)
        sortTree(c);
}

} // namespace

ProfileTree
Profiler::collect() const
{
    ProfileTree tree;
    const std::lock_guard<std::mutex> lock(mutex);
    for (const auto &prof : threads) {
        for (std::int32_t c = prof->nodes[0].firstChild; c >= 0;
             c = prof->nodes[c].nextSibling)
            mergeThreadNode(*prof, c, tree.root);
    }
    sortTree(tree.root);
    return tree;
}

void
Profiler::reset()
{
    const std::lock_guard<std::mutex> lock(mutex);
    for (auto &prof : threads)
        prof->clear();
}

std::size_t
Profiler::threadCount() const
{
    const std::lock_guard<std::mutex> lock(mutex);
    return threads.size();
}

// --- ProfSpan -----------------------------------------------------------

void
ProfSpan::open(const char *label, const Time *sim_clock, Anchor anchor)
{
    state = &Profiler::instance().threadState();
    parentAtOpen = state->current;
    const std::int32_t at =
        anchor == kAtRoot ? 0 : parentAtOpen;
    node = state->childOf(at, label);
    state->current = node;
    sim = sim_clock;
    if (sim != nullptr)
        simStart = *sim;
    wallStart = std::chrono::steady_clock::now();
}

void
ProfSpan::close()
{
    if (phaseTrace != nullptr)
        phaseTrace->endPhase(phaseLabel, sim != nullptr ? *sim : 0);
    if (state == nullptr)
        return;
    const auto wall_end = std::chrono::steady_clock::now();
    // A reset() between open and close invalidates the node index;
    // guard so the span degrades to a no-op instead of writing out of
    // bounds (reset is documented as quiescent-only, this is defensive).
    if (static_cast<std::size_t>(node) < state->nodes.size()) {
        detail::ThreadProfNode &n = state->nodes[node];
        n.calls += 1;
        n.wallNs += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                wall_end - wallStart)
                .count());
        if (sim != nullptr)
            n.simNs += *sim - simStart;
        state->current = parentAtOpen;
    } else {
        state->current = 0;
    }
    state = nullptr;
}

void
ProfSpan::beginPhase(const char *label, const Time *sim_clock,
                     CommandTrace *trace)
{
    if (!trace->enabled())
        return;
    phaseTrace = trace;
    phaseLabel = label;
    sim = sim_clock;
    trace->beginPhase(label, sim != nullptr ? *sim : 0);
}

} // namespace utrr
