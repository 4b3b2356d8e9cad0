#include "core/sim_backend.hh"

namespace utrr
{

SimBackend::SimBackend(const ModuleSpec &spec, std::uint64_t seed,
                       const RetentionModelConfig *retention_overrides,
                       Timing timing)
    : mod(std::make_unique<DramModule>(spec, seed, retention_overrides)),
      mc(std::make_unique<SoftMcHost>(*mod, timing))
{
}

BackendResult
SimBackend::execute(const Program &program)
{
    const ExecResult exec = mc->execute(program);
    BackendResult result;
    result.startTime = exec.startTime;
    result.endTime = exec.endTime;
    result.reads.reserve(exec.reads.size());
    for (const ReadRecord &record : exec.reads) {
        BackendRead read;
        read.bank = record.bank;
        read.row = record.row;
        read.when = record.when;
        const int words = record.readout.words();
        read.words.reserve(static_cast<std::size_t>(words));
        for (int w = 0; w < words; ++w)
            read.words.push_back(record.readout.word(w));
        result.reads.push_back(std::move(read));
    }
    return result;
}

BackendAccounting
SimBackend::accounting() const
{
    BackendAccounting acc;
    acc.refs = mod->refCount();
    acc.trrEvents = mod->trrEventCount();
    acc.trrVictimRefreshes = mod->trrRefreshCount();
    acc.rowRefreshes.reserve(static_cast<std::size_t>(mod->spec().banks));
    for (Bank b = 0; b < mod->spec().banks; ++b)
        acc.rowRefreshes.push_back(mod->bankAt(b).rowRefreshCount());
    return acc;
}

std::uint64_t
SimBackend::snapshot()
{
    const std::uint64_t token = nextToken++;
    snapshots.emplace(token, captureDevice());
    return token;
}

void
SimBackend::restore(std::uint64_t token)
{
    const auto it = snapshots.find(token);
    if (it == snapshots.end())
        throw std::out_of_range("unknown sim snapshot token");
    restoreDevice(it->second);
}

void
SimBackend::dropSnapshot(std::uint64_t token)
{
    snapshots.erase(token);
}

DeviceSnapshot
SimBackend::captureDevice() const
{
    DeviceSnapshot snap;
    snap.module = mod->snapshot();
    snap.host = mc->snapshotState();
    return snap;
}

void
SimBackend::restoreDevice(const DeviceSnapshot &snap)
{
    mod->restore(snap.module);
    mc->restoreState(snap.host);
}

std::unique_ptr<SimBackend>
SimBackend::fork(const DeviceSnapshot &snap) const
{
    auto child = std::make_unique<SimBackend>(
        mod->spec(), mod->seed(), &mod->physics().retentionConfig(),
        mc->timing());
    child->restoreDevice(snap);
    return child;
}

} // namespace utrr
