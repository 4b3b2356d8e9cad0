#include "check/reference_backend.hh"

namespace utrr
{

ReferenceBackend::ReferenceBackend(
    const ModuleSpec &spec, std::uint64_t seed,
    const RetentionModelConfig *retention_overrides, Timing timing)
    : moduleSpec(spec), ref(spec, seed, retention_overrides, timing)
{
}

BackendResult
ReferenceBackend::execute(const Program &program)
{
    ReferenceResult exec = ref.execute(program);
    BackendResult result;
    result.startTime = exec.startTime;
    result.endTime = exec.endTime;
    result.reads.reserve(exec.reads.size());
    for (ReferenceRead &read : exec.reads) {
        BackendRead out;
        out.bank = read.bank;
        out.row = read.row;
        out.when = read.when;
        out.words = std::move(read.words);
        result.reads.push_back(std::move(out));
    }
    return result;
}

BackendAccounting
ReferenceBackend::accounting() const
{
    BackendAccounting acc;
    acc.refs = ref.refCount();
    acc.trrEvents = ref.trrEventCount();
    acc.trrVictimRefreshes = ref.trrVictimRefreshCount();
    acc.rowRefreshes.reserve(static_cast<std::size_t>(moduleSpec.banks));
    for (Bank b = 0; b < moduleSpec.banks; ++b)
        acc.rowRefreshes.push_back(ref.rowRefreshCount(b));
    return acc;
}

} // namespace utrr
