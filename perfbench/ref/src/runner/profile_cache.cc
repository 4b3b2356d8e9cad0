#include "runner/profile_cache.hh"

#include "common/logging.hh"

namespace utrr
{

std::string
ProfileCache::key(const ModuleSpec &spec, std::uint64_t module_seed,
                  const std::string &tag)
{
    return logFmt(spec.name, "#", module_seed, "#", tag);
}

std::shared_ptr<const ProfileCache::Entry>
ProfileCache::find(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mu);
    const auto it = entries.find(key);
    if (it == entries.end()) {
        ++tally.misses;
        return nullptr;
    }
    ++tally.hits;
    return it->second;
}

void
ProfileCache::insert(const std::string &key,
                     std::shared_ptr<const Entry> entry)
{
    std::lock_guard<std::mutex> lock(mu);
    entries.emplace(key, std::move(entry));
}

ProfileCache::Stats
ProfileCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return tally;
}

std::size_t
ProfileCache::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return entries.size();
}

} // namespace utrr
