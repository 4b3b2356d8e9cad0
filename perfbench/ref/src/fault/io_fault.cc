#include "fault/io_fault.hh"

#include <cstdlib>

#include <signal.h>
#include <unistd.h>

#include "common/logging.hh"

namespace utrr
{

void
JournalWriteFault::die(int fd)
{
    if (fd >= 0)
        ::fsync(fd);
    ::kill(::getpid(), SIGKILL);
    // SIGKILL cannot be caught; if delivery is somehow delayed, stop
    // here rather than returning into the journal writer.
    ::_exit(137);
}

std::optional<JournalWriteFault>
JournalWriteFault::parse(const std::string &spec)
{
    if (spec.empty())
        return std::nullopt;
    JournalWriteFault fault;
    char *end = nullptr;
    fault.crashAtRecord = std::strtoll(spec.c_str(), &end, 10);
    if (end == spec.c_str() || fault.crashAtRecord < 0)
        return std::nullopt;
    if (*end == ':') {
        const char *bytes = end + 1;
        fault.partialBytes = std::strtoll(bytes, &end, 10);
        if (end == bytes || fault.partialBytes < 0)
            return std::nullopt;
    }
    if (*end != '\0')
        return std::nullopt;
    return fault;
}

std::optional<JournalWriteFault>
JournalWriteFault::fromEnv()
{
    const char *spec = std::getenv("UTRR_JOURNAL_CRASH");
    if (spec == nullptr || *spec == '\0')
        return std::nullopt;
    auto fault = parse(spec);
    if (!fault)
        warn(logFmt("io_fault: malformed UTRR_JOURNAL_CRASH '", spec,
                    "' (want N or N:B); ignoring"));
    return fault;
}

} // namespace utrr
