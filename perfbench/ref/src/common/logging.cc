#include "common/logging.hh"

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>

namespace utrr
{

namespace
{

/**
 * Parse the UTRR_LOG_LEVEL environment variable: a name (silent, warn,
 * inform/info, debug) or a numeric level 0-3. Unset, empty or
 * unparsable values yield nullopt (compiled-in default / setLogLevel
 * stays in charge).
 */
std::optional<LogLevel>
envLogLevel()
{
    const char *raw = std::getenv("UTRR_LOG_LEVEL");
    if (raw == nullptr || *raw == '\0')
        return std::nullopt;
    if (std::strcmp(raw, "silent") == 0 || std::strcmp(raw, "0") == 0)
        return LogLevel::kSilent;
    if (std::strcmp(raw, "warn") == 0 || std::strcmp(raw, "1") == 0)
        return LogLevel::kWarn;
    if (std::strcmp(raw, "inform") == 0 ||
        std::strcmp(raw, "info") == 0 || std::strcmp(raw, "2") == 0)
        return LogLevel::kInform;
    if (std::strcmp(raw, "debug") == 0 || std::strcmp(raw, "3") == 0)
        return LogLevel::kDebug;
    std::cerr << "warn: UTRR_LOG_LEVEL=" << raw
              << " not recognized (use silent|warn|inform|debug or 0-3);"
              << " ignoring\n";
    return std::nullopt;
}

/**
 * The environment override outranks setLogLevel() so a campaign binary
 * can be made quieter/chattier without recompiling — benches and
 * examples call setLogLevel() at startup, and the operator's
 * environment must still win. Read once, on first use.
 */
const std::optional<LogLevel> &
envOverride()
{
    static const std::optional<LogLevel> cached = envLogLevel();
    return cached;
}

LogLevel g_level = LogLevel::kWarn;

} // namespace

void
setLogLevel(LogLevel level)
{
    g_level = level;
}

LogLevel
logLevel()
{
    const std::optional<LogLevel> &env = envOverride();
    return env ? *env : g_level;
}

void
panic(const std::string &msg)
{
    std::cerr << "panic: " << msg << std::endl;
    std::abort();
}

void
fatal(const std::string &msg)
{
    std::cerr << "fatal: " << msg << std::endl;
    std::exit(1);
}

void
warn(const std::string &msg)
{
    if (logLevel() >= LogLevel::kWarn)
        std::cerr << "warn: " << msg << "\n";
}

void
inform(const std::string &msg)
{
    if (logLevel() >= LogLevel::kInform)
        std::cout << "info: " << msg << "\n";
}

void
debug(const std::string &msg)
{
    if (logLevel() >= LogLevel::kDebug)
        std::cout << "debug: " << msg << "\n";
}

} // namespace utrr
