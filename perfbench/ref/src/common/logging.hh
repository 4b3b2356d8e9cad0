/**
 * @file
 * Minimal logging and error-reporting helpers, in the spirit of gem5's
 * base/logging.hh.
 *
 * - panic():  a bug in the simulator itself; aborts.
 * - fatal():  an unrecoverable user/configuration error; exits with code 1.
 * - warn():   suspicious but survivable condition.
 * - inform(): status message.
 *
 * Verbosity is controlled globally; benches lower it to keep table output
 * clean while examples keep it chatty.
 */

#ifndef UTRR_COMMON_LOGGING_HH
#define UTRR_COMMON_LOGGING_HH

#include <sstream>
#include <string>

namespace utrr
{

/** Global log levels, most severe first. */
enum class LogLevel
{
    kSilent = 0,
    kWarn = 1,
    kInform = 2,
    kDebug = 3,
};

/** Set/get the global verbosity threshold. */
void setLogLevel(LogLevel level);
LogLevel logLevel();

/** Report a simulator bug and abort. */
[[noreturn]] void panic(const std::string &msg);

/** Report an unrecoverable user error and exit(1). */
[[noreturn]] void fatal(const std::string &msg);

/** Print a warning (if verbosity allows). */
void warn(const std::string &msg);

/** Print a status message (if verbosity allows). */
void inform(const std::string &msg);

/** Print a debug message (if verbosity allows). */
void debug(const std::string &msg);

/**
 * Tiny printf-free formatter: concatenates stream-formattable arguments.
 * Example: logFmt("row ", row, " failed after ", ms, " ms").
 */
template <typename... Args>
std::string
logFmt(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

/**
 * Lazy debug logging: the arguments are only formatted when the global
 * verbosity actually admits debug output, so hot paths can log freely
 * without paying for string building on every call.
 * Example: UTRR_DEBUG("row ", row, " failed after ", ms, " ms").
 */
#define UTRR_DEBUG(...)                                                     \
    do {                                                                    \
        if (::utrr::logLevel() >= ::utrr::LogLevel::kDebug)                 \
            ::utrr::debug(::utrr::logFmt(__VA_ARGS__));                     \
    } while (false)

/** Assert a simulator invariant; panics with location info on failure. */
#define UTRR_ASSERT(cond, msg)                                              \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::utrr::panic(::utrr::logFmt(                                   \
                __FILE__, ":", __LINE__, ": assertion failed: ", #cond,     \
                " — ", msg));                                               \
        }                                                                   \
    } while (false)

} // namespace utrr

#endif // UTRR_COMMON_LOGGING_HH
