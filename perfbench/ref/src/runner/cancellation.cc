#include "runner/cancellation.hh"

#include <csignal>

namespace utrr
{

namespace
{

std::atomic<bool> stop_flag{false};

extern "C" void
stopSignalHandler(int signo)
{
    stop_flag.store(true, std::memory_order_relaxed);
    if (signo == SIGINT) {
        // Second ^C kills the process the ordinary way.
        std::signal(SIGINT, SIG_DFL);
    }
}

} // namespace

const std::atomic<bool> *
stopFlagPtr()
{
    return &stop_flag;
}

bool
stopRequested()
{
    return stop_flag.load(std::memory_order_relaxed);
}

void
requestStop()
{
    stop_flag.store(true, std::memory_order_relaxed);
}

void
resetStopFlag()
{
    stop_flag.store(false, std::memory_order_relaxed);
}

bool
installStopSignalHandlers()
{
    struct sigaction action = {};
    action.sa_handler = stopSignalHandler;
    sigemptyset(&action.sa_mask);
    // No SA_RESTART: blocking I/O (if any) returns EINTR so the stop
    // is noticed promptly.
    action.sa_flags = 0;
    if (sigaction(SIGINT, &action, nullptr) != 0)
        return false;
    if (sigaction(SIGTERM, &action, nullptr) != 0)
        return false;
    return true;
}

} // namespace utrr
