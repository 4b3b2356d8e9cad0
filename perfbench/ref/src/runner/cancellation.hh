/**
 * @file
 * Cooperative campaign cancellation.
 *
 * One process-wide stop flag, settable from an async signal handler:
 * SIGINT/SIGTERM call requestStop() (a lone relaxed atomic store — the
 * only async-signal-safe thing a handler may do here), campaign workers
 * poll stopFlagPtr() between jobs, and SoftMcHost polls it at its
 * watchdog poll point so even a single long job unwinds within a few
 * simulated commands. Nothing is lost on a stop: the write-ahead
 * journal already holds every finished job, so the run exits with the
 * resumable status and `--resume` picks up where it left off.
 */

#ifndef UTRR_RUNNER_CANCELLATION_HH
#define UTRR_RUNNER_CANCELLATION_HH

#include <atomic>

namespace utrr
{

/** The process-wide stop flag (for wiring into CampaignConfig). */
const std::atomic<bool> *stopFlagPtr();

/** Has a stop been requested? */
bool stopRequested();

/** Request a cooperative stop. Async-signal-safe. */
void requestStop();

/** Clear the flag (tests / consecutive campaigns in one process). */
void resetStopFlag();

/**
 * Install SIGINT + SIGTERM handlers that call requestStop(). A second
 * SIGINT restores the default disposition, so a stuck campaign can
 * still be killed the usual way. Returns false when sigaction fails.
 */
bool installStopSignalHandlers();

} // namespace utrr

#endif // UTRR_RUNNER_CANCELLATION_HH
