/**
 * @file
 * The campaign job used by the 45-module reverse-engineering battery:
 * identify a module's TRR-to-REF period and neighbour count black-box
 * and compare them against the spec's ground truth.
 *
 * Shared by `reverse_engineer --battery/--chaos`, the runner test
 * suite and the bench harness so all three campaign over the exact
 * same per-module procedure.
 */

#ifndef UTRR_RUNNER_REVENG_JOB_HH
#define UTRR_RUNNER_REVENG_JOB_HH

#include "core/reveng.hh"
#include "runner/campaign.hh"

namespace utrr
{

/** Per-module reverse-engineering knobs of the identification job. */
struct IdentifyJobConfig
{
    TrrRevengConfig reveng;

    /** Fault-free battery defaults (lighter sampling suffices). */
    static IdentifyJobConfig battery();

    /**
     * Chaos-sweep defaults: the historical `--chaos` configuration
     * (larger period sample, Row Scout revalidation, one simulated
     * hour of watchdog budget).
     */
    static IdentifyJobConfig chaos();
};

/**
 * Build the identification job body. The verdict payload is fully
 * deterministic: module name, measured vs ground-truth period and
 * neighbour count, fresh-row retries, ok flag. A watchdog overrun
 * propagates as WatchdogTimeout for the runner to retry.
 */
JobFn makeIdentifyJob(const IdentifyJobConfig &config);

} // namespace utrr

#endif // UTRR_RUNNER_REVENG_JOB_HH
