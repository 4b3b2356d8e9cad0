/**
 * @file
 * An empty placeholder for the removed cross-job profile cache.
 *
 * Its only user is the frozen end-to-end benchmark,
 * perfbench/driver.cc, which includes this header, declares a
 * ProfileCache and stores its address in CampaignConfig::profileCache.
 * Nothing reads it. Both names go when that file next changes
 * (ROADMAP.md item 8).
 */

#ifndef UTRR_RUNNER_PROFILE_CACHE_HH
#define UTRR_RUNNER_PROFILE_CACHE_HH

namespace utrr
{

/** Kept only so perfbench/driver.cc builds unchanged; holds nothing. */
struct ProfileCache
{
};

} // namespace utrr

#endif // UTRR_RUNNER_PROFILE_CACHE_HH
