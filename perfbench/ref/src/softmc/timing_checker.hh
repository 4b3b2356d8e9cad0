/**
 * @file
 * DDR4 command-protocol timing checker.
 *
 * The SoftMC host advances its clock with fixed per-command costs; the
 * checker independently validates that the resulting command stream
 * would be legal on a real DDR4 part:
 *
 *  - ACT only to a precharged bank; RD/WR/PRE only to an open bank;
 *  - tRCD between ACT and RD/WR, tRAS between ACT and PRE, tRP
 *    between PRE and ACT;
 *  - tRRD between ACTs to different banks and at most four ACTs per
 *    tFAW window;
 *  - REF only with all banks precharged, tRFC after a REF before the
 *    next command.
 *
 * Violations are collected (not fatal) so tests can assert on them and
 * experiment code can run with `UTRR_ASSERT`-style spot checks.
 */

#ifndef UTRR_SOFTMC_TIMING_CHECKER_HH
#define UTRR_SOFTMC_TIMING_CHECKER_HH

#include <deque>
#include <string>
#include <vector>

#include "common/types.hh"
#include "dram/timing.hh"

namespace utrr
{

/** One recorded protocol violation. */
struct TimingViolation
{
    Time when = 0;
    std::string rule;
    std::string detail;
};

/**
 * Validates a DDR command stream against the timing parameters.
 */
class TimingChecker
{
  public:
    TimingChecker(Timing timing, int banks);

    /** Feed commands in issue order with their issue times. */
    void onAct(Bank bank, Row row, Time when);
    void onPre(Bank bank, Time when);
    void onRead(Bank bank, Time when);
    void onWrite(Bank bank, Time when);
    void onRef(Time when);

    const std::vector<TimingViolation> &violations() const
    {
        return log;
    }
    bool clean() const { return log.empty(); }
    void clearViolations() { log.clear(); }

  private:
    void violate(Time when, const std::string &rule,
                 const std::string &detail);
    void checkFaw(Time when);

    struct BankTiming
    {
        bool open = false;
        Time lastAct = kInvalidTime;
        Time lastPre = kInvalidTime;
    };

    Timing timing;
    std::vector<BankTiming> banks;
    std::deque<Time> recentActs; // for the four-activation window
    Time lastActAnyBank = kInvalidTime;
    Time lastRef = kInvalidTime;
    std::vector<TimingViolation> log;
};

} // namespace utrr

#endif // UTRR_SOFTMC_TIMING_CHECKER_HH
