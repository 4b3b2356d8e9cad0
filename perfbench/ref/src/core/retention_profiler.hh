/**
 * @file
 * Whole-range retention characterization (paper §4 context).
 *
 * Row Scout deliberately avoids profiling every row — it hunts for a
 * handful of usable ones. This companion profiler does the opposite:
 * it sweeps a row range at increasing retention targets and builds the
 * retention-time distribution (plus a VRT-suspect count), the kind of
 * data classic profilers (RAIDR, REAPER) collect and the basis for the
 * substrate's calibration (see DESIGN.md §5). Used by bench_rowscout
 * and the substrate validation tests.
 */

#ifndef UTRR_CORE_RETENTION_PROFILER_HH
#define UTRR_CORE_RETENTION_PROFILER_HH

#include <map>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "dram/data_pattern.hh"
#include "softmc/host.hh"

namespace utrr
{

/** Distribution of observed per-row retention times. */
struct RetentionProfile
{
    /** Retention bucket (ms, bucket upper edge) -> rows first failing
     *  in that bucket. */
    std::map<double, int> histogramMs;
    /** Rows that failed at the smallest tested time. */
    int failedAtMin = 0;
    /** Rows that never failed within the tested horizon. */
    int neverFailed = 0;
    /** Rows whose failure behaviour changed between repetitions
     *  (VRT suspects). */
    int vrtSuspects = 0;
    int rowsProfiled = 0;

    /** Fraction of rows failing within the horizon. */
    double weakFraction() const;
};

/**
 * Range retention profiler.
 */
class RetentionProfiler
{
  public:
    struct Config
    {
        Bank bank = 0;
        Row rowStart = 0;
        Row rowEnd = 4 * 1024;
        DataPattern pattern = DataPattern::allOnes();
        /** Tested retention targets: start, multiplicative step, max. */
        Time initialT = 125 * kNsPerMs;
        double stepFactor = 2.0;
        Time maxT = 4'000 * kNsPerMs;
        /** Re-test rounds used to spot VRT suspects. */
        int repeats = 3;
    };

    RetentionProfiler(SoftMcHost &host, Config config);

    /** Run the sweep and build the distribution. */
    RetentionProfile profile();

  private:
    /** Rows of the range failing within t (one pass). */
    std::vector<bool> failingAt(Time t);

    SoftMcHost &host;
    Config cfg;
};

} // namespace utrr

#endif // UTRR_CORE_RETENTION_PROFILER_HH
