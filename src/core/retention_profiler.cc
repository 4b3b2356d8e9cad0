#include "core/retention_profiler.hh"

#include "common/logging.hh"

namespace utrr
{

double
RetentionProfile::weakFraction() const
{
    if (rowsProfiled == 0)
        return 0.0;
    return 1.0 -
        static_cast<double>(neverFailed) /
        static_cast<double>(rowsProfiled);
}

RetentionProfiler::RetentionProfiler(SoftMcHost &host, Config config)
    : host(host), cfg(config)
{
    UTRR_ASSERT(cfg.rowEnd > cfg.rowStart, "bad row range");
    UTRR_ASSERT(cfg.stepFactor > 1.0, "step factor must grow");
}

std::vector<bool>
RetentionProfiler::failingAt(Time t)
{
    host.writeRows(cfg.bank, cfg.rowStart, cfg.rowEnd, cfg.pattern);
    host.wait(t);
    const std::vector<int> flips =
        host.readRows(cfg.bank, cfg.rowStart, cfg.rowEnd, cfg.pattern);
    std::vector<bool> failing(flips.size());
    for (std::size_t i = 0; i < flips.size(); ++i)
        failing[i] = flips[i] > 0;
    return failing;
}

RetentionProfile
RetentionProfiler::profile()
{
    const Row count = cfg.rowEnd - cfg.rowStart;
    RetentionProfile result;
    result.rowsProfiled = static_cast<int>(count);

    // firstFail[i]: smallest tested T at which row i failed (0 = never).
    std::vector<Time> first_fail(static_cast<std::size_t>(count), 0);
    std::vector<bool> inconsistent(static_cast<std::size_t>(count),
                                   false);

    for (Time t = cfg.initialT; t <= cfg.maxT;
         t = static_cast<Time>(static_cast<double>(t) *
                               cfg.stepFactor)) {
        // Repeat the pass: a row flapping between pass/fail at the
        // same target is a VRT suspect.
        std::vector<bool> seen = failingAt(t);
        for (int rep = 1; rep < cfg.repeats; ++rep) {
            const std::vector<bool> again = failingAt(t);
            for (std::size_t i = 0; i < seen.size(); ++i) {
                if (seen[i] != again[i])
                    inconsistent[i] = true;
                seen[i] = seen[i] || again[i];
            }
        }
        for (std::size_t i = 0; i < seen.size(); ++i) {
            if (seen[i] && first_fail[i] == 0)
                first_fail[i] = t;
        }
    }

    for (std::size_t i = 0; i < first_fail.size(); ++i) {
        if (inconsistent[i])
            ++result.vrtSuspects;
        if (first_fail[i] == 0) {
            ++result.neverFailed;
            continue;
        }
        if (first_fail[i] == cfg.initialT)
            ++result.failedAtMin;
        ++result.histogramMs[nsToMs(first_fail[i])];
    }
    return result;
}

} // namespace utrr
