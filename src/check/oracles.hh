/**
 * @file
 * Oracle suite of the differential fuzzing harness.
 *
 * The suite drives both implementations through the DeviceBackend seam
 * (src/core/device_backend.hh) — SimBackend for the production
 * DramModule + SoftMcHost pair, ReferenceBackend for the naive shadow
 * interpreter. One call runs a program through five independent checks,
 * all of them unconditional:
 *
 *  1. **Differential**: execute on both backends; every captured READ
 *     (bank, row, time, all row words) and the final clock must match
 *     exactly.
 *  2. **Timing**: replay the sim backend's command trace through the
 *     TimingChecker; the host's fixed per-command cost model must never
 *     produce an illegal DDR4 command stream.
 *  3. **Accounting**: both backends' accounting surfaces (REF count,
 *     TRR events, TRR victim refreshes, per-bank single-row refreshes)
 *     must agree, and the sim module's white-box ground truth must
 *     agree with its own black-box counters.
 *  4. **Determinism**: a second fresh sim backend executing the same
 *     program must produce a bit-identical command trace, read set and
 *     end time.
 *  5. **Execution**: a fresh sim backend forced into the *opposite*
 *     execution tier (compiled vs interpreted, DESIGN.md §17) must
 *     produce the same reads, end time, command trace and accounting —
 *     the compiled-tier fusions are provably bit-identical under fuzz
 *     pressure, from whichever tier the suite itself runs in.
 *
 * Any violation is a real bug in one of the two implementations (or in
 * the spec both encode) — the clean-tree fuzz smoke job pins that the
 * suite stays silent across hundreds of programs per TRR vendor.
 */

#ifndef UTRR_CHECK_ORACLES_HH
#define UTRR_CHECK_ORACLES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dram/module_spec.hh"
#include "dram/physics.hh"
#include "dram/timing.hh"
#include "softmc/command.hh"

namespace utrr
{

/** Suite configuration. */
struct OracleConfig
{
    /** Silicon seed for both implementations. */
    std::uint64_t moduleSeed = 2021;

    /** Optional retention overrides (nullptr = model defaults). */
    const RetentionModelConfig *retention = nullptr;

    Timing timing{};

    /** Extra trace ring slots beyond the static estimate. */
    std::size_t traceMargin = 512;

    /** Violations kept per oracle before truncating the report. */
    std::size_t maxViolationsPerOracle = 8;
};

/** One oracle violation. */
struct OracleViolation
{
    /** "differential", "timing", "accounting", "determinism",
     *  "execution", "internal". */
    std::string oracle;
    std::string detail;
};

/** Result of one suite run. */
struct OracleReport
{
    std::vector<OracleViolation> violations;

    /** Reads the program captured. */
    std::size_t reads = 0;
    /** Final simulated time of the production execution. */
    Time endTime = 0;
    /** Command-trace content hash of the production execution. */
    std::uint64_t traceHash = 0;
    /** Order-sensitive hash over every read (bank, row, when, words). */
    std::uint64_t readHash = 0;

    bool clean() const { return violations.empty(); }

    /** "clean" or "oracle: detail; ..." (first few violations). */
    std::string summary() const;
};

/**
 * Upper bound on the trace events a program records (1 per command,
 * one per REF fired inside a WAITREF). The suite sizes the trace ring
 * with this so the timing and determinism oracles never silently lose
 * events to ring wraparound.
 */
std::size_t estimateTraceEvents(const Program &program,
                                const Timing &timing);

/** Run the full suite on one program. */
OracleReport runOracleSuite(const ModuleSpec &spec,
                            const Program &program,
                            const OracleConfig &cfg = {});

} // namespace utrr

#endif // UTRR_CHECK_ORACLES_HH
