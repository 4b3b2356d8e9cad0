/**
 * @file
 * Delta-debugging minimizer for violating fuzz programs.
 *
 * Classic ddmin over the instruction list: repeatedly delete chunks of
 * instructions (halving granularity as deletions stop succeeding) while
 * the caller's predicate still reports the violation. Every candidate
 * subsequence is passed through repairProgram first, so candidates are
 * always protocol-valid and executable — deleting a PRE cannot produce
 * a program that aborts the process on an ACT-to-open-bank assert.
 *
 * The result is a 1-minimal repro: removing any single remaining
 * instruction (after repair) makes the violation disappear.
 */

#ifndef UTRR_CHECK_MINIMIZER_HH
#define UTRR_CHECK_MINIMIZER_HH

#include <cstddef>
#include <functional>

#include "dram/module_spec.hh"
#include "softmc/command.hh"

namespace utrr
{

/** Returns true while the candidate still exhibits the violation. */
using ProgramPredicate = std::function<bool(const Program &)>;

struct MinimizeOptions
{
    /** Abort minimization after this many predicate evaluations. */
    std::size_t maxEvaluations = 2'000;
};

/**
 * Generic ddmin over an index set [0, count). The predicate receives
 * the sorted kept-index subset and returns true while that subset
 * still exhibits the property being minimized. This is the engine
 * minimizeProgram runs on; the pattern synthesizer reuses it to drop
 * whole pattern *elements* instead of program lines.
 */
using IndexPredicate =
    std::function<bool(const std::vector<std::size_t> &kept)>;

struct DdminResult
{
    /** 1-minimal surviving subset (sorted ascending). */
    std::vector<std::size_t> kept;
    /** Predicate evaluations spent (the initial check included). */
    std::size_t evaluations = 0;
    /** False when maxEvaluations stopped the search early. */
    bool converged = true;
};

/**
 * Shrink the index set [0, @p count) while @p still_failing holds.
 * The predicate must hold for the full set; if it does not, the full
 * set is returned unchanged (with converged = true).
 */
DdminResult ddminIndices(std::size_t count,
                         const IndexPredicate &still_failing,
                         MinimizeOptions options = {});

struct MinimizeResult
{
    /** The minimized (repaired, still-violating) program. */
    Program program;
    /** Predicate evaluations spent. */
    std::size_t evaluations = 0;
    /** False when maxEvaluations stopped the search early. */
    bool converged = true;
};

/**
 * Shrink @p program while @p still_failing holds. The predicate must
 * be true for (the repaired form of) @p program itself; if it is not,
 * the input is returned unchanged.
 */
MinimizeResult minimizeProgram(const ModuleSpec &spec,
                               const Program &program,
                               const ProgramPredicate &still_failing,
                               MinimizeOptions options = {});

} // namespace utrr

#endif // UTRR_CHECK_MINIMIZER_HH
