#include "check/minimizer.hh"

#include <algorithm>
#include <numeric>
#include <vector>

#include "check/fuzzer.hh"

namespace utrr
{

namespace
{

Program
toProgram(const std::vector<Instr> &instrs)
{
    Program program;
    for (const Instr &instr : instrs)
        program.push(instr);
    return program;
}

} // namespace

DdminResult
ddminIndices(std::size_t count, const IndexPredicate &still_failing,
             MinimizeOptions options)
{
    DdminResult result;
    result.kept.resize(count);
    std::iota(result.kept.begin(), result.kept.end(), 0);
    if (count == 0)
        return result;

    ++result.evaluations;
    if (!still_failing(result.kept)) {
        // The full set does not fail: nothing to minimize.
        return result;
    }

    std::size_t granularity = 2;
    while (result.kept.size() >= 2) {
        if (result.evaluations >= options.maxEvaluations) {
            result.converged = false;
            break;
        }

        const std::size_t chunk = std::max<std::size_t>(
            1,
            (result.kept.size() + granularity - 1) / granularity);
        bool reduced = false;
        for (std::size_t start = 0; start < result.kept.size();
             start += chunk) {
            if (result.evaluations >= options.maxEvaluations) {
                result.converged = false;
                break;
            }
            std::vector<std::size_t> candidate;
            candidate.reserve(result.kept.size());
            for (std::size_t i = 0; i < result.kept.size(); ++i) {
                if (i < start || i >= start + chunk)
                    candidate.push_back(result.kept[i]);
            }
            if (candidate.empty())
                continue;
            ++result.evaluations;
            if (!still_failing(candidate))
                continue;
            result.kept = std::move(candidate);
            granularity = std::max<std::size_t>(granularity - 1, 2);
            reduced = true;
            break;
        }
        if (!result.converged)
            break;
        if (reduced)
            continue;
        if (chunk <= 1)
            break; // 1-minimal: no single deletion still fails
        granularity = std::min(granularity * 2, result.kept.size());
    }

    return result;
}

MinimizeResult
minimizeProgram(const ModuleSpec &spec, const Program &program,
                const ProgramPredicate &still_failing,
                MinimizeOptions options)
{
    MinimizeResult result;

    const auto repairOf = [&](const std::vector<Instr> &candidate) {
        return repairProgram(spec, toProgram(candidate));
    };

    std::vector<Instr> current = program.instructions();
    {
        Program repaired = repairOf(current);
        ++result.evaluations;
        if (!still_failing(repaired)) {
            // The input does not fail (or fails only through
            // instructions the repair pass removes): nothing to do.
            result.program = program;
            return result;
        }
        current = repaired.instructions();
        result.program = std::move(repaired);
    }

    // Each ddmin pass runs over the *repaired* base of the previous
    // pass: repair may rewrite instructions (insert a PRE, drop a
    // dangling ACT), so indices are only meaningful against the base
    // they were computed from. Iterate to a fixpoint.
    while (!current.empty()) {
        if (result.evaluations >= options.maxEvaluations) {
            result.converged = false;
            break;
        }
        MinimizeOptions inner = options;
        inner.maxEvaluations =
            options.maxEvaluations - result.evaluations;
        const DdminResult pass = ddminIndices(
            current.size(),
            [&](const std::vector<std::size_t> &kept) {
                std::vector<Instr> candidate;
                candidate.reserve(kept.size());
                for (const std::size_t i : kept)
                    candidate.push_back(current[i]);
                ++result.evaluations;
                return still_failing(repairOf(candidate));
            },
            inner);

        if (pass.kept.size() < current.size()) {
            std::vector<Instr> survivors;
            survivors.reserve(pass.kept.size());
            for (const std::size_t i : pass.kept)
                survivors.push_back(current[i]);
            Program repaired = repairOf(survivors);
            if (repaired.size() >= current.size()) {
                // Repair undid the shrink; the previous base stands.
                if (!pass.converged)
                    result.converged = false;
                break;
            }
            current = repaired.instructions();
            result.program = std::move(repaired);
            if (!pass.converged) {
                result.converged = false;
                break;
            }
            continue;
        }
        if (!pass.converged)
            result.converged = false;
        break; // 1-minimal: a full pass deleted nothing
    }

    return result;
}

} // namespace utrr
