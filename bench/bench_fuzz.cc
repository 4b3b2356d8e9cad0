/**
 * @file
 * Fuzz-harness micro-benchmarks (google-benchmark): program
 * generation, full oracle-suite checks, and delta-debugging
 * minimization. These bound what a CI fuzz-smoke budget buys — the
 * ~60 s smoke job must fit >= 500 programs, which puts a ceiling of
 * ~100 ms on one generate + oracle-suite round trip.
 */

#include <benchmark/benchmark.h>

#include "check/fuzzer.hh"
#include "check/minimizer.hh"
#include "check/oracles.hh"
#include "dram/module_spec.hh"

namespace
{

using namespace utrr;

void
BM_GenerateProgram(benchmark::State &state)
{
    const ModuleSpec spec = *findModuleSpec("A0");
    const ProgramFuzzer fuzzer(spec);
    std::uint64_t index = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(fuzzer.generate(1, index++));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GenerateProgram);

void
BM_OracleSuite(benchmark::State &state)
{
    // One full check: production execution (traced) + reference
    // execution + the five oracles, including the second production
    // run of the determinism oracle and the opposite-tier run of the
    // execution oracle.
    const ModuleSpec spec = *findModuleSpec("A0");
    const ProgramFuzzer fuzzer(spec);
    const Program program = fuzzer.generate(1, 0);
    for (auto _ : state)
        benchmark::DoNotOptimize(runOracleSuite(spec, program));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OracleSuite);

void
BM_MinimizeSyntheticFailure(benchmark::State &state)
{
    // Minimize against a cheap predicate to isolate ddmin + protocol
    // repair cost from oracle cost.
    const ModuleSpec spec = *findModuleSpec("A0");
    const ProgramFuzzer fuzzer(spec);
    const Program program = fuzzer.generate(2, 1);
    const auto has_wait = [](const Program &candidate) {
        for (const Instr &instr : candidate.instructions())
            if (instr.op == Op::kWait)
                return true;
        return false;
    };
    for (auto _ : state)
        benchmark::DoNotOptimize(
            minimizeProgram(spec, program, has_wait));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MinimizeSyntheticFailure);

} // namespace

BENCHMARK_MAIN();
