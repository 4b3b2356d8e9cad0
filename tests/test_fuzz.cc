/**
 * @file
 * Differential fuzzing harness tests: generator validity and
 * determinism, assembler round-trips of generated programs,
 * oracle-clean sweeps across vendors, minimizer properties,
 * serial-vs-parallel campaign equivalence, the compiled/interpreted
 * tier-equivalence property at random snapshot boundaries, and the
 * mutation sanity checks (the oracle suite must catch the
 * compile-time-flagged off-by-one refresh and hammer-fusion bugs
 * within a bounded number of programs).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "check/fuzz_campaign.hh"
#include "common/rng.hh"
#include "check/fuzzer.hh"
#include "check/minimizer.hh"
#include "check/oracles.hh"
#include "core/sim_backend.hh"
#include "dram/module.hh"
#include "dram/module_spec.hh"
#include "softmc/assembler.hh"
#include "softmc/host.hh"

namespace utrr
{
namespace
{

std::string
instrDump(const Program &program)
{
    std::string out;
    for (const Instr &instr : program.instructions())
        out += instr.toString() + "\n";
    return out;
}

TEST(Fuzzer, GeneratedProgramsAreProtocolValid)
{
    // The generator must never need the repair pass: every program is
    // statically valid against the bank open/close protocol.
    const ModuleSpec spec = *findModuleSpec("A0");
    const ProgramFuzzer fuzzer(spec);
    for (std::uint64_t i = 0; i < 200; ++i) {
        const Program program = fuzzer.generate(42, i);
        EXPECT_GE(program.size(), 4U);
        const std::string error = validateProgram(spec, program);
        ASSERT_TRUE(error.empty()) << "program " << i << ": " << error;
    }
}

TEST(Fuzzer, SameSeedSameProgramDifferentSeedDifferent)
{
    const ModuleSpec spec = *findModuleSpec("B0");
    const ProgramFuzzer fuzzer(spec);
    const Program a = fuzzer.generate(1, 7);
    const Program b = fuzzer.generate(1, 7);
    ASSERT_EQ(instrDump(a), instrDump(b));

    // Different index or seed must decorrelate the stream.
    EXPECT_NE(instrDump(a), instrDump(fuzzer.generate(1, 8)));
    EXPECT_NE(instrDump(a), instrDump(fuzzer.generate(2, 7)));
}

TEST(Fuzzer, GeneratedProgramsSurviveAssemblerRoundTrip)
{
    // Corpus entries are stored as assembler text, so disassemble ->
    // assemble must be lossless for anything the generator emits
    // (including random:<seed> data patterns and WRWORD).
    const ModuleSpec spec = *findModuleSpec("C0");
    const ProgramFuzzer fuzzer(spec);
    for (std::uint64_t i = 0; i < 25; ++i) {
        const Program program = fuzzer.generate(3, i);
        const std::string text = disassembleProgram(program);
        const AssembleResult back = assembleProgram(text);
        ASSERT_TRUE(back.ok()) << back.error;
        ASSERT_EQ(instrDump(program), instrDump(back.program))
            << "program " << i;
    }
}

TEST(Fuzzer, RepairProducesValidPrograms)
{
    // repairProgram is the minimizer's protocol-repair step: dropping
    // arbitrary instruction subsets then repairing must always yield a
    // valid program.
    const ModuleSpec spec = *findModuleSpec("A0");
    const ProgramFuzzer fuzzer(spec);
    Rng rng(99);
    for (std::uint64_t i = 0; i < 40; ++i) {
        const Program program = fuzzer.generate(11, i);
        Program mangled;
        for (const Instr &instr : program.instructions())
            if (rng.chance(0.6))
                mangled.push(instr);
        const Program repaired = repairProgram(spec, mangled);
        const std::string error = validateProgram(spec, repaired);
        ASSERT_TRUE(error.empty()) << "program " << i << ": " << error;
    }
}

TEST(Oracles, CleanSweepAcrossVendors)
{
    // The core zero-violation contract on a clean tree, over one module
    // of each vendor (distinct TRR samplers).
    for (const char *name : {"A0", "B0", "C0"}) {
        const ModuleSpec spec = *findModuleSpec(name);
        FuzzCampaignOptions options;
        options.count = 8;
        options.fuzzSeed = 2024;
        const FuzzCampaignResult result = runFuzzCampaign(spec, options);
        EXPECT_TRUE(result.clean())
            << name << ": " << result.violating << " violating, first: "
            << (result.findings.empty() ? "?"
                                        : result.findings[0].detail);
    }
}

TEST(Oracles, ReportsHashesAndReads)
{
    const ModuleSpec spec = *findModuleSpec("A0");
    const ProgramFuzzer fuzzer(spec);
    const Program program = fuzzer.generate(5, 0);
    const OracleReport report = runOracleSuite(spec, program);
    EXPECT_TRUE(report.clean()) << report.summary();
    EXPECT_GT(report.reads, 0U);
    EXPECT_NE(report.traceHash, 0U);
    EXPECT_NE(report.readHash, 0U);
    EXPECT_GT(report.endTime, 0);

    // Same program, same seed: the report is reproducible.
    const OracleReport again = runOracleSuite(spec, program);
    EXPECT_EQ(report.traceHash, again.traceHash);
    EXPECT_EQ(report.readHash, again.readHash);
    EXPECT_EQ(report.endTime, again.endTime);
}

/**
 * Fixed-seed fuzz round for the restoreCharge fast path: the row's
 * minimum-retention cache must be recomputed on every scaleRetention /
 * scaleAllRetention call, so reaching the same effective scale through
 * different step sequences (0.5 vs 0.25 * 2.0 — exact in binary
 * floating point) must be bit-identical, including for rows that are
 * already mid-decay when the scale changes and for rows materialized
 * after it. A stale cache would either skip a due commit (flips
 * missing) or take the slow path with a mismatched VRT draw count.
 */
TEST(Fuzzer, RetentionScaleInvalidationIsPathIndependent)
{
    const ModuleSpec spec = *findModuleSpec("A0");
    const ProgramFuzzer fuzzer(spec);

    const auto run = [&](std::uint64_t seed,
                         const std::vector<double> &steps,
                         const Program &program) {
        DramModule module(spec, seed);
        SoftMcHost host(module);
        // Materialize rows and let them run mid-decay before scaling.
        for (Row row = 0; row < 32; ++row)
            host.writeRow(0, row, DataPattern::checkerboard());
        host.wait(msToNs(150));
        for (double step : steps)
            module.scaleAllRetention(step);
        ExecResult result = host.execute(program);
        for (Row row = 0; row < 32; ++row)
            result.reads.push_back(
                ReadRecord{0, row, host.now(), host.readRow(0, row)});
        return result;
    };

    for (std::uint64_t i = 0; i < 6; ++i) {
        SCOPED_TRACE("program " + std::to_string(i));
        const Program program = fuzzer.generate(4242, i);
        const ExecResult one = run(900 + i, {0.5}, program);
        const ExecResult two = run(900 + i, {0.25, 2.0}, program);

        ASSERT_EQ(one.reads.size(), two.reads.size());
        ASSERT_EQ(one.endTime, two.endTime);
        for (std::size_t r = 0; r < one.reads.size(); ++r) {
            SCOPED_TRACE("read " + std::to_string(r));
            const RowReadout &a = one.reads[r].readout;
            const RowReadout &b = two.reads[r].readout;
            ASSERT_EQ(one.reads[r].row, two.reads[r].row);
            ASSERT_EQ(a.words(), b.words());
            for (int w = 0; w < a.words(); ++w)
                ASSERT_EQ(a.word(w), b.word(w)) << "word " << w;
        }
    }
}

/**
 * Compiled/interpreted equivalence property (DESIGN.md §17): any fuzz
 * program, split at a random instruction boundary with a snapshot in
 * between, replays bit-identically whichever execution tier runs each
 * half — including restoring a snapshot taken under one tier and
 * resuming the suffix under the other. This pins that snapshots are
 * tier-agnostic and that fusion never leaks state across execute()
 * boundaries.
 */
TEST(Oracles, ExecutionTiersEquivalentAtRandomBoundaries)
{
    const ModuleSpec spec = *findModuleSpec("C0");
    const ProgramFuzzer fuzzer(spec);
    Rng rng(777);
    for (std::uint64_t i = 0; i < 10; ++i) {
        SCOPED_TRACE("program " + std::to_string(i));
        const Program program = fuzzer.generate(31337, i);
        const auto &instrs = program.instructions();
        const std::size_t cut = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(instrs.size())));
        Program prefix;
        Program suffix;
        for (std::size_t k = 0; k < instrs.size(); ++k)
            (k < cut ? prefix : suffix).push(instrs[k]);

        SimBackend compiled(spec, 2021);
        SimBackend interp(spec, 2021);
        compiled.setExecMode(ExecMode::kCompiled);
        interp.setExecMode(ExecMode::kInterpreted);

        const BackendResult pa = compiled.execute(prefix);
        const BackendResult pb = interp.execute(prefix);
        EXPECT_EQ(hashBackendReads(pa), hashBackendReads(pb));
        ASSERT_EQ(pa.endTime, pb.endTime);

        const std::uint64_t ta = compiled.snapshot();
        const std::uint64_t tb = interp.snapshot();
        const BackendResult sa = compiled.execute(suffix);
        const BackendResult sb = interp.execute(suffix);
        EXPECT_EQ(hashBackendReads(sa), hashBackendReads(sb));
        ASSERT_EQ(sa.endTime, sb.endTime);

        // Cross over: resume each snapshot under the opposite tier.
        compiled.restore(ta);
        interp.restore(tb);
        compiled.setExecMode(ExecMode::kInterpreted);
        interp.setExecMode(ExecMode::kCompiled);
        const BackendResult ra = compiled.execute(suffix);
        const BackendResult rb = interp.execute(suffix);
        EXPECT_EQ(hashBackendReads(ra), hashBackendReads(sa));
        EXPECT_EQ(hashBackendReads(rb), hashBackendReads(sb));
        EXPECT_EQ(ra.endTime, sa.endTime);
        EXPECT_EQ(rb.endTime, sb.endTime);
    }
}

TEST(Campaign, VerdictsIdenticalForAnyJobCount)
{
    // The campaign's verdict dump is the byte-equality surface: jobs=1
    // and jobs=4 must produce identical bytes.
    const ModuleSpec spec = *findModuleSpec("B0");
    FuzzCampaignOptions options;
    options.count = 10;
    options.fuzzSeed = 77;

    options.jobs = 1;
    const FuzzCampaignResult serial = runFuzzCampaign(spec, options);
    options.jobs = 4;
    const FuzzCampaignResult parallel = runFuzzCampaign(spec, options);

    EXPECT_TRUE(serial.clean());
    EXPECT_EQ(serial.campaign.verdicts().dump(2),
              parallel.campaign.verdicts().dump(2));
}

TEST(Minimizer, PreservesFailureAndShrinks)
{
    // Synthetic predicate: "program still contains a WAIT longer than
    // 1 ms". ddmin must shrink a fuzzer program to exactly one
    // instruction satisfying it, through protocol repair.
    const ModuleSpec spec = *findModuleSpec("A0");
    FuzzConfig config;
    config.longWaitChance = 0.5;
    const ProgramFuzzer fuzzer(spec, config);

    const auto has_long_wait = [](const Program &program) {
        for (const Instr &instr : program.instructions())
            if (instr.op == Op::kWait && instr.waitNs > msToNs(1))
                return true;
        return false;
    };

    int shrunk = 0;
    for (std::uint64_t i = 0; i < 20 && shrunk < 3; ++i) {
        const Program program = fuzzer.generate(8, i);
        if (!has_long_wait(program))
            continue;
        ++shrunk;
        const MinimizeResult result =
            minimizeProgram(spec, program, has_long_wait);
        EXPECT_TRUE(result.converged);
        EXPECT_TRUE(has_long_wait(result.program));
        EXPECT_LE(result.program.size(), 2U)
            << instrDump(result.program);
        EXPECT_TRUE(validateProgram(spec, result.program).empty());
    }
    ASSERT_EQ(shrunk, 3) << "fuzz config produced too few long waits";
}

TEST(Minimizer, ReturnsInputWhenPredicateNeverFails)
{
    const ModuleSpec spec = *findModuleSpec("A0");
    const ProgramFuzzer fuzzer(spec);
    const Program program = fuzzer.generate(1, 0);
    const MinimizeResult result = minimizeProgram(
        spec, program, [](const Program &) { return false; });
    EXPECT_EQ(instrDump(result.program), instrDump(program));
}

/**
 * Mutation sanity: with UTRR_MUTATION the refresh engine skips the
 * first row of every sweep chunk, and the oracle suite must notice
 * within a bounded fixed-seed sweep — crucially including the
 * black-box differential oracle (retention flips surviving in rows the
 * mutant failed to refresh), not just the white-box accounting one.
 * Without the mutation the identical sweep must be clean, proving the
 * detection is caused by the injected bug.
 */
TEST(MutationSanity, DifferentialOracleCatchesRefreshOffByOne)
{
    const ModuleSpec spec = *findModuleSpec("A0");
    FuzzCampaignOptions options;
    options.count = 20;
    options.fuzzSeed = 1;
    options.fuzz.longWaitChance = 1.0; // decay windows expose refresh
    options.minimize = false;          // bounded runtime
    options.maxFindings = 20;

    const FuzzCampaignResult result = runFuzzCampaign(spec, options);

#ifdef UTRR_MUTATION_REFRESH_OFF_BY_ONE
    ASSERT_FALSE(result.clean())
        << "oracle suite missed the injected refresh bug";
    // Collect every oracle that fired, not just each finding's front
    // violation: UTRR_MUTATION also plants the hammer-run fusion bug of
    // SoftMcHost::execute, which makes the (compiled) production run
    // diverge from the reference on nearly every program, so
    // "differential" fronts the findings and would crowd "accounting"
    // out of a front-only view.
    std::set<std::string> oracles;
    for (const FuzzFinding &finding : result.findings)
        oracles.insert(finding.oracles.begin(), finding.oracles.end());
    EXPECT_TRUE(oracles.count("differential"))
        << "no black-box differential catch in " << result.violating
        << " violating programs";
    EXPECT_TRUE(oracles.count("accounting"));
#else
    EXPECT_TRUE(result.clean())
        << result.violating << " violating on a clean tree, first: "
        << (result.findings.empty() ? "?" : result.findings[0].detail);
#endif
}

/**
 * Mutation sanity for the compiled tier: UTRR_MUTATION additionally
 * plants an off-by-one in SoftMcHost::execute's hammer-run fusion (a
 * run of N > 1 ACT+PRE pairs hands hammer() N-1 cycles and skips all
 * N). Both tiers share the refresh mutation, so a compiled-vs-
 * interpreted comparison cancels that bug out — the execution oracle
 * is what isolates the fusion one: the interpreted rerun hammers one
 * more time per run, so end time, command trace and ACT accounting all
 * diverge. Without the mutation the identical program must be clean
 * across every oracle.
 */
TEST(MutationSanity, ExecutionOracleCatchesFusionOffByOne)
{
    const ModuleSpec spec = *findModuleSpec("A0");
    Program program;
    program.writeRow(0, 500, DataPattern::allOnes());
    program.writeRow(0, 499, DataPattern::allZeros());
    program.writeRow(0, 501, DataPattern::allZeros());
    program.hammer(0, 499, 8'000).hammer(0, 501, 8'000);
    program.ref(8).readRow(0, 500);

    const OracleReport report = runOracleSuite(spec, program);

#ifdef UTRR_MUTATION_FUSION_OFF_BY_ONE
    bool execution_caught = false;
    for (const OracleViolation &v : report.violations)
        execution_caught = execution_caught || v.oracle == "execution";
    EXPECT_TRUE(execution_caught)
        << "execution oracle missed the planted fusion bug: "
        << report.summary();
#else
    EXPECT_TRUE(report.clean()) << report.summary();
#endif
}

/**
 * Mutation sanity for the cached coupling word: UTRR_MUTATION also
 * plants a RowState word write that leaves the row's cached word 0
 * stale. The fuzzer writes word 0 in about one of 1,024 word writes,
 * so the fixed-seed sweeps miss it; this program aims at it. Both
 * aggressors store the victim's all-ones except word 0, rewritten to
 * zeros: the simulator must weigh them as inverse-data aggressors, the
 * mutant as same-data ones, so the victim collects less charge than
 * the reference model's and its read-back differs. Without the
 * mutation the identical program must be clean across every oracle.
 */
TEST(MutationSanity, DifferentialOracleCatchesStaleCouplingWord)
{
    const ModuleSpec spec = *findModuleSpec("A0");
    Program program;
    program.writeRow(0, 500, DataPattern::allOnes());
    program.writeRow(0, 499, DataPattern::allOnes());
    program.writeRow(0, 501, DataPattern::allOnes());
    program.act(0, 499).wrWord(0, 0, 0).pre(0);
    program.act(0, 501).wrWord(0, 0, 0).pre(0);
    program.hammer(0, 499, 80'000).hammer(0, 501, 80'000);
    program.readRow(0, 500);

    const OracleReport report = runOracleSuite(spec, program);

#ifdef UTRR_MUTATION_STALE_COUPLING_WORD
    bool differential_caught = false;
    for (const OracleViolation &v : report.violations)
        differential_caught =
            differential_caught || v.oracle == "differential";
    EXPECT_TRUE(differential_caught)
        << "differential oracle missed the stale coupling word: "
        << report.summary();
#else
    EXPECT_TRUE(report.clean()) << report.summary();
#endif
}

} // namespace
} // namespace utrr
