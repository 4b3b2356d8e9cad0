/**
 * @file
 * Protocol-valid DDR command-program fuzzer.
 *
 * ProgramFuzzer generates randomized but *statically valid* SoftMC
 * programs: ACT only to a precharged bank, WR/WRW/RD only to an open
 * bank, REF/WAITREF only with every bank precharged, all addresses in
 * range. Validity matters because the simulator enforces the protocol
 * with UTRR_ASSERT (an invalid program aborts the process, which is a
 * crash, not an oracle verdict).
 *
 * Generation is fully deterministic: program i of seed s is drawn from
 * Rng(s).fork("fuzz").fork(i), so any program can be regenerated from
 * its (seed, index) coordinates alone — that pair is what fuzz findings
 * and corpus entries record.
 */

#ifndef UTRR_CHECK_FUZZER_HH
#define UTRR_CHECK_FUZZER_HH

#include <cstdint>
#include <string>

#include "dram/module_spec.hh"
#include "softmc/command.hh"

namespace utrr
{

/**
 * Shape of the generated programs. Defaults aim for dense physical
 * interaction: all activity lands in a narrow row window so hammering,
 * disturb coupling, regular-refresh sweeps and TRR victim refreshes all
 * touch the same handful of rows within one program.
 */
struct FuzzConfig
{
    /** Rows written up front (these and their neighbours are read back
     *  at the end). */
    int setupRows = 6;

    /** Body length, drawn uniformly from [minOps, maxOps]. */
    int minOps = 12;
    int maxOps = 48;

    /** Banks used, capped by the module's bank count. */
    Bank maxBanks = 4;

    /** Width of the logical row window all activity lands in. */
    Row rowSpan = 24;

    /** Per-op hammer burst length range. */
    int hammerMin = 50;
    int hammerMax = 3'000;

    /** Max REFs issued back to back by one body op. */
    int refBurstMax = 8;

    /** Plain WAIT duration cap (refresh paused). */
    Time waitMaxNs = 20 * kNsPerMs;

    /** Normal WAITREF duration cap. */
    Time waitRefMaxNs = 120 * kNsPerMs;

    /**
     * Chance that a WAITREF op instead waits a *long* window (up to
     * longWaitRefNs), long enough for retention-weak rows to decay if a
     * refresh mechanism fails to cover them. These are the windows that
     * expose refresh-sweep bugs (e.g. the UTRR_MUTATION off-by-one).
     */
    double longWaitChance = 0.2;
    Time longWaitRefNs = 700 * kNsPerMs;

    /** Cap on epilogue read-back rows (written rows + neighbours). */
    int maxEpilogueReads = 32;
};

/**
 * The generator. Stateless per program; safe to share across campaign
 * workers.
 */
class ProgramFuzzer
{
  public:
    explicit ProgramFuzzer(const ModuleSpec &spec, FuzzConfig cfg = {});

    /** Generate program @p index of stream @p seed. */
    Program generate(std::uint64_t seed, std::uint64_t index) const;

    const FuzzConfig &config() const { return cfg; }

  private:
    ModuleSpec spec;
    FuzzConfig cfg;
};

/**
 * Statically validate a program against the protocol the simulator
 * asserts: open/closed bank discipline and address ranges. Returns ""
 * when valid, else "instr N: message" for the first offence.
 */
std::string validateProgram(const ModuleSpec &spec,
                            const Program &program);

/**
 * Drop every instruction that would violate the protocol given the
 * bank state produced by the instructions kept so far. Deletion-closed
 * repair: any subsequence of a valid program repairs to a valid
 * program, which is what lets the delta-debugging minimizer delete
 * arbitrary chunks.
 */
Program repairProgram(const ModuleSpec &spec, const Program &program);

} // namespace utrr

#endif // UTRR_CHECK_FUZZER_HH
