/**
 * @file
 * Program pre-compilation: lower a softmc::Program into a pre-resolved
 * op stream (DESIGN.md §17).
 *
 * The interpreter dispatches one DDR command at a time; most recorded
 * programs are dominated by a handful of shapes — hammer loops
 * (ACT+PRE pairs), whole-row accesses (ACT/WR/PRE, ACT/RD/PRE) and REF
 * runs. The compiler recognizes those shapes once, ahead of execution,
 * and emits compact batch ops carrying a repeat count, so the executor
 * makes one dispatch per batch and the DRAM substrate can apply a whole
 * hammer burst as the one-aggressor round robin of
 * DramModule::actInterleavedBurst instead of one ACT at a time.
 * Compilation never changes behaviour: the op stream replays the exact
 * command sequence, and SoftMcHost falls back to the interpreter
 * whenever a collaborator (mitigation, fault injector) needs
 * per-command hooks.
 */

#ifndef UTRR_SOFTMC_COMPILER_HH
#define UTRR_SOFTMC_COMPILER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "dram/data_pattern.hh"
#include "softmc/command.hh"

namespace utrr
{

/** Opcodes of the compiled tier. The first four are fused batches. */
enum class CompiledOpKind : std::uint8_t
{
    kHammer,   // `count` ACT+PRE cycles of (bank, row)
    kWriteRow, // ACT + whole-row WR + PRE
    kReadRow,  // ACT + RD capture + PRE
    kRefBurst, // `count` back-to-back REFs
    // Pass-through ops for everything the compiler leaves alone.
    kAct,
    kPre,
    kWr,
    kWrWord,
    kRd,
    kWait,
    kWaitRef,
};

/**
 * One compiled op. Kept flat and small (patterns live interned in the
 * CompiledProgram pool) so the executor's dispatch loop walks a dense
 * array instead of fat Instr records.
 */
struct CompiledOp
{
    CompiledOpKind kind = CompiledOpKind::kWait;
    Bank bank = 0;
    Row row = kInvalidRow;
    /** Repeat count for kHammer / kRefBurst. */
    int count = 0;
    /** Index into CompiledProgram::patterns for kWriteRow / kWr. */
    int patternIdx = -1;
    int wordIdx = 0;
    std::uint64_t value = 0;
    Time waitNs = 0;
};

/** A lowered program: dense op stream plus the interned pattern pool. */
struct CompiledProgram
{
    std::vector<CompiledOp> ops;
    std::vector<DataPattern> patterns;
    /** Instruction count of the source program. */
    std::size_t sourceSize = 0;
    /** RD captures the stream will produce (read-vector reserve). */
    std::size_t readCount = 0;
};

/**
 * Lowers validated programs into compiled op streams. Stateless; the
 * compile is a pure function of the program.
 */
class ProgramCompiler
{
  public:
    static CompiledProgram compile(const Program &program);
};

} // namespace utrr

#endif // UTRR_SOFTMC_COMPILER_HH
