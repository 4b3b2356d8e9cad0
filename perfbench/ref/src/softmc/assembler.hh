/**
 * @file
 * Text assembler for SoftMC programs.
 *
 * The real SoftMC exposes a small instruction set that test programs
 * are written in; this assembler provides the equivalent for the
 * simulated host, so experiments can be expressed as plain text files
 * (see examples/softmc_repl.cc) and captured command sequences can be
 * round-tripped.
 *
 * Grammar (one instruction per line, '#' starts a comment):
 *
 *   ACT <bank> <row>
 *   PRE <bank>
 *   WR <bank> <pattern>         pattern: ones|zeros|checker|invchecker|
 *                                         stripe|random:<seed>
 *   WRW <bank> <word> <value>   write one 64-bit word (value may be 0x hex)
 *   RD <bank>
 *   REF [count]
 *   WAIT <time>                 time: <n>ns | <n>us | <n>ms
 *   WAITREF <time>              wait while refreshing at the default rate
 *   WRITE <bank> <row> <pattern>   composite ACT+WR+PRE
 *   READ <bank> <row>              composite ACT+RD+PRE
 *   HAMMER <bank> <row> <count>    composite ACT+PRE cycles
 */

#ifndef UTRR_SOFTMC_ASSEMBLER_HH
#define UTRR_SOFTMC_ASSEMBLER_HH

#include <optional>
#include <string>

#include "softmc/command.hh"

namespace utrr
{

/** Result of assembling a program text. */
struct AssembleResult
{
    Program program;
    /** Empty on success; otherwise "line N: message". */
    std::string error;
    bool ok() const { return error.empty(); }
};

/** Assemble program text into a Program. */
AssembleResult assembleProgram(const std::string &text);

/** Parse a data-pattern token ("ones", "checker", "random:7", ...). */
std::optional<DataPattern> parsePatternToken(const std::string &token);

/** Render a Program back to assembler text (one instr per line). */
std::string disassembleProgram(const Program &program);

} // namespace utrr

#endif // UTRR_SOFTMC_ASSEMBLER_HH
