/**
 * @file
 * DDR command-level instruction set of the SoftMC-like host.
 *
 * U-TRR requires issuing individual DDR commands at precisely controlled
 * times (paper §3.3). A Program is a recorded sequence of such commands
 * plus explicit waits; the Host executes it against a DramModule while
 * advancing a simulated nanosecond clock according to DDR4 timing.
 */

#ifndef UTRR_SOFTMC_COMMAND_HH
#define UTRR_SOFTMC_COMMAND_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "dram/data_pattern.hh"

namespace utrr
{

/** DDR command / host directive opcodes. */
enum class Op
{
    kAct,     // activate <bank, row>
    kPre,     // precharge <bank>
    kWr,      // write whole-row pattern into the open row of <bank>
    kWrWord,  // write one 64-bit word
    kRd,      // read the open row of <bank>, capturing a readout
    kRef,     // refresh command
    kWait,    // advance time without issuing commands (refresh paused)
    kWaitRef, // advance time while issuing REF every tREFI
};

/** One instruction of a SoftMC program. */
struct Instr
{
    Op op = Op::kWait;
    Bank bank = 0;
    Row row = kInvalidRow;
    DataPattern pattern{};
    int wordIdx = 0;
    std::uint64_t value = 0;
    Time waitNs = 0;

    std::string toString() const;
};

/**
 * A recorded DDR command sequence.
 */
class Program
{
  public:
    Program &act(Bank bank, Row row);
    Program &pre(Bank bank);
    Program &wr(Bank bank, const DataPattern &pattern);
    Program &wrWord(Bank bank, int word_idx, std::uint64_t value);
    Program &rd(Bank bank);
    Program &ref(int count = 1);
    Program &wait(Time ns);
    Program &waitWithRefresh(Time ns);

    /** Composite: ACT + WR + PRE. */
    Program &writeRow(Bank bank, Row row, const DataPattern &pattern);

    /** Composite: ACT + RD + PRE. */
    Program &readRow(Bank bank, Row row);

    /** Composite: `count` ACT+PRE hammers of one row. */
    Program &hammer(Bank bank, Row row, int count);

    /** Append an already-built instruction (program surgery: fuzzing
     *  mutators, delta-debugging minimizers). */
    Program &push(const Instr &instr);

    const std::vector<Instr> &instructions() const { return instrs; }
    std::size_t size() const { return instrs.size(); }

  private:
    std::vector<Instr> instrs;
};

} // namespace utrr

#endif // UTRR_SOFTMC_COMMAND_HH
