#include "softmc/command.hh"

#include "common/logging.hh"

namespace utrr
{

std::string
Instr::toString() const
{
    switch (op) {
      case Op::kAct:
        return logFmt("ACT b", bank, " r", row);
      case Op::kPre:
        return logFmt("PRE b", bank);
      case Op::kWr:
        return logFmt("WR b", bank, " ", pattern.name());
      case Op::kWrWord:
        return logFmt("WRW b", bank, " w", wordIdx);
      case Op::kRd:
        return logFmt("RD b", bank);
      case Op::kRef:
        return "REF";
      case Op::kWait:
        return logFmt("WAIT ", waitNs, "ns");
      case Op::kWaitRef:
        return logFmt("WAITREF ", waitNs, "ns");
    }
    return "?";
}

Program &
Program::act(Bank bank, Row row)
{
    Instr instr;
    instr.op = Op::kAct;
    instr.bank = bank;
    instr.row = row;
    instrs.push_back(instr);
    return *this;
}

Program &
Program::pre(Bank bank)
{
    Instr instr;
    instr.op = Op::kPre;
    instr.bank = bank;
    instrs.push_back(instr);
    return *this;
}

Program &
Program::wr(Bank bank, const DataPattern &pattern)
{
    Instr instr;
    instr.op = Op::kWr;
    instr.bank = bank;
    instr.pattern = pattern;
    instrs.push_back(instr);
    return *this;
}

Program &
Program::wrWord(Bank bank, int word_idx, std::uint64_t value)
{
    Instr instr;
    instr.op = Op::kWrWord;
    instr.bank = bank;
    instr.wordIdx = word_idx;
    instr.value = value;
    instrs.push_back(instr);
    return *this;
}

Program &
Program::rd(Bank bank)
{
    Instr instr;
    instr.op = Op::kRd;
    instr.bank = bank;
    instrs.push_back(instr);
    return *this;
}

Program &
Program::ref(int count)
{
    for (int i = 0; i < count; ++i) {
        Instr instr;
        instr.op = Op::kRef;
        instrs.push_back(instr);
    }
    return *this;
}

Program &
Program::wait(Time ns)
{
    Instr instr;
    instr.op = Op::kWait;
    instr.waitNs = ns;
    instrs.push_back(instr);
    return *this;
}

Program &
Program::waitWithRefresh(Time ns)
{
    Instr instr;
    instr.op = Op::kWaitRef;
    instr.waitNs = ns;
    instrs.push_back(instr);
    return *this;
}

Program &
Program::writeRow(Bank bank, Row row, const DataPattern &pattern)
{
    return act(bank, row).wr(bank, pattern).pre(bank);
}

Program &
Program::readRow(Bank bank, Row row)
{
    return act(bank, row).rd(bank).pre(bank);
}

Program &
Program::hammer(Bank bank, Row row, int count)
{
    for (int i = 0; i < count; ++i)
        act(bank, row).pre(bank);
    return *this;
}

Program &
Program::push(const Instr &instr)
{
    instrs.push_back(instr);
    return *this;
}

} // namespace utrr
