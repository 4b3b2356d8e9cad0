#include "softmc/assembler.hh"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <vector>

#include "common/logging.hh"

namespace utrr
{

namespace
{

std::string
upper(std::string text)
{
    std::transform(text.begin(), text.end(), text.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    return text;
}

std::string
lower(std::string text)
{
    std::transform(text.begin(), text.end(), text.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return text;
}

std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> tokens;
    std::istringstream iss(line);
    std::string token;
    while (iss >> token) {
        if (token[0] == '#')
            break;
        tokens.push_back(token);
    }
    return tokens;
}

/** Parse "<n>ns" / "<n>us" / "<n>ms" (also bare ns). */
std::optional<Time>
parseTime(const std::string &token)
{
    std::size_t digits = 0;
    while (digits < token.size() &&
           (std::isdigit(static_cast<unsigned char>(token[digits])) ||
            token[digits] == '.')) {
        ++digits;
    }
    if (digits == 0)
        return std::nullopt;
    const double value = std::stod(token.substr(0, digits));
    const std::string unit = lower(token.substr(digits));
    if (unit.empty() || unit == "ns")
        return static_cast<Time>(value);
    if (unit == "us")
        return static_cast<Time>(value * 1'000.0);
    if (unit == "ms")
        return msToNs(value);
    return std::nullopt;
}

std::optional<long>
parseInt(const std::string &token)
{
    try {
        std::size_t used = 0;
        const long value = std::stol(token, &used);
        if (used != token.size())
            return std::nullopt;
        return value;
    } catch (...) {
        return std::nullopt;
    }
}

/** Parse a 64-bit unsigned value; base 0 accepts 0x-prefixed hex. */
std::optional<std::uint64_t>
parseU64(const std::string &token)
{
    try {
        std::size_t used = 0;
        const std::uint64_t value = std::stoull(token, &used, 0);
        if (used != token.size())
            return std::nullopt;
        return value;
    } catch (...) {
        return std::nullopt;
    }
}

/** Pattern token for the disassembler; random carries its seed. */
std::string
patternToken(const DataPattern &pattern)
{
    switch (pattern.kind()) {
      case DataPattern::Kind::kAllOnes:
        return "ones";
      case DataPattern::Kind::kAllZeros:
        return "zeros";
      case DataPattern::Kind::kCheckerboard:
        return "checker";
      case DataPattern::Kind::kInvCheckerboard:
        return "invchecker";
      case DataPattern::Kind::kColStripe:
        return "stripe";
      case DataPattern::Kind::kRandom:
        return logFmt("random:", pattern.patternSeed());
    }
    return "?";
}

} // namespace

std::optional<DataPattern>
parsePatternToken(const std::string &token)
{
    const std::string name = lower(token);
    if (name == "ones" || name == "all-ones")
        return DataPattern::allOnes();
    if (name == "zeros" || name == "all-zeros")
        return DataPattern::allZeros();
    if (name == "checker" || name == "checkerboard")
        return DataPattern::checkerboard();
    if (name == "invchecker" || name == "inv-checkerboard")
        return DataPattern::invCheckerboard();
    if (name == "stripe" || name == "col-stripe")
        return DataPattern::colStripe();
    if (name.rfind("random:", 0) == 0) {
        const auto seed = parseU64(name.substr(7));
        if (!seed)
            return std::nullopt;
        return DataPattern::random(*seed);
    }
    return std::nullopt;
}

AssembleResult
assembleProgram(const std::string &text)
{
    AssembleResult result;
    std::istringstream stream(text);
    std::string line;
    int line_no = 0;

    auto fail = [&](const std::string &message) {
        result.error =
            logFmt("line ", line_no, ": ", message);
        return result;
    };

    while (std::getline(stream, line)) {
        ++line_no;
        const std::vector<std::string> tokens = tokenize(line);
        if (tokens.empty())
            continue;
        const std::string op = upper(tokens[0]);
        const std::size_t argc = tokens.size() - 1;

        auto arg_int = [&](std::size_t i) { return parseInt(tokens[i]); };

        if (op == "ACT") {
            if (argc != 2)
                return fail("ACT needs <bank> <row>");
            const auto bank = arg_int(1);
            const auto row = arg_int(2);
            if (!bank || !row)
                return fail("bad ACT operands");
            result.program.act(static_cast<Bank>(*bank),
                               static_cast<Row>(*row));
        } else if (op == "PRE") {
            if (argc != 1)
                return fail("PRE needs <bank>");
            const auto bank = arg_int(1);
            if (!bank)
                return fail("bad PRE operand");
            result.program.pre(static_cast<Bank>(*bank));
        } else if (op == "WR") {
            if (argc != 2)
                return fail("WR needs <bank> <pattern>");
            const auto bank = arg_int(1);
            const auto pattern = parsePatternToken(tokens[2]);
            if (!bank || !pattern)
                return fail("bad WR operands");
            result.program.wr(static_cast<Bank>(*bank), *pattern);
        } else if (op == "WRW") {
            if (argc != 3)
                return fail("WRW needs <bank> <word> <value>");
            const auto bank = arg_int(1);
            const auto word = arg_int(2);
            const auto value = parseU64(tokens[3]);
            if (!bank || !word || *word < 0 || !value)
                return fail("bad WRW operands");
            result.program.wrWord(static_cast<Bank>(*bank),
                                  static_cast<int>(*word), *value);
        } else if (op == "RD") {
            if (argc != 1)
                return fail("RD needs <bank>");
            const auto bank = arg_int(1);
            if (!bank)
                return fail("bad RD operand");
            result.program.rd(static_cast<Bank>(*bank));
        } else if (op == "REF") {
            if (argc > 1)
                return fail("REF takes at most a count");
            long count = 1;
            if (argc == 1) {
                const auto parsed = arg_int(1);
                if (!parsed || *parsed < 1)
                    return fail("bad REF count");
                count = *parsed;
            }
            result.program.ref(static_cast<int>(count));
        } else if (op == "WAIT" || op == "WAITREF") {
            if (argc != 1)
                return fail(op + " needs a duration");
            const auto duration = parseTime(tokens[1]);
            if (!duration)
                return fail("bad duration '" + tokens[1] +
                            "' (use ns/us/ms)");
            if (op == "WAIT")
                result.program.wait(*duration);
            else
                result.program.waitWithRefresh(*duration);
        } else if (op == "WRITE") {
            if (argc != 3)
                return fail("WRITE needs <bank> <row> <pattern>");
            const auto bank = arg_int(1);
            const auto row = arg_int(2);
            const auto pattern = parsePatternToken(tokens[3]);
            if (!bank || !row || !pattern)
                return fail("bad WRITE operands");
            result.program.writeRow(static_cast<Bank>(*bank),
                                    static_cast<Row>(*row), *pattern);
        } else if (op == "READ") {
            if (argc != 2)
                return fail("READ needs <bank> <row>");
            const auto bank = arg_int(1);
            const auto row = arg_int(2);
            if (!bank || !row)
                return fail("bad READ operands");
            result.program.readRow(static_cast<Bank>(*bank),
                                   static_cast<Row>(*row));
        } else if (op == "HAMMER") {
            if (argc != 3)
                return fail("HAMMER needs <bank> <row> <count>");
            const auto bank = arg_int(1);
            const auto row = arg_int(2);
            const auto count = arg_int(3);
            if (!bank || !row || !count || *count < 0)
                return fail("bad HAMMER operands");
            result.program.hammer(static_cast<Bank>(*bank),
                                  static_cast<Row>(*row),
                                  static_cast<int>(*count));
        } else {
            return fail("unknown instruction '" + tokens[0] + "'");
        }
    }
    return result;
}

std::string
disassembleProgram(const Program &program)
{
    std::ostringstream oss;
    for (const Instr &instr : program.instructions()) {
        switch (instr.op) {
          case Op::kAct:
            oss << "ACT " << instr.bank << " " << instr.row << "\n";
            break;
          case Op::kPre:
            oss << "PRE " << instr.bank << "\n";
            break;
          case Op::kWr:
            oss << "WR " << instr.bank << " "
                << patternToken(instr.pattern) << "\n";
            break;
          case Op::kWrWord:
            oss << "WRW " << instr.bank << " " << instr.wordIdx << " 0x"
                << std::hex << instr.value << std::dec << "\n";
            break;
          case Op::kRd:
            oss << "RD " << instr.bank << "\n";
            break;
          case Op::kRef:
            oss << "REF\n";
            break;
          case Op::kWait:
            oss << "WAIT " << instr.waitNs << "ns\n";
            break;
          case Op::kWaitRef:
            oss << "WAITREF " << instr.waitNs << "ns\n";
            break;
        }
    }
    return oss.str();
}

} // namespace utrr
