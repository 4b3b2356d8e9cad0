#include "check/fuzzer.hh"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "dram/timing.hh"

namespace utrr
{

namespace
{

DataPattern
randomPattern(Rng &rng)
{
    switch (rng.uniformInt(0, 5)) {
      case 0:
        return DataPattern::allOnes();
      case 1:
        return DataPattern::allZeros();
      case 2:
        return DataPattern::checkerboard();
      case 3:
        return DataPattern::invCheckerboard();
      case 4:
        return DataPattern::colStripe();
      default:
        return DataPattern::random(rng.next());
    }
}

/** Body op kinds with their selection weights. */
enum class FuzzOp
{
    kAct,
    kPre,
    kRd,
    kWr,
    kWrWord,
    kHammer,
    kRef,
    kWait,
    kWaitRef,
};

constexpr std::pair<FuzzOp, int> kOpWeights[] = {
    {FuzzOp::kAct, 20},   {FuzzOp::kPre, 15},  {FuzzOp::kRd, 12},
    {FuzzOp::kWr, 8},     {FuzzOp::kWrWord, 6}, {FuzzOp::kHammer, 10},
    {FuzzOp::kRef, 8},    {FuzzOp::kWait, 6},  {FuzzOp::kWaitRef, 8},
};

FuzzOp
pickOp(Rng &rng)
{
    int total = 0;
    for (const auto &[op, weight] : kOpWeights)
        total += weight;
    auto roll = static_cast<int>(rng.uniformInt(0, total - 1));
    for (const auto &[op, weight] : kOpWeights) {
        if (roll < weight)
            return op;
        roll -= weight;
    }
    return FuzzOp::kWait;
}

} // namespace

ProgramFuzzer::ProgramFuzzer(const ModuleSpec &module_spec, FuzzConfig config)
    : spec(module_spec), cfg(std::move(config))
{
    UTRR_ASSERT(cfg.setupRows > 0, "need at least one setup row");
    UTRR_ASSERT(cfg.minOps > 0 && cfg.minOps <= cfg.maxOps,
                "bad body op range");
    UTRR_ASSERT(cfg.rowSpan > 2 && cfg.rowSpan < spec.rowsPerBank - 8,
                "row window must fit the bank");
}

Program
ProgramFuzzer::generate(std::uint64_t seed, std::uint64_t index) const
{
    Rng rng = Rng(seed).fork("fuzz").fork(index);
    Program program;

    const Bank bank_count = std::min<Bank>(cfg.maxBanks, spec.banks);
    const Row row_lo = static_cast<Row>(
        rng.uniformInt(2, spec.rowsPerBank - cfg.rowSpan - 3));
    const auto pick_bank = [&] {
        return static_cast<Bank>(rng.uniformInt(0, bank_count - 1));
    };
    const auto pick_row = [&] {
        return static_cast<Row>(
            row_lo + rng.uniformInt(0, cfg.rowSpan - 1));
    };

    // Per-bank open state mirrors what the host will enforce.
    std::vector<Row> open(static_cast<std::size_t>(bank_count),
                          kInvalidRow);
    const auto open_banks = [&] {
        std::vector<Bank> result;
        for (Bank b = 0; b < bank_count; ++b)
            if (open[static_cast<std::size_t>(b)] != kInvalidRow)
                result.push_back(b);
        return result;
    };
    const auto closed_banks = [&] {
        std::vector<Bank> result;
        for (Bank b = 0; b < bank_count; ++b)
            if (open[static_cast<std::size_t>(b)] == kInvalidRow)
                result.push_back(b);
        return result;
    };
    const auto close_all = [&] {
        for (Bank b = 0; b < bank_count; ++b) {
            if (open[static_cast<std::size_t>(b)] != kInvalidRow) {
                program.pre(b);
                open[static_cast<std::size_t>(b)] = kInvalidRow;
            }
        }
    };

    // Prologue: seed the window with known data so decay and disturbance
    // have something observable to corrupt.
    std::set<std::pair<Bank, Row>> written;
    for (int i = 0; i < cfg.setupRows; ++i) {
        const Bank bank = pick_bank();
        const Row row = pick_row();
        program.writeRow(bank, row, randomPattern(rng));
        written.emplace(bank, row);
    }

    const Timing timing;
    const int words = spec.rowBits / 64;
    const int ops = static_cast<int>(
        rng.uniformInt(cfg.minOps, cfg.maxOps));
    for (int i = 0; i < ops; ++i) {
        const FuzzOp op = pickOp(rng);
        switch (op) {
          case FuzzOp::kAct: {
            const auto closed = closed_banks();
            if (closed.empty()) {
                const auto opened = open_banks();
                const Bank bank = opened[static_cast<std::size_t>(
                    rng.uniformInt(0,
                                   static_cast<int>(opened.size()) - 1))];
                program.pre(bank);
                open[static_cast<std::size_t>(bank)] = kInvalidRow;
                break;
            }
            const Bank bank = closed[static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<int>(closed.size()) - 1))];
            const Row row = pick_row();
            program.act(bank, row);
            open[static_cast<std::size_t>(bank)] = row;
            break;
          }
          case FuzzOp::kPre: {
            const auto opened = open_banks();
            if (opened.empty()) {
                const Bank bank = pick_bank();
                const Row row = pick_row();
                program.act(bank, row);
                open[static_cast<std::size_t>(bank)] = row;
                break;
            }
            const Bank bank = opened[static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<int>(opened.size()) - 1))];
            program.pre(bank);
            open[static_cast<std::size_t>(bank)] = kInvalidRow;
            break;
          }
          case FuzzOp::kRd:
          case FuzzOp::kWr:
          case FuzzOp::kWrWord: {
            auto opened = open_banks();
            if (opened.empty()) {
                const Bank bank = pick_bank();
                const Row row = pick_row();
                program.act(bank, row);
                open[static_cast<std::size_t>(bank)] = row;
                opened.push_back(bank);
            }
            const Bank bank = opened[static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<int>(opened.size()) - 1))];
            const Row row = open[static_cast<std::size_t>(bank)];
            if (op == FuzzOp::kRd) {
                program.rd(bank);
            } else if (op == FuzzOp::kWr) {
                program.wr(bank, randomPattern(rng));
                written.emplace(bank, row);
            } else {
                program.wrWord(
                    bank,
                    static_cast<int>(rng.uniformInt(0, words - 1)),
                    rng.next());
                written.emplace(bank, row);
            }
            break;
          }
          case FuzzOp::kHammer: {
            auto closed = closed_banks();
            if (closed.empty()) {
                const auto opened = open_banks();
                const Bank victim = opened.front();
                program.pre(victim);
                open[static_cast<std::size_t>(victim)] = kInvalidRow;
                closed.push_back(victim);
            }
            const Bank bank = closed[static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<int>(closed.size()) - 1))];
            program.hammer(
                bank, pick_row(),
                static_cast<int>(
                    rng.uniformInt(cfg.hammerMin, cfg.hammerMax)));
            break;
          }
          case FuzzOp::kRef:
            close_all();
            program.ref(static_cast<int>(
                rng.uniformInt(1, cfg.refBurstMax)));
            break;
          case FuzzOp::kWait:
            program.wait(rng.uniformInt(100, cfg.waitMaxNs));
            break;
          case FuzzOp::kWaitRef: {
            close_all();
            const Time ns = rng.chance(cfg.longWaitChance)
                ? rng.uniformInt(cfg.waitRefMaxNs, cfg.longWaitRefNs)
                : rng.uniformInt(timing.tREFI, cfg.waitRefMaxNs);
            program.waitWithRefresh(ns);
            break;
          }
        }
    }

    // Epilogue: read back every written row and its physical-ish
    // neighbours — the surface where decay, disturbance and refresh
    // divergence become visible.
    close_all();
    std::set<std::pair<Bank, Row>> to_read;
    for (const auto &[bank, row] : written) {
        to_read.emplace(bank, row);
        if (row > 0)
            to_read.emplace(bank, row - 1);
        if (row + 1 < spec.rowsPerBank)
            to_read.emplace(bank, row + 1);
    }
    int reads = 0;
    for (const auto &[bank, row] : to_read) {
        if (reads++ >= cfg.maxEpilogueReads)
            break;
        program.readRow(bank, row);
    }
    return program;
}

std::string
validateProgram(const ModuleSpec &spec, const Program &program)
{
    std::vector<Row> open(static_cast<std::size_t>(spec.banks),
                          kInvalidRow);
    const int words = spec.rowBits / 64;
    std::size_t n = 0;
    for (const Instr &instr : program.instructions()) {
        const auto fail = [&](const std::string &msg) {
            return logFmt("instr ", n, " (", instr.toString(), "): ",
                          msg);
        };
        if (instr.op != Op::kRef && instr.op != Op::kWait &&
            instr.op != Op::kWaitRef) {
            if (instr.bank < 0 || instr.bank >= spec.banks)
                return fail("bank out of range");
        }
        auto &bank_open = open[static_cast<std::size_t>(
            std::clamp<Bank>(instr.bank, 0, spec.banks - 1))];
        switch (instr.op) {
          case Op::kAct:
            if (instr.row < 0 || instr.row >= spec.rowsPerBank)
                return fail("row out of range");
            if (bank_open != kInvalidRow)
                return fail("ACT to an open bank");
            bank_open = instr.row;
            break;
          case Op::kPre:
            bank_open = kInvalidRow;
            break;
          case Op::kWr:
          case Op::kRd:
            if (bank_open == kInvalidRow)
                return fail("access to a closed bank");
            break;
          case Op::kWrWord:
            if (bank_open == kInvalidRow)
                return fail("access to a closed bank");
            if (instr.wordIdx < 0 || instr.wordIdx >= words)
                return fail("word index out of range");
            break;
          case Op::kRef:
          case Op::kWaitRef:
            for (Bank b = 0; b < spec.banks; ++b) {
                if (open[static_cast<std::size_t>(b)] != kInvalidRow)
                    return fail(logFmt("refresh with bank ", b,
                                       " open"));
            }
            if (instr.op == Op::kWaitRef && instr.waitNs < 0)
                return fail("negative wait");
            break;
          case Op::kWait:
            if (instr.waitNs < 0)
                return fail("negative wait");
            break;
        }
        ++n;
    }
    return "";
}

Program
repairProgram(const ModuleSpec &spec, const Program &program)
{
    Program repaired;
    std::vector<Row> open(static_cast<std::size_t>(spec.banks),
                          kInvalidRow);
    const int words = spec.rowBits / 64;
    for (const Instr &instr : program.instructions()) {
        if (instr.op != Op::kRef && instr.op != Op::kWait &&
            instr.op != Op::kWaitRef) {
            if (instr.bank < 0 || instr.bank >= spec.banks)
                continue;
        }
        auto &bank_open = open[static_cast<std::size_t>(
            std::clamp<Bank>(instr.bank, 0, spec.banks - 1))];
        switch (instr.op) {
          case Op::kAct:
            if (instr.row < 0 || instr.row >= spec.rowsPerBank)
                continue;
            if (bank_open != kInvalidRow)
                continue;
            bank_open = instr.row;
            break;
          case Op::kPre:
            bank_open = kInvalidRow;
            break;
          case Op::kWr:
          case Op::kRd:
            if (bank_open == kInvalidRow)
                continue;
            break;
          case Op::kWrWord:
            if (bank_open == kInvalidRow || instr.wordIdx < 0 ||
                instr.wordIdx >= words)
                continue;
            break;
          case Op::kRef:
          case Op::kWaitRef: {
            bool any_open = false;
            for (Bank b = 0; b < spec.banks; ++b)
                any_open |=
                    open[static_cast<std::size_t>(b)] != kInvalidRow;
            if (any_open || instr.waitNs < 0)
                continue;
            break;
          }
          case Op::kWait:
            if (instr.waitNs < 0)
                continue;
            break;
        }
        repaired.push(instr);
    }
    return repaired;
}

} // namespace utrr
