#include "softmc/compiler.hh"

namespace utrr
{

namespace
{

/** Intern @p pattern into the pool, returning its index. */
int
internPattern(std::vector<DataPattern> &pool, const DataPattern &pattern)
{
    for (std::size_t i = 0; i < pool.size(); ++i) {
        if (pool[i] == pattern)
            return static_cast<int>(i);
    }
    pool.push_back(pattern);
    return static_cast<int>(pool.size() - 1);
}

} // namespace

CompiledProgram
ProgramCompiler::compile(const Program &program)
{
    CompiledProgram out;
    const std::vector<Instr> &ins = program.instructions();
    const std::size_t n = ins.size();
    out.sourceSize = n;
    out.ops.reserve(n);

    std::size_t i = 0;
    while (i < n) {
        const Instr &a = ins[i];

        if (a.op == Op::kAct && i + 1 < n) {
            const Instr &b = ins[i + 1];

            // A run of [ACT, PRE] pairs on one (bank, row) is a hammer
            // loop: collapse it into a single op carrying the count.
            if (b.op == Op::kPre && b.bank == a.bank) {
                int count = 0;
                std::size_t j = i;
                while (j + 1 < n && ins[j].op == Op::kAct &&
                       ins[j].bank == a.bank && ins[j].row == a.row &&
                       ins[j + 1].op == Op::kPre &&
                       ins[j + 1].bank == a.bank) {
                    ++count;
                    j += 2;
                }
#ifdef UTRR_MUTATION_FUSION_OFF_BY_ONE
                // Planted bug for CI mutation-sanity: a fused hammer
                // burst silently loses one cycle. The compiled-vs-
                // interpreted execution oracle must catch this.
                if (count > 1)
                    --count;
#endif
                CompiledOp op;
                op.kind = CompiledOpKind::kHammer;
                op.bank = a.bank;
                op.row = a.row;
                op.count = count;
                out.ops.push_back(op);
                i = j;
                continue;
            }

            // [ACT, WR, PRE] / [ACT, RD, PRE] on one bank fuse into a
            // single whole-row access op.
            if (i + 2 < n && b.bank == a.bank &&
                ins[i + 2].op == Op::kPre && ins[i + 2].bank == a.bank) {
                if (b.op == Op::kWr) {
                    CompiledOp op;
                    op.kind = CompiledOpKind::kWriteRow;
                    op.bank = a.bank;
                    op.row = a.row;
                    op.patternIdx =
                        internPattern(out.patterns, b.pattern);
                    out.ops.push_back(op);
                    i += 3;
                    continue;
                }
                if (b.op == Op::kRd) {
                    CompiledOp op;
                    op.kind = CompiledOpKind::kReadRow;
                    op.bank = a.bank;
                    op.row = a.row;
                    out.ops.push_back(op);
                    ++out.readCount;
                    i += 3;
                    continue;
                }
            }
        }

        // Consecutive REFs become one burst op.
        if (a.op == Op::kRef) {
            int count = 0;
            while (i < n && ins[i].op == Op::kRef) {
                ++count;
                ++i;
            }
            CompiledOp op;
            op.kind = CompiledOpKind::kRefBurst;
            op.count = count;
            out.ops.push_back(op);
            continue;
        }

        // Everything else passes through one-to-one.
        CompiledOp op;
        op.bank = a.bank;
        op.row = a.row;
        switch (a.op) {
          case Op::kAct:
            op.kind = CompiledOpKind::kAct;
            break;
          case Op::kPre:
            op.kind = CompiledOpKind::kPre;
            break;
          case Op::kWr:
            op.kind = CompiledOpKind::kWr;
            op.patternIdx = internPattern(out.patterns, a.pattern);
            break;
          case Op::kWrWord:
            op.kind = CompiledOpKind::kWrWord;
            op.wordIdx = a.wordIdx;
            op.value = a.value;
            break;
          case Op::kRd:
            op.kind = CompiledOpKind::kRd;
            ++out.readCount;
            break;
          case Op::kWait:
            op.kind = CompiledOpKind::kWait;
            op.waitNs = a.waitNs;
            break;
          case Op::kWaitRef:
            op.kind = CompiledOpKind::kWaitRef;
            op.waitNs = a.waitNs;
            break;
          case Op::kRef:
            // Handled by the run-fusion above.
            break;
        }
        out.ops.push_back(op);
        ++i;
    }
    return out;
}

} // namespace utrr
