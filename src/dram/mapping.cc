#include "dram/mapping.hh"

#include "common/logging.hh"

namespace utrr
{

std::string
scrambleName(RowScramble scramble)
{
    switch (scramble) {
      case RowScramble::kSequential:
        return "sequential";
      case RowScramble::kSwapHalfPairs:
        return "swap-half-pairs";
      case RowScramble::kBitSwap01:
        return "bit-swap-01";
    }
    return "?";
}

Row
applyScramble(RowScramble scramble, Row row)
{
    switch (scramble) {
      case RowScramble::kSequential:
        return row;
      case RowScramble::kSwapHalfPairs:
        // 0,1,2,3 -> 0,1,3,2 within every 4-row group.
        return (row & 2) ? (row ^ 1) : row;
      case RowScramble::kBitSwap01: {
        const Row b0 = row & 1;
        const Row b1 = (row >> 1) & 1;
        return (row & ~3) | (b0 << 1) | b1;
      }
    }
    return row;
}

RowMapping::RowMapping(RowScramble scramble, Row rows, int remap_count,
                       Rng rng, Row spare_rows)
    : scramble(scramble), rowCount(rows), spareCount(spare_rows)
{
    UTRR_ASSERT(rows > 0, "need at least one row");
    UTRR_ASSERT(remap_count <= spare_rows,
                "more remaps than spare rows");
    // Pick distinct logical rows to remap; keep them away from row 0 and
    // the end of the bank so experiments near the edges stay simple.
    int placed = 0;
    int guard = 0;
    while (placed < remap_count && guard < remap_count * 100 + 100) {
        ++guard;
        const Row victim = static_cast<Row>(
            rng.uniformInt(8, static_cast<std::int64_t>(rows) - 9));
        if (isRemapped(victim))
            continue;
        repairs.push_back({victim, rowCount + placed});
        ++placed;
    }
}

Row
RowMapping::scrambleRow(Row logical) const
{
    return applyScramble(scramble, logical);
}

Row
RowMapping::unscrambleRow(Row physical) const
{
    // All modelled scramblers are involutions.
    return scrambleRow(physical);
}

Row
RowMapping::toPhysical(Row logical) const
{
    UTRR_ASSERT(logical >= 0 && logical < rowCount,
                logFmt("logical row ", logical, " out of range"));
    for (const Repair &repair : repairs) {
        if (repair.logical == logical)
            return repair.spare;
    }
    return scrambleRow(logical);
}

Row
RowMapping::toLogical(Row physical) const
{
    UTRR_ASSERT(physical >= 0 && physical < physicalRows(),
                logFmt("physical row ", physical, " out of range"));
    if (physical >= rowCount) {
        for (const Repair &repair : repairs) {
            if (repair.spare == physical)
                return repair.logical;
        }
        return kInvalidRow; // an unused spare
    }
    // The scramble is a bijection, so a repaired row's own slot is the
    // one it vacated.
    const Row logical = unscrambleRow(physical);
    return isRemapped(logical) ? kInvalidRow : logical;
}

bool
RowMapping::isRemapped(Row logical) const
{
    for (const Repair &repair : repairs) {
        if (repair.logical == logical)
            return true;
    }
    return false;
}

} // namespace utrr
