#include "dram/data_pattern.hh"

#include "common/rng.hh"

namespace utrr
{

bool
DataPattern::bit(Row row, Col col) const
{
    switch (patKind) {
      case Kind::kAllOnes:
        return true;
      case Kind::kAllZeros:
        return false;
      case Kind::kCheckerboard:
        // 0x55 bytes on even rows, inverted on odd rows.
        return ((col & 1) == 0) ^ ((row & 1) != 0);
      case Kind::kInvCheckerboard:
        return ((col & 1) != 0) ^ ((row & 1) != 0);
      case Kind::kColStripe:
        return (col & 1) != 0;
      case Kind::kRandom: {
        const std::uint64_t w = hashMix(
            seed ^ (static_cast<std::uint64_t>(row) << 32) ^
            static_cast<std::uint64_t>(col / 64));
        return ((w >> (col % 64)) & 1) != 0;
      }
    }
    return false;
}

std::uint64_t
DataPattern::word(Row row, int word_idx) const
{
    switch (patKind) {
      case Kind::kAllOnes:
        return ~0ULL;
      case Kind::kAllZeros:
        return 0ULL;
      case Kind::kCheckerboard: {
        const std::uint64_t base = 0x5555555555555555ULL;
        return (row & 1) ? ~base : base;
      }
      case Kind::kInvCheckerboard: {
        const std::uint64_t base = 0xaaaaaaaaaaaaaaaaULL;
        return (row & 1) ? ~base : base;
      }
      case Kind::kColStripe:
        return 0xaaaaaaaaaaaaaaaaULL;
      case Kind::kRandom:
        return hashMix(seed ^ (static_cast<std::uint64_t>(row) << 32) ^
                       static_cast<std::uint64_t>(word_idx));
    }
    return 0;
}

std::string
DataPattern::name() const
{
    switch (patKind) {
      case Kind::kAllOnes:
        return "all-ones";
      case Kind::kAllZeros:
        return "all-zeros";
      case Kind::kCheckerboard:
        return "checkerboard";
      case Kind::kInvCheckerboard:
        return "inv-checkerboard";
      case Kind::kColStripe:
        return "col-stripe";
      case Kind::kRandom:
        return "random";
    }
    return "?";
}

} // namespace utrr
