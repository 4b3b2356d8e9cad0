/**
 * @file
 * Whole-row data patterns.
 *
 * Retention failures and RowHammer bit flips are both data-dependent, so
 * Row Scout profiles rows with a specific pattern and the TRR Analyzer
 * re-initializes victim/aggressor rows with configurable patterns
 * (paper §3.2 step 1). A DataPattern describes the value of every bit of
 * a row as a function of (row, column).
 */

#ifndef UTRR_DRAM_DATA_PATTERN_HH
#define UTRR_DRAM_DATA_PATTERN_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace utrr
{

/**
 * A deterministic whole-row data pattern.
 */
class DataPattern
{
  public:
    enum class Kind
    {
        kAllOnes,
        kAllZeros,
        kCheckerboard,    // 0x55 bytes, inverted on odd rows
        kInvCheckerboard, // 0xAA bytes, inverted on odd rows
        kColStripe,       // alternating bit columns
        kRandom,          // deterministic pseudo-random per (seed,row,col)
    };

    /** Default pattern is all ones, matching the paper's examples. */
    constexpr DataPattern() = default;

    constexpr explicit DataPattern(Kind kind, std::uint64_t seed = 0)
        : patKind(kind), seed(seed)
    {
    }

    static constexpr DataPattern allOnes()
    {
        return DataPattern(Kind::kAllOnes);
    }
    static constexpr DataPattern allZeros()
    {
        return DataPattern(Kind::kAllZeros);
    }
    static constexpr DataPattern checkerboard()
    {
        return DataPattern(Kind::kCheckerboard);
    }
    static constexpr DataPattern invCheckerboard()
    {
        return DataPattern(Kind::kInvCheckerboard);
    }
    static constexpr DataPattern colStripe()
    {
        return DataPattern(Kind::kColStripe);
    }
    static constexpr DataPattern random(std::uint64_t seed)
    {
        return DataPattern(Kind::kRandom, seed);
    }

    Kind kind() const { return patKind; }

    /** Seed of a kRandom pattern (0 for the deterministic kinds). */
    std::uint64_t patternSeed() const { return seed; }

    /** Value of bit @p col of row @p row under this pattern. */
    bool bit(Row row, Col col) const;

    /** 64-bit word @p word_idx of row @p row under this pattern. */
    std::uint64_t word(Row row, int word_idx) const;

    /** True if both patterns generate identical data everywhere. */
    bool operator==(const DataPattern &other) const
    {
        return patKind == other.patKind &&
            (patKind != Kind::kRandom || seed == other.seed);
    }

    /** Human-readable name for logs and tables. */
    std::string name() const;

  private:
    Kind patKind = Kind::kAllOnes;
    std::uint64_t seed = 0;
};

} // namespace utrr

#endif // UTRR_DRAM_DATA_PATTERN_HH
