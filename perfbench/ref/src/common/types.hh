/**
 * @file
 * Fundamental types shared across the U-TRR codebase.
 *
 * The simulator models time in integer nanoseconds (64-bit, enough for
 * ~292 years of simulated time) and addresses DRAM with explicit
 * bank/row/column coordinates, mirroring how the SoftMC host addresses
 * a real module.
 */

#ifndef UTRR_COMMON_TYPES_HH
#define UTRR_COMMON_TYPES_HH

#include <cstdint>
#include <limits>

namespace utrr
{

/** Simulated time in nanoseconds. */
using Time = std::int64_t;

/** Logical or physical DRAM row index within a bank. */
using Row = std::int32_t;

/** DRAM bank index within a chip/rank. */
using Bank = std::int32_t;

/** Bit position within a DRAM row (column granularity is one bit). */
using Col = std::int32_t;

/** Number of nanoseconds in common units. */
constexpr Time kNsPerUs = 1'000;
constexpr Time kNsPerMs = 1'000'000;
constexpr Time kNsPerSec = 1'000'000'000;

/** Sentinel for "no row". */
constexpr Row kInvalidRow = -1;

/** Sentinel for "no time". */
constexpr Time kInvalidTime = std::numeric_limits<Time>::min();

/**
 * Convert milliseconds (possibly fractional) to nanoseconds.
 */
constexpr Time
msToNs(double ms)
{
    return static_cast<Time>(ms * static_cast<double>(kNsPerMs));
}

/** Convert nanoseconds to (fractional) milliseconds. */
constexpr double
nsToMs(Time ns)
{
    return static_cast<double>(ns) / static_cast<double>(kNsPerMs);
}

} // namespace utrr

#endif // UTRR_COMMON_TYPES_HH
