/**
 * @file
 * Data checksums for durable on-disk records.
 *
 * The write-ahead result journal (src/runner/journal.hh) stamps every
 * JSONL record with a CRC-32C so a reader can tell a torn tail or a
 * corrupted line from a valid record without trusting file length or
 * JSON well-formedness. CRC-32C (Castagnoli) is the variant used by
 * ext4 metadata, iSCSI and LevelDB journals — a good error-detection
 * polynomial with a well-known reference implementation; we carry the
 * bytewise table-driven software form (no SSE4.2 dependency).
 */

#ifndef UTRR_COMMON_CHECKSUM_HH
#define UTRR_COMMON_CHECKSUM_HH

#include <cstdint>
#include <string>
#include <string_view>

namespace utrr
{

/** CRC-32C (Castagnoli) of a byte string. */
std::uint32_t crc32c(std::string_view data);

/** CRC-32C rendered as 8 lowercase hex digits ("00000000".."ffffffff"). */
std::string crc32cHex(std::string_view data);

/**
 * Parse an 8-hex-digit checksum as produced by crc32cHex. Returns
 * false (leaving @p out untouched) on any malformed input.
 */
bool parseCrc32cHex(std::string_view text, std::uint32_t &out);

} // namespace utrr

#endif // UTRR_COMMON_CHECKSUM_HH
