/**
 * @file
 * Chipkill-style symbol-based ECC (paper §7.4).
 *
 * Conventional Chipkill corrects all errors within one DRAM chip
 * (one symbol) and detects errors spanning two chips. We model an
 * 8-byte dataword striped across chips — each chip contributes one
 * 8-bit symbol (x8 devices) — protected by an RS(11, 8) code over
 * GF(256) decoded with t = 1 (distance 4: single-symbol correct,
 * double-symbol detect). Flips spread over three or more chips exceed
 * the guarantee and can decode to a wrong codeword, which is precisely
 * what the paper's >= 3-flips-per-word patterns cause.
 */

#ifndef UTRR_ECC_CHIPKILL_HH
#define UTRR_ECC_CHIPKILL_HH

#include <cstdint>
#include <vector>

#include "ecc/reed_solomon.hh"

namespace utrr
{

/**
 * Chipkill codec for one 64-bit dataword across 8 chips.
 */
class Chipkill
{
  public:
    Chipkill();

    /** Symbols per codeword (8 data + 3 parity). */
    int symbols() const { return rs.n(); }

    /** Encode a 64-bit word into 11 byte-symbols. */
    std::vector<Gf256::Elem> encode(std::uint64_t data) const;

    /** Extract the 64-bit data from a codeword. */
    static std::uint64_t dataOf(const std::vector<Gf256::Elem> &word);

    /** Decode a received codeword. */
    RsDecodeResult decode(const std::vector<Gf256::Elem> &received) const;

  private:
    ReedSolomon rs;
};

} // namespace utrr

#endif // UTRR_ECC_CHIPKILL_HH
