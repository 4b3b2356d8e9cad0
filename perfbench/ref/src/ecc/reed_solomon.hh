/**
 * @file
 * Systematic Reed-Solomon codes over GF(256).
 *
 * Used two ways in the §7.4 analysis:
 *  - as the Chipkill-style symbol code (correct one symbol, detect two);
 *  - to quantify the parity overhead a code would need to withstand the
 *    up-to-7-bit-flip words the custom patterns produce (the paper
 *    concludes at least 7 parity-check symbols are required).
 *
 * The decoder is bounded-distance: syndromes, Berlekamp-Massey, Chien
 * search and Forney's algorithm, correcting up to a configurable number
 * of symbol errors t <= floor((n-k)/2) and reporting a detected
 * (uncorrectable) error otherwise. As with real codes, error patterns
 * beyond the guaranteed distance can decode to a *wrong* codeword —
 * the miscorrections the paper exploits.
 */

#ifndef UTRR_ECC_REED_SOLOMON_HH
#define UTRR_ECC_REED_SOLOMON_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "ecc/galois.hh"

namespace utrr
{

/** Result of a Reed-Solomon decode attempt. */
struct RsDecodeResult
{
    enum class Status
    {
        kClean,     // syndromes all zero
        kCorrected, // <= t symbol errors corrected
        kDetected,  // uncorrectable error detected
    };

    Status status = Status::kClean;
    /** Decoded codeword (corrected when status == kCorrected). */
    std::vector<Gf256::Elem> codeword;
    /** Number of symbols corrected. */
    int symbolsCorrected = 0;
};

/**
 * RS(n, k) over GF(256), systematic (data symbols first).
 */
class ReedSolomon
{
  public:
    /**
     * @param n codeword length in symbols (n <= 255)
     * @param k data symbols (k < n)
     * @param t correction capability; default floor((n-k)/2)
     */
    ReedSolomon(int n, int k, int t = -1);

    int n() const { return nLen; }
    int k() const { return kLen; }
    int t() const { return tCap; }

    /** Encode @p data (k symbols) into an n-symbol codeword. */
    std::vector<Gf256::Elem>
    encode(const std::vector<Gf256::Elem> &data) const;

    /** Decode a received n-symbol word. */
    RsDecodeResult decode(const std::vector<Gf256::Elem> &received) const;

  private:
    std::vector<Gf256::Elem> syndromes(
        const std::vector<Gf256::Elem> &received) const;

    int nLen;
    int kLen;
    int tCap;
    /** Generator polynomial, lowest degree first. */
    std::vector<Gf256::Elem> gen;
};

} // namespace utrr

#endif // UTRR_ECC_REED_SOLOMON_HH
