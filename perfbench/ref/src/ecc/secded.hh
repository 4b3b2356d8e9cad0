/**
 * @file
 * SECDED Hamming(72,64): the typical DRAM ECC the paper's custom
 * patterns defeat (§7.4).
 *
 * Layout: the 64 data bits and 7 Hamming check bits occupy codeword
 * positions 1..71 (check bits at the power-of-two positions), plus an
 * overall parity bit at position 0. Decoding classifies a received
 * word as clean, single-error-corrected, or double-error-detected;
 * patterns with >= 3 flipped bits alias into the other classes (often
 * "correcting" the wrong bit), which is exactly the failure mode the
 * paper demonstrates.
 */

#ifndef UTRR_ECC_SECDED_HH
#define UTRR_ECC_SECDED_HH

#include <cstdint>
#include <vector>

namespace utrr
{

/**
 * Hamming(72,64) SECDED codec.
 */
class Secded
{
  public:
    /** A 72-bit codeword: 64 data bits + 8 check bits. */
    struct Codeword
    {
        std::uint64_t data = 0;
        std::uint8_t check = 0; // bit 7 = overall parity

        bool operator==(const Codeword &other) const = default;
    };

    enum class Status
    {
        kClean,
        kCorrected, // single-bit error corrected
        kDetected,  // uncorrectable double-bit error
    };

    struct DecodeResult
    {
        Status status = Status::kClean;
        Codeword codeword;
    };

    /** Encode 64 data bits. */
    static Codeword encode(std::uint64_t data);

    /** Decode (and possibly correct) a received codeword. */
    static DecodeResult decode(Codeword received);

    /** Flip one bit of a codeword: positions 0..63 = data bits,
     *  64..71 = check bits. */
    static Codeword flipBit(Codeword word, int bit);
};

/**
 * On-die SEC Hamming(71,64): the single-error-correcting (no DED) code
 * DRAM vendors integrate on the die (cf. the paper's on-die-ECC
 * references [92, 93]). Same layout as Secded minus the overall parity
 * bit, so a double-bit error aliases to a single-bit syndrome and is
 * silently miscorrected — on-die ECC offers no protection against the
 * multi-flip words the custom patterns produce.
 */
class OnDieSec
{
  public:
    using Codeword = Secded::Codeword; // check bit 7 unused

    enum class Status
    {
        kClean,
        kCorrected,
        kDetected, // syndrome outside the codeword (never guaranteed)
    };

    struct DecodeResult
    {
        Status status = Status::kClean;
        Codeword codeword;
    };

    static Codeword encode(std::uint64_t data);
    static DecodeResult decode(Codeword received);
};

} // namespace utrr

#endif // UTRR_ECC_SECDED_HH
