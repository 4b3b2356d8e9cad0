/**
 * @file
 * Classifies RowHammer flip patterns against ECC schemes (paper §7.4).
 *
 * Given the bit positions flipped within an 8-byte dataword, each
 * scheme's codec is exercised end-to-end (encode a known word, apply
 * the flips to the data bits, decode, compare with the original) and
 * the outcome is classified:
 *
 *  - corrected:    decoder fixed the word (data matches the original);
 *  - detected:     decoder flagged an uncorrectable error;
 *  - miscorrected: decoder "corrected" to the wrong data;
 *  - undetected:   decoder accepted a wrong word as clean.
 *
 * Miscorrected and undetected outcomes are silent data corruption —
 * the paper's headline ECC result.
 */

#ifndef UTRR_ECC_ECC_ANALYSIS_HH
#define UTRR_ECC_ECC_ANALYSIS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace utrr
{

/** End-to-end ECC outcome for one flipped dataword. */
enum class EccOutcome
{
    kClean,        // no flips
    kCorrected,
    kDetected,
    kMiscorrected, // silent corruption ("corrected" wrongly)
    kUndetected,   // silent corruption (accepted as clean)
};

std::string eccOutcomeName(EccOutcome outcome);

/** Evaluate SECDED Hamming(72,64) against data-bit flips. */
EccOutcome evaluateSecded(const std::vector<int> &flipped_bits,
                          std::uint64_t data = 0xa5a5a5a5a5a5a5a5ULL);

/** Evaluate on-die SEC Hamming(71,64) against data-bit flips. */
EccOutcome evaluateOnDieSec(const std::vector<int> &flipped_bits,
                            std::uint64_t data =
                                0xa5a5a5a5a5a5a5a5ULL);

/** Evaluate the Chipkill symbol code against data-bit flips. */
EccOutcome evaluateChipkill(const std::vector<int> &flipped_bits,
                            std::uint64_t data = 0xa5a5a5a5a5a5a5a5ULL);

/**
 * Evaluate an RS(8+parity, 8) code with byte symbols and correction
 * capability floor(parity/2) against data-bit flips.
 */
EccOutcome evaluateReedSolomon(const std::vector<int> &flipped_bits,
                               int parity_symbols,
                               std::uint64_t data =
                                   0xa5a5a5a5a5a5a5a5ULL);

/** Aggregate outcome counts of one scheme over many words. */
struct EccTally
{
    std::map<EccOutcome, std::uint64_t> counts;

    void add(EccOutcome outcome) { ++counts[outcome]; }

    std::uint64_t of(EccOutcome outcome) const;
    std::uint64_t total() const;
    /** Miscorrected + undetected. */
    std::uint64_t silentCorruption() const;
};

/**
 * Run all schemes over a distribution of per-word flip counts (as the
 * Fig. 10 histogram provides), assuming flips within a word land on
 * distinct uniformly random data bits (the paper observed arbitrary
 * locations). Deterministic given @p seed.
 */
struct EccStudy
{
    EccTally secded;
    EccTally onDieSec;
    EccTally chipkill;
    std::map<int, EccTally> reedSolomon; // parity symbols -> tally
};

EccStudy studyWordFlipHistogram(const Histogram &word_flips,
                                const std::vector<int> &rs_parities,
                                std::uint64_t seed = 42,
                                std::uint64_t max_words_per_bin =
                                    20'000);

} // namespace utrr

#endif // UTRR_ECC_ECC_ANALYSIS_HH
