#include "ecc/ecc_analysis.hh"

#include <algorithm>
#include <set>

#include "common/logging.hh"
#include "common/rng.hh"
#include "ecc/chipkill.hh"
#include "ecc/secded.hh"

namespace utrr
{

std::string
eccOutcomeName(EccOutcome outcome)
{
    switch (outcome) {
      case EccOutcome::kClean:
        return "clean";
      case EccOutcome::kCorrected:
        return "corrected";
      case EccOutcome::kDetected:
        return "detected";
      case EccOutcome::kMiscorrected:
        return "miscorrected";
      case EccOutcome::kUndetected:
        return "undetected";
    }
    return "?";
}

EccOutcome
evaluateSecded(const std::vector<int> &flipped_bits, std::uint64_t data)
{
    if (flipped_bits.empty())
        return EccOutcome::kClean;

    const Secded::Codeword original = Secded::encode(data);
    Secded::Codeword received = original;
    for (int bit : flipped_bits) {
        UTRR_ASSERT(bit >= 0 && bit < 64, "data-bit flips only");
        received = Secded::flipBit(received, bit);
    }

    const Secded::DecodeResult result = Secded::decode(received);
    switch (result.status) {
      case Secded::Status::kClean:
        return result.codeword.data == data ? EccOutcome::kClean
                                            : EccOutcome::kUndetected;
      case Secded::Status::kCorrected:
        return result.codeword.data == data ? EccOutcome::kCorrected
                                            : EccOutcome::kMiscorrected;
      case Secded::Status::kDetected:
        return EccOutcome::kDetected;
    }
    return EccOutcome::kDetected;
}

EccOutcome
evaluateOnDieSec(const std::vector<int> &flipped_bits,
                 std::uint64_t data)
{
    if (flipped_bits.empty())
        return EccOutcome::kClean;

    const OnDieSec::Codeword original = OnDieSec::encode(data);
    OnDieSec::Codeword received = original;
    for (int bit : flipped_bits) {
        UTRR_ASSERT(bit >= 0 && bit < 64, "data-bit flips only");
        received = Secded::flipBit(received, bit);
    }

    const OnDieSec::DecodeResult result = OnDieSec::decode(received);
    switch (result.status) {
      case OnDieSec::Status::kClean:
        return result.codeword.data == data ? EccOutcome::kClean
                                            : EccOutcome::kUndetected;
      case OnDieSec::Status::kCorrected:
        return result.codeword.data == data ? EccOutcome::kCorrected
                                            : EccOutcome::kMiscorrected;
      case OnDieSec::Status::kDetected:
        return EccOutcome::kDetected;
    }
    return EccOutcome::kDetected;
}

namespace
{

EccOutcome
classifyRs(const RsDecodeResult &result,
           const std::vector<Gf256::Elem> &original,
           std::uint64_t original_data)
{
    switch (result.status) {
      case RsDecodeResult::Status::kClean:
        return Chipkill::dataOf(result.codeword) == original_data
            ? EccOutcome::kClean
            : EccOutcome::kUndetected;
      case RsDecodeResult::Status::kCorrected:
        return result.codeword == original ? EccOutcome::kCorrected
                                           : EccOutcome::kMiscorrected;
      case RsDecodeResult::Status::kDetected:
        return EccOutcome::kDetected;
    }
    return EccOutcome::kDetected;
}

std::vector<Gf256::Elem>
applyDataFlips(std::vector<Gf256::Elem> word,
               const std::vector<int> &flipped_bits)
{
    for (int bit : flipped_bits) {
        UTRR_ASSERT(bit >= 0 && bit < 64, "data-bit flips only");
        word[static_cast<std::size_t>(bit / 8)] ^=
            static_cast<Gf256::Elem>(1u << (bit % 8));
    }
    return word;
}

} // namespace

EccOutcome
evaluateChipkill(const std::vector<int> &flipped_bits,
                 std::uint64_t data)
{
    if (flipped_bits.empty())
        return EccOutcome::kClean;

    static const Chipkill codec;
    const std::vector<Gf256::Elem> original = codec.encode(data);
    const std::vector<Gf256::Elem> received =
        applyDataFlips(original, flipped_bits);
    return classifyRs(codec.decode(received), original, data);
}

EccOutcome
evaluateReedSolomon(const std::vector<int> &flipped_bits,
                    int parity_symbols, std::uint64_t data)
{
    if (flipped_bits.empty())
        return EccOutcome::kClean;

    const ReedSolomon rs(8 + parity_symbols, 8);
    std::vector<Gf256::Elem> message;
    for (int chip = 0; chip < 8; ++chip) {
        message.push_back(
            static_cast<Gf256::Elem>((data >> (8 * chip)) & 0xff));
    }
    const std::vector<Gf256::Elem> original = rs.encode(message);
    const std::vector<Gf256::Elem> received =
        applyDataFlips(original, flipped_bits);
    return classifyRs(rs.decode(received), original, data);
}

std::uint64_t
EccTally::of(EccOutcome outcome) const
{
    const auto it = counts.find(outcome);
    return it == counts.end() ? 0 : it->second;
}

std::uint64_t
EccTally::total() const
{
    std::uint64_t sum = 0;
    for (const auto &[outcome, count] : counts)
        sum += count;
    return sum;
}

std::uint64_t
EccTally::silentCorruption() const
{
    return of(EccOutcome::kMiscorrected) + of(EccOutcome::kUndetected);
}

EccStudy
studyWordFlipHistogram(const Histogram &word_flips,
                       const std::vector<int> &rs_parities,
                       std::uint64_t seed,
                       std::uint64_t max_words_per_bin)
{
    EccStudy study;
    Rng rng(seed);
    for (const auto &[flips, count] : word_flips.bins()) {
        const std::uint64_t words =
            std::min<std::uint64_t>(count, max_words_per_bin);
        for (std::uint64_t w = 0; w < words; ++w) {
            // Flips land on distinct random data bits of the word.
            std::set<int> bits;
            while (static_cast<std::int64_t>(bits.size()) < flips)
                bits.insert(static_cast<int>(rng.uniformInt(0, 63)));
            const std::vector<int> flipped(bits.begin(), bits.end());

            study.secded.add(evaluateSecded(flipped));
            study.onDieSec.add(evaluateOnDieSec(flipped));
            study.chipkill.add(evaluateChipkill(flipped));
            for (int parity : rs_parities)
                study.reedSolomon[parity].add(
                    evaluateReedSolomon(flipped, parity));
        }
    }
    return study;
}

} // namespace utrr
