#include "ecc/secded.hh"

#include <array>
#include <bit>

#include "common/logging.hh"

namespace utrr
{

namespace
{

/** Codeword positions (1..71) of the 64 data bits: every position that
 *  is not a power of two. */
const std::array<int, 64> &
dataPositions()
{
    static const std::array<int, 64> positions = [] {
        std::array<int, 64> result{};
        int next = 0;
        for (int pos = 1; pos < 72 && next < 64; ++pos) {
            if ((pos & (pos - 1)) == 0)
                continue; // power of two: check bit
            result[static_cast<std::size_t>(next++)] = pos;
        }
        return result;
    }();
    return positions;
}

/** 72-entry bit array of a codeword, position 0 = overall parity. */
std::array<bool, 72>
toBits(const Secded::Codeword &word)
{
    std::array<bool, 72> bits{};
    bits[0] = (word.check >> 7) & 1;
    for (int j = 0; j < 7; ++j)
        bits[static_cast<std::size_t>(1 << j)] = (word.check >> j) & 1;
    const auto &positions = dataPositions();
    for (int i = 0; i < 64; ++i) {
        bits[static_cast<std::size_t>(positions[
            static_cast<std::size_t>(i)])] = (word.data >> i) & 1;
    }
    return bits;
}

Secded::Codeword
fromBits(const std::array<bool, 72> &bits)
{
    Secded::Codeword word;
    for (int j = 0; j < 7; ++j) {
        if (bits[static_cast<std::size_t>(1 << j)])
            word.check |= static_cast<std::uint8_t>(1u << j);
    }
    if (bits[0])
        word.check |= 0x80;
    const auto &positions = dataPositions();
    for (int i = 0; i < 64; ++i) {
        if (bits[static_cast<std::size_t>(positions[
                static_cast<std::size_t>(i)])])
            word.data |= 1ULL << i;
    }
    return word;
}

} // namespace

Secded::Codeword
Secded::encode(std::uint64_t data)
{
    Codeword word;
    word.data = data;

    std::array<bool, 72> bits = toBits(word);
    // Hamming check bits: parity over all positions sharing the bit.
    for (int j = 0; j < 7; ++j) {
        bool parity = false;
        for (int pos = 1; pos < 72; ++pos) {
            if ((pos & (1 << j)) && (pos & (pos - 1)) != 0)
                parity ^= bits[static_cast<std::size_t>(pos)];
        }
        bits[static_cast<std::size_t>(1 << j)] = parity;
    }
    // Overall parity over positions 1..71.
    bool overall = false;
    for (int pos = 1; pos < 72; ++pos)
        overall ^= bits[static_cast<std::size_t>(pos)];
    bits[0] = overall;

    return fromBits(bits);
}

Secded::DecodeResult
Secded::decode(Codeword received)
{
    const std::array<bool, 72> bits = toBits(received);

    int syndrome = 0;
    for (int pos = 1; pos < 72; ++pos) {
        if (bits[static_cast<std::size_t>(pos)])
            syndrome ^= pos;
    }
    bool parity = false;
    for (int pos = 0; pos < 72; ++pos)
        parity ^= bits[static_cast<std::size_t>(pos)];

    DecodeResult result;
    result.codeword = received;

    if (syndrome == 0 && !parity) {
        result.status = Status::kClean;
        return result;
    }
    if (!parity) {
        // Nonzero syndrome with even overall parity: >= 2 errors.
        result.status = Status::kDetected;
        return result;
    }
    // Odd overall parity: classified as a single error (which may be a
    // miscorrection when >= 3 bits actually flipped).
    if (syndrome >= 72) {
        // Syndrome points outside the codeword: uncorrectable.
        result.status = Status::kDetected;
        return result;
    }
    std::array<bool, 72> fixed = bits;
    fixed[static_cast<std::size_t>(syndrome)] =
        !fixed[static_cast<std::size_t>(syndrome)];
    result.codeword = fromBits(fixed);
    result.status = Status::kCorrected;
    return result;
}

Secded::Codeword
Secded::flipBit(Codeword word, int bit)
{
    UTRR_ASSERT(bit >= 0 && bit < 72, "bit out of range");
    if (bit < 64) {
        word.data ^= 1ULL << bit;
    } else {
        word.check ^= static_cast<std::uint8_t>(1u << (bit - 64));
    }
    return word;
}

OnDieSec::Codeword
OnDieSec::encode(std::uint64_t data)
{
    Codeword word = Secded::encode(data);
    word.check &= 0x7f; // no overall parity bit
    return word;
}

OnDieSec::DecodeResult
OnDieSec::decode(Codeword received)
{
    received.check &= 0x7f;
    const std::array<bool, 72> bits = toBits(received);

    int syndrome = 0;
    for (int pos = 1; pos < 72; ++pos) {
        if (bits[static_cast<std::size_t>(pos)])
            syndrome ^= pos;
    }

    DecodeResult result;
    result.codeword = received;
    if (syndrome == 0) {
        result.status = Status::kClean;
        return result;
    }
    if (syndrome >= 72) {
        result.status = Status::kDetected;
        return result;
    }
    std::array<bool, 72> fixed = bits;
    fixed[static_cast<std::size_t>(syndrome)] =
        !fixed[static_cast<std::size_t>(syndrome)];
    result.codeword = fromBits(fixed);
    result.codeword.check &= 0x7f;
    result.status = Status::kCorrected;
    return result;
}

} // namespace utrr
