#include "ecc/chipkill.hh"

#include "common/logging.hh"

namespace utrr
{

Chipkill::Chipkill() : rs(11, 8, 1)
{
}

std::vector<Gf256::Elem>
Chipkill::encode(std::uint64_t data) const
{
    std::vector<Gf256::Elem> symbols;
    for (int chip = 0; chip < 8; ++chip) {
        symbols.push_back(
            static_cast<Gf256::Elem>((data >> (8 * chip)) & 0xff));
    }
    return rs.encode(symbols);
}

std::uint64_t
Chipkill::dataOf(const std::vector<Gf256::Elem> &word)
{
    UTRR_ASSERT(word.size() >= 8, "codeword too short");
    std::uint64_t data = 0;
    for (int chip = 0; chip < 8; ++chip) {
        data |= static_cast<std::uint64_t>(word[static_cast<std::size_t>(
                    chip)])
            << (8 * chip);
    }
    return data;
}

RsDecodeResult
Chipkill::decode(const std::vector<Gf256::Elem> &received) const
{
    return rs.decode(received);
}

} // namespace utrr
