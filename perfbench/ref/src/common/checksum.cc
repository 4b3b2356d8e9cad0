#include "common/checksum.hh"

#include <array>
#include <cstdio>

namespace utrr
{

namespace
{

/** Bytewise CRC-32C table (reflected polynomial 0x82f63b78). */
std::array<std::uint32_t, 256>
makeTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t crc = i;
        for (int bit = 0; bit < 8; ++bit) {
            crc = (crc & 1u) ? (crc >> 1) ^ 0x82f63b78u : crc >> 1;
        }
        table[i] = crc;
    }
    return table;
}

} // namespace

std::uint32_t
crc32c(std::string_view data)
{
    static const std::array<std::uint32_t, 256> table = makeTable();
    std::uint32_t crc = 0xffffffffu;
    for (const char c : data) {
        const auto byte = static_cast<unsigned char>(c);
        crc = (crc >> 8) ^ table[(crc ^ byte) & 0xffu];
    }
    return crc ^ 0xffffffffu;
}

std::string
crc32cHex(std::string_view data)
{
    char buf[9];
    std::snprintf(buf, sizeof(buf), "%08x", crc32c(data));
    return std::string(buf);
}

bool
parseCrc32cHex(std::string_view text, std::uint32_t &out)
{
    if (text.size() != 8)
        return false;
    std::uint32_t value = 0;
    for (const char c : text) {
        value <<= 4;
        if (c >= '0' && c <= '9')
            value |= static_cast<std::uint32_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            value |= static_cast<std::uint32_t>(c - 'a' + 10);
        else
            return false;
    }
    out = value;
    return true;
}

} // namespace utrr
