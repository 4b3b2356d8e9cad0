#include "ecc/galois.hh"

#include "common/logging.hh"

namespace utrr
{

Gf256::Tables::Tables()
{
    // Build antilog/log tables for generator alpha = 2 with the
    // primitive polynomial 0x11D.
    int x = 1;
    for (int i = 0; i < 255; ++i) {
        exp[static_cast<std::size_t>(i)] = static_cast<Elem>(x);
        log[static_cast<std::size_t>(x)] = i;
        x <<= 1;
        if (x & 0x100)
            x ^= 0x11D;
    }
    for (int i = 255; i < 512; ++i)
        exp[static_cast<std::size_t>(i)] =
            exp[static_cast<std::size_t>(i - 255)];
    log[0] = -1;
}

const Gf256::Tables &
Gf256::tables()
{
    static const Tables t;
    return t;
}

Gf256::Elem
Gf256::mul(Elem a, Elem b)
{
    if (a == 0 || b == 0)
        return 0;
    const Tables &t = tables();
    return t.exp[static_cast<std::size_t>(
        t.log[a] + t.log[b])];
}

Gf256::Elem
Gf256::div(Elem a, Elem b)
{
    UTRR_ASSERT(b != 0, "division by zero in GF(256)");
    if (a == 0)
        return 0;
    const Tables &t = tables();
    int diff = t.log[a] - t.log[b];
    if (diff < 0)
        diff += 255;
    return t.exp[static_cast<std::size_t>(diff)];
}

Gf256::Elem
Gf256::inv(Elem a)
{
    UTRR_ASSERT(a != 0, "inverse of zero in GF(256)");
    const Tables &t = tables();
    return t.exp[static_cast<std::size_t>(255 - t.log[a])];
}

Gf256::Elem
Gf256::expAlpha(int power)
{
    const Tables &t = tables();
    int p = power % 255;
    if (p < 0)
        p += 255;
    return t.exp[static_cast<std::size_t>(p)];
}

int
Gf256::logAlpha(Elem a)
{
    UTRR_ASSERT(a != 0, "log of zero in GF(256)");
    return tables().log[a];
}

Gf256::Elem
Gf256::pow(Elem a, int n)
{
    if (n == 0)
        return 1;
    if (a == 0)
        return 0;
    const int l = (logAlpha(a) * n) % 255;
    return expAlpha(l);
}

} // namespace utrr
