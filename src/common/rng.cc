#include "common/rng.hh"

#include <cmath>
#include <numbers>

namespace utrr
{

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
hashMix(std::uint64_t x)
{
    std::uint64_t s = x;
    return splitmix64(s);
}

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s)
        word = splitmix64(sm);
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next() % span);
}

double
Rng::uniformReal(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

double
Rng::gaussian()
{
    // Box-Muller; draw until u1 is nonzero to avoid log(0).
    double u1 = uniform();
    while (u1 == 0.0)
        u1 = uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
        std::cos(2.0 * std::numbers::pi * u2);
}

double
Rng::gaussian(double mean, double sigma)
{
    return mean + sigma * gaussian();
}

double
Rng::logNormal(double mu, double sigma)
{
    return std::exp(gaussian(mu, sigma));
}

double
Rng::exponential(double mean)
{
    double u = uniform();
    while (u == 0.0)
        u = uniform();
    return -mean * std::log(u);
}

Rng
Rng::fork(std::uint64_t stream)
{
    return Rng(hashMix(s[0] ^ hashMix(stream)));
}

Rng
Rng::fork(std::string_view name)
{
    return fork(hashString(name));
}

std::uint64_t
hashString(std::string_view text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace utrr
