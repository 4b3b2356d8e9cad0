/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the simulator (retention-time sampling, VRT
 * switching, TRR sampler decisions, ...) flows through Rng so that every
 * experiment is exactly reproducible from a seed. The generator is
 * xoshiro256** (Blackman & Vigna), seeded via splitmix64. The per-draw
 * members are inline: TRR samplers draw once per ACT in their burst
 * loops.
 */

#ifndef UTRR_COMMON_RNG_HH
#define UTRR_COMMON_RNG_HH

#include <array>
#include <bit>
#include <cstdint>
#include <string_view>

namespace utrr
{

/**
 * Deterministic 64-bit PRNG (xoshiro256**) with convenience samplers.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x5eed);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = std::rotl(s[1] * 5, 7) * 9;
        const std::uint64_t t = s[1] << 17;

        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = std::rotl(s[3], 45);

        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 high bits -> double in [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [lo, hi] (inclusive). Requires lo <= hi. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [lo, hi). */
    double uniformReal(double lo, double hi);

    /** Bernoulli trial with success probability p. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /**
     * chance(@p p)'s test as an integer threshold on the raw draw: for
     * 0 < p < 1, next() < chanceCut(p) makes exactly the decision
     * uniform() < p makes on that draw. uniform() is (x >> 11)·2^-53 and
     * p·2^53 is exact, so the test is x >> 11 < ceil(p·2^53), that is
     * x < ceil(p·2^53)·2^11, which fits in 64 bits because p < 1 keeps
     * the ceiling below 2^53. chance() draws nothing at its edges, so
     * callers test p <= 0 (never a hit) and p >= 1 (always one)
     * themselves; here a NaN or non-positive p gives 0 (no draw is
     * below it) and p >= 1 gives 2^64 - 1.
     */
    static std::uint64_t
    chanceCut(double p)
    {
        if (!(p > 0.0))
            return 0;
        if (p >= 1.0)
            return ~std::uint64_t{0};
        const double scaled = p * 0x1.0p53; // exact, below 2^53
        // Truncation is the floor here, and the floor is exact as a
        // double, so one compare finds the ceiling.
        auto ceil = static_cast<std::uint64_t>(scaled);
        ceil += static_cast<double>(ceil) < scaled ? 1 : 0;
        return ceil << 11;
    }

    /** Standard normal via Box-Muller (deterministic, no cached spare). */
    double gaussian();

    /** Normal with given mean and standard deviation. */
    double gaussian(double mean, double sigma);

    /** Log-normal: exp(N(mu, sigma)). */
    double logNormal(double mu, double sigma);

    /** Exponential with given mean (mean > 0). */
    double exponential(double mean);

    /**
     * Derive an independent child generator; used to give each DRAM row
     * its own deterministic stream regardless of evaluation order.
     */
    Rng fork(std::uint64_t stream);

    /**
     * Derive an independent *named* sub-stream ("fault.vrt",
     * "fault.noise", ...). Subsystems that draw from their own named
     * stream cannot perturb anyone else's sequence, so enabling such a
     * subsystem with all its rates at zero stays bit-identical to not
     * having it at all.
     */
    Rng fork(std::string_view name);

  private:
    std::array<std::uint64_t, 4> s;
};

/** splitmix64 step; exposed for seeding/hashing helpers. */
std::uint64_t splitmix64(std::uint64_t &state);

/** Stateless 64-bit mix (useful to hash coordinates into seeds). */
std::uint64_t hashMix(std::uint64_t x);

/** FNV-1a 64-bit string hash (names -> RNG stream ids). */
std::uint64_t hashString(std::string_view text);

} // namespace utrr

#endif // UTRR_COMMON_RNG_HH
