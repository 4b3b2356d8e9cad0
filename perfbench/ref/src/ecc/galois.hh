/**
 * @file
 * GF(2^8) arithmetic for the Reed-Solomon and Chipkill codes used in
 * the ECC-bypass analysis (paper §7.4).
 *
 * The field is GF(256) with the primitive polynomial
 * x^8 + x^4 + x^3 + x^2 + 1 (0x11D) and generator alpha = 2.
 */

#ifndef UTRR_ECC_GALOIS_HH
#define UTRR_ECC_GALOIS_HH

#include <array>
#include <cstdint>

namespace utrr
{

/**
 * GF(2^8) arithmetic with precomputed log/antilog tables.
 */
class Gf256
{
  public:
    using Elem = std::uint8_t;

    /** Addition (= subtraction) is XOR. */
    static Elem add(Elem a, Elem b) { return a ^ b; }

    /** Multiplication via log tables. */
    static Elem mul(Elem a, Elem b);

    /** Division a / b; b must be nonzero. */
    static Elem div(Elem a, Elem b);

    /** Multiplicative inverse; a must be nonzero. */
    static Elem inv(Elem a);

    /** alpha^power (power may exceed 255; reduced mod 255). */
    static Elem expAlpha(int power);

    /** Discrete log base alpha; a must be nonzero. */
    static int logAlpha(Elem a);

    /** a^n for integer n >= 0. */
    static Elem pow(Elem a, int n);

  private:
    struct Tables
    {
        std::array<Elem, 512> exp{};
        std::array<int, 256> log{};
        Tables();
    };
    static const Tables &tables();
};

} // namespace utrr

#endif // UTRR_ECC_GALOIS_HH
