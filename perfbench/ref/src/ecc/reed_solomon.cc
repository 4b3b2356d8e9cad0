#include "ecc/reed_solomon.hh"

#include <algorithm>

#include "common/logging.hh"

namespace utrr
{

namespace
{

using Elem = Gf256::Elem;

/** Evaluate a polynomial (lowest degree first) at x. */
Elem
polyEval(const std::vector<Elem> &poly, Elem x)
{
    Elem result = 0;
    Elem power = 1;
    for (Elem coeff : poly) {
        result = Gf256::add(result, Gf256::mul(coeff, power));
        power = Gf256::mul(power, x);
    }
    return result;
}

} // namespace

ReedSolomon::ReedSolomon(int n, int k, int t) : nLen(n), kLen(k)
{
    UTRR_ASSERT(n > k && k > 0 && n <= 255, "bad RS parameters");
    tCap = t >= 0 ? t : (n - k) / 2;
    UTRR_ASSERT(tCap <= (n - k) / 2, "t exceeds (n-k)/2");

    // g(x) = prod_{i=0}^{n-k-1} (x - alpha^i), lowest degree first.
    gen = {1};
    for (int i = 0; i < n - k; ++i) {
        const Elem root = Gf256::expAlpha(i);
        std::vector<Elem> next(gen.size() + 1, 0);
        for (std::size_t j = 0; j < gen.size(); ++j) {
            next[j + 1] = Gf256::add(next[j + 1], gen[j]); // x * gen
            next[j] = Gf256::add(next[j], Gf256::mul(gen[j], root));
        }
        gen = std::move(next);
    }
}

std::vector<Elem>
ReedSolomon::encode(const std::vector<Elem> &data) const
{
    UTRR_ASSERT(static_cast<int>(data.size()) == kLen,
                "data must have k symbols");
    // Systematic encoding: codeword = [data | remainder], where
    // remainder = (data(x) * x^(n-k)) mod g(x).
    const int parity = nLen - kLen;
    std::vector<Elem> rem(static_cast<std::size_t>(parity), 0);
    // Process data symbols from highest degree (data[0] is the highest
    // degree symbol in the shifted message polynomial).
    for (int i = 0; i < kLen; ++i) {
        const Elem feedback = Gf256::add(data[static_cast<std::size_t>(i)],
                                         rem[static_cast<std::size_t>(
                                             parity - 1)]);
        // Shift remainder up by one and add feedback * g.
        for (int j = parity - 1; j > 0; --j) {
            rem[static_cast<std::size_t>(j)] = Gf256::add(
                rem[static_cast<std::size_t>(j - 1)],
                Gf256::mul(feedback,
                           gen[static_cast<std::size_t>(j)]));
        }
        rem[0] = Gf256::mul(feedback, gen[0]);
    }

    std::vector<Elem> codeword(data);
    // Parity appended highest-degree-first to keep the polynomial
    // convention consistent in decode().
    for (int j = parity - 1; j >= 0; --j)
        codeword.push_back(rem[static_cast<std::size_t>(j)]);
    return codeword;
}

std::vector<Elem>
ReedSolomon::syndromes(const std::vector<Elem> &received) const
{
    // Treat received[0] as the highest-degree coefficient.
    std::vector<Elem> synd(static_cast<std::size_t>(nLen - kLen), 0);
    for (int i = 0; i < nLen - kLen; ++i) {
        const Elem x = Gf256::expAlpha(i);
        Elem value = 0;
        for (const Elem symbol : received)
            value = Gf256::add(Gf256::mul(value, x), symbol);
        synd[static_cast<std::size_t>(i)] = value;
    }
    return synd;
}

RsDecodeResult
ReedSolomon::decode(const std::vector<Elem> &received) const
{
    UTRR_ASSERT(static_cast<int>(received.size()) == nLen,
                "received word must have n symbols");
    RsDecodeResult result;
    result.codeword = received;

    const std::vector<Elem> synd = syndromes(received);
    const bool clean = std::all_of(synd.begin(), synd.end(),
                                   [](Elem s) { return s == 0; });
    if (clean) {
        result.status = RsDecodeResult::Status::kClean;
        return result;
    }

    // Berlekamp-Massey: find the error locator polynomial sigma
    // (lowest degree first).
    std::vector<Elem> sigma = {1};
    std::vector<Elem> prev = {1};
    int l = 0;
    int m = 1;
    Elem b = 1;
    for (int iter = 0; iter < nLen - kLen; ++iter) {
        Elem delta = synd[static_cast<std::size_t>(iter)];
        for (int j = 1; j <= l; ++j) {
            if (j < static_cast<int>(sigma.size())) {
                delta = Gf256::add(
                    delta,
                    Gf256::mul(sigma[static_cast<std::size_t>(j)],
                               synd[static_cast<std::size_t>(
                                   iter - j)]));
            }
        }
        if (delta == 0) {
            ++m;
            continue;
        }
        const std::vector<Elem> sigma_copy = sigma;
        // sigma = sigma - (delta/b) * x^m * prev
        const Elem coeff = Gf256::div(delta, b);
        if (sigma.size() < prev.size() + static_cast<std::size_t>(m))
            sigma.resize(prev.size() + static_cast<std::size_t>(m), 0);
        for (std::size_t j = 0; j < prev.size(); ++j) {
            sigma[j + static_cast<std::size_t>(m)] = Gf256::add(
                sigma[j + static_cast<std::size_t>(m)],
                Gf256::mul(coeff, prev[j]));
        }
        if (2 * l <= iter) {
            l = iter + 1 - l;
            prev = sigma_copy;
            b = delta;
            m = 1;
        } else {
            ++m;
        }
    }

    const int degree = l;
    if (degree > tCap) {
        result.status = RsDecodeResult::Status::kDetected;
        return result;
    }

    // Chien search: roots of sigma give error positions. received[i]
    // has polynomial degree n-1-i, and sigma's roots are alpha^{-deg}.
    std::vector<int> error_positions;
    for (int i = 0; i < nLen; ++i) {
        const int deg = nLen - 1 - i;
        const Elem x = Gf256::expAlpha(-deg); // alpha^{-deg}
        if (polyEval(sigma, x) == 0)
            error_positions.push_back(i);
    }
    if (static_cast<int>(error_positions.size()) != degree) {
        result.status = RsDecodeResult::Status::kDetected;
        return result;
    }

    // Forney: error evaluator omega = (synd * sigma) mod x^{n-k}
    // (syndromes as a polynomial, lowest degree first).
    std::vector<Elem> omega(static_cast<std::size_t>(nLen - kLen), 0);
    for (std::size_t i = 0; i < omega.size(); ++i) {
        Elem value = 0;
        for (std::size_t j = 0; j <= i && j < sigma.size(); ++j) {
            value = Gf256::add(value,
                               Gf256::mul(sigma[j], synd[i - j]));
        }
        omega[i] = value;
    }

    // Formal derivative of sigma.
    std::vector<Elem> sigma_prime;
    for (std::size_t j = 1; j < sigma.size(); ++j)
        sigma_prime.push_back(j % 2 == 1 ? sigma[j] : 0);

    for (int pos : error_positions) {
        const int deg = nLen - 1 - pos;
        const Elem x_inv = Gf256::expAlpha(-deg);
        const Elem denom = polyEval(sigma_prime, x_inv);
        if (denom == 0) {
            result.status = RsDecodeResult::Status::kDetected;
            return result;
        }
        const Elem num = polyEval(omega, x_inv);
        // Error magnitude for a code with syndromes starting at
        // alpha^0: e = X * omega(X^-1) / sigma'(X^-1).
        const Elem magnitude = Gf256::mul(
            Gf256::expAlpha(deg), Gf256::div(num, denom));
        result.codeword[static_cast<std::size_t>(pos)] = Gf256::add(
            result.codeword[static_cast<std::size_t>(pos)], magnitude);
    }

    // Sanity: the corrected word must be a codeword; otherwise report
    // detection rather than hand back garbage.
    const std::vector<Elem> check = syndromes(result.codeword);
    const bool ok = std::all_of(check.begin(), check.end(),
                                [](Elem s) { return s == 0; });
    if (!ok) {
        result.codeword = received;
        result.status = RsDecodeResult::Status::kDetected;
        return result;
    }
    result.status = RsDecodeResult::Status::kCorrected;
    result.symbolsCorrected = degree;
    return result;
}

} // namespace utrr
