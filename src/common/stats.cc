#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/logging.hh"

namespace utrr
{

namespace
{

/** Median of values[lo, hi) of a sorted vector. */
double
medianOfRange(const std::vector<double> &values, std::size_t lo,
              std::size_t hi)
{
    const std::size_t n = hi - lo;
    UTRR_ASSERT(n > 0, "median of empty range");
    const std::size_t mid = lo + n / 2;
    if (n % 2 == 1)
        return values[mid];
    return 0.5 * (values[mid - 1] + values[mid]);
}

} // namespace

BoxStats
BoxStats::compute(std::vector<double> values)
{
    BoxStats stats;
    stats.count = values.size();
    if (values.empty())
        return stats;

    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();

    stats.min = values.front();
    stats.max = values.back();
    stats.mean =
        std::accumulate(values.begin(), values.end(), 0.0) /
        static_cast<double>(n);
    stats.median = medianOfRange(values, 0, n);

    // Quartiles as medians of the two halves (exclusive of the overall
    // median for odd n), per the paper's footnote 14.
    const std::size_t half = n / 2;
    if (n == 1) {
        stats.q1 = stats.q3 = values[0];
    } else {
        stats.q1 = medianOfRange(values, 0, half);
        stats.q3 = medianOfRange(values, n % 2 == 0 ? half : half + 1, n);
    }

    const double iqr = stats.q3 - stats.q1;
    const double lo_fence = stats.q1 - 1.5 * iqr;
    const double hi_fence = stats.q3 + 1.5 * iqr;

    // Whiskers clamp to the most extreme data points inside the fences.
    stats.whiskerLo = stats.max;
    stats.whiskerHi = stats.min;
    stats.outliers = 0;
    for (double v : values) {
        if (v < lo_fence || v > hi_fence) {
            ++stats.outliers;
        } else {
            stats.whiskerLo = std::min(stats.whiskerLo, v);
            stats.whiskerHi = std::max(stats.whiskerHi, v);
        }
    }
    return stats;
}

std::string
BoxStats::summary() const
{
    std::ostringstream oss;
    oss << min << "/" << q1 << "/" << median << "/" << q3 << "/" << max;
    return oss.str();
}

void
Histogram::add(std::int64_t value, std::uint64_t weight)
{
    counts[value] += weight;
    totalCount += weight;
}

std::uint64_t
Histogram::countOf(std::int64_t value) const
{
    const auto it = counts.find(value);
    return it == counts.end() ? 0 : it->second;
}

std::uint64_t
Histogram::total() const
{
    return totalCount;
}

std::int64_t
Histogram::maxValue() const
{
    return counts.empty() ? 0 : counts.rbegin()->first;
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
        static_cast<double>(values.size());
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank =
        (p / 100.0) * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = static_cast<std::size_t>(std::ceil(rank));
    const double frac = rank - std::floor(rank);
    return values[lo] + frac * (values[hi] - values[lo]);
}

} // namespace utrr
