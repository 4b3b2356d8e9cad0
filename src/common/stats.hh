/**
 * @file
 * Descriptive statistics used by the benchmark harnesses.
 *
 * The paper reports its headline results as box-and-whisker plots
 * (Figs. 8 and 10): first/third quartile box, median, whiskers at
 * 1.5*IQR, and outliers. BoxStats reproduces exactly that summary so a
 * bench binary can print the same series the figures show.
 */

#ifndef UTRR_COMMON_STATS_HH
#define UTRR_COMMON_STATS_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace utrr
{

/**
 * Five-number box-and-whisker summary matching the paper's footnote 14:
 * quartiles are the medians of the lower/upper halves of the sorted data,
 * whiskers sit at 1.5*IQR beyond the box (clamped to observed points),
 * values outside the whiskers are outliers.
 */
struct BoxStats
{
    std::size_t count = 0;
    double min = 0.0;
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
    double max = 0.0;
    double whiskerLo = 0.0;
    double whiskerHi = 0.0;
    double mean = 0.0;
    std::size_t outliers = 0;

    /** Compute the summary of a sample (copies + sorts internally). */
    static BoxStats compute(std::vector<double> values);

    /** Render as "min/q1/med/q3/max" style text for table output. */
    std::string summary() const;
};

/**
 * Integer-valued histogram, used e.g. for "number of 8-byte words with k
 * bit flips" (Fig. 10).
 */
class Histogram
{
  public:
    /** Record one observation of the given integer value. */
    void add(std::int64_t value, std::uint64_t weight = 1);

    /** Number of observations of exactly @p value. */
    std::uint64_t countOf(std::int64_t value) const;

    /** Total number of observations. */
    std::uint64_t total() const;

    /** Largest value observed (0 if empty). */
    std::int64_t maxValue() const;

    /** All (value, count) pairs in ascending value order. */
    const std::map<std::int64_t, std::uint64_t> &bins() const
    {
        return counts;
    }

  private:
    std::map<std::int64_t, std::uint64_t> counts;
    std::uint64_t totalCount = 0;
};

/** Arithmetic mean (0 for empty input). */
double mean(const std::vector<double> &values);

/** Percentile via linear interpolation, p in [0, 100]. */
double percentile(std::vector<double> values, double p);

} // namespace utrr

#endif // UTRR_COMMON_STATS_HH
