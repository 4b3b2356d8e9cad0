/**
 * @file
 * Plain-text table rendering for benchmark output.
 *
 * Every bench binary regenerates one of the paper's tables or figure
 * series; TextTable prints them with aligned columns so the output can be
 * diffed against EXPERIMENTS.md.
 */

#ifndef UTRR_COMMON_TABLE_HH
#define UTRR_COMMON_TABLE_HH

#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

namespace utrr
{

/**
 * Column-aligned text table with a header row and an optional title.
 */
class TextTable
{
  public:
    explicit TextTable(std::string title = "");

    /** Set the header row. */
    void header(std::vector<std::string> cells);

    /** Append a data row (cells beyond the header width are kept). */
    void row(std::vector<std::string> cells);

    /** Convenience: format arbitrary streamable cells into a row. */
    template <typename... Args>
    void
    addRow(Args &&...args)
    {
        row({cell(std::forward<Args>(args))...});
    }

    /** Render the table to a stream. */
    void print(std::ostream &os) const;

    /** Number of data rows so far. */
    std::size_t rows() const { return data.size(); }

    /** Format one value the way addRow() would. */
    template <typename T>
    static std::string cell(const T &value);

  private:
    std::string title;
    std::vector<std::string> head;
    std::vector<std::vector<std::string>> data;
};

/** Format a double with fixed precision, trimming trailing zeros. */
std::string fmtDouble(double value, int precision = 2);

/** Format a ratio as a percentage string, e.g. 0.9987 -> "99.9%". */
std::string fmtPercent(double fraction, int precision = 1);

template <typename T>
std::string
TextTable::cell(const T &value)
{
    if constexpr (std::is_same_v<T, std::string>) {
        return value;
    } else if constexpr (std::is_convertible_v<T, const char *>) {
        return std::string(value);
    } else if constexpr (std::is_floating_point_v<T>) {
        return fmtDouble(static_cast<double>(value));
    } else {
        return std::to_string(value);
    }
}

} // namespace utrr

#endif // UTRR_COMMON_TABLE_HH
