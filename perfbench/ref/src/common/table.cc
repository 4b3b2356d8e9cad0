#include "common/table.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace utrr
{

TextTable::TextTable(std::string title) : title(std::move(title))
{
}

void
TextTable::header(std::vector<std::string> cells)
{
    head = std::move(cells);
}

void
TextTable::row(std::vector<std::string> cells)
{
    data.push_back(std::move(cells));
}

void
TextTable::print(std::ostream &os) const
{
    // Compute column widths over header + data.
    std::vector<std::size_t> widths;
    auto grow = [&widths](const std::vector<std::string> &cells) {
        if (cells.size() > widths.size())
            widths.resize(cells.size(), 0);
        for (std::size_t i = 0; i < cells.size(); ++i)
            widths[i] = std::max(widths[i], cells[i].size());
    };
    grow(head);
    for (const auto &r : data)
        grow(r);

    std::size_t total = 0;
    for (std::size_t w : widths)
        total += w + 3;

    if (!title.empty()) {
        os << "\n== " << title << " ==\n";
    }
    auto emit = [&](const std::vector<std::string> &cells) {
        for (std::size_t i = 0; i < widths.size(); ++i) {
            const std::string &text = i < cells.size() ? cells[i] : "";
            os << std::left << std::setw(static_cast<int>(widths[i]))
               << text;
            if (i + 1 < widths.size())
                os << " | ";
        }
        os << "\n";
    };
    if (!head.empty()) {
        emit(head);
        os << std::string(total > 3 ? total - 3 : total, '-') << "\n";
    }
    for (const auto &r : data)
        emit(r);
    os.flush();
}

std::string
fmtDouble(double value, int precision)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision) << value;
    std::string text = oss.str();
    if (text.find('.') != std::string::npos) {
        while (!text.empty() && text.back() == '0')
            text.pop_back();
        if (!text.empty() && text.back() == '.')
            text.pop_back();
    }
    return text;
}

std::string
fmtPercent(double fraction, int precision)
{
    return fmtDouble(fraction * 100.0, precision) + "%";
}

} // namespace utrr
