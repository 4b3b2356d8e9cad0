#include "core/row_group.hh"

#include "common/logging.hh"

namespace utrr
{

RowGroupLayout
RowGroupLayout::parse(const std::string &text)
{
    RowGroupLayout layout;
    layout.layoutText = text;
    UTRR_ASSERT(!text.empty(), "empty layout");
    int offset = 0;
    for (char c : text) {
        switch (c) {
          case 'R':
          case 'r':
            layout.rOffsets.push_back(offset);
            ++offset;
            break;
          case '-':
            layout.gaps.push_back(offset);
            ++offset;
            break;
          default:
            fatal(logFmt("bad layout character '", c, "' in \"", text,
                         "\"; use 'R' and '-'"));
        }
    }
    layout.spanRows = offset;
    UTRR_ASSERT(!layout.rOffsets.empty(),
                "layout needs at least one profiled row");
    return layout;
}

std::vector<Row>
RowGroup::gapPhysRows() const
{
    std::vector<Row> rows;
    for (int gap : layout.gapOffsets())
        rows.push_back(basePhysRow + gap);
    return rows;
}

} // namespace utrr
