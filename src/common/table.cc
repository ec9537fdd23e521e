#include "common/table.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/log.hh"

namespace unimem {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> row)
{
    if (row.size() != headers_.size()) {
        panic("Table: row arity %zu does not match header arity %zu",
              row.size(), headers_.size());
    }
    rows_.push_back(std::move(row));
}

std::string
Table::num(double v, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

void
Table::print(std::ostream& os) const
{
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto& row : rows_)
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto print_row = [&](const std::vector<std::string>& row) {
        for (size_t c = 0; c < row.size(); ++c) {
            os << (c == 0 ? "| " : " | ") << std::left
               << std::setw(static_cast<int>(widths[c])) << row[c];
        }
        os << " |\n";
    };

    print_row(headers_);
    os << "|";
    for (size_t c = 0; c < headers_.size(); ++c)
        os << std::string(widths[c] + 2, '-') << "|";
    os << "\n";
    for (const auto& row : rows_)
        print_row(row);
}

} // namespace unimem
