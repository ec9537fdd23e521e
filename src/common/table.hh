/**
 * @file
 * ASCII table formatter used by the tools to print paper-style result
 * tables.
 */

#ifndef UNIMEM_COMMON_TABLE_HH
#define UNIMEM_COMMON_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace unimem {

/** Column-aligned ASCII table with a header row. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Append a row; must have the same arity as the header. */
    void addRow(std::vector<std::string> row);

    /** Convenience: format a double with @p precision decimals. */
    static std::string num(double v, int precision = 2);

    /** Render as aligned ASCII columns with a separator rule. */
    void print(std::ostream& os) const;

    size_t numRows() const { return rows_.size(); }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace unimem

#endif // UNIMEM_COMMON_TABLE_HH
