#include "src/metrics/table.h"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <utility>

namespace odyssey {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::AddRow(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

void Table::Print(std::ostream& os) const {
  std::vector<size_t> widths(header_.size());
  for (size_t i = 0; i < header_.size(); ++i) {
    widths[i] = header_[i].size();
  }
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }

  const auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      os << (i == 0 ? "" : "  ");
      os << row[i];
      if (i + 1 < row.size()) {  // no trailing whitespace after the last column
        os << std::string(widths[i] - row[i].size(), ' ');
      }
    }
    os << "\n";
  };

  print_row(header_);
  size_t total = 0;
  for (size_t i = 0; i < widths.size(); ++i) {
    total += widths[i] + (i == 0 ? 0 : 2);
  }
  os << std::string(total, '-') << "\n";
  for (const auto& row : rows_) {
    print_row(row);
  }
}

std::string Table::ToString() const {
  std::ostringstream os;
  Print(os);
  return os.str();
}

}  // namespace odyssey
