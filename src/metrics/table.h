// Plain-text table formatting for `ody_bench table`, matching the
// row/column structure of the paper's figures.

#ifndef SRC_METRICS_TABLE_H_
#define SRC_METRICS_TABLE_H_

#include <iosfwd>
#include <string>
#include <vector>

namespace odyssey {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void AddRow(std::vector<std::string> cells);

  // Renders with column alignment and a separator under the header.
  void Print(std::ostream& os) const;
  std::string ToString() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace odyssey

#endif  // SRC_METRICS_TABLE_H_
