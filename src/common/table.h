// Aligned text-table and CSV writers used by the benchmark harnesses to
// print the paper's tables and figure series in a uniform format.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace parcae {

// Collects rows of string cells and renders them with aligned columns.
// Numeric convenience overloads format with a fixed precision.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  // Begin a new row; subsequent add() calls append cells to it.
  TextTable& row();
  TextTable& add(const std::string& cell);
  TextTable& add(const char* cell);
  TextTable& add(double value, int precision = 2);
  TextTable& add(long long value);
  TextTable& add(int value);
  TextTable& add(std::size_t value);

  // Render with two-space column gaps and a separator under the header.
  std::string to_string() const;
  void print(std::ostream& os) const;

  // Render the same content as CSV (no alignment, comma-separated,
  // cells containing commas/quotes are quoted).
  std::string to_csv() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Format helpers shared by benches.
std::string format_double(double v, int precision);
std::string format_si(double v, int precision = 2);  // 1.2k, 3.4M, ...

}  // namespace parcae
