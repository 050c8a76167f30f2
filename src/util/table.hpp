// ASCII table and CSV report writers. Bench binaries use these to print
// the paper's tables/series in both human- and machine-readable form.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace thermo {

/// A rectangular table of strings with a header row. Rows are padded to
/// the header width with empty cells.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Appends a row; it must not be wider than the header.
  void add_row(std::vector<std::string> row);

  const std::vector<std::string>& header() const { return header_; }
  const std::vector<std::string>& row(std::size_t i) const;

  /// Pretty-prints with aligned columns and a separator rule.
  void print(std::ostream& os) const;

  /// Writes RFC-4180-ish CSV (fields containing comma/quote are quoted).
  void print_csv(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Escapes a single CSV field.
std::string csv_escape(const std::string& field);

}  // namespace thermo
