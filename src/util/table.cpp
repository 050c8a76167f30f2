#include "util/table.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace thermo {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  THERMO_REQUIRE(!header_.empty(), "table must have at least one column");
}

void Table::add_row(std::vector<std::string> row) {
  THERMO_REQUIRE(row.size() <= header_.size(),
                 "row has more cells than the header");
  row.resize(header_.size());
  rows_.push_back(std::move(row));
}

const std::vector<std::string>& Table::row(std::size_t i) const {
  THERMO_REQUIRE(i < rows_.size(), "row index out of range");
  return rows_[i];
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "| " : " | ");
      os << row[c] << std::string(widths[c] - row[c].size(), ' ');
    }
    os << " |\n";
  };
  print_row(header_);
  os << '|';
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << std::string(widths[c] + 2, '-') << '|';
  }
  os << '\n';
  for (const auto& row : rows_) print_row(row);
}

void Table::print_csv(std::ostream& os) const {
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) os << ',';
      os << csv_escape(row[c]);
    }
    os << '\n';
  };
  print_row(header_);
  for (const auto& row : rows_) print_row(row);
}

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace thermo
