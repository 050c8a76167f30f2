#include "linalg/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace thermo::linalg {

SparseMatrix::Builder::Builder(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols) {}

void SparseMatrix::Builder::reserve(std::size_t entries) {
  coo_rows_.reserve(entries);
  coo_cols_.reserve(entries);
  coo_values_.reserve(entries);
}

void SparseMatrix::Builder::add(std::size_t row, std::size_t col, double value) {
  THERMO_REQUIRE(row < rows_ && col < cols_, "sparse add: index out of range");
  coo_rows_.push_back(row);
  coo_cols_.push_back(col);
  coo_values_.push_back(value);
}

SparseMatrix SparseMatrix::Builder::build() const {
  SparseMatrix m;
  m.rows_ = rows_;
  m.cols_ = cols_;

  // Order the COO triplets by (row, col, insertion index): a stable
  // counting sort by row, then each row's (col, insertion index) pairs
  // sorted. The pairs are unique, so that is the stable sort by column,
  // and duplicate stamps at one (row, col) are summed in the exact
  // order add() saw them — assembly through the builder is
  // bit-identical to summing the same stamps into a dense accumulator,
  // which keeps golden serve records byte-stable.
  const std::size_t count = coo_rows_.size();
  std::vector<std::size_t> row_start(rows_ + 1, 0);
  for (const std::size_t r : coo_rows_) ++row_start[r + 1];
  for (std::size_t r = 0; r < rows_; ++r) row_start[r + 1] += row_start[r];
  std::vector<std::pair<std::size_t, std::size_t>> slots(count);
  std::vector<std::size_t> next(row_start.begin(), row_start.end() - 1);
  for (std::size_t k = 0; k < count; ++k) {
    slots[next[coo_rows_[k]]++] = {coo_cols_[k], k};
  }

  m.row_offsets_.assign(rows_ + 1, 0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const auto begin =
        slots.begin() + static_cast<std::ptrdiff_t>(row_start[r]);
    const auto end =
        slots.begin() + static_cast<std::ptrdiff_t>(row_start[r + 1]);
    std::sort(begin, end);
    for (auto it = begin; it != end; ++it) {
      const double v = coo_values_[it->second];
      // Merge duplicates: same column as the previous entry of the row.
      if (it != begin && it->first == (it - 1)->first) {
        m.values_.back() += v;
        continue;
      }
      m.col_indices_.push_back(it->first);
      m.values_.push_back(v);
    }
    m.row_offsets_[r + 1] = m.col_indices_.size();
  }
  return m;
}

double SparseMatrix::at(std::size_t row, std::size_t col) const {
  THERMO_REQUIRE(row < rows_ && col < cols_, "sparse at: index out of range");
  const auto begin = col_indices_.begin() +
                     static_cast<std::ptrdiff_t>(row_offsets_[row]);
  const auto end = col_indices_.begin() +
                   static_cast<std::ptrdiff_t>(row_offsets_[row + 1]);
  const auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return 0.0;
  return values_[static_cast<std::size_t>(it - col_indices_.begin())];
}

bool SparseMatrix::is_symmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      if (std::fabs(values_[k] - at(col_indices_[k], r)) > tol) return false;
    }
  }
  return true;
}

}  // namespace thermo::linalg
