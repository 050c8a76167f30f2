// Compressed-sparse-row matrix with a COO-style builder. Thermal
// conductance matrices are ~5 non-zeros per row; every solve factors
// them sparsely (sparse_cholesky.hpp).
#pragma once

#include <cstddef>
#include <vector>

namespace thermo::linalg {

using Vector = std::vector<double>;

class SparseMatrix {
 public:
  /// Empty 0x0 matrix.
  SparseMatrix() = default;

  /// Incremental COO builder; duplicate (row, col) entries are summed
  /// when the CSR matrix is built (natural for stamping conductances).
  /// Duplicates are merged in insertion order (the sort is stable), so
  /// a builder-assembled matrix is bit-identical to accumulating the
  /// same stamps into a dense matrix and converting.
  class Builder {
   public:
    Builder(std::size_t rows, std::size_t cols);
    /// Pre-allocates triplet storage for `entries` add() calls.
    void reserve(std::size_t entries);
    /// Adds `value` at (row, col).
    void add(std::size_t row, std::size_t col, double value);
    SparseMatrix build() const;

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

   private:
    std::size_t rows_;
    std::size_t cols_;
    std::vector<std::size_t> coo_rows_;
    std::vector<std::size_t> coo_cols_;
    std::vector<double> coo_values_;
  };

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nonzeros() const { return values_.size(); }

  /// Entry lookup (binary search within the row); 0 if absent.
  double at(std::size_t row, std::size_t col) const;

  bool is_symmetric(double tol = 1e-12) const;

  const std::vector<std::size_t>& row_offsets() const { return row_offsets_; }
  const std::vector<std::size_t>& col_indices() const { return col_indices_; }
  const std::vector<double>& values() const { return values_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_offsets_;  // size rows_ + 1
  std::vector<std::size_t> col_indices_;  // sorted within each row
  std::vector<double> values_;
};

}  // namespace thermo::linalg
