#include "linalg/sparse.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <vector>

#include "oracles/iterative.hpp"
#include "oracles/lu.hpp"
#include "oracles/sparse_ops.hpp"
#include "oracles/vector_ops.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace thermo::linalg {
namespace {

SparseMatrix laplacian_chain(std::size_t n) {
  // 1-D resistor chain grounded at both ends: SPD and diagonally dominant.
  SparseMatrix::Builder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    builder.add(i, i, 2.0 + 0.1 * static_cast<double>(i % 3));
    if (i + 1 < n) {
      builder.add(i, i + 1, -1.0);
      builder.add(i + 1, i, -1.0);
    }
  }
  return builder.build();
}

TEST(Sparse, BuilderSumsDuplicates) {
  SparseMatrix::Builder builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(0, 0, 2.5);
  builder.add(1, 0, -1.0);
  const SparseMatrix m = builder.build();
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(m.at(1, 0), -1.0);
  EXPECT_EQ(m.nonzeros(), 2u);
}

TEST(Sparse, BuilderRejectsOutOfRange) {
  SparseMatrix::Builder builder(2, 2);
  EXPECT_THROW(builder.add(2, 0, 1.0), InvalidArgument);
  EXPECT_THROW(builder.add(0, 2, 1.0), InvalidArgument);
}

TEST(Sparse, EmptyRowsAreHandled) {
  SparseMatrix::Builder builder(3, 3);
  builder.add(2, 2, 1.0);  // rows 0 and 1 empty
  const SparseMatrix m = builder.build();
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.at(2, 2), 1.0);
  const Vector y = multiply(m, {1.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[2], 2.0);
}

TEST(Sparse, MatVecMatchesDense) {
  Rng rng(6);
  DenseMatrix dense(7, 7, 0.0);
  for (int k = 0; k < 20; ++k) {
    dense(rng.uniform_index(7), rng.uniform_index(7)) = rng.uniform(-2.0, 2.0);
  }
  const SparseMatrix sparse = from_dense(dense);
  Vector x(7);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  EXPECT_LT(norm_inf(subtract(dense.multiply(x), multiply(sparse, x))), 1e-14);
}

TEST(Sparse, FromDenseDropsZeros) {
  DenseMatrix dense(2, 2, 0.0);
  dense(0, 0) = 1.0;
  EXPECT_EQ(from_dense(dense).nonzeros(), 1u);
}

TEST(Sparse, ToDenseRoundTrip) {
  const SparseMatrix m = laplacian_chain(5);
  const SparseMatrix again = from_dense(to_dense(m));
  EXPECT_EQ(again.nonzeros(), m.nonzeros());
  EXPECT_DOUBLE_EQ(again.at(2, 3), m.at(2, 3));
}

TEST(Sparse, DiagonalExtraction) {
  const SparseMatrix m = laplacian_chain(4);
  const Vector d = diagonal(m);
  ASSERT_EQ(d.size(), 4u);
  EXPECT_DOUBLE_EQ(d[0], 2.0);
  EXPECT_DOUBLE_EQ(d[1], 2.1);
}

TEST(Sparse, SymmetryCheck) {
  EXPECT_TRUE(laplacian_chain(6).is_symmetric());
  SparseMatrix::Builder builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(1, 1, 1.0);
  builder.add(0, 1, 0.5);
  EXPECT_FALSE(builder.build().is_symmetric());
}

TEST(Iterative, CgMatchesLuOnChain) {
  const SparseMatrix a = laplacian_chain(30);
  Vector b(30, 1.0);
  const IterativeResult cg = conjugate_gradient(a, b);
  EXPECT_TRUE(cg.converged);
  const Vector x_lu = lu_solve(to_dense(a), b);
  EXPECT_LT(norm_inf(subtract(cg.solution, x_lu)), 1e-6);
}

TEST(Iterative, ZeroRhsIsImmediatelyConverged) {
  const SparseMatrix a = laplacian_chain(5);
  const IterativeResult cg = conjugate_gradient(a, Vector(5, 0.0));
  EXPECT_TRUE(cg.converged);
  EXPECT_EQ(cg.iterations, 0u);
  EXPECT_LT(norm2(cg.solution), 1e-15);
}

TEST(Iterative, CgRejectsIndefiniteMatrix) {
  SparseMatrix::Builder builder(2, 2);
  builder.add(0, 0, 1.0);
  builder.add(1, 1, -1.0);
  EXPECT_THROW(conjugate_gradient(builder.build(), {1.0, 1.0}),
               NumericalError);
}

TEST(Iterative, ZeroDiagonalThrows) {
  SparseMatrix::Builder builder(2, 2);
  builder.add(0, 1, 1.0);
  builder.add(1, 0, 1.0);
  const SparseMatrix a = builder.build();
  EXPECT_THROW(conjugate_gradient(a, {1.0, 1.0}), NumericalError);
}

TEST(Iterative, IterationCapReportsNonConvergence) {
  const SparseMatrix a = laplacian_chain(40);
  IterativeOptions options;
  options.max_iterations = 1;
  options.tolerance = 1e-14;
  const IterativeResult r = conjugate_gradient(a, Vector(40, 1.0), options);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 1u);
}

TEST(Iterative, RhsSizeMismatchThrows) {
  const SparseMatrix a = laplacian_chain(4);
  EXPECT_THROW(conjugate_gradient(a, Vector(3, 1.0)), InvalidArgument);
}

// Brute-force reference for Builder::build: the index sort by (row,
// col, insertion index) the builder first used, then a merge that sums
// each (row, col) run in insertion order.
struct Triplet {
  std::size_t row;
  std::size_t col;
  double value;
};

struct ReferenceCsr {
  std::vector<std::size_t> offsets;
  std::vector<std::size_t> cols;
  std::vector<double> values;
};

ReferenceCsr reference_csr(std::size_t rows, const std::vector<Triplet>& coo) {
  std::vector<std::size_t> order(coo.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (coo[a].row != coo[b].row) return coo[a].row < coo[b].row;
    if (coo[a].col != coo[b].col) return coo[a].col < coo[b].col;
    return a < b;
  });
  ReferenceCsr out;
  out.offsets.assign(rows + 1, 0);
  std::size_t last_row = rows;
  for (const std::size_t k : order) {
    const Triplet& t = coo[k];
    if (t.row == last_row && !out.cols.empty() && out.cols.back() == t.col) {
      out.values.back() += t.value;
      continue;
    }
    out.cols.push_back(t.col);
    out.values.push_back(t.value);
    out.offsets[t.row + 1] = out.cols.size();
    last_row = t.row;
  }
  for (std::size_t r = 1; r <= rows; ++r) {
    out.offsets[r] = std::max(out.offsets[r], out.offsets[r - 1]);
  }
  return out;
}

void expect_build_matches_reference(std::size_t rows, std::size_t cols,
                                    const std::vector<Triplet>& coo) {
  SparseMatrix::Builder builder(rows, cols);
  for (const Triplet& t : coo) builder.add(t.row, t.col, t.value);
  const SparseMatrix m = builder.build();
  const ReferenceCsr want = reference_csr(rows, coo);
  EXPECT_EQ(m.row_offsets(), want.offsets);
  EXPECT_EQ(m.col_indices(), want.cols);
  ASSERT_EQ(m.values().size(), want.values.size());
  for (std::size_t k = 0; k < want.values.size(); ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m.values()[k]),
              std::bit_cast<std::uint64_t>(want.values[k]))
        << "entry " << k;
  }
}

/// Stamp values whose sum depends on the order they are added in.
double order_sensitive_value(Rng& rng) {
  const double magnitudes[] = {1e16, -1e16, 1.0, 3.25, -0.1, 1e-3, 7e15};
  return magnitudes[rng.uniform_index(7)] * rng.uniform(0.5, 1.5);
}

TEST(SparseOracle, BuildMatchesIndexSortOnShuffledDuplicates) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed);
    const std::size_t rows = 1 + rng.uniform_index(60);
    const std::size_t cols = 1 + rng.uniform_index(60);
    std::vector<Triplet> coo;
    for (std::size_t e = 0; e < 400; ++e) {
      const Triplet t{rng.uniform_index(rows), rng.uniform_index(cols),
                      order_sensitive_value(rng)};
      // Most positions get several stamps.
      const std::size_t stamps = 1 + rng.uniform_index(4);
      for (std::size_t s = 0; s < stamps; ++s) {
        coo.push_back({t.row, t.col, order_sensitive_value(rng)});
      }
    }
    rng.shuffle(coo);
    expect_build_matches_reference(rows, cols, coo);
  }
}

TEST(SparseOracle, BuildMatchesIndexSortOnALongReversedRow) {
  // One 6000-column row stamped in reverse column order, every tenth
  // column stamped twice more later, between two short rows and an
  // empty one.
  const std::size_t cols = 6000;
  Rng rng(77);
  std::vector<Triplet> coo;
  coo.push_back({0, 5, 1.0});
  for (std::size_t c = cols; c-- > 0;) {
    coo.push_back({1, c, order_sensitive_value(rng)});
  }
  for (std::size_t c = cols; c-- > 0;) {
    if (c % 10 == 0) coo.push_back({1, c, order_sensitive_value(rng)});
  }
  for (std::size_t c = 0; c < cols; c += 10) {
    coo.push_back({1, c, order_sensitive_value(rng)});
  }
  coo.push_back({3, 2, 2.0});
  coo.push_back({0, 1, -1.0});
  expect_build_matches_reference(4, cols, coo);
}

TEST(SparseOracle, EmptyBuilderGivesZeroOffsets) {
  expect_build_matches_reference(3, 3, {});
  expect_build_matches_reference(0, 0, {});
}

}  // namespace
}  // namespace thermo::linalg
