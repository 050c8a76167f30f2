// SparseCholeskyFactor: the sparse LDLᵗ must agree with the dense
// factorizations on the same matrix, reject non-SPD input and a matrix
// whose pattern is not its analysis's, produce the expected fill for
// structures we can reason about, give the bits of the pre-split
// reference (tests/oracles/reference_cholesky.hpp), and its backward-
// Euler stepper must track the dense LinearImplicitStepper.
#include "linalg/sparse_cholesky.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "linalg/ordering.hpp"
#include "oracles/cholesky.hpp"
#include "oracles/lu.hpp"
#include "oracles/ode.hpp"
#include "oracles/reference_cholesky.hpp"
#include "oracles/sparse_ops.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace thermo::linalg {
namespace {

/// Random sparse symmetric diagonally dominant (hence SPD) matrix:
/// a ring of negative off-diagonals plus `extra` random symmetric
/// couplings, diagonal = |row sum| + margin. Mimics the structure of a
/// grounded thermal conductance matrix.
SparseMatrix random_spd(Rng& rng, std::size_t n, std::size_t extra) {
  std::vector<std::vector<double>> dense(n, std::vector<double>(n, 0.0));
  auto couple = [&](std::size_t i, std::size_t j, double g) {
    dense[i][j] -= g;
    dense[j][i] -= g;
    dense[i][i] += g;
    dense[j][j] += g;
  };
  for (std::size_t i = 0; i < n; ++i) {
    couple(i, (i + 1) % n, rng.uniform(0.5, 2.0));
  }
  for (std::size_t e = 0; e < extra; ++e) {
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<long long>(n) - 1));
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<long long>(n) - 1));
    if (i == j) continue;
    couple(i, j, rng.uniform(0.1, 1.0));
  }
  for (std::size_t i = 0; i < n; ++i) {
    dense[i][i] += rng.uniform(0.05, 0.5);  // grounding: strict dominance
  }
  SparseMatrix::Builder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (dense[i][j] != 0.0) builder.add(i, j, dense[i][j]);
    }
  }
  return builder.build();
}

Vector random_rhs(Rng& rng, std::size_t n) {
  Vector b(n);
  for (double& v : b) v = rng.uniform(-5.0, 5.0);
  return b;
}

double max_rel_diff(const Vector& a, const Vector& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max(1e-30, std::max(std::fabs(a[i]), std::fabs(b[i])));
    worst = std::max(worst, std::fabs(a[i] - b[i]) / scale);
  }
  return worst;
}

TEST(SparseCholeskyTest, MatchesDenseCholeskyOnRandomSpdSystems) {
  Rng rng(42);
  for (std::size_t n : {3u, 10u, 40u, 97u}) {
    const SparseMatrix a = random_spd(rng, n, 2 * n);
    const SparseCholeskyFactor sparse =
        factor_in_order(a, min_degree_ordering(a));
    const CholeskyFactor dense(to_dense(a));
    for (int trial = 0; trial < 3; ++trial) {
      const Vector b = random_rhs(rng, n);
      // Two direct factorizations of a well-conditioned SPD system:
      // the documented agreement bound is 1e-9 relative
      // (docs/SOLVERS.md); these small systems agree far tighter.
      EXPECT_LT(max_rel_diff(sparse.solve(b), dense.solve(b)), 1e-11)
          << "n=" << n << " trial=" << trial;
    }
  }
}

TEST(SparseCholeskyTest, SolveIsDeterministicAcrossCalls) {
  Rng rng(7);
  const SparseMatrix a = random_spd(rng, 50, 100);
  const Vector b = random_rhs(rng, 50);
  const SparseCholeskyFactor f1 = factor_in_order(a, min_degree_ordering(a));
  const SparseCholeskyFactor f2 = factor_in_order(a, min_degree_ordering(a));
  const Vector x1 = f1.solve(b);
  const Vector x2 = f2.solve(b);
  for (std::size_t i = 0; i < x1.size(); ++i) {
    EXPECT_DOUBLE_EQ(x1[i], x2[i]);  // same algorithm, same bits
  }
}

TEST(SparseCholeskyTest, TridiagonalHasNoFill) {
  // A tridiagonal SPD matrix factors with exactly one sub-diagonal
  // entry per column: nnz(L) == n - 1 proves the symbolic analysis is
  // not over-allocating.
  const std::size_t n = 12;
  SparseMatrix::Builder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    builder.add(i, i, 2.5);
    if (i + 1 < n) {
      builder.add(i, i + 1, -1.0);
      builder.add(i + 1, i, -1.0);
    }
  }
  const SparseCholeskyFactor factor = factor_in_order(builder.build(), {});
  EXPECT_EQ(factor.factor_nonzeros(), n - 1);
}

TEST(SparseCholeskyTest, RejectsNonSpdAndBadShapes) {
  SparseMatrix::Builder indefinite(2, 2);
  indefinite.add(0, 0, 1.0);
  indefinite.add(0, 1, 3.0);
  indefinite.add(1, 0, 3.0);
  indefinite.add(1, 1, 1.0);  // eigenvalues 4 and -2
  EXPECT_THROW(factor_in_order(indefinite.build(), {}), NumericalError);

  SparseMatrix::Builder negative(1, 1);
  negative.add(0, 0, -1.0);
  EXPECT_THROW(factor_in_order(negative.build(), {}), NumericalError);

  SparseMatrix::Builder rect(2, 3);
  rect.add(0, 0, 1.0);
  EXPECT_THROW(factor_in_order(rect.build(), {}), InvalidArgument);

  Rng rng(1);
  const SparseCholeskyFactor factor =
      factor_in_order(random_spd(rng, 4, 0), {});
  EXPECT_THROW(factor.solve(Vector(5, 0.0)), InvalidArgument);
  EXPECT_THROW(SparseCholeskyFactor(nullptr, random_spd(rng, 4, 0)),
               InvalidArgument);
}

// A factor reads its matrix's values through the analysis's gather, so
// a matrix of any other pattern (an extra coupling, a missing one, a
// different size) is refused rather than misread; the same pattern with
// other values factors.
TEST(SparseCholeskyTest, RejectsAMatrixOfAnotherPattern) {
  Rng rng(4);
  const SparseMatrix a = random_spd(rng, 12, 6);
  for (const std::vector<std::size_t>& perm :
       {std::vector<std::size_t>{}, min_degree_ordering(a)}) {
    const auto symbolic = std::make_shared<const SymbolicCholesky>(a, perm);
    EXPECT_THROW(SparseCholeskyFactor(symbolic, random_spd(rng, 12, 6)),
                 InvalidArgument);
    EXPECT_THROW(SparseCholeskyFactor(symbolic, random_spd(rng, 13, 6)),
                 InvalidArgument);
    SparseMatrix::Builder fewer(12, 12);
    for (std::size_t i = 0; i < 12; ++i) fewer.add(i, i, 1.0);
    EXPECT_THROW(SparseCholeskyFactor(symbolic, fewer.build()),
                 InvalidArgument);
    SparseMatrix::Builder scaled(12, 12);
    for (std::size_t r = 0; r < 12; ++r) {
      for (std::size_t q = a.row_offsets()[r]; q < a.row_offsets()[r + 1];
           ++q) {
        scaled.add(r, a.col_indices()[q], 2.0 * a.values()[q]);
      }
    }
    const SparseCholeskyFactor twice(symbolic, scaled.build());
    EXPECT_EQ(&twice.symbolic(), symbolic.get());
    // 2A factors to the same L and 2D exactly, so it solves to half.
    const Vector b = random_rhs(rng, 12);
    const Vector x = SparseCholeskyFactor(symbolic, a).solve(b);
    const Vector half = twice.solve(b);
    for (std::size_t i = 0; i < 12; ++i) EXPECT_EQ(x[i], 2.0 * half[i]);
    EXPECT_THROW(
        SparseImplicitStepper(symbolic, random_spd(rng, 12, 6), Vector(12, 1.0),
                              1e-3),
        InvalidArgument);
  }
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The path-solve workspace is all zero, with an empty path, between calls.
void expect_clean(const PathScratch& scratch, std::size_t n) {
  EXPECT_EQ(scratch.x, Vector(n, 0.0));
  EXPECT_EQ(scratch.on_path, std::vector<unsigned char>(n, 0));
  EXPECT_TRUE(scratch.path.empty());
}

/// x[i] of A x = b·eᵢ by the path solve on S = {i}.
double solve_entry(const SparseCholeskyFactor& factor, std::size_t i, double b,
                   PathScratch& scratch) {
  factor.solve_subset({&i, 1}, {&b, 1}, scratch);
  return b;
}

/// The path solve on S = {i} against solve(b·eᵢ)[i], bit for bit, at
/// every node and for a random b and b = +0, with the scratch checked
/// all zero after every call. Why the bits agree: with b·eᵢ as
/// right-hand side every entry off i's elimination-tree path stays +0 in
/// the full solve, so each update the path solve skips is x − v·(±0) —
/// an exact no-op that also leaves a +0 as +0 — and every update it
/// keeps runs on the same operands in the same order as in solve().
void expect_entry_solves_match(const SparseCholeskyFactor& factor, Rng& rng) {
  const std::size_t n = factor.size();
  PathScratch scratch(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double b = rng.uniform(-5.0, 5.0);
    Vector rhs(n, 0.0);
    rhs[i] = b;
    EXPECT_EQ(bits(solve_entry(factor, i, b, scratch)),
              bits(factor.solve(rhs)[i]))
        << "n=" << n << " i=" << i;
    expect_clean(scratch, n);
    EXPECT_EQ(bits(solve_entry(factor, i, 0.0, scratch)), bits(0.0))
        << "n=" << n << " i=" << i;
    expect_clean(scratch, n);
  }
}

/// solve_subset(S, b_S) against solve(b) on S, bit for bit, for random
/// sets S of every size 1…n in random order, with b supported on S
/// (some of its entries +0). The argument of expect_entry_solves_match
/// carries over: the union of S's paths is closed under ancestors, so
/// every entry off it stays +0 in the full solve, and walking the union
/// in ascending order keeps the full solve's order of updates.
void expect_subset_solves_match(const SparseCholeskyFactor& factor, Rng& rng) {
  const std::size_t n = factor.size();
  PathScratch scratch(n);
  std::vector<std::size_t> nodes(n);
  for (std::size_t i = 0; i < n; ++i) nodes[i] = i;
  for (std::size_t k = 1; k <= n; ++k) {
    rng.shuffle(nodes);
    const std::vector<std::size_t> s(nodes.begin(),
                                     nodes.begin() + static_cast<long>(k));
    Vector rhs(n, 0.0);
    Vector values(k);
    for (std::size_t t = 0; t < k; ++t) {
      values[t] = rng.chance(0.2) ? 0.0 : rng.uniform(-5.0, 5.0);
      rhs[s[t]] = values[t];
    }
    const Vector full = factor.solve(rhs);
    factor.solve_subset(s, values, scratch);
    for (std::size_t t = 0; t < k; ++t) {
      EXPECT_EQ(bits(values[t]), bits(full[s[t]]))
          << "n=" << n << " k=" << k << " node=" << s[t];
    }
    expect_clean(scratch, n);
  }
}

TEST(SparseCholeskyTest, SolveEntryIsBitIdenticalToFullSolve) {
  Rng rng(17);
  for (std::size_t n : {1u, 2u, 5u, 17u, 40u, 63u}) {
    for (int trial = 0; trial < 3; ++trial) {
      const SparseMatrix a = random_spd(rng, n, 2 * n);
      expect_entry_solves_match(factor_in_order(a, {}), rng);
      expect_entry_solves_match(factor_in_order(a, min_degree_ordering(a)),
                                rng);
    }
  }
  // A diagonal matrix: every node is a root of the elimination forest.
  SparseMatrix::Builder diagonal(6, 6);
  for (std::size_t i = 0; i < 6; ++i) diagonal.add(i, i, 1.5 + i);
  expect_entry_solves_match(factor_in_order(diagonal.build(), {}), rng);
}

TEST(SparseCholeskyTest, SolveSubsetIsBitIdenticalToFullSolve) {
  Rng rng(23);
  for (std::size_t n : {1u, 2u, 5u, 17u, 40u, 63u, 150u}) {
    for (int trial = 0; trial < 3; ++trial) {
      const SparseMatrix a = random_spd(rng, n, 2 * n);
      expect_subset_solves_match(factor_in_order(a, {}), rng);
      expect_subset_solves_match(factor_in_order(a, min_degree_ordering(a)),
                                 rng);
    }
  }
  SparseMatrix::Builder diagonal(6, 6);
  for (std::size_t i = 0; i < 6; ++i) diagonal.add(i, i, 1.5 + i);
  expect_subset_solves_match(factor_in_order(diagonal.build(), {}), rng);
}

TEST(SparseCholeskyTest, SolveEntryRejectsBadArguments) {
  Rng rng(2);
  const SparseCholeskyFactor factor =
      factor_in_order(random_spd(rng, 4, 0), {});
  PathScratch scratch(4);
  EXPECT_THROW(solve_entry(factor, 4, 1.0, scratch), InvalidArgument);
  PathScratch short_scratch(3);
  EXPECT_THROW(solve_entry(factor, 0, 1.0, short_scratch), InvalidArgument);
  const std::vector<std::size_t> s = {0, 1};
  Vector one(1, 1.0);
  EXPECT_THROW(factor.solve_subset(s, one, scratch), InvalidArgument);
  expect_clean(scratch, 4);
}

/// inverse_diagonal() against the diagonal of the dense LU inverse,
/// within `rel` of each entry (every entry of an SPD inverse's diagonal
/// is positive).
void expect_inverse_diagonal_matches(const SparseMatrix& a,
                                     const SparseCholeskyFactor& factor,
                                     double rel) {
  const DenseMatrix inverse = LuDecomposition(to_dense(a)).inverse();
  const Vector z = factor.inverse_diagonal();
  ASSERT_EQ(z.size(), a.rows());
  for (std::size_t i = 0; i < z.size(); ++i) {
    EXPECT_NEAR(z[i], inverse(i, i), rel * inverse(i, i))
        << "n=" << a.rows() << " i=" << i;
  }
}

// Selected inversion on random SPD matrices of 1–63 nodes, in natural
// and minimum-degree order (the permutation is undone on return), and
// on a diagonal matrix, where it is 1/aᵢᵢ exactly. The couplings are
// random, so the column patterns of L are far from a thermal model's.
TEST(SparseCholeskyTest, InverseDiagonalMatchesTheDenseInverse) {
  Rng rng(29);
  for (std::size_t n : {1u, 2u, 3u, 5u, 17u, 40u, 63u}) {
    for (int trial = 0; trial < 3; ++trial) {
      const SparseMatrix a = random_spd(rng, n, 2 * n);
      expect_inverse_diagonal_matches(a, factor_in_order(a, {}), 1e-12);
      expect_inverse_diagonal_matches(
          a, factor_in_order(a, min_degree_ordering(a)), 1e-12);
    }
  }
  SparseMatrix::Builder diagonal(6, 6);
  for (std::size_t i = 0; i < 6; ++i) diagonal.add(i, i, 1.5 + i);
  const SparseCholeskyFactor factor = factor_in_order(diagonal.build(), {});
  const Vector z = factor.inverse_diagonal();
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(bits(z[i]), bits(1.0 / (1.5 + i))) << "i=" << i;
  }
}

// The split factor against the pre-split reference on random SPD
// matrices, whose rows couple far more nodes than a thermal model's, in
// natural and minimum-degree order: every answer bit for bit, for A and
// for a stepper's (C/dt + G). tests/property_test.cpp runs the same
// check on the thermal models.
TEST(SparseCholeskyTest, MatchesThePreSplitReferenceBitForBit) {
  Rng rng(31);
  for (std::size_t n : {1u, 2u, 9u, 40u, 150u}) {
    const SparseMatrix a = random_spd(rng, n, 3 * n);
    Vector capacitance(n);
    for (double& c : capacitance) c = rng.uniform(0.5, 3.0);
    const Vector b = random_rhs(rng, n);
    const Vector y = random_rhs(rng, n);
    for (const std::vector<std::size_t>& perm :
         {std::vector<std::size_t>{}, min_degree_ordering(a)}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   (perm.empty() ? " natural" : " min-degree"));
      const auto symbolic = std::make_shared<const SymbolicCholesky>(a, perm);
      EXPECT_EQ(first_difference(SparseCholeskyFactor(symbolic, a),
                                 ReferenceCholeskyFactor(a, perm), b),
                "");
      EXPECT_EQ(first_difference(
                    SparseImplicitStepper(symbolic, a, capacitance, 1e-2),
                    ReferenceImplicitStepper(a, capacitance, 1e-2, perm), y, b,
                    3),
                "");
    }
  }
}

TEST(SparseImplicitStepperTest, TracksDenseStepper) {
  Rng rng(11);
  const SparseMatrix g = random_spd(rng, 30, 60);
  Vector capacitance(30);
  for (double& c : capacitance) c = rng.uniform(0.5, 3.0);
  const double dt = 1e-2;

  const SparseImplicitStepper sparse(
      std::make_shared<const SymbolicCholesky>(g, min_degree_ordering(g)), g,
      capacitance, dt);
  const LinearImplicitStepper dense(to_dense(g), capacitance, dt);
  EXPECT_DOUBLE_EQ(sparse.dt(), dt);
  EXPECT_EQ(sparse.size(), 30u);

  Vector y_sparse(30, 0.0);
  Vector y_dense(30, 0.0);
  const Vector b = random_rhs(rng, 30);
  for (int step = 0; step < 25; ++step) {
    y_sparse = sparse.step(y_sparse, b);
    y_dense = dense.step(y_dense, b);
  }
  EXPECT_LT(max_rel_diff(y_sparse, y_dense), 1e-10);
}

TEST(SparseImplicitStepperTest, RejectsBadInputs) {
  Rng rng(3);
  const SparseMatrix g = random_spd(rng, 5, 0);
  const Vector c(5, 1.0);
  const auto symbolic =
      std::make_shared<const SymbolicCholesky>(g, std::vector<std::size_t>{});
  EXPECT_THROW(SparseImplicitStepper(symbolic, g, c, 0.0), InvalidArgument);
  EXPECT_THROW(SparseImplicitStepper(symbolic, g, Vector(4, 1.0), 1e-3),
               InvalidArgument);
  EXPECT_THROW(SparseImplicitStepper(symbolic, g, Vector(5, -1.0), 1e-3),
               InvalidArgument);
  const SparseImplicitStepper stepper(symbolic, g, c, 1e-3);
  EXPECT_THROW(stepper.step(Vector(4, 0.0), Vector(5, 0.0)), InvalidArgument);
}

TEST(SparseMatrixTest, MultiplyIntoMatchesMultiply) {
  Rng rng(5);
  const SparseMatrix a = random_spd(rng, 20, 40);
  const Vector x = random_rhs(rng, 20);
  const Vector expected = multiply(a, x);
  Vector y(3, 99.0);  // wrong size on purpose: must be resized
  multiply_into(a, x, y);
  ASSERT_EQ(y.size(), expected.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_DOUBLE_EQ(y[i], expected[i]);
  }
}

}  // namespace
}  // namespace thermo::linalg
