// Fill-reducing ordering: min_degree_ordering must be a deterministic
// valid permutation that strictly cuts factor fill on grid-structured
// patterns, symbolic_factor_nonzeros must agree with the numeric
// factor's fill, dense rows must be withheld to the end, and the
// ordered factor's solutions must match natural-order and dense
// factorizations to the documented 1e-9 cross-backend tolerance. An
// analysis refuses a bad permutation with the message that names it.
#include "linalg/ordering.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "linalg/sparse_cholesky.hpp"
#include "oracles/cholesky.hpp"
#include "oracles/min_degree_reference.hpp"
#include "oracles/sparse_ops.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace thermo::linalg {
namespace {

/// Random sparse symmetric diagonally dominant (hence SPD) matrix, the
/// same shape family as linalg_sparse_cholesky_test: a ring plus random
/// symmetric couplings, grounded diagonal.
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
    dense[i][i] += rng.uniform(0.05, 0.5);
  }
  SparseMatrix::Builder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (dense[i][j] != 0.0) builder.add(i, j, dense[i][j]);
    }
  }
  return builder.build();
}

/// 5-point Laplacian of a `side` x `side` grid with grounding — the
/// structure of a GridThermalModel die, where natural (row-major)
/// ordering is bandwidth-bound and min-degree wins big.
SparseMatrix grid_laplacian(std::size_t side) {
  const std::size_t n = side * side;
  SparseMatrix::Builder builder(n, n);
  auto at = [side](std::size_t r, std::size_t c) { return r * side + c; };
  std::vector<double> diag(n, 0.1);  // grounding keeps it SPD
  for (std::size_t r = 0; r < side; ++r) {
    for (std::size_t c = 0; c < side; ++c) {
      const std::size_t i = at(r, c);
      if (c + 1 < side) {
        builder.add(i, at(r, c + 1), -1.0);
        builder.add(at(r, c + 1), i, -1.0);
        diag[i] += 1.0;
        diag[at(r, c + 1)] += 1.0;
      }
      if (r + 1 < side) {
        builder.add(i, at(r + 1, c), -1.0);
        builder.add(at(r + 1, c), i, -1.0);
        diag[i] += 1.0;
        diag[at(r + 1, c)] += 1.0;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) builder.add(i, i, diag[i]);
  return builder.build();
}

double max_rel_diff(const Vector& a, const Vector& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale =
        std::max(1e-30, std::max(std::fabs(a[i]), std::fabs(b[i])));
    worst = std::max(worst, std::fabs(a[i] - b[i]) / scale);
  }
  return worst;
}

TEST(MinDegreeOrderingTest, IsAValidPermutationAndDeterministic) {
  Rng rng(17);
  for (std::size_t n : {1u, 2u, 13u, 50u, 120u}) {
    const SparseMatrix a = random_spd(rng, n, n);
    const std::vector<std::size_t> perm = min_degree_ordering(a);
    ASSERT_EQ(perm.size(), n);
    std::vector<bool> seen(n, false);
    for (const std::size_t p : perm) {
      ASSERT_LT(p, n);
      EXPECT_FALSE(seen[p]) << "index " << p << " eliminated twice";
      seen[p] = true;
    }
    // Pure function of the pattern: a second call must be identical.
    EXPECT_EQ(min_degree_ordering(a), perm) << "n=" << n;
  }
}

TEST(MinDegreeOrderingTest, WithholdsDenseRowsToTheEnd) {
  // A 200-node ring plus one hub coupled to every node: the hub's
  // degree (199) is far past max(16, 4*sqrt(201)) ~ 57, so it must be
  // withheld from the active graph and eliminated last.
  const std::size_t n = 201;
  const std::size_t hub = 0;
  SparseMatrix::Builder builder(n, n);
  std::vector<double> diag(n, 0.1);
  auto couple = [&](std::size_t i, std::size_t j) {
    builder.add(i, j, -1.0);
    builder.add(j, i, -1.0);
    diag[i] += 1.0;
    diag[j] += 1.0;
  };
  for (std::size_t i = 1; i + 1 < n; ++i) couple(i, i + 1);
  for (std::size_t i = 1; i < n; ++i) couple(hub, i);
  for (std::size_t i = 0; i < n; ++i) builder.add(i, i, diag[i]);
  const SparseMatrix a = builder.build();

  const std::vector<std::size_t> perm = min_degree_ordering(a);
  ASSERT_EQ(perm.size(), n);
  EXPECT_EQ(perm.back(), hub);
}

TEST(SymbolicFactorTest, CountMatchesNumericFactorFill) {
  Rng rng(23);
  for (std::size_t n : {5u, 40u, 90u}) {
    const SparseMatrix a = random_spd(rng, n, 2 * n);

    const SparseCholeskyFactor natural = factor_in_order(a, {});
    EXPECT_EQ(symbolic_factor_nonzeros(a), natural.factor_nonzeros())
        << "n=" << n;

    const SparseCholeskyFactor ordered =
        factor_in_order(a, min_degree_ordering(a));
    EXPECT_EQ(symbolic_factor_nonzeros(a, ordered.symbolic().permutation()),
              ordered.factor_nonzeros())
        << "n=" << n;
  }
}

TEST(SymbolicFactorTest, TridiagonalAndEmptyEdgeCases) {
  SparseMatrix::Builder tri(6, 6);
  for (std::size_t i = 0; i < 6; ++i) {
    tri.add(i, i, 2.5);
    if (i + 1 < 6) {
      tri.add(i, i + 1, -1.0);
      tri.add(i + 1, i, -1.0);
    }
  }
  EXPECT_EQ(symbolic_factor_nonzeros(tri.build()), 5u);

  SparseMatrix::Builder diag(3, 3);
  for (std::size_t i = 0; i < 3; ++i) diag.add(i, i, 1.0);
  EXPECT_EQ(symbolic_factor_nonzeros(diag.build()), 0u);
}

TEST(MinDegreeOrderingTest, StrictlyCutsGridFill) {
  // The ISSUE acceptance bar: on a 64x64 grid pattern the ordered
  // factor's fill must be strictly below natural order. Natural
  // (banded) fill is ~side^3 = 260k here; min-degree lands ~60-80k.
  const SparseMatrix a = grid_laplacian(64);

  const SparseCholeskyFactor natural = factor_in_order(a, {});
  const SparseCholeskyFactor ordered =
      factor_in_order(a, min_degree_ordering(a));
  EXPECT_LT(ordered.factor_nonzeros(), natural.factor_nonzeros());
  // Not just barely: the ordering should cut grid fill by >= 2x.
  EXPECT_LT(2 * ordered.factor_nonzeros(), natural.factor_nonzeros());

  // The symbolic counter sees the same two numbers without factoring.
  EXPECT_EQ(symbolic_factor_nonzeros(a), natural.factor_nonzeros());
  EXPECT_EQ(symbolic_factor_nonzeros(a, ordered.symbolic().permutation()),
            ordered.factor_nonzeros());
}

TEST(OrderedFactorTest, GivenPermutationFactorsLikeTheOrderingItCame) {
  Rng rng(37);
  const SparseMatrix a = random_spd(rng, 120, 240);
  const std::vector<std::size_t> order = min_degree_ordering(a);
  const SparseCholeskyFactor ordered = factor_in_order(a, order);
  const SparseCholeskyFactor again = factor_in_order(a, min_degree_ordering(a));
  EXPECT_EQ(again.symbolic().permutation(), order);
  EXPECT_EQ(again.factor_nonzeros(), ordered.factor_nonzeros());
  Vector b(a.rows());
  for (double& v : b) v = rng.uniform(-5.0, 5.0);
  EXPECT_EQ(again.solve(b), ordered.solve(b));  // same bits

  const SparseCholeskyFactor natural = factor_in_order(a, {});
  EXPECT_TRUE(natural.symbolic().permutation().empty());
  EXPECT_EQ(natural.solve(b), factor_in_order(a, {}).solve(b));

  // A bad permutation is refused with the message that names it.
  const auto expect_refused = [&](std::vector<std::size_t> perm,
                                  const std::string& message) {
    try {
      const SymbolicCholesky refused(a, std::move(perm));
      ADD_FAILURE() << "accepted: " << message;
    } catch (const InvalidArgument& error) {
      EXPECT_NE(std::string(error.what()).find(message), std::string::npos)
          << error.what();
    }
  };
  std::vector<std::size_t> short_perm = order;
  short_perm.pop_back();
  expect_refused(short_perm,
                 "sparse cholesky: permutation size must match the matrix");
  std::vector<std::size_t> repeated = order;
  repeated[1] = repeated[0];
  expect_refused(repeated, "sparse cholesky: ordering is not a permutation");
  std::vector<std::size_t> out_of_range = order;
  out_of_range[0] = a.rows();
  expect_refused(out_of_range,
                 "sparse cholesky: ordering is not a permutation");
}

TEST(OrderedFactorTest, OrderedNaturalAndDenseSolvesAgree) {
  // Property test: on random SPD systems the ordered factor, the
  // natural-order factor, and the dense Cholesky must agree to the
  // documented 1e-9 cross-backend tolerance (docs/SOLVERS.md), and the
  // ordered solve must be bit-reproducible across factorizations.
  for (std::uint64_t seed : {2u, 8u, 21u}) {
    Rng rng(seed);
    for (std::size_t n : {30u, 80u, 150u}) {
      const SparseMatrix a = random_spd(rng, n, 3 * n);
      const SparseCholeskyFactor ordered =
          factor_in_order(a, min_degree_ordering(a));
      const SparseCholeskyFactor natural = factor_in_order(a, {});
      const CholeskyFactor dense(to_dense(a));

      Vector b(n);
      for (double& v : b) v = rng.uniform(-5.0, 5.0);
      const Vector x_ordered = ordered.solve(b);
      EXPECT_LT(max_rel_diff(x_ordered, natural.solve(b)), 1e-9)
          << "seed=" << seed << " n=" << n;
      EXPECT_LT(max_rel_diff(x_ordered, dense.solve(b)), 1e-9)
          << "seed=" << seed << " n=" << n;

      const SparseCholeskyFactor again =
          factor_in_order(a, min_degree_ordering(a));
      const Vector x_again = again.solve(b);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_DOUBLE_EQ(x_ordered[i], x_again[i]);  // same perm, same bits
      }
    }
  }
}

/// Symmetric pattern: a ring, random couplings, and `hubs` rows each
/// coupled to a random share of all nodes — some past the dense-row
/// threshold max(16, 4·sqrt(n)), some just under it.
SparseMatrix random_pattern_with_dense_rows(Rng& rng, std::size_t n,
                                            std::size_t extra,
                                            std::size_t hubs) {
  SparseMatrix::Builder builder(n, n);
  auto couple = [&](std::size_t i, std::size_t j) {
    builder.add(i, j, -1.0);
    builder.add(j, i, -1.0);
  };
  for (std::size_t i = 0; i < n; ++i) {
    builder.add(i, i, 4.0);
    couple(i, (i + 1) % n);
  }
  for (std::size_t e = 0; e < extra; ++e) {
    const std::size_t i = rng.uniform_index(n);
    const std::size_t j = rng.uniform_index(n);
    if (i != j) couple(i, j);
  }
  const std::size_t threshold = std::max<std::size_t>(
      16, 4 * static_cast<std::size_t>(std::sqrt(static_cast<double>(n))));
  for (std::size_t h = 0; h < hubs; ++h) {
    const std::size_t hub = rng.uniform_index(n);
    const std::size_t reach =
        h % 2 == 0 ? threshold + 1 + rng.uniform_index(n / 2)
                   : threshold - 2 - rng.uniform_index(4);
    for (std::size_t k = 0; k < reach; ++k) {
      const std::size_t j = rng.uniform_index(n);
      if (j != hub) couple(hub, j);
    }
  }
  return builder.build();
}

TEST(MinDegreeOracle, MatchesSetReferenceOnRandomGraphsWithDenseRows) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    Rng rng(seed);
    for (const std::size_t n : {2u, 17u, 120u, 400u, 1500u}) {
      const SparseMatrix a =
          random_pattern_with_dense_rows(rng, n, n * (seed % 3), seed % 4);
      EXPECT_EQ(min_degree_ordering(a),
                thermo::testing::reference_min_degree_ordering(a))
          << "seed=" << seed << " n=" << n;
    }
  }
}

TEST(MinDegreeOracle, MatchesSetReferenceOnGridLaplacian) {
  for (const std::size_t side : {64u, 150u}) {
    const SparseMatrix a = grid_laplacian(side);
    EXPECT_EQ(min_degree_ordering(a),
              thermo::testing::reference_min_degree_ordering(a))
        << side << "x" << side;
  }
}

/// Symmetric pattern on n nodes from an edge list, every diagonal set.
SparseMatrix pattern_of(std::size_t n,
                        const std::vector<std::pair<std::size_t, std::size_t>>&
                            edges) {
  SparseMatrix::Builder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) builder.add(i, i, 1.0);
  for (const auto& [i, j] : edges) {
    builder.add(i, j, -1.0);
    builder.add(j, i, -1.0);
  }
  return builder.build();
}

void expect_matches_reference(const SparseMatrix& a, const char* what) {
  EXPECT_EQ(min_degree_ordering(a),
            thermo::testing::reference_min_degree_ordering(a))
      << what;
}

TEST(MinDegreeOracle, MatchesSetReferenceOnEmptyAndSingleNode) {
  expect_matches_reference(pattern_of(0, {}), "n = 0");
  expect_matches_reference(pattern_of(1, {}), "n = 1");
  EXPECT_TRUE(min_degree_ordering(pattern_of(0, {})).empty());
  EXPECT_EQ(min_degree_ordering(pattern_of(1, {})),
            std::vector<std::size_t>{0});
}

TEST(MinDegreeOracle, MatchesSetReferenceOnDisjointCliques) {
  // Two cliques of each size 1..24 on shuffled ids: every member of a
  // clique ties on degree, so the index tie-break decides within a clique
  // and between cliques of equal size, and each elimination lowers its
  // clique's degrees.
  std::vector<std::size_t> ids(2 * 24 * 25 / 2);
  std::iota(ids.begin(), ids.end(), 0);
  Rng rng(41);
  rng.shuffle(ids);
  const std::size_t n = ids.size();
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  std::size_t next = 0;
  for (std::size_t clique = 0; clique < 48; ++clique) {
    const std::size_t first = next;
    next += clique / 2 + 1;
    for (std::size_t x = first; x < next; ++x) {
      for (std::size_t y = x + 1; y < next; ++y) edges.emplace_back(ids[x], ids[y]);
    }
  }
  expect_matches_reference(pattern_of(n, edges), "disjoint cliques");
}

TEST(MinDegreeOracle, MatchesSetReferenceOnStarsJustUnderTheDenseRowThreshold) {
  // Hubs of degree max(16, 4·sqrt(n)) stay in the active graph. Leaves
  // go first and lower their hub's degree; once a hub goes, its leaves
  // become a clique and their degrees jump. Chains between leaves keep
  // the degrees mixed, and one hub past the threshold is withheld.
  const std::size_t n = 900;
  const std::size_t threshold = 4 * 30;
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  std::size_t next = 0;
  for (std::size_t hub = 0; hub < 6; ++hub) {
    const std::size_t centre = next++;
    const std::size_t leaves = threshold - (hub % 3);
    for (std::size_t k = 0; k < leaves && next < n - 1; ++k) {
      edges.emplace_back(centre, next);
      if (k % 5 != 0) edges.emplace_back(next - 1, next);
      ++next;
    }
  }
  for (std::size_t i = 0; i < threshold + 1; ++i) {
    edges.emplace_back(n - 1, (7 * i) % (n - 1));
  }
  expect_matches_reference(pattern_of(n, edges), "stars");
}

TEST(MinDegreeOracle, MatchesSetReferenceOnCompleteBipartiteBlocks) {
  // K(a, b) blocks: eliminating a node of one side makes the other side
  // a clique, so degrees rise there while they fall on its own side.
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  std::size_t n = 0;
  for (const auto& [a, b] : {std::pair<std::size_t, std::size_t>{2, 9},
                            {5, 5},
                            {3, 12},
                            {7, 8},
                            {1, 15}}) {
    for (std::size_t x = 0; x < a; ++x) {
      for (std::size_t y = 0; y < b; ++y) edges.emplace_back(n + x, n + a + y);
    }
    n += a + b;
  }
  expect_matches_reference(pattern_of(n, edges), "complete bipartite blocks");
}

TEST(MinDegreeOracle, MatchesSetReferenceWithIsolatedDiagonalOnlyNodes) {
  // Every third node has only its diagonal (degree 0, eliminated first
  // in index order); the rest form a ring with chords.
  const std::size_t n = 300;
  std::vector<std::size_t> ring;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 3 != 0) ring.push_back(i);
  }
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t k = 0; k < ring.size(); ++k) {
    edges.emplace_back(ring[k], ring[(k + 1) % ring.size()]);
    if (k % 7 == 0) edges.emplace_back(ring[k], ring[(k + 13) % ring.size()]);
  }
  expect_matches_reference(pattern_of(n, edges), "isolated nodes");
}

}  // namespace
}  // namespace thermo::linalg
