#include "linalg/ordering.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>

#include "util/error.hpp"

namespace thermo::linalg {

namespace {
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
}  // namespace

std::vector<std::size_t> min_degree_ordering(const SparseMatrix& a) {
  THERMO_REQUIRE(a.rows() == a.cols(), "min degree: matrix must be square");
  const std::size_t n = a.rows();
  std::vector<std::size_t> perm;
  perm.reserve(n);
  if (n == 0) return perm;

  const std::vector<std::size_t>& ap = a.row_offsets();
  const std::vector<std::size_t>& ai = a.col_indices();

  // Off-diagonal adjacency sets, stored as unordered lists: the
  // ordering depends only on each list's size.
  std::vector<std::vector<std::size_t>> adj(n);
  for (std::size_t r = 0; r < n; ++r) {
    adj[r].reserve(ap[r + 1] - ap[r]);
    for (std::size_t q = ap[r]; q < ap[r + 1]; ++q) {
      if (ai[q] != r) adj[r].push_back(ai[q]);
    }
  }

  // Withhold near-dense rows (package nodes coupled to every die
  // block): they go to the END of the ordering, sorted by (initial
  // degree, index), and are stripped from the active graph so every
  // elimination union stays proportional to local clique size.
  const std::size_t threshold = std::max<std::size_t>(
      16, 4 * static_cast<std::size_t>(
                  std::sqrt(static_cast<double>(n))));
  std::vector<char> withheld(n, 0);
  std::vector<std::pair<std::size_t, std::size_t>> dense_rows;
  for (std::size_t i = 0; i < n; ++i) {
    if (adj[i].size() > threshold) {
      withheld[i] = 1;
      dense_rows.emplace_back(adj[i].size(), i);
    }
  }
  if (!dense_rows.empty()) {
    std::sort(dense_rows.begin(), dense_rows.end());
    for (std::size_t i = 0; i < n; ++i) {
      if (withheld[i]) {
        adj[i].clear();
        continue;
      }
      std::vector<std::size_t>& list = adj[i];
      list.erase(std::remove_if(
                     list.begin(), list.end(),
                     [&](std::size_t w) { return withheld[w] != 0; }),
                 list.end());
    }
  }

  // Pending nodes in a lazy binary min-heap on (degree, index). The
  // top is the minimum-degree, minimum-index node, so the ordering is
  // deterministic. A degree change pushes a new entry; a popped entry
  // whose node is already eliminated or whose degree is out of date is
  // skipped.
  using Entry = std::pair<std::size_t, std::size_t>;
  std::vector<std::size_t> degree(n, 0);
  std::vector<Entry> heap;
  for (std::size_t i = 0; i < n; ++i) {
    if (withheld[i]) continue;
    degree[i] = adj[i].size();
    heap.emplace_back(degree[i], i);
  }
  std::make_heap(heap.begin(), heap.end(), std::greater<>{});

  std::vector<char> eliminated(n, 0);
  std::vector<std::size_t> mark(n, 0);
  std::size_t stamp = 0;
  std::vector<std::size_t> clique;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const auto [d, v] = heap.back();
    heap.pop_back();
    if (eliminated[v] || d != degree[v]) continue;
    eliminated[v] = 1;
    perm.push_back(v);

    clique = std::move(adj[v]);
    adj[v].clear();
    adj[v].shrink_to_fit();

    // One pass per neighbour: drop v, stamp the rest, then append the
    // clique members it lacks — the elimination clique unioned in.
    for (const std::size_t w : clique) {
      std::vector<std::size_t>& list = adj[w];
      ++stamp;
      for (std::size_t k = 0; k < list.size();) {
        if (list[k] == v) {
          list[k] = list.back();
          list.pop_back();
        } else {
          mark[list[k++]] = stamp;
        }
      }
      for (const std::size_t u : clique) {
        if (u != w && mark[u] != stamp) list.push_back(u);
      }
      if (list.size() != degree[w]) {
        degree[w] = list.size();
        heap.emplace_back(degree[w], w);
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
      }
    }
  }

  for (const std::pair<std::size_t, std::size_t>& entry : dense_rows) {
    perm.push_back(entry.second);
  }
  return perm;
}

}  // namespace thermo::linalg
