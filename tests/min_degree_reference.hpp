// Brute-force reference for linalg::min_degree_ordering: the minimum
// degree pass as first written, with a std::set<(degree, node)> pending
// queue and sorted-vector merges for each elimination union. The
// production pass (a lazy heap and unordered adjacency lists) must
// produce the same permutation on every structurally symmetric pattern.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <set>
#include <utility>
#include <vector>

#include "linalg/sparse.hpp"

namespace thermo::testing {

inline std::vector<std::size_t> reference_min_degree_ordering(
    const linalg::SparseMatrix& a) {
  const std::size_t n = a.rows();
  std::vector<std::size_t> perm;
  if (n == 0) return perm;
  const std::vector<std::size_t>& ap = a.row_offsets();
  const std::vector<std::size_t>& ai = a.col_indices();

  std::vector<std::vector<std::size_t>> adj(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t q = ap[r]; q < ap[r + 1]; ++q) {
      if (ai[q] != r) adj[r].push_back(ai[q]);
    }
  }

  const std::size_t threshold = std::max<std::size_t>(
      16, 4 * static_cast<std::size_t>(std::sqrt(static_cast<double>(n))));
  std::vector<char> withheld(n, 0);
  std::vector<std::pair<std::size_t, std::size_t>> dense_rows;
  for (std::size_t i = 0; i < n; ++i) {
    if (adj[i].size() > threshold) {
      withheld[i] = 1;
      dense_rows.emplace_back(adj[i].size(), i);
    }
  }
  std::sort(dense_rows.begin(), dense_rows.end());
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::size_t>& list = adj[i];
    if (withheld[i]) {
      list.clear();
      continue;
    }
    list.erase(std::remove_if(list.begin(), list.end(),
                              [&](std::size_t w) { return withheld[w] != 0; }),
               list.end());
  }

  std::vector<std::size_t> degree(n, 0);
  std::set<std::pair<std::size_t, std::size_t>> queue;
  for (std::size_t i = 0; i < n; ++i) {
    if (withheld[i]) continue;
    degree[i] = adj[i].size();
    queue.emplace(degree[i], i);
  }

  std::vector<std::size_t> merged;
  while (!queue.empty()) {
    const std::size_t v = queue.begin()->second;
    queue.erase(queue.begin());
    perm.push_back(v);
    const std::vector<std::size_t> clique = std::move(adj[v]);
    adj[v].clear();
    for (const std::size_t w : clique) {
      std::vector<std::size_t>& list = adj[w];
      const auto it = std::lower_bound(list.begin(), list.end(), v);
      if (it != list.end() && *it == v) list.erase(it);
    }
    for (const std::size_t w : clique) {
      std::vector<std::size_t>& list = adj[w];
      merged.clear();
      std::size_t li = 0;
      for (const std::size_t u : clique) {
        if (u == w) continue;
        while (li < list.size() && list[li] < u) merged.push_back(list[li++]);
        if (li < list.size() && list[li] == u) ++li;
        merged.push_back(u);
      }
      while (li < list.size()) merged.push_back(list[li++]);
      list.swap(merged);
      if (list.size() != degree[w]) {
        queue.erase({degree[w], w});
        degree[w] = list.size();
        queue.emplace(degree[w], w);
      }
    }
  }
  for (const auto& entry : dense_rows) perm.push_back(entry.second);
  return perm;
}

}  // namespace thermo::testing
