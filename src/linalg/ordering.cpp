#include "linalg/ordering.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "util/error.hpp"

namespace thermo::linalg {

std::vector<std::size_t> min_degree_ordering(const SparseMatrix& a) {
  THERMO_REQUIRE(a.rows() == a.cols(), "min degree: matrix must be square");
  const std::size_t n = a.rows();
  THERMO_REQUIRE(n < (std::size_t{1} << 32),
                 "min degree: node ids must fit in 32 bits");
  std::vector<std::size_t> perm;
  perm.reserve(n);
  if (n == 0) return perm;

  const std::vector<std::size_t>& ap = a.row_offsets();
  const std::vector<std::size_t>& ai = a.col_indices();

  // Off-diagonal adjacency sets, stored as unordered lists of 32-bit
  // ids: the ordering depends only on each list's size. The slack
  // absorbs the first eliminations' fill without a reallocation.
  using Id = std::uint32_t;
  std::vector<std::vector<Id>> adj(n);
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t count = ap[r + 1] - ap[r];
    adj[r].reserve(count + count / 2 + 4);
    for (std::size_t q = ap[r]; q < ap[r + 1]; ++q) {
      if (ai[q] != r) adj[r].push_back(static_cast<Id>(ai[q]));
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
        adj[i] = {};
        continue;
      }
      std::vector<Id>& list = adj[i];
      list.erase(std::remove_if(list.begin(), list.end(),
                                [&](Id w) { return withheld[w] != 0; }),
                 list.end());
    }
  }

  // Pending nodes in an indexed binary min-heap with one entry per node:
  // the packed key (degree << 32) | node orders by (degree, index), so
  // the top is the minimum-degree, minimum-index node and the ordering
  // is deterministic. `slot` is each pending node's heap position; a
  // degree change moves the node's one entry up or down in place.
  constexpr std::uint64_t kNodeMask = 0xffffffffu;
  const auto key_of = [](std::size_t degree, std::size_t node) {
    return static_cast<std::uint64_t>(degree) << 32 | node;
  };
  std::vector<std::uint64_t> heap;
  std::vector<std::size_t> slot(n, 0);
  heap.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!withheld[i]) heap.push_back(key_of(adj[i].size(), i));
  }
  const auto place = [&](std::size_t pos, std::uint64_t key) {
    heap[pos] = key;
    slot[key & kNodeMask] = pos;
  };
  const auto sift_up = [&](std::size_t pos, std::uint64_t key) {
    while (pos > 0) {
      const std::size_t up = (pos - 1) / 2;
      if (heap[up] < key) break;
      place(pos, heap[up]);
      pos = up;
    }
    place(pos, key);
  };
  const auto sift_down = [&](std::size_t pos, std::uint64_t key) {
    const std::size_t size = heap.size();
    for (;;) {
      std::size_t child = 2 * pos + 1;
      if (child >= size) break;
      if (child + 1 < size && heap[child + 1] < heap[child]) ++child;
      if (key < heap[child]) break;
      place(pos, heap[child]);
      pos = child;
    }
    place(pos, key);
  };
  for (std::size_t pos = heap.size(); pos-- > 0;) sift_down(pos, heap[pos]);

  // Eliminating v turns its neighbourhood into a clique. The clique is
  // stamped once in `member`; each neighbour w drops v from its list
  // and counts the members it already holds (a branch-free pass), and
  // only a w that lacks some stamps its own list, in `held`, to append
  // the missing ones.
  std::vector<std::size_t> member(n, 0);
  std::vector<std::size_t> held(n, 0);
  std::size_t round = 0;
  std::size_t tag = 0;
  std::vector<Id> clique;
  while (!heap.empty()) {
    const auto v = static_cast<Id>(heap.front() & kNodeMask);
    const std::uint64_t last = heap.back();
    heap.pop_back();
    if (!heap.empty()) sift_down(0, last);
    perm.push_back(v);

    clique = std::move(adj[v]);
    adj[v] = {};
    ++round;
    for (const Id u : clique) member[u] = round;
    for (const Id w : clique) {
      std::vector<Id>& list = adj[w];
      const auto it = std::find(list.begin(), list.end(), v);
      if (it != list.end()) {
        *it = list.back();
        list.pop_back();
      }
      std::size_t already = 0;
      for (const Id x : list) already += member[x] == round;
      if (already < clique.size() - 1) {  // w lacks some other member
        ++tag;
        for (const Id u : list) held[u] = tag;
        for (const Id u : clique) {
          if (u != w && held[u] != tag) list.push_back(u);
        }
      }
      const std::uint64_t key = key_of(list.size(), w);
      const std::size_t pos = slot[w];
      if (key < heap[pos]) {
        sift_up(pos, key);
      } else if (heap[pos] < key) {
        sift_down(pos, key);
      }
    }
  }

  for (const std::pair<std::size_t, std::size_t>& entry : dense_rows) {
    perm.push_back(entry.second);
  }
  return perm;
}

}  // namespace thermo::linalg
