// Fill-reducing ordering for sparse symmetric factorization.
//
// min_degree_ordering() is a deterministic minimum-degree pass over the
// undirected adjacency graph of a symmetric CSR matrix: at every step
// it eliminates the active node with the smallest current degree
// (ties broken by smallest node index), turning the eliminated node's
// neighbourhood into a clique, exactly mirroring the fill a Cholesky
// factorization would create. Two deviations from textbook AMD keep it
// simple and fast enough for 100k-node thermal graphs:
//
//  * Dense rows are withheld up front. Thermal models have a handful of
//    package nodes (e.g. the spreader centre) coupled to EVERY die
//    block; feeding those to min-degree makes each elimination union
//    O(n) and degrades the whole pass to O(n²). Nodes whose initial
//    degree exceeds max(16, 4·sqrt(n)) are removed from the active
//    graph and appended at the END of the ordering sorted by (initial
//    degree, index) — eliminating near-dense rows last is also the
//    fill-optimal place for them.
//  * Plain minimum degree, no approximate-degree / supernode
//    amalgamation. The next node depends only on current degrees and
//    the index tie-break, and a degree is the size of a neighbour set,
//    so adjacency sets are unordered lists of 32-bit ids. Eliminating
//    v stamps its clique once; each clique member drops v and counts
//    the members it already holds, and only one that lacks some stamps
//    its own list to append them. The pending queue is an indexed
//    binary min-heap with exactly one entry per pending node, keyed by
//    (degree << 32) | node, whose entry moves up or down in place when
//    the degree changes. The permutation is the one a
//    std::set<(degree, node)> queue with sorted merges gives (and the
//    lazy heap this pass replaced gave), a pure function of the
//    sparsity pattern — identical on every platform and run (the
//    determinism contract in docs/SOLVERS.md). Requires n < 2³².
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/sparse.hpp"

namespace thermo::linalg {

/// Fill-reducing permutation for a structurally symmetric square CSR
/// pattern. Returns `perm` with perm[k] = the original index eliminated
/// k-th (i.e. new position -> old index). Deterministic; values are
/// ignored, only the pattern matters. Requires a square matrix.
std::vector<std::size_t> min_degree_ordering(const SparseMatrix& a);

}  // namespace thermo::linalg
