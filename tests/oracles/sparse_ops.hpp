// Test-side operations on linalg::SparseMatrix: conversion to and from
// DenseMatrix, SpMV and the diagonal (the dense and CG oracles need
// them; no production solve does), a symbolic fill count, and a factor
// through an analysis of its own.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/sparse.hpp"
#include "linalg/sparse_cholesky.hpp"
#include "oracles/dense_matrix.hpp"

namespace thermo::linalg {

/// CSR copy of `dense`, dropping entries with |v| <= drop_tol. Scanning
/// n² entries defeats sparse-first assembly, so it is for small test
/// matrices only.
SparseMatrix from_dense(const DenseMatrix& dense, double drop_tol = 0.0);

DenseMatrix to_dense(const SparseMatrix& a);

/// y = A x.
Vector multiply(const SparseMatrix& a, const Vector& x);

/// y = A x into a caller-owned buffer (resized to rows()): one SpMV per
/// CG iteration with no per-call vector churn.
void multiply_into(const SparseMatrix& a, const Vector& x, Vector& y);

/// Diagonal entries (0 when absent). Requires square.
Vector diagonal(const SparseMatrix& a);

/// Strictly-lower non-zero count of the Cholesky factor L of P·A·Pᵗ,
/// where perm[k] = original index eliminated k-th (empty = natural
/// order), by the elimination-tree column-count pass: the symbolic half
/// of SparseCholeskyFactor with no numeric factor formed, O(n) memory.
/// Requires a square, structurally symmetric matrix.
std::size_t symbolic_factor_nonzeros(const SparseMatrix& a,
                                     const std::vector<std::size_t>& perm = {});

/// A's factor in the order `perm` (empty = natural order) through a
/// SymbolicCholesky of its own, for a test that factors one matrix.
SparseCholeskyFactor factor_in_order(const SparseMatrix& a,
                                     std::vector<std::size_t> perm);

}  // namespace thermo::linalg
