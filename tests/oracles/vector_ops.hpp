// Free functions on linalg::Vector for the dense and iterative oracles.
#pragma once

#include <cstddef>

#include "linalg/sparse.hpp"  // Vector

namespace thermo::linalg {

/// y += alpha * x (sizes must match).
void axpy(double alpha, const Vector& x, Vector& y);

/// Dot product (sizes must match).
double dot(const Vector& a, const Vector& b);

/// Euclidean norm.
double norm2(const Vector& v);

/// Max-magnitude norm; 0 for an empty vector.
double norm_inf(const Vector& v);

/// Element-wise a - b.
Vector subtract(const Vector& a, const Vector& b);

/// Element-wise a + b.
Vector add(const Vector& a, const Vector& b);

/// alpha * v.
Vector scale(double alpha, const Vector& v);

/// Largest element (requires non-empty).
double max_element(const Vector& v);

/// True when every element is finite.
bool all_finite(const Vector& v);

}  // namespace thermo::linalg
