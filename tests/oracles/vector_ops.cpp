#include "oracles/vector_ops.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace thermo::linalg {

void axpy(double alpha, const Vector& x, Vector& y) {
  THERMO_REQUIRE(x.size() == y.size(), "axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

double dot(const Vector& a, const Vector& b) {
  THERMO_REQUIRE(a.size() == b.size(), "dot: size mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

double norm2(const Vector& v) {
  return std::sqrt(dot(v, v));
}

double norm_inf(const Vector& v) {
  double best = 0.0;
  for (double x : v) best = std::max(best, std::fabs(x));
  return best;
}

Vector subtract(const Vector& a, const Vector& b) {
  THERMO_REQUIRE(a.size() == b.size(), "subtract: size mismatch");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Vector add(const Vector& a, const Vector& b) {
  THERMO_REQUIRE(a.size() == b.size(), "add: size mismatch");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vector scale(double alpha, const Vector& v) {
  Vector out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = alpha * v[i];
  return out;
}

double max_element(const Vector& v) {
  THERMO_REQUIRE(!v.empty(), "max_element: empty vector");
  return *std::max_element(v.begin(), v.end());
}

bool all_finite(const Vector& v) {
  return std::all_of(v.begin(), v.end(),
                     [](double x) { return std::isfinite(x); });
}

}  // namespace thermo::linalg
