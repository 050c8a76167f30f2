// Deterministic pseudo-random generation (xoshiro256**). ThermoSched uses
// its own generator rather than <random> engines so that synthetic SoCs
// and property-test sweeps are reproducible across standard libraries.
#pragma once

#include <cstdint>
#include <vector>

namespace thermo {

/// xoshiro256** by Blackman & Vigna, seeded through SplitMix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  long long uniform_int(long long lo, long long hi);

  /// Bernoulli(p).
  bool chance(double p);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_index(i));
      std::swap(items[i - 1], items[j]);
    }
  }

 private:
  std::uint64_t state_[4];
};

}  // namespace thermo
