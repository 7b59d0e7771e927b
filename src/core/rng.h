// Deterministic pseudo-random number generation.
//
// All randomized components (synthetic weights, tuner exploration, workload
// generators) consume an explicitly seeded Rng so every run of every test and
// bench is reproducible bit-for-bit.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

namespace igc {

/// splitmix64-based generator: tiny, fast, and good enough for workload
/// synthesis and stochastic search (not for cryptography).
///
/// The state is a counter advanced by a fixed increment per draw, so draw k
/// is a pure function of (seed, k) and discard() jumps ahead in O(1).
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) : state_(seed) {}

  uint64_t next_u64() {
    uint64_t z = (state_ += kGamma);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, n). n must be > 0.
  uint64_t next_below(uint64_t n) { return next_u64() % n; }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t next_int(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(next_below(static_cast<uint64_t>(hi - lo + 1)));
  }

  /// Uniform float in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Uniform float in [lo, hi).
  float next_float(float lo, float hi) {
    return lo + static_cast<float>(next_double()) * (hi - lo);
  }

  /// Standard normal via Box-Muller (one value per call; simple over fast).
  float next_gaussian() {
    double u1 = next_double();
    double u2 = next_double();
    if (u1 < 1e-12) u1 = 1e-12;
    return static_cast<float>(std::sqrt(-2.0 * std::log(u1)) *
                              std::cos(6.283185307179586 * u2));
  }

  /// Skips the next n draws of next_u64() (every other draw is built on it:
  /// next_double, next_float and next_below take one, next_gaussian two).
  void discard(uint64_t n) { state_ += n * kGamma; }

 private:
  static constexpr uint64_t kGamma = 0x9e3779b97f4a7c15ull;
  uint64_t state_;
};

}  // namespace igc
