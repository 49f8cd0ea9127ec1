// Deterministic pseudo-random number generation for the whole library.
//
// All stochastic components (θ-sampling in SNS-RND, synthetic stream
// generation, factor initialization, property tests) draw from sns::Rng so
// that a single seed reproduces an entire experiment. The core generator is
// xoshiro256** seeded via SplitMix64 — fast, high quality, and dependency
// free.

#ifndef SLICENSTITCH_COMMON_RANDOM_H_
#define SLICENSTITCH_COMMON_RANDOM_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace sns {

/// Complete serializable state of an Rng: the xoshiro256** engine words plus
/// the Box–Muller cache of Normal(). RestoreState(SaveState()) makes the
/// generator continue with the identical draw sequence — the property the
/// durability checkpoints rely on so restored streams sample the same θ
/// indices as the uninterrupted run.
struct RngState {
  std::array<uint64_t, 4> state{};
  bool has_cached_normal = false;
  double cached_normal = 0.0;

  friend bool operator==(const RngState& a, const RngState& b) {
    return a.state == b.state &&
           a.has_cached_normal == b.has_cached_normal &&
           a.cached_normal == b.cached_normal;
  }
};

/// Deterministic random number generator (xoshiro256**).
///
/// Not thread-safe; create one Rng per thread or experiment. Satisfies the
/// UniformRandomBitGenerator concept so it can drive <random> distributions
/// and std::shuffle when needed.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x5eed5eed5eed5eedULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }

  /// Next raw 64-bit value. Inline with NextUint64 and UniformInt: the
  /// θ-sampler draws one per sampled cell coordinate.
  uint64_t operator()() { return Next(); }
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound must be > 0. Uses Lemire rejection to avoid
  /// modulo bias.
  uint64_t NextUint64(uint64_t bound) {
    SNS_DCHECK(bound > 0);
    // Lemire's nearly-divisionless method.
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < bound) {
      const uint64_t t = -bound % bound;
      while (l < t) {
        x = Next();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    SNS_DCHECK(lo <= hi);
    return lo + static_cast<int64_t>(
                    NextUint64(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// Standard normal via Box–Muller (cached second deviate).
  double Normal();
  double Normal(double mean, double stddev) { return mean + stddev * Normal(); }

  /// Exponential with the given rate (mean 1/rate).
  double Exponential(double rate);

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// PTRS transformation for large means).
  int64_t Poisson(double mean);

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Weights must be non-negative and not all zero.
  size_t Categorical(const std::vector<double>& weights);

  /// Samples k distinct indices uniformly from [0, n) (Floyd's algorithm);
  /// if k >= n returns all of [0, n). Order of the result is unspecified.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Snapshot of the complete generator state.
  RngState SaveState() const;

  /// Resumes from a snapshot: subsequent draws are bitwise identical to the
  /// generator the snapshot was taken from.
  void RestoreState(const RngState& s);

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace sns

#endif  // SLICENSTITCH_COMMON_RANDOM_H_
