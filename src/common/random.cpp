#include "common/random.h"

#include <cmath>
#include <unordered_set>

#include "common/check.h"

namespace sns {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
}

double Rng::UniformDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = UniformDouble();
  } while (u1 <= 0.0);
  const double u2 = UniformDouble();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::Exponential(double rate) {
  SNS_DCHECK(rate > 0.0);
  double u = 0.0;
  do {
    u = UniformDouble();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

int64_t Rng::Poisson(double mean) {
  SNS_DCHECK(mean >= 0.0);
  if (mean <= 0.0) return 0;
  if (mean < 30.0) {
    // Knuth's multiplication method.
    const double limit = std::exp(-mean);
    double prod = UniformDouble();
    int64_t n = 0;
    while (prod > limit) {
      prod *= UniformDouble();
      ++n;
    }
    return n;
  }
  // PTRS transformed-rejection (Hörmann 1993) for large means.
  const double b = 0.931 + 2.53 * std::sqrt(mean);
  const double a = -0.059 + 0.02483 * b;
  const double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
  const double v_r = 0.9277 - 3.6224 / (b - 2.0);
  while (true) {
    double u = UniformDouble() - 0.5;
    double v = UniformDouble();
    double us = 0.5 - std::fabs(u);
    int64_t k = static_cast<int64_t>(
        std::floor((2.0 * a / us + b) * u + mean + 0.43));
    if (us >= 0.07 && v <= v_r) return k;
    if (k < 0 || (us < 0.013 && v > us)) continue;
    const double log_mean = std::log(mean);
    if (std::log(v * inv_alpha / (a / (us * us) + b)) <=
        k * log_mean - mean - std::lgamma(static_cast<double>(k) + 1.0)) {
      return k;
    }
  }
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  SNS_DCHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) total += w;
  SNS_DCHECK(total > 0.0);
  double target = UniformDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // Guard against accumulated rounding.
}

RngState Rng::SaveState() const {
  RngState s;
  for (int i = 0; i < 4; ++i) s.state[static_cast<size_t>(i)] = state_[i];
  s.has_cached_normal = has_cached_normal_;
  s.cached_normal = cached_normal_;
  return s;
}

void Rng::RestoreState(const RngState& s) {
  for (int i = 0; i < 4; ++i) state_[i] = s.state[static_cast<size_t>(i)];
  has_cached_normal_ = s.has_cached_normal;
  cached_normal_ = s.cached_normal;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  std::vector<size_t> out;
  if (k >= n) {
    out.resize(n);
    for (size_t i = 0; i < n; ++i) out[i] = i;
    return out;
  }
  out.reserve(k);
  // Floyd's algorithm: k iterations, O(k) expected set operations.
  std::unordered_set<size_t> chosen;
  chosen.reserve(k * 2);
  for (size_t j = n - k; j < n; ++j) {
    size_t t = static_cast<size_t>(NextUint64(j + 1));
    if (chosen.contains(t)) t = j;
    chosen.insert(t);
    out.push_back(t);
  }
  return out;
}

}  // namespace sns
