// Incremental Hadamard-of-Grams products H(m) = ∗_{n≠m} Q(n) (Eqs. 4/12).
//
// Every row update rule needs H(m) for the mode it touches, and a single
// event (or ALS sweep) reads H for every mode while committing Gram changes
// mode-by-mode in between. Recomputing each product from scratch costs
// O(N²·R²) Hadamard work per event; this cache maintains lazily revalidated
// prefix products P(i) = ∗_{n<i} Q(n) and suffix products S(i) = ∗_{n≥i}
// Q(n), so the same event costs O(N·R²): a changed mode only invalidates the
// chain entries that depend on it, and ProductExcept recomputes exactly the
// missing links.
//
// All chain matrices are preallocated in BeginEvent (reallocation only when
// the mode count or rank changes), so the steady state performs zero heap
// allocations — part of the per-event zero-allocation guarantee tested in
// tests/hot_path_test.cpp.

#ifndef SLICENSTITCH_CORE_GRAM_PRODUCT_CACHE_H_
#define SLICENSTITCH_CORE_GRAM_PRODUCT_CACHE_H_

#include <vector>

#include "linalg/matrix.h"

namespace sns {

/// Contract: BeginEvent binds the cache to one Gram vector and invalidates
/// everything (the grams may have changed arbitrarily since the last event);
/// between BeginEvent and the next BeginEvent the bound grams may only
/// change through matching NotifyModeChanged calls.
class GramProductCache {
 public:
  /// Binds to `grams` (N square R×R matrices, which must outlive the
  /// binding) and invalidates all cached products.
  void BeginEvent(const std::vector<Matrix>& grams);

  /// Declares that grams[mode] changed; invalidates the dependent prefix
  /// and suffix chain entries (O(1), no recomputation until the next read).
  void NotifyModeChanged(int mode);

  /// out = ∗_{n≠mode} grams[n] into a preallocated R×R `out`. Recomputes
  /// only the invalidated chain links. mode = N behaves like "skip nothing
  /// past the end": the product over all modes.
  void ProductExcept(int mode, Matrix& out);

 private:
  const std::vector<Matrix>* grams_ = nullptr;
  std::vector<Matrix> prefix_;  // prefix_[i] = ∗_{n<i} Q(n); prefix_[0] = 1.
  std::vector<Matrix> suffix_;  // suffix_[i] = ∗_{n≥i} Q(n); suffix_[N] = 1.
  int prefix_valid_ = 0;        // prefix_[0..prefix_valid_] are valid.
  int suffix_valid_ = 0;        // suffix_[suffix_valid_..N] are valid.
};

}  // namespace sns

#endif  // SLICENSTITCH_CORE_GRAM_PRODUCT_CACHE_H_
