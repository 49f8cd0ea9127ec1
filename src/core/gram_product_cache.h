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
// The all-ones ends of the chain are never formed: P(0) and S(N) are
// absent, P(1) is Q(0) itself and S(N−1) is Q(N−1) itself, and a product
// with one absent side is the other side, handed back by reference. As
// 1.0·x = x, every entry is bitwise the one the chain started from ones
// yields. A row-update event of a 3-mode tensor (time rows, then the two
// non-time rows) therefore forms three R×R Hadamards: S(1) = Q(1)∗Q(2),
// Q(0)∗Q(2) and P(2) = Q(0)∗Q(1).
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

  /// ∗_{n≠mode} grams[n]. Recomputes only the invalidated chain links. The
  /// result is one of the bound grams, a chain entry or the cache's own
  /// output matrix; it stays valid while grams[mode] alone changes (a row
  /// commit of `mode`) and until the next ProductExcept or BeginEvent.
  /// mode = N behaves like "skip nothing past the end": the product over
  /// all modes.
  const Matrix& ProductExcept(int mode);

 private:
  // Chain entries; nullptr stands for the all-ones end.
  const Matrix* Prefix(int i) const;
  const Matrix* Suffix(int i) const;

  const std::vector<Matrix>* grams_ = nullptr;
  std::vector<Matrix> prefix_;  // prefix_[i] = P(i) for 2 ≤ i ≤ N.
  std::vector<Matrix> suffix_;  // suffix_[i] = S(i) for i ≤ N − 2.
  Matrix out_;                  // P(mode) ∗ S(mode + 1) when both exist.
  int prefix_valid_ = 0;        // P(0..prefix_valid_) are valid.
  int suffix_valid_ = 0;        // S(suffix_valid_..N) are valid.
};

}  // namespace sns

#endif  // SLICENSTITCH_CORE_GRAM_PRODUCT_CACHE_H_
