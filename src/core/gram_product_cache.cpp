#include "core/gram_product_cache.h"

#include <algorithm>

namespace sns {

void GramProductCache::BeginEvent(const std::vector<Matrix>& grams) {
  SNS_CHECK(!grams.empty());
  grams_ = &grams;
  const int n = static_cast<int>(grams.size());
  const int64_t rank = grams[0].rows();
  if (static_cast<int>(prefix_.size()) != n + 1 || out_.rows() != rank) {
    prefix_.assign(static_cast<size_t>(n) + 1, Matrix(rank, rank));
    suffix_.assign(static_cast<size_t>(n) + 1, Matrix(rank, rank));
    out_ = Matrix(rank, rank);
  }
  prefix_valid_ = 0;
  suffix_valid_ = n;
}

void GramProductCache::NotifyModeChanged(int mode) {
  SNS_CHECK(grams_ != nullptr);
  SNS_DCHECK(mode >= 0 && mode < static_cast<int>(grams_->size()));
  // P(i) depends on Q(n < i); S(i) depends on Q(n ≥ i).
  prefix_valid_ = std::min(prefix_valid_, mode);
  suffix_valid_ = std::max(suffix_valid_, mode + 1);
}

const Matrix* GramProductCache::Prefix(int i) const {
  if (i == 0) return nullptr;
  if (i == 1) return &(*grams_)[0];
  return &prefix_[static_cast<size_t>(i)];
}

const Matrix* GramProductCache::Suffix(int i) const {
  const int n = static_cast<int>(grams_->size());
  if (i == n) return nullptr;
  if (i == n - 1) return &(*grams_)[static_cast<size_t>(n - 1)];
  return &suffix_[static_cast<size_t>(i)];
}

const Matrix& GramProductCache::ProductExcept(int mode) {
  SNS_CHECK(grams_ != nullptr);
  const std::vector<Matrix>& grams = *grams_;
  const int n = static_cast<int>(grams.size());
  SNS_DCHECK(mode >= 0 && mode <= n);
  // P(0), P(1), S(N−1) and S(N) are never formed.
  for (int i = std::max(prefix_valid_ + 1, 2); i <= mode; ++i) {
    HadamardInto(*Prefix(i - 1), grams[static_cast<size_t>(i - 1)],
                 prefix_[static_cast<size_t>(i)]);
  }
  prefix_valid_ = std::max(prefix_valid_, mode);
  for (int i = std::min(suffix_valid_ - 1, n - 2); i >= mode + 1; --i) {
    HadamardInto(grams[static_cast<size_t>(i)], *Suffix(i + 1),
                 suffix_[static_cast<size_t>(i)]);
  }
  suffix_valid_ = std::min(suffix_valid_, mode + 1);
  const Matrix* left = Prefix(mode);
  const Matrix* right = mode < n ? Suffix(mode + 1) : nullptr;
  if (left != nullptr && right != nullptr) {
    HadamardInto(*left, *right, out_);
    return out_;
  }
  if (left != nullptr) return *left;
  if (right != nullptr) return *right;
  out_.Fill(1.0);  // One mode, skipped: the empty product.
  return out_;
}

}  // namespace sns
