#include "core/gram_product_cache.h"

#include <algorithm>

namespace sns {

void GramProductCache::BeginEvent(const std::vector<Matrix>& grams) {
  SNS_CHECK(!grams.empty());
  grams_ = &grams;
  const int n = static_cast<int>(grams.size());
  const int64_t rank = grams[0].rows();
  if (static_cast<int>(prefix_.size()) != n + 1 ||
      prefix_[0].rows() != rank) {
    prefix_.assign(static_cast<size_t>(n) + 1, Matrix(rank, rank));
    suffix_.assign(static_cast<size_t>(n) + 1, Matrix(rank, rank));
    prefix_[0].Fill(1.0);
    suffix_[static_cast<size_t>(n)].Fill(1.0);
  }
  prefix_valid_ = 0;
  suffix_valid_ = n;
}

void GramProductCache::NotifyModeChanged(int mode) {
  SNS_CHECK(grams_ != nullptr);
  SNS_DCHECK(mode >= 0 && mode < static_cast<int>(grams_->size()));
  // prefix_[i] depends on Q(n < i); suffix_[i] depends on Q(n ≥ i).
  prefix_valid_ = std::min(prefix_valid_, mode);
  suffix_valid_ = std::max(suffix_valid_, mode + 1);
}

void GramProductCache::ProductExcept(int mode, Matrix& out) {
  SNS_CHECK(grams_ != nullptr);
  const std::vector<Matrix>& grams = *grams_;
  const int n = static_cast<int>(grams.size());
  SNS_DCHECK(mode >= 0 && mode <= n);
  for (int i = prefix_valid_ + 1; i <= mode; ++i) {
    HadamardInto(prefix_[i - 1], grams[i - 1], prefix_[i]);
  }
  prefix_valid_ = std::max(prefix_valid_, mode);
  for (int i = suffix_valid_ - 1; i >= mode + 1; --i) {
    HadamardInto(grams[i], suffix_[i + 1], suffix_[i]);
  }
  suffix_valid_ = std::min(suffix_valid_, mode + 1);
  if (mode < n) {
    HadamardInto(prefix_[mode], suffix_[mode + 1], out);
  } else {
    out.CopyFrom(prefix_[n]);
  }
}

}  // namespace sns
