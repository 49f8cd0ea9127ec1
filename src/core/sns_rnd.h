// SNS-RND (Alg. 3 + Alg. 4 updateRowRan): caps the per-row work of SNS-VEC
// at a user constant θ. Rows with deg ≤ θ use the exact rule (Eq. 12); heavy
// rows approximate X by X̃ + X̄ — the pre-event model plus residual
// corrections at θ sampled non-zeros — giving the update rule
// A(m)(i,:) ← A(m)(i,:) H_prev H† + (X̄+ΔX)_(m)(i,:) K H† (Eq. 16) with
// H_prev = ∗_{n≠m} A(n)'_prev A(n) maintained incrementally (Eq. 17).
// Per-event cost is O(M²Rθ + M²R² + MR³): constant in the data size
// (Theorem 5). The sampled right-hand side is RowUpdaterBase::SampledRowRhs,
// shared with SNS+RND; the MR³ is the per-row Cholesky solve.

#ifndef SLICENSTITCH_CORE_SNS_RND_H_
#define SLICENSTITCH_CORE_SNS_RND_H_

#include "common/random.h"
#include "core/row_updater_base.h"

namespace sns {

class SnsRndUpdater : public RowUpdaterBase {
 public:
  /// sample_threshold is the paper's θ ≥ 1. The workspace sample buffer is
  /// pre-reserved for θ plus the ≤2 delta cells a tiny-slice enumeration
  /// may add, keeping the sampled path allocation-free.
  SnsRndUpdater(int64_t sample_threshold, uint64_t seed)
      : RowUpdaterBase(sample_threshold + 4),
        sample_threshold_(sample_threshold),
        rng_(seed) {
    SNS_CHECK(sample_threshold_ >= 1);
  }

  std::string_view name() const override { return "SNS-RND"; }

  Rng* MutableRng() override { return &rng_; }

 protected:
  bool NeedsPrevGrams() const override { return true; }

  void UpdateRow(int mode, int64_t row, const SparseTensor& window,
                 const WindowDelta& delta, CpdState& state,
                 UpdateWorkspace& ws) override;

 private:
  int64_t sample_threshold_;
  Rng rng_;
};

}  // namespace sns

#endif  // SLICENSTITCH_CORE_SNS_RND_H_
