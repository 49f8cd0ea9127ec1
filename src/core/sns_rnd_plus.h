// SNS+RND (Alg. 5 updateRowRan+): the paper's recommended default — the
// θ-sampled update of SNS-RND made stable with coordinate descent and
// clipping. Light rows (deg ≤ θ) use the exact coordinate rule (Eq. 21);
// heavy rows replace X with X̃ + X̄ and use Eq. 23, where the e-term flows
// through the incrementally maintained U(m) = A(m)'_prev A(m) (Eq. 26).
// Per-event cost O(M²Rθ + M²R²): constant for fixed M, R, θ (Theorem 7).
// The sampled right-hand side is RowUpdaterBase::SampledRowRhs, shared
// with SNS-RND: O(MR²) for the e-term and O(MR) per sampled cell (one row
// gather feeding both its Hadamard row and its pre-event value x̃) per
// heavy row; the coordinate-descent pass adds O(R²).

#ifndef SLICENSTITCH_CORE_SNS_RND_PLUS_H_
#define SLICENSTITCH_CORE_SNS_RND_PLUS_H_

#include "common/random.h"
#include "core/row_updater_base.h"

namespace sns {

class SnsRndPlusUpdater : public RowUpdaterBase {
 public:
  /// sample_threshold is θ ≥ 1; clip_bound is η > 0. With nonnegative=true,
  /// entries are clipped to [0, η] (projected coordinate descent).
  SnsRndPlusUpdater(int64_t sample_threshold, double clip_bound, uint64_t seed,
                    bool nonnegative = false)
      : RowUpdaterBase(sample_threshold + 4),
        sample_threshold_(sample_threshold),
        clip_min_(nonnegative ? 0.0 : -clip_bound),
        clip_max_(clip_bound),
        rng_(seed) {
    SNS_CHECK(sample_threshold_ >= 1);
    SNS_CHECK(clip_bound > 0.0);
  }

  std::string_view name() const override { return "SNS+RND"; }

  Rng* MutableRng() override { return &rng_; }

 protected:
  bool NeedsPrevGrams() const override { return true; }

  void UpdateRow(int mode, int64_t row, const SparseTensor& window,
                 const WindowDelta& delta, CpdState& state,
                 UpdateWorkspace& ws) override;

 private:
  int64_t sample_threshold_;
  double clip_min_;
  double clip_max_;
  Rng rng_;
};

}  // namespace sns

#endif  // SLICENSTITCH_CORE_SNS_RND_PLUS_H_
