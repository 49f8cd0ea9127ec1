// SNS+VEC (Alg. 5 updateRowVec+): the numerically stable variant of
// SNS-VEC. Rows are refreshed entry-by-entry with coordinate descent — the
// closed-form minimizer of Eq. 19 (Eq. 21 for non-time modes, Eq. 22 with
// the model approximation for the time mode) — and every updated entry is
// clipped to [−η, η]. Coordinate descent plus clipping never increases the
// local objective, which is what rescues the method from the blow-ups of
// SNS-VEC (Observation 3).

#ifndef SLICENSTITCH_CORE_SNS_VEC_PLUS_H_
#define SLICENSTITCH_CORE_SNS_VEC_PLUS_H_

#include "core/row_updater_base.h"

namespace sns {

class SnsVecPlusUpdater : public RowUpdaterBase {
 public:
  /// clip_bound is the paper's η > 0. With nonnegative=true, entries are
  /// clipped to [0, η] instead of [−η, η] — projected coordinate descent,
  /// giving NMF-style factors (extension; see DESIGN.md).
  explicit SnsVecPlusUpdater(double clip_bound, bool nonnegative = false)
      : clip_min_(nonnegative ? 0.0 : -clip_bound), clip_max_(clip_bound) {
    SNS_CHECK(clip_bound > 0.0);
  }

  std::string_view name() const override { return "SNS+VEC"; }

 protected:
  bool NeedsPrevGrams() const override { return false; }

  void UpdateRow(int mode, int64_t row, const SparseTensor& window,
                 const WindowDelta& delta, CpdState& state,
                 UpdateWorkspace& ws) override;

 private:
  double clip_min_;
  double clip_max_;
};

/// Shared coordinate-descent inner loop of the + variants. For each k it
/// computes a(m)_{i,k} ← (numerator_k − d_k) / c_k, clipped to
/// [clip_min, clip_max], where c_k = HQ(k,k), d_k = Σ_{r≠k} row[r]·HQ(r,k)
/// uses the live row (Eq. 20), and numerator_k is the variant-specific data
/// term (Σ x·Πa of Eq. 21, or e + Σ Δx·Πa of Eq. 22, or e + Σ (x̄+Δx)·Πa of
/// Eq. 23). One-dimensional projection onto [clip_min, clip_max] never
/// increases the convex per-entry objective. Entries with c_k ≈ 0 (dead
/// component) are left unchanged.
///
/// Padded-buffer contract: `row` must reference hq.stride() doubles with
/// zero padding lanes (factor rows qualify) — the d_k dot runs tail-free to
/// the padded bound. `numerator` only needs `rank` values.
void CoordinateDescentRow(double* row, int64_t rank, const Matrix& hq,
                          const double* numerator, double clip_min,
                          double clip_max);

}  // namespace sns

#endif  // SLICENSTITCH_CORE_SNS_VEC_PLUS_H_
