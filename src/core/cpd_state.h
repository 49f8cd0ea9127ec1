// Mutable decomposition state shared by every updater: the Kruskal model
// plus the incrementally maintained Gram matrices Q(m) = A(m)'A(m) that make
// the O(1)-style updates of §V possible.

#ifndef SLICENSTITCH_CORE_CPD_STATE_H_
#define SLICENSTITCH_CORE_CPD_STATE_H_

#include <vector>

#include "linalg/matrix.h"
#include "tensor/kruskal.h"

namespace sns {

/// Factor matrices + Grams. The time mode is always the last mode.
struct CpdState {
  KruskalModel model;
  /// grams[m] = A(m)'A(m), kept in lockstep with the factors by the update
  /// rules (Eqs. 13, 24, 25) or recomputed wholesale after batch steps.
  std::vector<Matrix> grams;

  CpdState() = default;
  explicit CpdState(KruskalModel m) : model(std::move(m)) { RecomputeGrams(); }

  int num_modes() const { return model.num_modes(); }
  int64_t rank() const { return model.rank(); }

  /// Recomputes every Gram matrix from the factors (O(Σ N_m R²)).
  void RecomputeGrams();

  /// Folds λ into the factors (each mode absorbs λ^(1/M)) and resets λ = 1.
  /// The unnormalized variants (everything except SNS-MAT) operate on plain
  /// factors, so ALS-initialized models are de-normalized through this.
  void AbsorbLambda();
};

/// Eq. 13 (and Eqs. 24–25 taken together): Q ← Q − p'p + a'a after the row
/// of one factor changed from `old_row` to `new_row`. Padded-buffer
/// contract: both rows must reference gram.stride() doubles with zero
/// padding lanes (Matrix rows and AlignedVector buffers qualify).
void ApplyGramRowUpdate(Matrix& gram, const double* old_row,
                        const double* new_row);

}  // namespace sns

#endif  // SLICENSTITCH_CORE_CPD_STATE_H_
