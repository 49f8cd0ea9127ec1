#include "core/sns_rnd_plus.h"

#include "core/sns_vec_plus.h"
#include "tensor/mttkrp.h"

namespace sns {

void SnsRndPlusUpdater::UpdateRow(int mode, int64_t row,
                                  const SparseTensor& window,
                                  const WindowDelta& delta, CpdState& state,
                                  UpdateWorkspace& ws) {
  if (GcpUpdateRow(mode, row, window, delta, state, clip_min_, clip_max_,
                   sample_threshold_, &rng_)) {
    return;  // Non-Gaussian loss: clipped θ-sampled GCP step replaces Eq. 23.
  }
  const int64_t rank = state.rank();
  Matrix& factor = state.model.factor(mode);
  const RankKernelTable& kr = *ws.kernels;
  const int64_t padded = ws.padded_rank;
  kr.copy(factor.Row(row), ws.old_row.data(), padded);

  // ws.h = HQ(m) = ∗_{n≠m} Q(n), preloaded by the base.
  const int64_t degree = window.Degree(mode, row);

  if (degree <= sample_threshold_) {
    // Exact coordinate rule (Alg. 5 line 13 → Eq. 21) for every mode.
    MttkrpRow(window, state.model.factors(), mode, row, ws.rhs.data(),
              ws.had.data());
  } else {
    // Sampled coordinate rule (Alg. 5 lines 9-11, 14 → Eq. 23):
    // e_k + Σ (x̄_J + Δx_J)·Π_{n≠m} a(n)_{j_n k} with
    // e_k = Σ_r b_{i r} (∗_{n≠m} U(n))(r, k), U(n) reconstructed from Q(n)
    // and this event's committed-row deltas.
    SampledRowRhs(mode, row, window, delta, state, sample_threshold_, rng_,
                  ws);
  }

  CoordinateDescentRow(factor.Row(row), rank, ws.h, ws.rhs.data(), clip_min_,
                       clip_max_);
  CommitRow(mode, row, ws.old_row.data(), state);  // Eqs. 24-26.
}

}  // namespace sns
