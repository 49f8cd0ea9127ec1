#include "core/sns_rnd.h"

#include <limits>

#include "tensor/mttkrp.h"

namespace sns {

void SnsRndUpdater::UpdateRow(int mode, int64_t row,
                              const SparseTensor& window,
                              const WindowDelta& delta, CpdState& state,
                              UpdateWorkspace& ws) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (GcpUpdateRow(mode, row, window, delta, state, -kInf, kInf,
                   sample_threshold_, &rng_)) {
    return;  // Non-Gaussian loss: θ-sampled GCP Newton step replaces Eq. 16.
  }
  Matrix& factor = state.model.factor(mode);
  const RankKernelTable& kr = *ws.kernels;
  const int64_t padded = ws.padded_rank;
  kr.copy(factor.Row(row), ws.old_row.data(), padded);

  const int64_t degree = window.Degree(mode, row);

  if (degree <= sample_threshold_) {
    // Exact path (Alg. 4 lines 9-10): Eq. 12, identical to SNS-VEC's
    // non-time rule, applied to every mode including time.
    MttkrpRow(window, state.model.factors(), mode, row, ws.rhs.data(),
              ws.had.data());
  } else {
    // Sampled path (Alg. 4 lines 11-14): Eq. 16 — the e-term through
    // H_prev = ∗_{n≠m} U(n), the θ-sample residuals under the pre-event
    // model, and the ΔX term.
    SampledRowRhs(mode, row, window, delta, state, sample_threshold_, rng_,
                  ws);
  }

  ws.solver.Factorize(ws.h);  // H(m) = ∗_{n≠m} Q(n), preloaded by the base.
  ws.solver.Solve(ws.rhs.data(), ws.solution.data());
  kr.copy(ws.solution.data(), factor.Row(row), padded);

  CommitRow(mode, row, ws.old_row.data(), state);  // Eq. 13 + Eq. 17.
}

}  // namespace sns
