#include "core/sns_vec.h"

#include <limits>

#include "tensor/mttkrp.h"

namespace sns {

void SnsVecUpdater::UpdateRow(int mode, int64_t row,
                              const SparseTensor& window,
                              const WindowDelta& delta, CpdState& state,
                              UpdateWorkspace& ws) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (GcpUpdateRow(mode, row, window, delta, state, -kInf, kInf,
                   /*sample_threshold=*/0, /*rng=*/nullptr)) {
    return;  // Non-Gaussian loss: the GCP Newton step replaces Eqs. 9/12.
  }
  const int time_mode = state.num_modes() - 1;
  Matrix& factor = state.model.factor(mode);
  const RankKernelTable& kr = *ws.kernels;
  const int64_t padded = ws.padded_rank;
  kr.copy(factor.Row(row), ws.old_row.data(), padded);

  ws.solver.Factorize(ws.h);  // H(m) = ∗_{n≠m} Q(n), preloaded by the base.

  if (mode == time_mode) {
    // Eq. 9: A(M)(row,:) += ΔX_(M)(row,:) K(M) H(M)†. The matricized delta
    // row has at most one non-zero — the delta cell living in this slice —
    // and its K(M) row is the Hadamard of the non-time factor rows.
    kr.fill(ws.rhs.data(), 0.0, padded);
    for (const DeltaCell& cell : delta.cells) {
      if (cell.index[time_mode] != row) continue;
      HadamardRowProduct(state.model.factors(), cell.index, time_mode,
                         ws.had.data());
      kr.axpy(cell.delta, ws.had.data(), ws.rhs.data(), padded);
    }
    ws.solver.Solve(ws.rhs.data(), ws.solution.data());
    kr.axpy(1.0, ws.solution.data(), factor.Row(row), padded);
  } else {
    // Eq. 12: A(m)(row,:) ← (X + ΔX)_(m)(row,:) K(m) H(m)†. The window
    // already contains the delta, so the row MTTKRP is the full right side.
    MttkrpRow(window, state.model.factors(), mode, row, ws.rhs.data(),
              ws.had.data());
    ws.solver.Solve(ws.rhs.data(), ws.solution.data());
    kr.copy(ws.solution.data(), factor.Row(row), padded);
  }

  CommitRow(mode, row, ws.old_row.data(), state);  // Eq. 13.
}

}  // namespace sns
