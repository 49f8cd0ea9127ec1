// Damped Newton row updates for non-Gaussian losses (streaming GCP).
//
// The Gaussian row rules (Eqs. 9/12/16/21-23) are closed-form least-squares
// solves against Hadamard-of-Grams systems. For a general pointwise loss
// ℓ(y, θ) no Gram shortcut exists — the curvature ℓ''(y, θ) varies per cell
// — so each affected row takes one damped Newton step on the restricted
// objective
//
//   F(a) = Σ_{J ∈ cells} ℓ(x_J, h_J · a),   h_J = ∗_{n≠m} A(n)(j_n, :),
//
// with gradient g = Σ ℓ'·h_J, curvature H = Σ ℓ''·h_J h_J' + ridge·I, solved
// through the same Cholesky row solver as the Gaussian path. The step is
// projected onto the variant's clip box [clip_min, clip_max] at full length
// first (the box is convex and contains the current row, so every backtrack
// point stays feasible and θ stays linear in the step length), then
// backtracks over α ∈ {1, ½, ¼, ⅛} and commits the first candidate whose
// restricted objective does not increase; if all four fail the row is left
// unchanged. That acceptance rule is what makes the window loss monotone
// non-increasing on a static window (regression-guarded by
// tests/losses_test.cpp).
//
// The cell set is the caller's choice: the VEC/MAT-style exact paths pass
// the row's whole slice of window non-zeros; the θ-sampled RND paths pass
// their sampled cells (which include zero cells — those contribute ℓ(0, θ)
// terms that pull spurious model mass down) plus the event's delta cells.
//
// Cost model, per row with n = |cells|, M modes and padded rank P. Every
// pass runs over the whole cell set at once, so a cell costs no indirect
// call:
//   - gather: each cell's M − 1 factor-row pointers and its value, read
//     straight from the slice (or the sampled span), O(n·M);
//   - staging: one gather_hadamard_dots call forms each cell's Hadamard row
//     h_J ONCE, O(M·P), into a cells × P panel of the workspace, with θ at
//     the current row from the registers that hold it;
//   - pass 1: ℓ, ℓ', ℓ'' for every cell in one LossFunction::EvaluateBatch
//     call (Poisson: one vector exp_clamped pass, O(n), on every tier); the
//     objective summed in cell order; the gradient in one panel_axpy call,
//     O(n·P);
//   - curvature: only the upper triangle of Σ ℓ''·h h' is accumulated —
//     all the Cholesky solve reads — by the register-tiled weighted SYRK
//     of the kernel table (RankKernelTable::weighted_syrk_upper),
//     O(n·P²/2);
//   - the Cholesky factorize and solve (one table call each), O(R³), then
//     pass 2: the step's θ-rates in one panel_dots call, O(n·P);
//   - backtracking on cached scalars: per trial length one trial-θ pass,
//     one LossFunction::ValueBatch call and a sum in cell order, O(n).
// So O(n·(M·P + P²/2) + R³) in all — still the price of loss generality
// against the Gaussian Gram shortcut; BM_LossUpdate tracks it. Measured
// on durable-gcp (P = 20, 115 cells per step on average; rdtsc timers in
// an instrumented build, 4-vCPU AVX-512 host, 2.1 GHz TSC), a step costs
// about 13.6k cycles: the SYRK 30%, the Gram solve 17%, staging 14%, the
// gather 10%, backtracking 9%, the loss terms 8%, projection and dθ 8%,
// the gradient 5%. Every element sees the same floating-point operations
// in the same cell order as a per-cell loop of Hadamard product, dot,
// Evaluate, axpy and outer-product accumulation, so the factor state is
// bitwise that of the straightforward step per kernel tier
// (tests/hot_path_test.cpp pins it). The workspace reuses its buffers
// across events; the panel and per-cell scratch only grow, to the largest
// cell set seen, so steady state allocates nothing new.

#ifndef SLICENSTITCH_LOSSES_GCP_ROW_UPDATE_H_
#define SLICENSTITCH_LOSSES_GCP_ROW_UPDATE_H_

#include <span>
#include <vector>

#include "core/cpd_state.h"
#include "core/gram_solve.h"
#include "core/slice_sampler.h"
#include "linalg/matrix.h"
#include "linalg/rank_dispatch.h"
#include "linalg/simd.h"
#include "losses/loss_function.h"
#include "tensor/sparse_tensor.h"

namespace sns {

/// Scratch of one GCP Newton row step, reused across rows and events.
struct GcpRowWorkspace {
  /// (Re)sizes the rank-shaped buffers and resolves the kernel table at the
  /// process tier; allocation-free no-op when the rank is unchanged.
  void Prepare(int64_t rank);

  /// Sizes the per-cell buffers for `num_cells` cells of `rows_per_cell`
  /// factor rows each (Prepare first). Capacity only grows, geometrically,
  /// so steady state never allocates, and a step writes no element it does
  /// not use.
  void Reserve(size_t num_cells, size_t rows_per_cell);

  const RankKernelTable* kernels = nullptr;
  int64_t padded_rank = 0;

  Matrix hessian;           // Σ ℓ''·h h' + ridge·I (upper triangle only).
  GramSolver solver;
  AlignedVector grad;       // −g accumulator (so Solve yields the step).
  AlignedVector step;       // Box-projected Newton direction.
  AlignedVector candidate;  // Trial row of the backtracking search.
  AlignedVector old_row;    // Row value at entry.
  AlignedVector panel;      // cells × padded_rank staged Hadamard rows.
  /// Factor-row pointers of each cell's Hadamard row (modes − 1 per cell,
  /// mode order), gathered from the cell set before staging.
  std::vector<const double*> rows;

  /// Per-cell arrays of the batch passes, sized to the largest cell set
  /// seen: the data values, θ at entry, the step's θ-rate, ℓ'' (the SYRK
  /// weights), −ℓ' (the gradient weights), a trial θ and a loss value.
  std::vector<double> y;
  std::vector<double> theta0;
  std::vector<double> dtheta;
  std::vector<double> curvature;
  std::vector<double> grad_weight;
  std::vector<double> trial;
  std::vector<double> value;
  /// Cell set of RowUpdater's θ-sampled rule (sampled cells + delta cells).
  std::vector<SampledCell> cells;

 private:
  int64_t rank_ = 0;
};

/// One damped Newton step of A(mode)(row, :) on the restricted objective
/// over `cells` (window coordinates + values; every cell must have
/// index[mode] == row). The updated row is written back into the factor,
/// but the Grams are NOT touched — callers commit the row through their own
/// Gram maintenance (RowUpdater::CommitRow) or recompute afterwards
/// (GcpSweep).
/// Returns true when the row changed; ws.old_row then holds its previous
/// value. Pass clip_min = -inf / clip_max = +inf for unclipped variants.
bool GcpNewtonRowUpdate(CpdState& state, int mode, int64_t row,
                        const LossFunction& loss,
                        std::span<const SampledCell> cells, double clip_min,
                        double clip_max, GcpRowWorkspace& ws);

/// GcpNewtonRowUpdate over the full slice {J : J[mode] = row} of window
/// non-zeros, in slice order — the exact (non-sampled) GCP row rule. The
/// slice's factor rows and values go straight into the workspace, with no
/// SampledCell records in between; the result is bitwise the span form's
/// over the same cells.
bool GcpNewtonRowUpdateOnSlice(const SparseTensor& window, CpdState& state,
                               int mode, int64_t row, const LossFunction& loss,
                               double clip_min, double clip_max,
                               GcpRowWorkspace& ws);

/// GCP analog of one SNS-MAT ALS sweep: a damped Newton step for every
/// factor row with a non-empty window slice, mode by mode, reading the
/// live (partially updated) factors like ALS does. λ is left untouched
/// (non-Gaussian engines absorb λ into the factors at initialization) and
/// the Grams are left stale — the caller refreshes them (SNS-MAT recomputes
/// them after the sweep).
void GcpSweep(const SparseTensor& window, CpdState& state,
              const LossFunction& loss, GcpRowWorkspace& ws);

}  // namespace sns

#endif  // SLICENSTITCH_LOSSES_GCP_ROW_UPDATE_H_
