#include "losses/gcp_row_update.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace sns {
namespace {

// Tikhonov ridge added to the Newton system's diagonal: scaled to the
// system's own trace so it stays negligible against real curvature but
// keeps the system positive definite when the cell set is rank-deficient
// (few cells, collinear Hadamard rows). A system still too ill-conditioned
// for the Cholesky solve takes GramSolver's own ridge.
constexpr double kRidgeScale = 1e-9;

// Backtracking schedule of the damped step.
constexpr double kAlphas[] = {1.0, 0.5, 0.25, 0.125};

}  // namespace

void GcpRowWorkspace::Prepare(int64_t rank) {
  if (rank == rank_ && kernels != nullptr) return;
  rank_ = rank;
  padded_rank = PaddedRank(rank);
  kernels = &GetRankKernelTable(padded_rank);
  hessian = Matrix(rank, rank);
  grad.Assign(rank, 0.0);
  step.Assign(rank, 0.0);
  candidate.Assign(rank, 0.0);
  old_row.Assign(rank, 0.0);
}

void GcpRowWorkspace::Reserve(size_t num_cells, size_t rows_per_cell) {
  // Grow only: a smaller step keeps the size, so no step value-initializes
  // elements an earlier one already sized, and std::vector grows the
  // capacity geometrically.
  if (y.size() < num_cells) {
    for (std::vector<double>* v :
         {&y, &theta0, &dtheta, &curvature, &grad_weight, &trial, &value}) {
      v->resize(num_cells);
    }
  }
  const size_t needed_rows = num_cells * rows_per_cell;
  if (rows.size() < needed_rows) rows.resize(needed_rows);
  const int64_t needed = static_cast<int64_t>(num_cells) * padded_rank;
  if (panel.size() < needed) panel.Resize(std::max(needed, 2 * panel.size()));
}

namespace {

// Snapshots the row into ws.old_row (callers commit against it even when
// the step declines to move the row) and sizes the workspace for
// `num_cells` cells. False when there are none: no information, so the
// row is left alone.
bool BeginStep(CpdState& state, int mode, int64_t row, size_t num_cells,
               GcpRowWorkspace& ws) {
  ws.Prepare(state.rank());
  ws.kernels->copy(state.model.factor(mode).Row(row), ws.old_row.data(),
                   ws.padded_rank);
  if (num_cells == 0) return false;
  ws.Reserve(num_cells, static_cast<size_t>(state.num_modes() - 1));
  return true;
}

// Writes the factor rows of cell `index` in every mode but `mode`, in mode
// order, to `out`; returns the end of what it wrote.
const double** GatherFactorRows(const std::vector<Matrix>& factors,
                                const ModeIndex& index, int mode,
                                const double** out) {
  for (int m = 0; m < static_cast<int>(factors.size()); ++m) {
    if (m != mode) *out++ = factors[m].Row(index[m]);
  }
  return out;
}

// The damped Newton step over the n cells whose factor rows and values the
// caller gathered into ws.rows and ws.y after BeginStep.
bool NewtonStep(CpdState& state, int mode, int64_t row,
                const LossFunction& loss, size_t n, double clip_min,
                double clip_max, GcpRowWorkspace& ws) {
  const int64_t rank = state.rank();
  const RankKernelTable& kr = *ws.kernels;
  const int64_t padded = ws.padded_rank;
  double* live_row = state.model.factor(mode).Row(row);

  // Pass 1: stage every cell's Hadamard row once, with θ at the current
  // row, then the loss terms, the objective and the gradient, each one pass
  // over the panel or the cells.
  const auto cells_n = static_cast<int64_t>(n);
  kr.gather_hadamard_dots(ws.rows.data(), state.num_modes() - 1, cells_n,
                          ws.old_row.data(), ws.panel.data(),
                          ws.theta0.data(), padded);
  loss.EvaluateBatch(ws.y.data(), ws.theta0.data(), ws.value.data(),
                     ws.grad_weight.data(), ws.curvature.data(), n);
  double obj0 = 0.0;
  for (size_t c = 0; c < n; ++c) {
    obj0 += ws.value[c];
    ws.grad_weight[c] = -ws.grad_weight[c];
  }
  if (!std::isfinite(obj0)) return false;  // Already-poisoned row: bail out.
  kr.fill(ws.grad.data(), 0.0, padded);
  kr.panel_axpy(ws.grad_weight.data(), ws.panel.data(), cells_n,
                ws.grad.data(), padded);

  // Curvature: the upper triangle of Σ ℓ''·h h' in one tiled pass over the
  // panel — all the Cholesky solver reads.
  ws.hessian.SetZero();
  kr.weighted_syrk_upper(ws.panel.data(), ws.curvature.data(),
                         static_cast<int64_t>(n), rank, ws.hessian.Row(0),
                         padded);

  double trace = 0.0;
  for (int64_t r = 0; r < rank; ++r) trace += ws.hessian(r, r);
  const double ridge =
      kRidgeScale * (1.0 + trace / static_cast<double>(rank));
  for (int64_t r = 0; r < rank; ++r) ws.hessian.Row(r)[r] += ridge;

  ws.solver.Factorize(ws.hessian);
  kr.fill(ws.step.data(), 0.0, padded);
  ws.solver.Solve(ws.grad.data(), ws.step.data());  // step = H⁻¹(−g).

  // Project the full-length candidate onto the clip box, then take the
  // PROJECTED direction: the box is convex and contains old_row, so every
  // backtrack point old + α·step stays feasible while θ remains linear in
  // α — which is what lets the search below run on cached scalars.
  kr.fill(ws.candidate.data(), 0.0, padded);
  for (int64_t r = 0; r < rank; ++r) {
    double v = ws.old_row.data()[r] + ws.step.data()[r];
    if (v > clip_max) {
      v = clip_max;
    } else if (v < clip_min) {
      v = clip_min;
    }
    ws.candidate.data()[r] = v;
    ws.step.data()[r] = v - ws.old_row.data()[r];
  }
  const double dir_norm_sq = kr.dot(ws.step.data(), ws.step.data(), padded);
  if (!(dir_norm_sq > 0.0) || !std::isfinite(dir_norm_sq)) return false;

  // Pass 2: the step's θ-rate at every cell, against the staged rows.
  kr.panel_dots(ws.panel.data(), ws.step.data(), cells_n, ws.dtheta.data(),
                padded);

  // Backtracking: commit the first non-increasing candidate, else keep the
  // row exactly as it was (objective unchanged — monotone either way).
  for (double alpha : kAlphas) {
    for (size_t c = 0; c < n; ++c) {
      ws.trial[c] = ws.theta0[c] + alpha * ws.dtheta[c];
    }
    loss.ValueBatch(ws.y.data(), ws.trial.data(), ws.value.data(), n);
    double obj = 0.0;
    for (size_t c = 0; c < n; ++c) obj += ws.value[c];
    if (!std::isfinite(obj) || obj > obj0) continue;
    kr.copy(ws.old_row.data(), ws.candidate.data(), padded);
    kr.axpy(alpha, ws.step.data(), ws.candidate.data(), padded);
    for (int64_t r = 0; r < rank; ++r) {
      // Re-clamp: a + α(b − a) can overshoot the box by an ulp.
      double v = ws.candidate.data()[r];
      if (v > clip_max) {
        v = clip_max;
      } else if (v < clip_min) {
        v = clip_min;
      }
      ws.candidate.data()[r] = v;
    }
    kr.copy(ws.candidate.data(), live_row, padded);
    return true;
  }
  return false;
}

}  // namespace

bool GcpNewtonRowUpdate(CpdState& state, int mode, int64_t row,
                        const LossFunction& loss,
                        std::span<const SampledCell> cells, double clip_min,
                        double clip_max, GcpRowWorkspace& ws) {
  if (!BeginStep(state, mode, row, cells.size(), ws)) return false;
  const double** rows = ws.rows.data();
  for (size_t c = 0; c < cells.size(); ++c) {
    rows = GatherFactorRows(state.model.factors(), cells[c].index, mode, rows);
    ws.y[c] = cells[c].value;
  }
  return NewtonStep(state, mode, row, loss, cells.size(), clip_min, clip_max,
                    ws);
}

bool GcpNewtonRowUpdateOnSlice(const SparseTensor& window, CpdState& state,
                               int mode, int64_t row, const LossFunction& loss,
                               double clip_min, double clip_max,
                               GcpRowWorkspace& ws) {
  const SparseTensor::SliceView slice = window.Slice(mode, row);
  if (!BeginStep(state, mode, row, slice.size(), ws)) return false;
  const double** rows = ws.rows.data();
  size_t c = 0;
  for (const auto [coords, value] : slice) {
    rows = GatherFactorRows(state.model.factors(), coords, mode, rows);
    ws.y[c++] = value;
  }
  return NewtonStep(state, mode, row, loss, slice.size(), clip_min, clip_max,
                    ws);
}

void GcpSweep(const SparseTensor& window, CpdState& state,
              const LossFunction& loss, GcpRowWorkspace& ws) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (int m = 0; m < state.num_modes(); ++m) {
    const int64_t dim = state.model.factor(m).rows();
    for (int64_t i = 0; i < dim; ++i) {
      if (window.Degree(m, i) == 0) continue;
      GcpNewtonRowUpdateOnSlice(window, state, m, i, loss, -kInf, kInf, ws);
    }
  }
}

}  // namespace sns
