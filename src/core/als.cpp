#include "core/als.h"

#include <cmath>

#include "linalg/rank_dispatch.h"
#include "tensor/mttkrp.h"

namespace sns {

void AlsWorkspace::Prepare(const CpdState& state) {
  const int modes = state.num_modes();
  const int64_t rank = state.rank();
  if (static_cast<int>(mttkrp.size()) != modes) mttkrp.resize(modes);
  for (int m = 0; m < modes; ++m) {
    const int64_t rows = state.model.factor(m).rows();
    Matrix& out = mttkrp[static_cast<size_t>(m)];
    if (out.rows() != rows || out.cols() != rank) out = Matrix(rows, rank);
  }
  if (had.size() != rank) {
    had.Assign(rank, 0.0);
    col_norm_sq.Assign(rank, 0.0);
    col_scale.Assign(rank, 0.0);
  }
}

void AlsSweep(const SparseTensor& x, CpdState& state, AlsWorkspace& ws) {
  const int modes = state.num_modes();
  const int64_t rank = state.rank();
  ws.Prepare(state);
  ws.grams.BeginEvent(state.grams);
  const RankKernelTable& kr = GetRankKernelTable(PaddedRank(rank));
  for (int m = 0; m < modes; ++m) {
    Matrix& mttkrp = ws.mttkrp[static_cast<size_t>(m)];
    MttkrpInto(x, state.model.factors(), m, mttkrp, ws.had.data());
    ws.solver.Factorize(ws.grams.ProductExcept(m));  // H of Alg. 2.

    // A(m) ← U H† row by row, written in place: the MTTKRP of mode m never
    // reads A(m), and later modes want the updated factor.
    Matrix& factor = state.model.factor(m);
    for (int64_t i = 0; i < factor.rows(); ++i) {
      ws.solver.Solve(mttkrp.Row(i), factor.Row(i));
    }

    // λ_r = ‖column r‖₂; Ā gets unit columns (Alg. 2 lines 5-6). Zero
    // columns keep λ_r = 0 and stay zero (scaling by 0 below). Both passes
    // run row-major over the padded stride — per component the
    // accumulation order over i is unchanged, so this is bitwise identical
    // to the column-walk formulation.
    const int64_t padded = factor.stride();
    double* norm_sq = ws.col_norm_sq.data();
    double* scale = ws.col_scale.data();
    kr.fill(norm_sq, 0.0, padded);
    for (int64_t i = 0; i < factor.rows(); ++i) {
      const double* row = factor.Row(i);
      kr.fma3(1.0, row, row, norm_sq, padded);
    }
    for (int64_t r = 0; r < rank; ++r) {
      const double norm = std::sqrt(norm_sq[r]);
      state.model.lambda()[static_cast<size_t>(r)] = norm;
      scale[r] = norm > 0.0 ? 1.0 / norm : 0.0;
    }
    for (int64_t i = 0; i < factor.rows(); ++i) {
      kr.mul_accum(factor.Row(i), scale, padded);
    }
    SymmetricGramInto(factor, state.grams[static_cast<size_t>(m)]);
    ws.grams.NotifyModeChanged(m);
  }
}

void AlsSweep(const SparseTensor& x, CpdState& state) {
  AlsWorkspace ws;
  AlsSweep(x, state, ws);
}

KruskalModel AlsDecompose(const SparseTensor& x, int64_t rank,
                          const AlsOptions& options, Rng& rng) {
  CpdState state(KruskalModel::Random(x.dims(), rank, rng));
  AlsWorkspace ws;
  double previous_fitness = state.model.Fitness(x);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    AlsSweep(x, state, ws);
    const double fitness = state.model.Fitness(x);
    if (fitness - previous_fitness < options.fitness_tolerance &&
        iter > 0) {
      break;
    }
    previous_fitness = fitness;
  }
  return state.model;
}

double AlsReferenceFitness(const SparseTensor& x, int64_t rank,
                           const AlsOptions& options, Rng& rng) {
  if (x.nnz() == 0) return 0.0;
  return AlsDecompose(x, rank, options, rng).Fitness(x);
}

}  // namespace sns
