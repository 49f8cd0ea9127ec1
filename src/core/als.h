// Alternating Least Squares (Eq. 4) — the standard batch CP decomposition.
//
// ALS plays three roles in the reproduction, exactly as in the paper:
//   1. factor initialization on the initial tensor window (§VI-A),
//   2. the offline accuracy reference of "relative fitness" (§VI),
//   3. a single sweep of it is the body of SNS-MAT (Alg. 2).

#ifndef SLICENSTITCH_CORE_ALS_H_
#define SLICENSTITCH_CORE_ALS_H_

#include <vector>

#include "common/random.h"
#include "core/cpd_state.h"
#include "core/gram_product_cache.h"
#include "core/gram_solve.h"
#include "core/options.h"
#include "linalg/simd.h"
#include "tensor/sparse_tensor.h"

namespace sns {

/// Preallocated scratch space of one ALS sweep, reused across sweeps (and
/// across events by SNS-MAT, whose per-event sweep performs zero heap
/// allocations once the workspace is warm — guarded by
/// tests/hot_path_test.cpp). Rank-length scratch is aligned and padded
/// (linalg/simd.h) so the padded rank-dispatch kernels apply.
struct AlsWorkspace {
  /// (Re)sizes the buffers for `state`'s shape; allocation-free no-op when
  /// the shape is unchanged.
  void Prepare(const CpdState& state);

  std::vector<Matrix> mttkrp;  // Per-mode MTTKRP output (factor-shaped).
  AlignedVector had;           // Per-entry Hadamard row scratch.
  AlignedVector col_norm_sq;   // Per-component ‖column‖² accumulator.
  AlignedVector col_scale;     // Per-component 1/‖column‖ (0 for dead cols).
  GramSolver solver;
  GramProductCache grams;
};

/// One full alternating sweep over every mode of `x` (Alg. 2 lines 1-7):
/// A(m) ← X_(m)(⊙_{n≠m} A(n)) H†, followed by column normalization into λ
/// (Alg. 2 line 6). Grams are refreshed per mode. All scratch comes from
/// `ws` — the hot-path form SNS-MAT calls once per event.
void AlsSweep(const SparseTensor& x, CpdState& state, AlsWorkspace& ws);

/// Convenience overload with a throwaway workspace.
void AlsSweep(const SparseTensor& x, CpdState& state);

/// Batch CP decomposition of `x` with random Uniform[0,1) initialization:
/// sweeps until the fitness gain drops below options.fitness_tolerance or
/// options.max_iterations is hit.
KruskalModel AlsDecompose(const SparseTensor& x, int64_t rank,
                          const AlsOptions& options, Rng& rng);

/// Fitness reached by a fresh batch ALS on `x` — the denominator of the
/// paper's relative-fitness metric.
double AlsReferenceFitness(const SparseTensor& x, int64_t rank,
                           const AlsOptions& options, Rng& rng);

}  // namespace sns

#endif  // SLICENSTITCH_CORE_ALS_H_
