// Preallocated per-event scratch space of the row-update hot path.
//
// Every buffer a row updater touches during one event lives here, sized
// once (or when the model shape changes) by Prepare and reused event after
// event, so steady-state event processing performs zero heap allocations
// (guarded by the counting-allocator test in tests/hot_path_test.cpp).
// Owned by RowUpdater and threaded through its UpdateRow; SNS-MAT's ALS
// sweep uses the sibling AlsWorkspace (core/als.h).
//
// All rank-length scratch is 64-byte-aligned and padded to PaddedRank(R)
// with zero padding lanes (linalg/simd.h), so the padded rank-dispatch
// kernels may read and write the full stride. Library kernels (MttkrpRow,
// HadamardRowProduct, CoordinateDescentRow, ...) resolve their own table
// from the stride; Prepare caches the RankKernelTable for the model's
// padded rank only for the primitives the updaters call directly
// (kr.copy, kr.axpy, ...).

#ifndef SLICENSTITCH_CORE_UPDATE_WORKSPACE_H_
#define SLICENSTITCH_CORE_UPDATE_WORKSPACE_H_

#include <vector>

#include "core/gram_solve.h"
#include "core/slice_sampler.h"
#include "linalg/matrix.h"
#include "linalg/rank_dispatch.h"
#include "linalg/simd.h"

namespace sns {

struct UpdateWorkspace {
  /// (Re)sizes every buffer for the given shape and resolves the rank
  /// kernel table at the process tier. No-op — and in particular
  /// allocation-free — when the shape is unchanged. sample_capacity bounds
  /// the number of cells SampleSliceCellsInto may produce per row (0 for
  /// variants that never sample).
  void Prepare(int num_modes, int64_t rank, int64_t sample_capacity);

  /// Compile-time-rank primitive set for padded_rank, resolved by Prepare
  /// for the updaters' direct primitive calls. Null before the first
  /// Prepare.
  const RankKernelTable* kernels = nullptr;
  /// PaddedRank(rank): the trip count of every padded kernel call.
  int64_t padded_rank = 0;

  /// ∗_{n≠m} Q(n) for the row currently being updated — pointed at the
  /// GramProductCache's product by RowUpdater::OnEvent before each
  /// Gaussian UpdateRow (the GCP Newton step never reads it).
  const Matrix* h = nullptr;
  /// Cholesky-backed row solver (allocation-free fast path).
  GramSolver solver;

  AlignedVector old_row;   // Event-start value of the row in flight.
  AlignedVector rhs;       // Right-hand side / numerator accumulator.
  AlignedVector solution;  // Solve output before the factor write.
  AlignedVector had;       // Per-entry Hadamard row product.

  // Sampled rule of the RND variants (RowUpdater::SampledRowRhs).
  std::vector<SampledCell> samples;  // θ-sample output.
  /// Row i of ∗_{n≠m} U(n), built one row at a time for the e-term.
  AlignedVector h_prev_row;
  /// Row i of one reconstructed prev-Gram U(n) = Q(n) + Σ (p−a)'a.
  AlignedVector u_row;

 private:
  int num_modes_ = 0;
  int64_t rank_ = 0;
  int64_t sample_capacity_ = 0;
};

}  // namespace sns

#endif  // SLICENSTITCH_CORE_UPDATE_WORKSPACE_H_
