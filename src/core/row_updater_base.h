// Common outline of SNS-VEC / SNS-RND / SNS+VEC / SNS+RND (Algorithm 3).
//
// Per event, only the rows that approximate changed cells are touched:
// first the affected time-mode row(s) (the slice the value left and the
// slice it entered), then the i_m-th row of every non-time factor. This base
// class implements that dispatch plus the bookkeeping the variants share:
//   - Gram maintenance Q(m) = A(m)'A(m) after each row commit (Eq. 13),
//   - the event-start products U(m) = A(m)'_prev A(m) (Alg. 3 line 1,
//     Eqs. 17/26) for the sampling variants — maintained as per-event rank-1
//     delta records (U(m) = Q(m) + Σ (p−a)'a over this event's committed
//     rows) instead of the O(N·R²) deep copy the algorithm literally asks
//     for,
//   - deduplicated row snapshots (inline storage, O(1) lookup) so the
//     pre-event model X̃ = ⟦B(1)…B(M)⟧ can be evaluated exactly while rows
//     are being overwritten (needed by the residual corrections
//     x̄_J = x_J − x̃_J of Eqs. 16/23),
//   - the sampled rule of the RND variants itself (SampledRowRhs): one
//     staged routine for SNS-RND and SNS+RND, O(MR² + θ(M + MR)) per heavy
//     row, hence the O(M²Rθ + M²R²) per event of Theorems 5 and 7,
//   - the per-event UpdateWorkspace and the GramProductCache that hands each
//     UpdateRow its Hadamard-of-Grams product in O(R²) amortized.
//
// The steady-state event path performs zero heap allocations (guarded by
// tests/hot_path_test.cpp).

#ifndef SLICENSTITCH_CORE_ROW_UPDATER_BASE_H_
#define SLICENSTITCH_CORE_ROW_UPDATER_BASE_H_

#include <array>
#include <vector>

#include "core/gram_product_cache.h"
#include "core/update_workspace.h"
#include "core/updater.h"
#include "losses/gcp_row_update.h"

namespace sns {

class RowUpdaterBase : public EventUpdater {
 public:
  void OnEvent(const SparseTensor& window, const WindowDelta& delta,
               CpdState& state) final;

  /// Engine-configured pointwise loss. Gaussian (the default) changes
  /// nothing anywhere — GcpUpdateRow below bails out before touching any
  /// loss machinery, keeping the least-squares paths bitwise intact.
  void set_loss(const LossFunction* loss) final { loss_ = loss; }

 protected:
  /// sample_capacity: upper bound on the cells one SampleSliceCellsInto call
  /// may produce (θ plus delta-cell slack); 0 for variants that never
  /// sample. Pre-reserves the workspace sample buffer.
  explicit RowUpdaterBase(int64_t sample_capacity = 0)
      : sample_capacity_(sample_capacity) {}

  /// True for the RND variants, which need U(m) = A(m)'_prev A(m).
  virtual bool NeedsPrevGrams() const = 0;

  /// Updates A(mode)(row, :) in `state` (factor write + CommitRow call).
  /// On entry ws.h holds ∗_{n≠mode} Q(n) for the current Gram state; the
  /// other ws buffers are free scratch.
  virtual void UpdateRow(int mode, int64_t row, const SparseTensor& window,
                         const WindowDelta& delta, CpdState& state,
                         UpdateWorkspace& ws) = 0;

  /// The value A(mode)(row, :) had at event start (snapshot for rows being
  /// updated, live row otherwise). O(1): non-time snapshots are indexed by
  /// mode, time-mode snapshots are at most two slots.
  const double* PrevRow(int mode, int64_t row, const CpdState& state) const;

  /// After writing the new row into state.model, updates Q(mode) (Eq. 13 /
  /// Eqs. 24-25) and, when NeedsPrevGrams(), records the rank-1 delta that
  /// lets U(mode) be reconstructed from Q(mode) (Eq. 17 / Eq. 26).
  /// `old_row` is the row content from immediately before this update, which
  /// equals its event-start value because each row updates once per event.
  void CommitRow(int mode, int64_t row, const double* old_row,
                 CpdState& state);

  /// The sampled rule shared by SNS-RND (Eq. 16) and SNS+RND (Eq. 23):
  /// writes into ws.rhs, for a row with deg > θ,
  ///   b·(∗_{n≠m} U(n)) + Σ_{J∈S} (x_J − x̃_J)·h_J + Σ_{J∈ΔX} Δx_J·h_J,
  /// with b = ws.old_row (the row's event-start value, loaded by the
  /// caller), S the θ cells SampleSliceCellsInto draws from `rng`, x̃ the
  /// pre-event model, and h_J = ∗_{n≠m} a(n)_{j_n} under the current
  /// factors. Only valid when NeedsPrevGrams().
  ///
  /// Staged for cost O(MR² + θ(M + MR)) per row: the e-term builds row i of
  /// ∗ U(n) — each U(n) = Q(n) + Σ (p−a)'a reconstructed one row at a time
  /// — only where b_i ≠ 0 and folds it straight into rhs; every sample's
  /// rows are gathered once, feeding both its Hadamard row (a direct
  /// product into ws.sample_panel) and its x̃ (per-cell sums interleaved
  /// across cells); the residual axpys then run in cell order. Every value
  /// is bitwise the one the plain per-cell formulation produces.
  void SampledRowRhs(int mode, int64_t row, const SparseTensor& window,
                     const WindowDelta& delta, const CpdState& state,
                     int64_t sample_threshold, Rng& rng,
                     UpdateWorkspace& ws) const;

  /// Non-Gaussian escape hatch shared by every row variant, called first
  /// thing in each UpdateRow: returns false (doing nothing) under the
  /// Gaussian default, so the variant runs its exact least-squares rule
  /// unchanged. For any other loss it performs one damped Newton GCP step
  /// on the row (losses/gcp_row_update.h) — over the full window slice, or
  /// over θ-sampled cells plus the event's delta cells when
  /// sample_threshold > 0 and the slice is heavier than it (the RND
  /// variants' contract) — commits the row through the usual Gram
  /// maintenance, and returns true.
  bool GcpUpdateRow(int mode, int64_t row, const SparseTensor& window,
                    const WindowDelta& delta, CpdState& state, double clip_min,
                    double clip_max, int64_t sample_threshold, Rng* rng);

  /// Number of distinct rows snapshotted for the current event (test hook
  /// for the dedup guarantee).
  int snapshot_count() const { return num_time_snaps_ + time_mode_; }

 private:
  void BeginEvent(const WindowDelta& delta, const CpdState& state);

  // Stages of SampledRowRhs (row_updater_base.cpp).
  void PrevGramETerm(const CpdState& state, int skip_mode, const double* b,
                     UpdateWorkspace& ws) const;
  void StageSamples(const CpdState& state, int mode, int64_t row,
                    size_t begin, size_t end, UpdateWorkspace& ws) const;

  UpdateWorkspace ws_;
  GramProductCache gram_cache_;
  // GCP scratch of the non-Gaussian path; never Prepared (zero footprint)
  // under the Gaussian default.
  GcpRowWorkspace gcp_ws_;
  const LossFunction* loss_ = nullptr;
  int64_t sample_capacity_;
  int time_mode_ = 0;
  int64_t snap_rank_ = 0;
  // Segment stride of the snapshot/delta arenas: PaddedRank(rank), so each
  // segment is a valid padded row (zero padding copied straight from the
  // factor rows) that the padded Gram kernels may read in full.
  int64_t snap_stride_ = 0;

  // Deduplicated row snapshots with inline storage: one slot per non-time
  // mode (every non-time mode snapshots exactly its i_m-th row) plus at
  // most two time-mode slots (the two slices a slide touches). Values live
  // in the flat snapshot_values_ arena: non-time mode m at segment m, time
  // slot t at segment kMaxTensorModes + t.
  std::array<int64_t, kMaxTensorModes> mode_snap_row_;
  std::array<int64_t, 2> time_snap_row_;
  int num_time_snaps_ = 0;
  AlignedVector snapshot_values_;

  // Per-event Gram delta records replacing the prev-Gram deep copy: each
  // committed row stores (p − a) and a back to back in delta_values_.
  std::array<int, kMaxTensorModes + 2> delta_mode_;
  int num_gram_deltas_ = 0;
  AlignedVector delta_values_;
};

}  // namespace sns

#endif  // SLICENSTITCH_CORE_ROW_UPDATER_BASE_H_
