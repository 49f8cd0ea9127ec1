// SNS-VEC, SNS-RND, SNS+VEC and SNS+RND: the common outline of Algorithm 3
// plus two independent choices the variant makes.
//
//   - Sampling (the RND variants): rows whose degree exceeds θ approximate
//     X by X̃ + X̄ — the pre-event model plus residual corrections at θ
//     sampled cells — and use Eq. 16 (SNS-RND) or Eq. 23 (SNS+RND), with
//     the e-term through H_prev = ∗_{n≠m} A(n)'_prev A(n) (Eqs. 17/26). Rows
//     with deg ≤ θ, and every row of the VEC variants, use the exact data
//     term (Eq. 12 / Eq. 21), except the VEC variants' time rows, which use
//     the model approximation (Eq. 9 / Eq. 22). Per-event cost
//     O(M²Rθ + M²R²) (+ MR³ for the Cholesky solves): constant in the data
//     size (Theorems 5 and 7).
//   - Clipping (the + variants): rows are refreshed entry by entry with
//     coordinate descent, each entry clipped to [−η, η] (or [0, η] with
//     nonnegative factors; Alg. 5). Coordinate descent plus clipping never
//     increases the local objective, which is what rescues the method from
//     the blow-ups of the unclipped variants (Observation 3). The unclipped
//     variants solve each row by least squares (Alg. 4).
//
// Per event, only the rows that approximate changed cells are touched:
// first the affected time-mode row(s) (the slice the value left and the
// slice it entered), then the i_m-th row of every non-time factor. Shared
// bookkeeping:
//   - Gram maintenance Q(m) = A(m)'A(m) after each row commit (Eq. 13),
//     resynced from the factors (at most once per event) whenever an
//     unclipped row's H(m) fails to factorize (the unclipped variants'
//     rows grow until Eq. 13 cancels),
//   - the event-start products U(m) = A(m)'_prev A(m) (Alg. 3 line 1,
//     Eqs. 17/26) for the sampling variants — maintained as per-event rank-1
//     delta records (U(m) = Q(m) + Σ (p−a)'a over this event's committed
//     rows) instead of the O(N·R²) deep copy the algorithm literally asks
//     for,
//   - deduplicated row snapshots (inline storage, O(1) lookup) so the
//     pre-event model X̃ = ⟦B(1)…B(M)⟧ can be evaluated exactly while rows
//     are being overwritten (needed by the residual corrections
//     x̄_J = x_J − x̃_J of Eqs. 16/23),
//   - the per-event UpdateWorkspace and the GramProductCache that hands each
//     UpdateRow its Hadamard-of-Grams product in O(R²) amortized.
//
// The steady-state event path performs zero heap allocations (guarded by
// tests/hot_path_test.cpp).

#ifndef SLICENSTITCH_CORE_ROW_UPDATER_H_
#define SLICENSTITCH_CORE_ROW_UPDATER_H_

#include <array>
#include <string>

#include "common/random.h"
#include "core/gram_product_cache.h"
#include "core/options.h"
#include "core/update_workspace.h"
#include "core/updater.h"
#include "losses/gcp_row_update.h"

namespace sns {

class RowUpdater : public EventUpdater {
 public:
  /// `options.variant` (one of the four row variants) picks sampling and
  /// clipping; the RND variants sample θ = options.sample_threshold cells
  /// with an Rng seeded options.seed + 1, the + variants clip to
  /// options.clip_bound (and to [0, η] with options.nonnegative_factors).
  /// `loss` is the pointwise loss to descend: null or Gaussian runs the
  /// least-squares rules unchanged, anything else routes every row through
  /// the GCP Newton step (GcpUpdateRow).
  explicit RowUpdater(const ContinuousCpdOptions& options,
                      const LossFunction* loss = nullptr);

  std::string_view name() const override { return name_; }

  void OnEvent(const SparseTensor& window, const WindowDelta& delta,
               CpdState& state) final;

  /// The θ-sampling Rng of the RND variants; nullptr for the VEC variants.
  Rng* MutableRng() override { return sampled_ ? &rng_ : nullptr; }

 protected:
  /// Updates A(mode)(row, :) in `state` (factor write + CommitRow call).
  /// On entry *ws.h is ∗_{n≠mode} Q(n) for the current Gram state (under
  /// the Gaussian loss; the GCP Newton step never reads it, so non-Gaussian
  /// rows get no product); the other ws buffers are free scratch. Virtual
  /// only so tests can wrap or replace the production rule.
  virtual void UpdateRow(int mode, int64_t row, const SparseTensor& window,
                         const WindowDelta& delta, CpdState& state,
                         UpdateWorkspace& ws);

  /// The value A(mode)(row, :) had at event start (snapshot for rows being
  /// updated, live row otherwise). O(1): non-time snapshots are indexed by
  /// mode, time-mode snapshots are at most two slots.
  const double* PrevRow(int mode, int64_t row, const CpdState& state) const;

  /// After writing the new row into state.model, updates Q(mode) (Eq. 13 /
  /// Eqs. 24-25) and, for the sampling variants, records the rank-1 delta
  /// that lets U(mode) be reconstructed from Q(mode) (Eq. 17 / Eq. 26).
  /// `old_row` is the row content from immediately before this update, which
  /// equals its event-start value because each row updates once per event.
  void CommitRow(int mode, int64_t row, const double* old_row,
                 CpdState& state);

  /// Number of distinct rows snapshotted for the current event (test hook
  /// for the dedup guarantee).
  int snapshot_count() const { return num_time_snaps_ + time_mode_; }

 private:
  void BeginEvent(const WindowDelta& delta, const CpdState& state);

  /// Non-Gaussian escape hatch, called first thing in UpdateRow: returns
  /// false (doing nothing) under the Gaussian default, so the variant runs
  /// its exact least-squares rule unchanged. For any other loss it performs
  /// one damped Newton GCP step on the row (losses/gcp_row_update.h),
  /// clipped to the variant's box — over the full window slice, or, for the
  /// sampling variants on a slice heavier than θ, over θ-sampled cells plus
  /// the event's delta cells — commits the row through the usual Gram
  /// maintenance, and returns true.
  bool GcpUpdateRow(int mode, int64_t row, const SparseTensor& window,
                    const WindowDelta& delta, CpdState& state);

  /// The sampled rule of SNS-RND (Eq. 16) and SNS+RND (Eq. 23): writes into
  /// ws.rhs, for a row with deg > θ,
  ///   b·(∗_{n≠m} U(n)) + Σ_{J∈S} (x_J − x̃_J)·h_J + Σ_{J∈ΔX} Δx_J·h_J,
  /// with b = ws.old_row (the row's event-start value, loaded by the
  /// caller), S the θ cells SampleSliceCellsInto draws from rng_, x̃ the
  /// pre-event model, and h_J = ∗_{n≠m} a(n)_{j_n} under the current
  /// factors.
  ///
  /// Cost O(MR² + θMR) per row: the e-term builds row i of ∗ U(n) — each
  /// U(n) = Q(n) + Σ (p−a)'a reconstructed one row at a time — only where
  /// b_i ≠ 0 and folds it straight into rhs; SampleCorrections then gathers
  /// each sampled cell's rows once, for its x̃ and for its h_J, which goes
  /// into rhs with its last factor row fused into the accumulation. Every
  /// value is bitwise the one the plain per-cell formulation produces.
  void SampledRowRhs(int mode, int64_t row, const SparseTensor& window,
                     const WindowDelta& delta, const CpdState& state,
                     UpdateWorkspace& ws);

  // Stages of SampledRowRhs.
  void PrevGramETerm(const CpdState& state, int skip_mode, const double* b,
                     UpdateWorkspace& ws) const;
  /// rhs += Σ_{J∈ws.samples} (x_J − x̃_J)·h_J in cell order, the pre-event
  /// values x̃ evaluated eight cells at a time.
  void SampleCorrections(const CpdState& state, int mode, int64_t row,
                         UpdateWorkspace& ws) const;

  std::string name_;
  // RND: heavy rows take the sampled rule, and U(m) is maintained. VEC:
  // time rows take the model approximation instead (Eq. 9 / Eq. 22).
  bool sampled_;
  // +: coordinate descent into [clip_min_, clip_max_]; otherwise a
  // Cholesky solve, and the box (±∞) only bounds the GCP step.
  bool clipped_;
  // Null or Gaussian loss: the least-squares rules, which read H(m).
  // Otherwise every row takes the GCP Newton step (GcpUpdateRow).
  bool gaussian_;
  int64_t sample_threshold_;  // θ; 0 for the VEC variants.
  double clip_min_;
  double clip_max_;
  Rng rng_;
  const LossFunction* loss_;

  UpdateWorkspace ws_;
  GramProductCache gram_cache_;
  // GCP scratch of the non-Gaussian path; never Prepared (zero footprint)
  // under the Gaussian default.
  GcpRowWorkspace gcp_ws_;
  int time_mode_ = 0;
  int64_t snap_rank_ = 0;
  // Whether UpdateRow already resynced the Grams in this event.
  bool grams_resynced_ = false;
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

/// Coordinate-descent inner loop of the + variants. For each k it computes
/// a(m)_{i,k} ← (numerator_k − d_k) / c_k, clipped to [clip_min, clip_max],
/// where c_k = HQ(k,k), d_k = Σ_{r≠k} row[r]·HQ(r,k) uses the live row
/// (Eq. 20; carried as the gradient H·row, see CoordinateDescentSweep), and
/// numerator_k is the variant-specific data term (Σ x·Πa of Eq. 21, or
/// e + Σ Δx·Πa of Eq. 22, or e + Σ (x̄+Δx)·Πa of Eq. 23). One-dimensional
/// projection onto [clip_min, clip_max] never increases the convex
/// per-entry objective. Entries with c_k ≈ 0 (dead component) are left
/// unchanged. `row` must reference hq.stride() doubles with zero padding
/// lanes (factor rows qualify); `numerator` only needs `rank` values.
void CoordinateDescentRow(double* row, int64_t rank, const Matrix& hq,
                          const double* numerator, double clip_min,
                          double clip_max);

}  // namespace sns

#endif  // SLICENSTITCH_CORE_ROW_UPDATER_H_
