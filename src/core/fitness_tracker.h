// Incremental running-fitness estimator.
//
// Exact fitness 1 − ‖X̃ − X‖_F / ‖X‖_F costs a full O(nnz·M·R) rescan of the
// window per query (KruskalModel::Fitness). Always-on serving wants the
// number per event, so this tracker maintains the three terms of
// ‖X̃ − X‖² = ‖X̃‖² − 2⟨X̃, X⟩ + ‖X‖² incrementally:
//   - ‖X‖² exactly: each delta cell changes it by x_new² − x_old², O(1).
//   - ⟨X̃, X⟩ as an estimate: window deltas contribute δ_J·X̃(J) exactly
//     (O(M·R) per cell); the factor update's effect is approximated by
//     re-evaluating X̃ at the event's delta cells only — the cells the update
//     targeted — leaving the drift of untouched cells to an amortized exact
//     resync every `resync_interval` events.
//   - ‖X̃‖² at query time via the Gram identity λ'(∗_m Q(m))λ, O(M·R²),
//     reusing the Gram matrices the updaters already maintain.
// Per-event cost is O(|cells|·M·R) ⊂ O(R²); queries cost O(M·R²) plus the
// amortized resync (which runs lazily at query time, never on the ingest
// path); no heap allocations after Reset.
//
// The accumulators are a function of the event sequence alone: exact at
// Reset, then moved by the per-event increments only, and they are what a
// checkpoint stores. A query never writes them. Its resync refreshes a
// query-side cache instead, which is never serialized: the exact terms at
// event count e₀ and the accumulators' values there. The estimate is
// exact + (accumulator now − accumulator at e₀), and the cache is refreshed
// once ≥ resync_interval events have passed since e₀. The cache is empty
// after Reset and after a restore; an empty cache (all zero, e₀ = 0) makes
// the estimate the accumulators themselves. So querying a stream never
// changes its checkpoint bytes, and journal replay rebuilds them exactly.
//
// Accuracy contract: the estimate is EXACT at every resync boundary (and
// with resync_interval = 1 it degenerates into the exact computation —
// pinned by tests/fitness_tracker_test.cpp). Between resyncs only the
// delta-cell share of each factor update is accounted, so the estimate is a
// responsive trend signal whose drift grows with factor churn; exact
// accounting of a row update's effect on its whole slice would cost
// O(deg·M·R) per event, which is precisely the work the θ-sampled variants
// exist to avoid. Callers needing the exact number call Fitness().

#ifndef SLICENSTITCH_CORE_FITNESS_TRACKER_H_
#define SLICENSTITCH_CORE_FITNESS_TRACKER_H_

#include <array>
#include <cstdint>

#include "core/cpd_state.h"
#include "stream/event.h"
#include "tensor/sparse_tensor.h"

namespace sns {

class LossFunction;

/// Snapshot of the tracker's incremental accumulators, taken between events
/// (durability checkpoints). Restoring them reproduces the tracker's exact
/// accumulator trajectory instead of restarting it from an exact rescan.
struct FitnessAccumulators {
  double norm_x_sq = 0.0;
  double inner = 0.0;
  // Events accounted since the accumulators were last exact.
  int64_t events_since_exact = 0;
  // Generalized-loss terms (losses/): Σℓ(x, x̃) and Σℓ(x, 0) over the window
  // nonzeros. Unused (and not serialized — kTagFitness bytes are unchanged)
  // under the Gaussian default.
  double loss_sum = 0.0;
  double baseline_sum = 0.0;
};

/// Maintains a running estimate of the model-vs-window fitness. Owned by
/// ContinuousCpd; Reset at (re)initialization, fed once per window event.
class RunningFitnessTracker {
 public:
  /// Binds to the current window/model shape, recomputes the exact terms,
  /// and preallocates the query scratch. resync_interval: events between
  /// exact recomputations of ⟨X̃, X⟩ and ‖X‖² (0 = never resync).
  void Reset(const SparseTensor& window, const CpdState& state,
             int64_t resync_interval);

  /// Reset's binding without the rescan: sets the cadence and sizes the
  /// query scratch for `rank`. A restore calls it and then
  /// RestoreAccumulators, which supplies the terms.
  void Bind(int64_t rank, int64_t resync_interval);

  /// Switches the tracked objective to a generalized loss (losses/):
  /// fitness becomes 1 − Σℓ(x, x̃)/Σℓ(x, 0) over the window nonzeros,
  /// maintained with the same delta-cell increments + amortized exact
  /// resync. nullptr (the default) keeps the Gaussian Frobenius path
  /// byte-for-byte untouched. Call before Reset.
  void SetLoss(const LossFunction* loss) { loss_ = loss; }

  /// Accounts one event's window change. Call after the delta has been
  /// applied to `window` but before the factor update (the model still is
  /// the pre-event model).
  void OnWindowDelta(const WindowDelta& delta, const SparseTensor& window,
                     const CpdState& state);

  /// Accounts the factor update of the same event (must follow the matching
  /// OnWindowDelta). O(|cells|·M·R) — no rescans ever happen here.
  void OnFactorsUpdated(const CpdState& state);

  /// Current fitness estimate, clamped to finite arithmetic: 0 when the
  /// window is empty, otherwise 1 − √(max(0, ‖X̃‖² − 2⟨X̃,X⟩est + ‖X‖²))/‖X‖.
  /// Refreshes the query cache with an exact resync when one is due (≥
  /// resync_interval events since the cache's e₀), so callers that never
  /// query never pay the O(nnz·M·R) rescan on the ingest path. Never
  /// changes the accumulators.
  double RunningFitness(const SparseTensor& window,
                        const CpdState& state) const;

  /// Snapshot / restore of the incremental terms, valid between events
  /// (no delta in flight). Restore follows a Bind (or Reset) against the
  /// model the snapshot was taken over, and empties the query cache.
  FitnessAccumulators SaveAccumulators() const {
    return {norm_x_sq_, inner_, events_since_exact_, loss_sum_,
            baseline_sum_};
  }
  void RestoreAccumulators(const FitnessAccumulators& acc) {
    norm_x_sq_ = acc.norm_x_sq;
    inner_ = acc.inner;
    events_since_exact_ = acc.events_since_exact;
    loss_sum_ = acc.loss_sum;
    baseline_sum_ = acc.baseline_sum;
    num_cells_ = 0;
    cache_exact_ = {};
    cache_anchor_ = {};
  }

 private:
  /// The exact terms of the tracked objective (a full rescan); the other
  /// objective's terms are 0.
  FitnessAccumulators ExactTerms(const SparseTensor& window,
                                 const CpdState& state) const;

  double norm_x_sq_ = 0.0;  // ‖X‖², exact up to fp accumulation.
  double inner_ = 0.0;      // Estimate of ⟨X̃, X⟩.
  // Generalized-loss terms, maintained instead of the two above when a
  // non-Gaussian loss is set.
  double loss_sum_ = 0.0;      // Estimate of Σℓ(x, x̃) over nnz.
  double baseline_sum_ = 0.0;  // Σℓ(x, 0) over nnz, exact.
  const LossFunction* loss_ = nullptr;
  int64_t resync_interval_ = 0;
  int64_t events_since_exact_ = 0;

  // Query cache (see the header comment), never serialized: the exact
  // terms at e₀ and the accumulators at e₀, whose events_since_exact is e₀.
  // Mutable so RunningFitness stays const for read-only callers.
  mutable FitnessAccumulators cache_exact_;
  mutable FitnessAccumulators cache_anchor_;

  // Delta cells of the event in flight: 1 for arrival/expiry, 2 for a slide
  // (WindowDelta's documented maximum).
  std::array<ModeIndex, 2> cells_;
  std::array<double, 2> new_values_;
  std::array<double, 2> pre_predictions_;
  int num_cells_ = 0;

  mutable Matrix gram_product_;  // R×R query scratch for λ'(∗Q)λ.
};

}  // namespace sns

#endif  // SLICENSTITCH_CORE_FITNESS_TRACKER_H_
