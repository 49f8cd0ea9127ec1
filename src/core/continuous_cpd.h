// ContinuousCpd — the internal continuous-decomposition engine.
//
// Owns the continuous tensor window (Algorithm 1), the decomposition state,
// and one of the five online updaters (§V), and keeps the factor matrices in
// sync with every window event. Applications should use the service facade
// in api/ (SnsService / StreamHandle, re-exported by slicenstitch.h), which
// wraps one engine per stream behind a typed ingest/query surface. Direct
// use remains supported for embedding and tests:
//
//   ContinuousCpdOptions options;
//   options.period = 3600;                      // T = 1 hour
//   options.variant = SnsVariant::kRndPlus;
//   auto engine = ContinuousCpd::Create({265, 265}, options);
//   for (tuple : warmup_tuples) engine.value()->IngestOnly(tuple);
//   engine.value()->InitializeWithAls();         // factors from the window
//   engine.value()->ProcessBatch(live_tuples);
//   double fit = engine.value()->Fitness();

#ifndef SLICENSTITCH_CORE_CONTINUOUS_CPD_H_
#define SLICENSTITCH_CORE_CONTINUOUS_CPD_H_

#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/monotonic_clock.h"
#include "common/random.h"
#include "common/status.h"
#include "core/cpd_state.h"
#include "core/fitness_tracker.h"
#include "core/options.h"
#include "core/updater.h"
#include "losses/outlier_store.h"
#include "stream/continuous_window.h"

namespace sns {

namespace serial {
class Writer;
class Reader;
}  // namespace serial

/// Continuous CP decomposition of one multi-aspect data stream.
///
/// Pinned in place (copies AND moves deleted): the updaters' caches hold
/// pointers into CpdState between events (GramProductCache binds to
/// state_.grams), so a moved-from engine would leave the updater aimed at a
/// dead member. Create hands out a unique_ptr; holders that must themselves
/// be movable (api/StreamHandle) keep the engine behind that pointer.
class ContinuousCpd {
 public:
  /// Validates options and builds an engine over the given non-time mode
  /// sizes. Factors start as random Uniform[0,1); call InitializeWithAls()
  /// after warming the window up to match the paper's protocol.
  static StatusOr<std::unique_ptr<ContinuousCpd>> Create(
      std::vector<int64_t> mode_dims, const ContinuousCpdOptions& options);

  ContinuousCpd(const ContinuousCpd&) = delete;
  ContinuousCpd& operator=(const ContinuousCpd&) = delete;
  ContinuousCpd(ContinuousCpd&&) = delete;
  ContinuousCpd& operator=(ContinuousCpd&&) = delete;

  /// Applies a tuple (and any earlier-due slide events) to the window only —
  /// the factors are untouched. Used for the warm-up phase.
  void IngestOnly(const Tuple& tuple);

  /// Runs batch ALS on the current window to (re)initialize the factors and
  /// enables per-event updates. For the unnormalized variants λ is folded
  /// back into the factors.
  void InitializeWithAls();

  /// Processes one arriving tuple: a batch of one (ProcessBatch).
  void ProcessTuple(const Tuple& tuple);

  /// Processes a chronological batch of tuples. For each arrival: drains
  /// the scheduled slide/expiry events due at or before it (each updating
  /// the factors), then applies the arrival event. The scheduled due time
  /// is kept in a register across the batch, so tuples that trigger no
  /// slide/expiry never touch the schedule queue; splitting a batch never
  /// changes the result (pinned by tests).
  void ProcessBatch(std::span<const Tuple> tuples);

  /// Drains scheduled events due at or before `time` with factor updates.
  void AdvanceTo(int64_t time);

  const SparseTensor& window() const { return window_.tensor(); }
  const ContinuousTensorWindow& window_model() const { return window_; }
  const KruskalModel& model() const { return state_.model; }
  const CpdState& state() const { return state_; }
  const ContinuousCpdOptions& options() const { return options_; }
  std::string_view updater_name() const { return updater_->name(); }

  /// Exact fitness of the current factors against the current window —
  /// a full O(nnz·M·R) rescan.
  double Fitness() const { return state_.model.Fitness(window_.tensor()); }

  /// Incrementally maintained fitness estimate (core/fitness_tracker.h):
  /// O(M·R²) per query — plus the amortized exact resync, which runs lazily
  /// here rather than on the ingest path — instead of the full rescan per
  /// query. 0 before InitializeWithAls.
  double RunningFitness() const {
    return fitness_tracker_.RunningFitness(window_.tensor(), state_);
  }

  /// Observer invoked for every window event after the delta has been
  /// applied to the window but before the factor update — the point where
  /// prediction errors |x − x̃| are meaningful for anomaly detection (§VI-G).
  /// The final argument is the signed outlier mass the robust mode diverted
  /// from this event into the sparse outlier structure S (0 when robust mode
  /// is off or the event is a slide/expiry rather than an arrival).
  using EventObserver =
      std::function<void(const WindowDelta&, const KruskalModel&,
                         const SparseTensor&, double)>;
  void SetEventObserver(EventObserver observer) {
    observer_ = std::move(observer);
  }

  /// True once InitializeWithAls ran: window events update the factors.
  bool updates_enabled() const { return updates_enabled_; }
  /// Number of window events that triggered factor updates.
  int64_t events_processed() const { return events_processed_; }
  /// Total wall-clock time spent inside factor updates.
  double update_seconds() const { return update_seconds_; }
  /// Mean factor-update latency in microseconds (0 before any event).
  double MeanUpdateMicros() const {
    return events_processed_ == 0
               ? 0.0
               : update_seconds_ * 1e6 /
                     static_cast<double>(events_processed_);
  }

  /// Sparse outlier structure S maintained by the robust mode (empty when
  /// options().robust.enabled is false).
  const OutlierStore& outliers() const { return outliers_; }

  /// True when the engine snapshot carries loss/robust state beyond the
  /// Gaussian baseline — the trigger for the v2 checkpoint envelope. The
  /// Gaussian non-robust default serializes byte-identically to pre-loss
  /// builds.
  bool UsesExtendedState() const {
    return options_.loss != LossKind::kGaussian || options_.robust.enabled;
  }

  /// Serializes the complete deterministic engine state: window (tensor
  /// layout + schedule), factors, λ, Grams (verbatim — they are maintained
  /// incrementally and bitwise-differ from a recomputation), fitness
  /// accumulators, both Rngs (engine + updater sampling), and the event
  /// counters — plus, only when UsesExtendedState(), a trailing loss section
  /// (generalized fitness sums, outlier decay schedule, and S).
  /// update_seconds_ is wall-clock and deliberately excluded, so equal
  /// trajectories always serialize to equal bytes.
  void SerializeTo(serial::Writer& w) const;

  /// Restores into a freshly Created engine with identical mode_dims and
  /// options. After an OK return, processing any tuple sequence is bitwise
  /// identical to the engine the snapshot was taken from processing it.
  /// Corrupt or mismatched input fails with a typed Status (mostly
  /// kDataLoss); the engine must then be discarded.
  Status RestoreFrom(serial::Reader& r);

 private:
  ContinuousCpd(std::vector<int64_t> mode_dims,
                const ContinuousCpdOptions& options);

  void HandleEvent(const WindowDelta& delta, double outlier_capture = 0.0);
  /// Robust mode (X = L + S): splits the arriving tuple's residual against
  /// the model's predicted mean into a soft-thresholded outlier part
  /// (captured into outliers_) and a cleaned part left in the tuple for
  /// ingestion. Returns the signed captured mass (0 when robust mode is off
  /// or updates are not yet enabled).
  double MaybeCaptureOutlier(Tuple& tuple);
  /// Applies the once-per-period multiplicative decay to S as stream time
  /// crosses period boundaries (OutlierStore::DecayThrough, which skips the
  /// periods whose passes would change nothing).
  void MaybeDecayOutliers(int64_t time);

  ContinuousCpdOptions options_;
  ContinuousTensorWindow window_;
  CpdState state_;
  std::unique_ptr<EventUpdater> updater_;
  EventObserver observer_;
  RunningFitnessTracker fitness_tracker_;
  Rng rng_;
  const LossFunction* loss_ = nullptr;
  OutlierStore outliers_;
  int64_t next_outlier_decay_ = 0;
  bool outlier_decay_armed_ = false;
  bool updates_enabled_ = false;
  int64_t events_processed_ = 0;
  double update_seconds_ = 0.0;
};

}  // namespace sns

#endif  // SLICENSTITCH_CORE_CONTINUOUS_CPD_H_
