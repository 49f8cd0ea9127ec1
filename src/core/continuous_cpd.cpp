#include "core/continuous_cpd.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/serial.h"
#include "core/als.h"
#include "losses/loss_function.h"
#include "core/row_updater.h"
#include "core/sns_mat.h"

namespace sns {
namespace {

std::unique_ptr<EventUpdater> MakeUpdater(const ContinuousCpdOptions& options,
                                          const LossFunction* loss) {
  switch (options.variant) {
    case SnsVariant::kMat:
      return std::make_unique<SnsMatUpdater>(loss);
    case SnsVariant::kVec:
    case SnsVariant::kRnd:
    case SnsVariant::kVecPlus:
    case SnsVariant::kRndPlus:
      return std::make_unique<RowUpdater>(options, loss);
  }
  // Unhandled SnsVariant (e.g. an enum value cast from a bad integer): fail
  // loudly here instead of returning nullptr and crashing at first use.
  SNS_CHECK(false && "MakeUpdater: unhandled SnsVariant");
  return nullptr;  // Unreachable.
}

std::vector<int64_t> WithTimeMode(std::vector<int64_t> mode_dims, int w) {
  mode_dims.push_back(w);
  return mode_dims;
}

// Section tags of the engine snapshot: cheap structural self-checks that
// turn a decoder/format drift into a typed failure instead of garbage state.
constexpr uint32_t kTagWindow = 0x444E4957;    // "WIND"
constexpr uint32_t kTagModel = 0x53445043;     // "CPDS"
constexpr uint32_t kTagFitness = 0x4E544946;   // "FITN"
constexpr uint32_t kTagRng = 0x53474E52;       // "RNGS"
constexpr uint32_t kTagCounters = 0x52544E43;  // "CNTR"
// Trailing section present only when UsesExtendedState(): generalized-loss
// fitness sums, the outlier decay schedule, and the sparse outlier store.
// Gaussian non-robust engines never write it, keeping their snapshots
// byte-identical to pre-loss builds.
constexpr uint32_t kTagLoss = 0x53534F4C;      // "LOSS"

Status ExpectTag(serial::Reader& r, uint32_t want, const char* what) {
  uint32_t got = 0;
  SNS_RETURN_IF_ERROR(r.U32(&got));
  if (got != want) {
    return Status::DataLoss(std::string("engine snapshot is missing its ") +
                            what + " section");
  }
  return Status::OK();
}

void WriteMatrixEntries(serial::Writer& w, const Matrix& m) {
  for (int64_t i = 0; i < m.rows(); ++i) {
    const double* row = m.Row(i);
    for (int64_t j = 0; j < m.cols(); ++j) w.F64(row[j]);
  }
}

Status ReadMatrixEntries(serial::Reader& r, Matrix& m) {
  for (int64_t i = 0; i < m.rows(); ++i) {
    double* row = m.Row(i);
    for (int64_t j = 0; j < m.cols(); ++j) {
      SNS_RETURN_IF_ERROR(r.F64(&row[j]));
    }
  }
  return Status::OK();
}

void WriteRngState(serial::Writer& w, const RngState& s) {
  for (uint64_t word : s.state) w.U64(word);
  w.U8(s.has_cached_normal ? 1 : 0);
  w.F64(s.cached_normal);
}

Status ReadRngState(serial::Reader& r, RngState& s) {
  for (uint64_t& word : s.state) SNS_RETURN_IF_ERROR(r.U64(&word));
  uint8_t has_cached = 0;
  SNS_RETURN_IF_ERROR(r.U8(&has_cached));
  s.has_cached_normal = has_cached != 0;
  return r.F64(&s.cached_normal);
}

}  // namespace

StatusOr<std::unique_ptr<ContinuousCpd>> ContinuousCpd::Create(
    std::vector<int64_t> mode_dims, const ContinuousCpdOptions& options) {
  SNS_RETURN_IF_ERROR(options.Validate());
  if (mode_dims.empty()) {
    return Status::InvalidArgument("at least one non-time mode is required");
  }
  if (static_cast<int>(mode_dims.size()) + 1 > kMaxTensorModes) {
    return Status::InvalidArgument("too many modes");
  }
  for (int64_t dim : mode_dims) {
    if (dim < 1) return Status::InvalidArgument("mode sizes must be >= 1");
    // ModeIndex stores int32 coordinates.
    if (dim > std::numeric_limits<int32_t>::max()) {
      return Status::InvalidArgument("mode sizes must be <= INT32_MAX");
    }
  }
  // Not make_unique: the constructor is private, and the engine is pinned in
  // place (no copies/moves), so it is built directly behind the pointer.
  return std::unique_ptr<ContinuousCpd>(
      new ContinuousCpd(std::move(mode_dims), options));
}

ContinuousCpd::ContinuousCpd(std::vector<int64_t> mode_dims,
                             const ContinuousCpdOptions& options)
    : options_(options),
      window_(mode_dims, options.window_size, options.period,
              options.expected_nnz),
      rng_(options.seed) {
  state_ = CpdState(KruskalModel::Random(
      WithTimeMode(std::move(mode_dims), options.window_size), options.rank,
      rng_));
  loss_ = &GetLossFunction(options_.loss);
  updater_ = MakeUpdater(options_, loss_);
  SNS_CHECK(updater_ != nullptr);
  if (options_.loss != LossKind::kGaussian) {
    // The Gaussian default deliberately leaves the tracker untouched (null
    // loss) so its hot path stays bitwise-identical; the updaters run their
    // least-squares rules whenever the loss is Gaussian.
    fitness_tracker_.SetLoss(loss_);
  }
  if (options_.robust.enabled) {
    outliers_.Configure(options_.robust.threshold, options_.robust.decay,
                        options_.robust.capacity);
  }
}

void ContinuousCpd::IngestOnly(const Tuple& tuple) {
  window_.AdvanceTo(tuple.time);
  window_.Ingest(tuple);
}

void ContinuousCpd::InitializeWithAls() {
  state_ = CpdState(
      AlsDecompose(window_.tensor(), options_.rank, options_.init, rng_));
  if (options_.variant != SnsVariant::kMat ||
      options_.loss != LossKind::kGaussian) {
    // The row variants operate on raw factors with λ = 1. The GCP sweep
    // used by non-Gaussian SNS-MAT also skips column normalization, so it
    // absorbs λ here too.
    state_.AbsorbLambda();
  }
  if (options_.nonnegative_factors) {
    // Project the unconstrained ALS initialization onto the feasible set;
    // subsequent updates keep factors in [0, η].
    for (int m = 0; m < state_.num_modes(); ++m) {
      Matrix& factor = state_.model.factor(m);
      for (int64_t i = 0; i < factor.rows(); ++i) {
        double* row = factor.Row(i);
        for (int64_t r = 0; r < factor.cols(); ++r) {
          if (row[r] < 0.0) row[r] = 0.0;
        }
      }
    }
    state_.RecomputeGrams();
  }
  fitness_tracker_.Reset(window_.tensor(), state_,
                         options_.fitness_resync_interval);
  // Robust mode restarts from a clean slate: (re)initialization explains the
  // whole window with L, and the decay clock re-arms on the next arrival.
  // Keeps restore-then-replay deterministic.
  outliers_.Clear();
  outlier_decay_armed_ = false;
  next_outlier_decay_ = 0;
  updates_enabled_ = true;
}

void ContinuousCpd::HandleEvent(const WindowDelta& delta,
                                double outlier_capture) {
  if (!updates_enabled_) return;
  if (observer_) {
    observer_(delta, state_.model, window_.tensor(), outlier_capture);
  }
  fitness_tracker_.OnWindowDelta(delta, window_.tensor(), state_);
  const int64_t start_ns = MonotonicNanos();
  updater_->OnEvent(window_.tensor(), delta, state_);
  update_seconds_ += static_cast<double>(MonotonicNanos() - start_ns) * 1e-9;
  ++events_processed_;
  fitness_tracker_.OnFactorsUpdated(state_);
}

double ContinuousCpd::MaybeCaptureOutlier(Tuple& tuple) {
  if (!options_.robust.enabled || !updates_enabled_) return 0.0;
  MaybeDecayOutliers(tuple.time);
  // Residual of the post-arrival cell value against the model's predicted
  // mean μ = Link(θ) at the newest slice. Evaluated after AdvanceTo so
  // slide/expiry events due before this arrival have already been applied.
  const ModeIndex cell = tuple.index.WithAppended(options_.window_size - 1);
  const double theta = state_.model.Evaluate(cell);
  const double mu = loss_->Link(theta);
  const double observed = window_.tensor().Get(cell) + tuple.value;
  const double residual = observed - mu;
  // Bound the capture by the observed mass: S separates observed data, never
  // the model's own prediction. Without the bound, an over-predicting
  // exponential link (Poisson) captures its huge negative residual and the
  // cleaned ingest v − s ≈ μ writes the blown-up prediction back into the
  // window as fake mass, which the next row fit chases even higher.
  const double limit = std::fabs(observed) + options_.robust.threshold;
  const double captured =
      outliers_.Capture(tuple.index, std::clamp(residual, -limit, limit));
  tuple.value -= captured;  // Only the cleaned part reaches the window.
  return captured;
}

void ContinuousCpd::MaybeDecayOutliers(int64_t time) {
  if (!outlier_decay_armed_) {
    // Arm on the first robust arrival: decay periods are counted from the
    // first captured-against timestamp, not from an absolute epoch.
    outlier_decay_armed_ = true;
    next_outlier_decay_ = time + options_.period;
    return;
  }
  next_outlier_decay_ =
      outliers_.DecayThrough(time, next_outlier_decay_, options_.period);
}

void ContinuousCpd::ProcessTuple(const Tuple& tuple) {
  ProcessBatch({&tuple, 1});
}

void ContinuousCpd::ProcessBatch(std::span<const Tuple> tuples) {
  // Scheduled events due at or before each arrival drain first, but the
  // earliest due time is cached across the batch: a tuple only touches the
  // window's event schedule when an event is actually due. Ingest schedules
  // the tuple's first slide at t + period, which is folded into the cached
  // bound without re-reading the schedule. That schedule is a FIFO queue:
  // every event is due one period after the clock at which it was
  // scheduled, and the clock never decreases (stream/continuous_window.h),
  // so the new slide joins the back and the front stays the earliest.
  int64_t next_due = window_.NextScheduledTime();
  for (const Tuple& tuple : tuples) {
    if (next_due <= tuple.time) {
      window_.AdvanceTo(
          tuple.time, [this](const WindowDelta& delta) { HandleEvent(delta); });
      next_due = window_.NextScheduledTime();
    }
    // Robust mode diverts the outlier part of the arrival into S; only the
    // cleaned value reaches the window (a no-op copy otherwise).
    Tuple arrival = tuple;
    const double captured = MaybeCaptureOutlier(arrival);
    WindowDelta delta = window_.Ingest(arrival);
    if (!delta.cells.empty()) {
      next_due = std::min(next_due, tuple.time + options_.period);
    }
    HandleEvent(delta, captured);
  }
}

void ContinuousCpd::AdvanceTo(int64_t time) {
  window_.AdvanceTo(time,
                    [this](const WindowDelta& delta) { HandleEvent(delta); });
}

void ContinuousCpd::SerializeTo(serial::Writer& w) const {
  w.U32(kTagWindow);
  window_.SerializeTo(w);

  w.U32(kTagModel);
  const KruskalModel& model = state_.model;
  const int modes = state_.num_modes();
  const int64_t rank = state_.rank();
  w.U32(static_cast<uint32_t>(modes));
  w.I64(rank);
  for (int m = 0; m < modes; ++m) {
    const Matrix& factor = model.factor(m);
    w.I64(factor.rows());
    WriteMatrixEntries(w, factor);
  }
  for (double lambda : model.lambda()) w.F64(lambda);
  // Grams verbatim: they are maintained incrementally (Eq. 13) and
  // accumulate rounding in event order, so they bitwise-differ from a fresh
  // recomputation; restoring a recomputed Gram would fork the trajectory.
  for (const Matrix& gram : state_.grams) WriteMatrixEntries(w, gram);
  // Factor-precision byte: always 0 (float64). The format keeps it so
  // existing checkpoints keep their layout.
  w.U8(0);

  w.U32(kTagFitness);
  const FitnessAccumulators acc = fitness_tracker_.SaveAccumulators();
  w.F64(acc.norm_x_sq);
  w.F64(acc.inner);
  w.I64(acc.events_since_exact);

  w.U32(kTagRng);
  WriteRngState(w, rng_.SaveState());
  const Rng* updater_rng = updater_->MutableRng();
  w.U8(updater_rng != nullptr ? 1 : 0);
  if (updater_rng != nullptr) WriteRngState(w, updater_rng->SaveState());

  w.U32(kTagCounters);
  w.U8(updates_enabled_ ? 1 : 0);
  w.I64(events_processed_);

  if (UsesExtendedState()) {
    w.U32(kTagLoss);
    w.F64(acc.loss_sum);
    w.F64(acc.baseline_sum);
    w.U8(outlier_decay_armed_ ? 1 : 0);
    w.I64(next_outlier_decay_);
    outliers_.SerializeTo(w);
  }
}

Status ContinuousCpd::RestoreFrom(serial::Reader& r) {
  SNS_RETURN_IF_ERROR(ExpectTag(r, kTagWindow, "window"));
  SNS_RETURN_IF_ERROR(window_.RestoreFrom(r));

  SNS_RETURN_IF_ERROR(ExpectTag(r, kTagModel, "model"));
  KruskalModel& model = state_.model;
  const int modes = state_.num_modes();
  const int64_t rank = state_.rank();
  uint32_t stored_modes = 0;
  int64_t stored_rank = 0;
  SNS_RETURN_IF_ERROR(r.U32(&stored_modes));
  SNS_RETURN_IF_ERROR(r.I64(&stored_rank));
  if (static_cast<int>(stored_modes) != modes || stored_rank != rank) {
    return Status::DataLoss(
        "snapshot model shape (" + std::to_string(stored_modes) + " modes, "
        "rank " + std::to_string(stored_rank) + ") does not match the "
        "engine (" + std::to_string(modes) + " modes, rank " +
        std::to_string(rank) + ")");
  }
  for (int m = 0; m < modes; ++m) {
    Matrix& factor = model.factor(m);
    int64_t rows = 0;
    SNS_RETURN_IF_ERROR(r.I64(&rows));
    if (rows != factor.rows()) {
      return Status::DataLoss("snapshot factor " + std::to_string(m) +
                              " has " + std::to_string(rows) +
                              " rows; engine expects " +
                              std::to_string(factor.rows()));
    }
    SNS_RETURN_IF_ERROR(ReadMatrixEntries(r, factor));
  }
  for (double& lambda : model.lambda()) SNS_RETURN_IF_ERROR(r.F64(&lambda));
  for (Matrix& gram : state_.grams) SNS_RETURN_IF_ERROR(ReadMatrixEntries(r, gram));
  uint8_t stored_precision = 0;
  SNS_RETURN_IF_ERROR(r.U8(&stored_precision));
  if (stored_precision != 0) {
    return Status::DataLoss("snapshot factor precision byte is " +
                            std::to_string(stored_precision) +
                            "; only 0 (float64) is valid");
  }

  SNS_RETURN_IF_ERROR(ExpectTag(r, kTagFitness, "fitness"));
  FitnessAccumulators acc;
  SNS_RETURN_IF_ERROR(r.F64(&acc.norm_x_sq));
  SNS_RETURN_IF_ERROR(r.F64(&acc.inner));
  SNS_RETURN_IF_ERROR(r.I64(&acc.events_since_exact));

  SNS_RETURN_IF_ERROR(ExpectTag(r, kTagRng, "rng"));
  RngState engine_rng;
  SNS_RETURN_IF_ERROR(ReadRngState(r, engine_rng));
  rng_.RestoreState(engine_rng);
  uint8_t has_updater_rng = 0;
  SNS_RETURN_IF_ERROR(r.U8(&has_updater_rng));
  Rng* updater_rng = updater_->MutableRng();
  if ((has_updater_rng != 0) != (updater_rng != nullptr)) {
    return Status::DataLoss(
        "snapshot updater rng presence does not match the engine variant");
  }
  if (updater_rng != nullptr) {
    RngState sampling_rng;
    SNS_RETURN_IF_ERROR(ReadRngState(r, sampling_rng));
    updater_rng->RestoreState(sampling_rng);
  }

  SNS_RETURN_IF_ERROR(ExpectTag(r, kTagCounters, "counter"));
  uint8_t updates_enabled = 0;
  SNS_RETURN_IF_ERROR(r.U8(&updates_enabled));
  updates_enabled_ = updates_enabled != 0;
  SNS_RETURN_IF_ERROR(r.I64(&events_processed_));
  if (events_processed_ < 0) {
    return Status::DataLoss("snapshot event counter is negative");
  }

  if (UsesExtendedState()) {
    SNS_RETURN_IF_ERROR(ExpectTag(r, kTagLoss, "loss"));
    SNS_RETURN_IF_ERROR(r.F64(&acc.loss_sum));
    SNS_RETURN_IF_ERROR(r.F64(&acc.baseline_sum));
    uint8_t decay_armed = 0;
    SNS_RETURN_IF_ERROR(r.U8(&decay_armed));
    outlier_decay_armed_ = decay_armed != 0;
    SNS_RETURN_IF_ERROR(r.I64(&next_outlier_decay_));
    // The store is keyed by the non-time coordinates (the window's modes
    // but its last).
    const std::vector<int64_t>& dims = window_.mode_dims();
    SNS_RETURN_IF_ERROR(outliers_.RestoreFrom(
        r, std::span(dims).first(dims.size() - 1)));
  }
  // Wall-clock latency telemetry restarts at zero — it is nondeterministic
  // by nature and deliberately not part of the snapshot.
  update_seconds_ = 0.0;

  // Rebind the fitness tracker last: Bind sizes its scratch against the
  // restored model without a rescan, and the snapshot's accumulators resume
  // the estimate mid-interval (with an empty query cache).
  if (updates_enabled_) {
    fitness_tracker_.Bind(state_.rank(), options_.fitness_resync_interval);
  }
  fitness_tracker_.RestoreAccumulators(acc);
  return Status::OK();
}

}  // namespace sns
