// Configuration of the continuous CPD engine: which SliceNStitch variant to
// run and its hyperparameters (Table III of the paper).

#ifndef SLICENSTITCH_CORE_OPTIONS_H_
#define SLICENSTITCH_CORE_OPTIONS_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "losses/loss_function.h"

namespace sns {

/// The five online updaters of §V.
enum class SnsVariant {
  kMat,      // SNS-MAT: one full ALS sweep per event (Alg. 2).
  kVec,      // SNS-VEC: affected-row least squares (Alg. 3+4).
  kRnd,      // SNS-RND: θ-sampled affected-row updates (Alg. 3+4).
  kVecPlus,  // SNS+VEC: coordinate descent + clipping (Alg. 5).
  kRndPlus,  // SNS+RND: θ-sampled coordinate descent + clipping (Alg. 5).
};

/// Short display name, e.g. "SNS-MAT", "SNS+RND".
std::string VariantName(SnsVariant variant);

/// Robust (outlier-separating) mode: X = L + S following Hawkins & Zhang's
/// robust streaming factorization (see losses/outlier_store.h). At every
/// arrival the residual of the observation against the model's predicted
/// mean is soft-thresholded; the captured part accumulates in a bounded
/// sparse outlier store keyed by the tuple's non-time coordinate and is
/// subtracted from the ingested value, so outliers stop being absorbed
/// into the factors. Works with any loss (the prediction runs through the
/// loss's link function).
struct RobustOptions {
  /// Master switch. Off (the default) leaves the ingest path byte-for-byte
  /// identical to the non-robust engine.
  bool enabled = false;
  /// τ > 0: residual magnitude below which nothing is captured. In units
  /// of the data values.
  double threshold = 3.0;
  /// Per-period multiplier in [0, 1] applied to every stored entry as the
  /// window advances, draining stale outlier mass. 1 never decays; 0
  /// forgets each period.
  double decay = 0.5;
  /// Maximum number of live outlier entries; the smallest-magnitude entry
  /// is evicted on overflow. Must be >= 1.
  int64_t capacity = 4096;
};

/// Options controlling batch ALS (initialization and the offline baseline).
struct AlsOptions {
  /// Maximum number of full alternating sweeps.
  int max_iterations = 50;
  /// Stop when the fitness improvement of a sweep drops below this.
  double fitness_tolerance = 1e-5;
};

/// Full configuration of a continuous CPD engine. The SIMD kernel tier is
/// not an option: every engine runs at the process tier
/// (common/cpu_features.h), which only the SNS_FORCE_GENERIC_KERNELS
/// environment variable overrides.
struct ContinuousCpdOptions {
  /// Decomposition rank R.
  int64_t rank = 20;
  /// Number of time-mode indices W.
  int window_size = 10;
  /// Period T in stream time units.
  int64_t period = 3600;
  /// Which updater processes window events.
  SnsVariant variant = SnsVariant::kRndPlus;
  /// θ: sampling threshold of the RND variants (Alg. 4/5).
  int64_t sample_threshold = 20;
  /// η: clipping bound of the + variants (Alg. 5 line 5).
  double clip_bound = 1000.0;
  /// Extension (not in the paper): constrain factors of the + variants to be
  /// non-negative by clipping to [0, η] — projected coordinate descent,
  /// giving NMF-style interpretable factors for count data. Only valid with
  /// kVecPlus / kRndPlus.
  bool nonnegative_factors = false;
  /// Hint: expected number of simultaneous window non-zeros. Pre-sizes the
  /// window tensor's entry pool and hash index so warm-up ingestion avoids
  /// rehash/realloc storms. 0 = unset: the engine does no pre-sizing and
  /// callers that know the stream (e.g. the experiment harness) may fill in
  /// a derived hint. Never a correctness knob.
  int64_t expected_nnz = 0;
  /// Events between exact resyncs of the running-fitness estimator
  /// (core/fitness_tracker.h): smaller bounds the estimator's drift tighter
  /// at a higher amortized O(nnz·M·R) rescan cost. Resyncs run lazily
  /// inside RunningFitness() queries — callers that never query never pay
  /// them — and refresh a query-side cache that is never serialized, so a
  /// query never touches checkpointed state. 0 disables resyncs (the
  /// estimate then drifts with factor churn until the next ALS
  /// initialization). Affects RunningFitness() only, never the factors.
  int64_t fitness_resync_interval = 128;
  /// Pointwise loss the engine minimizes (losses/loss_function.h). The
  /// Gaussian default reproduces the paper's least-squares engine exactly
  /// (bitwise — regression-guarded by tests/losses_gaussian_bitwise_test);
  /// Poisson / Bernoulli-logit run the damped-Newton GCP row updates of
  /// losses/gcp_row_update.h instead of the closed-form Gaussian rules.
  LossKind loss = LossKind::kGaussian;
  /// Outlier-separating robust mode (see RobustOptions).
  RobustOptions robust;
  /// ALS settings used by InitializeWithAls().
  AlsOptions init;
  /// Seed for factor initialization and θ-sampling.
  uint64_t seed = 0x5115e9;

  /// Validates ranges and rejects every non-finite double; returned by
  /// ContinuousCpd::Create on failure.
  Status Validate() const;
};

}  // namespace sns

#endif  // SLICENSTITCH_CORE_OPTIONS_H_
