// Dataset presets mirroring the paper's four real-world tensors (Table II)
// with the default hyperparameters of Table III.
//
// Mode sizes, periods, time units, θ and η match the paper exactly; event
// counts are scaled down so every benchmark finishes in minutes. The
// generated streams span (1 + kLiveWindows)·W·T time units: one window
// span of warm-up (factors are then initialized with ALS, §VI-A) plus the
// paper's 5·W·T of live events.

#ifndef SLICENSTITCH_DATA_DATASETS_H_
#define SLICENSTITCH_DATA_DATASETS_H_

#include <string>
#include <vector>

#include "core/options.h"
#include "data/synthetic.h"

namespace sns {

/// Live phase length in window spans (the paper processes events during
/// 5·W·T after initialization).
inline constexpr int kLiveWindows = 5;

/// Everything needed to run one paper experiment on one dataset.
struct DatasetSpec {
  std::string name;        // Identifier, e.g. "taxi".
  std::string paper_name;  // Display name, e.g. "New York Taxi".
  /// Stream generator configuration (spans (1+kLiveWindows)·W·T).
  SyntheticStreamConfig stream;
  /// Engine defaults from Table III (R=20, W=10, T, θ, η).
  ContinuousCpdOptions engine;
  /// Paper-reported numbers for side-by-side reporting.
  std::string paper_size;
  double paper_nnz_millions = 0.0;
  double paper_density = 0.0;

  /// End of the warm-up phase (= W·T): tuples at or before this time fill
  /// the window; later tuples are processed continuously.
  int64_t WarmupEndTime() const {
    return static_cast<int64_t>(engine.window_size) * engine.period;
  }
};

/// The four presets. `event_scale` multiplies the default event counts
/// (1.0 ≈ quick-bench size; raise it to stress the system).
DatasetSpec DivvyBikesPreset(double event_scale = 1.0);
DatasetSpec ChicagoCrimePreset(double event_scale = 1.0);
DatasetSpec NewYorkTaxiPreset(double event_scale = 1.0);
DatasetSpec RideAustinPreset(double event_scale = 1.0);

/// All four, in the paper's order.
std::vector<DatasetSpec> AllDatasetPresets(double event_scale = 1.0);

/// Reads the benchmark scale factor from the SNS_BENCH_SCALE environment
/// variable (default 1.0; values are clamped to [0.05, 100]).
double BenchEventScaleFromEnv();

}  // namespace sns

#endif  // SLICENSTITCH_DATA_DATASETS_H_
