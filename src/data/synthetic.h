// Synthetic multi-aspect stream generator.
//
// The paper's four datasets are public trip/crime/taxi logs that are not
// available offline, so experiments run on synthetic streams engineered to
// preserve what the algorithms are sensitive to:
//   - a ground-truth low-rank structure: events are drawn from a small set
//     of latent components, each with skewed per-mode index profiles (so CP
//     decomposition has signal to fit, like recurring traffic patterns),
//   - background noise events with uniform indices (model violations),
//   - Poisson-like arrivals with a diurnal rate modulation (time locality),
//   - count values (v = 1 per event unless configured otherwise).

#ifndef SLICENSTITCH_DATA_SYNTHETIC_H_
#define SLICENSTITCH_DATA_SYNTHETIC_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "stream/data_stream.h"

namespace sns {

/// Parameters of the generator. Defaults give a well-behaved mid-size
/// stream; the dataset presets (data/datasets.h) override them.
struct SyntheticStreamConfig {
  /// Sizes of the M−1 non-time modes.
  std::vector<int64_t> mode_dims;
  /// Number of events to emit.
  int64_t num_events = 10000;
  /// Events are spread over [1, time_span] (inclusive) in stream time units.
  int64_t time_span = 100000;
  /// Number of ground-truth latent components.
  int latent_rank = 8;
  /// Fraction of events with uniformly random indices (structure noise).
  double noise_fraction = 0.1;
  /// Zipf-like exponent shaping each component's per-mode index profile:
  /// weight of the k-th most popular index ∝ (k+1)^(-skew).
  double popularity_skew = 1.2;
  /// Relative amplitude (0..1) of the sinusoidal arrival-rate modulation.
  double diurnal_strength = 0.5;
  /// Period of the rate modulation in stream time units.
  int64_t diurnal_period = 86400;
  /// Event values are drawn uniformly from [value_min, value_max] and
  /// rounded to integers when both bounds are integral. 1/1 = count data.
  double value_min = 1.0;
  double value_max = 1.0;
  uint64_t seed = 20210217;  // SliceNStitch's ICDE submission era.

  Status Validate() const;
};

/// Generates a chronological stream per the configuration.
StatusOr<DataStream> GenerateSyntheticStream(
    const SyntheticStreamConfig& config);

}  // namespace sns

#endif  // SLICENSTITCH_DATA_SYNTHETIC_H_
