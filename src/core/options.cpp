#include "core/options.h"

#include <cmath>
#include <utility>

namespace sns {

std::string VariantName(SnsVariant variant) {
  switch (variant) {
    case SnsVariant::kMat:
      return "SNS-MAT";
    case SnsVariant::kVec:
      return "SNS-VEC";
    case SnsVariant::kRnd:
      return "SNS-RND";
    case SnsVariant::kVecPlus:
      return "SNS+VEC";
    case SnsVariant::kRndPlus:
      return "SNS+RND";
  }
  // Out-of-range SnsVariant (e.g. an enum value cast from a bad integer):
  // fail loudly like MakeUpdater instead of silently naming it "SNS-?" and
  // letting the bad value flow into reports and bench labels.
  SNS_CHECK(false && "VariantName: unhandled SnsVariant");
  return "";  // Unreachable.
}

Status ContinuousCpdOptions::Validate() const {
  // Every double first, whether or not its feature is enabled: NaN slips
  // through each ordered comparison below, and ±inf through the one-sided
  // ones, into engine invariants that abort.
  const std::pair<const char*, double> doubles[] = {
      {"clip_bound", clip_bound},
      {"robust.threshold", robust.threshold},
      {"robust.decay", robust.decay},
      {"init.fitness_tolerance", init.fitness_tolerance},
  };
  for (const auto& [name, value] : doubles) {
    if (!std::isfinite(value)) {
      return Status::InvalidArgument(std::string(name) + " must be finite");
    }
  }
  if (rank < 1) return Status::InvalidArgument("rank must be >= 1");
  if (window_size < 1) {
    return Status::InvalidArgument("window_size must be >= 1");
  }
  if (period < 1) return Status::InvalidArgument("period must be >= 1");
  // A tuple's window events run to its time plus this span.
  if (int64_t span; __builtin_mul_overflow(window_size, period, &span)) {
    return Status::InvalidArgument("window_size * period must fit in int64");
  }
  if (sample_threshold < 1) {
    return Status::InvalidArgument("sample_threshold must be >= 1");
  }
  if (clip_bound <= 0.0) {
    return Status::InvalidArgument("clip_bound must be positive");
  }
  if (expected_nnz < 0) {
    return Status::InvalidArgument("expected_nnz must be >= 0");
  }
  if (fitness_resync_interval < 0) {
    return Status::InvalidArgument("fitness_resync_interval must be >= 0");
  }
  if (nonnegative_factors && variant != SnsVariant::kVecPlus &&
      variant != SnsVariant::kRndPlus) {
    return Status::InvalidArgument(
        "nonnegative_factors requires a clipped variant (SNS+VEC / SNS+RND)");
  }
  if (robust.enabled) {
    if (!(robust.threshold > 0.0)) {
      return Status::InvalidArgument("robust.threshold must be positive");
    }
    if (!(robust.decay >= 0.0 && robust.decay <= 1.0)) {
      return Status::InvalidArgument("robust.decay must be in [0, 1]");
    }
    if (robust.capacity < 1) {
      return Status::InvalidArgument("robust.capacity must be >= 1");
    }
  }
  if (init.max_iterations < 1) {
    return Status::InvalidArgument("init.max_iterations must be >= 1");
  }
  if (init.fitness_tolerance < 0.0) {
    return Status::InvalidArgument("init.fitness_tolerance must be >= 0");
  }
  return Status::OK();
}

}  // namespace sns
