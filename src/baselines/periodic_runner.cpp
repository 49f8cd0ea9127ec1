#include "baselines/periodic_runner.h"

#include "common/monotonic_clock.h"

namespace sns {

PeriodicRunner::PeriodicRunner(std::vector<int64_t> mode_dims, int window_size,
                               int64_t period,
                               std::unique_ptr<PeriodicAlgorithm> algorithm)
    : window_(std::move(mode_dims), window_size, period),
      algorithm_(std::move(algorithm)) {
  SNS_CHECK(algorithm_ != nullptr);
}

void PeriodicRunner::Warmup(const Tuple& tuple) {
  SNS_CHECK(!initialized_);
  window_.AddTuple(tuple);
}

void PeriodicRunner::Initialize(Rng& rng, int64_t boundary_time) {
  SNS_CHECK(!initialized_);
  window_.CloseUpTo(boundary_time);
  algorithm_->Initialize(window_.WindowTensor(), rng);
  next_boundary_ = boundary_time + window_.period();
  initialized_ = true;
}

void PeriodicRunner::RunBoundary(int64_t boundary) {
  window_.CloseUpTo(boundary);
  SparseTensor window_tensor = window_.WindowTensor();
  SparseTensor newest_unit = window_.NewestUnit();
  const int64_t start_ns = MonotonicNanos();
  algorithm_->OnPeriod(window_tensor, newest_unit);
  const double micros =
      static_cast<double>(MonotonicNanos() - start_ns) * 1e-3;
  observations_.push_back(
      {boundary, algorithm_->model().Fitness(window_tensor), micros});
}

void PeriodicRunner::Process(const Tuple& tuple) {
  SNS_CHECK(initialized_);
  while (tuple.time > next_boundary_) {
    RunBoundary(next_boundary_);
    next_boundary_ += window_.period();
  }
  window_.AddTuple(tuple);
}

void PeriodicRunner::FinishUpTo(int64_t time) {
  SNS_CHECK(initialized_);
  while (next_boundary_ <= time) {
    RunBoundary(next_boundary_);
    next_boundary_ += window_.period();
  }
}

double PeriodicRunner::MeanUpdateMicros() const {
  if (observations_.empty()) return 0.0;
  double total = 0.0;
  for (const auto& obs : observations_) total += obs.update_micros;
  return total / static_cast<double>(observations_.size());
}

}  // namespace sns
