// Scope timing for the telemetry layer.
//
// ScopedTimer records the elapsed nanoseconds of a scope, measured with the
// library's one clock (common/monotonic_clock.h), into a LatencyHistogram on
// destruction. It is null-tolerant: constructed with a null histogram
// (telemetry disabled) the timer never touches the clock, so the disabled
// cost of an instrumented scope is one pointer test.

#ifndef SLICENSTITCH_TELEMETRY_SCOPED_TIMER_H_
#define SLICENSTITCH_TELEMETRY_SCOPED_TIMER_H_

#include <cstdint>

#include "common/monotonic_clock.h"
#include "telemetry/histogram.h"

namespace sns {
namespace telemetry {

/// Records the lifetime of the object, in nanoseconds, into `histogram` when
/// non-null. With a null histogram the constructor and destructor are both a
/// single branch — no clock read.
class ScopedTimer {
 public:
  explicit ScopedTimer(LatencyHistogram* histogram)
      : histogram_(histogram),
        start_ns_(histogram != nullptr ? MonotonicNanos() : 0) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (histogram_ != nullptr) {
      histogram_->Record(MonotonicNanos() - start_ns_);
    }
  }

  /// Nanoseconds since construction (0 when constructed disabled).
  int64_t ElapsedNanos() const {
    return histogram_ != nullptr ? MonotonicNanos() - start_ns_ : 0;
  }

 private:
  LatencyHistogram* histogram_;
  int64_t start_ns_;
};

}  // namespace telemetry
}  // namespace sns

#endif  // SLICENSTITCH_TELEMETRY_SCOPED_TIMER_H_
