// The one steady-clock read of the library. Engine update timers, the
// telemetry layer (telemetry/scoped_timer.h), the runtime's apply-time
// histograms and the benchmark harnesses all time intervals as differences
// of MonotonicNanos().

#ifndef SLICENSTITCH_COMMON_MONOTONIC_CLOCK_H_
#define SLICENSTITCH_COMMON_MONOTONIC_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace sns {

/// Nanoseconds on the monotonic (steady) clock — immune to wall-clock
/// steps. The absolute value is meaningless; only differences are.
inline int64_t MonotonicNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace sns

#endif  // SLICENSTITCH_COMMON_MONOTONIC_CLOCK_H_
