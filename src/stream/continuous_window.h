// Event-driven implementation of the continuous tensor model (Algorithm 1).
//
// The window D(t, W) is an M-mode sparse tensor whose last mode is time with
// W indices (0 = oldest unit, W−1 = newest). Each ingested tuple immediately
// adds its value to the newest slice and schedules its first slide; pops of
// the event schedule move the value backwards one slice per period until it
// expires, exactly reproducing events S.1–S.3. Complexity matches Theorems
// 1–2: O(M) per event, O(W+1) events per tuple, space linear in the active
// tuples.
//
// The schedule is a FIFO queue, not a priority queue. Every event is
// scheduled one period after the window clock at the moment it is scheduled
// (an arrival at t schedules t + T; an event applied at its due d schedules
// d + T), the clock never decreases, and sequence numbers count up. So each
// new event is due no earlier than every pending one and carries the
// largest seq: arrival order IS (due, seq) order, and the front of the
// queue is always the earliest event.

#ifndef SLICENSTITCH_STREAM_CONTINUOUS_WINDOW_H_
#define SLICENSTITCH_STREAM_CONTINUOUS_WINDOW_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "stream/event.h"
#include "tensor/sparse_tensor.h"

namespace sns {

namespace serial {
class Writer;
class Reader;
}  // namespace serial

/// Maintains the up-to-date tensor window of a multi-aspect data stream
/// under the continuous tensor model.
///
/// Callers interleave Ingest (tuple arrivals, chronological) with draining
/// scheduled events: before ingesting a tuple at time t, drain every
/// scheduled event due at or before t (AdvanceTo(t)) so window state always
/// reflects D(t, W). Scheduled events due exactly at an arrival's timestamp
/// are processed before the arrival, making replays deterministic.
class ContinuousTensorWindow {
 public:
  /// mode_dims: sizes of the M−1 non-time modes. window_size: W ≥ 1 time
  /// indices. period: T ≥ 1 time units per tensor unit. expected_nnz
  /// (optional) pre-sizes the window tensor for that many simultaneous
  /// non-zeros, avoiding rehash/realloc storms during warm-up ingestion.
  ContinuousTensorWindow(std::vector<int64_t> mode_dims, int window_size,
                         int64_t period, int64_t expected_nnz = 0);

  /// The live window tensor X = D(t, W); last mode is time.
  const SparseTensor& tensor() const { return window_; }

  int window_size() const { return window_size_; }
  int64_t period() const { return period_; }
  /// Number of modes of the window tensor (M = non-time modes + 1).
  int num_modes() const { return window_.num_modes(); }
  const std::vector<int64_t>& mode_dims() const { return window_.dims(); }

  /// Applies S.1 for a tuple: adds v at slice W−1, schedules the next event.
  /// Tuples must arrive in non-decreasing time order and only after all
  /// earlier-due scheduled events have been drained. Zero-valued tuples
  /// produce an empty delta and schedule nothing.
  WindowDelta Ingest(const Tuple& tuple);

  /// Validating wrapper around Ingest for API-boundary use.
  Status IngestChecked(const Tuple& tuple, WindowDelta* delta);

  bool HasScheduled() const { return pending_ != 0; }

  /// Due time of the earliest scheduled slide/expiry event;
  /// int64_t max when none are pending.
  int64_t NextScheduledTime() const;

  /// Pops the earliest scheduled event, applies it (S.2 or S.3), schedules
  /// the follow-up, and returns its delta. Requires HasScheduled().
  WindowDelta PopScheduled();

  /// Applies every scheduled event due at or before `time`, invoking
  /// `on_event(delta)` after each application. Statically dispatched so the
  /// per-event path carries no std::function indirection.
  template <typename Fn>
  void AdvanceTo(int64_t time, Fn&& on_event) {
    while (HasScheduled() && schedule_[head_].due <= time) {
      on_event(PopScheduled());
    }
  }

  /// Applies every scheduled event due at or before `time`.
  void AdvanceTo(int64_t time) {
    while (HasScheduled() && schedule_[head_].due <= time) PopScheduled();
  }

  /// Number of tuples currently inside the window span (active tuples).
  int64_t ActiveTupleCount() const {
    return static_cast<int64_t>(pending_);
  }

  /// Serializes the window tensor (with storage layout), the event clock,
  /// and the pending schedule in (due, seq) order, read in place.
  void SerializeTo(serial::Writer& w) const;

  /// Restores into this window, which must be freshly constructed with the
  /// same shape/period. Replays are then bitwise identical: the schedule
  /// pops in the strict (due, seq) order the snapshot recorded. Corrupt
  /// input fails with kDataLoss, including a schedule that could not have
  /// been built: events out of (due, seq) order, or due past the clock plus
  /// one period.
  Status RestoreFrom(serial::Reader& r);

 private:
  struct Scheduled {
    int64_t due;
    uint64_t seq;  // Order of scheduling; breaks ties of equal due times.
    Tuple tuple;
    int w;  // Which update this is: 1..W (W = expiry).
  };

  /// The i-th pending event, 0 = the front.
  const Scheduled& Pending(size_t i) const {
    return schedule_[(head_ + i) & (ring_slots_ - 1)];
  }

  /// Appends to the back of the queue; a full ring doubles first.
  void Schedule(const Scheduled& event);

  /// Re-lays the pending events at the front of a ring of `slots` slots (a
  /// power of two, at least pending_).
  void ResizeRing(size_t slots);

  /// Applies the w-th update of a tuple to the window, returns the delta.
  WindowDelta ApplyScheduled(const Scheduled& event);

  SparseTensor window_;
  int window_size_;
  int64_t period_;
  uint64_t next_seq_ = 0;
  int64_t last_event_time_ = INT64_MIN;
  // Pending events in (due, seq) order: a ring of ring_slots_ slots (0 or a
  // power of two) holding pending_ events from schedule_[head_] on, wrapping
  // at the end. The vector reserves the ring and constructs its slots as the
  // tail first reaches them, so untouched capacity costs no resident memory.
  // The ring grows only when full, so a steady stream reuses one allocation.
  std::vector<Scheduled> schedule_;
  size_t ring_slots_ = 0;
  size_t head_ = 0;
  size_t pending_ = 0;
};

}  // namespace sns

#endif  // SLICENSTITCH_STREAM_CONTINUOUS_WINDOW_H_
