#include "stream/continuous_window.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <string>

#include "common/serial.h"

namespace sns {
namespace {

std::vector<int64_t> WindowDims(std::vector<int64_t> mode_dims,
                                int window_size) {
  mode_dims.push_back(window_size);
  return mode_dims;
}

}  // namespace

ContinuousTensorWindow::ContinuousTensorWindow(std::vector<int64_t> mode_dims,
                                               int window_size, int64_t period,
                                               int64_t expected_nnz)
    : window_(WindowDims(std::move(mode_dims), window_size), expected_nnz),
      window_size_(window_size),
      period_(period) {
  SNS_CHECK(window_size_ >= 1);
  SNS_CHECK(period_ >= 1);
  // The θ-sampler probes this tensor, mostly at empty cells.
  window_.TrackOccupancy();
}

WindowDelta ContinuousTensorWindow::Ingest(const Tuple& tuple) {
  SNS_CHECK(tuple.index.size() == num_modes() - 1);
  SNS_CHECK(tuple.time >= last_event_time_);
  SNS_CHECK(NextScheduledTime() >= tuple.time);  // Drain the schedule first.
  last_event_time_ = tuple.time;

  WindowDelta delta;
  delta.kind = EventKind::kArrival;
  delta.w = 0;
  delta.time = tuple.time;
  delta.tuple = tuple;
  if (tuple.value == 0.0) return delta;

  const ModeIndex cell = tuple.index.WithAppended(window_size_ - 1);
  window_.Add(cell, tuple.value);
  delta.cells.push_back({cell, tuple.value});

  Schedule(Scheduled{tuple.time + period_, next_seq_++, tuple, /*w=*/1});
  return delta;
}

Status ContinuousTensorWindow::IngestChecked(const Tuple& tuple,
                                             WindowDelta* delta) {
  if (tuple.index.size() != num_modes() - 1) {
    return Status::InvalidArgument("tuple arity mismatch");
  }
  for (int m = 0; m < tuple.index.size(); ++m) {
    if (tuple.index[m] < 0 || tuple.index[m] >= window_.dim(m)) {
      return Status::OutOfRange("tuple index out of range in mode " +
                                std::to_string(m));
    }
  }
  if (tuple.time < last_event_time_) {
    return Status::FailedPrecondition("tuples must be chronological");
  }
  if (NextScheduledTime() < tuple.time) {
    return Status::FailedPrecondition(
        "scheduled events before this tuple must be drained first");
  }
  WindowDelta out = Ingest(tuple);
  if (delta != nullptr) *delta = std::move(out);
  return Status::OK();
}

int64_t ContinuousTensorWindow::NextScheduledTime() const {
  return HasScheduled() ? schedule_[head_].due
                        : std::numeric_limits<int64_t>::max();
}

void ContinuousTensorWindow::Schedule(const Scheduled& event) {
  if (pending_ == ring_slots_) ResizeRing(std::max<size_t>(16, 2 * pending_));
  const size_t tail = (head_ + pending_) & (ring_slots_ - 1);
  if (tail == schedule_.size()) {
    schedule_.push_back(event);  // Within the reserved ring.
  } else {
    schedule_[tail] = event;
  }
  ++pending_;
}

void ContinuousTensorWindow::ResizeRing(size_t slots) {
  std::vector<Scheduled> ring;
  ring.reserve(slots);
  for (size_t i = 0; i < pending_; ++i) ring.push_back(Pending(i));
  schedule_.swap(ring);
  ring_slots_ = slots;
  head_ = 0;
}

WindowDelta ContinuousTensorWindow::PopScheduled() {
  SNS_CHECK(HasScheduled());
  // A copy: applying the event schedules its follow-up, which may grow the
  // ring.
  const Scheduled event = schedule_[head_];
  head_ = (head_ + 1) & (ring_slots_ - 1);
  --pending_;
  SNS_CHECK(event.due >= last_event_time_);
  last_event_time_ = event.due;
  return ApplyScheduled(event);
}

void ContinuousTensorWindow::SerializeTo(serial::Writer& w) const {
  window_.SerializeTo(w);
  w.U64(next_seq_);
  w.I64(last_event_time_);
  // The queue is already in (due, seq) pop order, which is also a
  // canonical encoding: equal schedules serialize to equal bytes.
  w.U64(pending_);
  for (size_t i = 0; i < pending_; ++i) {
    const Scheduled& s = Pending(i);
    w.I64(s.due);
    w.U64(s.seq);
    w.I32(s.w);
    w.U32(static_cast<uint32_t>(s.tuple.index.size()));
    for (int m = 0; m < s.tuple.index.size(); ++m) w.I32(s.tuple.index[m]);
    w.F64(s.tuple.value);
    w.I64(s.tuple.time);
  }
}

Status ContinuousTensorWindow::RestoreFrom(serial::Reader& r) {
  SNS_RETURN_IF_ERROR(window_.RestoreFrom(r));
  SNS_RETURN_IF_ERROR(r.U64(&next_seq_));
  SNS_RETURN_IF_ERROR(r.I64(&last_event_time_));
  uint64_t pending = 0;
  SNS_RETURN_IF_ERROR(r.U64(&pending));
  // Every pending event was scheduled one period after a clock no later
  // than this one, so none is due past the horizon.
  int64_t horizon = 0;
  if (__builtin_add_overflow(last_event_time_, period_, &horizon)) {
    horizon = std::numeric_limits<int64_t>::max();
  }
  const int arity = num_modes() - 1;
  // Each record takes due, seq, w, arity, the coordinates, value and time,
  // so a count the bytes left cannot hold is corrupt.
  const size_t record_bytes = 40 + 4 * static_cast<size_t>(arity);
  if (pending > r.remaining() / record_bytes) {
    return Status::DataLoss("implausible scheduled event count " +
                            std::to_string(pending));
  }
  if (pending > 0) ResizeRing(std::bit_ceil(static_cast<size_t>(pending)));
  for (uint64_t i = 0; i < pending; ++i) {
    Scheduled s;
    SNS_RETURN_IF_ERROR(r.I64(&s.due));
    SNS_RETURN_IF_ERROR(r.U64(&s.seq));
    SNS_RETURN_IF_ERROR(r.I32(&s.w));
    uint32_t stored_arity = 0;
    SNS_RETURN_IF_ERROR(r.U32(&stored_arity));
    if (static_cast<int>(stored_arity) != arity) {
      return Status::DataLoss("scheduled event " + std::to_string(i) +
                              " has arity " + std::to_string(stored_arity) +
                              ", window expects " + std::to_string(arity));
    }
    for (int m = 0; m < arity; ++m) {
      int32_t c = 0;
      SNS_RETURN_IF_ERROR(r.I32(&c));
      if (c < 0 || c >= window_.dim(m)) {
        return Status::DataLoss("scheduled event " + std::to_string(i) +
                                " index out of range in mode " +
                                std::to_string(m));
      }
      s.tuple.index.PushBack(c);
    }
    SNS_RETURN_IF_ERROR(r.F64(&s.tuple.value));
    SNS_RETURN_IF_ERROR(r.I64(&s.tuple.time));
    // The window schedules an event only at due = tuple.time + w·period
    // (Ingest, ApplyScheduled), so any other due, or one past int64, is
    // corrupt: it would pop behind the clock on a later slide.
    int64_t offset = 0;
    int64_t due = 0;
    if (s.w < 1 || s.w > window_size_ || s.seq >= next_seq_ ||
        s.due < last_event_time_ || s.due > horizon ||
        __builtin_mul_overflow(int64_t{s.w}, period_, &offset) ||
        __builtin_add_overflow(s.tuple.time, offset, &due) || due != s.due) {
      return Status::DataLoss("scheduled event " + std::to_string(i) +
                              " is inconsistent with the window clock");
    }
    // The queue pops in file order, which must then be (due, seq) order.
    if (pending_ > 0) {
      const Scheduled& prev = Pending(pending_ - 1);
      if (s.due < prev.due || (s.due == prev.due && s.seq <= prev.seq)) {
        return Status::DataLoss("scheduled event " + std::to_string(i) +
                                " is out of (due, seq) order");
      }
    }
    Schedule(s);
  }
  return Status::OK();
}

WindowDelta ContinuousTensorWindow::ApplyScheduled(const Scheduled& event) {
  const Tuple& tuple = event.tuple;
  const int w = event.w;
  const double v = tuple.value;

  WindowDelta delta;
  delta.w = w;
  delta.time = event.due;
  delta.tuple = tuple;

  // S.2 / S.3: remove from slice W−w (0-based), the slice the value has
  // occupied for the past period.
  const ModeIndex from = tuple.index.WithAppended(window_size_ - w);
  window_.Add(from, -v);
  delta.cells.push_back({from, -v});

  if (w < window_size_) {
    delta.kind = EventKind::kSlide;
    const ModeIndex to = tuple.index.WithAppended(window_size_ - w - 1);
    window_.Add(to, v);
    delta.cells.push_back({to, v});
    Schedule(Scheduled{event.due + period_, next_seq_++, tuple, w + 1});
  } else {
    delta.kind = EventKind::kExpiry;
  }
  return delta;
}

}  // namespace sns
