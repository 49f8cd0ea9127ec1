#include "stream/continuous_window.h"

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

  schedule_.push(
      Scheduled{tuple.time + period_, next_seq_++, tuple, /*w=*/1});
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
  return schedule_.empty() ? std::numeric_limits<int64_t>::max()
                           : schedule_.top().due;
}

WindowDelta ContinuousTensorWindow::PopScheduled() {
  SNS_CHECK(!schedule_.empty());
  Scheduled event = schedule_.top();
  schedule_.pop();
  SNS_CHECK(event.due >= last_event_time_);
  last_event_time_ = event.due;
  return ApplyScheduled(event);
}

void ContinuousTensorWindow::SerializeTo(serial::Writer& w) const {
  window_.SerializeTo(w);
  w.U64(next_seq_);
  w.I64(last_event_time_);
  // Drain a copy of the heap: entries emerge in the exact (due, seq) pop
  // order, which is also a canonical encoding — equal schedules always
  // serialize to equal bytes regardless of internal heap layout.
  auto copy = schedule_;
  w.U64(copy.size());
  while (!copy.empty()) {
    const Scheduled& s = copy.top();
    w.I64(s.due);
    w.U64(s.seq);
    w.I32(s.w);
    w.U32(static_cast<uint32_t>(s.tuple.index.size()));
    for (int m = 0; m < s.tuple.index.size(); ++m) w.I32(s.tuple.index[m]);
    w.F64(s.tuple.value);
    w.I64(s.tuple.time);
    copy.pop();
  }
}

Status ContinuousTensorWindow::RestoreFrom(serial::Reader& r) {
  SNS_RETURN_IF_ERROR(window_.RestoreFrom(r));
  SNS_RETURN_IF_ERROR(r.U64(&next_seq_));
  SNS_RETURN_IF_ERROR(r.I64(&last_event_time_));
  uint64_t pending = 0;
  SNS_RETURN_IF_ERROR(r.U64(&pending));
  const int arity = num_modes() - 1;
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
        s.due < last_event_time_ ||
        __builtin_mul_overflow(int64_t{s.w}, period_, &offset) ||
        __builtin_add_overflow(s.tuple.time, offset, &due) || due != s.due) {
      return Status::DataLoss("scheduled event " + std::to_string(i) +
                              " is inconsistent with the window clock");
    }
    schedule_.push(std::move(s));
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
    schedule_.push(Scheduled{tuple.time + static_cast<int64_t>(w + 1) * period_,
                             next_seq_++, tuple, w + 1});
  } else {
    delta.kind = EventKind::kExpiry;
  }
  return delta;
}

}  // namespace sns
