#include "losses/outlier_store.h"

#include <bit>
#include <cmath>
#include <iterator>
#include <limits>
#include <string>

#include "common/serial.h"

namespace sns {
namespace {

// Entries whose accumulated magnitude falls below this are dropped (decay
// tail, capture cancellation) — mirrors SparseTensor::kZeroEpsilon so the
// store never carries numeric dust.
constexpr double kDropEpsilon = 1e-12;

}  // namespace

double OutlierStore::Capture(const ModeIndex& key, double residual) {
  const double magnitude = std::abs(residual) - threshold_;
  if (!(magnitude > 0.0)) return 0.0;  // Inlier (or NaN residual): no-op.
  const double s = residual > 0.0 ? magnitude : -magnitude;
  ++captures_;
  auto [it, inserted] = entries_.try_emplace(key, 0.0);
  it->second += s;
  if (std::abs(it->second) < kDropEpsilon) {
    // Oppositely-signed captures cancelled out.
    entries_.erase(it);
    return s;
  }
  if (inserted && static_cast<int64_t>(entries_.size()) > capacity_) {
    // Evict the smallest-magnitude entry; the map's key order breaks ties
    // deterministically (first minimum in iteration order wins).
    auto victim = entries_.begin();
    for (auto jt = entries_.begin(); jt != entries_.end(); ++jt) {
      if (std::abs(jt->second) < std::abs(victim->second)) victim = jt;
    }
    entries_.erase(victim);
    ++evictions_;
  }
  return s;
}

bool OutlierStore::Decay() {
  bool changed = false;
  for (auto it = entries_.begin(); it != entries_.end();) {
    const double decayed = it->second * decay_;
    changed |= std::bit_cast<uint64_t>(decayed) !=
               std::bit_cast<uint64_t>(it->second);
    it->second = decayed;
    if (std::abs(decayed) < kDropEpsilon) {
      it = entries_.erase(it);
      changed = true;
    } else {
      ++it;
    }
  }
  return changed;
}

int64_t OutlierStore::DecayThrough(int64_t time, int64_t next_tick,
                                   int64_t period) {
  constexpr __int128 kMax = std::numeric_limits<int64_t>::max();
  while (time >= next_tick) {
    __int128 next = static_cast<__int128>(next_tick) + period;
    if (!Decay()) {
      next += (static_cast<__int128>(time) - next_tick) / period * period;
    }
    if (next > kMax) return static_cast<int64_t>(kMax);
    next_tick = static_cast<int64_t>(next);
  }
  return next_tick;
}

double OutlierStore::Get(const ModeIndex& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? 0.0 : it->second;
}

void OutlierStore::Clear() {
  entries_.clear();
  captures_ = 0;
  evictions_ = 0;
}

double OutlierStore::TotalMagnitude() const {
  double total = 0.0;
  for (const auto& [key, value] : entries_) total += std::abs(value);
  return total;
}

void OutlierStore::SerializeTo(serial::Writer& w) const {
  w.U64(static_cast<uint64_t>(entries_.size()));
  for (const auto& [key, value] : entries_) {
    w.U8(static_cast<uint8_t>(key.size()));
    for (int m = 0; m < key.size(); ++m) w.I32(key[m]);
    w.F64(value);
  }
  w.U64(captures_);
  w.U64(evictions_);
}

Status OutlierStore::RestoreFrom(serial::Reader& r,
                                 std::span<const int64_t> dims) {
  entries_.clear();
  uint64_t count = 0;
  SNS_RETURN_IF_ERROR(r.U64(&count));
  if (count > static_cast<uint64_t>(capacity_)) {
    return Status::DataLoss("outlier store holds " + std::to_string(count) +
                            " entries; its capacity is " +
                            std::to_string(capacity_));
  }
  for (uint64_t i = 0; i < count; ++i) {
    uint8_t num_modes = 0;
    SNS_RETURN_IF_ERROR(r.U8(&num_modes));
    if (num_modes != dims.size()) {
      return Status::DataLoss("outlier entry has " +
                              std::to_string(num_modes) + " modes; the "
                              "stream has " + std::to_string(dims.size()));
    }
    ModeIndex key;
    for (size_t m = 0; m < dims.size(); ++m) {
      int32_t index = 0;
      SNS_RETURN_IF_ERROR(r.I32(&index));
      if (index < 0 || index >= dims[m]) {
        return Status::DataLoss("outlier entry index " +
                                std::to_string(index) + " lies outside mode " +
                                std::to_string(m));
      }
      key.PushBack(index);
    }
    double value = 0.0;
    SNS_RETURN_IF_ERROR(r.F64(&value));
    // Serialized in key order, so every key goes at the end.
    if (!entries_.empty() &&
        !ModeIndexLess{}(std::prev(entries_.end())->first, key)) {
      return Status::DataLoss("outlier entries are not in strict key order");
    }
    entries_.emplace_hint(entries_.end(), key, value);
  }
  SNS_RETURN_IF_ERROR(r.U64(&captures_));
  return r.U64(&evictions_);
}

}  // namespace sns
