// Bounded sparse outlier structure S of the robust streaming mode.
//
// Following Hawkins & Zhang's robust streaming factorization (PAPERS.md),
// the robust engine models the window as X = L + S: L is what the CP model
// fits, S is a sparse matrix of outlier mass that would otherwise be
// absorbed into the factors. At every arrival the engine forms the residual
// r = (window + v) − μ of the observation against the model's prediction
// μ = Link(x̃) and soft-thresholds it:
//
//   s = sign(r) · max(|r| − τ, 0)
//
// The captured part s accumulates here under the tuple's non-time
// coordinate (entities are outliers, not single timestamps) and is
// SUBTRACTED from the ingested value, so the factors only ever see the
// inlier part. Σ|S| per entity is the anomaly score the OutlierActivity
// query exports — a separated outlier magnitude instead of the raw
// AbsError the anomaly app used before.
//
// The store is bounded: at `capacity` entries the smallest-magnitude entry
// is evicted (deterministic — ties break on key order), and as the window
// advances the engine decays every entry once per period so stale outlier
// mass drains out. All mutation is deterministic in the input sequence and
// the content serializes in key order, which is what lets checkpoint
// restore + journal replay reproduce a robust trajectory bitwise
// (tests/loss_durability_test.cpp).

#ifndef SLICENSTITCH_LOSSES_OUTLIER_STORE_H_
#define SLICENSTITCH_LOSSES_OUTLIER_STORE_H_

#include <cstdint>
#include <map>
#include <span>

#include "common/status.h"
#include "tensor/mode_index.h"

namespace sns {

namespace serial {
class Writer;
class Reader;
}  // namespace serial

/// Strict weak order over cell coordinates (ModeIndex has no operator<):
/// by size, then lexicographic — the deterministic iteration order of the
/// store's map, its serialization, and its eviction tie-breaks.
struct ModeIndexLess {
  bool operator()(const ModeIndex& a, const ModeIndex& b) const {
    if (a.size() != b.size()) return a.size() < b.size();
    for (int m = 0; m < a.size(); ++m) {
      if (a[m] != b[m]) return a[m] < b[m];
    }
    return false;
  }
};

/// Bounded sparse map entity-coordinate → accumulated captured outlier
/// mass. Owned by ContinuousCpd when robust mode is on.
class OutlierStore {
 public:
  using Map = std::map<ModeIndex, double, ModeIndexLess>;

  /// threshold τ > 0: residual magnitude below which nothing is captured.
  /// decay ∈ [0, 1]: per-period multiplier of every stored entry.
  /// capacity ≥ 1: maximum number of live entries.
  void Configure(double threshold, double decay, int64_t capacity) {
    threshold_ = threshold;
    decay_ = decay;
    capacity_ = capacity;
  }

  /// Soft-thresholds `residual` against τ and accumulates the captured part
  /// under `key`. Returns the captured part s (0.0 when |residual| ≤ τ —
  /// the store is untouched then). May evict the smallest-magnitude entry
  /// when the insert overflows capacity.
  double Capture(const ModeIndex& key, double residual);

  /// Multiplies every entry by the decay factor, dropping entries whose
  /// magnitude falls below the zero epsilon. Called by the engine once per
  /// stream period. Returns false when the pass changed nothing (an empty
  /// store, decay 1, entries at a fixed point such as ±inf): every further
  /// pass is then a no-op too.
  bool Decay();

  /// The engine's decay clock: runs one Decay pass per tick in
  /// [next_tick, time], ticks `period` apart, and returns the first tick
  /// after `time` (saturated at int64 max). Bitwise equal to that loop, but
  /// once a pass changes nothing the remaining ticks are skipped in one
  /// step, so a long gap (an idle stream, a restored clock far behind) costs
  /// only the passes that still change the store.
  int64_t DecayThrough(int64_t time, int64_t next_tick, int64_t period);

  /// Accumulated (signed) outlier mass under `key`; 0.0 when absent.
  double Get(const ModeIndex& key) const;

  void Clear();

  int64_t size() const { return static_cast<int64_t>(entries_.size()); }
  /// Σ |S| over every live entry.
  double TotalMagnitude() const;

  /// Lifetime counters (telemetry): non-zero captures and evictions.
  uint64_t captures() const { return captures_; }
  uint64_t evictions() const { return evictions_; }

  /// Deterministic (key-ordered) read access for queries and tests.
  const Map& entries() const { return entries_; }

  /// Content + counters, in key order; configuration is NOT serialized (it
  /// comes from the engine options the checkpoint carries separately).
  void SerializeTo(serial::Writer& w) const;
  /// Restores what SerializeTo wrote for a stream whose non-time modes have
  /// sizes `dims`. kDataLoss for content the store could not have held:
  /// more entries than its capacity, a key of another arity or with an
  /// index outside its mode, or keys not in strictly increasing order.
  Status RestoreFrom(serial::Reader& r, std::span<const int64_t> dims);

 private:
  Map entries_;
  double threshold_ = 0.0;
  double decay_ = 1.0;
  int64_t capacity_ = 0;
  uint64_t captures_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace sns

#endif  // SLICENSTITCH_LOSSES_OUTLIER_STORE_H_
