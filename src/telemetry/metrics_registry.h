// MetricsRegistry: the telemetry domains owned by a running SnsService.
//
// Two kinds of domain:
//   - ShardMetrics, one per worker shard (one for the caller-runs executor):
//     the hot-path instruments — mailbox traffic, queue depth, per-task
//     apply time, ingest-to-ticket latency.
//   - StreamMetrics, one per registered stream: ingest/journal/checkpoint
//     and health tallies, attributed to the shard the stream is pinned to.
//
// Lifetime contract: domains are heap-allocated at registration and NEVER
// freed or moved until the registry itself dies. Instrumentation sites hold
// raw ShardMetrics* / StreamMetrics* and record without any lock; removing a
// stream from the service leaves its metrics domain in place (re-creating a
// stream under the same name reuses the old domain and re-pins its shard).
// Histogram storage is inline in the domain structs, so nothing on the
// record path allocates.
//
// Snapshots are relaxed reads: each counter is read atomically, but a
// snapshot taken while recorders run may interleave between instruments.
// SnsService::Metrics layers sequence-consistency on top by draining the
// shards first.

#ifndef SLICENSTITCH_TELEMETRY_METRICS_REGISTRY_H_
#define SLICENSTITCH_TELEMETRY_METRICS_REGISTRY_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/counters.h"
#include "telemetry/histogram.h"

namespace sns {
namespace telemetry {

/// Hot-path instruments for one worker shard (or the caller-runs executor).
struct ShardMetrics {
  /// Tasks run to completion on the shard (queries and barriers included).
  Counter tasks_executed;
  /// Successful mailbox pushes.
  Counter mailbox_pushes;
  /// Pushes that found the mailbox full and waited (block policy).
  Counter mailbox_blocked;
  /// Pushes refused outright with the queue full (reject policy).
  Counter mailbox_rejected;
  /// Pushes abandoned because their deadline expired while waiting.
  Counter mailbox_deadline_exceeded;
  /// Tasks currently queued; Peak() is the high-water mark.
  Gauge queue_depth;
  /// Wall time of each task executed on the shard, nanoseconds.
  LatencyHistogram apply_ns;
  /// Submission (ticket issue) to completion, nanoseconds — includes any
  /// backpressure wait and queueing delay.
  LatencyHistogram ingest_latency_ns;
};

/// Per-stream instruments, attributed to the stream's pinned shard.
struct StreamMetrics {
  /// Pinned shard index (0 for the inline service). Written at registration
  /// under the registry lock; snapshot-read under the same lock.
  int shard = 0;
  Counter tuples_ingested;
  Counter batches_applied;
  Counter admission_rejects;
  Counter quarantines;
  Counter recoveries;
  Counter journal_appends;
  Counter journal_bytes;
  Counter journal_rotations;
  Counter checkpoint_writes;
  Counter checkpoint_bytes;
  /// Robust-mode tallies (losses/outlier_store.h): arrivals that diverted
  /// mass into the sparse outlier structure S, and entries displaced from a
  /// full S. Both stay 0 when robust mode is off.
  Counter outlier_captures;
  Counter outlier_evictions;
  /// Write-ahead append latency (includes per-record fsync when the journal
  /// is configured with sync_each_record), nanoseconds.
  LatencyHistogram journal_append_ns;
  /// Full checkpoint write: serialize + write + fsync + rename, nanoseconds.
  LatencyHistogram checkpoint_write_ns;
  /// Wall time of each applied mutation on streams running a generalized
  /// (non-Gaussian) loss or robust mode, nanoseconds — the per-loss update
  /// cost next to the shard-wide apply_ns.
  LatencyHistogram loss_update_ns;
};

/// Point-in-time copy of one shard domain.
struct ShardMetricsSnapshot {
  int shard = 0;
  uint64_t tasks_executed = 0;
  uint64_t mailbox_pushes = 0;
  uint64_t mailbox_blocked = 0;
  uint64_t mailbox_rejected = 0;
  uint64_t mailbox_deadline_exceeded = 0;
  int64_t queue_depth = 0;
  int64_t queue_depth_peak = 0;
  HistogramSnapshot apply_ns;
  HistogramSnapshot ingest_latency_ns;
};

/// Point-in-time copy of one stream domain. Also the payload of the periodic
/// EventSink::OnMetrics callback.
struct StreamMetricsSnapshot {
  std::string name;
  int shard = 0;
  uint64_t tuples_ingested = 0;
  uint64_t batches_applied = 0;
  uint64_t admission_rejects = 0;
  uint64_t quarantines = 0;
  uint64_t recoveries = 0;
  uint64_t journal_appends = 0;
  uint64_t journal_bytes = 0;
  uint64_t journal_rotations = 0;
  uint64_t checkpoint_writes = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t outlier_captures = 0;
  uint64_t outlier_evictions = 0;
  HistogramSnapshot journal_append_ns;
  HistogramSnapshot checkpoint_write_ns;
  HistogramSnapshot loss_update_ns;
};

/// The full service view: every shard, every stream (sorted by name), plus
/// the cross-shard merges of the two hot-path histograms.
struct ServiceMetricsSnapshot {
  std::vector<ShardMetricsSnapshot> shards;
  std::vector<StreamMetricsSnapshot> streams;
  /// ingest_latency_ns merged across all shards.
  HistogramSnapshot ingest_latency_ns;
  /// apply_ns merged across all shards.
  HistogramSnapshot apply_ns;
};

class MetricsRegistry {
 public:
  /// Creates `num_shards` shard domains (>= 1; the inline service uses one).
  explicit MetricsRegistry(int num_shards);

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Stable pointer; valid for the registry's lifetime.
  ShardMetrics& shard(int index) { return *shards_[index]; }

  /// Returns the stream's domain, creating it on first registration. The
  /// pointer is stable for the registry's lifetime; re-registering an
  /// existing name reuses the domain (tallies survive stream re-creation)
  /// and re-pins its shard.
  StreamMetrics* RegisterStream(std::string_view name, int shard);

  /// Copies every domain. Consistent per-instrument, relaxed across
  /// instruments; see the file comment.
  ServiceMetricsSnapshot Snapshot() const;

 private:
  std::vector<std::unique_ptr<ShardMetrics>> shards_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<StreamMetrics>, std::less<>> streams_;
};

}  // namespace telemetry
}  // namespace sns

#endif  // SLICENSTITCH_TELEMETRY_METRICS_REGISTRY_H_
