// ServiceOptions — configuration of the SnsService runtime: how many worker
// shards execute stream operations, and what happens when a shard's mailbox
// is full.
//
// The default (shards = 0) runs the service on a caller-runs executor: no
// threads and no mailboxes, so every entry point executes synchronously on
// the caller's thread through the same submission path as the sharded
// service. With shards >= 1 the service spawns that many worker threads;
// each stream is pinned to one shard at creation and every operation on it
// runs there, so per-stream order — and therefore factor state — is bitwise
// identical to the inline path.

#ifndef SLICENSTITCH_API_SERVICE_OPTIONS_H_
#define SLICENSTITCH_API_SERVICE_OPTIONS_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace sns {

/// What a producer experiences when the owning shard's mailbox is full.
enum class BackpressurePolicy {
  /// Block the producer until the shard makes room. Lossless; the natural
  /// choice when producers can afford to slow down to the shard's pace.
  kBlock,
  /// Refuse the operation: the returned Ticket completes immediately with
  /// StatusCode::kResourceExhausted and nothing is enqueued. Lossy but
  /// non-blocking; the caller decides whether to retry, shed, or spill.
  kReject,
};

/// Telemetry configuration (src/telemetry/). The layer is always compiled
/// in; `enabled` decides whether the service allocates metric domains and
/// the instrumentation sites record into them. Disabled, every site costs a
/// single null-pointer test.
struct MetricsOptions {
  /// Master switch: allocate the MetricsRegistry and record metrics.
  bool enabled = false;

  /// Interval of the periodic exporter thread, milliseconds. 0 (default)
  /// disables it; > 0 requires `enabled` and makes the service deliver an
  /// OnMetrics event to every stream's sinks each interval (and write a
  /// JSON line when json_path is set).
  int64_t export_interval_ms = 0;

  /// Path of a JSON-lines capture file, truncated at service creation and
  /// appended each export interval. Empty (default) disables the file;
  /// non-empty requires export_interval_ms > 0.
  std::string json_path;
};

/// Runtime configuration of an SnsService.
struct ServiceOptions {
  /// Worker shards executing stream operations. 0 = the caller-runs
  /// executor: synchronous execution on the caller's thread, no runtime
  /// threads at all, and no queue for backpressure to act on.
  int shards = 0;

  /// Policy when an owning shard's mailbox is at max_queue_depth (moot at
  /// shards = 0).
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;

  /// Per-shard mailbox capacity, counted in tasks (one ingest batch, one
  /// advance, or one query hop each — never per tuple).
  int64_t max_queue_depth = 1024;

  /// Telemetry: metric recording and periodic export. Off by default.
  MetricsOptions metrics;

  /// Validates ranges; returned by SnsService::Create on failure.
  Status Validate() const;
};

/// Short display name, e.g. "block", "reject". SNS_CHECK-fails on values
/// outside the enum.
const char* BackpressurePolicyName(BackpressurePolicy policy);

}  // namespace sns

#endif  // SLICENSTITCH_API_SERVICE_OPTIONS_H_
