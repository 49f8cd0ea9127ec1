#include "telemetry/metrics_registry.h"

namespace sns {
namespace telemetry {

MetricsRegistry::MetricsRegistry(int num_shards) {
  if (num_shards < 1) num_shards = 1;
  shards_.reserve(static_cast<std::size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<ShardMetrics>());
  }
}

StreamMetrics* MetricsRegistry::RegisterStream(std::string_view name,
                                               int shard) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(name);
  if (it == streams_.end()) {
    it = streams_.emplace(std::string(name), std::make_unique<StreamMetrics>())
             .first;
  }
  it->second->shard = shard;
  return it->second.get();
}

ServiceMetricsSnapshot MetricsRegistry::Snapshot() const {
  ServiceMetricsSnapshot snap;
  snap.shards.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const ShardMetrics& s = *shards_[i];
    ShardMetricsSnapshot out;
    out.shard = static_cast<int>(i);
    out.tasks_executed = s.tasks_executed.Get();
    out.mailbox_pushes = s.mailbox_pushes.Get();
    out.mailbox_blocked = s.mailbox_blocked.Get();
    out.mailbox_rejected = s.mailbox_rejected.Get();
    out.mailbox_deadline_exceeded = s.mailbox_deadline_exceeded.Get();
    out.queue_depth = s.queue_depth.Get();
    out.queue_depth_peak = s.queue_depth.Peak();
    out.apply_ns = s.apply_ns.Snapshot();
    out.ingest_latency_ns = s.ingest_latency_ns.Snapshot();
    snap.ingest_latency_ns.Merge(out.ingest_latency_ns);
    snap.apply_ns.Merge(out.apply_ns);
    snap.shards.push_back(std::move(out));
  }
  std::lock_guard<std::mutex> lock(mu_);
  snap.streams.reserve(streams_.size());
  for (const auto& [name, metrics] : streams_) {
    StreamMetricsSnapshot out;
    out.name = name;
    out.shard = metrics->shard;
    out.tuples_ingested = metrics->tuples_ingested.Get();
    out.batches_applied = metrics->batches_applied.Get();
    out.admission_rejects = metrics->admission_rejects.Get();
    out.quarantines = metrics->quarantines.Get();
    out.recoveries = metrics->recoveries.Get();
    out.journal_appends = metrics->journal_appends.Get();
    out.journal_bytes = metrics->journal_bytes.Get();
    out.journal_rotations = metrics->journal_rotations.Get();
    out.checkpoint_writes = metrics->checkpoint_writes.Get();
    out.checkpoint_bytes = metrics->checkpoint_bytes.Get();
    out.outlier_captures = metrics->outlier_captures.Get();
    out.outlier_evictions = metrics->outlier_evictions.Get();
    out.journal_append_ns = metrics->journal_append_ns.Snapshot();
    out.checkpoint_write_ns = metrics->checkpoint_write_ns.Snapshot();
    out.loss_update_ns = metrics->loss_update_ns.Snapshot();
    snap.streams.push_back(std::move(out));
  }
  return snap;
}

}  // namespace telemetry
}  // namespace sns
