#include "runtime/sharded_executor.h"

#include <algorithm>

namespace sns {

ShardedExecutor::ShardedExecutor(int num_shards, int64_t queue_capacity,
                                 telemetry::MetricsRegistry* metrics) {
  SNS_CHECK(num_shards >= 0);
  SNS_CHECK(metrics == nullptr ||
            metrics->num_shards() >= std::max(1, num_shards));
  SNS_CHECK(queue_capacity >= 1);
  if (num_shards == 0 && metrics != nullptr) {
    caller_metrics_ = &metrics->shard(0);
  }
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<WorkerShard>(
        i, queue_capacity, metrics != nullptr ? &metrics->shard(i) : nullptr));
  }
}

ShardedExecutor::~ShardedExecutor() { Shutdown(); }

void ShardedExecutor::Drain() const {
  for (const auto& shard : shards_) shard->Drain();
}

void ShardedExecutor::Shutdown() {
  closed_.store(true, std::memory_order_release);
  // Flush accepted work before closing so in-flight tickets complete with
  // their real status rather than being abandoned.
  Drain();
  for (auto& shard : shards_) shard->Shutdown();
}

}  // namespace sns
