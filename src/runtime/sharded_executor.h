// ShardedExecutor — a fixed pool of worker shards with pinned stream
// assignment.
//
// The executor owns S WorkerShards. Streams are assigned a shard once, at
// registration (round-robin for balance), and keep it for life: pinning is
// what turns shard-local FIFO execution into a per-stream total order, and
// therefore into factor state bitwise identical to synchronous execution.
//
// S = 0 is the caller-runs executor: no threads and no mailboxes. Submit
// runs the task on the calling thread before it returns, so the submission
// order is the execution order with no queue in between. Every stream is
// assigned shard 0, there is no backpressure or deadline to honour, and
// Drain is a no-op. The task runs through the same instrumented step as a
// shard's (RunTask), recording into shard domain 0.
//
// Lifecycle: Drain() flushes every mailbox (all accepted tasks executed);
// Shutdown() drains, closes the mailboxes, and joins the threads. The
// executor is heap-allocated by SnsService so the service stays movable
// while shard threads hold stable pointers into the runtime.

#ifndef SLICENSTITCH_RUNTIME_SHARDED_EXECUTOR_H_
#define SLICENSTITCH_RUNTIME_SHARDED_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/check.h"
#include "runtime/mailbox.h"
#include "runtime/task.h"
#include "runtime/worker_shard.h"
#include "telemetry/metrics_registry.h"

namespace sns {

class ShardedExecutor {
 public:
  /// Spawns `num_shards` worker threads, each behind a mailbox bounded at
  /// `queue_capacity` tasks; `num_shards` = 0 builds the caller-runs
  /// executor. `metrics`, when non-null, must expose at least
  /// max(1, `num_shards`) shard domains (outliving the executor); shard i
  /// records into metrics->shard(i), the caller-runs executor into
  /// metrics->shard(0). Null disables instrumentation.
  ShardedExecutor(int num_shards, int64_t queue_capacity,
                  telemetry::MetricsRegistry* metrics = nullptr);

  /// Joins all shard threads (Shutdown() if the owner did not call it).
  ~ShardedExecutor();

  ShardedExecutor(const ShardedExecutor&) = delete;
  ShardedExecutor& operator=(const ShardedExecutor&) = delete;

  /// Worker threads; 0 for the caller-runs executor.
  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Picks the shard for a newly registered stream: round-robin over the
  /// pool, so K streams spread evenly across S shards (always 0 when
  /// caller-runs). The assignment is permanent for the stream's lifetime.
  int AssignShard() {
    if (shards_.empty()) return 0;
    const int shard = next_shard_;
    next_shard_ = (next_shard_ + 1) % num_shards();
    return shard;
  }

  /// Enqueues a task onto one shard. Semantics of `block`, `deadline`, and
  /// the result are Mailbox::Push's. Caller-runs, the task instead runs
  /// here, with no lock held, and the result is kOk — or kClosed after
  /// Shutdown, without running it; `block` and `deadline` are moot.
  Mailbox::PushResult Submit(
      int shard, Task task, bool block,
      std::optional<Mailbox::Deadline> deadline = std::nullopt) {
    if (shards_.empty()) {
      SNS_CHECK(shard == 0);
      if (closed_.load(std::memory_order_acquire)) {
        return Mailbox::PushResult::kClosed;
      }
      RunTask(task, caller_metrics_);
      return Mailbox::PushResult::kOk;
    }
    SNS_CHECK(shard >= 0 && shard < num_shards());
    return shards_[static_cast<size_t>(shard)]->Submit(std::move(task), block,
                                                       deadline);
  }

  /// Blocks until every accepted task on every shard has executed.
  void Drain() const;

  /// Blocks until every accepted task on one shard has executed.
  void DrainShard(int shard) const {
    if (shards_.empty()) return;
    SNS_CHECK(shard >= 0 && shard < num_shards());
    shards_[static_cast<size_t>(shard)]->Drain();
  }

  /// Drains, stops accepting work, and joins every shard thread.
  /// Idempotent; after Shutdown, Submit returns kClosed.
  void Shutdown();

 private:
  std::vector<std::unique_ptr<WorkerShard>> shards_;
  int next_shard_ = 0;  // Guarded by the service's registry lock.
  /// Caller-runs only: the domain RunTask records into (null when off).
  telemetry::ShardMetrics* caller_metrics_ = nullptr;
  std::atomic<bool> closed_{false};  // Caller-runs Submit's shutdown fence.
};

}  // namespace sns

#endif  // SLICENSTITCH_RUNTIME_SHARDED_EXECUTOR_H_
