// Coverage of the asynchronous sharded service runtime: mailbox semantics,
// completion tickets, multi-threaded producers under both backpressure
// policies, sequence-token query consistency, the drain/shutdown lifecycle,
// and the differential guarantee that factor state after N events is
// bitwise identical between synchronous (shards = 0) and sharded
// (shards >= 1) execution. This file is the one the ThreadSanitizer CI job
// runs — every cross-thread handoff in src/runtime/ is exercised here.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "slicenstitch.h"

namespace sns {
namespace {

ContinuousCpdOptions SmallEngineOptions() {
  ContinuousCpdOptions options;
  options.rank = 4;
  options.window_size = 3;
  options.period = 30;
  options.variant = SnsVariant::kRndPlus;
  options.sample_threshold = 10;
  options.clip_bound = 1000.0;
  return options;
}

DataStream SmallStream(int64_t num_events, uint64_t seed) {
  SyntheticStreamConfig config;
  config.mode_dims = {6, 5};
  config.num_events = num_events;
  config.time_span = 6 * 3 * 30;
  config.diurnal_period = 90;
  config.seed = seed;
  auto stream = GenerateSyntheticStream(config);
  SNS_CHECK(stream.ok());
  return std::move(stream).value();
}

/// Splits a stream at the warm-up boundary W·T.
std::pair<std::span<const Tuple>, std::span<const Tuple>> SplitWarmup(
    const DataStream& stream, const ContinuousCpdOptions& options) {
  const std::span<const Tuple> tuples(stream.tuples());
  const int64_t warmup_end =
      static_cast<int64_t>(options.window_size) * options.period;
  const size_t i =
      static_cast<size_t>(stream.CountTuplesThrough(warmup_end));
  return {tuples.subspan(0, i), tuples.subspan(i)};
}

// --- Runtime primitives ---------------------------------------------------

TEST(MailboxTest, FifoOrderAndCapacity) {
  Mailbox mailbox(2);
  std::vector<int> ran;
  EXPECT_EQ(mailbox.Push([&] { ran.push_back(1); }, /*block=*/false),
            Mailbox::PushResult::kOk);
  EXPECT_EQ(mailbox.Push([&] { ran.push_back(2); }, /*block=*/false),
            Mailbox::PushResult::kOk);
  // At capacity: a non-blocking push is refused without enqueueing.
  EXPECT_EQ(mailbox.Push([&] { ran.push_back(3); }, /*block=*/false),
            Mailbox::PushResult::kFull);
  EXPECT_EQ(mailbox.size(), 2);

  Task task;
  ASSERT_TRUE(mailbox.Pop(task));
  task();
  mailbox.TaskDone();
  ASSERT_TRUE(mailbox.Pop(task));
  task();
  mailbox.TaskDone();
  EXPECT_EQ(ran, (std::vector<int>{1, 2}));  // FIFO.

  mailbox.WaitIdle();  // Quiescent: returns immediately.
  mailbox.Close();
  EXPECT_EQ(mailbox.Push([] {}, /*block=*/true),
            Mailbox::PushResult::kClosed);
  EXPECT_FALSE(mailbox.Pop(task));  // Closed and drained.
}

TEST(MailboxTest, BlockingPushWaitsForRoom) {
  Mailbox mailbox(1);
  ASSERT_EQ(mailbox.Push([] {}, /*block=*/false), Mailbox::PushResult::kOk);

  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    // Full mailbox: this push must block until the consumer pops.
    EXPECT_EQ(mailbox.Push([] {}, /*block=*/true), Mailbox::PushResult::kOk);
    pushed.store(true);
  });

  Task task;
  ASSERT_TRUE(mailbox.Pop(task));
  task();
  mailbox.TaskDone();
  producer.join();
  EXPECT_TRUE(pushed.load());
  ASSERT_TRUE(mailbox.Pop(task));
  task();
  mailbox.TaskDone();
  mailbox.WaitIdle();
  mailbox.Close();
}

TEST(TicketTest, CompletedAndEmptyTickets) {
  const Ticket empty;
  EXPECT_FALSE(empty.valid());

  const Ticket done = Ticket::Completed(Status::ResourceExhausted("full"));
  EXPECT_TRUE(done.valid());
  EXPECT_TRUE(done.done());
  EXPECT_EQ(done.Wait().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(done.sequence(), 0u);  // Never enqueued.
}

// --- Caller-runs executor (shards = 0) ------------------------------------

TEST(CallerRunsExecutorTest, RunsEachTaskOnTheCallerBeforeSubmitReturns) {
  ShardedExecutor executor(0, /*queue_capacity=*/1);
  EXPECT_EQ(executor.num_shards(), 0);
  EXPECT_EQ(executor.AssignShard(), 0);
  EXPECT_EQ(executor.AssignShard(), 0);

  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  std::vector<int> order;
  ASSERT_EQ(executor.Submit(0,
                            [&] {
                              ran_on = std::this_thread::get_id();
                              order.push_back(1);
                            },
                            /*block=*/false),
            Mailbox::PushResult::kOk);
  EXPECT_EQ(ran_on, caller);
  EXPECT_EQ(order, (std::vector<int>{1}));  // Ran before Submit returned.

  // No lock is held while a task runs: it may submit again, and the inner
  // task runs to completion inside the outer one.
  ASSERT_EQ(executor.Submit(0,
                            [&] {
                              order.push_back(2);
                              EXPECT_EQ(executor.Submit(
                                            0, [&] { order.push_back(3); },
                                            /*block=*/true),
                                        Mailbox::PushResult::kOk);
                              order.push_back(4);
                            },
                            /*block=*/true),
            Mailbox::PushResult::kOk);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));

  executor.Drain();  // Nothing queued anywhere: returns immediately.
  executor.DrainShard(0);
}

TEST(CallerRunsExecutorTest, HasNoMailboxSoFailpointAndDeadlineNeverFire) {
  failpoint::DisarmAll();
  ASSERT_TRUE(failpoint::Arm("mailbox.push", "after:0").ok());
  Mailbox probe(1);  // The armed failpoint wedges every real mailbox.
  ASSERT_EQ(probe.Push([] {}, /*block=*/false), Mailbox::PushResult::kFull);
  ShardedExecutor executor(0, /*queue_capacity=*/1);
  int ran = 0;
  // A capacity of one is never "full" either: nothing queues.
  EXPECT_EQ(executor.Submit(0, [&] { ++ran; }, /*block=*/false),
            Mailbox::PushResult::kOk);
  EXPECT_EQ(executor.Submit(0, [&] { ++ran; }, /*block=*/false),
            Mailbox::PushResult::kOk);
  const Mailbox::Deadline past =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  EXPECT_EQ(executor.Submit(0, [&] { ++ran; }, /*block=*/true, past),
            Mailbox::PushResult::kOk);
  EXPECT_EQ(ran, 3);
  failpoint::DisarmAll();
}

TEST(CallerRunsExecutorTest, ShutdownClosesAndDomainZeroCountsTasks) {
  telemetry::MetricsRegistry metrics(1);
  ShardedExecutor executor(0, /*queue_capacity=*/1, &metrics);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(executor.Submit(0, [] {}, /*block=*/false),
              Mailbox::PushResult::kOk);
  }
  EXPECT_EQ(metrics.shard(0).tasks_executed.Get(), 3u);
  EXPECT_EQ(metrics.shard(0).apply_ns.Snapshot().count, 3u);
  EXPECT_EQ(metrics.shard(0).mailbox_pushes.Get(), 0u);  // No mailbox.

  executor.Shutdown();
  executor.Shutdown();  // Idempotent.
  bool ran = false;
  EXPECT_EQ(executor.Submit(0, [&] { ran = true; }, /*block=*/true),
            Mailbox::PushResult::kClosed);
  EXPECT_FALSE(ran);
  EXPECT_EQ(metrics.shard(0).tasks_executed.Get(), 3u);
}

TEST(ServiceOptionsTest, ValidateAndPolicyNames) {
  ServiceOptions options;
  EXPECT_TRUE(options.Validate().ok());  // shards = 0 inline default.
  options.shards = -1;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.shards = 2;
  options.max_queue_depth = 0;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(SnsService::Create(options).ok());
  options.max_queue_depth = 8;
  EXPECT_TRUE(SnsService::Create(options).ok());

  EXPECT_STREQ(BackpressurePolicyName(BackpressurePolicy::kBlock), "block");
  EXPECT_STREQ(BackpressurePolicyName(BackpressurePolicy::kReject),
               "reject");
}

// --- The ticketed surface at shards = 0 (inline degenerate case) ----------

TEST(RuntimeTest, InlineServiceRunsTicketedSurfaceSynchronously) {
  SnsService service;  // shards = 0.
  EXPECT_EQ(service.shards(), 0);
  ASSERT_TRUE(
      service.CreateStream("s", {4, 4}, SmallEngineOptions()).ok());
  ASSERT_TRUE(
      service.Warmup("s", std::vector<Tuple>{{{1, 1}, 1.0, 10}}).ok());
  ASSERT_TRUE(service.Initialize("s").ok());

  // Warmup + Initialize were ticketed ops too (sequence 1 and 2).
  const uint64_t base = service.AppliedSequence("s").value();
  EXPECT_EQ(base, 2u);

  const Ticket first =
      service.IngestAsync("s", std::vector<Tuple>{{{2, 2}, 1.0, 95}});
  ASSERT_TRUE(first.valid());
  EXPECT_TRUE(first.done());  // Inline: applied before the call returned.
  EXPECT_TRUE(first.Wait().ok());
  EXPECT_EQ(first.sequence(), base + 1);

  const Ticket second = service.AdvanceToAsync("s", 120);
  EXPECT_TRUE(second.done());
  EXPECT_TRUE(second.Wait().ok());
  EXPECT_EQ(second.sequence(), base + 2);
  EXPECT_EQ(service.AppliedSequence("s").value(), base + 2);

  // Unknown streams complete immediately with NotFound, consuming no seq.
  const Ticket unknown = service.IngestAsync("x", std::vector<Tuple>{});
  EXPECT_TRUE(unknown.done());
  EXPECT_EQ(unknown.Wait().code(), StatusCode::kNotFound);
  EXPECT_EQ(unknown.sequence(), 0u);

  // Shutdown fences mutations exactly like the sharded configuration;
  // queries keep answering. Drain stays a no-op.
  service.Drain();
  service.Shutdown();
  const Ticket refused =
      service.IngestAsync("s", std::vector<Tuple>{{{3, 3}, 1.0, 130}});
  ASSERT_TRUE(refused.done());
  EXPECT_EQ(refused.Wait().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(refused.sequence(), 0u);
  EXPECT_EQ(service.AdvanceTo("s", 140).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.Stats("s").value().last_time, 120);
}

// --- Validation errors travel through tickets -----------------------------

TEST(RuntimeTest, AsyncValidationErrorsCarriedByTickets) {
  ServiceOptions runtime;
  runtime.shards = 1;
  SnsService service(runtime);
  ASSERT_TRUE(
      service.CreateStream("s", {4, 4}, SmallEngineOptions()).ok());

  // Live ingestion before Initialize fails — at application time, on the
  // shard, with the status surfaced through the ticket.
  const Ticket early =
      service.IngestAsync("s", std::vector<Tuple>{{{1, 1}, 1.0, 5}});
  EXPECT_EQ(early.Wait().code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(
      service.Warmup("s", std::vector<Tuple>{{{1, 1}, 1.0, 10}}).ok());
  ASSERT_TRUE(service.Initialize("s").ok());

  // An out-of-range coordinate is hostile input: admission control refuses
  // it before a token is issued (kInvalidArgument, nothing enqueued).
  const Ticket bad_range =
      service.IngestAsync("s", std::vector<Tuple>{{{9, 1}, 1.0, 95}});
  EXPECT_EQ(bad_range.Wait().code(), StatusCode::kInvalidArgument);
  // The failed batches were atomic no-ops: a good batch still applies.
  EXPECT_TRUE(service
                  .IngestAsync("s", std::vector<Tuple>{{{2, 2}, 1.0, 95}})
                  .Wait()
                  .ok());
  EXPECT_EQ(service.Stats("s").value().last_time, 95);
}

// --- Multi-threaded producers into one stream under kBlock ----------------

TEST(RuntimeTest, MultiProducerSingleStreamBlockingBackpressure) {
  constexpr int kProducers = 4;
  constexpr int kBatchesPerProducer = 64;

  ServiceOptions runtime;
  runtime.shards = 1;
  runtime.backpressure = BackpressurePolicy::kBlock;
  runtime.max_queue_depth = 4;  // Tiny queue: pushes really do block.
  SnsService service(runtime);
  ASSERT_TRUE(
      service.CreateStream("s", {4, 4}, SmallEngineOptions()).ok());
  ASSERT_TRUE(
      service.Warmup("s", std::vector<Tuple>{{{1, 1}, 1.0, 10}}).ok());
  ASSERT_TRUE(service.Initialize("s").ok());
  // Prime the clock to the storm's timestamp so the slide/expiry events of
  // the 10 → 100 jump land here, and the storm itself is pure arrivals.
  ASSERT_TRUE(service.Ingest("s", Tuple{{0, 0}, 1.0, 100}).ok());
  const int64_t base_events = service.Stats("s").value().events_processed;
  const uint64_t base_seq = service.AppliedSequence("s").value();

  // All producers ingest at one constant timestamp, so every interleaving
  // is chronologically valid and every ticket must succeed.
  std::vector<std::vector<Ticket>> tickets(kProducers);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&service, &tickets, p] {
      for (int b = 0; b < kBatchesPerProducer; ++b) {
        tickets[static_cast<size_t>(p)].push_back(service.IngestAsync(
            "s", std::vector<Tuple>{
                     {{p % 4, b % 4}, 1.0, 100}}));
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  service.Drain();

  std::vector<uint64_t> sequences;
  for (const auto& produced : tickets) {
    for (const Ticket& ticket : produced) {
      ASSERT_TRUE(ticket.done());  // Drained with producers paused.
      EXPECT_TRUE(ticket.Wait().ok()) << ticket.Wait().ToString();
      sequences.push_back(ticket.sequence());
    }
  }
  // Sequence tokens are exactly base+1..base+N: every accepted operation
  // got a unique slot in the stream's total order.
  std::sort(sequences.begin(), sequences.end());
  ASSERT_EQ(sequences.size(),
            static_cast<size_t>(kProducers * kBatchesPerProducer));
  for (size_t i = 0; i < sequences.size(); ++i) {
    EXPECT_EQ(sequences[i], base_seq + i + 1);
  }
  EXPECT_EQ(service.AppliedSequence("s").value(), sequences.back());
  // Nothing was lost: one arrival event per single-tuple batch (and no
  // slides — the whole storm shares one timestamp).
  EXPECT_EQ(service.Stats("s").value().events_processed,
            base_events +
                static_cast<int64_t>(kProducers * kBatchesPerProducer));
}

// --- kReject observable via ticket status ---------------------------------

TEST(RuntimeTest, RejectBackpressureObservableViaTicketStatus) {
  ServiceOptions runtime;
  runtime.shards = 1;
  runtime.backpressure = BackpressurePolicy::kReject;
  runtime.max_queue_depth = 1;
  SnsService service(runtime);
  ASSERT_TRUE(
      service.CreateStream("s", {4, 4}, SmallEngineOptions()).ok());
  ASSERT_TRUE(
      service.Warmup("s", std::vector<Tuple>{{{1, 1}, 1.0, 10}}).ok());
  ASSERT_TRUE(service.Initialize("s").ok());
  // Prime the clock to the test's timestamp so the accepted batch below is
  // exactly one arrival event on top of this baseline.
  ASSERT_TRUE(service.Ingest("s", Tuple{{1, 2}, 1.0, 95}).ok());
  const int64_t base_events = service.Stats("s").value().events_processed;
  const uint64_t base_seq = service.AppliedSequence("s").value();

  // Wedge the shard: a query hop whose callback blocks until released, run
  // from a helper thread (the hop itself is a blocking request/reply).
  std::promise<void> entered;
  std::promise<void> release;
  std::future<void> release_future = release.get_future();
  std::thread blocker([&] {
    const StatusOr<int> hop =
        service.Query("s", [&](const StreamHandle&) {
          entered.set_value();
          release_future.wait();
          return 1;
        });
    EXPECT_TRUE(hop.ok());
  });
  entered.get_future().wait();  // The shard is now busy, its queue empty.

  // First batch occupies the single queue slot; the second is refused
  // immediately — no blocking — with the rejection visible on the ticket.
  const Ticket accepted =
      service.IngestAsync("s", std::vector<Tuple>{{{2, 2}, 1.0, 95}});
  EXPECT_FALSE(accepted.done());
  const Ticket rejected =
      service.IngestAsync("s", std::vector<Tuple>{{{3, 3}, 1.0, 95}});
  ASSERT_TRUE(rejected.done());
  EXPECT_EQ(rejected.Wait().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(rejected.sequence(), 0u);  // Never entered the stream's order.

  release.set_value();
  blocker.join();
  service.Drain();
  EXPECT_TRUE(accepted.Wait().ok());
  EXPECT_EQ(accepted.sequence(), base_seq + 1);
  // Only the accepted batch was applied; the next ingest takes the very
  // next sequence — the rejected operation left no hole in the order.
  EXPECT_EQ(service.Stats("s").value().events_processed, base_events + 1);
  const Ticket next =
      service.IngestAsync("s", std::vector<Tuple>{{{1, 2}, 1.0, 95}});
  EXPECT_TRUE(next.Wait().ok());
  EXPECT_EQ(next.sequence(), base_seq + 2);
}

// --- Query-after-ticket consistency ---------------------------------------

TEST(RuntimeTest, QueriesObserveEveryTicketIssuedBeforeThem) {
  ServiceOptions runtime;
  runtime.shards = 2;
  SnsService service(runtime);
  const ContinuousCpdOptions options = SmallEngineOptions();
  const DataStream stream = SmallStream(500, 11);
  const auto [warm, live] = SplitWarmup(stream, options);
  ASSERT_TRUE(service.CreateStream("s", {6, 5}, options).ok());
  ASSERT_TRUE(service.Warmup("s", warm).ok());
  ASSERT_TRUE(service.Initialize("s").ok());

  // Issue a ticket, then query WITHOUT waiting on it: the query rides the
  // same FIFO mailbox, so it must observe the batch the ticket covers.
  size_t i = 0;
  uint64_t last_sequence = 0;
  while (i < live.size()) {
    const size_t n = std::min<size_t>(17, live.size() - i);
    const std::span<const Tuple> batch = live.subspan(i, n);
    const Ticket ticket = service.IngestAsync("s", batch);
    const StreamStats stats = service.Stats("s").value();
    EXPECT_GE(stats.last_time, batch.back().time);
    // The ticket's operation executed before the query hop returned.
    EXPECT_TRUE(ticket.done());
    EXPECT_TRUE(ticket.Wait().ok());
    EXPECT_GE(service.AppliedSequence("s").value(), ticket.sequence());
    last_sequence = ticket.sequence();
    i += n;
  }
  EXPECT_EQ(last_sequence, service.AppliedSequence("s").value());
}

// --- Drain / Shutdown lifecycle -------------------------------------------

TEST(RuntimeTest, DrainFlushesAndShutdownStopsMutations) {
  ServiceOptions runtime;
  runtime.shards = 2;
  SnsService service(runtime);
  const ContinuousCpdOptions options = SmallEngineOptions();
  const DataStream stream = SmallStream(300, 12);
  const auto [warm, live] = SplitWarmup(stream, options);
  for (const char* name : {"a", "b", "c"}) {
    ASSERT_TRUE(service.CreateStream(name, {6, 5}, options).ok());
    ASSERT_TRUE(service.Warmup(name, warm).ok());
    ASSERT_TRUE(service.Initialize(name).ok());
  }

  std::vector<Ticket> tickets;
  for (const char* name : {"a", "b", "c"}) {
    for (size_t i = 0; i < live.size(); i += 50) {
      tickets.push_back(service.IngestAsync(
          name, live.subspan(i, std::min<size_t>(50, live.size() - i))));
    }
  }
  service.Drain();
  for (const Ticket& ticket : tickets) {
    ASSERT_TRUE(ticket.done());
    EXPECT_TRUE(ticket.Wait().ok());
  }

  service.Shutdown();
  // Mutations are refused from now on...
  const Ticket refused =
      service.IngestAsync("a", std::vector<Tuple>{{{1, 1}, 1.0, 9999}});
  ASSERT_TRUE(refused.done());
  EXPECT_EQ(refused.Wait().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.AdvanceTo("a", 9999).code(),
            StatusCode::kFailedPrecondition);
  // ...but queries still answer, executed inline (the threads are gone).
  const StreamStats stats = service.Stats("a").value();
  EXPECT_EQ(stats.last_time, stream.end_time());
  EXPECT_GT(stats.events_processed, 0);
  service.Shutdown();  // Idempotent.
  service.Drain();     // No-op after shutdown.
}

// --- Differential: sharded execution is bitwise identical to inline -------

/// Full factor state of one stream, read through a shard-safe query hop.
std::vector<double> FactorState(SnsService& service,
                                const std::string& name) {
  return service
      .Query(name,
             [](const StreamHandle& handle) {
               std::vector<double> out;
               for (int mode = 0; mode < handle.num_modes(); ++mode) {
                 const int64_t rows =
                     mode + 1 == handle.num_modes()
                         ? handle.window_size()
                         : handle.mode_dims()[static_cast<size_t>(mode)];
                 for (int64_t row = 0; row < rows; ++row) {
                   const FactorRowView view =
                       handle.FactorRow(mode, row).value();
                   out.insert(out.end(), view.begin(), view.end());
                 }
               }
               return out;
             })
      .value();
}

TEST(RuntimeTest, FactorStateBitwiseIdenticalAcrossShardCounts) {
  const ContinuousCpdOptions options = SmallEngineOptions();
  const std::vector<std::string> names = {"u", "v", "w"};
  std::vector<DataStream> streams;
  for (uint64_t seed = 21; seed < 24; ++seed) {
    streams.push_back(SmallStream(600, seed));
  }

  // The same three streams and the same interleaved batch schedule, run at
  // shards = 0 (inline), 1 (all streams one worker), and 4 (more shards
  // than streams). Per-stream event order is pinned by shard assignment,
  // so every factor value must match bitwise.
  std::vector<std::vector<std::vector<double>>> states;  // [config][stream]
  std::vector<std::vector<int64_t>> events;              // [config][stream]
  for (const int shards : {0, 1, 4}) {
    ServiceOptions runtime;
    runtime.shards = shards;
    SnsService service(runtime);
    std::vector<std::span<const Tuple>> lives;
    for (size_t s = 0; s < names.size(); ++s) {
      const auto [warm, live] = SplitWarmup(streams[s], options);
      ASSERT_TRUE(service.CreateStream(names[s], {6, 5}, options).ok());
      ASSERT_TRUE(service.Warmup(names[s], warm).ok());
      ASSERT_TRUE(service.Initialize(names[s]).ok());
      lives.push_back(live);
    }
    // Interleave: stream-round-robin batches of rotating sizes, async.
    std::vector<size_t> offsets(names.size(), 0);
    std::vector<Ticket> tickets;
    const size_t sizes[] = {1, 16, 7, 33};
    size_t next_size = 0;
    bool any = true;
    while (any) {
      any = false;
      for (size_t s = 0; s < names.size(); ++s) {
        if (offsets[s] >= lives[s].size()) continue;
        const size_t n = std::min(sizes[next_size++ % 4],
                                  lives[s].size() - offsets[s]);
        tickets.push_back(
            service.IngestAsync(names[s], lives[s].subspan(offsets[s], n)));
        offsets[s] += n;
        any = true;
      }
    }
    service.Drain();
    for (const Ticket& ticket : tickets) {
      ASSERT_TRUE(ticket.Wait().ok());
    }
    states.emplace_back();
    events.emplace_back();
    for (const std::string& name : names) {
      states.back().push_back(FactorState(service, name));
      events.back().push_back(
          service.Stats(name).value().events_processed);
    }
  }

  for (size_t config = 1; config < states.size(); ++config) {
    for (size_t s = 0; s < names.size(); ++s) {
      EXPECT_EQ(events[config][s], events[0][s]);
      ASSERT_EQ(states[config][s].size(), states[0][s].size());
      for (size_t i = 0; i < states[0][s].size(); ++i) {
        // Bitwise: identical event order + identical arithmetic.
        ASSERT_EQ(states[config][s][i], states[0][s][i])
            << "config " << config << " stream " << names[s] << " entry "
            << i;
      }
    }
  }
}

// --- Stream removal under a live runtime ----------------------------------

TEST(RuntimeTest, RemoveDrainsOwningShardFirst) {
  ServiceOptions runtime;
  runtime.shards = 2;
  SnsService service(runtime);
  ASSERT_TRUE(
      service.CreateStream("gone", {4, 4}, SmallEngineOptions()).ok());
  ASSERT_TRUE(
      service.Warmup("gone", std::vector<Tuple>{{{1, 1}, 1.0, 10}}).ok());
  ASSERT_TRUE(service.Initialize("gone").ok());
  std::vector<Ticket> tickets;
  for (int i = 0; i < 32; ++i) {
    tickets.push_back(service.IngestAsync(
        "gone", std::vector<Tuple>{{{i % 4, i % 4}, 1.0, 95 + i}}));
  }
  // Remove flushes the owning shard before destroying the handle — every
  // accepted ticket completes with its real status, none dangles.
  ASSERT_TRUE(service.Remove("gone").ok());
  for (const Ticket& ticket : tickets) {
    ASSERT_TRUE(ticket.done());
    EXPECT_TRUE(ticket.Wait().ok());
  }
  EXPECT_EQ(service.Ingest("gone", Tuple{{1, 1}, 1.0, 200}).code(),
            StatusCode::kNotFound);
}

// --- Ticket deadlines -----------------------------------------------------

TEST(DeadlineTest, MailboxBlockingPushHonorsDeadline) {
  Mailbox mailbox(1);
  ASSERT_EQ(mailbox.Push([] {}, /*block=*/false), Mailbox::PushResult::kOk);
  // Full queue, nobody draining: a deadline-bounded blocking push times out
  // instead of wedging the producer forever.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  EXPECT_EQ(mailbox.Push([] {}, /*block=*/true, deadline),
            Mailbox::PushResult::kTimedOut);
  EXPECT_EQ(mailbox.size(), 1);  // Nothing was enqueued.
}

TEST(DeadlineTest, TicketWaitForTimesOutWithoutCancelling) {
  ServiceOptions runtime;
  runtime.shards = 1;
  SnsService service(runtime);
  ASSERT_TRUE(
      service.CreateStream("s", {4, 4}, SmallEngineOptions()).ok());
  ASSERT_TRUE(
      service.Warmup("s", std::vector<Tuple>{{{1, 1}, 1.0, 10}}).ok());
  ASSERT_TRUE(service.Initialize("s").ok());

  // Wedge the shard so the enqueued ingest cannot complete yet.
  std::promise<void> entered;
  std::promise<void> release;
  std::future<void> release_future = release.get_future();
  std::thread blocker([&] {
    const StatusOr<int> hop = service.Query("s", [&](const StreamHandle&) {
      entered.set_value();
      release_future.wait();
      return 1;
    });
    EXPECT_TRUE(hop.ok());
  });
  entered.get_future().wait();

  const Ticket pending =
      service.IngestAsync("s", std::vector<Tuple>{{{2, 2}, 1.0, 95}});
  ASSERT_FALSE(pending.done());
  // A timed-out WaitFor reports kDeadlineExceeded but does NOT cancel the
  // operation — the accepted token is already part of the stream's order.
  EXPECT_EQ(pending.WaitFor(std::chrono::milliseconds(10)).code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(pending.done());

  release.set_value();
  blocker.join();
  EXPECT_TRUE(pending.Wait().ok());  // The op itself landed fine.
  EXPECT_TRUE(pending.WaitFor(std::chrono::milliseconds(1)).ok());
}

// The deadline acceptance test: a wedged shard with a full queue yields
// kDeadlineExceeded within the deadline bound — no token consumed, nothing
// enqueued — and the stream resumes uncorrupted once the wedge clears.
TEST(DeadlineTest, WedgedShardYieldsDeadlineExceededWithoutCorruption) {
  ServiceOptions runtime;
  runtime.shards = 1;
  runtime.backpressure = BackpressurePolicy::kBlock;
  runtime.max_queue_depth = 1;
  SnsService service(runtime);
  ASSERT_TRUE(
      service.CreateStream("s", {4, 4}, SmallEngineOptions()).ok());
  ASSERT_TRUE(
      service.Warmup("s", std::vector<Tuple>{{{1, 1}, 1.0, 10}}).ok());
  ASSERT_TRUE(service.Initialize("s").ok());
  ASSERT_TRUE(service.Ingest("s", Tuple{{1, 2}, 1.0, 95}).ok());
  const uint64_t base_seq = service.AppliedSequence("s").value();

  // Wedge the shard, then fill its single queue slot.
  std::promise<void> entered;
  std::promise<void> release;
  std::future<void> release_future = release.get_future();
  std::thread blocker([&] {
    const StatusOr<int> hop = service.Query("s", [&](const StreamHandle&) {
      entered.set_value();
      release_future.wait();
      return 1;
    });
    EXPECT_TRUE(hop.ok());
  });
  entered.get_future().wait();
  const Ticket accepted =
      service.IngestAsync("s", std::vector<Tuple>{{{2, 2}, 1.0, 96}});
  EXPECT_FALSE(accepted.done());

  // Under kBlock this push would wedge the producer with the shard; the
  // deadline bounds it. The refusal must arrive within (a generous
  // multiple of) the deadline, carry the typed code, and consume no token.
  const auto t0 = std::chrono::steady_clock::now();
  const Ticket timed_out = service.IngestAsync(
      "s", std::vector<Tuple>{{{3, 3}, 1.0, 97}},
      std::chrono::milliseconds(50));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(timed_out.done());
  EXPECT_EQ(timed_out.Wait().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(timed_out.sequence(), 0u);  // Never entered the stream's order.
  EXPECT_GE(elapsed, std::chrono::milliseconds(50));
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  // AdvanceToAsync honors the same bound.
  EXPECT_EQ(service
                .AdvanceToAsync("s", 98, std::chrono::milliseconds(10))
                .Wait()
                .code(),
            StatusCode::kDeadlineExceeded);

  // Unwedge: the accepted work lands, and the stream is uncorrupted — the
  // timed-out submissions left no gap in the token sequence.
  release.set_value();
  blocker.join();
  ASSERT_TRUE(accepted.Wait().ok());
  EXPECT_EQ(service.AppliedSequence("s").value(), base_seq + 1);
  EXPECT_TRUE(service
                  .IngestAsync("s", std::vector<Tuple>{{{3, 3}, 1.0, 99}},
                               std::chrono::milliseconds(1000))
                  .Wait()
                  .ok());
  EXPECT_EQ(service.Stats("s").value().last_time, 99);
}

TEST(DeadlineTest, DeadlineIrrelevantWhenTheShardKeepsUp) {
  ServiceOptions runtime;
  runtime.shards = 2;
  SnsService service(runtime);
  ASSERT_TRUE(
      service.CreateStream("s", {4, 4}, SmallEngineOptions()).ok());
  ASSERT_TRUE(
      service.Warmup("s", std::vector<Tuple>{{{1, 1}, 1.0, 10}}).ok());
  ASSERT_TRUE(service.Initialize("s").ok());
  std::vector<Ticket> tickets;
  for (int i = 0; i < 64; ++i) {
    tickets.push_back(service.IngestAsync(
        "s", std::vector<Tuple>{{{i % 4, i % 4}, 1.0, 95 + i}},
        std::chrono::milliseconds(5000)));
  }
  for (Ticket& ticket : tickets) EXPECT_TRUE(ticket.Wait().ok());
}

}  // namespace
}  // namespace sns
