// Compile-and-run coverage of the public surface: everything here works
// against "slicenstitch.h" alone — the service facade (SnsService /
// StreamHandle), its typed queries, batched ingestion, sink fan-out, and
// Status error paths.

#include "slicenstitch.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace sns {
namespace {

ContinuousCpdOptions SmallOptions() {
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

// --- Service lifecycle ----------------------------------------------------

TEST(SnsServiceTest, LifecycleCreateFindRemove) {
  SnsService service;
  EXPECT_TRUE(service.empty());

  auto created = service.CreateStream("taxi", {6, 5}, SmallOptions());
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(created.value()->name(), "taxi");
  EXPECT_EQ(service.stream_count(), 1);
  EXPECT_EQ(service.Find("taxi"), created.value());
  EXPECT_EQ(service.Find("unknown"), nullptr);

  // Duplicate names are rejected without touching the pool.
  auto duplicate = service.CreateStream("taxi", {9, 9}, SmallOptions());
  EXPECT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.stream_count(), 1);
  EXPECT_EQ(service.Find("taxi")->mode_dims(), (std::vector<int64_t>{6, 5}));

  // Invalid schema/options surface the engine's validation.
  EXPECT_FALSE(service.CreateStream("bad", {}, SmallOptions()).ok());
  ContinuousCpdOptions bad_options = SmallOptions();
  bad_options.rank = 0;
  EXPECT_FALSE(service.CreateStream("bad", {4, 4}, bad_options).ok());
  EXPECT_FALSE(service.CreateStream("", {4, 4}, SmallOptions()).ok());
  EXPECT_EQ(service.stream_count(), 1);

  ASSERT_TRUE(service.CreateStream("crime", {4, 4}, SmallOptions()).ok());
  EXPECT_EQ(service.StreamNames(),
            (std::vector<std::string>{"crime", "taxi"}));

  EXPECT_TRUE(service.Remove("taxi").ok());
  EXPECT_EQ(service.Remove("taxi").code(), StatusCode::kNotFound);
  EXPECT_EQ(service.stream_count(), 1);
}

TEST(SnsServiceTest, HandlePointersStableAcrossPoolMutation) {
  SnsService service;
  StreamHandle* first =
      service.CreateStream("a", {4, 4}, SmallOptions()).value();
  ASSERT_TRUE(first->Warmup(std::vector<Tuple>{{{1, 1}, 1.0, 3}}).ok());
  for (char name = 'b'; name <= 'j'; ++name) {
    ASSERT_TRUE(
        service.CreateStream(std::string(1, name), {4, 4}, SmallOptions())
            .ok());
  }
  ASSERT_TRUE(service.Remove("b").ok());
  // "a"'s handle survived nine inserts and a removal.
  EXPECT_EQ(service.Find("a"), first);
  EXPECT_EQ(first->Stats().window_nnz, 1);
}

TEST(SnsServiceTest, MoveKeepsHandlePointersValid) {
  // The header documents handle-address stability; pin it across service
  // moves: the registry lives behind a stable heap allocation, so moving
  // the service moves ownership, never the handles.
  SnsService original;
  StreamHandle* taxi =
      original.CreateStream("taxi", {6, 5}, SmallOptions()).value();
  StreamHandle* crime =
      original.CreateStream("crime", {4, 4}, SmallOptions()).value();
  ASSERT_TRUE(taxi->Warmup(std::vector<Tuple>{{{1, 1}, 2.0, 3}}).ok());

  SnsService moved(std::move(original));  // Move-construct.
  EXPECT_EQ(moved.Find("taxi"), taxi);
  EXPECT_EQ(moved.Find("crime"), crime);
  EXPECT_EQ(taxi->Stats().window_nnz, 1);  // State came along untouched.
  // The moved-from service degrades to a valid empty pool.
  EXPECT_TRUE(original.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(original.Find("taxi"), nullptr);

  SnsService assigned;
  ASSERT_TRUE(assigned.CreateStream("old", {4, 4}, SmallOptions()).ok());
  assigned = std::move(moved);  // Move-assign over an existing pool.
  EXPECT_EQ(assigned.Find("old"), nullptr);  // The old pool is gone...
  EXPECT_EQ(assigned.Find("taxi"), taxi);    // ...the moved one intact.
  EXPECT_EQ(assigned.stream_count(), 2);
  // The handle stays fully usable through its old pointer.
  ASSERT_TRUE(taxi->Initialize().ok());
  ASSERT_TRUE(taxi->Ingest(Tuple{{2, 2}, 1.0, 95}).ok());
  EXPECT_EQ(taxi->Stats().last_time, 95);
}

// --- Multi-stream routing -------------------------------------------------

TEST(SnsServiceTest, RoutesIngestionByStreamId) {
  SnsService service;
  ASSERT_TRUE(service.CreateStream("left", {6, 5}, SmallOptions()).ok());
  ASSERT_TRUE(service.CreateStream("right", {6, 5}, SmallOptions()).ok());

  const DataStream left_stream = SmallStream(400, 1);
  const DataStream right_stream = SmallStream(150, 2);
  const auto [left_warm, left_live] =
      SplitWarmup(left_stream, SmallOptions());
  const auto [right_warm, right_live] =
      SplitWarmup(right_stream, SmallOptions());

  ASSERT_TRUE(service.Warmup("left", left_warm).ok());
  ASSERT_TRUE(service.Warmup("right", right_warm).ok());
  ASSERT_TRUE(service.Initialize("left").ok());
  ASSERT_TRUE(service.Initialize("right").ok());
  ASSERT_TRUE(service.Ingest("left", left_live).ok());
  ASSERT_TRUE(service.Ingest("right", right_live).ok());

  // Unknown ids are NotFound; each stream saw exactly its own tuples.
  EXPECT_EQ(service.Ingest("middle", left_live).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.Warmup("middle", left_warm).code(), StatusCode::kNotFound);
  EXPECT_EQ(service.Initialize("middle").code(), StatusCode::kNotFound);
  EXPECT_EQ(service.AdvanceTo("middle", 99).code(), StatusCode::kNotFound);

  const StreamStats left_stats = service.Find("left")->Stats();
  const StreamStats right_stats = service.Find("right")->Stats();
  EXPECT_GT(left_stats.events_processed, right_stats.events_processed);
  EXPECT_EQ(left_stats.last_time, left_stream.end_time());
  EXPECT_EQ(right_stats.last_time, right_stream.end_time());

  // Flush every window past its span: all streams drain to empty.
  const int64_t horizon =
      std::max(left_stream.end_time(), right_stream.end_time()) + 10 * 30;
  EXPECT_TRUE(service.AdvanceAllTo(horizon).ok());
  EXPECT_EQ(service.Find("left")->Stats().window_nnz, 0);
  EXPECT_EQ(service.Find("right")->Stats().window_nnz, 0);
}

// --- Batch vs per-tuple equivalence ---------------------------------------

TEST(StreamHandleTest, BatchIngestBitwiseEqualsPerTuple) {
  const ContinuousCpdOptions options = SmallOptions();
  const DataStream stream = SmallStream(600, 3);
  const auto [warm, live] = SplitWarmup(stream, options);

  StreamHandle per_tuple =
      StreamHandle::Create("a", {6, 5}, options).value();
  StreamHandle batched = StreamHandle::Create("b", {6, 5}, options).value();
  ASSERT_TRUE(per_tuple.Warmup(warm).ok());
  ASSERT_TRUE(batched.Warmup(warm).ok());
  ASSERT_TRUE(per_tuple.Initialize().ok());
  ASSERT_TRUE(batched.Initialize().ok());

  for (const Tuple& tuple : live) {
    ASSERT_TRUE(per_tuple.Ingest(tuple).ok());
  }
  // Mixed batch sizes, including empty spans.
  size_t i = 0;
  const size_t sizes[] = {1, 16, 0, 7, 256, 3};
  size_t next_size = 0;
  while (i < live.size()) {
    const size_t n = std::min(sizes[next_size % std::size(sizes)],
                              live.size() - i);
    next_size++;
    ASSERT_TRUE(batched.Ingest(live.subspan(i, n)).ok());
    i += n;
  }

  ASSERT_EQ(per_tuple.Stats().events_processed,
            batched.Stats().events_processed);
  for (int mode = 0; mode < per_tuple.num_modes(); ++mode) {
    const int64_t rows =
        mode + 1 == per_tuple.num_modes()
            ? per_tuple.window_size()
            : per_tuple.mode_dims()[static_cast<size_t>(mode)];
    for (int64_t row = 0; row < rows; ++row) {
      const FactorRowView a = per_tuple.FactorRow(mode, row).value();
      const FactorRowView b = batched.FactorRow(mode, row).value();
      for (int64_t r = 0; r < a.rank(); ++r) {
        ASSERT_EQ(a[r], b[r])  // Bitwise: identical event order + arithmetic.
            << "mode " << mode << " row " << row << " component " << r;
      }
    }
  }
  EXPECT_EQ(per_tuple.RunningFitness(), batched.RunningFitness());
}

// --- Sink fan-out ---------------------------------------------------------

class CountingSink : public EventSink {
 public:
  void OnStreamEvent(const StreamEvent& event) override {
    ++events;
    if (event.kind() == EventKind::kArrival) ++arrivals;
    last_error = event.AbsError();
    last_observed = event.ObservedValue();
  }

  int events = 0;
  int arrivals = 0;
  double last_error = -1.0;
  double last_observed = 0.0;
};

TEST(StreamHandleTest, SinksFanOutAndDetach) {
  const ContinuousCpdOptions options = SmallOptions();
  const DataStream stream = SmallStream(300, 4);
  const auto [warm, live] = SplitWarmup(stream, options);

  StreamHandle handle = StreamHandle::Create("s", {6, 5}, options).value();
  CountingSink first;
  CountingSink second;
  ASSERT_TRUE(handle.AddSink(&first).ok());
  ASSERT_TRUE(handle.AddSink(&second).ok());
  // Error paths: null and duplicate sinks, removing an unknown sink.
  EXPECT_EQ(handle.AddSink(nullptr).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(handle.AddSink(&first).code(), StatusCode::kFailedPrecondition);
  CountingSink detached;
  EXPECT_EQ(handle.RemoveSink(&detached).code(), StatusCode::kNotFound);

  ASSERT_TRUE(handle.Warmup(warm).ok());
  ASSERT_TRUE(handle.Initialize().ok());
  const size_t half = live.size() / 2;
  ASSERT_TRUE(handle.Ingest(live.subspan(0, half)).ok());

  // Both sinks saw every event (arrivals + slides + expiries).
  EXPECT_GT(first.events, 0);
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.arrivals, static_cast<int>(half));
  EXPECT_GE(first.last_error, 0.0);

  // After detaching one sink, only the other keeps counting.
  ASSERT_TRUE(handle.RemoveSink(&first).ok());
  const int frozen = first.events;
  ASSERT_TRUE(handle.Ingest(live.subspan(half)).ok());
  EXPECT_EQ(first.events, frozen);
  EXPECT_GT(second.events, frozen);
}

// --- Typed queries --------------------------------------------------------

TEST(StreamHandleTest, TypedQueriesAndErrorPaths) {
  const ContinuousCpdOptions options = SmallOptions();
  const DataStream stream = SmallStream(500, 5);
  const auto [warm, live] = SplitWarmup(stream, options);

  StreamHandle handle = StreamHandle::Create("q", {6, 5}, options).value();
  ASSERT_TRUE(handle.Warmup(warm).ok());
  ASSERT_TRUE(handle.Initialize().ok());
  ASSERT_TRUE(handle.Ingest(live).ok());

  // Reconstruct: finite everywhere in range, Status outside.
  const double reconstructed = handle.Reconstruct({2, 3, 1}).value();
  EXPECT_TRUE(std::isfinite(reconstructed));
  EXPECT_EQ(handle.Reconstruct({2, 3}).status().code(),
            StatusCode::kInvalidArgument);  // Missing time index.
  EXPECT_EQ(handle.Reconstruct({6, 0, 0}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(handle.Reconstruct({0, 0, 3}).status().code(),
            StatusCode::kOutOfRange);  // Time slice >= W.

  // ComponentActivity has rank entries.
  const std::vector<double> activity = handle.ComponentActivity().value();
  ASSERT_EQ(activity.size(), 4u);

  // TopK: sorted scores, k clamped to the mode size, consistent with the
  // activity weights.
  const std::vector<TopEntry> top = handle.TopK(0, 3).value();
  ASSERT_EQ(top.size(), 3u);
  EXPECT_GE(top[0].score, top[1].score);
  EXPECT_GE(top[1].score, top[2].score);
  EXPECT_EQ(handle.TopK(0, 100).value().size(), 6u);
  {
    const FactorRowView row =
        handle.FactorRow(0, top[0].index).value();
    double expected = 0.0;
    for (int64_t r = 0; r < row.rank(); ++r) {
      expected += row[r] * activity[static_cast<size_t>(r)];
    }
    EXPECT_NEAR(top[0].score, expected, 1e-12);
  }
  EXPECT_EQ(handle.TopK(2, 3).status().code(),
            StatusCode::kInvalidArgument);  // Time mode not addressable.
  EXPECT_EQ(handle.TopK(0, 0).status().code(), StatusCode::kInvalidArgument);

  // TopKForComponent ranks by raw loading of one component.
  const std::vector<TopEntry> pattern =
      handle.TopKForComponent(1, 2, 2).value();
  ASSERT_EQ(pattern.size(), 2u);
  EXPECT_GE(pattern[0].score, pattern[1].score);
  EXPECT_EQ(handle.TopKForComponent(1, 99, 2).status().code(),
            StatusCode::kOutOfRange);

  // FactorRow bounds.
  EXPECT_EQ(handle.FactorRow(0, 6).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(handle.FactorRow(7, 0).status().code(),
            StatusCode::kInvalidArgument);
  // Time mode rows are the window slices.
  EXPECT_TRUE(handle.FactorRow(2, handle.window_size() - 1).ok());

  // Fitness pair: the running estimate tracks the exact rescan.
  EXPECT_TRUE(std::isfinite(handle.ExactFitness()));
  EXPECT_TRUE(std::isfinite(handle.RunningFitness()));
}

// --- Ingestion error paths ------------------------------------------------

TEST(StreamHandleTest, IngestionStatusErrorPaths) {
  const ContinuousCpdOptions options = SmallOptions();
  StreamHandle handle = StreamHandle::Create("e", {6, 5}, options).value();

  // Live ingestion before Initialize is a FailedPrecondition.
  EXPECT_EQ(handle.Ingest(Tuple{{1, 1}, 1.0, 5}).code(),
            StatusCode::kFailedPrecondition);

  // Batch validation is atomic: a bad tuple mid-batch rejects everything.
  const std::vector<Tuple> bad_arity = {{{1, 1}, 1.0, 1}, {{1}, 1.0, 2}};
  EXPECT_EQ(handle.Warmup(bad_arity).code(), StatusCode::kInvalidArgument);
  const std::vector<Tuple> bad_range = {{{1, 1}, 1.0, 1}, {{1, 9}, 1.0, 2}};
  EXPECT_EQ(handle.Warmup(bad_range).code(), StatusCode::kInvalidArgument);
  const std::vector<Tuple> bad_order = {{{1, 1}, 1.0, 9}, {{1, 1}, 1.0, 2}};
  EXPECT_EQ(handle.Warmup(bad_order).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(handle.Stats().window_nnz, 0);  // Nothing was applied.

  ASSERT_TRUE(handle.Warmup(std::vector<Tuple>{{{1, 1}, 1.0, 5}}).ok());
  ASSERT_TRUE(handle.Initialize().ok());

  // Double initialization and post-initialization warm-up are rejected.
  EXPECT_EQ(handle.Initialize().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(handle.Warmup(std::vector<Tuple>{{{1, 1}, 1.0, 6}}).code(),
            StatusCode::kFailedPrecondition);

  // Chronology is enforced across calls, and time cannot regress.
  ASSERT_TRUE(handle.Ingest(Tuple{{2, 2}, 1.0, 50}).ok());
  EXPECT_EQ(handle.Ingest(Tuple{{2, 2}, 1.0, 49}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(handle.AdvanceTo(10).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(handle.AdvanceTo(50).ok());

  // An empty batch is a no-op success.
  EXPECT_TRUE(handle.Ingest(std::span<const Tuple>()).ok());
}

TEST(StreamHandleTest, CreateRejectsNanClipBoundWithoutAborting) {
  ContinuousCpdOptions options = SmallOptions();
  options.clip_bound = std::nan("");
  const auto handle = StreamHandle::Create("nan", {6, 5}, options);
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), StatusCode::kInvalidArgument);
}

// Create, Warmup, Initialize, live ingestion, then AdvanceTo(`until`)
// through the public API, returning the first refusal: an accepted
// configuration or tuple must end in a typed status or a finished run,
// never in an abort.
Status RunStream(const std::vector<int64_t>& dims,
                 const ContinuousCpdOptions& options,
                 const std::vector<Tuple>& warm,
                 const std::vector<Tuple>& live, int64_t until) {
  auto created = StreamHandle::Create("bounds", dims, options);
  if (!created.ok()) return created.status();
  StreamHandle& handle = created.value();
  SNS_RETURN_IF_ERROR(handle.Warmup(warm));
  SNS_RETURN_IF_ERROR(handle.Initialize());
  SNS_RETURN_IF_ERROR(handle.Ingest(live));
  return handle.AdvanceTo(until);
}

constexpr int64_t kMaxTime = std::numeric_limits<int64_t>::max();

TEST(StreamHandleTest, WindowSpanPastInt64IsRefused) {
  // W·period = 3·2⁶² does not fit in int64: a tuple's later window events
  // overflowed their due time, and the schedule aborted on the wrapped
  // value.
  const std::vector<Tuple> warm = {{{1, 1}, 1.0, 1}, {{2, 2}, 2.0, 2}};
  const std::vector<Tuple> live = {{{3, 3}, 1.0, 3}};
  ContinuousCpdOptions options = SmallOptions();
  options.period = int64_t{1} << 62;
  EXPECT_EQ(RunStream({6, 5}, options, warm, live, kMaxTime).code(),
            StatusCode::kInvalidArgument);
  // 3·⌊INT64_MAX / 3⌋ = INT64_MAX − 1 fits: time 1's last event is due at
  // INT64_MAX exactly, and the stream runs there.
  options.period = kMaxTime / 3;
  const std::vector<Tuple> first = {{{1, 1}, 1.0, 1}};
  EXPECT_TRUE(RunStream({6, 5}, options, first, {}, kMaxTime).ok());
  EXPECT_EQ(RunStream({6, 5}, options, first, {{{2, 2}, 1.0, 2}}, kMaxTime)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(StreamHandleTest, TupleTimePastTheWindowHorizonIsRefused) {
  // W·period = 90: a tuple after INT64_MAX − 90 would schedule a window
  // event past int64. The horizon itself runs to INT64_MAX.
  const ContinuousCpdOptions options = SmallOptions();
  const std::vector<Tuple> warm = {{{1, 1}, 1.0, 1}, {{2, 2}, 2.0, 2}};
  for (const bool live : {false, true}) {
    SCOPED_TRACE(live ? "Ingest" : "Warmup");
    const std::vector<Tuple> late = {{{3, 3}, 1.0, kMaxTime - 89}};
    const std::vector<Tuple> last = {{{3, 3}, 1.0, kMaxTime - 90}};
    EXPECT_EQ(RunStream({6, 5}, options, live ? warm : late,
                        live ? late : std::vector<Tuple>{}, kMaxTime)
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_TRUE(RunStream({6, 5}, options, live ? warm : last,
                          live ? last : std::vector<Tuple>{}, kMaxTime)
                    .ok());
  }
}

TEST(StreamHandleTest, ModeSizeAboveInt32IsRefused) {
  // ModeIndex holds int32 coordinates; a larger mode allocated its factor
  // and died of std::bad_alloc.
  for (const int64_t dim : {int64_t{1} << 31, int64_t{1} << 40}) {
    const auto handle = StreamHandle::Create("wide", {dim, 5}, SmallOptions());
    ASSERT_FALSE(handle.ok()) << dim;
    EXPECT_EQ(handle.status().code(), StatusCode::kInvalidArgument) << dim;
  }
}

TEST(StreamHandleTest, HugeExpectedNnzDoesNotAbort) {
  // A 5 × 4 stream with W = 3 has 60 window cells: a 2⁴⁰ hint reserves at
  // most those, and the stored option keeps the caller's value.
  ContinuousCpdOptions options = SmallOptions();
  options.expected_nnz = int64_t{1} << 40;
  auto handle = StreamHandle::Create("huge-hint", {5, 4}, options);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_EQ(handle.value().options().expected_nnz, int64_t{1} << 40);
  const Tuple tuple{{4, 3}, 2.0, 1};
  EXPECT_TRUE(handle.value().Warmup(std::span<const Tuple>(&tuple, 1)).ok());
}

TEST(SnsServiceTest, HugeSampleThresholdIsBoundedByTheSliceGrid) {
  // θ = 2⁴⁰ on a 6 × 5 stream with W = 3: the sampled rule reserved θ
  // cells and the stream died of std::bad_alloc. No slice holds more than
  // the largest slice grid, 6 · 5 = 30 cells, and sampling runs only past
  // θ, so the stream runs exactly as one whose θ is that grid.
  const DataStream stream = SmallStream(300, 17);
  SnsService service;
  ContinuousCpdOptions options = SmallOptions();
  const auto [warm, live] = SplitWarmup(stream, options);
  for (const int64_t theta : {int64_t{1} << 40, int64_t{30}}) {
    options.sample_threshold = theta;
    const std::string name = "theta-" + std::to_string(theta);
    ASSERT_TRUE(service.CreateStream(name, {6, 5}, options).ok());
    ASSERT_TRUE(service.Warmup(name, warm).ok());
    ASSERT_TRUE(service.Initialize(name).ok());
    ASSERT_TRUE(service.Ingest(name, live).ok());
  }
  const StreamHandle* huge = service.Find("theta-1099511627776");
  const StreamHandle* grid = service.Find("theta-30");
  ASSERT_NE(huge, nullptr);
  ASSERT_NE(grid, nullptr);
  ASSERT_GT(huge->Stats().events_processed, 0);
  for (int mode = 0; mode < huge->num_modes(); ++mode) {
    const int64_t rows = mode + 1 == huge->num_modes()
                             ? huge->window_size()
                             : huge->mode_dims()[static_cast<size_t>(mode)];
    for (int64_t row = 0; row < rows; ++row) {
      const FactorRowView a = huge->FactorRow(mode, row).value();
      const FactorRowView b = grid->FactorRow(mode, row).value();
      for (int64_t r = 0; r < a.rank(); ++r) {
        ASSERT_EQ(a[r], b[r])
            << "mode " << mode << " row " << row << " component " << r;
      }
    }
  }
}

// --- Umbrella-header reachability (the original README-flow check) --------

TEST(PublicApiTest, UmbrellaHeaderReachesToolkitAndPresets) {
  EXPECT_EQ(AllDatasetPresets().size(), 4u);
  RunningZScore stats;
  stats.Update(1.0);
  stats.Update(2.0);
  EXPECT_TRUE(std::isfinite(stats.Score(3.0)));
  // Engine options + variant names remain reachable.
  EXPECT_EQ(VariantName(SnsVariant::kRndPlus), "SNS+RND");
  EXPECT_TRUE(SmallOptions().Validate().ok());
}

TEST(PublicApiDeathTest, VariantNameFailsLoudlyOnOutOfRangeValues) {
  // An enum value cast from a bad integer must crash at the name lookup,
  // not flow onward as "SNS-?" (mirrors MakeUpdater's contract).
  EXPECT_DEATH(VariantName(static_cast<SnsVariant>(99)),
               "unhandled SnsVariant");
}

}  // namespace
}  // namespace sns
