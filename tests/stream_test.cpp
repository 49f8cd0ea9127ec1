// Tests for the continuous tensor model (Algorithm 1) and the conventional
// periodic window, including the brute-force D(t, W) equivalence property.

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/serial.h"
#include "stream/continuous_window.h"
#include "stream/data_stream.h"
#include "stream/periodic_window.h"

namespace sns {
namespace {

// Brute-force D(t, W) from Definitions 3-4: tuple t_n is active iff
// t_n ∈ (t − WT, t], and sits at 0-based time index W−1−⌊(t−t_n)/T⌋.
SparseTensor BruteForceWindow(const std::vector<Tuple>& tuples,
                              const std::vector<int64_t>& mode_dims, int w_size,
                              int64_t period, int64_t now) {
  std::vector<int64_t> dims = mode_dims;
  dims.push_back(w_size);
  SparseTensor window(dims);
  for (const Tuple& tuple : tuples) {
    if (tuple.time > now) continue;
    const int64_t age = (now - tuple.time) / period;
    if (age >= w_size) continue;
    window.Add(tuple.index.WithAppended(w_size - 1 - static_cast<int32_t>(age)),
               tuple.value);
  }
  return window;
}

bool TensorsEqual(const SparseTensor& a, const SparseTensor& b,
                  double tol = 1e-9) {
  if (a.nnz() != b.nnz()) return false;
  bool equal = true;
  a.ForEachNonzero([&](const ModeIndex& index, double value) {
    if (std::fabs(b.Get(index) - value) > tol) equal = false;
  });
  return equal;
}

TEST(DataStreamTest, AppendValidations) {
  DataStream stream({3, 4});
  EXPECT_TRUE(stream.Append({{1, 2}, 1.0, 10}).ok());
  EXPECT_FALSE(stream.Append({{1}, 1.0, 11}).ok());       // Arity.
  EXPECT_FALSE(stream.Append({{3, 0}, 1.0, 11}).ok());    // Range.
  EXPECT_FALSE(stream.Append({{0, 0}, 1.0, 5}).ok());     // Time regression.
  EXPECT_EQ(stream.size(), 1);
  EXPECT_EQ(stream.start_time(), 10);
}

TEST(ContinuousWindowTest, ArrivalAddsToNewestSlice) {
  ContinuousTensorWindow window({4, 4}, /*window_size=*/3, /*period=*/10);
  WindowDelta delta = window.Ingest({{1, 2}, 5.0, 100});
  EXPECT_EQ(delta.kind, EventKind::kArrival);
  ASSERT_EQ(delta.cells.size(), 1u);
  EXPECT_EQ(delta.cells[0].index, (ModeIndex{1, 2, 2}));
  EXPECT_EQ(delta.cells[0].delta, 5.0);
  EXPECT_EQ(window.tensor().Get({1, 2, 2}), 5.0);
  EXPECT_EQ(window.NextScheduledTime(), 110);
}

TEST(ContinuousWindowTest, SlideMovesValueBackOneSlice) {
  ContinuousTensorWindow window({4, 4}, 3, 10);
  window.Ingest({{1, 2}, 5.0, 100});
  WindowDelta slide = window.PopScheduled();
  EXPECT_EQ(slide.kind, EventKind::kSlide);
  EXPECT_EQ(slide.w, 1);
  EXPECT_EQ(slide.time, 110);
  ASSERT_EQ(slide.cells.size(), 2u);
  EXPECT_EQ(slide.cells[0].index, (ModeIndex{1, 2, 2}));
  EXPECT_EQ(slide.cells[0].delta, -5.0);
  EXPECT_EQ(slide.cells[1].index, (ModeIndex{1, 2, 1}));
  EXPECT_EQ(slide.cells[1].delta, 5.0);
  EXPECT_EQ(window.tensor().Get({1, 2, 2}), 0.0);
  EXPECT_EQ(window.tensor().Get({1, 2, 1}), 5.0);
}

TEST(ContinuousWindowTest, TupleExpiresAfterWSlides) {
  ContinuousTensorWindow window({2, 2}, 3, 10);
  window.Ingest({{0, 1}, 2.0, 50});
  // Slides at 60, 70; expiry at 80. W+1 = 4 events total including arrival.
  WindowDelta s1 = window.PopScheduled();
  WindowDelta s2 = window.PopScheduled();
  WindowDelta s3 = window.PopScheduled();
  EXPECT_EQ(s1.kind, EventKind::kSlide);
  EXPECT_EQ(s2.kind, EventKind::kSlide);
  EXPECT_EQ(s3.kind, EventKind::kExpiry);
  EXPECT_EQ(s3.time, 80);
  ASSERT_EQ(s3.cells.size(), 1u);
  EXPECT_EQ(s3.cells[0].index, (ModeIndex{0, 1, 0}));
  EXPECT_EQ(s3.cells[0].delta, -2.0);
  EXPECT_EQ(window.tensor().nnz(), 0);
  EXPECT_FALSE(window.HasScheduled());
}

TEST(ContinuousWindowTest, ZeroValueTupleIsNoOp) {
  ContinuousTensorWindow window({2, 2}, 3, 10);
  WindowDelta delta = window.Ingest({{0, 0}, 0.0, 5});
  EXPECT_TRUE(delta.cells.empty());
  EXPECT_FALSE(window.HasScheduled());
}

TEST(ContinuousWindowTest, OverlappingTuplesAccumulate) {
  ContinuousTensorWindow window({2, 2}, 2, 10);
  window.Ingest({{0, 0}, 1.0, 10});
  window.Ingest({{0, 0}, 2.0, 12});
  EXPECT_EQ(window.tensor().Get({0, 0, 1}), 3.0);
  // First tuple slides at 20, second at 22.
  window.AdvanceTo(20);
  EXPECT_EQ(window.tensor().Get({0, 0, 1}), 2.0);
  EXPECT_EQ(window.tensor().Get({0, 0, 0}), 1.0);
  window.AdvanceTo(22);
  EXPECT_EQ(window.tensor().Get({0, 0, 1}), 0.0);
  EXPECT_EQ(window.tensor().Get({0, 0, 0}), 3.0);
}

TEST(ContinuousWindowTest, IngestCheckedValidates) {
  ContinuousTensorWindow window({2, 2}, 2, 10);
  WindowDelta delta;
  EXPECT_TRUE(window.IngestChecked({{1, 1}, 1.0, 10}, &delta).ok());
  EXPECT_FALSE(window.IngestChecked({{2, 0}, 1.0, 11}, nullptr).ok());
  EXPECT_FALSE(window.IngestChecked({{0}, 1.0, 11}, nullptr).ok());
  EXPECT_FALSE(window.IngestChecked({{0, 0}, 1.0, 5}, nullptr).ok());
  // Scheduled slide at 20 must be drained before ingesting at 25.
  EXPECT_FALSE(window.IngestChecked({{0, 0}, 1.0, 25}, nullptr).ok());
  window.AdvanceTo(25);
  EXPECT_TRUE(window.IngestChecked({{0, 0}, 1.0, 25}, nullptr).ok());
}

TEST(ContinuousWindowTest, EventCountMatchesTheorem1) {
  // Each tuple causes exactly W+1 events (1 arrival + W scheduled).
  const int w_size = 4;
  ContinuousTensorWindow window({3, 3}, w_size, 5);
  int scheduled_events = 0;
  for (int i = 0; i < 10; ++i) {
    window.AdvanceTo(i * 3,
                     [&](const WindowDelta&) { ++scheduled_events; });
    window.Ingest({{static_cast<int32_t>(i % 3), 0}, 1.0, i * 3});
  }
  window.AdvanceTo(std::numeric_limits<int64_t>::max(),
                   [&](const WindowDelta&) { ++scheduled_events; });
  EXPECT_EQ(scheduled_events, 10 * w_size);
}

std::string SerializeWindow(const ContinuousTensorWindow& window) {
  serial::StringSink sink;
  serial::Writer w(sink);
  window.SerializeTo(w);
  return sink.TakeData();
}

// One popped event as the engine sees it: its due time, which update it is,
// and the tuple it moves.
struct Popped {
  int64_t due;
  int w;
  ModeIndex index;
  double value;
  int64_t tuple_time;
  bool operator==(const Popped&) const = default;
};

TEST(ContinuousWindowTest, RestoredScheduleDrainsInTheSameOrder) {
  // Bursts of equal timestamps schedule equal due times, whose pop order is
  // the order they were scheduled in (seq); a few hundred pending events
  // make the schedule's ring wrap, and grow while wrapped.
  Rng rng(0x5c4ed);
  const std::vector<int64_t> dims = {5, 4};
  std::vector<Tuple> tuples;
  int64_t now = 0;
  for (int i = 0; i < 900; ++i) {
    if (rng.UniformDouble() < 0.04) now += rng.UniformInt(1, 9);
    tuples.push_back({{static_cast<int32_t>(rng.UniformInt(0, 4)),
                       static_cast<int32_t>(rng.UniformInt(0, 3))},
                      static_cast<double>(rng.UniformInt(1, 5)), now});
  }
  // Ingests tuples[from, to) and then drains the schedule up to `until`,
  // recording each scheduled event popped.
  auto run = [&](ContinuousTensorWindow& window, size_t from, size_t to,
                 int64_t until, std::vector<Popped>& popped) {
    auto record = [&popped](const WindowDelta& delta) {
      popped.push_back({delta.time, delta.w, delta.tuple.index,
                        delta.tuple.value, delta.tuple.time});
    };
    for (size_t i = from; i < to; ++i) {
      window.AdvanceTo(tuples[i].time, record);
      window.Ingest(tuples[i]);
    }
    window.AdvanceTo(until, record);
  };

  ContinuousTensorWindow original(dims, /*window_size=*/4, /*period=*/7);
  std::vector<Popped> before;
  run(original, 0, 450, tuples[449].time, before);
  ASSERT_GT(original.ActiveTupleCount(), 100);
  const std::string bytes = SerializeWindow(original);
  ContinuousTensorWindow restored(dims, 4, 7);
  serial::StringSource source(bytes);
  serial::Reader reader(source);
  ASSERT_TRUE(restored.RestoreFrom(reader).ok());
  EXPECT_EQ(SerializeWindow(restored), bytes);

  // Halfway through the rest the two schedules serialize alike; at the end
  // every one of the 900 tuples has been popped W times.
  std::vector<Popped> expected;
  std::vector<Popped> actual;
  run(original, 450, 700, tuples[699].time, expected);
  run(restored, 450, 700, tuples[699].time, actual);
  EXPECT_EQ(SerializeWindow(restored), SerializeWindow(original));
  const int64_t end = std::numeric_limits<int64_t>::max();
  run(original, 700, tuples.size(), end, expected);
  run(restored, 700, tuples.size(), end, actual);
  EXPECT_EQ(before.size() + actual.size(), tuples.size() * 4);
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i], expected[i]) << "pop " << i;
    if (i > 0) {
      ASSERT_LE(actual[i - 1].due, actual[i].due) << "pop " << i;
    }
  }
}

// The central property: replaying any random stream through Algorithm 1
// yields exactly D(t, W) at every instant.
class ContinuousWindowPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ContinuousWindowPropertyTest, MatchesBruteForceWindow) {
  Rng rng(1000 + GetParam());
  const std::vector<int64_t> mode_dims = {4, 3};
  const int w_size = 1 + GetParam() % 5;
  const int64_t period = 3 + GetParam() % 7;

  ContinuousTensorWindow window(mode_dims, w_size, period);
  std::vector<Tuple> history;
  int64_t now = 0;

  for (int step = 0; step < 400; ++step) {
    now += rng.UniformInt(0, 4);
    if (rng.UniformDouble() < 0.8) {
      Tuple tuple{{static_cast<int32_t>(rng.UniformInt(0, 3)),
                   static_cast<int32_t>(rng.UniformInt(0, 2))},
                  static_cast<double>(rng.UniformInt(1, 5)), now};
      window.AdvanceTo(now);
      window.Ingest(tuple);
      history.push_back(tuple);
    } else {
      window.AdvanceTo(now);
    }
    SparseTensor expected =
        BruteForceWindow(history, mode_dims, w_size, period, now);
    ASSERT_TRUE(TensorsEqual(window.tensor(), expected))
        << "step " << step << " now " << now;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomStreams, ContinuousWindowPropertyTest,
                         ::testing::Range(0, 10));

TEST(PeriodicWindowTest, UnitsCloseAtBoundaries) {
  PeriodicTensorWindow window({2, 2}, /*window_size=*/2, /*period=*/10);
  window.AddTuple({{0, 0}, 1.0, 3});
  window.AddTuple({{0, 1}, 2.0, 10});  // Still unit (0, 10].
  window.AddTuple({{1, 1}, 4.0, 11});  // Forces closing unit (0, 10].
  EXPECT_EQ(window.num_units(), 1);
  window.CloseUpTo(20);
  EXPECT_EQ(window.num_units(), 2);

  SparseTensor tensor = window.WindowTensor();
  EXPECT_EQ(tensor.Get({0, 0, 0}), 1.0);
  EXPECT_EQ(tensor.Get({0, 1, 0}), 2.0);
  EXPECT_EQ(tensor.Get({1, 1, 1}), 4.0);
}

TEST(PeriodicWindowTest, OldestUnitDropsBeyondW) {
  PeriodicTensorWindow window({2, 2}, 2, 10);
  window.AddTuple({{0, 0}, 1.0, 5});
  window.CloseUpTo(30);  // Units (0,10], (10,20], (20,30] -> first dropped.
  EXPECT_EQ(window.num_units(), 2);
  EXPECT_EQ(window.WindowTensor().nnz(), 0);
}

TEST(PeriodicWindowTest, NewestUnitExtraction) {
  PeriodicTensorWindow window({3, 3}, 3, 10);
  window.AddTuple({{2, 2}, 7.0, 15});
  window.CloseUpTo(20);
  SparseTensor unit = window.NewestUnit();
  EXPECT_EQ(unit.num_modes(), 2);
  EXPECT_EQ(unit.Get({2, 2}), 7.0);
}

TEST(PeriodicWindowTest, AggregationSumsWithinPeriod) {
  PeriodicTensorWindow window({2, 2}, 2, 10);
  window.AddTuple({{1, 0}, 1.0, 11});
  window.AddTuple({{1, 0}, 2.5, 15});
  window.AddTuple({{1, 0}, 0.5, 20});
  window.CloseUpTo(20);
  EXPECT_EQ(window.NewestUnit().Get({1, 0}), 4.0);
}

// Consistency at boundaries: the continuous window evaluated exactly at a
// period boundary must match the conventional window (same partitioning).
TEST(PeriodicWindowTest, ContinuousEqualsPeriodicAtBoundaries) {
  Rng rng(77);
  const std::vector<int64_t> mode_dims = {3, 3};
  const int w_size = 3;
  const int64_t period = 10;

  ContinuousTensorWindow continuous(mode_dims, w_size, period);
  PeriodicTensorWindow periodic(mode_dims, w_size, period);

  int64_t now = 1;
  std::vector<Tuple> tuples;
  for (int i = 0; i < 200; ++i) {
    now += rng.UniformInt(0, 2);
    tuples.push_back({{static_cast<int32_t>(rng.UniformInt(0, 2)),
                       static_cast<int32_t>(rng.UniformInt(0, 2))},
                      1.0, now});
  }
  size_t fed = 0;
  for (int64_t boundary = period; boundary <= now + period;
       boundary += period) {
    while (fed < tuples.size() && tuples[fed].time <= boundary) {
      continuous.AdvanceTo(tuples[fed].time);
      continuous.Ingest(tuples[fed]);
      periodic.AddTuple(tuples[fed]);
      ++fed;
    }
    continuous.AdvanceTo(boundary);
    periodic.CloseUpTo(boundary);
    ASSERT_TRUE(
        TensorsEqual(continuous.tensor(), periodic.WindowTensor()))
        << "boundary " << boundary;
  }
}

}  // namespace
}  // namespace sns
