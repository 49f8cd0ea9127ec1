// End-to-end tests of the ContinuousCpd facade: creation validation,
// warm-up + ALS init + event-driven updating, determinism, and tracking
// quality of every variant on a synthetic low-rank stream.

#include <cmath>
#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/als.h"
#include "core/continuous_cpd.h"
#include "stream/data_stream.h"

namespace sns {
namespace {

// A stationary low-rank stream: events drawn from 2 latent components with
// skewed per-mode popularity, one event per time unit.
DataStream MakeSyntheticStream(int64_t num_tuples, uint64_t seed) {
  Rng rng(seed);
  DataStream stream({8, 6});
  const std::vector<std::vector<double>> mode0 = {
      {8, 4, 2, 1, 1, 1, 1, 1}, {1, 1, 1, 1, 2, 4, 8, 8}};
  const std::vector<std::vector<double>> mode1 = {
      {6, 3, 1, 1, 1, 1}, {1, 1, 1, 3, 6, 6}};
  int64_t now = 1;
  for (int64_t n = 0; n < num_tuples; ++n) {
    const size_t component = rng.UniformDouble() < 0.6 ? 0 : 1;
    Tuple tuple{{static_cast<int32_t>(rng.Categorical(mode0[component])),
                 static_cast<int32_t>(rng.Categorical(mode1[component]))},
                1.0, now};
    SNS_CHECK(stream.Append(tuple).ok());
    now += rng.UniformInt(1, 2);
  }
  return stream;
}

// gtest-safe name: '+' becomes "Plus", '-' is dropped.
std::string VariantTestName(SnsVariant variant) {
  std::string out;
  for (char c : VariantName(variant)) {
    if (c == '+') {
      out += "Plus";
    } else if (std::isalnum(static_cast<unsigned char>(c))) {
      out += c;
    }
  }
  return out;
}

ContinuousCpdOptions TestOptions(SnsVariant variant) {
  ContinuousCpdOptions options;
  options.rank = 3;
  options.window_size = 4;
  options.period = 25;
  options.variant = variant;
  // θ sized like the paper (≈ average slice degree); far smaller values make
  // the RND variants under-sample this tiny window (see bench/fig7_theta).
  options.sample_threshold = 20;
  options.clip_bound = 100.0;
  options.init.max_iterations = 30;
  options.seed = 99;
  return options;
}

// Warm up over the first window span, ALS-init, process the rest.
std::unique_ptr<ContinuousCpd> RunPipeline(const DataStream& stream,
                                           SnsVariant variant) {
  ContinuousCpdOptions options = TestOptions(variant);
  auto engine = ContinuousCpd::Create(stream.mode_dims(), options);
  SNS_CHECK(engine.ok());
  std::unique_ptr<ContinuousCpd> cpd = std::move(engine).value();
  const int64_t warmup_end =
      stream.start_time() + options.window_size * options.period;
  size_t i = 0;
  const auto& tuples = stream.tuples();
  for (; i < tuples.size() && tuples[i].time <= warmup_end; ++i) {
    cpd->IngestOnly(tuples[i]);
  }
  cpd->InitializeWithAls();
  for (; i < tuples.size(); ++i) cpd->ProcessTuple(tuples[i]);
  return cpd;
}

TEST(ContinuousCpdTest, CreateValidatesConfiguration) {
  ContinuousCpdOptions options = TestOptions(SnsVariant::kRndPlus);
  EXPECT_TRUE(ContinuousCpd::Create({5, 5}, options).ok());
  EXPECT_FALSE(ContinuousCpd::Create({}, options).ok());
  EXPECT_FALSE(ContinuousCpd::Create({0, 5}, options).ok());

  options.rank = 0;
  EXPECT_FALSE(ContinuousCpd::Create({5, 5}, options).ok());
  options = TestOptions(SnsVariant::kRndPlus);
  options.period = 0;
  EXPECT_FALSE(ContinuousCpd::Create({5, 5}, options).ok());
  options = TestOptions(SnsVariant::kRndPlus);
  options.sample_threshold = 0;
  EXPECT_FALSE(ContinuousCpd::Create({5, 5}, options).ok());
  options = TestOptions(SnsVariant::kRndPlus);
  options.clip_bound = -1.0;
  EXPECT_FALSE(ContinuousCpd::Create({5, 5}, options).ok());
  options = TestOptions(SnsVariant::kRndPlus);
  options.window_size = 0;
  EXPECT_FALSE(ContinuousCpd::Create({5, 5}, options).ok());
}

TEST(ContinuousCpdTest, CreateRejectsNonFiniteDoubles) {
  // NaN passes every ordered comparison's negation (clip_bound <= 0 is false
  // for NaN), so without an explicit finiteness check a NaN clip bound
  // reaches the + variants' constructor invariant and aborts.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto expect_invalid = [](const ContinuousCpdOptions& options,
                                 const char* what) {
    const auto created = ContinuousCpd::Create({5, 5}, options);
    ASSERT_FALSE(created.ok()) << what;
    EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument) << what;
  };
  for (const double bad : {kNaN, kInf, -kInf}) {
    SCOPED_TRACE(testing::Message() << "value " << bad);
    for (const SnsVariant variant : {SnsVariant::kVecPlus,
                                     SnsVariant::kRndPlus, SnsVariant::kVec}) {
      ContinuousCpdOptions options = TestOptions(variant);
      options.clip_bound = bad;
      expect_invalid(options, "clip_bound");
    }
    ContinuousCpdOptions options = TestOptions(SnsVariant::kRndPlus);
    options.init.fitness_tolerance = bad;
    expect_invalid(options, "init.fitness_tolerance");
    for (const bool enabled : {true, false}) {
      options = TestOptions(SnsVariant::kRndPlus);
      options.robust.enabled = enabled;
      options.robust.threshold = bad;
      expect_invalid(options, "robust.threshold");
      options = TestOptions(SnsVariant::kRndPlus);
      options.robust.enabled = enabled;
      options.robust.decay = bad;
      expect_invalid(options, "robust.decay");
    }
  }
}

TEST(ContinuousCpdTest, WarmupDoesNotTouchFactorsButFillsWindow) {
  DataStream stream = MakeSyntheticStream(50, 7);
  ContinuousCpdOptions options = TestOptions(SnsVariant::kVecPlus);
  auto engine = ContinuousCpd::Create(stream.mode_dims(), options);
  ASSERT_TRUE(engine.ok());
  std::unique_ptr<ContinuousCpd> cpd = std::move(engine).value();
  for (const Tuple& tuple : stream.tuples()) cpd->IngestOnly(tuple);
  EXPECT_GT(cpd->window().nnz(), 0);
  EXPECT_EQ(cpd->events_processed(), 0);
}

TEST(ContinuousCpdTest, ProcessCountsEventsAndMeasuresTime) {
  DataStream stream = MakeSyntheticStream(300, 8);
  std::unique_ptr<ContinuousCpd> cpd = RunPipeline(stream, SnsVariant::kRndPlus);
  EXPECT_GT(cpd->events_processed(), 0);
  EXPECT_GT(cpd->update_seconds(), 0.0);
  EXPECT_GT(cpd->MeanUpdateMicros(), 0.0);
  EXPECT_EQ(cpd->updater_name(), "SNS+RND");
}

TEST(ContinuousCpdTest, DeterministicForSameSeed) {
  DataStream stream = MakeSyntheticStream(200, 9);
  std::unique_ptr<ContinuousCpd> a = RunPipeline(stream, SnsVariant::kRndPlus);
  std::unique_ptr<ContinuousCpd> b = RunPipeline(stream, SnsVariant::kRndPlus);
  for (int m = 0; m < a->model().num_modes(); ++m) {
    EXPECT_LT(MaxAbsDiff(a->model().factor(m), b->model().factor(m)), 1e-15);
  }
}

TEST(ContinuousCpdTest, AdvanceToDrainsScheduledEvents) {
  DataStream stream = MakeSyntheticStream(100, 10);
  std::unique_ptr<ContinuousCpd> cpd = RunPipeline(stream, SnsVariant::kVecPlus);
  const int64_t horizon =
      stream.end_time() +
      cpd->options().window_size * cpd->options().period + 1;
  cpd->AdvanceTo(horizon);
  EXPECT_EQ(cpd->window().nnz(), 0);  // Everything expired.
}

// Every stable variant must track the window with fitness comparable to a
// fresh batch ALS (Observation 4 reports 72-100%; we assert a loose 55% on
// this tiny stream to stay robust to seed effects).
class StableVariantTrackingTest
    : public ::testing::TestWithParam<SnsVariant> {};

TEST_P(StableVariantTrackingTest, TracksWindowFitness) {
  DataStream stream = MakeSyntheticStream(900, 11);
  std::unique_ptr<ContinuousCpd> cpd = RunPipeline(stream, GetParam());

  const double fitness = cpd->Fitness();
  EXPECT_TRUE(std::isfinite(fitness));

  Rng rng(1234);
  AlsOptions als_options;
  als_options.max_iterations = 50;
  const double als_fitness = AlsReferenceFitness(
      cpd->window(), cpd->options().rank, als_options, rng);
  ASSERT_GT(als_fitness, 0.0);
  EXPECT_GT(fitness / als_fitness, 0.55)
      << VariantName(GetParam()) << ": fitness " << fitness << " vs ALS "
      << als_fitness;
}

INSTANTIATE_TEST_SUITE_P(StableVariants, StableVariantTrackingTest,
                         ::testing::Values(SnsVariant::kMat,
                                           SnsVariant::kVecPlus,
                                           SnsVariant::kRndPlus),
                         [](const auto& info) {
                           return VariantTestName(info.param);
                         });

// The unstable variants must at least run without producing NaNs on this
// well-behaved stream (the paper's instability shows on harder data).
class AnyVariantSmokeTest : public ::testing::TestWithParam<SnsVariant> {};

TEST_P(AnyVariantSmokeTest, ProducesFiniteFactors) {
  DataStream stream = MakeSyntheticStream(400, 12);
  std::unique_ptr<ContinuousCpd> cpd = RunPipeline(stream, GetParam());
  for (int m = 0; m < cpd->model().num_modes(); ++m) {
    const Matrix& factor = cpd->model().factor(m);
    for (int64_t i = 0; i < factor.rows(); ++i) {
      for (int64_t r = 0; r < factor.cols(); ++r) {
        ASSERT_TRUE(std::isfinite(factor(i, r)))
            << VariantName(GetParam()) << " mode " << m;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, AnyVariantSmokeTest,
    ::testing::Values(SnsVariant::kMat, SnsVariant::kVec, SnsVariant::kRnd,
                      SnsVariant::kVecPlus, SnsVariant::kRndPlus),
    [](const auto& info) { return VariantTestName(info.param); });

}  // namespace
}  // namespace sns
