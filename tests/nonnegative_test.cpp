// Tests for the non-negative factor extension (projected coordinate
// descent; an extension, not in the paper).

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/continuous_cpd.h"
#include "core/row_updater.h"
#include "data/synthetic.h"

namespace sns {
namespace {

TEST(NonnegativeOptionsTest, OnlyCompatibleWithClippedVariants) {
  ContinuousCpdOptions options;
  options.nonnegative_factors = true;
  options.variant = SnsVariant::kVecPlus;
  EXPECT_TRUE(options.Validate().ok());
  options.variant = SnsVariant::kRndPlus;
  EXPECT_TRUE(options.Validate().ok());
  for (SnsVariant bad :
       {SnsVariant::kMat, SnsVariant::kVec, SnsVariant::kRnd}) {
    options.variant = bad;
    EXPECT_FALSE(options.Validate().ok()) << VariantName(bad);
  }
}

TEST(NonnegativeCoordinateDescentTest, ClampsNegativeSolutionsToZero) {
  Matrix hq = Matrix::Identity(2);
  // Padded contract: `row` spans hq.stride() doubles, padding at 0.0.
  double row[4] = {0.5, 0.5, 0.0, 0.0};
  double numerator[2] = {-3.0, 0.25};
  CoordinateDescentRow(row, 2, hq, numerator, /*clip_min=*/0.0,
                       /*clip_max=*/10.0);
  EXPECT_DOUBLE_EQ(row[0], 0.0);   // Unconstrained optimum -3 → projected.
  EXPECT_DOUBLE_EQ(row[1], 0.25);  // Interior optimum untouched.
}

DataStream Stream(uint64_t seed) {
  SyntheticStreamConfig config;
  config.mode_dims = {9, 7};
  config.num_events = 2500;
  config.time_span = 6 * 4 * 50;
  config.latent_rank = 3;
  config.diurnal_period = 200;
  config.seed = seed;
  auto stream = GenerateSyntheticStream(config);
  SNS_CHECK(stream.ok());
  return std::move(stream).value();
}

std::unique_ptr<ContinuousCpd> RunNonnegative(const DataStream& stream,
                                              SnsVariant variant) {
  ContinuousCpdOptions options;
  options.rank = 3;
  options.window_size = 4;
  options.period = 50;
  options.variant = variant;
  options.sample_threshold = 15;
  options.clip_bound = 100.0;
  options.nonnegative_factors = true;
  options.seed = 13;
  auto engine = ContinuousCpd::Create(stream.mode_dims(), options);
  SNS_CHECK(engine.ok());
  std::unique_ptr<ContinuousCpd> cpd = std::move(engine).value();
  const int64_t warmup_end = options.window_size * options.period;
  size_t i = 0;
  for (; i < stream.tuples().size() &&
         stream.tuples()[i].time <= warmup_end;
       ++i) {
    cpd->IngestOnly(stream.tuples()[i]);
  }
  cpd->InitializeWithAls();
  for (; i < stream.tuples().size(); ++i) {
    cpd->ProcessTuple(stream.tuples()[i]);
  }
  return cpd;
}

class NonnegativeVariantTest : public ::testing::TestWithParam<SnsVariant> {};

TEST_P(NonnegativeVariantTest, FactorsStayNonnegativeAndUseful) {
  DataStream stream = Stream(21);
  std::unique_ptr<ContinuousCpd> cpd = RunNonnegative(stream, GetParam());
  for (int m = 0; m < cpd->model().num_modes(); ++m) {
    const Matrix& factor = cpd->model().factor(m);
    for (int64_t i = 0; i < factor.rows(); ++i) {
      for (int64_t r = 0; r < factor.cols(); ++r) {
        ASSERT_GE(factor(i, r), 0.0) << "mode " << m;
        ASSERT_LE(factor(i, r), 100.0);
      }
    }
  }
  // Constrained fitness is lower than unconstrained but must stay sane on
  // count data (which is non-negative to begin with).
  EXPECT_GT(cpd->Fitness(), 0.05);
  EXPECT_TRUE(std::isfinite(cpd->Fitness()));
}

INSTANTIATE_TEST_SUITE_P(ClippedVariants, NonnegativeVariantTest,
                         ::testing::Values(SnsVariant::kVecPlus,
                                           SnsVariant::kRndPlus),
                         [](const auto& info) {
                           return info.param == SnsVariant::kVecPlus
                                      ? "SNSPlusVEC"
                                      : "SNSPlusRND";
                         });

TEST(NonnegativeVsUnconstrainedTest, UnconstrainedFitsAtLeastAsWell) {
  DataStream stream = Stream(22);
  std::unique_ptr<ContinuousCpd> constrained =
      RunNonnegative(stream, SnsVariant::kVecPlus);

  ContinuousCpdOptions options;
  options.rank = 3;
  options.window_size = 4;
  options.period = 50;
  options.variant = SnsVariant::kVecPlus;
  options.clip_bound = 100.0;
  options.seed = 13;
  auto engine = ContinuousCpd::Create(stream.mode_dims(), options);
  ASSERT_TRUE(engine.ok());
  std::unique_ptr<ContinuousCpd> unconstrained = std::move(engine).value();
  const int64_t warmup_end = options.window_size * options.period;
  size_t i = 0;
  for (; i < stream.tuples().size() &&
         stream.tuples()[i].time <= warmup_end;
       ++i) {
    unconstrained->IngestOnly(stream.tuples()[i]);
  }
  unconstrained->InitializeWithAls();
  for (; i < stream.tuples().size(); ++i) {
    unconstrained->ProcessTuple(stream.tuples()[i]);
  }
  EXPECT_GE(unconstrained->Fitness() + 0.05, constrained->Fitness());
}

}  // namespace
}  // namespace sns
