// Mixed-precision factor storage (FactorPrecision::kFloat32Accum64): the
// float32 mirrors stay exact images of the double factors, every committed
// factor entry is float32-representable, the f32 kernels agree with their
// double counterparts on f32-representable data, and the end-to-end fitness
// of every variant stays close to the float64 run.

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/continuous_cpd.h"
#include "linalg/matrix32.h"
#include "linalg/rank_dispatch.h"
#include "linalg/simd.h"
#include "tensor/mttkrp.h"

namespace sns {
namespace {

TEST(Matrix32Test, MirrorsDoubleMatrixExactly) {
  Rng rng(7);
  Matrix m = Matrix::RandomNormal(5, 11, rng);
  Matrix32 m32(5, 11);
  m32.AssignFromDouble(m);
  ASSERT_EQ(m32.rows(), 5);
  ASSERT_EQ(m32.cols(), 11);
  EXPECT_EQ(m32.stride() % 8, 0);
  EXPECT_GE(m32.stride(), PaddedRank(11));
  for (int64_t i = 0; i < 5; ++i) {
    for (int64_t j = 0; j < 11; ++j) {
      EXPECT_EQ(m32(i, j), static_cast<float>(m(i, j)));
    }
  }
  EXPECT_TRUE(m32.PaddingIsZero());
}

TEST(Matrix32Test, F32KernelsMatchDoubleOnRepresentableData) {
  // Factors quantized through float32: the f32 widening kernels must agree
  // with the double kernels bitwise (widening a float is exact, and both
  // run the same double accumulation).
  Rng rng(13);
  for (const int64_t rank : {3l, 8l, 20l, 29l}) {
    const int64_t padded = PaddedRank(rank);
    Matrix a(4, rank), b(4, rank);
    for (int64_t i = 0; i < 4; ++i) {
      for (int64_t j = 0; j < rank; ++j) {
        a(i, j) = static_cast<double>(static_cast<float>(rng.Normal()));
        b(i, j) = static_cast<double>(static_cast<float>(rng.Normal()));
      }
    }
    Matrix32 a32(4, rank), b32(4, rank);
    a32.AssignFromDouble(a);
    b32.AssignFromDouble(b);

    const RankKernelTable& kr = GetRankKernelTable(padded);
    AlignedVector out_d(rank), out_f(rank);
    for (int64_t i = 0; i < 4; ++i) {
      kr.fill(out_d.data(), 1.0, padded);
      kr.fill(out_f.data(), 1.0, padded);
      kr.mul_accum(out_d.data(), a.Row(i), padded);
      kr.mul_accum_f32(out_f.data(), a32.Row(i), padded);
      for (int64_t r = 0; r < padded; ++r) {
        ASSERT_EQ(out_d.data()[r], out_f.data()[r])
            << "mul_accum rank " << rank;
      }

      kr.fill(out_d.data(), 0.5, padded);
      kr.fill(out_f.data(), 0.5, padded);
      kr.fma3(1.75, a.Row(i), b.Row(i), out_d.data(), padded);
      kr.fma3_f32(1.75, a32.Row(i), b32.Row(i), out_f.data(), padded);
      for (int64_t r = 0; r < padded; ++r) {
        ASSERT_EQ(out_d.data()[r], out_f.data()[r])
            << "fma3 rank " << rank;
      }
    }
  }
}

TEST(Matrix32Test, HadamardAndMttkrpRow32MatchDoublePath) {
  Rng rng(29);
  const int64_t rank = 7;
  const int64_t padded = PaddedRank(rank);
  std::vector<Matrix> factors;
  std::vector<Matrix32> factors32(3);
  const int64_t dims[3] = {5, 4, 3};
  for (int m = 0; m < 3; ++m) {
    Matrix f(dims[m], rank);
    for (int64_t i = 0; i < dims[m]; ++i) {
      for (int64_t j = 0; j < rank; ++j) {
        f(i, j) = static_cast<double>(static_cast<float>(rng.UniformDouble()));
      }
    }
    factors32[static_cast<size_t>(m)].AssignFromDouble(f);
    factors.push_back(std::move(f));
  }
  SparseTensor x({5, 4, 3});
  for (int n = 0; n < 25; ++n) {
    x.Add({static_cast<int32_t>(rng.UniformInt(0, 4)),
           static_cast<int32_t>(rng.UniformInt(0, 3)),
           static_cast<int32_t>(rng.UniformInt(0, 2))},
          rng.UniformDouble());
  }

  const RankKernelTable& kr = GetRankKernelTable(padded);
  AlignedVector out_d(rank), out_f(rank), had(rank);
  for (int mode = 0; mode < 3; ++mode) {
    HadamardRowProduct(factors, {1, 2, 0}, mode, out_d.data(), kr);
    HadamardRowProduct32(factors32, {1, 2, 0}, mode, out_f.data(), kr);
    for (int64_t r = 0; r < padded; ++r) {
      ASSERT_EQ(out_d.data()[r], out_f.data()[r]);
    }

    for (int64_t row = 0; row < dims[mode]; ++row) {
      MttkrpRow(x, factors, mode, row, out_d.data(), had.data(), kr);
      MttkrpRow32(x, factors32, mode, row, out_f.data(), had.data(), kr);
      for (int64_t r = 0; r < padded; ++r) {
        ASSERT_EQ(out_d.data()[r], out_f.data()[r]);
      }
    }
  }
}

// Shared synthetic pipeline for the end-to-end differentials.
std::unique_ptr<ContinuousCpd> RunPipeline(SnsVariant variant,
                                           FactorPrecision precision) {
  ContinuousCpdOptions options;
  options.rank = 4;
  options.window_size = 4;
  options.period = 10;
  options.variant = variant;
  options.sample_threshold = 10;
  options.clip_bound = 100.0;
  options.factor_precision = precision;
  options.init.max_iterations = 20;
  options.seed = 4242;
  auto created = ContinuousCpd::Create({8, 6}, options);
  SNS_CHECK(created.ok());
  std::unique_ptr<ContinuousCpd> engine = std::move(created).value();

  // Stationary low-rank stream (same construction per call: fixed seed).
  Rng rng(0xabc);
  const std::vector<std::vector<double>> mode0 = {
      {8, 4, 2, 1, 1, 1, 1, 1}, {1, 1, 1, 1, 2, 4, 8, 8}};
  const std::vector<std::vector<double>> mode1 = {
      {6, 3, 1, 1, 1, 1}, {1, 1, 1, 3, 6, 6}};
  auto next_tuple = [&](int64_t t) {
    const size_t c = rng.UniformDouble() < 0.6 ? 0 : 1;
    return Tuple{{static_cast<int32_t>(rng.Categorical(mode0[c])),
                  static_cast<int32_t>(rng.Categorical(mode1[c]))},
                 1.0, t};
  };
  int64_t t = 1;
  const int64_t warmup_end = 1 + options.window_size * options.period;
  for (; t <= warmup_end; ++t) engine->IngestOnly(next_tuple(t));
  engine->InitializeWithAls();
  for (; t <= warmup_end + 260; ++t) engine->ProcessTuple(next_tuple(t));
  return engine;
}

TEST(MixedPrecisionTest, FactorsStayFloat32RepresentableAndMirrored) {
  for (const SnsVariant variant :
       {SnsVariant::kVec, SnsVariant::kRndPlus, SnsVariant::kMat}) {
    SCOPED_TRACE(VariantName(variant));
    auto engine =
        RunPipeline(variant, FactorPrecision::kFloat32Accum64);
    const CpdState& state = engine->state();
    ASSERT_TRUE(state.mixed());
    ASSERT_EQ(state.factors32.size(),
              static_cast<size_t>(state.num_modes()));
    for (int m = 0; m < state.num_modes(); ++m) {
      const Matrix& f = state.model.factor(m);
      const Matrix32& f32 = state.factors32[static_cast<size_t>(m)];
      for (int64_t i = 0; i < f.rows(); ++i) {
        for (int64_t j = 0; j < f.cols(); ++j) {
          // Every double entry is exactly a float32 value...
          ASSERT_EQ(f(i, j),
                    static_cast<double>(static_cast<float>(f(i, j))));
          // ...and the mirror carries exactly that value.
          ASSERT_EQ(static_cast<double>(f32(i, j)), f(i, j));
        }
      }
      ASSERT_TRUE(f32.PaddingIsZero());
    }
  }
}

// Accuracy contract: on a well-conditioned stream the mixed-precision run
// tracks the float64 run's fitness closely for every variant. float32 has
// ~1e-7 relative rounding; the bound leaves room for accumulation across
// hundreds of events.
TEST(MixedPrecisionTest, FitnessDriftIsBoundedForEveryVariant) {
  for (const SnsVariant variant :
       {SnsVariant::kMat, SnsVariant::kVec, SnsVariant::kRnd,
        SnsVariant::kVecPlus, SnsVariant::kRndPlus}) {
    SCOPED_TRACE(VariantName(variant));
    auto f64 = RunPipeline(variant, FactorPrecision::kFloat64);
    auto mixed = RunPipeline(variant, FactorPrecision::kFloat32Accum64);
    const double fit64 = f64->Fitness();
    const double fit_mixed = mixed->Fitness();
    EXPECT_TRUE(std::isfinite(fit_mixed));
    EXPECT_NEAR(fit_mixed, fit64, 5e-3);
  }
}

TEST(MixedPrecisionTest, PrecisionNameAndDefault) {
  EXPECT_EQ(FactorPrecisionName(FactorPrecision::kFloat64), "f64");
  EXPECT_EQ(FactorPrecisionName(FactorPrecision::kFloat32Accum64), "f32a64");
  ContinuousCpdOptions options;
  EXPECT_EQ(options.factor_precision, FactorPrecision::kFloat64);
  EXPECT_FALSE(options.force_generic_kernels);
}

}  // namespace
}  // namespace sns
