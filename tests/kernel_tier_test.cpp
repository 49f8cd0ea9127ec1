// Runtime kernel-tier dispatch (common/cpu_features.h): probe sanity, the
// SNS_FORCE_GENERIC_KERNELS env override, the test hook that pins the
// process tier (and that the library kernels follow it), and the
// cross-tier consistency contract — on hosts without AVX2 an env-forced
// engine is bitwise identical to the auto-tier default.

#include <cmath>
#include <cstdlib>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpu_features.h"
#include "common/random.h"
#include "api/stream_handle.h"
#include "common/serial.h"
#include "core/continuous_cpd.h"
#include "core/cpd_state.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "linalg/rank_dispatch.h"
#include "linalg/simd.h"
#include "tensor/mttkrp.h"
#include "tensor/sparse_tensor.h"

namespace sns {
namespace {

// RAII env override + tier refresh, restoring the prior value on exit.
class ScopedForceGenericEnv {
 public:
  explicit ScopedForceGenericEnv(const char* value) {
    const char* old = std::getenv("SNS_FORCE_GENERIC_KERNELS");
    had_old_ = old != nullptr;
    if (had_old_) old_value_ = old;
    if (value != nullptr) {
      setenv("SNS_FORCE_GENERIC_KERNELS", value, /*overwrite=*/1);
    } else {
      unsetenv("SNS_FORCE_GENERIC_KERNELS");
    }
    internal::RefreshKernelTierForTest();
  }
  ~ScopedForceGenericEnv() {
    if (had_old_) {
      setenv("SNS_FORCE_GENERIC_KERNELS", old_value_.c_str(), 1);
    } else {
      unsetenv("SNS_FORCE_GENERIC_KERNELS");
    }
    internal::RefreshKernelTierForTest();
  }

 private:
  bool had_old_ = false;
  std::string old_value_;
};

TEST(CpuFeaturesTest, ProbeIsConsistent) {
  const CpuFeatures f = DetectCpuFeatures();
  // Feature implications on real hardware: avx512f ⊂ avx2 ⊂ avx ⊂ sse4.2.
  if (f.avx512f) {
    EXPECT_TRUE(f.avx2);
  }
  if (f.avx2) {
    EXPECT_TRUE(f.avx);
  }
  if (f.avx) {
    EXPECT_TRUE(f.sse42);
  }
  EXPECT_FALSE(CpuFeaturesSummary().empty());
}

TEST(CpuFeaturesTest, GenericTierAlwaysAvailable) {
  EXPECT_TRUE(KernelTierCompiledIn(KernelTier::kGeneric));
  EXPECT_TRUE(KernelTierSupported(KernelTier::kGeneric));
  EXPECT_STREQ(KernelTierName(KernelTier::kGeneric), "generic");
  EXPECT_STREQ(KernelTierName(KernelTier::kAvx2), "avx2");
  EXPECT_STREQ(KernelTierName(KernelTier::kAvx512), "avx512");
}

TEST(CpuFeaturesTest, AutoTierIsSupportedAndCompiledIn) {
  const KernelTier tier = ResolveKernelTier();
  EXPECT_TRUE(KernelTierCompiledIn(tier));
  EXPECT_TRUE(KernelTierSupported(tier));
}

TEST(CpuFeaturesTest, EnvOverrideForcesGeneric) {
  ScopedForceGenericEnv env("1");
  EXPECT_EQ(ResolveKernelTier(), KernelTier::kGeneric);
}

TEST(CpuFeaturesTest, EnvZeroDoesNotForce) {
  const KernelTier unforced = [] {
    ScopedForceGenericEnv env(nullptr);
    return ResolveKernelTier();
  }();
  ScopedForceGenericEnv env("0");
  EXPECT_EQ(ResolveKernelTier(), unforced);
}

TEST(CpuFeaturesTest, TestHookPinsEverySupportedTier) {
  ScopedForceGenericEnv env(nullptr);  // Restores the env tier on exit.
  const KernelTier unforced = ResolveKernelTier();
  for (const KernelTier tier :
       {KernelTier::kGeneric, KernelTier::kAvx2, KernelTier::kAvx512}) {
    if (!KernelTierSupported(tier)) continue;
    internal::RefreshKernelTierForTest(tier);
    EXPECT_EQ(ResolveKernelTier(), tier);
    EXPECT_EQ(GetRankKernelTable(PaddedRank(20)).tier, tier);
  }
  internal::RefreshKernelTierForTest();
  EXPECT_EQ(ResolveKernelTier(), unforced);
}

TEST(KernelTierTableTest, TierFieldMatchesRequest) {
  for (const int64_t padded : {0l, 8l, 20l, 32l}) {
    const RankKernelTable& generic =
        GetRankKernelTable(padded, KernelTier::kGeneric);
    EXPECT_EQ(generic.tier, KernelTier::kGeneric);
    EXPECT_EQ(generic.padded_rank, padded);
    // Unavailable tiers fall back to generic; available ones must report
    // the tier they were asked for.
    for (const KernelTier tier : {KernelTier::kAvx2, KernelTier::kAvx512}) {
      const RankKernelTable& t = GetRankKernelTable(padded, tier);
      EXPECT_EQ(t.padded_rank, padded);
      if (KernelTierCompiledIn(tier)) {
        EXPECT_EQ(t.tier, tier);
      } else {
        EXPECT_EQ(t.tier, KernelTier::kGeneric);
      }
    }
  }
}

// The library kernels have one form, which resolves its table per call: at
// every pinned tier they must reproduce, bit for bit, the same algorithm
// run through that tier's own table primitives.
TEST(KernelTierTableTest, LibraryKernelsFollowThePinnedTier) {
  ScopedForceGenericEnv env(nullptr);  // Restores the env tier on exit.
  constexpr int64_t kRank = 13;        // Padded 16: a specialized table.
  const int64_t padded = PaddedRank(kRank);
  Rng rng(91);
  const std::vector<int64_t> dims = {6, 5, 4};
  std::vector<Matrix> factors;
  for (const int64_t dim : dims) {
    factors.push_back(Matrix::RandomNormal(dim, kRank, rng));
  }
  SparseTensor x(dims);
  for (int i = 0; i < 40; ++i) {
    x.Set({static_cast<int32_t>(rng.UniformInt(0, 5)),
           static_cast<int32_t>(rng.UniformInt(0, 4)),
           static_cast<int32_t>(rng.UniformInt(0, 3))},
          rng.UniformDouble(0.5, 2.0));
  }
  const Matrix a = Matrix::RandomNormal(3 * kRank, kRank, rng);
  Matrix spd = MultiplyTransposeA(a, a);
  for (int64_t i = 0; i < kRank; ++i) spd(i, i) += 1.0;
  const Matrix base_gram = spd;
  AlignedVector old_row(kRank), new_row(kRank), b(kRank);
  for (int64_t r = 0; r < kRank; ++r) {
    old_row[r] = rng.Normal();
    new_row[r] = rng.Normal();
    b[r] = rng.Normal();
  }
  const ModeIndex cell{2, 3, 1};

  for (const KernelTier tier :
       {KernelTier::kGeneric, KernelTier::kAvx2, KernelTier::kAvx512}) {
    if (!KernelTierSupported(tier)) continue;
    SCOPED_TRACE(KernelTierName(tier));
    internal::RefreshKernelTierForTest(tier);
    const RankKernelTable& kr = GetRankKernelTable(padded, tier);
    const RankKernelTable& rt = GetRankKernelTable(0, tier);

    // HadamardRowProduct: ones, then each other mode's row multiplied in.
    AlignedVector had(kRank), expected(kRank);
    HadamardRowProduct(factors, cell, /*skip_mode=*/1, had.data());
    for (int64_t r = 0; r < kRank; ++r) expected[r] = 1.0;
    kr.mul_accum(expected.data(), factors[0].Row(cell[0]), padded);
    kr.mul_accum(expected.data(), factors[2].Row(cell[2]), padded);
    for (int64_t r = 0; r < padded; ++r) {
      ASSERT_EQ(had.data()[r], expected.data()[r]) << r;
    }

    // MttkrpRow (3 modes): one fused fma3 per slice entry, in slice order.
    AlignedVector out(kRank), scratch(kRank);
    for (int64_t row = 0; row < dims[0]; ++row) {
      MttkrpRow(x, factors, /*mode=*/0, row, out.data(), scratch.data());
      kr.fill(expected.data(), 0.0, padded);
      for (const SparseTensor::SliceEntry entry : x.Slice(0, row)) {
        kr.fma3(entry.value, factors[1].Row(entry.coords[1]),
                factors[2].Row(entry.coords[2]), expected.data(), padded);
      }
      for (int64_t r = 0; r < padded; ++r) {
        ASSERT_EQ(out.data()[r], expected.data()[r]) << row << ", " << r;
      }
    }

    // ApplyGramRowUpdate: one delta per element, its subtraction fused into
    // the second product on the intrinsic tiers.
    Matrix gram = base_gram, expected_gram = base_gram;
    ApplyGramRowUpdate(gram, old_row.data(), new_row.data());
    for (int64_t i = 0; i < kRank; ++i) {
      for (int64_t j = 0; j < kRank; ++j) {
        const double fresh = new_row[i] * new_row[j];
        expected_gram(i, j) +=
            tier == KernelTier::kGeneric
                ? fresh - old_row[i] * old_row[j]
                : std::fma(-old_row[i], old_row[j], fresh);
      }
    }
    ASSERT_EQ(MaxAbsDiff(gram, expected_gram), 0.0);

    // The Cholesky pair: row-suffix axpys and dots of the runtime-length
    // table (linalg/cholesky.cpp).
    Matrix upper(kRank, kRank), expected_upper(kRank, kRank);
    ASSERT_TRUE(CholeskyFactorizeUpperInto(spd, upper));
    for (int64_t i = 0; i < kRank; ++i) {
      for (int64_t j = i; j < kRank; ++j) expected_upper(i, j) = spd(i, j);
    }
    for (int64_t k = 0; k < kRank; ++k) {
      double* row_k = expected_upper.Row(k);
      row_k[k] = std::sqrt(row_k[k]);
      const double inv = 1.0 / row_k[k];
      for (int64_t j = k + 1; j < kRank; ++j) row_k[j] *= inv;
      for (int64_t i = k + 1; i < kRank; ++i) {
        if (row_k[i] == 0.0) continue;
        rt.axpy(-row_k[i], row_k + i, expected_upper.Row(i) + i, kRank - i);
      }
    }
    for (int64_t i = 0; i < kRank; ++i) {
      for (int64_t j = i; j < kRank; ++j) {
        ASSERT_EQ(upper(i, j), expected_upper(i, j)) << i << ", " << j;
      }
    }
    AlignedVector solved(kRank), expected_x(kRank);
    for (int64_t r = 0; r < kRank; ++r) solved[r] = expected_x[r] = b[r];
    CholeskySolveUpperInPlace(upper, solved.data());
    double* y = expected_x.data();
    for (int64_t k = 0; k < kRank; ++k) {
      const double* row = expected_upper.Row(k);
      y[k] /= row[k];
      rt.axpy(-y[k], row + k + 1, y + k + 1, kRank - k - 1);
    }
    for (int64_t i = kRank - 1; i >= 0; --i) {
      const double* row = expected_upper.Row(i);
      y[i] = (y[i] - rt.dot(row + i + 1, y + i + 1, kRank - i - 1)) / row[i];
    }
    for (int64_t r = 0; r < kRank; ++r) ASSERT_EQ(solved[r], y[r]) << r;
  }
}

// Runs one engine over a synthetic stream (warm-up + ALS init + live
// events) at the current process tier and returns the final factors.
std::vector<Matrix> RunEngine(ContinuousCpdOptions options) {
  options.rank = 6;
  options.window_size = 4;
  options.period = 5;
  auto created = ContinuousCpd::Create({7, 9}, options);
  SNS_CHECK(created.ok());
  std::unique_ptr<ContinuousCpd> engine = std::move(created).value();
  Rng rng(0xfeed);
  auto next_tuple = [&](int64_t t) {
    return Tuple{{static_cast<int32_t>(rng.UniformInt(0, 6)),
                  static_cast<int32_t>(rng.UniformInt(0, 8))},
                 rng.UniformDouble(), t};
  };
  int64_t t = 1;
  const int64_t warmup_end = 1 + options.window_size * options.period;
  for (; t <= warmup_end; ++t) engine->IngestOnly(next_tuple(t));
  engine->InitializeWithAls();
  for (; t <= warmup_end + 120; ++t) engine->ProcessTuple(next_tuple(t));
  std::vector<Matrix> factors;
  for (int m = 0; m < engine->state().num_modes(); ++m) {
    factors.push_back(engine->state().model.factor(m));
  }
  return factors;
}

void ExpectBitwiseEqual(const std::vector<Matrix>& a,
                        const std::vector<Matrix>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t m = 0; m < a.size(); ++m) {
    ASSERT_EQ(a[m].rows(), b[m].rows());
    ASSERT_EQ(a[m].cols(), b[m].cols());
    for (int64_t i = 0; i < a[m].rows(); ++i) {
      for (int64_t j = 0; j < a[m].cols(); ++j) {
        ASSERT_EQ(a[m](i, j), b[m](i, j))
            << "mode " << m << " (" << i << "," << j << ")";
      }
    }
  }
}

// On hosts without a usable AVX2 tier the auto tier IS generic, so forcing
// must change nothing at all.
TEST(ForcedGenericTest, ForcedMatchesAutoWhenHostLacksAvx2) {
  if (KernelTierSupported(KernelTier::kAvx2) &&
      KernelTierCompiledIn(KernelTier::kAvx2)) {
    GTEST_SKIP() << "host dispatches AVX2; auto != generic by design";
  }
  ContinuousCpdOptions options;
  options.variant = SnsVariant::kRndPlus;
  options.sample_threshold = 3;
  std::vector<Matrix> auto_tier;
  {
    ScopedForceGenericEnv env(nullptr);
    auto_tier = RunEngine(options);
  }
  std::vector<Matrix> forced;
  {
    ScopedForceGenericEnv env("1");
    forced = RunEngine(options);
  }
  ExpectBitwiseEqual(auto_tier, forced);
}

// A checkpoint taken on the AVX2 tier continues on the AVX-512 tier
// bitwise: the two tables return the same bits from every slot, so a stream
// can move between hosts of either tier mid-trajectory. Half of the live
// stream runs pinned to AVX2, is checkpointed, restored pinned to AVX-512
// and fed the rest; its state must equal an uninterrupted AVX-512 run, for
// the Gaussian SNS+RND and the Poisson SNS+VEC rule at R = 20.

// 600 tuples on a 12 × 10 grid, four per time unit, counts 1..4, from a
// 64-bit LCG.
std::vector<Tuple> CrossTierStream() {
  std::vector<Tuple> tuples;
  uint64_t x = 0x5eedc0deull;
  auto next = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 33;
  };
  for (int k = 0; k < 600; ++k) {
    ModeIndex index;
    index.PushBack(static_cast<int32_t>(next() % 12));
    index.PushBack(static_cast<int32_t>(next() % 10));
    tuples.push_back(
        Tuple{index, static_cast<double>(1 + next() % 4), 1 + k / 4});
  }
  return tuples;
}

std::string SerializedState(const StreamHandle& handle) {
  serial::StringSink sink;
  serial::Writer writer(sink);
  SNS_CHECK(handle.SerializeState(writer).ok());
  return sink.TakeData();
}

// The stream's state after its warm-up, initialization and first `split`
// live tuples at `first`, then the rest: restored from a checkpoint at
// `second` when one is given, uninterrupted otherwise.
std::string RunAcrossTiers(const ContinuousCpdOptions& options,
                           KernelTier first, std::optional<KernelTier> second,
                           size_t split) {
  const std::vector<Tuple> tuples = CrossTierStream();
  const std::span<const Tuple> all(tuples);
  size_t warm = 0;
  while (warm < all.size() &&
         all[warm].time <= options.window_size * options.period) {
    ++warm;
  }
  const std::span<const Tuple> live = all.subspan(warm);
  internal::RefreshKernelTierForTest(first);
  auto handle = StreamHandle::Create("cross-tier", {12, 10}, options);
  SNS_CHECK(handle.ok());
  SNS_CHECK(handle.value().Warmup(all.subspan(0, warm)).ok());
  SNS_CHECK(handle.value().Initialize().ok());
  SNS_CHECK(handle.value().Ingest(live.subspan(0, split)).ok());
  std::string state;
  if (second.has_value()) {
    serial::StringSink checkpoint;
    SNS_CHECK(handle.value().Checkpoint(checkpoint).ok());
    internal::RefreshKernelTierForTest(*second);
    serial::StringSource source(checkpoint.data());
    auto restored = StreamHandle::Restore(source);
    SNS_CHECK(restored.ok());
    SNS_CHECK(restored.value().Ingest(live.subspan(split)).ok());
    state = SerializedState(restored.value());
  } else {
    SNS_CHECK(handle.value().Ingest(live.subspan(split)).ok());
    state = SerializedState(handle.value());
  }
  internal::RefreshKernelTierForTest();
  return state;
}

TEST(CrossTierCheckpointTest, Avx2CheckpointContinuesBitwiseOnAvx512) {
  if (!KernelTierSupported(KernelTier::kAvx2) ||
      !KernelTierSupported(KernelTier::kAvx512)) {
    GTEST_SKIP() << "host or build lacks an intrinsic tier";
  }
  ScopedForceGenericEnv env(nullptr);  // Restores the env tier on exit.
  ContinuousCpdOptions rnd;
  rnd.rank = 20;
  rnd.window_size = 3;
  rnd.period = 10;
  rnd.variant = SnsVariant::kRndPlus;
  rnd.sample_threshold = 3;
  rnd.clip_bound = 2.0;
  rnd.seed = 29;
  ContinuousCpdOptions poisson = rnd;
  poisson.variant = SnsVariant::kVecPlus;
  poisson.loss = LossKind::kPoisson;
  for (const ContinuousCpdOptions& options : {rnd, poisson}) {
    SCOPED_TRACE(VariantName(options.variant));
    const size_t half = 240;  // Of the 480 live tuples.
    EXPECT_EQ(RunAcrossTiers(options, KernelTier::kAvx2, KernelTier::kAvx512,
                             half),
              RunAcrossTiers(options, KernelTier::kAvx512, std::nullopt, half));
  }
}

}  // namespace
}  // namespace sns
