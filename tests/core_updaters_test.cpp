// Correctness tests for the five SliceNStitch updaters (Algorithms 2-5).

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "api/stream_handle.h"
#include "common/cpu_features.h"
#include "common/random.h"
#include "common/serial.h"
#include "core/als.h"
#include "core/cpd_state.h"
#include "core/continuous_cpd.h"
#include "core/gram_solve.h"
#include "core/row_updater.h"
#include "core/sns_mat.h"
#include "tensor/mttkrp.h"

namespace sns {
namespace {

// Window tensor equal to the dense values of `model` (so X̃ = X exactly).
SparseTensor DenseWindowFromModel(const KruskalModel& model) {
  std::vector<int64_t> dims;
  for (int m = 0; m < model.num_modes(); ++m) {
    dims.push_back(model.factor(m).rows());
  }
  SparseTensor x(dims);
  ModeIndex index;
  for (size_t m = 0; m < dims.size(); ++m) index.PushBack(0);
  while (true) {
    x.Set(index, model.Evaluate(index));
    int m = static_cast<int>(dims.size()) - 1;
    while (m >= 0) {
      if (++index[m] < dims[static_cast<size_t>(m)]) break;
      index[m] = 0;
      --m;
    }
    if (m < 0) break;
  }
  return x;
}

// Applies an arrival delta of value v at (i0, i1, W-1) to `window` and
// returns the WindowDelta describing it.
WindowDelta MakeArrival(SparseTensor& window, int32_t i0, int32_t i1,
                        double v, int w_size) {
  WindowDelta delta;
  delta.kind = EventKind::kArrival;
  delta.w = 0;
  delta.time = 0;
  delta.tuple = Tuple{{i0, i1}, v, 0};
  const ModeIndex cell = ModeIndex{i0, i1}.WithAppended(w_size - 1);
  window.Add(cell, v);
  delta.cells.push_back({cell, v});
  return delta;
}

// Applies a slide delta (w-th update) for tuple (i0, i1, v) to `window`.
WindowDelta MakeSlide(SparseTensor& window, int32_t i0, int32_t i1, double v,
                      int w, int w_size) {
  WindowDelta delta;
  delta.kind = EventKind::kSlide;
  delta.w = w;
  delta.time = 0;
  delta.tuple = Tuple{{i0, i1}, v, 0};
  const ModeIndex from = ModeIndex{i0, i1}.WithAppended(w_size - w);
  const ModeIndex to = ModeIndex{i0, i1}.WithAppended(w_size - w - 1);
  window.Add(from, -v);
  window.Add(to, v);
  delta.cells.push_back({from, -v});
  delta.cells.push_back({to, v});
  return delta;
}

// Options that build the row updater of `variant` with threshold θ, clip
// bound η and a θ-sampling Rng seeded `rng_seed` (RowUpdater seeds its Rng
// with options.seed + 1).
ContinuousCpdOptions RowOptions(SnsVariant variant, int64_t theta = 20,
                                double eta = 1000.0, uint64_t rng_seed = 1) {
  ContinuousCpdOptions options;
  options.variant = variant;
  options.sample_threshold = theta;
  options.clip_bound = eta;
  options.seed = rng_seed - 1;
  return options;
}

double GramDrift(const CpdState& state) {
  double drift = 0.0;
  for (int m = 0; m < state.num_modes(); ++m) {
    Matrix expected =
        MultiplyTransposeA(state.model.factor(m), state.model.factor(m));
    drift = std::max(
        drift, MaxAbsDiff(state.grams[static_cast<size_t>(m)], expected));
  }
  return drift;
}

TEST(SnsMatTest, EventEqualsOneNormalizedAlsSweep) {
  Rng rng(21);
  const std::vector<int64_t> dims = {4, 3, 5};
  KruskalModel start = KruskalModel::Random(dims, 2, rng);
  SparseTensor window = DenseWindowFromModel(KruskalModel::Random(dims, 2, rng));

  CpdState state_updater(start);
  CpdState state_reference(start);

  WindowDelta delta = MakeArrival(window, 1, 2, 3.0, 5);
  // Reference sees the same post-delta window.
  SnsMatUpdater updater;
  updater.OnEvent(window, delta, state_updater);
  AlsSweep(window, state_reference);

  for (int m = 0; m < 3; ++m) {
    EXPECT_LT(MaxAbsDiff(state_updater.model.factor(m),
                         state_reference.model.factor(m)),
              1e-12);
  }
  for (int64_t r = 0; r < 2; ++r) {
    EXPECT_DOUBLE_EQ(state_updater.model.lambda()[static_cast<size_t>(r)],
                     state_reference.model.lambda()[static_cast<size_t>(r)]);
  }
}

TEST(SnsMatTest, SkipsZeroValuedEvents) {
  Rng rng(22);
  const std::vector<int64_t> dims = {3, 3, 3};
  CpdState state(KruskalModel::Random(dims, 2, rng));
  KruskalModel before = state.model;
  SparseTensor window(dims);
  WindowDelta empty_delta;  // No cells.
  SnsMatUpdater updater;
  updater.OnEvent(window, empty_delta, state);
  for (int m = 0; m < 3; ++m) {
    EXPECT_LT(MaxAbsDiff(state.model.factor(m), before.factor(m)), 1e-15);
  }
}

// Under a perfect model (X̃ = X, H nonsingular), Eq. 9's incremental time-
// mode update must coincide with the exact row least squares (Eq. 6/12).
TEST(SnsVecTest, TimeModeShortcutMatchesExactSolveUnderPerfectModel) {
  Rng rng(23);
  const int w_size = 4;
  const std::vector<int64_t> dims = {3, 4, w_size};
  KruskalModel model = KruskalModel::Random(dims, 2, rng);
  SparseTensor window = DenseWindowFromModel(model);
  CpdState state(model);

  WindowDelta delta = MakeArrival(window, 2, 1, 5.0, w_size);

  // Expected: exact solve of the affected time row with the pre-event
  // factors (the time mode is updated first, so these are current).
  std::vector<double> b(PaddedRank(2)), expected(2);
  MttkrpRow(window, state.model.factors(), 2, w_size - 1, b.data());
  Matrix h = HadamardOfGramsExcept(state.grams, 2);
  SolveRowAgainstGram(h, b.data(), expected.data());

  RowUpdater updater(RowOptions(SnsVariant::kVec));
  updater.OnEvent(window, delta, state);

  const double* actual = state.model.factor(2).Row(w_size - 1);
  EXPECT_NEAR(actual[0], expected[0], 1e-8);
  EXPECT_NEAR(actual[1], expected[1], 1e-8);
}

// After an SNS-VEC event the final non-time row satisfies its normal
// equations exactly: A(m)(i,:) H = (X+ΔX)_(m)(i,:) K with everything at its
// final value (mode 1 is updated last in a 3-mode tensor).
TEST(SnsVecTest, LastNonTimeRowSatisfiesNormalEquations) {
  Rng rng(24);
  const int w_size = 3;
  const std::vector<int64_t> dims = {4, 5, w_size};
  KruskalModel model = KruskalModel::Random(dims, 2, rng);
  SparseTensor window = DenseWindowFromModel(model);
  CpdState state(model);

  WindowDelta delta = MakeSlide(window, 3, 2, 2.0, 1, w_size);
  RowUpdater updater(RowOptions(SnsVariant::kVec));
  updater.OnEvent(window, delta, state);

  std::vector<double> rhs(PaddedRank(2));
  MttkrpRow(window, state.model.factors(), 1, 2, rhs.data());
  Matrix h = HadamardOfGramsExcept(state.grams, 1);
  const double* row = state.model.factor(1).Row(2);
  for (int64_t k = 0; k < 2; ++k) {
    double lhs = row[0] * h(0, k) + row[1] * h(1, k);
    EXPECT_NEAR(lhs, rhs[static_cast<size_t>(k)], 1e-8);
  }
}

TEST(SnsVecTest, OnlyAffectedRowsChange) {
  Rng rng(25);
  const int w_size = 4;
  const std::vector<int64_t> dims = {5, 6, w_size};
  KruskalModel model = KruskalModel::Random(dims, 3, rng);
  SparseTensor window = DenseWindowFromModel(model);
  CpdState state(model);
  KruskalModel before = state.model;

  WindowDelta delta = MakeArrival(window, 2, 4, 1.5, w_size);
  RowUpdater updater(RowOptions(SnsVariant::kVec));
  updater.OnEvent(window, delta, state);

  for (int64_t i = 0; i < 5; ++i) {
    if (i == 2) continue;
    for (int64_t r = 0; r < 3; ++r) {
      EXPECT_EQ(state.model.factor(0)(i, r), before.factor(0)(i, r));
    }
  }
  for (int64_t i = 0; i < 6; ++i) {
    if (i == 4) continue;
    for (int64_t r = 0; r < 3; ++r) {
      EXPECT_EQ(state.model.factor(1)(i, r), before.factor(1)(i, r));
    }
  }
  for (int64_t t = 0; t < w_size - 1; ++t) {  // Only row W-1 changes.
    for (int64_t r = 0; r < 3; ++r) {
      EXPECT_EQ(state.model.factor(2)(t, r), before.factor(2)(t, r));
    }
  }
}

TEST(SnsVecTest, GramsStayConsistentAcrossEvents) {
  Rng rng(26);
  const int w_size = 3;
  const std::vector<int64_t> dims = {4, 4, w_size};
  KruskalModel model = KruskalModel::Random(dims, 2, rng);
  SparseTensor window = DenseWindowFromModel(model);
  CpdState state(model);
  RowUpdater updater(RowOptions(SnsVariant::kVec));

  for (int step = 0; step < 50; ++step) {
    WindowDelta delta =
        MakeArrival(window, static_cast<int32_t>(rng.UniformInt(0, 3)),
                    static_cast<int32_t>(rng.UniformInt(0, 3)),
                    rng.UniformDouble(0.5, 2.0), w_size);
    updater.OnEvent(window, delta, state);
  }
  EXPECT_LT(GramDrift(state), 1e-6);
}

// A drifted Gram makes the event's first factorization fail; the row
// updater resyncs every Gram from the factors before solving. The factors
// are 0/1 matrices and the event keeps every value dyadic, so Eq. 13's
// incremental commits after the resync are exact, and the Grams after the
// event equal a fresh recomputation bit for bit.
TEST(SnsVecTest, FailedFactorizationResyncsDriftedGrams) {
  const int w_size = 2;
  Matrix time_factor(w_size, 2);
  time_factor(0, 1) = 1.0;
  time_factor(1, 0) = 1.0;
  KruskalModel model({Matrix::Identity(2), Matrix::Identity(2), time_factor});
  SparseTensor window = DenseWindowFromModel(model);
  CpdState state(model);
  // Drift Q(0) = I into diag(1, −1): H(time) = Q(0) ∗ Q(1) is indefinite.
  state.grams[0](1, 1) = -1.0;
  RowUpdater updater(RowOptions(SnsVariant::kVec));

  const WindowDelta delta = MakeArrival(window, 0, 0, 1.0, w_size);
  updater.OnEvent(window, delta, state);

  EXPECT_EQ(state.model.factor(2)(1, 0), 2.0);  // Eq. 9 with H = I.
  CpdState fresh = state;
  fresh.RecomputeGrams();
  for (int m = 0; m < 3; ++m) {
    const Matrix& gram = state.grams[static_cast<size_t>(m)];
    const Matrix& expected = fresh.grams[static_cast<size_t>(m)];
    for (int64_t i = 0; i < 2; ++i) {
      for (int64_t j = 0; j < 2; ++j) {
        EXPECT_EQ(std::bit_cast<uint64_t>(gram(i, j)),
                  std::bit_cast<uint64_t>(expected(i, j)))
            << "mode " << m << " (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(SnsRndTest, ExactPathWhenDegreeBelowThreshold) {
  // With θ larger than any slice degree, SNS-RND uses Eq. 12 for every mode
  // — the update must then equal SNS-VEC's on non-time rows.
  Rng rng(27);
  const int w_size = 3;
  const std::vector<int64_t> dims = {4, 5, w_size};
  KruskalModel model = KruskalModel::Random(dims, 2, rng);
  SparseTensor window_rnd = DenseWindowFromModel(model);
  SparseTensor window_vec = DenseWindowFromModel(model);
  CpdState state_rnd(model);
  CpdState state_vec(model);

  RowUpdater rnd(RowOptions(SnsVariant::kRnd, /*theta=*/10000));
  RowUpdater vec(RowOptions(SnsVariant::kVec));
  WindowDelta delta_rnd = MakeArrival(window_rnd, 1, 3, 2.0, w_size);
  WindowDelta delta_vec = MakeArrival(window_vec, 1, 3, 2.0, w_size);
  rnd.OnEvent(window_rnd, delta_rnd, state_rnd);
  vec.OnEvent(window_vec, delta_vec, state_vec);

  // Time rows may differ (Eq. 12 vs Eq. 9) but under the perfect model they
  // agree too; non-time rows must match given identical time rows.
  for (int m = 0; m < 3; ++m) {
    EXPECT_LT(
        MaxAbsDiff(state_rnd.model.factor(m), state_vec.model.factor(m)),
        1e-7)
        << "mode " << m;
  }
}

TEST(SnsRndTest, SampledPathKeepsGramsAndPrevGramsConsistent) {
  Rng rng(28);
  const int w_size = 3;
  const std::vector<int64_t> dims = {4, 4, w_size};
  KruskalModel model = KruskalModel::Random(dims, 2, rng);
  SparseTensor window = DenseWindowFromModel(model);
  CpdState state(model);
  // θ = 3 forces sampling.
  RowUpdater updater(RowOptions(SnsVariant::kRnd, /*theta=*/3, /*eta=*/1000.0,
                                /*rng_seed=*/2));

  for (int step = 0; step < 40; ++step) {
    WindowDelta delta =
        MakeArrival(window, static_cast<int32_t>(rng.UniformInt(0, 3)),
                    static_cast<int32_t>(rng.UniformInt(0, 3)),
                    rng.UniformDouble(0.5, 1.5), w_size);
    updater.OnEvent(window, delta, state);
    ASSERT_LT(GramDrift(state), 1e-5) << "step " << step;
  }
}

TEST(CoordinateDescentTest, ClipsToBound) {
  Matrix hq = Matrix::Identity(3);
  // Padded contract: `row` spans hq.stride() doubles, padding at 0.0.
  double row[4] = {0.0, 0.0, 0.0, 0.0};
  double numerator[3] = {100.0, -50.0, 0.5};
  CoordinateDescentRow(row, 3, hq, numerator, -1.0, 1.0);
  EXPECT_DOUBLE_EQ(row[0], 1.0);
  EXPECT_DOUBLE_EQ(row[1], -1.0);
  EXPECT_DOUBLE_EQ(row[2], 0.5);
}

TEST(CoordinateDescentTest, SkipsDeadComponents) {
  Matrix hq(2, 2);  // All zero: both components dead.
  double row[4] = {0.25, -0.75, 0.0, 0.0};
  double numerator[2] = {10.0, 10.0};
  CoordinateDescentRow(row, 2, hq, numerator, -5.0, 5.0);
  EXPECT_DOUBLE_EQ(row[0], 0.25);
  EXPECT_DOUBLE_EQ(row[1], -0.75);
}

// Coordinate descent with the Eq. 21 numerator solves the row least-squares
// problem exactly when run to convergence — one pass already matches the
// closed-form solve when HQ is diagonal; for general HQ, iterating must
// monotonically decrease ‖b − row·K'‖ measured through the normal equations.
TEST(CoordinateDescentTest, ReducesRowObjective) {
  Rng rng(29);
  Matrix k = Matrix::RandomNormal(12, 3, rng);   // Khatri-Rao stand-in.
  Matrix hq = MultiplyTransposeA(k, k);          // Gram of K.
  std::vector<double> target(12);
  for (auto& t : target) t = rng.Normal();
  // numerator_k = Σ_J x_J K(J,k) (Eq. 21 data term).
  std::vector<double> numerator(3, 0.0);
  for (int64_t j = 0; j < 12; ++j) {
    for (int64_t r = 0; r < 3; ++r) {
      numerator[static_cast<size_t>(r)] +=
          target[static_cast<size_t>(j)] * k(j, r);
    }
  }
  auto objective = [&](const double* row) {
    double obj = 0.0;
    for (int64_t j = 0; j < 12; ++j) {
      double approx = 0.0;
      for (int64_t r = 0; r < 3; ++r) approx += row[r] * k(j, r);
      const double diff = target[static_cast<size_t>(j)] - approx;
      obj += diff * diff;
    }
    return obj;
  };

  double row[4] = {rng.Normal(), rng.Normal(), rng.Normal(), 0.0};
  double previous = objective(row);
  for (int pass = 0; pass < 100; ++pass) {
    CoordinateDescentRow(row, 3, hq, numerator.data(), -1e6, 1e6);
    const double current = objective(row);
    EXPECT_LE(current, previous + 1e-9) << "pass " << pass;
    previous = current;
  }
  // Converges (linearly) to the closed-form least-squares solution.
  double expected[3];
  SolveRowAgainstGram(hq, numerator.data(), expected);
  EXPECT_NEAR(objective(row), objective(expected),
              1e-6 * (1.0 + objective(expected)));
}

TEST(SnsVecPlusTest, EntriesBoundedByEta) {
  Rng rng(30);
  const int w_size = 3;
  const std::vector<int64_t> dims = {4, 4, w_size};
  KruskalModel model = KruskalModel::Random(dims, 2, rng);
  SparseTensor window = DenseWindowFromModel(model);
  CpdState state(model);
  const double eta = 0.6;
  RowUpdater updater(RowOptions(SnsVariant::kVecPlus, /*theta=*/20, eta));

  for (int step = 0; step < 60; ++step) {
    WindowDelta delta =
        MakeArrival(window, static_cast<int32_t>(rng.UniformInt(0, 3)),
                    static_cast<int32_t>(rng.UniformInt(0, 3)),
                    rng.UniformDouble(2.0, 8.0), w_size);
    updater.OnEvent(window, delta, state);
  }
  // Initial entries were in [0,1); every updated entry is clipped to ±η, so
  // nothing may exceed max(1, η).
  for (int m = 0; m < 3; ++m) {
    EXPECT_LE(state.model.factor(m).MaxAbs(), std::max(1.0, eta) + 1e-12);
  }
  EXPECT_LT(GramDrift(state), 1e-6);
}

TEST(SnsRndPlusTest, GramsAndBoundsHoldUnderSampling) {
  Rng rng(31);
  const int w_size = 3;
  const std::vector<int64_t> dims = {5, 5, w_size};
  KruskalModel model = KruskalModel::Random(dims, 3, rng);
  SparseTensor window = DenseWindowFromModel(model);
  CpdState state(model);
  RowUpdater updater(RowOptions(SnsVariant::kRndPlus, /*theta=*/4,
                                /*eta=*/50.0, /*rng_seed=*/3));

  for (int step = 0; step < 60; ++step) {
    WindowDelta delta =
        step % 3 == 0
            ? MakeSlide(window, static_cast<int32_t>(rng.UniformInt(0, 4)),
                        static_cast<int32_t>(rng.UniformInt(0, 4)),
                        rng.UniformDouble(0.5, 2.0), 1 + step % 2, w_size)
            : MakeArrival(window, static_cast<int32_t>(rng.UniformInt(0, 4)),
                          static_cast<int32_t>(rng.UniformInt(0, 4)),
                          rng.UniformDouble(0.5, 2.0), w_size);
    updater.OnEvent(window, delta, state);
    ASSERT_LT(GramDrift(state), 1e-5) << "step " << step;
    for (int m = 0; m < 3; ++m) {
      ASSERT_LE(state.model.factor(m).MaxAbs(), 50.0 + 1e-9);
    }
  }
}

// ---------------------------------------------------------------------------
// Golden trajectories: each row variant, plus robust and nonnegative runs of
// the clipped ones, processes one fixed Gaussian stream at the generic tier,
// and the serialized stream state must hash to the value recorded when the
// four variants were separate classes.

// A fixed stream on a 6 × 5 grid, four tuples per time unit, built from a
// 64-bit LCG with integer arithmetic only (values 1..4 are exact doubles).
std::vector<Tuple> GoldenStream() {
  std::vector<Tuple> tuples;
  uint64_t x = 0x5eed5eedull;
  for (int k = 0; k < 400; ++k) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const auto i0 = static_cast<int32_t>((x >> 33) % 6);
    const auto i1 = static_cast<int32_t>((x >> 45) % 5);
    const double v = static_cast<double>(1 + (x >> 60) % 4);
    tuples.push_back(Tuple{{i0, i1}, v, 1 + k / 4});
  }
  return tuples;
}

// FNV-1a over the serialized stream state after warm-up (t ≤ W·T),
// initialization and the live suffix.
uint64_t GoldenStateHash(SnsVariant variant, bool robust, bool nonnegative) {
  ContinuousCpdOptions options;
  options.rank = 4;
  options.window_size = 3;
  options.period = 10;
  options.variant = variant;
  options.sample_threshold = 3;
  options.clip_bound = 2.0;
  options.nonnegative_factors = nonnegative;
  options.robust.enabled = robust;
  options.robust.threshold = 1.5;
  options.seed = 19;
  const std::vector<Tuple> tuples = GoldenStream();
  const std::span<const Tuple> all(tuples);
  size_t split = 0;
  while (split < all.size() && all[split].time <= 30) ++split;
  auto handle = StreamHandle::Create("golden", {6, 5}, options);
  SNS_CHECK(handle.ok());
  SNS_CHECK(handle.value().Warmup(all.subspan(0, split)).ok());
  SNS_CHECK(handle.value().Initialize().ok());
  SNS_CHECK(handle.value().Ingest(all.subspan(split)).ok());
  serial::StringSink sink;
  serial::Writer writer(sink);
  SNS_CHECK(handle.value().SerializeState(writer).ok());
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : sink.data()) {
    hash = (hash ^ static_cast<uint8_t>(c)) * 0x100000001b3ull;
  }
  return hash;
}

TEST(RowUpdaterGoldenTest, SerializedStateMatchesRecordedTrajectories) {
  internal::RefreshKernelTierForTest(KernelTier::kGeneric);
  struct Golden {
    SnsVariant variant;
    bool robust;
    bool nonnegative;
    uint64_t hash;
  };
  const Golden runs[] = {
      {SnsVariant::kVec, false, false, 0xdd1acfd2a2dc95c3ull},
      {SnsVariant::kRnd, false, false, 0x0b0bc6b94e2b248dull},
      {SnsVariant::kVecPlus, false, false, 0x1b06fa2835a66ca7ull},
      {SnsVariant::kRndPlus, false, false, 0xb7fe3a08e0b9ac85ull},
      {SnsVariant::kVecPlus, true, false, 0x2ed5096b1b6e27a8ull},
      {SnsVariant::kRndPlus, true, false, 0x4c0a0ab512749777ull},
      {SnsVariant::kVecPlus, false, true, 0xa7cea28854045d16ull},
      {SnsVariant::kRndPlus, false, true, 0x7b0a06d7be7fa4acull},
  };
  for (const Golden& run : runs) {
    EXPECT_EQ(GoldenStateHash(run.variant, run.robust, run.nonnegative),
              run.hash)
        << VariantName(run.variant) << " robust=" << run.robust
        << " nonnegative=" << run.nonnegative;
  }
  internal::RefreshKernelTierForTest();
}

// ---------------------------------------------------------------------------
// Goldens of the sampled, clipped and GCP rules at ranks 4, 10 and 20 on
// the generic tier. These hashes were recorded before the fused sample
// staging, the Gram product cache's by-reference products and the window's
// occupancy bitset existed, and pin that those fast paths change no bit.
// The clipped rules' rows (SNS+RND, SNS+RND 4-mode, SNS+VEC) were
// re-recorded when the coordinate descent began carrying its gradient
// instead of taking a dot per coordinate, a last-bits change; the other
// rows did not move. The grids are large
// enough that heavy rows take rejection sampling (not the tiny-slice
// enumeration), and one run has four modes.
//
// The AVX2 and AVX-512 tiers share one column of hashes: every slot of
// their tables returns the same bits (IntrinsicTierTest in
// kernel_dispatch_test), the AVX2 tier running the AVX-512 grouping of each
// dot on ymm pairs. Their multiply-adds are fused wherever the source says
// so (intrinsics and std::fma tails) and nowhere else, as the library is
// compiled with -ffp-contract=off, so their trajectories are the same in
// every build type too. They were recorded and checked with GCC only; the
// codelets spell their horizontal sums out in GCC's _mm512_reduce_add_pd
// order, so clang takes the same order. The Poisson run's exponential is
// the library's ExpClamped (linalg/rank_dispatch.h), bitwise identical on
// every tier and host, so its hashes do not depend on the host's libm.

struct RankGoldenRun {
  const char* name;
  SnsVariant variant;
  LossKind loss;
  std::vector<int64_t> dims;  // Non-time modes.
  // [generic tier, intrinsic tiers][rank 4, 10, 20].
  uint64_t hash[2][3];
};

// 600 tuples, four per time unit, each coordinate and value from its own
// step of a 64-bit LCG (integer arithmetic only; values 1..4 are exact).
std::vector<Tuple> RankGoldenStream(const std::vector<int64_t>& dims) {
  std::vector<Tuple> tuples;
  uint64_t x = 0x7e1e7e1eull;
  auto next = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 33;
  };
  for (int k = 0; k < 600; ++k) {
    ModeIndex index;
    for (const int64_t dim : dims) {
      index.PushBack(static_cast<int32_t>(next() % static_cast<uint64_t>(dim)));
    }
    const double v = static_cast<double>(1 + next() % 4);
    tuples.push_back(Tuple{index, v, 1 + k / 4});
  }
  return tuples;
}

uint64_t RankGoldenHash(const RankGoldenRun& run, int64_t rank) {
  ContinuousCpdOptions options;
  options.rank = rank;
  options.window_size = 3;
  options.period = 10;
  options.variant = run.variant;
  options.loss = run.loss;
  options.sample_threshold = 3;
  options.clip_bound = 2.0;
  options.seed = 23;
  const std::vector<Tuple> tuples = RankGoldenStream(run.dims);
  const std::span<const Tuple> all(tuples);
  size_t split = 0;
  while (split < all.size() && all[split].time <= 30) ++split;
  auto handle = StreamHandle::Create("tier-golden", run.dims, options);
  SNS_CHECK(handle.ok());
  SNS_CHECK(handle.value().Warmup(all.subspan(0, split)).ok());
  SNS_CHECK(handle.value().Initialize().ok());
  SNS_CHECK(handle.value().Ingest(all.subspan(split)).ok());
  serial::StringSink sink;
  serial::Writer writer(sink);
  SNS_CHECK(handle.value().SerializeState(writer).ok());
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : sink.data()) {
    hash = (hash ^ static_cast<uint8_t>(c)) * 0x100000001b3ull;
  }
  return hash;
}

const RankGoldenRun kRankGoldens[] = {
    {"SNS-RND",
     SnsVariant::kRnd,
     LossKind::kGaussian,
     {12, 10},
     {{0x4f9eedd59c233c5dull, 0xb893f777e5ea27fdull, 0xa8d43db10624afedull},
      {0xa2bab7a0ee517b02ull, 0x622aaaf062ccc80dull, 0x15ff55b4568c2f23ull}}},
    {"SNS+RND",
     SnsVariant::kRndPlus,
     LossKind::kGaussian,
     {12, 10},
     {{0xe455e28e25c04fc7ull, 0xb69518094022c025ull, 0x07a9919e944c2cc0ull},
      {0xb58502b2205636acull, 0x3c4baa2086881f2bull, 0x65c004aff12b7b22ull}}},
    {"SNS+RND 4-mode",
     SnsVariant::kRndPlus,
     LossKind::kGaussian,
     {6, 5, 4},
     {{0xfac5bd65580faa6full, 0x1529a5b9eef67fb4ull, 0x4d65989d0c6fcc08ull},
      {0xc15db2392de56a46ull, 0x99f28321308091ccull, 0xff44b79f6effd122ull}}},
    {"SNS+VEC",
     SnsVariant::kVecPlus,
     LossKind::kGaussian,
     {12, 10},
     {{0x353953adf6349b51ull, 0x8367eb5defa5a067ull, 0xf83d22cbd3e718a9ull},
      {0x77c2c06aaf1b2cfaull, 0x1d9c4bfe91964654ull, 0xf7b01020179841b8ull}}},
    {"Poisson SNS-VEC",
     SnsVariant::kVec,
     LossKind::kPoisson,
     {12, 10},
     {{0x73cd54ccc50fe719ull, 0xc55388ebb688095bull, 0xcc212f89a9f1570full},
      {0x3dffe3fb97d584a1ull, 0x05be6fe3abd11096ull, 0xfb45105331d25e39ull}}},
};

// Runs every kRankGoldens configuration at `tier` against its hashes.
void ExpectRankGoldens(KernelTier tier) {
  internal::RefreshKernelTierForTest(tier);
  const int64_t ranks[] = {4, 10, 20};
  for (const RankGoldenRun& run : kRankGoldens) {
    for (size_t r = 0; r < 3; ++r) {
      const uint64_t hash = RankGoldenHash(run, ranks[r]);
      EXPECT_EQ(hash, run.hash[tier == KernelTier::kGeneric ? 0 : 1][r])
          << run.name << " rank " << ranks[r] << " " << KernelTierName(tier)
          << " 0x" << std::hex << hash;
    }
  }
  internal::RefreshKernelTierForTest();
}

TEST(RowUpdaterGoldenTest, GenericTierMatchesRecordedTrajectoriesAtThreeRanks) {
  ExpectRankGoldens(KernelTier::kGeneric);
}

TEST(RowUpdaterGoldenTest, Avx2TierMatchesRecordedTrajectoriesAtThreeRanks) {
  if (!KernelTierSupported(KernelTier::kAvx2)) {
    GTEST_SKIP() << "host or build lacks the AVX2 tier";
  }
  ExpectRankGoldens(KernelTier::kAvx2);
}

TEST(RowUpdaterGoldenTest, Avx512TierMatchesRecordedTrajectoriesAtThreeRanks) {
  if (!KernelTierSupported(KernelTier::kAvx512)) {
    GTEST_SKIP() << "host or build lacks the AVX-512 tier";
  }
  ExpectRankGoldens(KernelTier::kAvx512);
}

}  // namespace
}  // namespace sns
