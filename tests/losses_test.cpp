// Loss subsystem coverage: the fused analytic derivatives of every
// LossFunction against central differences (boundary data values
// included) and against the closed forms bitwise, the batch forms against
// the scalar forms bitwise, link
// functions, the bounded outlier store's capture/evict/decay/serialize
// semantics, and the GCP Newton sweep's differential contracts — the
// monotone non-increase of the reference objective on a static window and
// the generalized running fitness agreeing with the slow reference.

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpu_features.h"
#include "common/random.h"
#include "common/serial.h"
#include "core/continuous_cpd.h"
#include "core/cpd_state.h"
#include "core/options.h"
#include "data/synthetic.h"
#include "linalg/rank_dispatch.h"
#include "losses/gcp_row_update.h"
#include "losses/loss_function.h"
#include "losses/outlier_store.h"
#include "losses/reference_objective.h"
#include "tensor/kruskal.h"
#include "tensor/sparse_tensor.h"

namespace sns {
namespace {

// --- LossFunction derivatives vs central differences ----------------------

double NumericFirst(const LossFunction& loss, double y, double theta) {
  const double h = 1e-6 * std::max(1.0, std::fabs(theta));
  return (loss.Value(y, theta + h) - loss.Value(y, theta - h)) / (2.0 * h);
}

double NumericSecond(const LossFunction& loss, double y, double theta) {
  const double h = 1e-6 * std::max(1.0, std::fabs(theta));
  return (loss.Evaluate(y, theta + h).d1 - loss.Evaluate(y, theta - h).d1) /
         (2.0 * h);
}

void ExpectDerivativesMatch(const LossFunction& loss, double y, double theta) {
  const LossTerms terms = loss.Evaluate(y, theta);
  const double d1 = terms.d1;
  const double d2 = terms.d2;
  EXPECT_EQ(terms.value, loss.Value(y, theta))
      << loss.name() << " fused value at y=" << y << " theta=" << theta;
  EXPECT_NEAR(d1, NumericFirst(loss, y, theta),
              1e-4 * std::max(1.0, std::fabs(d1)))
      << loss.name() << " d1 at y=" << y << " theta=" << theta;
  // The analytic second derivative is floored away from zero; only compare
  // where the true curvature is well above the floor.
  const double numeric_d2 = NumericSecond(loss, y, theta);
  if (numeric_d2 > 1e-6) {
    EXPECT_NEAR(d2, numeric_d2, 1e-4 * std::max(1.0, std::fabs(d2)))
        << loss.name() << " d2 at y=" << y << " theta=" << theta;
  }
  EXPECT_GT(d2, 0.0) << loss.name() << " curvature must stay positive";
}

TEST(LossFunctionTest, GaussianDerivativesMatchNumericGradients) {
  const LossFunction& loss = GetLossFunction(LossKind::kGaussian);
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    const double y = rng.UniformDouble() * 6.0 - 3.0;
    const double theta = rng.UniformDouble() * 10.0 - 5.0;
    ExpectDerivativesMatch(loss, y, theta);
  }
}

TEST(LossFunctionTest, PoissonDerivativesMatchNumericGradients) {
  const LossFunction& loss = GetLossFunction(LossKind::kPoisson);
  Rng rng(13);
  // y = 0 is the boundary of the count domain and must behave like any
  // other value (ℓ = e^θ there).
  const double ys[] = {0.0, 1.0, 2.0, 7.5};
  for (double y : ys) {
    for (int i = 0; i < 25; ++i) {
      const double theta = rng.UniformDouble() * 8.0 - 4.0;
      ExpectDerivativesMatch(loss, y, theta);
    }
  }
}

TEST(LossFunctionTest, BernoulliLogitDerivativesMatchNumericGradients) {
  const LossFunction& loss = GetLossFunction(LossKind::kBernoulliLogit);
  Rng rng(17);
  for (double y : {0.0, 1.0}) {
    for (int i = 0; i < 25; ++i) {
      const double theta = rng.UniformDouble() * 10.0 - 5.0;
      ExpectDerivativesMatch(loss, y, theta);
    }
  }
}

TEST(LossFunctionTest, PoissonStaysFiniteUnderExponentialClamp) {
  const LossFunction& loss = GetLossFunction(LossKind::kPoisson);
  for (double theta : {45.0, 100.0, 1e6}) {
    EXPECT_TRUE(std::isfinite(loss.Value(3.0, theta)));
    const LossTerms terms = loss.Evaluate(3.0, theta);
    EXPECT_TRUE(std::isfinite(terms.value));
    EXPECT_TRUE(std::isfinite(terms.d1));
    EXPECT_TRUE(std::isfinite(terms.d2));
    EXPECT_TRUE(std::isfinite(loss.Link(theta)));
  }
  // Far negative θ: curvature collapses toward 0 but must stay floored.
  EXPECT_GT(loss.Evaluate(0.0, -1e3).d2, 0.0);
}

TEST(LossFunctionTest, BernoulliSoftplusIsStableAtExtremeTheta) {
  const LossFunction& loss = GetLossFunction(LossKind::kBernoulliLogit);
  // softplus(θ) → θ for large θ and → 0 for very negative θ, with no
  // overflow anywhere in between.
  EXPECT_NEAR(loss.Value(0.0, 800.0), 800.0, 1e-9);
  EXPECT_NEAR(loss.Value(0.0, -800.0), 0.0, 1e-9);
  EXPECT_GT(loss.Evaluate(1.0, 700.0).d2, 0.0);
  EXPECT_NEAR(loss.Evaluate(0.0, 800.0).value, 800.0, 1e-9);
  EXPECT_NEAR(loss.Evaluate(0.0, -800.0).value, 0.0, 1e-9);
}

TEST(LossFunctionTest, LinkFunctionsMatchTheCatalog) {
  EXPECT_DOUBLE_EQ(GetLossFunction(LossKind::kGaussian).Link(1.75), 1.75);
  EXPECT_DOUBLE_EQ(GetLossFunction(LossKind::kPoisson).Link(0.0), 1.0);
  EXPECT_NEAR(GetLossFunction(LossKind::kPoisson).Link(2.0), std::exp(2.0),
              1e-12);
  EXPECT_DOUBLE_EQ(GetLossFunction(LossKind::kBernoulliLogit).Link(0.0), 0.5);
  EXPECT_NEAR(GetLossFunction(LossKind::kBernoulliLogit).Link(-3.0),
              1.0 / (1.0 + std::exp(3.0)), 1e-12);
}

TEST(LossFunctionTest, MinimizerSitsAtTheMatchingLink) {
  // ∂ℓ/∂θ = 0 exactly where Link(θ) = y — the GCP stationarity condition.
  const LossFunction& poisson = GetLossFunction(LossKind::kPoisson);
  EXPECT_NEAR(poisson.Evaluate(5.0, std::log(5.0)).d1, 0.0, 1e-9);
  const LossFunction& gaussian = GetLossFunction(LossKind::kGaussian);
  EXPECT_DOUBLE_EQ(gaussian.Evaluate(2.5, 2.5).d1, 0.0);
}

// The fused evaluation shares one exponential between ℓ, ℓ' and ℓ''. Its
// value must equal Value() bitwise in every build (the GCP row step mixes
// the two), and ℓ', ℓ'' must equal their standalone closed forms bitwise.
// Poisson's closed forms are written with the library's ExpClamped, which
// stays within an ulp of std::exp.
// The closed-form values carry a multiply-subtract that FMA builds may
// contract in this file but not in the library, so those compare to an ulp
// of the summed term magnitudes instead.
TEST(LossFunctionTest, FusedTermsMatchTheClosedForms) {
  const LossFunction& gaussian = GetLossFunction(LossKind::kGaussian);
  const LossFunction& poisson = GetLossFunction(LossKind::kPoisson);
  const LossFunction& bernoulli = GetLossFunction(LossKind::kBernoulliLogit);
  const double ulp = std::numeric_limits<double>::epsilon();
  Rng rng(19);
  for (int i = 0; i < 200; ++i) {
    const double theta = (rng.UniformDouble() - 0.5) * 120.0;  // Past ±40.
    const double y = std::floor(rng.UniformDouble() * 4.0);
    const double b = y >= 2.0 ? 1.0 : 0.0;

    const LossTerms g = gaussian.Evaluate(y, theta);
    EXPECT_EQ(g.value, gaussian.Value(y, theta));
    EXPECT_EQ(g.value, (theta - y) * (theta - y));
    EXPECT_EQ(g.d1, 2.0 * (theta - y));
    EXPECT_EQ(g.d2, 2.0);

    const double e = ExpClamped(theta);
    const double libm_e = std::exp(std::clamp(theta, -40.0, 40.0));
    EXPECT_LE(std::fabs(e - libm_e),
              std::ldexp(1.0, std::ilogb(libm_e) - 52))
        << "theta=" << theta;
    const LossTerms p = poisson.Evaluate(y, theta);
    EXPECT_EQ(p.value, poisson.Value(y, theta));
    EXPECT_NEAR(p.value, e - y * theta, 2 * ulp * (e + std::fabs(y * theta)));
    EXPECT_EQ(p.d1, e - y);
    EXPECT_EQ(p.d2, std::max(e, 1e-12));

    const double sigma = theta >= 0.0 ? 1.0 / (1.0 + std::exp(-theta))
                                       : std::exp(theta) / (1.0 + std::exp(theta));
    const double softplus =
        std::max(theta, 0.0) + std::log1p(std::exp(-std::abs(theta)));
    const LossTerms q = bernoulli.Evaluate(b, theta);
    EXPECT_EQ(q.value, bernoulli.Value(b, theta));
    EXPECT_NEAR(q.value, softplus - b * theta,
                2 * ulp * (softplus + std::fabs(b * theta)));
    EXPECT_EQ(q.d1, sigma - b);
    EXPECT_EQ(q.d2, std::max(sigma * (1.0 - sigma), 1e-12));
    EXPECT_EQ(bernoulli.Link(theta), sigma);
  }
}

// The batch forms the GCP Newton step calls must equal the scalar forms
// bitwise for every loss, on every kernel tier (Poisson's batch exp runs at
// the process tier), including the clamp edges and non-finite θ.
TEST(LossFunctionTest, BatchFormsEqualScalarFormsBitwise) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(23);
  std::vector<double> y, theta;
  for (int i = 0; i < 517; ++i) {
    theta.push_back((rng.UniformDouble() - 0.5) * 120.0);  // Past ±40.
    y.push_back(std::floor(rng.UniformDouble() * 4.0));
  }
  for (const double edge : {0.0, -0.0, 40.0, -40.0, 1e3, -1e3, kInf, -kInf,
                            std::numeric_limits<double>::quiet_NaN()}) {
    theta.push_back(edge);
    y.push_back(1.0);
  }
  const size_t n = theta.size();
  auto same = [](double a, double b) {
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b) ||
           (std::isnan(a) && std::isnan(b));
  };
  std::vector<KernelTier> tiers = {KernelTier::kGeneric};
  for (const KernelTier t : {KernelTier::kAvx2, KernelTier::kAvx512}) {
    if (KernelTierSupported(t)) tiers.push_back(t);
  }
  for (const KernelTier tier : tiers) {
    internal::RefreshKernelTierForTest(tier);
    for (const LossKind kind : {LossKind::kGaussian, LossKind::kPoisson,
                                LossKind::kBernoulliLogit}) {
      SCOPED_TRACE(testing::Message()
                   << KernelTierName(tier) << " " << LossKindName(kind));
      const LossFunction& loss = GetLossFunction(kind);
      std::vector<double> value(n), d1(n), d2(n), batch_value(n);
      loss.EvaluateBatch(y.data(), theta.data(), value.data(), d1.data(),
                         d2.data(), n);
      loss.ValueBatch(y.data(), theta.data(), batch_value.data(), n);
      for (size_t c = 0; c < n; ++c) {
        const LossTerms terms = loss.Evaluate(y[c], theta[c]);
        EXPECT_TRUE(same(value[c], terms.value)) << "theta=" << theta[c];
        EXPECT_TRUE(same(d1[c], terms.d1)) << "theta=" << theta[c];
        EXPECT_TRUE(same(d2[c], terms.d2)) << "theta=" << theta[c];
        EXPECT_TRUE(same(batch_value[c], loss.Value(y[c], theta[c])))
            << "theta=" << theta[c];
      }
    }
  }
  internal::RefreshKernelTierForTest();
}

TEST(LossFunctionTest, NamesAndKindsRoundTrip) {
  for (LossKind kind : {LossKind::kGaussian, LossKind::kPoisson,
                        LossKind::kBernoulliLogit}) {
    const LossFunction& loss = GetLossFunction(kind);
    EXPECT_EQ(loss.kind(), kind);
    EXPECT_EQ(loss.name(), LossKindName(kind));
  }
}

// --- OutlierStore ---------------------------------------------------------

TEST(OutlierStoreTest, CapturesOnlyAboveThresholdAndAccumulates) {
  OutlierStore store;
  store.Configure(/*threshold=*/2.0, /*decay=*/0.5, /*capacity=*/4);
  const ModeIndex key({1, 2});

  EXPECT_DOUBLE_EQ(store.Capture(key, 1.5), 0.0);   // Below τ: untouched.
  EXPECT_DOUBLE_EQ(store.Capture(key, -2.0), 0.0);  // |r| = τ: untouched.
  EXPECT_EQ(store.size(), 0);
  EXPECT_EQ(store.captures(), 0u);

  EXPECT_DOUBLE_EQ(store.Capture(key, 5.0), 3.0);   // Soft-threshold.
  EXPECT_DOUBLE_EQ(store.Capture(key, -6.0), -4.0);
  EXPECT_EQ(store.size(), 1);
  EXPECT_DOUBLE_EQ(store.Get(key), -1.0);  // 3 − 4 accumulated.
  EXPECT_EQ(store.captures(), 2u);
  EXPECT_DOUBLE_EQ(store.TotalMagnitude(), 1.0);
}

TEST(OutlierStoreTest, NanResidualIsNeverCaptured) {
  OutlierStore store;
  store.Configure(2.0, 0.5, 4);
  EXPECT_DOUBLE_EQ(
      store.Capture(ModeIndex({0}),
                    std::numeric_limits<double>::quiet_NaN()),
      0.0);
  EXPECT_EQ(store.size(), 0);
}

TEST(OutlierStoreTest, EvictsSmallestMagnitudeDeterministically) {
  OutlierStore store;
  store.Configure(1.0, 0.5, /*capacity=*/2);
  store.Capture(ModeIndex({0}), 4.0);   // +3
  store.Capture(ModeIndex({1}), -3.0);  // −2
  store.Capture(ModeIndex({2}), 6.0);   // +5 → evicts key {1} (|−2| min).
  EXPECT_EQ(store.size(), 2);
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_DOUBLE_EQ(store.Get(ModeIndex({0})), 3.0);
  EXPECT_DOUBLE_EQ(store.Get(ModeIndex({1})), 0.0);
  EXPECT_DOUBLE_EQ(store.Get(ModeIndex({2})), 5.0);
}

TEST(OutlierStoreTest, DecayDrainsStaleMass) {
  OutlierStore store;
  store.Configure(1.0, /*decay=*/0.5, 8);
  store.Capture(ModeIndex({0}), 9.0);  // +8
  store.Decay();
  EXPECT_DOUBLE_EQ(store.Get(ModeIndex({0})), 4.0);
  // Enough decays push the entry under the drop epsilon and it disappears.
  for (int i = 0; i < 64; ++i) store.Decay();
  EXPECT_EQ(store.size(), 0);
}

// The decay clock as the engine ran it before DecayThrough: one pass per
// elapsed tick.
int64_t DecayLoop(OutlierStore& store, int64_t time, int64_t next_tick,
                  int64_t period) {
  while (time >= next_tick) {
    store.Decay();
    next_tick += period;
  }
  return next_tick;
}

OutlierStore LiveStore(double decay) {
  OutlierStore store;
  store.Configure(1.0, decay, 16);
  // Magnitudes from 2⁻²⁰ to 2¹²: at decay ½ the small ones drop within the
  // first passes of a 40-tick gap and the large ones outlive it.
  for (int k = 0; k < 8; ++k) {
    store.Capture(ModeIndex({k, 1}), 1.0 + std::ldexp(1.0, 4 * k - 20));
    store.Capture(ModeIndex({k, 2}), -1.0 - std::ldexp(3.0, 2 * k - 9));
  }
  return store;
}

void ExpectSameEntries(const OutlierStore& a, const OutlierStore& b) {
  ASSERT_EQ(a.size(), b.size());
  for (auto ia = a.entries().begin(), ib = b.entries().begin();
       ia != a.entries().end(); ++ia, ++ib) {
    EXPECT_TRUE(ia->first == ib->first);
    EXPECT_EQ(std::bit_cast<uint64_t>(ia->second),
              std::bit_cast<uint64_t>(ib->second));
  }
}

TEST(OutlierStoreTest, DecayThroughIsBitwiseTheLoop) {
  const int64_t period = 30;
  for (const double decay : {0.5, 0.9, 1.0, 0.0}) {
    // Gaps of 0 to 40 ticks past the clock, from just before a tick to just
    // after one, with live entries some of which drain inside the gap.
    for (int64_t gap = -1; gap <= 40 * period + 1; gap += 7) {
      OutlierStore looped = LiveStore(decay);
      OutlierStore skipped = LiveStore(decay);
      const int64_t next_tick = 1000;
      EXPECT_EQ(skipped.DecayThrough(next_tick + gap, next_tick, period),
                DecayLoop(looped, next_tick + gap, next_tick, period))
          << "decay " << decay << ", gap " << gap;
      ExpectSameEntries(skipped, looped);
    }
  }
}

TEST(OutlierStoreTest, DecayThroughSkipsAHugeGapInFewPasses) {
  // 2⁴⁰ periods: the loop would run ~10¹² passes. Once the store has
  // drained, or a pass leaves it unchanged, the rest is one step.
  const int64_t period = 30;
  const int64_t behind = (int64_t{1} << 40) * period;
  const int64_t time = 5000;
  for (const double decay : {0.5, 1.0}) {
    OutlierStore store = LiveStore(decay);
    const int64_t next = store.DecayThrough(time, time - behind, period);
    EXPECT_GT(next, time);
    EXPECT_LE(next, time + period);
    EXPECT_EQ((next - (time - behind)) % period, 0);
    EXPECT_EQ(store.size(), decay == 1.0 ? 16 : 0);
  }
  // A store at a fixed point (±inf survives every pass) is skipped too.
  OutlierStore inf_store;
  inf_store.Configure(1.0, 0.5, 4);
  inf_store.Capture(ModeIndex({0}), std::numeric_limits<double>::infinity());
  EXPECT_EQ(inf_store.DecayThrough(time, time - behind, period), time + period);
  EXPECT_EQ(inf_store.size(), 1);
  // A tick past int64 saturates instead of overflowing.
  const int64_t max = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(inf_store.DecayThrough(max, max - 5, period), max);
  EXPECT_EQ(inf_store.DecayThrough(max, max, period), max);
}

TEST(OutlierStoreTest, SerializeRestoreRoundTripsContentAndCounters) {
  OutlierStore store;
  store.Configure(1.0, 0.5, 2);
  store.Capture(ModeIndex({3, 1}), 4.5);
  store.Capture(ModeIndex({0, 2}), -7.0);
  store.Capture(ModeIndex({5, 5}), 2.25);  // Forces one eviction.

  serial::StringSink sink;
  serial::Writer w(sink);
  store.SerializeTo(w);
  ASSERT_TRUE(w.status().ok());

  OutlierStore restored;
  restored.Configure(1.0, 0.5, 2);
  serial::StringSource source(sink.data());
  serial::Reader r(source);
  const int64_t dims[] = {6, 6};
  ASSERT_TRUE(restored.RestoreFrom(r, dims).ok());

  EXPECT_EQ(restored.size(), store.size());
  EXPECT_EQ(restored.captures(), store.captures());
  EXPECT_EQ(restored.evictions(), store.evictions());
  for (const auto& [key, value] : store.entries()) {
    EXPECT_DOUBLE_EQ(restored.Get(key), value);
  }

  // And the restored store reserializes to identical bytes.
  serial::StringSink sink2;
  serial::Writer w2(sink2);
  restored.SerializeTo(w2);
  EXPECT_EQ(sink2.data(), sink.data());
}

// --- GCP Newton sweep: monotone non-increase on a static window -----------

SparseTensor CountWindow(const std::vector<int64_t>& dims, LossKind kind,
                         uint64_t seed) {
  SparseTensor window(dims);
  Rng rng(seed);
  ModeIndex index;
  for (size_t m = 0; m < dims.size(); ++m) index.PushBack(0);
  while (true) {
    if (rng.UniformDouble() < 0.6) {
      const double value = kind == LossKind::kBernoulliLogit
                               ? 1.0
                               : static_cast<double>(rng.UniformInt(1, 6));
      window.Set(index, value);
    }
    int m = static_cast<int>(dims.size()) - 1;
    while (m >= 0) {
      if (++index[m] < dims[static_cast<size_t>(m)]) break;
      index[m] = 0;
      --m;
    }
    if (m < 0) break;
  }
  return window;
}

TEST(GcpRowUpdateTest, SweepNeverIncreasesTheReferenceObjective) {
  const std::vector<int64_t> dims = {5, 4, 3};
  for (LossKind kind : {LossKind::kPoisson, LossKind::kBernoulliLogit}) {
    const LossFunction& loss = GetLossFunction(kind);
    const SparseTensor window = CountWindow(dims, kind, 31);
    Rng rng(7);
    CpdState state(KruskalModel::Random(dims, /*rank=*/4, rng));

    GcpRowWorkspace ws;
    double prev = WindowLoss(window, state.model, loss);
    const double initial = prev;
    for (int sweep = 0; sweep < 6; ++sweep) {
      GcpSweep(window, state, loss, ws);
      const double cur = WindowLoss(window, state.model, loss);
      // Every damped Newton row step accepts only candidates that do not
      // increase its restricted objective; summed over rows the window
      // objective cannot go up (small relative slack for fp accumulation).
      EXPECT_LE(cur, prev * (1.0 + 1e-9) + 1e-9)
          << LossKindName(kind) << " sweep " << sweep;
      prev = cur;
    }
    EXPECT_LT(prev, initial) << LossKindName(kind)
                             << ": six sweeps made no progress at all";
  }
}

TEST(GcpRowUpdateTest, ClippedStepsRespectTheBox) {
  const std::vector<int64_t> dims = {5, 4, 3};
  const LossFunction& loss = GetLossFunction(LossKind::kPoisson);
  const SparseTensor window = CountWindow(dims, LossKind::kPoisson, 33);
  Rng rng(9);
  CpdState state(KruskalModel::Random(dims, 4, rng));

  GcpRowWorkspace ws;
  const double clip_max = 0.8;
  int stepped = 0;
  for (int mode = 0; mode < 3; ++mode) {
    for (int64_t row = 0; row < dims[static_cast<size_t>(mode)]; ++row) {
      if (!GcpNewtonRowUpdateOnSlice(window, state, mode, row, loss,
                                     /*clip_min=*/0.0, clip_max, ws)) {
        continue;  // Untouched rows keep their (unclipped) initial values.
      }
      ++stepped;
      const Matrix& factor = state.model.factor(mode);
      for (int64_t r = 0; r < factor.cols(); ++r) {
        EXPECT_GE(factor(row, r), 0.0);
        EXPECT_LE(factor(row, r), clip_max);
      }
    }
  }
  EXPECT_GT(stepped, 0);
}

// --- Engine-level differentials -------------------------------------------

ContinuousCpdOptions LossEngineOptions(SnsVariant variant, LossKind loss) {
  ContinuousCpdOptions options;
  options.rank = 4;
  options.window_size = 3;
  options.period = 30;
  options.variant = variant;
  options.sample_threshold = 10;
  options.clip_bound = 1000.0;
  options.loss = loss;
  options.fitness_resync_interval = 1;
  return options;
}

DataStream LossStream(int64_t num_events, uint64_t seed) {
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

TEST(GeneralizedFitnessTest, RunningFitnessMatchesTheSlowReference) {
  const DataStream stream = LossStream(120, 41);
  for (LossKind kind : {LossKind::kPoisson, LossKind::kBernoulliLogit}) {
    for (SnsVariant variant :
         {SnsVariant::kVec, SnsVariant::kVecPlus, SnsVariant::kRnd}) {
      auto engine = ContinuousCpd::Create(
          {6, 5}, LossEngineOptions(variant, kind));
      ASSERT_TRUE(engine.ok());
      ContinuousCpd& cpd = *engine.value();
      size_t i = 0;
      const auto& tuples = stream.tuples();
      for (; i < tuples.size() && tuples[i].time <= 90; ++i) {
        cpd.IngestOnly(tuples[i]);
      }
      cpd.InitializeWithAls();
      const LossFunction& loss = GetLossFunction(kind);
      int checked = 0;
      for (; i < tuples.size(); ++i) {
        cpd.ProcessTuple(tuples[i]);
        if (i % 17 != 0) continue;
        // resync_interval = 1 forces the exact path: the running estimate
        // must equal the slow reference objective identically.
        const double expected =
            1.0 - WindowLoss(cpd.window(), cpd.model(), loss) /
                      WindowLossBaseline(cpd.window(), loss);
        EXPECT_NEAR(cpd.RunningFitness(), expected,
                    1e-9 * std::max(1.0, std::fabs(expected)))
            << LossKindName(kind) << " " << cpd.updater_name();
        ++checked;
      }
      EXPECT_GT(checked, 0);
    }
  }
}

TEST(GeneralizedFitnessTest, NonGaussianLossActuallyStepsTheFactors) {
  const DataStream stream = LossStream(80, 43);
  auto gaussian = ContinuousCpd::Create(
      {6, 5}, LossEngineOptions(SnsVariant::kVec, LossKind::kGaussian));
  auto poisson = ContinuousCpd::Create(
      {6, 5}, LossEngineOptions(SnsVariant::kVec, LossKind::kPoisson));
  ASSERT_TRUE(gaussian.ok());
  ASSERT_TRUE(poisson.ok());
  size_t i = 0;
  const auto& tuples = stream.tuples();
  for (; i < tuples.size() && tuples[i].time <= 90; ++i) {
    gaussian.value()->IngestOnly(tuples[i]);
    poisson.value()->IngestOnly(tuples[i]);
  }
  gaussian.value()->InitializeWithAls();
  poisson.value()->InitializeWithAls();
  for (; i < tuples.size(); ++i) {
    gaussian.value()->ProcessTuple(tuples[i]);
    poisson.value()->ProcessTuple(tuples[i]);
  }
  // Same seed, same data: if the Poisson branch never engaged, the two
  // trajectories would be identical.
  bool diverged = false;
  const Matrix& a = gaussian.value()->model().factor(0);
  const Matrix& b = poisson.value()->model().factor(0);
  for (int64_t r = 0; r < a.rows() && !diverged; ++r) {
    for (int64_t c = 0; c < a.cols() && !diverged; ++c) {
      diverged = a(r, c) != b(r, c);
    }
  }
  EXPECT_TRUE(diverged);
  EXPECT_GT(poisson.value()->events_processed(), 0);
}

// --- Robust mode ----------------------------------------------------------

TEST(RobustModeTest, SpikesAreCapturedIntoSAndCleanedFromTheWindow) {
  ContinuousCpdOptions options =
      LossEngineOptions(SnsVariant::kVecPlus, LossKind::kGaussian);
  options.robust.enabled = true;
  options.robust.threshold = 3.0;
  options.robust.decay = 0.5;
  options.robust.capacity = 16;
  const DataStream stream = LossStream(100, 47);
  auto engine = ContinuousCpd::Create({6, 5}, options);
  ASSERT_TRUE(engine.ok());
  ContinuousCpd& cpd = *engine.value();
  size_t i = 0;
  const auto& tuples = stream.tuples();
  for (; i < tuples.size() && tuples[i].time <= 90; ++i) {
    cpd.IngestOnly(tuples[i]);
  }
  cpd.InitializeWithAls();
  int64_t last_time = 0;
  for (; i < tuples.size(); ++i) {
    cpd.ProcessTuple(tuples[i]);
    last_time = tuples[i].time;
  }

  // A planted spike far above anything the model predicts: the soft
  // threshold captures (most of) it and the window keeps the cleaned part.
  Tuple spike;
  spike.index = ModeIndex({2, 3});
  spike.value = 500.0;
  spike.time = last_time;
  cpd.ProcessTuple(spike);

  EXPECT_GT(cpd.outliers().size(), 0);
  const double captured = cpd.outliers().Get(spike.index);
  EXPECT_GT(captured, 400.0);
  const ModeIndex cell =
      spike.index.WithAppended(options.window_size - 1);
  // The window absorbed only value − captured (plus whatever it held).
  EXPECT_LT(cpd.window().Get(cell), 100.0);
  EXPECT_GT(cpd.outliers().captures(), 0u);
}

TEST(RobustModeTest, CaptureIsBoundedByObservedMassUnderExponentialLink) {
  // Regression: with an exponential link, a transiently over-predicting
  // model makes the residual hugely negative; an unbounded capture would
  // write the blown-up prediction μ back into the window as fake mass and
  // ratchet θ to the exp clamp. The capture is bounded by the observed
  // cell mass, so the outlier store must stay on the order of the data.
  ContinuousCpdOptions options =
      LossEngineOptions(SnsVariant::kVecPlus, LossKind::kPoisson);
  options.robust.enabled = true;
  options.robust.threshold = 4.0;
  options.robust.decay = 0.5;
  options.robust.capacity = 256;
  const DataStream stream = LossStream(400, 71);
  auto engine = ContinuousCpd::Create({6, 5}, options);
  ASSERT_TRUE(engine.ok());
  ContinuousCpd& cpd = *engine.value();
  size_t i = 0;
  double ingested_mass = 0.0;
  const auto& tuples = stream.tuples();
  for (; i < tuples.size() && tuples[i].time <= 90; ++i) {
    cpd.IngestOnly(tuples[i]);
  }
  cpd.InitializeWithAls();
  for (; i < tuples.size(); ++i) {
    cpd.ProcessTuple(tuples[i]);
    ingested_mass += std::fabs(tuples[i].value);
  }
  EXPECT_LT(cpd.outliers().TotalMagnitude(), 2.0 * ingested_mass);
  cpd.window().ForEachNonzero([&](const ModeIndex&, double value) {
    EXPECT_LT(std::fabs(value), 1e6);
  });
}

TEST(RobustModeTest, ValidateRejectsBadRobustConfiguration) {
  ContinuousCpdOptions options =
      LossEngineOptions(SnsVariant::kVec, LossKind::kGaussian);
  options.robust.enabled = true;
  options.robust.threshold = 0.0;
  EXPECT_FALSE(ContinuousCpd::Create({4, 4}, options).ok());
  options.robust.threshold = 1.0;
  options.robust.decay = 1.5;
  EXPECT_FALSE(ContinuousCpd::Create({4, 4}, options).ok());
  options.robust.decay = 0.5;
  options.robust.capacity = 0;
  EXPECT_FALSE(ContinuousCpd::Create({4, 4}, options).ok());
  options.robust.capacity = 8;
  EXPECT_TRUE(ContinuousCpd::Create({4, 4}, options).ok());
}

}  // namespace
}  // namespace sns
