// Hot-path guarantees of the per-event update stack:
//   - a counting global allocator asserting that steady-state event
//     processing performs ZERO heap allocations for every updater variant
//     (the workspace/Gram-cache refactor's core contract),
//   - differential tests pinning the workspace/caching path to a naive
//     reference reimplementation of the pre-refactor algorithm — bitwise
//     identical for the deterministic variants on 3-mode tensors (where the
//     prefix/suffix product order coincides with the sequential one), and
//     tight-tolerance for the sampled RND variants (whose prev-Gram
//     reconstruction U = Q + (p−a)'a is algebraically exact but rounds
//     differently than the deep-copy-and-maintain path),
//   - a per-tier bitwise pin of the staged, tiled GCP Newton row step
//     against the straightforward per-cell step it replaced, and of its
//     slice-driven form against the span form,
//   - a per-tier bitwise pin of the staged sampled rule of SNS-RND /
//     SNS+RND against the per-cell loop, sampler and pre-event evaluation
//     it replaced,
//   - GramProductCache consistency against scratch recomputation under
//     arbitrary invalidation sequences,
//   - snapshot deduplication + O(1) PrevRow behavior,
//   - MakeUpdater failing loudly on an unhandled SnsVariant.

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <limits>
#include <new>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpu_features.h"
#include "common/monotonic_clock.h"
#include "common/random.h"
#include "core/als.h"
#include "core/continuous_cpd.h"
#include "core/cpd_state.h"
#include "core/gram_product_cache.h"
#include "core/gram_solve.h"
#include "core/row_updater.h"
#include "core/slice_sampler.h"
#include "core/sns_mat.h"
#include "linalg/rank_dispatch.h"
#include "losses/gcp_row_update.h"
#include "losses/loss_function.h"
#include "telemetry/metrics_registry.h"
#include "tensor/mttkrp.h"

// ---------------------------------------------------------------------------
// Counting global allocator. Every operator new in this binary bumps the
// counter; tests snapshot it around updater calls. Deallocation is not
// counted (free is allocation-free by definition here).

namespace {
std::atomic<std::uint64_t> g_heap_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::size_t alignment) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded > 0 ? rounded : alignment)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace sns {
namespace {

// The naive reference below is deliberately plain scalar code, so the
// bitwise differentials only hold when the production path runs the
// portable kernels too: pin the whole binary to the generic tier before
// any test constructs an updater. (The allocation-count and cache
// consistency guarantees are tier-independent.)
class ForceGenericTierEnvironment : public ::testing::Environment {
 public:
  void SetUp() override {
    setenv("SNS_FORCE_GENERIC_KERNELS", "1", /*overwrite=*/1);
    internal::RefreshKernelTierForTest();
  }
};
const auto* const kForceGenericTier =
    ::testing::AddGlobalTestEnvironment(new ForceGenericTierEnvironment);

// The per-tier differentials below pin the process tier for one
// configuration: states, updaters and workspaces built inside the scope
// resolve their kernel tables at `tier`. On exit the binary returns to the
// generic pin above.
class ScopedProcessTier {
 public:
  explicit ScopedProcessTier(KernelTier tier) {
    internal::RefreshKernelTierForTest(tier);
  }
  ~ScopedProcessTier() { internal::RefreshKernelTierForTest(); }
  ScopedProcessTier(const ScopedProcessTier&) = delete;
  ScopedProcessTier& operator=(const ScopedProcessTier&) = delete;
};

// Generic plus every intrinsic tier the host runs.
std::vector<KernelTier> SupportedTiers() {
  std::vector<KernelTier> tiers = {KernelTier::kGeneric};
  for (const KernelTier t : {KernelTier::kAvx2, KernelTier::kAvx512}) {
    if (KernelTierSupported(t)) tiers.push_back(t);
  }
  return tiers;
}

// ---------------------------------------------------------------------------
// Shared event helpers (mirroring core_updaters_test).

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

WindowDelta MakeArrival(SparseTensor& window, int32_t i0, int32_t i1,
                        double v, int w_size) {
  WindowDelta delta;
  delta.kind = EventKind::kArrival;
  delta.w = 0;
  delta.tuple = Tuple{{i0, i1}, v, 0};
  const ModeIndex cell = ModeIndex{i0, i1}.WithAppended(w_size - 1);
  window.Add(cell, v);
  delta.cells.push_back({cell, v});
  return delta;
}

WindowDelta MakeSlide(SparseTensor& window, int32_t i0, int32_t i1, double v,
                      int w, int w_size) {
  WindowDelta delta;
  delta.kind = EventKind::kSlide;
  delta.w = w;
  delta.tuple = Tuple{{i0, i1}, v, 0};
  const ModeIndex from = ModeIndex{i0, i1}.WithAppended(w_size - w);
  const ModeIndex to = ModeIndex{i0, i1}.WithAppended(w_size - w - 1);
  window.Add(from, -v);
  window.Add(to, v);
  delta.cells.push_back({from, -v});
  delta.cells.push_back({to, v});
  return delta;
}

WindowDelta RandomEvent(SparseTensor& window, Rng& rng, int w_size,
                        int64_t dim0, int64_t dim1) {
  const auto i0 = static_cast<int32_t>(rng.UniformInt(0, dim0 - 1));
  const auto i1 = static_cast<int32_t>(rng.UniformInt(0, dim1 - 1));
  const double v = rng.UniformDouble(0.5, 1.5);
  if (rng.NextUint64(3) == 0 && w_size > 1) {
    const int w = 1 + static_cast<int>(rng.NextUint64(
                          static_cast<uint64_t>(w_size - 1)));
    return MakeSlide(window, i0, i1, v, w, w_size);
  }
  return MakeArrival(window, i0, i1, v, w_size);
}

// ---------------------------------------------------------------------------
// Zero-allocation guarantee.

// Runs `updater` over `total` random events on a dense-ish window and
// returns the number of heap allocations performed by OnEvent calls after
// the first `warmup` events (which are allowed to size workspaces). With
// `dead_column` ≥ 0 that component is zero in every factor (and so in the
// window), which makes every Gram product H(m) singular.
std::uint64_t SteadyStateAllocations(EventUpdater& updater, int warmup,
                                     int measured, uint64_t seed,
                                     int dead_column = -1) {
  Rng rng(seed);
  const int w_size = 4;
  const std::vector<int64_t> dims = {6, 5, w_size};
  KruskalModel model = KruskalModel::Random(dims, 4, rng);
  if (dead_column >= 0) {
    for (int m = 0; m < model.num_modes(); ++m) {
      for (int64_t i = 0; i < dims[static_cast<size_t>(m)]; ++i) {
        model.factor(m)(i, dead_column) = 0.0;
      }
    }
  }
  SparseTensor window = DenseWindowFromModel(model);
  CpdState state(model);

  std::uint64_t counted = 0;
  for (int step = 0; step < warmup + measured; ++step) {
    WindowDelta delta = RandomEvent(window, rng, w_size, dims[0], dims[1]);
    const std::uint64_t before =
        g_heap_allocations.load(std::memory_order_relaxed);
    updater.OnEvent(window, delta, state);
    const std::uint64_t after =
        g_heap_allocations.load(std::memory_order_relaxed);
    if (step >= warmup) counted += after - before;
  }
  if (dead_column >= 0) {
    // The component stayed dead, so every H(m) stayed singular.
    for (int m = 0; m < state.num_modes(); ++m) {
      for (int64_t i = 0; i < dims[static_cast<size_t>(m)]; ++i) {
        EXPECT_EQ(state.model.factor(m)(i, dead_column), 0.0);
      }
    }
  }
  return counted;
}

// Canary: the counting allocator must actually be intercepting operator
// new, or every zero-allocation assertion below would pass vacuously.
TEST(ZeroAllocationTest, CountingAllocatorIntercepts) {
  const std::uint64_t before =
      g_heap_allocations.load(std::memory_order_relaxed);
  std::vector<double>* v = new std::vector<double>(64);
  const std::uint64_t after =
      g_heap_allocations.load(std::memory_order_relaxed);
  delete v;
  EXPECT_GE(after - before, 2u);  // The vector object + its buffer.
}

TEST(ZeroAllocationTest, SnsVecSteadyStateEventsAllocateNothing) {
  RowUpdater updater(RowOptions(SnsVariant::kVec));
  EXPECT_EQ(SteadyStateAllocations(updater, 20, 80, 0xa110c1), 0u);
}

// A dead component makes every unclipped solve fail Cholesky and take the
// ridge, the event's first one after resyncing the Grams and failing
// again: none of that may allocate.
TEST(ZeroAllocationTest, SnsVecRidgedSolvesAllocateNothing) {
  RowUpdater updater(RowOptions(SnsVariant::kVec));
  EXPECT_EQ(SteadyStateAllocations(updater, 20, 80, 0xa110cb,
                                   /*dead_column=*/2),
            0u);
}

TEST(ZeroAllocationTest, SnsVecPlusSteadyStateEventsAllocateNothing) {
  RowUpdater updater(RowOptions(SnsVariant::kVecPlus, 20, /*eta=*/50.0));
  EXPECT_EQ(SteadyStateAllocations(updater, 20, 80, 0xa110c2), 0u);
}

TEST(ZeroAllocationTest, SnsRndSteadyStateEventsAllocateNothing) {
  // θ = 2 forces the sampled path (slice degrees exceed 2 on the dense
  // window), which exercises the prev-Gram reconstruction and the θ-sample
  // buffer.
  RowUpdater updater(
      RowOptions(SnsVariant::kRnd, /*theta=*/2, 1000.0, /*rng_seed=*/7));
  EXPECT_EQ(SteadyStateAllocations(updater, 20, 80, 0xa110c3), 0u);
}

TEST(ZeroAllocationTest, SnsRndPlusSteadyStateEventsAllocateNothing) {
  RowUpdater updater(RowOptions(SnsVariant::kRndPlus, /*theta=*/2,
                                /*eta=*/50.0, /*rng_seed=*/7));
  EXPECT_EQ(SteadyStateAllocations(updater, 20, 80, 0xa110c4), 0u);
}

// The GCP loss path: the staged Hadamard panel and the per-cell caches
// grow to the largest slice seen during warmup, then are reused.
TEST(ZeroAllocationTest, PoissonSnsVecPlusSteadyStateEventsAllocateNothing) {
  RowUpdater updater(RowOptions(SnsVariant::kVecPlus, 20, /*eta=*/50.0),
                     &GetLossFunction(LossKind::kPoisson));
  EXPECT_EQ(SteadyStateAllocations(updater, 20, 80, 0xa110c7), 0u);
}

TEST(ZeroAllocationTest, BernoulliSnsVecPlusSteadyStateEventsAllocateNothing) {
  RowUpdater updater(RowOptions(SnsVariant::kVecPlus, 20, /*eta=*/50.0),
                     &GetLossFunction(LossKind::kBernoulliLogit));
  EXPECT_EQ(SteadyStateAllocations(updater, 20, 80, 0xa110c8), 0u);
}

TEST(ZeroAllocationTest, PoissonSnsRndSteadyStateEventsAllocateNothing) {
  // θ = 2 forces the θ-sampled GCP cell set (sampled + delta cells).
  RowUpdater updater(
      RowOptions(SnsVariant::kRnd, /*theta=*/2, 1000.0, /*rng_seed=*/7),
      &GetLossFunction(LossKind::kPoisson));
  EXPECT_EQ(SteadyStateAllocations(updater, 20, 80, 0xa110c9), 0u);
}

TEST(ZeroAllocationTest, BernoulliSnsRndSteadyStateEventsAllocateNothing) {
  RowUpdater updater(
      RowOptions(SnsVariant::kRnd, /*theta=*/2, 1000.0, /*rng_seed=*/7),
      &GetLossFunction(LossKind::kBernoulliLogit));
  EXPECT_EQ(SteadyStateAllocations(updater, 20, 80, 0xa110ca), 0u);
}

TEST(ZeroAllocationTest, SnsMatSteadyStateEventsAllocateNothing) {
  SnsMatUpdater updater;
  EXPECT_EQ(SteadyStateAllocations(updater, 5, 20, 0xa110c5), 0u);
}

// Telemetry hot-path contract: with metrics enabled, the worker-shard
// instrumentation (clock reads, latency histograms, counters, queue-depth
// gauge) adds relaxed atomics to the event loop but never a heap
// allocation — histogram storage is preallocated inline in the domain.
TEST(ZeroAllocationTest, MetricsRecordingSteadyStateAllocatesNothing) {
  const auto metrics = std::make_unique<telemetry::ShardMetrics>();
  RowUpdater updater(RowOptions(SnsVariant::kVecPlus, 20, /*eta=*/50.0));
  Rng rng(0xa110c6);
  const int w_size = 4;
  const std::vector<int64_t> dims = {6, 5, w_size};
  KruskalModel model = KruskalModel::Random(dims, 4, rng);
  SparseTensor window = DenseWindowFromModel(model);
  CpdState state(model);

  std::uint64_t counted = 0;
  for (int step = 0; step < 100; ++step) {
    WindowDelta delta = RandomEvent(window, rng, w_size, dims[0], dims[1]);
    const std::uint64_t before =
        g_heap_allocations.load(std::memory_order_relaxed);
    {
      // The exact per-task instrumentation the worker shard performs.
      const int64_t start_ns = MonotonicNanos();
      metrics->mailbox_pushes.Add(1);
      metrics->queue_depth.Add(1);
      updater.OnEvent(window, delta, state);
      metrics->queue_depth.Add(-1);
      const int64_t elapsed_ns = MonotonicNanos() - start_ns;
      metrics->apply_ns.Record(elapsed_ns);
      metrics->tasks_executed.Add(1);
      metrics->ingest_latency_ns.Record(elapsed_ns);
    }
    const std::uint64_t after =
        g_heap_allocations.load(std::memory_order_relaxed);
    if (step >= 20) counted += after - before;
  }
  EXPECT_EQ(counted, 0u);
  EXPECT_EQ(metrics->tasks_executed.Get(), 100u);
  EXPECT_EQ(metrics->apply_ns.Snapshot().count, 100u);
  EXPECT_EQ(metrics->queue_depth.Get(), 0);
}

// ---------------------------------------------------------------------------
// Differential tests against a naive reference reimplementation of the
// pre-refactor update algorithm: per-row Hadamard-of-Grams recomputed from
// scratch, and the pre-event model kept as a full factor copy, from which
// the prev Grams and the sampled cells' pre-event values are formed
// directly.

enum class RefKind { kVec, kVecPlus, kRnd, kRndPlus };

class NaiveReference {
 public:
  NaiveReference(RefKind kind, int64_t theta, double clip_bound, uint64_t seed)
      : kind_(kind), theta_(theta), clip_min_(-clip_bound),
        clip_max_(clip_bound), rng_(seed) {}

  void OnEvent(const SparseTensor& window, const WindowDelta& delta,
               CpdState& state) {
    if (delta.cells.empty()) return;
    const int time_mode = state.num_modes() - 1;
    const int w_size =
        static_cast<int>(state.model.factor(time_mode).rows());
    const int w = delta.w;

    const bool sampling = kind_ == RefKind::kRnd || kind_ == RefKind::kRndPlus;
    std::vector<Matrix> prev_factors;
    if (sampling) prev_factors = state.model.factors();  // Pre-event copy.

    auto update_row = [&](int mode, int64_t row) {
      const int64_t rank = state.rank();
      const int64_t padded = PaddedRank(rank);
      Matrix& factor = state.model.factor(mode);
      // Padded-buffer contract of the kernels: rank-length scratch spans
      // the padded stride with zero padding lanes.
      std::vector<double> old_row(factor.Row(row), factor.Row(row) + padded);
      const Matrix h = HadamardOfGramsExcept(state.grams, mode);
      std::vector<double> rhs(static_cast<size_t>(padded), 0.0);
      std::vector<double> had(static_cast<size_t>(padded), 0.0);

      auto accumulate_delta_cells = [&]() {
        for (const DeltaCell& cell : delta.cells) {
          if (cell.index[mode] != row) continue;
          HadamardRowProduct(state.model.factors(), cell.index, mode,
                             had.data());
          for (int64_t r = 0; r < rank; ++r) {
            rhs[static_cast<size_t>(r)] +=
                cell.delta * had[static_cast<size_t>(r)];
          }
        }
      };

      switch (kind_) {
        case RefKind::kVec:
          if (mode == time_mode) {
            accumulate_delta_cells();
            std::vector<double> solution(static_cast<size_t>(rank));
            SolveRowAgainstGram(h, rhs.data(), solution.data());
            double* target = factor.Row(row);
            for (int64_t r = 0; r < rank; ++r) {
              target[r] += solution[static_cast<size_t>(r)];
            }
          } else {
            MttkrpRow(window, state.model.factors(), mode, row, rhs.data());
            std::vector<double> solution(static_cast<size_t>(rank));
            SolveRowAgainstGram(h, rhs.data(), solution.data());
            double* target = factor.Row(row);
            for (int64_t r = 0; r < rank; ++r) {
              target[r] = solution[static_cast<size_t>(r)];
            }
          }
          break;
        case RefKind::kVecPlus:
          if (mode == time_mode) {
            RowTimesMatrix(old_row.data(), h, rhs.data());
            accumulate_delta_cells();
          } else {
            MttkrpRow(window, state.model.factors(), mode, row, rhs.data());
          }
          CoordinateDescentRow(factor.Row(row), rank, h, rhs.data(),
                               clip_min_, clip_max_);
          break;
        case RefKind::kRnd:
        case RefKind::kRndPlus: {
          const int64_t degree = window.Degree(mode, row);
          if (degree <= theta_) {
            MttkrpRow(window, state.model.factors(), mode, row, rhs.data());
          } else {
            // Alg. 3 line 1: U(m) = A_prev(m)'A(m) for every mode.
            std::vector<Matrix> prev_grams;
            for (int m = 0; m < state.num_modes(); ++m) {
              prev_grams.push_back(
                  MultiplyTransposeA(prev_factors[static_cast<size_t>(m)],
                                     state.model.factor(m)));
            }
            const Matrix h_prev = HadamardOfGramsExcept(prev_grams, mode);
            RowTimesMatrix(old_row.data(), h_prev, rhs.data());
            for (const SampledCell& cell : SampleSliceCells(
                     window, mode, row, theta_, delta, rng_)) {
              double prev_value = 0.0;
              for (int64_t r = 0; r < rank; ++r) {
                double prod = 1.0;
                for (int m = 0; m < state.num_modes(); ++m) {
                  prod *= prev_factors[static_cast<size_t>(m)].Row(
                      cell.index[m])[r];
                }
                prev_value += prod;
              }
              const double residual = cell.value - prev_value;
              HadamardRowProduct(state.model.factors(), cell.index, mode,
                                 had.data());
              for (int64_t r = 0; r < rank; ++r) {
                rhs[static_cast<size_t>(r)] +=
                    residual * had[static_cast<size_t>(r)];
              }
            }
            accumulate_delta_cells();
          }
          if (kind_ == RefKind::kRnd) {
            std::vector<double> solution(static_cast<size_t>(rank));
            SolveRowAgainstGram(h, rhs.data(), solution.data());
            double* target = factor.Row(row);
            for (int64_t r = 0; r < rank; ++r) {
              target[r] = solution[static_cast<size_t>(r)];
            }
          } else {
            CoordinateDescentRow(factor.Row(row), rank, h, rhs.data(),
                                 clip_min_, clip_max_);
          }
          break;
        }
      }

      ApplyGramRowUpdate(state.grams[static_cast<size_t>(mode)],
                         old_row.data(), factor.Row(row));
    };

    if (w > 0) update_row(time_mode, w_size - w);
    if (w < w_size) update_row(time_mode, w_size - w - 1);
    for (int m = 0; m < time_mode; ++m) update_row(m, delta.tuple.index[m]);
  }

 private:
  RefKind kind_;
  int64_t theta_;
  double clip_min_;
  double clip_max_;
  Rng rng_;
};

void ExpectFactorsBitwiseEqual(const CpdState& a, const CpdState& b,
                               int step) {
  for (int m = 0; m < a.num_modes(); ++m) {
    const Matrix& fa = a.model.factor(m);
    const Matrix& fb = b.model.factor(m);
    for (int64_t i = 0; i < fa.rows(); ++i) {
      for (int64_t r = 0; r < fa.cols(); ++r) {
        ASSERT_EQ(fa(i, r), fb(i, r))
            << "step " << step << " mode " << m << " row " << i;
      }
    }
  }
}

double MaxFactorDiff(const CpdState& a, const CpdState& b) {
  double diff = 0.0;
  for (int m = 0; m < a.num_modes(); ++m) {
    diff = std::max(diff, MaxAbsDiff(a.model.factor(m), b.model.factor(m)));
  }
  return diff;
}

// Runs the real updater and the naive reference over the same 3-mode event
// stream (separate but identically mutated windows).
template <typename Updater>
void RunDifferential(Updater& updater, NaiveReference& reference,
                     bool expect_bitwise, double tolerance, uint64_t seed) {
  Rng rng(seed);
  const int w_size = 4;
  const std::vector<int64_t> dims = {5, 6, w_size};
  KruskalModel model = KruskalModel::Random(dims, 3, rng);
  SparseTensor window_real = DenseWindowFromModel(model);
  SparseTensor window_ref = DenseWindowFromModel(model);
  CpdState state_real(model);
  CpdState state_ref(model);

  Rng events(seed + 1);
  for (int step = 0; step < 60; ++step) {
    Rng events_copy = events;  // Same event on both windows.
    WindowDelta delta_real =
        RandomEvent(window_real, events, w_size, dims[0], dims[1]);
    WindowDelta delta_ref =
        RandomEvent(window_ref, events_copy, w_size, dims[0], dims[1]);
    updater.OnEvent(window_real, delta_real, state_real);
    reference.OnEvent(window_ref, delta_ref, state_ref);
    if (expect_bitwise) {
      ExpectFactorsBitwiseEqual(state_real, state_ref, step);
    } else {
      ASSERT_LT(MaxFactorDiff(state_real, state_ref), tolerance)
          << "step " << step;
    }
  }
}

// On 3-mode tensors the Gram-product cache's prefix/suffix order coincides
// with the sequential Hadamard order, so the deterministic variants must be
// BITWISE identical to the naive reference.
TEST(DifferentialTest, SnsVecBitwiseIdenticalToNaiveReference) {
  RowUpdater updater(RowOptions(SnsVariant::kVec));
  NaiveReference reference(RefKind::kVec, 0, 1.0, 0);
  RunDifferential(updater, reference, /*expect_bitwise=*/true, 0.0, 0xd1f1);
}

TEST(DifferentialTest, SnsVecPlusBitwiseIdenticalToNaiveReference) {
  RowUpdater updater(RowOptions(SnsVariant::kVecPlus, 20, /*eta=*/50.0));
  NaiveReference reference(RefKind::kVecPlus, 0, 50.0, 0);
  RunDifferential(updater, reference, /*expect_bitwise=*/true, 0.0, 0xd1f2);
}

// The sampled variants reconstruct U(m) = Q(m) + (p−a)'a instead of deep
// copying and maintaining it; the algebra is exact but the floating-point
// rounding differs from the reference path, so the comparison is a tight
// tolerance instead of bitwise. Identical seeds keep the θ-sampling in
// lockstep.
TEST(DifferentialTest, SnsRndMatchesNaiveReference) {
  RowUpdater updater(
      RowOptions(SnsVariant::kRnd, /*theta=*/3, 1000.0, /*rng_seed=*/99));
  NaiveReference reference(RefKind::kRnd, 3, 1.0, 99);
  RunDifferential(updater, reference, /*expect_bitwise=*/false, 1e-7, 0xd1f3);
}

TEST(DifferentialTest, SnsRndPlusMatchesNaiveReference) {
  RowUpdater updater(RowOptions(SnsVariant::kRndPlus, /*theta=*/3,
                                /*eta=*/50.0, /*rng_seed=*/99));
  NaiveReference reference(RefKind::kRndPlus, 3, 50.0, 99);
  RunDifferential(updater, reference, /*expect_bitwise=*/false, 1e-7, 0xd1f4);
}

// SNS-MAT: the workspace ALS sweep (in-place solve, MttkrpInto,
// MultiplyTransposeAInto, cached Gram products) against the textbook sweep.
TEST(DifferentialTest, SnsMatBitwiseIdenticalToNaiveSweep) {
  Rng rng(0xd1f5);
  const int w_size = 4;
  const std::vector<int64_t> dims = {5, 6, w_size};
  KruskalModel model = KruskalModel::Random(dims, 3, rng);
  SparseTensor window_real = DenseWindowFromModel(model);
  SparseTensor window_ref = DenseWindowFromModel(model);
  CpdState state_real(model);
  CpdState state_ref(model);
  SnsMatUpdater updater;

  Rng events(0xd1f6);
  for (int step = 0; step < 10; ++step) {
    Rng events_copy = events;
    WindowDelta delta_real =
        RandomEvent(window_real, events, w_size, dims[0], dims[1]);
    WindowDelta delta_ref =
        RandomEvent(window_ref, events_copy, w_size, dims[0], dims[1]);
    updater.OnEvent(window_real, delta_real, state_real);

    // Naive sweep on the reference state.
    for (int m = 0; m < state_ref.num_modes(); ++m) {
      Matrix mttkrp = Mttkrp(window_ref, state_ref.model.factors(), m);
      Matrix h = HadamardOfGramsExcept(state_ref.grams, m);
      Matrix updated = SolveRowsAgainstGram(h, mttkrp);
      for (int64_t r = 0; r < state_ref.rank(); ++r) {
        double norm_sq = 0.0;
        for (int64_t i = 0; i < updated.rows(); ++i) {
          norm_sq += updated(i, r) * updated(i, r);
        }
        const double norm = std::sqrt(norm_sq);
        state_ref.model.lambda()[static_cast<size_t>(r)] = norm;
        if (norm > 0.0) {
          const double inv = 1.0 / norm;
          for (int64_t i = 0; i < updated.rows(); ++i) updated(i, r) *= inv;
        }
      }
      state_ref.model.factor(m) = std::move(updated);
      state_ref.grams[static_cast<size_t>(m)] = MultiplyTransposeA(
          state_ref.model.factor(m), state_ref.model.factor(m));
    }
    ExpectFactorsBitwiseEqual(state_real, state_ref, step);
  }
}

// ---------------------------------------------------------------------------
// GCP Newton row step: the production step (each cell's Hadamard row staged
// once, fused loss terms, tiled upper-triangle curvature) against the
// straightforward per-cell step it replaced, kept here as the reference —
// bitwise rows and Hessian upper triangles, on every tier the host runs.

struct ReferenceGcpWorkspace {
  Matrix hessian;
  GramSolver solver;
  AlignedVector grad, step, candidate, old_row, had, had_scaled;
  std::vector<double> theta0, dtheta;
};

double Clamp(double v, double lo, double hi) {
  return v > hi ? hi : (v < lo ? lo : v);
}

// The per-cell damped Newton step: per cell, a Hadamard row, three loss
// evaluations, an ℓ''-scaled copy and a full R×R AddOuterProduct; pass 2
// rebuilds every Hadamard row.
bool ReferenceGcpStep(CpdState& state, int mode, int64_t row,
                      const LossFunction& loss,
                      std::span<const SampledCell> cells, double clip_min,
                      double clip_max, ReferenceGcpWorkspace& ws) {
  const int64_t rank = state.rank();
  const int64_t padded = PaddedRank(rank);
  const RankKernelTable& kr = GetRankKernelTable(padded);
  ws.hessian = Matrix(rank, rank);
  for (AlignedVector* v : {&ws.grad, &ws.step, &ws.candidate, &ws.old_row,
                           &ws.had, &ws.had_scaled}) {
    v->Assign(rank, 0.0);
  }
  ws.theta0.assign(cells.size(), 0.0);
  ws.dtheta.assign(cells.size(), 0.0);
  double* live_row = state.model.factor(mode).Row(row);
  kr.copy(live_row, ws.old_row.data(), padded);
  if (cells.empty()) return false;

  double obj0 = 0.0;
  for (size_t c = 0; c < cells.size(); ++c) {
    HadamardRowProduct(state.model.factors(), cells[c].index, mode,
                       ws.had.data());
    const double theta = kr.dot(ws.had.data(), ws.old_row.data(), padded);
    ws.theta0[c] = theta;
    obj0 += loss.Value(cells[c].value, theta);
    const double d1 = loss.Evaluate(cells[c].value, theta).d1;
    const double d2 = loss.Evaluate(cells[c].value, theta).d2;
    kr.axpy(-d1, ws.had.data(), ws.grad.data(), padded);
    kr.fill(ws.had_scaled.data(), 0.0, padded);
    kr.axpy(d2, ws.had.data(), ws.had_scaled.data(), padded);
    AddOuterProduct(ws.hessian, ws.had_scaled.data(), ws.had.data());
  }
  if (!std::isfinite(obj0)) return false;

  double trace = 0.0;
  for (int64_t r = 0; r < rank; ++r) trace += ws.hessian(r, r);
  const double ridge = 1e-9 * (1.0 + trace / static_cast<double>(rank));
  for (int64_t r = 0; r < rank; ++r) ws.hessian(r, r) += ridge;
  ws.solver.Factorize(ws.hessian);
  ws.solver.Solve(ws.grad.data(), ws.step.data());

  for (int64_t r = 0; r < rank; ++r) {
    const double v = Clamp(ws.old_row[r] + ws.step[r], clip_min, clip_max);
    ws.candidate[r] = v;
    ws.step[r] = v - ws.old_row[r];
  }
  const double dir_norm_sq = kr.dot(ws.step.data(), ws.step.data(), padded);
  if (!(dir_norm_sq > 0.0) || !std::isfinite(dir_norm_sq)) return false;

  for (size_t c = 0; c < cells.size(); ++c) {
    HadamardRowProduct(state.model.factors(), cells[c].index, mode,
                       ws.had.data());
    ws.dtheta[c] = kr.dot(ws.had.data(), ws.step.data(), padded);
  }
  for (double alpha : {1.0, 0.5, 0.25, 0.125}) {
    double obj = 0.0;
    for (size_t i = 0; i < cells.size(); ++i) {
      obj += loss.Value(cells[i].value, ws.theta0[i] + alpha * ws.dtheta[i]);
    }
    if (!std::isfinite(obj) || obj > obj0) continue;
    kr.copy(ws.old_row.data(), ws.candidate.data(), padded);
    kr.axpy(alpha, ws.step.data(), ws.candidate.data(), padded);
    for (int64_t r = 0; r < rank; ++r) {
      ws.candidate[r] = Clamp(ws.candidate[r], clip_min, clip_max);
    }
    kr.copy(ws.candidate.data(), live_row, padded);
    return true;
  }
  return false;
}

void ExpectBitwiseEqual(double actual, double expected, const char* what,
                        int64_t i, int64_t j) {
  ASSERT_EQ(std::bit_cast<uint64_t>(actual), std::bit_cast<uint64_t>(expected))
      << what << "(" << i << ", " << j << "): " << actual << " vs "
      << expected;
}

// Coverage counters of the pin, so it cannot pass vacuously.
struct GcpPinCoverage {
  int moved = 0;     // Steps that committed a new row.
  int on_bound = 0;  // Committed clipped-step entries sitting on the box.
};

// Three consecutive steps of one row over a random cell set of each size.
void RunGcpStepPin(LossKind kind, bool clipped, KernelTier tier, int64_t rank,
                   GcpPinCoverage& coverage) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const LossFunction& loss = GetLossFunction(kind);
  const double clip_min = clipped ? -0.25 : -kInf;
  const double clip_max = clipped ? 1.0 : kInf;
  const int mode = 0;
  const int64_t row = 2;
  const ScopedProcessTier pin(tier);
  for (const size_t num_cells : {size_t{1}, size_t{3}, size_t{64},
                                 size_t{257}}) {
    SCOPED_TRACE(testing::Message() << "cells=" << num_cells);
    Rng rng(0x6c9 + num_cells + static_cast<uint64_t>(rank));
    const std::vector<int64_t> dims = {5, 30, 12};
    KruskalModel model = KruskalModel::Random(dims, rank, rng);
    CpdState prod(model), ref(model);
    std::vector<SampledCell> cells;
    for (size_t c = 0; c < num_cells; ++c) {
      const auto j = static_cast<int32_t>(rng.UniformInt(0, dims[1] - 1));
      const auto k = static_cast<int32_t>(rng.UniformInt(0, dims[2] - 1));
      const double y = kind == LossKind::kPoisson
                           ? static_cast<double>(rng.UniformInt(0, 6))
                           : static_cast<double>(rng.UniformInt(0, 1));
      cells.push_back({ModeIndex{static_cast<int32_t>(row), j, k}, y});
    }
    GcpRowWorkspace ws;
    ReferenceGcpWorkspace ref_ws;
    for (int step = 0; step < 3; ++step) {
      SCOPED_TRACE(testing::Message() << "step " << step);
      const bool moved = GcpNewtonRowUpdate(prod, mode, row, loss, cells,
                                            clip_min, clip_max, ws);
      ASSERT_EQ(ws.kernels->tier, tier);  // The pin reached the step.
      const bool ref_moved = ReferenceGcpStep(ref, mode, row, loss, cells,
                                              clip_min, clip_max, ref_ws);
      ASSERT_EQ(moved, ref_moved);
      coverage.moved += moved ? 1 : 0;
      for (int64_t i = 0; i < rank; ++i) {
        for (int64_t j = i; j < rank; ++j) {
          ExpectBitwiseEqual(ws.hessian(i, j), ref_ws.hessian(i, j),
                             "hessian", i, j);
        }
      }
      const double* a = prod.model.factor(mode).Row(row);
      const double* b = ref.model.factor(mode).Row(row);
      for (int64_t r = 0; r < rank; ++r) {
        ExpectBitwiseEqual(a[r], b[r], "row", row, r);
        if (a[r] == clip_min || a[r] == clip_max) ++coverage.on_bound;
      }
    }
  }
}

TEST(GcpStepDifferentialTest, BitwiseIdenticalToPerCellStepOnEveryTier) {
  // Ranks: a partial last row block (7), the benchmarks' rank (20), and two
  // that run the runtime-bound kernel tables (37 with a padded tail, 40).
  GcpPinCoverage coverage;
  for (const KernelTier tier : SupportedTiers()) {
    for (const int64_t rank : {int64_t{7}, int64_t{20}, int64_t{37},
                               int64_t{40}}) {
      for (const LossKind kind :
           {LossKind::kPoisson, LossKind::kBernoulliLogit}) {
        for (const bool clipped : {false, true}) {
          SCOPED_TRACE(testing::Message()
                       << KernelTierName(tier) << " rank=" << rank << " "
                       << LossKindName(kind)
                       << (clipped ? " clipped" : " unclipped"));
          RunGcpStepPin(kind, clipped, tier, rank, coverage);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
  // Steps must actually commit, and the clipped configurations must
  // actually exercise the projection.
  EXPECT_GT(coverage.moved, 0);
  EXPECT_GT(coverage.on_bound, 0);
}

// The slice-driven step gathers factor rows and values straight from the
// window; it must equal the span step over the same cells, listed in slice
// order, bitwise — rows, Hessian upper triangles and return values — on
// 3- and 4-mode windows, every row with a non-empty slice in every mode,
// and on every tier.
void RunSliceStepPin(const std::vector<int64_t>& dims, KernelTier tier,
                     int& moved) {
  constexpr int64_t kRank = 7;
  const LossFunction& loss = GetLossFunction(LossKind::kPoisson);
  const ScopedProcessTier pin(tier);
  Rng rng(0x51ce + dims.size());
  SparseTensor window(dims);
  for (int e = 0; e < 400; ++e) {
    ModeIndex index;
    for (const int64_t d : dims) {
      index.PushBack(static_cast<int32_t>(rng.UniformInt(0, d - 1)));
    }
    window.Add(index, static_cast<double>(rng.UniformInt(1, 4)));
  }
  KruskalModel model = KruskalModel::Random(dims, kRank, rng);
  CpdState by_slice(model), by_span(model);
  GcpRowWorkspace slice_ws, span_ws;
  std::vector<SampledCell> cells;
  for (int step = 0; step < 2; ++step) {
    for (int m = 0; m < static_cast<int>(dims.size()); ++m) {
      for (int64_t i = 0; i < dims[static_cast<size_t>(m)]; ++i) {
        SCOPED_TRACE(testing::Message() << "step " << step << " mode " << m
                                        << " row " << i);
        cells.clear();
        for (const auto [coords, value] : window.Slice(m, i)) {
          cells.push_back({coords, value});
        }
        const bool a = GcpNewtonRowUpdateOnSlice(window, by_slice, m, i, loss,
                                                 -1.0, 4.0, slice_ws);
        const bool b = GcpNewtonRowUpdate(by_span, m, i, loss, cells, -1.0,
                                          4.0, span_ws);
        ASSERT_EQ(a, b);
        moved += a ? 1 : 0;
        if (cells.empty()) continue;
        for (int64_t r = 0; r < kRank; ++r) {
          for (int64_t j = r; j < kRank; ++j) {
            ExpectBitwiseEqual(slice_ws.hessian(r, j), span_ws.hessian(r, j),
                               "hessian", r, j);
          }
          ExpectBitwiseEqual(by_slice.model.factor(m).Row(i)[r],
                             by_span.model.factor(m).Row(i)[r], "row", i, r);
        }
      }
    }
  }
}

TEST(GcpStepDifferentialTest, SliceStepBitwiseEqualsSpanStepOnEveryTier) {
  int moved = 0;
  for (const KernelTier tier : SupportedTiers()) {
    for (const std::vector<int64_t>& dims :
         {std::vector<int64_t>{6, 20, 9}, std::vector<int64_t>{5, 8, 7, 6}}) {
      SCOPED_TRACE(testing::Message() << KernelTierName(tier) << " modes="
                                      << dims.size());
      RunSliceStepPin(dims, tier, moved);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(moved, 0);
}

// ---------------------------------------------------------------------------
// Sampled rule of SNS-RND / SNS+RND: the staged RowUpdater::SampledRowRhs
// (offset-keyed sampler, one row gather per sample, direct Hadamard rows,
// interleaved x̃ sums, row-wise e-term) against the per-cell loop it
// replaced, kept here with that loop's sampler and EvaluatePrevModel as
// references — bitwise right-hand sides, factor rows, sampled cells and
// post-sampling RNG state, on every tier the host runs.

// Coverage counters of the pin, so it cannot pass vacuously.
struct SampledRulePinCoverage {
  int sampled_rows = 0;      // Rows that took the sampled rule.
  int delta_rejections = 0;  // Drawn delta cells the sampler rejected.
  int duplicates = 0;        // Drawn cells rejected as already sampled.
  int enumerations = 0;      // Rows that took the enumerate-all branch.
};

// The sampler before slice-grid offset keys: coordinate scans for the
// delta-cell exclusion and the de-duplication.
void ReferenceSampleSliceCells(const SparseTensor& window, int mode,
                               int64_t row, int64_t count,
                               const WindowDelta& delta, Rng& rng,
                               std::vector<SampledCell>& cells,
                               SampledRulePinCoverage& coverage) {
  auto is_delta = [&](const ModeIndex& index) {
    for (const DeltaCell& cell : delta.cells) {
      if (cell.index == index) return true;
    }
    return false;
  };
  const int modes = window.num_modes();
  double grid_size = 1.0;
  for (int n = 0; n < modes; ++n) {
    if (n != mode) grid_size *= static_cast<double>(window.dim(n));
  }
  cells.clear();
  if (grid_size <= static_cast<double>(count) + delta.cells.size()) {
    ++coverage.enumerations;
    ModeIndex index;
    for (int n = 0; n < modes; ++n) index.PushBack(0);
    index[mode] = static_cast<int32_t>(row);
    while (true) {
      if (!is_delta(index)) cells.push_back({index, window.Get(index)});
      int n = modes - 1;
      while (n >= 0) {
        if (n == mode) {
          --n;
          continue;
        }
        if (++index[n] < window.dim(n)) break;
        index[n] = 0;
        --n;
      }
      if (n < 0) break;
    }
    return;
  }
  int attempts = 0;
  const int max_attempts = static_cast<int>(count) * 20 + 64;
  while (static_cast<int64_t>(cells.size()) < count &&
         attempts++ < max_attempts) {
    ModeIndex index;
    for (int n = 0; n < modes; ++n) {
      index.PushBack(n == mode ? static_cast<int32_t>(row)
                               : static_cast<int32_t>(rng.UniformInt(
                                     0, window.dim(n) - 1)));
    }
    if (is_delta(index)) {
      ++coverage.delta_rejections;
      continue;
    }
    bool seen = false;
    for (const SampledCell& cell : cells) {
      if (cell.index == index) seen = true;
    }
    if (seen) {
      ++coverage.duplicates;
      continue;
    }
    cells.push_back({index, window.Get(index)});
  }
}

// What each side logs per updated row: the right-hand side the row solve
// consumed, the sampled cells (sampled rows only) and the RNG state after
// the row.
struct SampledRowRecord {
  int mode = 0;
  int64_t row = 0;
  std::vector<double> rhs;
  std::vector<SampledCell> cells;
  RngState rng;
};

// Production updater with a logging hook around its UpdateRow.
class SampledRuleProbe : public RowUpdater {
 public:
  explicit SampledRuleProbe(const ContinuousCpdOptions& options)
      : RowUpdater(options), theta_(options.sample_threshold) {}

  std::vector<SampledRowRecord> log;
  KernelTier tier = KernelTier::kGeneric;  // Of the workspace's table.

 protected:
  void UpdateRow(int mode, int64_t row, const SparseTensor& window,
                 const WindowDelta& delta, CpdState& state,
                 UpdateWorkspace& ws) override {
    RowUpdater::UpdateRow(mode, row, window, delta, state, ws);
    tier = ws.kernels->tier;
    SampledRowRecord record;
    record.mode = mode;
    record.row = row;
    record.rhs.assign(ws.rhs.data(), ws.rhs.data() + state.rank());
    if (window.Degree(mode, row) > theta_) record.cells = ws.samples;
    record.rng = MutableRng()->SaveState();
    log.push_back(std::move(record));
  }

 private:
  int64_t theta_;
};

// The per-cell sampled rule, as SNS-RND (plus = false) and SNS+RND ran it:
// H_prev = ∗ U(n) as a full R×R matrix, then per sampled cell a scalar
// pre-event evaluation, a 1.0-filled Hadamard row and an axpy. The prev-Gram
// delta records are kept here (the production ones are private), built
// exactly as CommitRow builds its own; the base is an SNS-RND updater only
// for its snapshots, Gram maintenance and θ-sized workspace.
class ReferenceSampledRuleUpdater : public RowUpdater {
 public:
  ReferenceSampledRuleUpdater(bool plus, int64_t theta, double clip_bound,
                              uint64_t seed, SampledRulePinCoverage& coverage)
      : RowUpdater(RowOptions(SnsVariant::kRnd, theta)), plus_(plus),
        theta_(theta), clip_bound_(clip_bound), rng_(seed),
        coverage_(coverage) {}

  std::string_view name() const override { return "reference-rnd"; }

  /// Call before each OnEvent: drops the previous event's delta records.
  void StartEvent() {
    deltas_.clear();
    grams_resynced_ = false;
  }

  std::vector<SampledRowRecord> log;

 protected:
  void UpdateRow(int mode, int64_t row, const SparseTensor& window,
                 const WindowDelta& delta, CpdState& state,
                 UpdateWorkspace& ws) override {
    const int64_t rank = state.rank();
    const RankKernelTable& kr = *ws.kernels;
    const int64_t padded = ws.padded_rank;
    Matrix& factor = state.model.factor(mode);
    kr.copy(factor.Row(row), ws.old_row.data(), padded);
    // H(m) from a freshly bound product cache (bitwise the production
    // cache's product: chain entries depend only on the current Grams).
    // Like the production rule, the unclipped rule factorizes it before
    // the rhs and resyncs the Grams, once per event, when that fails.
    products_.BeginEvent(state.grams);
    const Matrix* h = &products_.ProductExcept(mode);
    if (!plus_ && !ws.solver.Factorize(*h) && !grams_resynced_) {
      grams_resynced_ = true;
      state.RecomputeGrams();
      products_.BeginEvent(state.grams);
      h = &products_.ProductExcept(mode);
      ws.solver.Factorize(*h);
    }
    SampledRowRecord record;
    record.mode = mode;
    record.row = row;
    if (window.Degree(mode, row) <= theta_) {
      MttkrpRow(window, state.model.factors(), mode, row, ws.rhs.data(),
                ws.had.data());
    } else {
      ++coverage_.sampled_rows;
      PrevGramHadamard(state, mode);
      RowTimesMatrixPadded(ws.old_row.data(), h_prev_, ws.rhs.data());
      ReferenceSampleSliceCells(window, mode, row, theta_, delta, rng_,
                                record.cells, coverage_);
      for (const SampledCell& cell : record.cells) {
        const double residual =
            cell.value - EvaluatePrevModel(cell.index, state);
        HadamardRowProduct(state.model.factors(), cell.index, mode,
                           ws.had.data());
        kr.axpy(residual, ws.had.data(), ws.rhs.data(), padded);
      }
      for (const DeltaCell& cell : delta.cells) {
        if (cell.index[mode] != row) continue;
        HadamardRowProduct(state.model.factors(), cell.index, mode,
                           ws.had.data());
        kr.axpy(cell.delta, ws.had.data(), ws.rhs.data(), padded);
      }
    }
    record.rhs.assign(ws.rhs.data(), ws.rhs.data() + rank);
    record.rng = rng_.SaveState();
    log.push_back(std::move(record));

    if (plus_) {
      CoordinateDescentRow(factor.Row(row), rank, *h, ws.rhs.data(),
                           -clip_bound_, clip_bound_);
    } else {
      ws.solver.Solve(ws.rhs.data(), ws.solution.data());
      kr.copy(ws.solution.data(), factor.Row(row), padded);
    }
    CommitRow(mode, row, ws.old_row.data(), state);
    GramDelta d{mode, AlignedVector(rank), AlignedVector(rank)};
    const double* new_row = factor.Row(row);
    for (int64_t r = 0; r < padded; ++r) {
      d.diff.data()[r] = ws.old_row.data()[r] - new_row[r];
      d.saved_new.data()[r] = new_row[r];
    }
    deltas_.push_back(std::move(d));
  }

 private:
  struct GramDelta {
    int mode;
    AlignedVector diff, saved_new;
  };

  // X̃ at one cell under the event-start factors.
  double EvaluatePrevModel(const ModeIndex& index,
                           const CpdState& state) const {
    const int modes = state.num_modes();
    const double* rows[kMaxTensorModes];
    for (int m = 0; m < modes; ++m) rows[m] = PrevRow(m, index[m], state);
    double sum = 0.0;
    for (int64_t r = 0; r < state.rank(); ++r) {
      double prod = 1.0;
      for (int m = 0; m < modes; ++m) prod *= rows[m][r];
      sum += prod;
    }
    return sum;
  }

  // h_prev_ = ∗_{n≠skip} U(n), U(n) = Q(n) + Σ (p−a)'a as full matrices.
  void PrevGramHadamard(const CpdState& state, int skip) {
    const int64_t rank = state.rank();
    h_prev_ = Matrix(rank, rank);
    h_prev_.Fill(1.0);
    for (int n = 0; n < state.num_modes(); ++n) {
      if (n == skip) continue;
      Matrix u = state.grams[static_cast<size_t>(n)];
      for (const GramDelta& d : deltas_) {
        if (d.mode == n) {
          AddOuterProduct(u, d.diff.data(), d.saved_new.data());
        }
      }
      HadamardAccumulate(h_prev_, u);
    }
  }

  bool plus_;
  int64_t theta_;
  double clip_bound_;
  Rng rng_;
  SampledRulePinCoverage& coverage_;
  std::vector<GramDelta> deltas_;
  GramProductCache products_;
  bool grams_resynced_ = false;
  Matrix h_prev_;
};

// A random arrival or slide on a window of any mode count (time last).
WindowDelta RandomEventAnyOrder(SparseTensor& window, Rng& rng,
                                const std::vector<int64_t>& dims) {
  const int w_size = static_cast<int>(dims.back());
  ModeIndex key;
  for (size_t m = 0; m + 1 < dims.size(); ++m) {
    key.PushBack(static_cast<int32_t>(rng.UniformInt(0, dims[m] - 1)));
  }
  const double v = rng.UniformDouble(0.5, 1.5);
  WindowDelta delta;
  delta.tuple = Tuple{key, v, 0};
  if (rng.NextUint64(3) == 0 && w_size > 1) {
    const int w = 1 + static_cast<int>(rng.NextUint64(
                          static_cast<uint64_t>(w_size - 1)));
    delta.kind = EventKind::kSlide;
    delta.w = w;
    const ModeIndex from = key.WithAppended(w_size - w);
    const ModeIndex to = key.WithAppended(w_size - w - 1);
    window.Add(from, -v);
    window.Add(to, v);
    delta.cells.push_back({from, -v});
    delta.cells.push_back({to, v});
  } else {
    delta.kind = EventKind::kArrival;
    delta.w = 0;
    const ModeIndex cell = key.WithAppended(w_size - 1);
    window.Add(cell, v);
    delta.cells.push_back({cell, v});
  }
  return delta;
}

void ExpectSameRecords(const std::vector<SampledRowRecord>& prod,
                       const std::vector<SampledRowRecord>& ref) {
  ASSERT_EQ(prod.size(), ref.size());
  for (size_t i = 0; i < prod.size(); ++i) {
    const SampledRowRecord& a = prod[i];
    const SampledRowRecord& b = ref[i];
    ASSERT_EQ(a.mode, b.mode);
    ASSERT_EQ(a.row, b.row);
    ASSERT_EQ(a.cells.size(), b.cells.size()) << "mode " << a.mode;
    for (size_t c = 0; c < a.cells.size(); ++c) {
      ASSERT_TRUE(a.cells[c].index == b.cells[c].index)
          << a.cells[c].index.ToString() << " vs "
          << b.cells[c].index.ToString();
      ExpectBitwiseEqual(a.cells[c].value, b.cells[c].value, "cell value",
                         a.mode, static_cast<int64_t>(c));
    }
    ASSERT_TRUE(a.rng == b.rng) << "mode " << a.mode << " row " << a.row;
    ASSERT_EQ(a.rhs.size(), b.rhs.size());
    for (size_t r = 0; r < a.rhs.size(); ++r) {
      ExpectBitwiseEqual(a.rhs[r], b.rhs[r], "rhs", a.mode,
                         static_cast<int64_t>(r));
    }
  }
}

void RunSampledRulePin(KernelTier tier, int64_t rank,
                       const std::vector<int64_t>& dims, int64_t theta,
                       SampledRulePinCoverage& coverage, bool plus) {
  const ScopedProcessTier pin(tier);
  const uint64_t seed = 0x5a3d + static_cast<uint64_t>(rank + theta) +
                        dims.size();
  Rng rng(seed);
  KruskalModel model = KruskalModel::Random(dims, rank, rng);
  // The production side probes through the occupancy bitset, as the
  // continuous window does; the reference side through the hash alone.
  SparseTensor window_prod = DenseWindowFromModel(model);
  window_prod.TrackOccupancy();
  SparseTensor window_ref = DenseWindowFromModel(model);
  CpdState prod(model), ref(model);
  SampledRuleProbe prod_updater(
      RowOptions(plus ? SnsVariant::kRndPlus : SnsVariant::kRnd, theta,
                 /*eta=*/50.0, /*rng_seed=*/seed));
  ReferenceSampledRuleUpdater ref_updater(plus, theta, 50.0, seed, coverage);

  Rng events(seed + 1);
  for (int step = 0; step < 20; ++step) {
    SCOPED_TRACE(testing::Message() << "step " << step);
    Rng events_copy = events;  // Same event on both windows.
    const WindowDelta delta_prod =
        RandomEventAnyOrder(window_prod, events, dims);
    const WindowDelta delta_ref =
        RandomEventAnyOrder(window_ref, events_copy, dims);
    prod_updater.OnEvent(window_prod, delta_prod, prod);
    ASSERT_EQ(prod_updater.tier, tier);  // The pin reached the updater.
    ref_updater.StartEvent();
    ref_updater.OnEvent(window_ref, delta_ref, ref);
    ExpectSameRecords(prod_updater.log, ref_updater.log);
    if (::testing::Test::HasFatalFailure()) return;
    prod_updater.log.clear();
    ref_updater.log.clear();
    ExpectFactorsBitwiseEqual(prod, ref, step);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SampledRuleDifferentialTest, BitwiseIdenticalToPerCellLoopOnEveryTier) {
  // Shapes (time mode last) and θ: a 3-mode grid where the sampler often
  // draws a delta cell; a small 3-mode grid whose mode-0 and time slices
  // take the enumerate-all branch on slides (12 cells ≤ θ + 2); a 4-mode
  // grid.
  struct Shape {
    std::vector<int64_t> dims;
    int64_t theta;
  };
  const std::vector<Shape> shapes = {
      {{5, 6, 4}, 3}, {{3, 4, 3}, 10}, {{4, 3, 5, 3}, 4}};
  SampledRulePinCoverage coverage;
  for (const KernelTier tier : SupportedTiers()) {
    for (const int64_t rank : {int64_t{7}, int64_t{20}, int64_t{37}}) {
      for (const Shape& shape : shapes) {
        SCOPED_TRACE(testing::Message()
                     << KernelTierName(tier) << " rank=" << rank
                     << " modes=" << shape.dims.size()
                     << " theta=" << shape.theta);
        RunSampledRulePin(tier, rank, shape.dims, shape.theta, coverage,
                          /*plus=*/false);
        if (HasFatalFailure()) return;
        RunSampledRulePin(tier, rank, shape.dims, shape.theta, coverage,
                          /*plus=*/true);
        if (HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(coverage.sampled_rows, 0);
  EXPECT_GT(coverage.delta_rejections, 0);
  EXPECT_GT(coverage.duplicates, 0);
  EXPECT_GT(coverage.enumerations, 0);
}

// ---------------------------------------------------------------------------
// GramProductCache.

// ProductExcept against the chain product formed from scratch — the prefix
// ∗_{n<m} Q(n) left to right and the suffix ∗_{n>m} Q(n) right to left,
// both started from 1.0, then prefix ∗ suffix — bitwise, for M = 2…5 under
// random read / NotifyModeChanged interleavings. For M ≤ 3 that is also the
// plain left-to-right product. A product handed back stays valid while the
// Gram it skips changes, as a row commit of that mode does.
TEST(GramProductCacheTest, MatchesFromScratchChainBitwiseUnderInterleavings) {
  Rng rng(0xc4a1);
  const int64_t rank = 5;
  for (int modes = 2; modes <= 5; ++modes) {
    SCOPED_TRACE(modes);
    std::vector<Matrix> grams;
    for (int m = 0; m < modes; ++m) {
      grams.push_back(Matrix::RandomUniform(rank, rank, rng));
    }
    auto chain = [&](int mode) {
      Matrix expected(rank, rank);
      for (int64_t i = 0; i < rank; ++i) {
        for (int64_t j = 0; j < rank; ++j) {
          double prefix = 1.0;
          for (int n = 0; n < mode; ++n) {
            prefix = prefix * grams[static_cast<size_t>(n)](i, j);
          }
          double suffix = 1.0;
          for (int n = modes - 1; n > mode; --n) {
            suffix = grams[static_cast<size_t>(n)](i, j) * suffix;
          }
          expected(i, j) = prefix * suffix;
        }
      }
      return expected;
    };
    auto expect_bitwise = [&](const Matrix& actual, const Matrix& expected) {
      for (int64_t i = 0; i < rank; ++i) {
        for (int64_t j = 0; j < rank; ++j) {
          ASSERT_EQ(actual(i, j), expected(i, j))
              << "(" << i << ", " << j << ")";
        }
      }
    };
    GramProductCache cache;
    for (int event = 0; event < 20; ++event) {
      cache.BeginEvent(grams);
      for (int step = 0; step < 12; ++step) {
        if (rng.NextUint64(3) == 0) {
          const int changed = static_cast<int>(rng.NextUint64(modes));
          grams[static_cast<size_t>(changed)] =
              Matrix::RandomUniform(rank, rank, rng);
          cache.NotifyModeChanged(changed);
          continue;
        }
        // mode = N reads the product over every mode.
        const int mode = static_cast<int>(rng.NextUint64(modes + 1));
        const Matrix expected = chain(mode);
        const Matrix& actual = cache.ProductExcept(mode);
        expect_bitwise(actual, expected);
        if (modes <= 3 && mode < modes) {
          expect_bitwise(actual, HadamardOfGramsExcept(grams, mode));
        }
        if (mode < modes) {
          // A commit of `mode` leaves the handed-back product valid.
          grams[static_cast<size_t>(mode)] =
              Matrix::RandomUniform(rank, rank, rng);
          cache.NotifyModeChanged(mode);
          expect_bitwise(actual, expected);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot deduplication + O(1) PrevRow.

class SnapshotProbeUpdater : public RowUpdater {
 public:
  SnapshotProbeUpdater() : RowUpdater(RowOptions(SnsVariant::kRnd)) {}

  std::string_view name() const override { return "probe"; }

  int snapshots_seen = -1;

 protected:
  void UpdateRow(int mode, int64_t row, const SparseTensor&,
                 const WindowDelta&, CpdState& state,
                 UpdateWorkspace& ws) override {
    snapshots_seen = snapshot_count();
    // Overwrite the live row and check PrevRow still serves the event-start
    // value from its snapshot.
    Matrix& factor = state.model.factor(mode);
    const double before = factor(row, 0);
    std::copy(factor.Row(row), factor.Row(row) + state.rank(),
              ws.old_row.begin());
    factor(row, 0) = before + 7.5;
    EXPECT_EQ(PrevRow(mode, row, state)[0], before)
        << "mode " << mode << " row " << row;
    CommitRow(mode, row, ws.old_row.data(), state);
  }
};

TEST(SnapshotTest, DuplicateTimeRowCellsSnapshotOnce) {
  Rng rng(0x54a9);
  const std::vector<int64_t> dims = {4, 3, 5};
  KruskalModel model = KruskalModel::Random(dims, 2, rng);
  SparseTensor window = DenseWindowFromModel(model);
  CpdState state(model);
  SnapshotProbeUpdater probe;

  // Degenerate delta: two cells living in the SAME time slice. The old code
  // snapshotted the time row once per cell; the deduped path must count it
  // once — 1 time snapshot + 2 non-time snapshots.
  WindowDelta twin;
  twin.kind = EventKind::kArrival;
  twin.w = 0;
  twin.tuple = Tuple{{1, 2}, 2.0, 0};
  const ModeIndex cell = ModeIndex{1, 2}.WithAppended(4);
  window.Add(cell, 2.0);
  twin.cells.push_back({cell, 1.5});
  twin.cells.push_back({cell, 0.5});
  probe.OnEvent(window, twin, state);
  EXPECT_EQ(probe.snapshots_seen, 3);

  // A slide touches two distinct time rows: 2 + 2 snapshots.
  WindowDelta slide = MakeSlide(window, 2, 1, 1.0, 2, 5);
  probe.OnEvent(window, slide, state);
  EXPECT_EQ(probe.snapshots_seen, 4);
}

// ---------------------------------------------------------------------------
// MakeUpdater fails loudly on an unhandled variant.

TEST(MakeUpdaterDeathTest, UnhandledVariantFailsLoudly) {
  ContinuousCpdOptions options;
  options.variant = static_cast<SnsVariant>(99);
  EXPECT_DEATH(
      { auto engine = ContinuousCpd::Create({4, 4}, options); },
      "unhandled SnsVariant");
}

}  // namespace
}  // namespace sns
