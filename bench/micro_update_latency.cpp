// google-benchmark microbenchmarks: per-event update latency under each
// loss, sharded-service throughput, the storage share of one event, the
// one-shot Gram solve, and the rank-R kernels per tier. Per-layer latency
// of the engine, handle and service lives in the perfbench ledger
// (perfbench/run.py --trace 1).
//
// Unless --benchmark_out is given, results are also written as JSON to
// BENCH_micro_update_latency.json in the working directory so the perf
// trajectory is machine-trackable across PRs.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "api/sns_service.h"
#include "common/cpu_features.h"
#include "common/random.h"
#include "core/continuous_cpd.h"
#include "core/cpd_state.h"
#include "core/gram_solve.h"
#include "core/row_updater.h"
#include "data/datasets.h"
#include "losses/loss_function.h"
#include "linalg/rank_dispatch.h"
#include "linalg/simd.h"
#include "tensor/mttkrp.h"

namespace sns {
namespace {

// A prepared SNS+VEC engine over a mid-size window plus an endless arrival
// synthesizer, so iterations measure steady-state event processing.
struct EngineFixture {
  EngineFixture(LossKind loss, bool robust)
      : spec(NewYorkTaxiPreset(0.4)), rng(7) {
    spec.engine.variant = SnsVariant::kVecPlus;
    spec.engine.loss = loss;
    if (robust) {
      spec.engine.robust.enabled = true;
      spec.engine.robust.threshold = 3.0;
      spec.engine.robust.decay = 0.5;
      spec.engine.robust.capacity = 4096;
    }
    auto stream = GenerateSyntheticStream(spec.stream);
    SNS_CHECK(stream.ok());
    spec.engine.expected_nnz =
        stream.value().CountTuplesThrough(spec.WarmupEndTime());
    auto created = ContinuousCpd::Create(stream.value().mode_dims(),
                                         spec.engine);
    SNS_CHECK(created.ok());
    engine = std::move(created).value();
    const int64_t warmup_end = spec.WarmupEndTime();
    for (const Tuple& tuple : stream.value().tuples()) {
      if (tuple.time > warmup_end) break;
      engine->IngestOnly(tuple);
    }
    engine->InitializeWithAls();
    now = warmup_end;
  }

  Tuple NextTuple() {
    now += 1 + static_cast<int64_t>(rng.NextUint64(3));
    Tuple tuple;
    for (int64_t dim : spec.stream.mode_dims) {
      tuple.index.PushBack(static_cast<int32_t>(rng.UniformInt(0, dim - 1)));
    }
    tuple.value = 1.0;
    tuple.time = now;
    return tuple;
  }

  DatasetSpec spec;
  Rng rng;
  std::unique_ptr<ContinuousCpd> engine;
  int64_t now = 0;
};

// ---------------------------------------------------------------------------
// Generalized-loss update latency: the damped Newton GCP row step
// (losses/gcp_row_update.h) under Poisson and Bernoulli losses, and the
// robust ingest path (outlier capture into S), each against the
// closed-form Gaussian SNS+VEC run on the identical stream — the premium
// of swapping the loss is the ratio to the first row.
void BM_LossUpdate(benchmark::State& state) {
  const LossKind loss = static_cast<LossKind>(state.range(0));
  const bool robust = state.range(1) != 0;
  EngineFixture fixture(loss, robust);
  for (auto _ : state) {
    fixture.engine->ProcessTuple(fixture.NextTuple());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::string("SNS+VEC ") + std::string(LossKindName(loss)) +
                 (robust ? "+robust" : ""));
}
// Fixed iteration count: per-tuple cost ramps as the continuous window
// fills toward its steady state, so a run's mean depends on how many tuples
// it covers. Every row covers the same 10000 tuples.
BENCHMARK(BM_LossUpdate)
    ->Args({static_cast<int>(LossKind::kGaussian), 0})  // Baseline.
    ->Args({static_cast<int>(LossKind::kPoisson), 0})
    ->Args({static_cast<int>(LossKind::kBernoulliLogit), 0})
    ->Args({static_cast<int>(LossKind::kGaussian), 1})  // Robust capture.
    ->Args({static_cast<int>(LossKind::kPoisson), 1})
    ->Iterations(10000)
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Service-level aggregate throughput: K streams fed through the sharded
// runtime (api/sns_service.h) at S worker shards, S = 0 being the inline
// synchronous baseline. Each iteration submits one batch per stream via
// IngestAsync and drains — the batch-synchronous feed pattern — so the
// reported items/s is the aggregate tuples/sec of the whole service.
// Per-stream work is identical across shard counts (pinned assignment
// keeps event order bitwise equal), so the ratio to S = 0 is pure runtime
// scaling: ~1 on a single-core host, approaching min(S, K, cores) with
// real parallelism.

constexpr int kThroughputStreams = 8;
constexpr int64_t kThroughputBatch = 32;

struct ServiceFixture {
  explicit ServiceFixture(int shards) {
    ServiceOptions runtime;
    runtime.shards = shards;
    runtime.backpressure = BackpressurePolicy::kBlock;
    runtime.max_queue_depth = 64;
    // Telemetry on: the benchmark doubles as the overhead regression check,
    // and its JSON artifact carries the ingest-latency percentiles.
    runtime.metrics.enabled = true;
    service = std::make_unique<SnsService>(runtime);
    const int64_t warmup_end =
        static_cast<int64_t>(EngineOptions().window_size) *
        EngineOptions().period;
    for (int s = 0; s < kThroughputStreams; ++s) {
      names.push_back("stream-" + std::to_string(s));
      SyntheticStreamConfig config;
      config.mode_dims = {64, 64};
      config.num_events = 4000;
      config.time_span = warmup_end;
      config.diurnal_period = warmup_end;
      config.seed = 1000 + static_cast<uint64_t>(s);
      auto stream = GenerateSyntheticStream(config);
      SNS_CHECK(stream.ok());
      ContinuousCpdOptions engine = EngineOptions();
      engine.expected_nnz = static_cast<int64_t>(config.num_events);
      SNS_CHECK(
          service->CreateStream(names.back(), config.mode_dims, engine)
              .ok());
      SNS_CHECK(service->Warmup(names.back(), stream.value().tuples()).ok());
      SNS_CHECK(service->Initialize(names.back()).ok());
      rngs.emplace_back(2000 + static_cast<uint64_t>(s));
      clocks.push_back(warmup_end);
    }
  }

  static ContinuousCpdOptions EngineOptions() {
    ContinuousCpdOptions engine;
    engine.rank = 8;
    engine.window_size = 10;
    engine.period = 3600;
    engine.variant = SnsVariant::kRndPlus;
    return engine;
  }

  std::vector<Tuple> NextBatch(int s) {
    std::vector<Tuple> batch(static_cast<size_t>(kThroughputBatch));
    Rng& rng = rngs[static_cast<size_t>(s)];
    int64_t& now = clocks[static_cast<size_t>(s)];
    for (Tuple& tuple : batch) {
      now += 1 + static_cast<int64_t>(rng.NextUint64(3));
      tuple.index = ModeIndex{static_cast<int32_t>(rng.UniformInt(0, 63)),
                              static_cast<int32_t>(rng.UniformInt(0, 63))};
      tuple.value = 1.0;
      tuple.time = now;
    }
    return batch;
  }

  std::unique_ptr<SnsService> service;
  std::vector<std::string> names;
  std::vector<Rng> rngs;
  std::vector<int64_t> clocks;
};

// Bucket-wise difference of two snapshots of the SAME histogram, so the
// reported percentiles cover only the timed phase (warm-up batches are the
// slowest samples and would otherwise own the p99). min/max keep the
// lifetime envelope — the diff clamps inside it.
telemetry::HistogramSnapshot DiffHistogram(
    const telemetry::HistogramSnapshot& after,
    const telemetry::HistogramSnapshot& before) {
  telemetry::HistogramSnapshot diff = after;
  diff.count = 0;
  diff.sum = after.sum - before.sum;
  for (int i = 0; i < telemetry::HistogramSnapshot::kNumBuckets; ++i) {
    diff.buckets[static_cast<size_t>(i)] -=
        before.buckets[static_cast<size_t>(i)];
    diff.count += diff.buckets[static_cast<size_t>(i)];
  }
  return diff;
}

void BM_ServiceThroughput(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  ServiceFixture fixture(shards);
  const telemetry::ServiceMetricsSnapshot before =
      fixture.service->Metrics().value();
  for (auto _ : state) {
    std::vector<Ticket> tickets;
    tickets.reserve(static_cast<size_t>(kThroughputStreams));
    for (int s = 0; s < kThroughputStreams; ++s) {
      tickets.push_back(fixture.service->IngestAsync(
          fixture.names[static_cast<size_t>(s)], fixture.NextBatch(s)));
    }
    fixture.service->Drain();
    for (const Ticket& ticket : tickets) SNS_CHECK(ticket.Wait().ok());
  }
  state.SetItemsProcessed(state.iterations() * kThroughputStreams *
                          kThroughputBatch);
  state.SetLabel("K=" + std::to_string(kThroughputStreams) + " streams, " +
                 (shards == 0 ? std::string("inline")
                              : "S=" + std::to_string(shards) + " shards"));

  // Telemetry snapshot into the JSON artifact: ingest-to-ticket latency of
  // the timed phase plus per-shard tuple rates (pinned streams make the
  // shard split deterministic).
  const telemetry::ServiceMetricsSnapshot after =
      fixture.service->Metrics().value();
  const telemetry::HistogramSnapshot timed =
      DiffHistogram(after.ingest_latency_ns, before.ingest_latency_ns);
  state.counters["sns_p99_ingest_ns"] = benchmark::Counter(
      static_cast<double>(timed.Percentile(0.99)));
  state.counters["sns_p50_ingest_ns"] = benchmark::Counter(
      static_cast<double>(timed.Percentile(0.50)));
  std::vector<double> shard_tuples(after.shards.size(), 0.0);
  for (const auto& stream : after.streams) {
    shard_tuples[static_cast<size_t>(stream.shard)] +=
        static_cast<double>(stream.tuples_ingested);
  }
  for (const auto& stream : before.streams) {
    shard_tuples[static_cast<size_t>(stream.shard)] -=
        static_cast<double>(stream.tuples_ingested);
  }
  for (size_t s = 0; s < shard_tuples.size(); ++s) {
    state.counters["sns_shard" + std::to_string(s) + "_tuples_per_s"] =
        benchmark::Counter(shard_tuples[s], benchmark::Counter::kIsRate);
  }
}
// Fixed iteration count (see BM_LossUpdate): every configuration covers
// the identical ~12.8k-tuple workload, so items/s is comparable across
// shard counts and PRs. Real time, not CPU time — shard work happens off
// the main thread.
BENCHMARK(BM_ServiceThroughput)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(50)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// One-shot R x R Gram solve through the production path (Cholesky, with
// the ridge rungs for a singular H).
void BM_GramSolveProduction(benchmark::State& state) {
  const int64_t rank = state.range(0);
  Rng rng(13);
  Matrix a = Matrix::RandomNormal(4 * rank, rank, rng);
  Matrix h = MultiplyTransposeA(a, a);
  std::vector<double> b(static_cast<size_t>(rank), 1.0);
  std::vector<double> x(static_cast<size_t>(rank));
  for (auto _ : state) {
    SolveRowAgainstGram(h, b.data(), x.data());
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_GramSolveProduction)->Arg(10)->Arg(20)->Arg(40);

// ---------------------------------------------------------------------------
// Storage share of one SliceNStitch event on the flat entry pool
// (tensor/entry_pool.h): continuous-window churn on a synthetic 3-mode
// workload (insert at the newest slice, expire the oldest active cell)
// followed by the per-event row-MTTKRP consumption of all three affected
// rows.

constexpr int64_t kStorageRank = 20;
constexpr int64_t kStorageActiveCells = 4000;
const std::vector<int64_t> kStorageDims = {265, 265, 10};

struct StorageWorkload {
  StorageWorkload() : rng(21) {
    for (size_t m = 0; m < kStorageDims.size(); ++m) {
      factors.push_back(
          Matrix::RandomUniform(kStorageDims[m], kStorageRank, rng));
    }
  }

  ModeIndex NextCell() {
    ModeIndex index;
    for (int64_t dim : kStorageDims) {
      index.PushBack(static_cast<int32_t>(rng.UniformInt(0, dim - 1)));
    }
    return index;
  }

  Rng rng;
  std::vector<Matrix> factors;
  std::deque<ModeIndex> active;
  AlignedVector had = AlignedVector(kStorageRank);
  AlignedVector out = AlignedVector(kStorageRank);
};

// One synthetic event, consuming slices through the value-carrying
// SliceView (MttkrpRow's access pattern).
void BM_StoragePerEventFlatPool(benchmark::State& state) {
  SparseTensor x(kStorageDims, kStorageActiveCells);
  StorageWorkload w;
  for (auto _ : state) {
    const ModeIndex cell = w.NextCell();
    x.Add(cell, 1.0);
    w.active.push_back(cell);
    if (static_cast<int64_t>(w.active.size()) > kStorageActiveCells) {
      x.Add(w.active.front(), -1.0);
      w.active.pop_front();
    }
    for (int mode = 0; mode < 3; ++mode) {
      MttkrpRow(x, w.factors, mode, cell[mode], w.out.data());
      benchmark::DoNotOptimize(w.out.data());
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("flat entry pool");
}
BENCHMARK(BM_StoragePerEventFlatPool)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Per-kernel microbenchmarks of the SIMD kernel layer (the rank-R inner
// loops behind Theorem 4), across ranks hitting different dispatch
// specializations (8, 20, 32) and the generic fallback (40), and across
// kernel tiers (common/cpu_features.h). Each row pins the process tier and
// calls the kernel the way the engine does, so the per-call table lookup is
// part of what it times. Reported per-op, not per-event.

constexpr int64_t kKernelDim = 128;

// Second benchmark argument: which kernel tier to pin. Tiers the host or
// build cannot run are skipped (not silently measured as the generic
// fallback) so an intrinsic label in the JSON always means intrinsic code.
bool ResolveBenchTier(benchmark::State& state, KernelTier* tier) {
  switch (state.range(1)) {
    case 1:
      *tier = KernelTier::kAvx2;
      break;
    case 2:
      *tier = KernelTier::kAvx512;
      break;
    default:
      *tier = KernelTier::kGeneric;
      break;
  }
  if (!KernelTierCompiledIn(*tier) || !KernelTierSupported(*tier)) {
    state.SkipWithError("kernel tier not available on this host/build");
    return false;
  }
  return true;
}

// Pins the process tier for one benchmark row and restores auto dispatch
// when the row ends.
class ScopedProcessTier {
 public:
  explicit ScopedProcessTier(KernelTier tier) {
    internal::RefreshKernelTierForTest(tier);
  }
  ~ScopedProcessTier() { internal::RefreshKernelTierForTest(); }
  ScopedProcessTier(const ScopedProcessTier&) = delete;
  ScopedProcessTier& operator=(const ScopedProcessTier&) = delete;
};

#define SNS_KERNEL_BENCH_ARGS                            \
  ArgsProduct({{8, 20, 32, 40}, {0, 1, 2}})              \
      ->ArgNames({"rank", "tier"})

// One prepared 3-mode factor set + a pool of random cell indices.
struct KernelFixture {
  explicit KernelFixture(int64_t rank) : rng(33) {
    for (int m = 0; m < 3; ++m) {
      factors.push_back(Matrix::RandomUniform(kKernelDim, rank, rng));
    }
    for (int i = 0; i < 256; ++i) {
      ModeIndex cell;
      for (int m = 0; m < 3; ++m) {
        cell.PushBack(static_cast<int32_t>(rng.UniformInt(0, kKernelDim - 1)));
      }
      cells.push_back(cell);
    }
    out.Assign(rank, 0.0);
    had.Assign(rank, 0.0);
  }

  Rng rng;
  std::vector<Matrix> factors;
  std::vector<ModeIndex> cells;
  AlignedVector out;
  AlignedVector had;
};

// Hadamard row product: out[r] = Π_{m≠skip} A(m)(i_m, r).
void BM_KernelHadamardRow(benchmark::State& state) {
  KernelTier tier;
  if (!ResolveBenchTier(state, &tier)) return;
  const ScopedProcessTier pin(tier);
  KernelFixture w(state.range(0));
  size_t next = 0;
  for (auto _ : state) {
    HadamardRowProduct(w.factors, w.cells[next], /*skip_mode=*/0,
                       w.out.data());
    benchmark::DoNotOptimize(w.out.data());
    next = (next + 1) % w.cells.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelHadamardRow)->SNS_KERNEL_BENCH_ARGS;

// Shared slice tensor of the row-MTTKRP benches.
SparseTensor MttkrpBenchTensor() {
  SparseTensor x({kKernelDim, kKernelDim, 10});
  Rng fill(37);
  for (int i = 0; i < 4000; ++i) {
    x.Add({static_cast<int32_t>(fill.UniformInt(0, kKernelDim - 1)),
           static_cast<int32_t>(fill.UniformInt(0, kKernelDim - 1)),
           static_cast<int32_t>(fill.UniformInt(0, 9))},
          1.0);
  }
  return x;
}

// Row-restricted MTTKRP over a steady-state slice (the fused 3-mode path).
void BM_KernelMttkrpRow(benchmark::State& state) {
  KernelTier tier;
  if (!ResolveBenchTier(state, &tier)) return;
  const ScopedProcessTier pin(tier);
  KernelFixture w(state.range(0));
  SparseTensor x = MttkrpBenchTensor();
  int64_t row = 0;
  for (auto _ : state) {
    MttkrpRow(x, w.factors, /*mode=*/0, row, w.out.data(), w.had.data());
    benchmark::DoNotOptimize(w.out.data());
    row = (row + 1) % kKernelDim;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelMttkrpRow)->SNS_KERNEL_BENCH_ARGS;

// Gram commit Q ← Q − p'p + a'a (Eq. 13): one gram_rank_two_update call.
void BM_KernelGramRankOneUpdate(benchmark::State& state) {
  KernelTier tier;
  if (!ResolveBenchTier(state, &tier)) return;
  const ScopedProcessTier pin(tier);
  const int64_t rank = state.range(0);
  Rng rng(41);
  Matrix factor = Matrix::RandomUniform(kKernelDim, rank, rng);
  Matrix gram = MultiplyTransposeA(factor, factor);
  AlignedVector old_row(rank), new_row(rank);
  for (int64_t r = 0; r < rank; ++r) {
    old_row[r] = rng.UniformDouble();
    new_row[r] = rng.UniformDouble();
  }
  bool flip = false;
  for (auto _ : state) {
    // Alternate directions so the Gram stays bounded across iterations.
    if (flip) {
      ApplyGramRowUpdate(gram, new_row.data(), old_row.data());
    } else {
      ApplyGramRowUpdate(gram, old_row.data(), new_row.data());
    }
    flip = !flip;
    benchmark::DoNotOptimize(gram.Row(0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelGramRankOneUpdate)->SNS_KERNEL_BENCH_ARGS;

// One clipped coordinate-descent sweep (Alg. 5 lines 3-6) as the + variants
// pay it per row: H = (A'A)∘(B'B), and a numerator H·t with t uniform in
// [−1.5, 1.5], so about a third of the entries clip at ±1. Each call
// updates the next row of a factor in place.
void BM_KernelCoordinateDescent(benchmark::State& state) {
  KernelTier tier;
  if (!ResolveBenchTier(state, &tier)) return;
  const ScopedProcessTier pin(tier);
  const int64_t rank = state.range(0);
  KernelFixture w(rank);
  const Matrix hq = Hadamard(MultiplyTransposeA(w.factors[1], w.factors[1]),
                             MultiplyTransposeA(w.factors[2], w.factors[2]));
  AlignedVector target(rank), numerator(rank);
  for (int64_t r = 0; r < rank; ++r) {
    target[r] = 3.0 * w.rng.UniformDouble() - 1.5;
  }
  RowTimesMatrixPadded(target.data(), hq, numerator.data());
  int64_t row = 0;
  for (auto _ : state) {
    CoordinateDescentRow(w.factors[0].Row(row), rank, hq, numerator.data(),
                         -1.0, 1.0);
    benchmark::DoNotOptimize(w.factors[0].Row(row));
    benchmark::ClobberMemory();
    row = (row + 1) % kKernelDim;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelCoordinateDescent)->SNS_KERNEL_BENCH_ARGS;

// Gram solve x = b H⁻¹ as the engine pays it on every row step: one
// GramSolver::Factorize of H (the tier's cholesky_upper slot and the pivot
// ratio check) and one Solve (the cholesky_solve_upper slot).
void BM_KernelCholeskySolve(benchmark::State& state) {
  KernelTier tier;
  if (!ResolveBenchTier(state, &tier)) return;
  const ScopedProcessTier pin(tier);
  const int64_t rank = state.range(0);
  Rng rng(43);
  Matrix a = Matrix::RandomNormal(4 * rank, rank, rng);
  Matrix h = MultiplyTransposeA(a, a);
  for (int64_t i = 0; i < rank; ++i) h(i, i) += 1.0;
  GramSolver solver;
  AlignedVector b(rank), x(rank);
  for (int64_t r = 0; r < rank; ++r) b[r] = rng.Normal();
  for (auto _ : state) {
    SNS_CHECK(solver.Factorize(h));
    solver.Solve(b.data(), x.data());
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelCholeskySolve)->SNS_KERNEL_BENCH_ARGS;

// Cells per GCP Newton row step: the mean of a durable-gcp step.
constexpr int64_t kGcpStepCells = 115;

// The GCP Newton step's curvature: the Hessian zeroed, then the weighted
// upper SYRK of one step's staged panel.
void BM_KernelWeightedSyrk(benchmark::State& state) {
  KernelTier tier;
  if (!ResolveBenchTier(state, &tier)) return;
  const ScopedProcessTier pin(tier);
  const int64_t rank = state.range(0);
  Rng rng(47);
  const Matrix panel = Matrix::RandomNormal(kGcpStepCells, rank, rng);
  std::vector<double> weights(static_cast<size_t>(kGcpStepCells));
  for (double& w : weights) w = 0.1 + rng.UniformDouble();
  Matrix hessian(rank, rank);
  const RankKernelTable& kr = GetRankKernelTable(hessian.stride());
  for (auto _ : state) {
    hessian.SetZero();
    kr.weighted_syrk_upper(panel.Row(0), weights.data(), kGcpStepCells, rank,
                           hessian.Row(0), hessian.stride());
    benchmark::DoNotOptimize(hessian.Row(0));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("115 cells");
}
BENCHMARK(BM_KernelWeightedSyrk)->SNS_KERNEL_BENCH_ARGS;

// The GCP Newton step's staging: one step's Hadamard rows of a 3-mode
// slice gathered from their factor rows into the panel, with θ per cell.
void BM_KernelGatherHadamardDots(benchmark::State& state) {
  KernelTier tier;
  if (!ResolveBenchTier(state, &tier)) return;
  const ScopedProcessTier pin(tier);
  KernelFixture w(state.range(0));
  std::vector<const double*> rows;
  for (int64_t c = 0; c < kGcpStepCells; ++c) {
    const ModeIndex& cell = w.cells[static_cast<size_t>(c)];
    rows.push_back(w.factors[1].Row(cell[1]));
    rows.push_back(w.factors[2].Row(cell[2]));
  }
  const int64_t stride = w.factors[0].stride();
  Matrix panel(kGcpStepCells, state.range(0));
  std::vector<double> dots(static_cast<size_t>(kGcpStepCells));
  const RankKernelTable& kr = GetRankKernelTable(stride);
  for (auto _ : state) {
    kr.gather_hadamard_dots(rows.data(), 2, kGcpStepCells,
                            w.factors[0].Row(0), panel.Row(0), dots.data(),
                            stride);
    benchmark::DoNotOptimize(dots.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("115 cells");
}
BENCHMARK(BM_KernelGatherHadamardDots)->SNS_KERNEL_BENCH_ARGS;

}  // namespace
}  // namespace sns

// Custom main: default to a committed-friendly JSON artifact
// (BENCH_micro_update_latency.json) unless the caller picked an output.
//
// Provenance guard: numbers from a non-NDEBUG (Debug) build are
// meaningless for tracking — the binary refuses to run unless
// --sns_allow_debug is passed, and always tags the JSON context with
// sns_build so a Debug artifact can never masquerade as a Release run.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool allow_debug = false;
  for (auto it = args.begin() + 1; it != args.end();) {
    if (std::strcmp(*it, "--sns_allow_debug") == 0) {
      allow_debug = true;
      it = args.erase(it);  // google-benchmark rejects unknown flags.
    } else {
      ++it;
    }
  }
  // CPU provenance next to the build provenance: which SIMD features the
  // host reported and which kernel tier auto-dispatch picked, so committed
  // numbers are attributable to the codelets that actually ran.
  benchmark::AddCustomContext("sns_cpu", sns::CpuFeaturesSummary());
  benchmark::AddCustomContext(
      "sns_kernel_tier", sns::KernelTierName(sns::ResolveKernelTier()));
#ifdef NDEBUG
  benchmark::AddCustomContext("sns_build", "release");
#else
  benchmark::AddCustomContext("sns_build", "debug");
  if (!allow_debug) {
    std::fprintf(
        stderr,
        "bench_micro_update_latency: refusing to benchmark a Debug build "
        "(NDEBUG not set).\nBuild with -DCMAKE_BUILD_TYPE=Release, or pass "
        "--sns_allow_debug to run anyway\n(the JSON will be tagged "
        "\"sns_build\": \"debug\" and must not be committed).\n");
    return 2;
  }
  std::fprintf(stderr,
               "WARNING: Debug build — results are tagged \"sns_build\": "
               "\"debug\" and are not comparable.\n");
#endif
  (void)allow_debug;
  bool has_out = false;
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string arg(args[i]);
    // Exact flag only: --benchmark_out_format alone must not suppress the
    // default artifact.
    if (arg == "--benchmark_out" || arg.rfind("--benchmark_out=", 0) == 0) {
      has_out = true;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_micro_update_latency.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int patched_argc = static_cast<int>(args.size());
  benchmark::Initialize(&patched_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(patched_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
