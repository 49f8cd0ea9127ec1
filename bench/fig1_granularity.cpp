// Regenerates Fig. 1(c,d,e): why neither coarse- nor fine-grained
// conventional CPD solves continuous analysis. For each update interval T'
// (1 hour down to seconds), conventional methods (ALS / OnlineSCP /
// CP-stream) decompose a window of W' = span/T' fine units; SliceNStitch
// (SNS-RND, T fixed at 1 hour) updates per event. Reported per method:
//   - update interval (Fig. 1 x-axis),
//   - fitness against the hourly window, with fine-grained time factors
//     merged to hourly rows first (footnote 7 of the paper),
//   - number of parameters (Fig. 1d),
//   - runtime per update (Fig. 1e).

#include <algorithm>
#include <cstdio>

#include "common/monotonic_clock.h"
#include "core/als.h"
#include "data/datasets.h"
#include "experiments/harness.h"
#include "experiments/report.h"
#include "stream/continuous_window.h"
#include "stream/periodic_window.h"

namespace sns {
namespace {

// Builds the conventional window D(end_time, span/period) of the stream.
SparseTensor BuildWindow(const DataStream& stream, int64_t period,
                         int window_units, int64_t end_time) {
  PeriodicTensorWindow window(stream.mode_dims(), window_units, period);
  for (const Tuple& tuple : stream.tuples()) {
    if (tuple.time > end_time) break;
    window.AddTuple(tuple);
  }
  window.CloseUpTo(end_time);
  return window.WindowTensor();
}

struct GranularityRow {
  std::string method;
  std::string interval;
  double fitness = 0.0;
  int64_t parameters = 0;
  double micros_per_update = 0.0;
};

void Run() {
  PrintExperimentBanner(
      "Fig. 1(c,d,e) (continuous vs conventional CPD across granularity)",
      "finer T' costs many parameters and lower merged fitness; coarse T' "
      "updates rarely; SNS (T=1h) gets near-instant updates, few parameters "
      "and high fitness simultaneously");

  DatasetSpec spec = NewYorkTaxiPreset(BenchEventScaleFromEnv());
  auto stream_or = GenerateSyntheticStream(spec.stream);
  SNS_CHECK(stream_or.ok());
  const DataStream& stream = stream_or.value();
  PrintDatasetLine(spec, stream.size());

  const int64_t coarse_period = spec.engine.period;            // 1 hour.
  const int w_size = spec.engine.window_size;                  // 10.
  const int64_t span = coarse_period * w_size;                 // 10 hours.
  const int64_t end_time =
      (stream.end_time() / coarse_period) * coarse_period;     // Hour mark.
  const int64_t rank = spec.engine.rank;

  // Hourly reference window every method is evaluated against.
  SparseTensor hourly = BuildWindow(stream, coarse_period, w_size, end_time);
  std::printf("Reference hourly window: nnz=%lld\n",
              static_cast<long long>(hourly.nnz()));

  std::vector<GranularityRow> rows;
  int64_t mode_sum = 0;
  for (int64_t dim : stream.mode_dims()) mode_sum += dim;

  for (int64_t fine_period : {int64_t{10}, int64_t{60}, int64_t{600},
                              int64_t{3600}}) {
    const int fine_units = static_cast<int>(span / fine_period);
    const int64_t merge_group = coarse_period / fine_period;
    SparseTensor fine_window =
        BuildWindow(stream, fine_period, fine_units, end_time);

    // --- Batch ALS at this granularity (one decomposition = one update).
    {
      Rng rng(spec.engine.seed + 3);
      const int64_t start_ns = MonotonicNanos();
      KruskalModel model =
          AlsDecompose(fine_window, rank, spec.engine.init, rng);
      const double micros =
          static_cast<double>(MonotonicNanos() - start_ns) * 1e-3;
      const double fitness =
          MergeTimeRows(model, merge_group).Fitness(hourly);
      rows.push_back({"ALS", std::to_string(fine_period) + "s", fitness,
                      model.NumParameters(), micros});
    }

    // --- Incremental baselines at this granularity: init on the window one
    // hour before the end, then stream the last hour period-by-period.
    for (const char* name : {"OnlineSCP", "CP-stream"}) {
      DatasetSpec fine_spec = spec;
      fine_spec.engine.period = fine_period;
      fine_spec.engine.window_size = fine_units;
      std::unique_ptr<PeriodicAlgorithm> algorithm =
          MakeBaseline(name, fine_spec);

      PeriodicTensorWindow window(stream.mode_dims(), fine_units,
                                  fine_period);
      const int64_t init_boundary = end_time - coarse_period;
      size_t i = 0;
      const auto& tuples = stream.tuples();
      for (; i < tuples.size() && tuples[i].time <= init_boundary; ++i) {
        window.AddTuple(tuples[i]);
      }
      window.CloseUpTo(init_boundary);
      Rng rng(spec.engine.seed + 7);
      algorithm->Initialize(window.WindowTensor(), rng);

      double total_micros = 0.0;
      int64_t update_count = 0;
      for (int64_t boundary = init_boundary + fine_period;
           boundary <= end_time; boundary += fine_period) {
        while (i < tuples.size() && tuples[i].time <= boundary) {
          window.AddTuple(tuples[i]);
          ++i;
        }
        window.CloseUpTo(boundary);
        const int64_t start_ns = MonotonicNanos();
        algorithm->OnPeriod(window.WindowTensor(), window.NewestUnit());
        total_micros +=
            static_cast<double>(MonotonicNanos() - start_ns) * 1e-3;
        ++update_count;
      }
      const double fitness =
          MergeTimeRows(algorithm->model(), merge_group).Fitness(hourly);
      rows.push_back({name, std::to_string(fine_period) + "s", fitness,
                      algorithm->model().NumParameters(),
                      total_micros / static_cast<double>(update_count)});
    }
  }

  // --- SliceNStitch: SNS-RND with T fixed at one hour, per-event updates.
  {
    RunResult result = RunContinuous(spec, stream, SnsVariant::kRnd);
    const double fitness = result.fitness_curve.empty()
                               ? 0.0
                               : result.fitness_curve.back().fitness;
    rows.push_back({"SliceNStitch (SNS-RND)", "per event (~1s)", fitness,
                    rank * (mode_sum + w_size), result.mean_update_micros});
  }

  TableReporter table({"Method", "Update interval", "Fitness (hourly)",
                       "#Parameters", "Runtime/update (us)"});
  for (const GranularityRow& row : rows) {
    table.AddRow({row.method, row.interval, TableReporter::Num(row.fitness, 3),
                  std::to_string(row.parameters),
                  TableReporter::Num(row.micros_per_update, 1)});
  }
  table.Print();
}

}  // namespace
}  // namespace sns

int main() {
  sns::Run();
  return 0;
}
