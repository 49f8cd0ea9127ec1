// Durable stream scenario: a service that survives being killed mid-ingest.
//
// The process keeps its complete state under one directory:
//   <state_dir>/checkpoint.bin — latest checkpoint, written by
//                                SnsService::CheckpointToFile (tmp + fsync +
//                                rename, so a crash never leaves a torn one),
//   <state_dir>/wal/           — write-ahead event journal.
//
// On startup it recovers from the checkpoint + journal suffix if present,
// re-attaches the journal, and continues the SAME deterministic feed from
// where the recovered sequence token says it stopped — so kill -9 at any
// point, restarted, converges to the identical final state and prints DONE.
// tools/crash_recovery_smoke.sh drives exactly that (and CI runs it).
//
// Build & run:  ./build/example_durable_service /tmp/sns_state
// Flags:        --tuples=N (live tuples, default 400)
//               --throttle-us=N (sleep per tuple, default 0; the smoke test
//                 throttles so a mid-run kill lands mid-ingest)
//               --checkpoint-every=N (live tuples per checkpoint, default 64)

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "slicenstitch.h"

namespace {

constexpr int64_t kWarmupTuples = 60;

// Deterministic feed: tuple i is a pure function of i (splitmix-style hash),
// so a restarted process can skip straight to any position.
sns::Tuple MakeTuple(int64_t i) {
  uint64_t h = static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ull;
  h ^= h >> 33;
  h *= 0xC2B2AE3D27D4EB4Full;
  h ^= h >> 29;
  sns::Tuple tuple;
  tuple.index = sns::ModeIndex({static_cast<int32_t>(h % 8),
                                static_cast<int32_t>((h / 8) % 6)});
  tuple.value = 1.0 + static_cast<double>((h >> 16) % 5);
  tuple.time = i;  // One stream-time unit per tuple.
  return tuple;
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string state_dir;
  int64_t live_tuples = 400;
  int64_t throttle_us = 0;
  int64_t checkpoint_every = 64;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--tuples=", 9) == 0) {
      live_tuples = std::atoll(arg + 9);
    } else if (std::strncmp(arg, "--throttle-us=", 14) == 0) {
      throttle_us = std::atoll(arg + 14);
    } else if (std::strncmp(arg, "--checkpoint-every=", 19) == 0) {
      checkpoint_every = std::atoll(arg + 19);
    } else if (state_dir.empty() && arg[0] != '-') {
      state_dir = arg;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg);
      return 2;
    }
  }
  if (state_dir.empty() || live_tuples < 1 || checkpoint_every < 1) {
    std::fprintf(stderr,
                 "usage: %s <state_dir> [--tuples=N] [--throttle-us=N] "
                 "[--checkpoint-every=N]\n",
                 argv[0]);
    return 2;
  }
  const std::string checkpoint_path = state_dir + "/checkpoint.bin";
  const std::string journal_dir = state_dir + "/wal";

  sns::ServiceOptions runtime;
  runtime.shards = 1;
  sns::SnsService service(runtime);

  sns::ContinuousCpdOptions engine;
  engine.rank = 6;
  engine.window_size = 4;
  engine.period = 5;
  engine.variant = sns::SnsVariant::kRndPlus;
  engine.seed = 7;

  // Sequence-token accounting of the fixed protocol below: token 1 =
  // Warmup, token 2 = Initialize, token 2+k = k-th live tuple.
  uint64_t applied = 0;
  if (FileExists(checkpoint_path)) {
    auto bytes = sns::serial::ReadFileToString(checkpoint_path);
    if (!bytes.ok()) {
      std::fprintf(stderr, "%s\n", bytes.status().ToString().c_str());
      return 1;
    }
    sns::serial::StringSource source(bytes.value());
    auto report = sns::durability::RecoverStream(service, source, journal_dir);
    if (!report.ok()) {
      std::fprintf(stderr, "recovery failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    applied = report.value().last_sequence;
    std::printf("Recovered stream 'feed' at sequence %llu "
                "(checkpoint %llu + %llu journal records%s)\n",
                static_cast<unsigned long long>(applied),
                static_cast<unsigned long long>(
                    report.value().checkpoint_sequence),
                static_cast<unsigned long long>(
                    report.value().records_replayed),
                report.value().torn_tail ? ", torn tail discarded" : "");
  } else {
    // Fresh start: a journal left behind by a run killed before its first
    // checkpoint would restart token numbering and corrupt future replays.
    std::error_code ec;
    std::filesystem::remove_all(journal_dir, ec);
    auto created = service.CreateStream("feed", {8, 6}, engine);
    if (!created.ok()) {
      std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
      return 1;
    }
  }

  // (Re-)attach the journal; a fresh segment continues the token sequence.
  if (const sns::Status status = service.EnableJournal("feed", journal_dir);
      !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  if (applied < 1) {
    std::vector<sns::Tuple> warmup;
    for (int64_t i = 0; i < kWarmupTuples; ++i) warmup.push_back(MakeTuple(i));
    if (!service.Warmup("feed", warmup).ok()) return 1;
  }
  if (applied < 2) {
    if (!service.Initialize("feed").ok()) return 1;
    if (!service.CheckpointToFile("feed", checkpoint_path).ok()) return 1;
  }

  // With a checkpoint on disk and the journal attached, arm the self-healing
  // layer: a failed journal append quarantines the stream and rebuilds it
  // from checkpoint + journal suffix instead of poisoning it permanently.
  if (const sns::Status status =
          service.EnableAutoRecovery("feed", checkpoint_path);
      !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  const int64_t already_ingested =
      applied > 2 ? static_cast<int64_t>(applied - 2) : 0;
  for (int64_t k = already_ingested; k < live_tuples; ++k) {
    const sns::Tuple tuple = MakeTuple(kWarmupTuples + k);
    if (const sns::Status status = service.Ingest("feed", tuple);
        !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    if ((k + 1) % checkpoint_every == 0) {
      if (!service.CheckpointToFile("feed", checkpoint_path).ok()) return 1;
    }
    if (throttle_us > 0) usleep(static_cast<useconds_t>(throttle_us));
  }

  auto fitness = service.RunningFitness("feed");
  if (!fitness.ok()) return 1;
  std::printf("DONE tuples=%lld fitness=%.6f\n",
              static_cast<long long>(live_tuples), fitness.value());
  service.Shutdown();
  return 0;
}
