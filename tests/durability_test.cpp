// Durability coverage: serializable RNG state, storage-layout-faithful
// tensor serialization, the versioned checkpoint envelope, the write-ahead
// event journal, and the central contract — restore(checkpoint) + replay of
// the journal suffix is BITWISE identical to uninterrupted execution, for
// every updater variant, shard count, and checkpoint position. Fault
// injection (truncation, bit flips, torn records, version skew) pins the
// failure taxonomy: recovery either succeeds exactly or fails with a typed
// Status — never a crash, never a silently wrong state.

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "slicenstitch.h"
#include "tensor/sparse_tensor.h"

namespace sns {
namespace {

namespace fs = std::filesystem;

ContinuousCpdOptions SmallEngineOptions(SnsVariant variant) {
  ContinuousCpdOptions options;
  options.rank = 4;
  options.window_size = 3;
  options.period = 30;
  options.variant = variant;
  options.sample_threshold = 10;
  options.clip_bound = 1000.0;
  return options;
}

DataStream SmallStream(int64_t num_events, uint64_t seed) {
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

/// Splits a stream at the warm-up boundary W·T.
std::pair<std::span<const Tuple>, std::span<const Tuple>> SplitWarmup(
    const DataStream& stream, const ContinuousCpdOptions& options) {
  const std::span<const Tuple> tuples(stream.tuples());
  const int64_t warmup_end =
      static_cast<int64_t>(options.window_size) * options.period;
  const size_t i = static_cast<size_t>(stream.CountTuplesThrough(warmup_end));
  return {tuples.subspan(0, i), tuples.subspan(i)};
}

SnsService MakeService(int shards) {
  ServiceOptions options;
  options.shards = shards;
  return SnsService(options);
}

/// Fresh scratch directory (removed if a previous run left it behind).
std::string FreshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "/sns_durability_" + tag;
  fs::remove_all(dir);
  return dir;
}

std::string CheckpointBytes(SnsService& service, const std::string& name) {
  serial::StringSink sink;
  const Status status = service.Checkpoint(name, sink);
  SNS_CHECK(status.ok());
  return sink.TakeData();
}

// --- RNG state (satellite: serializable generator state) -------------------

TEST(RngStateTest, SaveRestoreContinuesIdenticalDrawSequence) {
  Rng original(0xfeedULL);
  // Warm the generator and leave a cached Box–Muller deviate pending, the
  // subtle half of the state.
  for (int i = 0; i < 17; ++i) original.UniformDouble();
  original.Normal();

  const RngState snapshot = original.SaveState();
  Rng resumed(1);  // Different seed: everything must come from the snapshot.
  resumed.RestoreState(snapshot);
  EXPECT_EQ(resumed.SaveState(), snapshot);

  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(original.Next(), resumed.Next());
    EXPECT_EQ(original.Normal(), resumed.Normal());
    EXPECT_EQ(original.UniformInt(0, 1000), resumed.UniformInt(0, 1000));
  }
  EXPECT_EQ(original.SaveState(), resumed.SaveState());
}

TEST(RngStateTest, CachedNormalIsPartOfTheState) {
  Rng rng(42);
  rng.Normal();  // First call caches the second Box–Muller deviate.
  const RngState with_cache = rng.SaveState();
  EXPECT_TRUE(with_cache.has_cached_normal);

  Rng resumed(42);
  resumed.RestoreState(with_cache);
  EXPECT_EQ(rng.Normal(), resumed.Normal());  // Consumes the cache.
  EXPECT_FALSE(rng.SaveState().has_cached_normal);
}

// --- SparseTensor layout fidelity -----------------------------------------

TEST(SparseTensorSerialTest, RoundTripPreservesStorageLayoutBitwise) {
  SparseTensor tensor({4, 3, 2});
  Rng rng(7);
  // Scramble the internal layout: interleave inserts and removals so pool
  // order, free-list reuse, and bucket order all diverge from insertion
  // order.
  std::vector<ModeIndex> inserted;
  for (int i = 0; i < 40; ++i) {
    ModeIndex index({static_cast<int32_t>(rng.UniformInt(0, 3)),
                     static_cast<int32_t>(rng.UniformInt(0, 2)),
                     static_cast<int32_t>(rng.UniformInt(0, 1))});
    tensor.Add(index, rng.UniformDouble(0.5, 2.0));
    inserted.push_back(index);
    if (i % 5 == 4) {
      const ModeIndex& victim = inserted[static_cast<size_t>(i / 2)];
      tensor.Add(victim, -tensor.Get(victim));  // Remove.
    }
  }
  ASSERT_GT(tensor.nnz(), 0);

  serial::StringSink sink;
  serial::Writer w(sink);
  tensor.SerializeTo(w);
  ASSERT_TRUE(w.status().ok());
  const std::string first = sink.TakeData();

  SparseTensor restored({4, 3, 2});
  serial::StringSource source(first);
  serial::Reader r(source);
  ASSERT_TRUE(restored.RestoreFrom(r).ok());
  EXPECT_EQ(restored.nnz(), tensor.nnz());

  // Byte-identical re-serialization == identical storage layout, which is
  // what makes post-restore accumulation orders (and thus trajectories)
  // bitwise equal.
  serial::StringSink sink2;
  serial::Writer w2(sink2);
  restored.SerializeTo(w2);
  ASSERT_TRUE(w2.status().ok());
  EXPECT_EQ(sink2.data(), first);
}

TEST(SparseTensorSerialTest, RestoreRejectsShapeMismatch) {
  SparseTensor tensor({4, 3, 2});
  tensor.Add(ModeIndex({1, 1, 1}), 2.0);
  serial::StringSink sink;
  serial::Writer w(sink);
  tensor.SerializeTo(w);

  SparseTensor wrong_shape({4, 3, 3});
  serial::StringSource source(sink.data());
  serial::Reader r(source);
  const Status status = wrong_shape.RestoreFrom(r);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
}

// --- Standalone StreamHandle checkpoints ----------------------------------

TEST(StreamCheckpointTest, RestoredHandleReserializesToIdenticalBytes) {
  const ContinuousCpdOptions options =
      SmallEngineOptions(SnsVariant::kRndPlus);
  const DataStream stream = SmallStream(120, 11);
  const auto [warmup, live] = SplitWarmup(stream, options);

  auto handle = StreamHandle::Create("solo", {6, 5}, options);
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(handle.value().Warmup(warmup).ok());
  ASSERT_TRUE(handle.value().Initialize().ok());
  ASSERT_TRUE(handle.value().Ingest(live.subspan(0, live.size() / 2)).ok());

  serial::StringSink sink;
  ASSERT_TRUE(handle.value().Checkpoint(sink).ok());
  const std::string first = sink.TakeData();

  serial::StringSource source(first);
  auto restored = StreamHandle::Restore(source);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().name(), "solo");
  EXPECT_TRUE(restored.value().initialized());

  serial::StringSink sink2;
  ASSERT_TRUE(restored.value().Checkpoint(sink2).ok());
  EXPECT_EQ(sink2.data(), first);
}

TEST(StreamCheckpointTest, RestoredHandleContinuesBitwiseIdentically) {
  const ContinuousCpdOptions options = SmallEngineOptions(SnsVariant::kRnd);
  const DataStream stream = SmallStream(140, 12);
  const auto [warmup, live] = SplitWarmup(stream, options);
  const size_t half = live.size() / 2;

  auto original = StreamHandle::Create("s", {6, 5}, options);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(original.value().Warmup(warmup).ok());
  ASSERT_TRUE(original.value().Initialize().ok());
  ASSERT_TRUE(original.value().Ingest(live.subspan(0, half)).ok());

  serial::StringSink mid;
  ASSERT_TRUE(original.value().Checkpoint(mid).ok());
  serial::StringSource source(mid.data());
  auto restored = StreamHandle::Restore(source);
  ASSERT_TRUE(restored.ok());

  // Both process the identical suffix; every factor value, the running
  // fitness estimate, and the full serialized state must stay bitwise equal.
  ASSERT_TRUE(original.value().Ingest(live.subspan(half)).ok());
  ASSERT_TRUE(restored.value().Ingest(live.subspan(half)).ok());
  EXPECT_EQ(original.value().RunningFitness(),
            restored.value().RunningFitness());

  serial::StringSink end_a;
  serial::StringSink end_b;
  ASSERT_TRUE(original.value().Checkpoint(end_a).ok());
  ASSERT_TRUE(restored.value().Checkpoint(end_b).ok());
  EXPECT_EQ(end_a.data(), end_b.data());
}

// --- Checkpoint fault injection -------------------------------------------

std::string MakeValidCheckpoint() {
  const ContinuousCpdOptions options =
      SmallEngineOptions(SnsVariant::kVecPlus);
  const DataStream stream = SmallStream(100, 13);
  const auto [warmup, live] = SplitWarmup(stream, options);
  auto handle = StreamHandle::Create("fi", {6, 5}, options);
  SNS_CHECK(handle.ok());
  SNS_CHECK(handle.value().Warmup(warmup).ok());
  SNS_CHECK(handle.value().Initialize().ok());
  SNS_CHECK(handle.value().Ingest(live.subspan(0, 30)).ok());
  serial::StringSink sink;
  SNS_CHECK(handle.value().Checkpoint(sink).ok());
  return sink.TakeData();
}

Status TryRestore(const std::string& bytes) {
  serial::StringSource source(bytes);
  auto restored = StreamHandle::Restore(source);
  return restored.ok() ? Status::OK() : restored.status();
}

TEST(CheckpointFaultInjectionTest, TruncationsFailTypedNeverCrash) {
  const std::string valid = MakeValidCheckpoint();
  ASSERT_TRUE(TryRestore(valid).ok());
  // Every prefix, sampled densely near the envelope fields and sparsely
  // through the payload, must fail with a typed status.
  for (size_t cut = 0; cut < valid.size();
       cut += (cut < 64 ? 1 : valid.size() / 37 + 1)) {
    const Status status = TryRestore(valid.substr(0, cut));
    EXPECT_FALSE(status.ok()) << "prefix of " << cut << " bytes restored";
    EXPECT_EQ(status.code(), StatusCode::kDataLoss)
        << "prefix " << cut << ": " << status.ToString();
  }
}

TEST(CheckpointFaultInjectionTest, PayloadBitFlipsAreDataLoss) {
  const std::string valid = MakeValidCheckpoint();
  // Payload starts after magic+version+size (16 bytes); flip a sample of
  // bytes across it, including the embedded sequence token.
  for (size_t pos = 16; pos < valid.size() - 4; pos += valid.size() / 53 + 1) {
    std::string corrupt = valid;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x20);
    const Status status = TryRestore(corrupt);
    EXPECT_FALSE(status.ok()) << "flip at " << pos << " restored";
    EXPECT_EQ(status.code(), StatusCode::kDataLoss)
        << "flip at " << pos << ": " << status.ToString();
  }
}

TEST(CheckpointFaultInjectionTest, ImplausiblePayloadSizeFailsTyped) {
  const std::string valid = MakeValidCheckpoint();
  // The u64 payload_size field sits at offset 8 (after magic + version).
  // A size past the bytes present fails kDataLoss before the payload is
  // checksummed or anything is allocated: the payload is a view of the
  // source's range, so no multi-GiB buffer is ever attempted.
  std::string under_cap = valid;
  const uint64_t huge = (1ull << 32) - 1;
  std::memcpy(under_cap.data() + 8, &huge, sizeof(huge));
  EXPECT_EQ(TryRestore(under_cap).code(), StatusCode::kDataLoss);

  // Past 4 GiB: the same check, whatever the size.
  std::string over_cap = valid;
  const uint64_t absurd = 1ull << 33;
  std::memcpy(over_cap.data() + 8, &absurd, sizeof(absurd));
  EXPECT_EQ(TryRestore(over_cap).code(), StatusCode::kDataLoss);
}

TEST(CheckpointFaultInjectionTest, MagicAndVersionSkewAreTyped) {
  const std::string valid = MakeValidCheckpoint();
  std::string bad_magic = valid;
  bad_magic[0] = static_cast<char>(bad_magic[0] ^ 0xFF);
  EXPECT_EQ(TryRestore(bad_magic).code(), StatusCode::kInvalidArgument);

  // Version 2 (the loss-extension generation) is also readable by this
  // build; the first unknown generation is 3.
  std::string newer_version = valid;
  newer_version[4] = static_cast<char>(3);
  EXPECT_EQ(TryRestore(newer_version).code(),
            StatusCode::kFailedPrecondition);
}

// --- Patched fields under a recomputed CRC --------------------------------
//
// The envelope CRC catches corruption, not a crafted payload or a buggy
// writer: these cases patch one field of a valid checkpoint, reseal the CRC
// and require a typed status.

/// Offset of the engine options (starting at `rank`) in the checkpoint of a
/// stream named `name` with `num_dims` non-time modes: envelope header
/// (magic u32, version u32, payload size u64), sequence u64, name (u64
/// length + bytes), dims count u32, dims i64 each.
size_t OptionsOffset(const std::string& name, size_t num_dims) {
  return 16 + 8 + 8 + name.size() + 4 + 8 * num_dims;
}
// Past rank i64, window_size i32, period i64, variant u8, theta i64.
constexpr size_t kClipBoundField = 29;
// Past clip_bound f64 and nonnegative u8.
constexpr size_t kExpectedNnzField = 38;
// Past expected_nnz i64 and resync i64.
constexpr size_t kOptionsPrecisionField = 54;
// The retired kernel-tier byte right after it: earlier builds stored a
// per-engine force-generic flag there.
constexpr size_t kOptionsTierField = 55;
// Past max_iterations i32 and fitness_tolerance f64: the ALS
// column-normalization byte, always 1.
constexpr size_t kOptionsNormalizeField = 68;

/// Offset of the engine snapshot's precision byte: the last byte of the
/// model section, just before the fitness section tag "FITN".
size_t EnginePrecisionOffset(const std::string& bytes) {
  const size_t tag = bytes.find("FITN");
  SNS_CHECK(tag != std::string::npos && tag == bytes.rfind("FITN"));
  return tag - 1;
}

/// Recomputes the payload CRC (the envelope's last four bytes).
void ResealCrc(std::string& bytes) {
  const uint32_t crc = Crc32(bytes.data() + 16, bytes.size() - 20);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof(crc));
}

/// Restores `bytes` with the zero byte at `at` set to `value`.
Status RestoreWithByte(std::string bytes, size_t at, char value) {
  SNS_CHECK(bytes[at] == 0);
  bytes[at] = value;
  ResealCrc(bytes);
  return TryRestore(bytes);
}

/// Restores `bytes` with the 8-byte field at `at`, which must hold
/// `expected`, set to `value`.
Status RestoreWithU64(std::string bytes, size_t at, uint64_t expected,
                      uint64_t value) {
  uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + at, sizeof(stored));
  SNS_CHECK(stored == expected);  // The offset arithmetic is right.
  std::memcpy(bytes.data() + at, &value, sizeof(value));
  ResealCrc(bytes);
  return TryRestore(bytes);
}

TEST(CheckpointFieldPatchTest, NanClipBoundIsTypedNotAnAbort) {
  std::string bytes = MakeValidCheckpoint();
  const size_t at = OptionsOffset("fi", 2) + kClipBoundField;
  double clip_bound = 0.0;
  std::memcpy(&clip_bound, bytes.data() + at, sizeof(clip_bound));
  ASSERT_EQ(clip_bound, 1000.0);  // The offset arithmetic is right.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(bytes.data() + at, &nan, sizeof(nan));
  ResealCrc(bytes);
  EXPECT_EQ(TryRestore(bytes).code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointFieldPatchTest, OptionsPrecisionByteOneIsFailedPrecondition) {
  // 1 named the removed float32-mirror mode: refused as a known but
  // unsupported configuration, distinct from corruption.
  const Status status = RestoreWithByte(
      MakeValidCheckpoint(), OptionsOffset("fi", 2) + kOptionsPrecisionField,
      1);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << status.ToString();
}

TEST(CheckpointFieldPatchTest, OptionsPrecisionByteTwoIsDataLoss) {
  EXPECT_EQ(RestoreWithByte(MakeValidCheckpoint(),
                            OptionsOffset("fi", 2) + kOptionsPrecisionField, 2)
                .code(),
            StatusCode::kDataLoss);
}

TEST(CheckpointFieldPatchTest, RetiredTierByteOneRestoresAtProcessTier) {
  // 1 is what an earlier build wrote for a forced-generic engine. The flag
  // never changed what was saved, so the stream restores, keeps running at
  // the process tier, and writes the byte back as 0: its checkpoints match
  // those of the unpatched stream byte for byte, before and after more
  // ingestion.
  const std::string valid = MakeValidCheckpoint();
  const size_t at = OptionsOffset("fi", 2) + kOptionsTierField;
  ASSERT_EQ(valid[at], 0);
  std::string patched = valid;
  patched[at] = 1;
  ResealCrc(patched);

  auto restore = [](const std::string& bytes) {
    serial::StringSource source(bytes);
    auto restored = StreamHandle::Restore(source);
    SNS_CHECK(restored.ok());
    return std::move(restored).value();
  };
  auto checkpoint = [](const StreamHandle& handle) {
    serial::StringSink sink;
    SNS_CHECK(handle.Checkpoint(sink).ok());
    return sink.TakeData();
  };
  StreamHandle from_patched = restore(patched);
  StreamHandle from_valid = restore(valid);
  EXPECT_EQ(checkpoint(from_patched), valid);

  const DataStream stream = SmallStream(100, 13);
  const auto [warmup, live] =
      SplitWarmup(stream, SmallEngineOptions(SnsVariant::kVecPlus));
  ASSERT_TRUE(from_patched.Ingest(live.subspan(30)).ok());
  ASSERT_TRUE(from_valid.Ingest(live.subspan(30)).ok());
  EXPECT_EQ(checkpoint(from_patched), checkpoint(from_valid));
}

TEST(CheckpointFieldPatchTest, RetiredTierByteTwoIsDataLoss) {
  EXPECT_EQ(RestoreWithByte(MakeValidCheckpoint(),
                            OptionsOffset("fi", 2) + kOptionsTierField, 2)
                .code(),
            StatusCode::kDataLoss);
}

TEST(CheckpointFieldPatchTest, RankPastPayloadIsDataLoss) {
  // Rank 2⁴⁰ declares factors of 2⁴⁰ × (6 + 5 + 3) doubles, far more than
  // the payload holds: refused before StreamHandle::Create allocates them.
  EXPECT_EQ(RestoreWithU64(MakeValidCheckpoint(), OptionsOffset("fi", 2),
                           /*expected=*/4, uint64_t{1} << 40)
                .code(),
            StatusCode::kDataLoss);
}

TEST(CheckpointFieldPatchTest, ModeDimensionPastPayloadIsDataLoss) {
  // The first mode dimension (6) becomes 2⁴⁰.
  EXPECT_EQ(RestoreWithU64(MakeValidCheckpoint(), OptionsOffset("fi", 2) - 16,
                           /*expected=*/6, uint64_t{1} << 40)
                .code(),
            StatusCode::kDataLoss);
}

TEST(CheckpointFieldPatchTest, WindowEntryCountPastPayloadIsDataLoss) {
  // The window tensor's entry count follows the "WIND" tag, its mode count
  // u32 and its three dims. 2³² − 1 entries passed the old count cap, and
  // SparseTensor::RestoreFrom reserved for all of them.
  const std::string bytes = MakeValidCheckpoint();
  const size_t tag = bytes.find("WIND");
  ASSERT_NE(tag, std::string::npos);
  const size_t at = tag + 4 + 4 + 3 * 8;
  uint64_t nnz = 0;
  std::memcpy(&nnz, bytes.data() + at, sizeof(nnz));
  ASSERT_GT(nnz, 0u);
  EXPECT_EQ(RestoreWithU64(bytes, at, nnz, (uint64_t{1} << 32) - 1).code(),
            StatusCode::kDataLoss);
}

TEST(CheckpointFieldPatchTest, ExpectedNnzPastWindowRestores) {
  // expected_nnz is a sizing hint, not payload: a legitimate stream may
  // checkpoint a 2⁴⁰ hint with an empty window. The restore reserves at
  // most the window's 6 × 5 × 3 cells, keeps the stored hint, and
  // re-serializes the patched bytes bitwise.
  std::string bytes = MakeValidCheckpoint();
  const size_t at = OptionsOffset("fi", 2) + kExpectedNnzField;
  uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + at, sizeof(stored));
  ASSERT_EQ(stored, 0u);  // The offset arithmetic is right.
  const uint64_t huge = uint64_t{1} << 40;
  std::memcpy(bytes.data() + at, &huge, sizeof(huge));
  ResealCrc(bytes);

  serial::StringSource source(bytes);
  auto restored = StreamHandle::Restore(source);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().options().expected_nnz, int64_t{1} << 40);
  serial::StringSink sink;
  ASSERT_TRUE(restored.value().Checkpoint(sink).ok());
  EXPECT_EQ(sink.data(), bytes);
}

TEST(CheckpointFieldPatchTest, NormalizationByteMustBeOne) {
  // 0 named unnormalized ALS initialization, which was removed: refused as
  // a known but unsupported configuration, distinct from corruption.
  std::string bytes = MakeValidCheckpoint();
  const size_t at = OptionsOffset("fi", 2) + kOptionsNormalizeField;
  ASSERT_EQ(bytes[at], 1);
  bytes[at] = 0;
  ResealCrc(bytes);
  EXPECT_EQ(TryRestore(bytes).code(), StatusCode::kFailedPrecondition);
  bytes[at] = 2;
  ResealCrc(bytes);
  EXPECT_EQ(TryRestore(bytes).code(), StatusCode::kDataLoss);
}

TEST(CheckpointFieldPatchTest, EngineSnapshotPrecisionByteOneIsDataLoss) {
  const std::string bytes = MakeValidCheckpoint();
  EXPECT_EQ(RestoreWithByte(bytes, EnginePrecisionOffset(bytes), 1).code(),
            StatusCode::kDataLoss);
}

TEST(CheckpointFieldPatchTest, ScheduledEventOffItsTupleTimeIsDataLoss) {
  // The window schedules an event only at due = tuple.time + w·period. A
  // tuple time moved ten periods back, its due untouched, used to restore;
  // the event's next slide was then scheduled behind the window clock, and
  // the next ingest aborted in PopScheduled's clock check.
  const std::string bytes = MakeValidCheckpoint();
  const size_t tag = bytes.find("WIND");
  ASSERT_NE(tag, std::string::npos);
  // The window tensor follows the tag: mode count u32, three dims, entry
  // count u64 and 32-byte entries. Then next_seq u64, the clock i64, the
  // pending count u64, and the first event: due i64, seq u64, w i32, arity
  // u32, two coordinates i32, value f64 and the tuple time i64.
  uint64_t nnz = 0;
  std::memcpy(&nnz, bytes.data() + tag + 4 + 4 + 3 * 8, sizeof(nnz));
  const size_t first = tag + 4 + 4 + 3 * 8 + 8 + 32 * nnz + 3 * 8;
  uint64_t pending = 0;
  int64_t due = 0;
  int32_t w = 0;
  int64_t time = 0;
  std::memcpy(&pending, bytes.data() + first - 8, sizeof(pending));
  std::memcpy(&due, bytes.data() + first, sizeof(due));
  std::memcpy(&w, bytes.data() + first + 16, sizeof(w));
  std::memcpy(&time, bytes.data() + first + 40, sizeof(time));
  const int64_t period = SmallEngineOptions(SnsVariant::kVecPlus).period;
  ASSERT_GT(pending, 0u);
  ASSERT_EQ(due, time + w * period);  // The offset arithmetic is right.
  const auto stored = static_cast<uint64_t>(time);
  EXPECT_EQ(RestoreWithU64(bytes, first + 40, stored,
                           static_cast<uint64_t>(time - 10 * period))
                .code(),
            StatusCode::kDataLoss);
  // A tuple time whose due would overflow int64.
  EXPECT_EQ(RestoreWithU64(bytes, first + 40, stored,
                           static_cast<uint64_t>(
                               std::numeric_limits<int64_t>::max()))
                .code(),
            StatusCode::kDataLoss);
}

TEST(CheckpointFieldPatchTest, InitializationBytesMustAgree) {
  // Initialize sets the handle's initialized byte (just before the engine's
  // "WIND" tag) and the engine's updates_enabled byte (just after its
  // "CNTR" tag). A cleared engine byte used to restore, and the next ingest
  // aborted in a matrix shape check.
  const std::string bytes = MakeValidCheckpoint();
  const size_t handle_byte = bytes.find("WIND") - 1;
  const size_t engine_byte = bytes.find("CNTR") + 4;
  ASSERT_EQ(bytes.find("CNTR"), bytes.rfind("CNTR"));
  ASSERT_EQ(bytes[handle_byte], 1);
  ASSERT_EQ(bytes[engine_byte], 1);
  for (const size_t at : {handle_byte, engine_byte}) {
    std::string patched = bytes;
    patched[at] = 0;
    ResealCrc(patched);
    EXPECT_EQ(TryRestore(patched).code(), StatusCode::kDataLoss)
        << "byte " << at;
  }
}

/// Offset of the first scheduled event of a checkpoint of the 6 × 5 stream:
/// past the "WIND" tag, the window tensor (mode count u32, three dims, entry
/// count u64 and 32-byte entries), next_seq u64, the clock i64 and the
/// pending count u64. Each event takes 48 bytes: due i64, seq u64, w i32,
/// arity u32, two coordinates i32, value f64 and the tuple time i64.
size_t FirstScheduledOffset(const std::string& bytes) {
  const size_t tag = bytes.find("WIND");
  SNS_CHECK(tag != std::string::npos);
  uint64_t nnz = 0;
  std::memcpy(&nnz, bytes.data() + tag + 4 + 4 + 3 * 8, sizeof(nnz));
  return tag + 4 + 4 + 3 * 8 + 8 + 32 * nnz + 3 * 8;
}
constexpr size_t kScheduledBytes = 48;

template <typename T>
T ReadAt(const std::string& bytes, size_t at) {
  T value{};
  std::memcpy(&value, bytes.data() + at, sizeof(value));
  return value;
}

template <typename T>
void WriteAt(std::string& bytes, size_t at, T value) {
  std::memcpy(bytes.data() + at, &value, sizeof(value));
}

TEST(CheckpointFieldPatchTest, ScheduleOutOfOrderIsDataLoss) {
  // The schedule pops in file order, so the file must list it in (due, seq)
  // order. Two adjacent events swapped are each consistent on their own;
  // a heap schedule used to re-sort them.
  const std::string bytes = MakeValidCheckpoint();
  const size_t first = FirstScheduledOffset(bytes);
  ASSERT_GE(ReadAt<uint64_t>(bytes, first - 8), 2u);
  const std::string a = bytes.substr(first, kScheduledBytes);
  const std::string b = bytes.substr(first + kScheduledBytes, kScheduledBytes);
  ASSERT_LT(ReadAt<uint64_t>(a, 8), ReadAt<uint64_t>(b, 8));  // seq order.
  std::string swapped = bytes;
  swapped.replace(first, kScheduledBytes, b);
  swapped.replace(first + kScheduledBytes, kScheduledBytes, a);
  ResealCrc(swapped);
  EXPECT_EQ(TryRestore(swapped).code(), StatusCode::kDataLoss);
}

TEST(CheckpointFieldPatchTest, ScheduleBeyondClockHorizonIsDataLoss) {
  // Every event is scheduled one period after a clock no later than the
  // window's, so none can be due past clock + period. The last event moved
  // one tick past that horizon, its tuple time moved with it, stays in
  // (due, seq) order and is consistent with its own tuple.
  const std::string bytes = MakeValidCheckpoint();
  const size_t first = FirstScheduledOffset(bytes);
  const auto pending = ReadAt<uint64_t>(bytes, first - 8);
  const auto clock = ReadAt<int64_t>(bytes, first - 16);
  ASSERT_GT(pending, 0u);
  const size_t last = first + (pending - 1) * kScheduledBytes;
  const int64_t period = SmallEngineOptions(SnsVariant::kVecPlus).period;
  const auto due = ReadAt<int64_t>(bytes, last);
  const auto w = ReadAt<int32_t>(bytes, last + 16);
  ASSERT_EQ(due, ReadAt<int64_t>(bytes, last + 40) + w * period);
  ASSERT_LE(due, clock + period);
  std::string patched = bytes;
  WriteAt<int64_t>(patched, last, clock + period + 1);
  WriteAt<int64_t>(patched, last + 40, clock + period + 1 - w * period);
  ResealCrc(patched);
  EXPECT_EQ(TryRestore(patched).code(), StatusCode::kDataLoss);
  // At the horizon itself, the event restores.
  WriteAt<int64_t>(patched, last, clock + period);
  WriteAt<int64_t>(patched, last + 40, clock + period - w * period);
  ResealCrc(patched);
  EXPECT_TRUE(TryRestore(patched).ok());
}

TEST(CheckpointFieldPatchTest, DecayClockFarBehindCatchesUpInOneStep) {
  // A robust stream's outlier-decay clock (after the "LOSS" tag, the two
  // loss sums and the armed byte) set 2⁴⁰ periods behind used to make the
  // next ingest run one decay pass per period, a hang. The passes now stop
  // once the store has drained, and the stream ends bitwise where the same
  // clock 200 periods behind ends (whose ~200 passes the loop ran too).
  ContinuousCpdOptions options = SmallEngineOptions(SnsVariant::kVecPlus);
  options.robust.enabled = true;
  options.robust.threshold = 0.5;
  options.robust.decay = 0.5;
  options.robust.capacity = 32;
  const DataStream stream = SmallStream(100, 13);
  const auto [warmup, live] = SplitWarmup(stream, options);
  auto handle = StreamHandle::Create("decay", {6, 5}, options);
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(handle.value().Warmup(warmup).ok());
  ASSERT_TRUE(handle.value().Initialize().ok());
  ASSERT_TRUE(handle.value().Ingest(live.subspan(0, 30)).ok());
  auto activity = handle.value().OutlierActivity(0, 1);
  ASSERT_TRUE(activity.ok());
  ASSERT_FALSE(activity.value().empty());  // The store holds live entries.
  serial::StringSink sink;
  ASSERT_TRUE(handle.value().Checkpoint(sink).ok());
  const std::string bytes = sink.TakeData();

  const size_t tag = bytes.find("LOSS");
  ASSERT_NE(tag, std::string::npos);
  ASSERT_EQ(tag, bytes.rfind("LOSS"));
  const size_t at = tag + 4 + 16 + 1;
  ASSERT_EQ(bytes[at - 1], 1);  // Armed.
  const auto clock = ReadAt<uint64_t>(bytes, at);
  auto behind_then_ingest = [&](int64_t periods) {
    std::string patched = bytes;
    WriteAt<uint64_t>(patched, at,
                      clock - static_cast<uint64_t>(periods * options.period));
    ResealCrc(patched);
    serial::StringSource source(patched);
    auto restored = StreamHandle::Restore(source);
    SNS_CHECK(restored.ok());
    SNS_CHECK(restored.value().Ingest(live.subspan(30)).ok());
    serial::StringSink out;
    SNS_CHECK(restored.value().Checkpoint(out).ok());
    return out.TakeData();
  };
  EXPECT_EQ(behind_then_ingest(int64_t{1} << 40), behind_then_ingest(200));
}

// --- The v2 loss section ---------------------------------------------------
//
// The payload's last section: "LOSS", the loss and baseline sums (f64
// each), the decay-armed byte and the decay clock (i64), then the outlier
// store: its entry count (u64), the entries (arity u8, one i32 per non-time
// mode, f64 mass) in key order, and the capture and eviction counters (u64
// each).
constexpr size_t kOutlierCountField = 4 + 16 + 1 + 8;
constexpr size_t kOutlierEntryBytes = 1 + 2 * 4 + 8;  // Two non-time modes.

size_t LossSectionOffset(const std::string& bytes) {
  const size_t tag = bytes.find("LOSS");
  SNS_CHECK(tag != std::string::npos && tag == bytes.rfind("LOSS"));
  return tag;
}

/// A robust {6, 5} stream after its warm-up and 30 live tuples, with the
/// tuples after those in `rest`.
std::string RobustCheckpoint(const ContinuousCpdOptions& options,
                             std::vector<Tuple>* rest = nullptr) {
  const DataStream stream = SmallStream(100, 13);
  const auto [warmup, live] = SplitWarmup(stream, options);
  auto handle = StreamHandle::Create("robust", {6, 5}, options);
  SNS_CHECK(handle.ok());
  SNS_CHECK(handle.value().Warmup(warmup).ok());
  SNS_CHECK(handle.value().Initialize().ok());
  SNS_CHECK(handle.value().Ingest(live.subspan(0, 30)).ok());
  if (rest != nullptr) rest->assign(live.begin() + 30, live.end());
  serial::StringSink sink;
  SNS_CHECK(handle.value().Checkpoint(sink).ok());
  return sink.TakeData();
}

ContinuousCpdOptions RobustOptions(int64_t capacity) {
  ContinuousCpdOptions options = SmallEngineOptions(SnsVariant::kVecPlus);
  options.robust.enabled = true;
  options.robust.threshold = 0.5;
  options.robust.decay = 0.5;
  options.robust.capacity = capacity;
  return options;
}

/// Offset of the outlier store's entry count, which must be at least
/// `min_entries`.
size_t OutlierCountOffset(const std::string& bytes, uint64_t min_entries) {
  const size_t at = LossSectionOffset(bytes) + kOutlierCountField;
  SNS_CHECK(ReadAt<uint64_t>(bytes, at) >= min_entries);
  // The entries and both counters end the payload.
  SNS_CHECK(at + 8 + ReadAt<uint64_t>(bytes, at) * kOutlierEntryBytes + 16 ==
            bytes.size() - 4);
  return at;
}

/// Restores `bytes` after replacing its outlier entry `entry` with
/// `replacement` (any length), the payload size and CRC rewritten.
Status RestoreWithEntry(std::string bytes, uint64_t entry,
                        const std::string& replacement) {
  const size_t at =
      OutlierCountOffset(bytes, entry + 1) + 8 + entry * kOutlierEntryBytes;
  bytes.replace(at, kOutlierEntryBytes, replacement);
  WriteAt<uint64_t>(bytes, 8, bytes.size() - 20);
  ResealCrc(bytes);
  return TryRestore(bytes);
}

/// An outlier entry's bytes with the given key and mass.
std::string OutlierEntry(std::initializer_list<int32_t> key, double mass) {
  std::string entry(1, static_cast<char>(key.size()));
  for (const int32_t index : key) {
    entry.append(reinterpret_cast<const char*>(&index), sizeof(index));
  }
  entry.append(reinterpret_cast<const char*>(&mass), sizeof(mass));
  return entry;
}

TEST(CheckpointFieldPatchTest, OutlierKeyOutsideItsModeIsDataLoss) {
  // OutlierActivity folds |S| into an array of the queried mode's size at
  // key[mode]; a last key's first index of 2²⁸ used to restore, and the
  // query then wrote far past that array. Each patch keeps the keys in
  // order: the last key only grows, the first only shrinks.
  const std::string bytes = RobustCheckpoint(RobustOptions(32));
  const size_t count_at = OutlierCountOffset(bytes, 2);
  const size_t first = count_at + 8;
  const size_t last =
      first + (ReadAt<uint64_t>(bytes, count_at) - 1) * kOutlierEntryBytes;
  ASSERT_EQ(bytes[last], 2);
  for (const auto& [at, index] :
       {std::pair{last + 1, int32_t{1} << 28}, std::pair{last + 1, 6},
        std::pair{last + 5, 5}, std::pair{first + 1, -1}}) {
    std::string patched = bytes;
    WriteAt<int32_t>(patched, at, index);
    ResealCrc(patched);
    EXPECT_EQ(TryRestore(patched).code(), StatusCode::kDataLoss)
        << "index " << index << " at " << at - first;
  }
  // In range, the last key's largest index restores.
  std::string patched = bytes;
  WriteAt<int32_t>(patched, last + 1, 5);
  WriteAt<int32_t>(patched, last + 5, 4);
  ResealCrc(patched);
  EXPECT_TRUE(TryRestore(patched).ok());
}

TEST(CheckpointFieldPatchTest, OutlierKeyOfAnotherArityIsDataLoss) {
  // A key of one or three indices into a stream with two non-time modes,
  // re-encoded so the rest of the payload still parses; the store's key
  // order (by arity first) keeps both in order.
  const std::string bytes = RobustCheckpoint(RobustOptions(32));
  const size_t count_at = OutlierCountOffset(bytes, 1);
  const uint64_t last = ReadAt<uint64_t>(bytes, count_at) - 1;
  EXPECT_EQ(RestoreWithEntry(bytes, 0, OutlierEntry({0}, 1.0)).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(RestoreWithEntry(bytes, last, OutlierEntry({5, 4, 0}, 1.0)).code(),
            StatusCode::kDataLoss);
  EXPECT_TRUE(RestoreWithEntry(bytes, last, OutlierEntry({5, 4}, 1.0)).ok());
}

TEST(CheckpointFieldPatchTest, OutlierKeysOutOfOrderAreDataLoss) {
  // Entries are written in strictly increasing key order. Two swapped, or a
  // key repeated, used to restore: the map re-sorted the one and silently
  // dropped the other.
  const std::string bytes = RobustCheckpoint(RobustOptions(32));
  const size_t first = OutlierCountOffset(bytes, 2) + 8;
  const std::string a = bytes.substr(first, kOutlierEntryBytes);
  const std::string b = bytes.substr(first + kOutlierEntryBytes,
                                     kOutlierEntryBytes);
  std::string swapped = bytes;
  swapped.replace(first, kOutlierEntryBytes, b);
  swapped.replace(first + kOutlierEntryBytes, kOutlierEntryBytes, a);
  ResealCrc(swapped);
  EXPECT_EQ(TryRestore(swapped).code(), StatusCode::kDataLoss);
  std::string repeated = bytes;
  repeated.replace(first + kOutlierEntryBytes + 1, 8, a.substr(1, 8));
  ResealCrc(repeated);
  EXPECT_EQ(TryRestore(repeated).code(), StatusCode::kDataLoss);
}

TEST(CheckpointFieldPatchTest, OutlierEntriesPastCapacityAreDataLoss) {
  // A full store (it has evicted) with one more entry appended after its
  // last key: the store never holds more than robust.capacity entries.
  const int64_t capacity = 4;
  std::string bytes = RobustCheckpoint(RobustOptions(capacity));
  const size_t count_at = OutlierCountOffset(bytes, capacity);
  ASSERT_EQ(ReadAt<uint64_t>(bytes, count_at), uint64_t{capacity});
  const size_t end = count_at + 8 + capacity * kOutlierEntryBytes;
  ASSERT_GT(ReadAt<uint64_t>(bytes, end + 8), 0u);  // Evictions.
  ASSERT_LT(ReadAt<int32_t>(bytes, end - kOutlierEntryBytes + 1), 5);
  bytes.insert(end, OutlierEntry({5, 4}, 1.0));
  WriteAt<uint64_t>(bytes, count_at, capacity + 1);
  WriteAt<uint64_t>(bytes, 8, bytes.size() - 20);
  ResealCrc(bytes);
  EXPECT_EQ(TryRestore(bytes).code(), StatusCode::kDataLoss);
}

TEST(CheckpointFieldPatchTest, LossSectionSweepIsTypedOrSurvives) {
  // At every byte offset of a robust Poisson checkpoint's loss section, each
  // boundary value (8-byte 0, −1, INT64_MAX, 2³¹, 2⁴⁰, NaN and +inf; 4-byte
  // 0xFFFFFFFF, 2³¹ and INT32_MAX; byte 0xFF), cut at the payload's end,
  // under a resealed CRC: the restore either fails with a status, or the
  // stream takes 40 more tuples and answers every query. Run under the
  // sanitizers, "answers" includes touching no memory it does not own.
  ContinuousCpdOptions options = RobustOptions(32);
  options.variant = SnsVariant::kVec;
  options.loss = LossKind::kPoisson;
  options.robust.threshold = 2.0;
  std::vector<Tuple> rest;
  const std::string bytes = RobustCheckpoint(options, &rest);
  ASSERT_GE(rest.size(), 40u);
  rest.resize(40);
  OutlierCountOffset(bytes, 1);  // The store holds live entries.
  struct Value {
    uint64_t bits;
    size_t width;
  };
  const std::vector<Value> values = {
      {0, 8},
      {~uint64_t{0}, 8},
      {uint64_t{std::numeric_limits<int64_t>::max()}, 8},
      {uint64_t{1} << 31, 8},
      {uint64_t{1} << 40, 8},
      {std::bit_cast<uint64_t>(std::numeric_limits<double>::quiet_NaN()), 8},
      {std::bit_cast<uint64_t>(std::numeric_limits<double>::infinity()), 8},
      {0xFFFFFFFFu, 4},
      {uint64_t{1} << 31, 4},
      {uint64_t{std::numeric_limits<int32_t>::max()}, 4},
      {0xFF, 1}};
  const size_t payload_end = bytes.size() - 4;
  int restored = 0, refused = 0;
  for (size_t at = LossSectionOffset(bytes); at < payload_end; ++at) {
    for (const Value& value : values) {
      std::string patched = bytes;
      std::memcpy(patched.data() + at, &value.bits,
                  std::min(value.width, payload_end - at));
      ResealCrc(patched);
      serial::StringSource source(patched);
      auto handle = StreamHandle::Restore(source);
      if (!handle.ok()) {
        ++refused;
        continue;
      }
      ++restored;
      StreamHandle& stream = handle.value();
      (void)stream.Ingest(rest);
      for (int mode = 0; mode < stream.num_modes(); ++mode) {
        (void)stream.TopK(mode, 3);
        (void)stream.TopKForComponent(mode, 0, 3);
        (void)stream.FactorRow(mode, 0);
        (void)stream.OutlierActivity(mode, 3);
      }
      (void)stream.ComponentActivity();
      ModeIndex cell;
      for (int mode = 0; mode < stream.num_modes(); ++mode) cell.PushBack(0);
      (void)stream.Reconstruct(cell);
      (void)stream.RunningFitness();
      (void)stream.ExactFitness();
      (void)stream.Stats();
      serial::StringSink sink;
      (void)stream.Checkpoint(sink);
    }
  }
  EXPECT_GT(restored, 0);
  EXPECT_GT(refused, 0);
}

std::string FromHex(std::string_view hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return bytes;
}

TEST(CheckpointFieldPatchTest, PreRemovalFloat64CheckpointRestoresBitwise) {
  // Written by the last build that still had the float32-mirror factor
  // mode: an initialized SNS+RND stream "golden" ({3, 2}, rank 2, W = 2,
  // T = 10, θ = 2, seed 7) after 8 warm-up and 6 live tuples. Both
  // precision bytes are 0; restoring and re-checkpointing reproduces every
  // byte.
  const std::string golden = FromHex(
    "534e435001000000290400000000000000000000000000000600000000000000676f6c"
    "64656e0200000003000000000000000200000000000000020000000000000002000000"
    "0a000000000000000402000000000000000000000000408f4000000000000000000080"
    "00000000000000000032000000f168e388b5f8e43e0107000000000000002300000000"
    "0000000157494e44030000000300000000000000020000000000000002000000000000"
    "000600000000000000010000000000000000000000000000000000e03f010000000000"
    "0000000000000200000000000000010000000000000000000440000000000200000001"
    "0000000100000001000000010000000000000000000040000000000000000000000000"
    "000000000000000001000000000000000000f83f000000000100000002000000020000"
    "000100000000000000000000000000f03f010000000100000001000000000000000100"
    "0000010000000000000000000840010000000200000003000000180000000000000023"
    "0000000000000006000000000000002400000000000000120000000000000001000000"
    "020000000000000000000000000000000000f83f1a0000000000000027000000000000"
    "0013000000000000000100000002000000010000000100000000000000000000401d00"
    "0000000000002800000000000000140000000000000002000000020000000100000000"
    "000000000000000000e03f14000000000000002a000000000000001500000000000000"
    "01000000020000000200000000000000000000000000044020000000000000002b0000"
    "0000000000160000000000000002000000020000000200000001000000000000000000"
    "f03f17000000000000002d000000000000001700000000000000010000000200000000"
    "0000000100000000000000000008402300000000000000435044530300000002000000"
    "000000000300000000000000451d7861ca97ed3f56401a4068c5ecbf8d470df2bedbf6"
    "3fc07b48ff335ffbbfdff1f3f9ff64f23fff4cf937a638f4bf0200000000000000164d"
    "bd01aa930a40a46514a7724709404efbf6555bcae53f3d934b207e90c5bf0200000000"
    "000000cae5eda1aed0e63f1e2ab91829efe73f064d937947fdf93fbfe2547d6bccf43f"
    "000000000000f03f000000000000f03f22af650233df1040152b7572f9e912c0152b75"
    "72f9e912c001981d8d425415408e2d7a2007002740d82ca8e9f6c32440d82ca8e9f6c3"
    "2440248a6bddca0624400b84eea0a42c09402295bffa722805402295bffa722805404c"
    "36f9d851fe0140004649544e0000000000c03640123fc87e11b2ee3f15000000000000"
    "00524e4753fa657bf2f0a175a6f24ac0ff30ff012ed1d34820d8d2059df95ca0248769"
    "9b430000000000000000000117311292397935cf7631d5dc6018eafc840b2a45829b35"
    "73c6608d2d3f41e92e000000000000000000434e545201150000000000000073b6d5cd");
  ASSERT_EQ(golden.size(), 1085u);
  EXPECT_EQ(golden[OptionsOffset("golden", 2) + kOptionsPrecisionField], 0);
  EXPECT_EQ(golden[EnginePrecisionOffset(golden)], 0);
  serial::StringSource source(golden);
  auto restored = StreamHandle::Restore(source);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(restored.value().initialized());
  serial::StringSink sink;
  ASSERT_TRUE(restored.value().Checkpoint(sink).ok());
  EXPECT_EQ(sink.data(), golden);
}

// --- Journal unit behavior ------------------------------------------------

std::vector<Tuple> TinyTuples(int64_t time, int count) {
  std::vector<Tuple> tuples;
  for (int i = 0; i < count; ++i) {
    Tuple tuple;
    tuple.index = ModeIndex({i % 3, i % 2});
    tuple.value = 1.0 + i;
    tuple.time = time;
    tuples.push_back(tuple);
  }
  return tuples;
}

TEST(JournalTest, AppendReplayRoundTrip) {
  const std::string dir = FreshDir("journal_roundtrip");
  {
    auto writer = durability::JournalWriter::Open(dir);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()
                    ->Append(1, durability::JournalOpType::kWarmup, 0,
                             TinyTuples(5, 3))
                    .ok());
    ASSERT_TRUE(writer.value()
                    ->Append(2, durability::JournalOpType::kInitialize, 0, {})
                    .ok());
    ASSERT_TRUE(writer.value()
                    ->Append(3, durability::JournalOpType::kIngest, 0,
                             TinyTuples(9, 2))
                    .ok());
    ASSERT_TRUE(writer.value()
                    ->Append(4, durability::JournalOpType::kAdvanceTo, 77, {})
                    .ok());
  }
  std::vector<durability::JournalRecord> seen;
  auto stats = durability::ReplayJournal(
      dir, /*after_sequence=*/0, [&seen](const durability::JournalRecord& r) {
        seen.push_back(r);
        return Status::OK();
      });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().records_seen, 4u);
  EXPECT_EQ(stats.value().records_applied, 4u);
  EXPECT_EQ(stats.value().last_sequence, 4u);
  EXPECT_FALSE(stats.value().torn_tail);
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0].op, durability::JournalOpType::kWarmup);
  EXPECT_EQ(seen[0].tuples.size(), 3u);
  EXPECT_EQ(seen[0].tuples[1].value, 2.0);
  EXPECT_EQ(seen[3].time, 77);

  // Replaying after a checkpoint at sequence 2 skips the prefix.
  auto suffix = durability::ReplayJournal(
      dir, /*after_sequence=*/2,
      [](const durability::JournalRecord&) { return Status::OK(); });
  ASSERT_TRUE(suffix.ok());
  EXPECT_EQ(suffix.value().records_seen, 4u);
  EXPECT_EQ(suffix.value().records_applied, 2u);
}

TEST(JournalTest, RotatesSegmentsAndReplaysAcrossThem) {
  const std::string dir = FreshDir("journal_rotation");
  durability::JournalOptions options;
  options.max_segment_bytes = 128;  // Tiny: force frequent rotation.
  {
    auto writer = durability::JournalWriter::Open(dir, options);
    ASSERT_TRUE(writer.ok());
    for (uint64_t seq = 1; seq <= 20; ++seq) {
      ASSERT_TRUE(writer.value()
                      ->Append(seq, durability::JournalOpType::kIngest, 0,
                               TinyTuples(static_cast<int64_t>(seq), 2))
                      .ok());
    }
    EXPECT_GT(writer.value()->segments_opened(), 1);
  }
  size_t segment_files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++segment_files;
  }
  EXPECT_GT(segment_files, 1u);

  auto stats = durability::ReplayJournal(
      dir, 0, [](const durability::JournalRecord&) { return Status::OK(); });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().records_applied, 20u);
  EXPECT_EQ(stats.value().last_sequence, 20u);
}

TEST(JournalTest, FreshWriterNeverAppendsToExistingSegments) {
  const std::string dir = FreshDir("journal_fresh_segment");
  {
    auto writer = durability::JournalWriter::Open(dir);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()
                    ->Append(1, durability::JournalOpType::kIngest, 0,
                             TinyTuples(1, 1))
                    .ok());
  }
  {
    // A second Open (e.g. after recovery) starts a new numbered segment.
    auto writer = durability::JournalWriter::Open(dir);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()
                    ->Append(2, durability::JournalOpType::kIngest, 0,
                             TinyTuples(2, 1))
                    .ok());
  }
  size_t segment_files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++segment_files;
  }
  EXPECT_EQ(segment_files, 2u);
  auto stats = durability::ReplayJournal(
      dir, 0, [](const durability::JournalRecord&) { return Status::OK(); });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().records_applied, 2u);
}

std::vector<std::string> SortedSegmentPaths(const std::string& dir) {
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

void TruncateFile(const std::string& path, int64_t drop_bytes) {
  const auto size = fs::file_size(path);
  fs::resize_file(path, size - static_cast<uintmax_t>(drop_bytes));
}

TEST(JournalFaultInjectionTest, TornTailIsCleanlyDiscarded) {
  const std::string dir = FreshDir("journal_torn_tail");
  {
    auto writer = durability::JournalWriter::Open(dir);
    ASSERT_TRUE(writer.ok());
    for (uint64_t seq = 1; seq <= 5; ++seq) {
      ASSERT_TRUE(writer.value()
                      ->Append(seq, durability::JournalOpType::kIngest, 0,
                               TinyTuples(static_cast<int64_t>(seq), 2))
                      .ok());
    }
  }
  // Tear the final record: drop a few bytes off the only (= last) segment.
  TruncateFile(SortedSegmentPaths(dir).back(), 3);
  auto stats = durability::ReplayJournal(
      dir, 0, [](const durability::JournalRecord&) { return Status::OK(); });
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats.value().torn_tail);
  EXPECT_EQ(stats.value().records_applied, 4u);
  EXPECT_EQ(stats.value().last_sequence, 4u);
}

TEST(JournalFaultInjectionTest, TornTailIsTruncatedSoRecoveryIsRepeatable) {
  const std::string dir = FreshDir("journal_torn_repeat");
  {
    auto writer = durability::JournalWriter::Open(dir);
    ASSERT_TRUE(writer.ok());
    for (uint64_t seq = 1; seq <= 5; ++seq) {
      ASSERT_TRUE(writer.value()
                      ->Append(seq, durability::JournalOpType::kIngest, 0,
                               TinyTuples(static_cast<int64_t>(seq), 2))
                      .ok());
    }
  }
  const std::string segment = SortedSegmentPaths(dir).back();
  TruncateFile(segment, 3);
  const auto torn_size = fs::file_size(segment);

  // First replay discards the torn record AND truncates it from disk.
  auto first = durability::ReplayJournal(
      dir, 0, [](const durability::JournalRecord&) { return Status::OK(); });
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.value().torn_tail);
  EXPECT_EQ(first.value().records_applied, 4u);
  EXPECT_LT(fs::file_size(segment), torn_size);

  // A recovered service re-attaches: a NEW writer opens a fresh segment
  // after the (now clean) torn one and continues the token sequence.
  {
    auto writer = durability::JournalWriter::Open(dir);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()
                    ->Append(5, durability::JournalOpType::kIngest, 0,
                             TinyTuples(5, 2))
                    .ok());
  }
  // Before the repair existed, this second replay hit the buried torn
  // record in a non-last segment and failed kDataLoss forever.
  auto second = durability::ReplayJournal(
      dir, 0, [](const durability::JournalRecord&) { return Status::OK(); });
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.value().torn_tail);
  EXPECT_EQ(second.value().records_applied, 5u);
  EXPECT_EQ(second.value().last_sequence, 5u);
}

TEST(JournalFaultInjectionTest, TornSegmentHeaderIsRemovedFromDisk) {
  const std::string dir = FreshDir("journal_torn_header");
  {
    auto writer = durability::JournalWriter::Open(dir);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()
                    ->Append(1, durability::JournalOpType::kIngest, 0,
                             TinyTuples(1, 1))
                    .ok());
  }
  {
    // A writer that dies during segment creation leaves a partial header
    // (and, by the write-ahead contract, no acknowledged record).
    auto writer = durability::JournalWriter::Open(dir);
    ASSERT_TRUE(writer.ok());
  }
  TruncateFile(SortedSegmentPaths(dir).back(), 7);  // 12-byte header → 5.

  auto first = durability::ReplayJournal(
      dir, 0, [](const durability::JournalRecord&) { return Status::OK(); });
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.value().torn_tail);
  EXPECT_EQ(first.value().records_applied, 1u);
  EXPECT_EQ(SortedSegmentPaths(dir).size(), 1u);  // Torn segment removed.

  {
    auto writer = durability::JournalWriter::Open(dir);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()
                    ->Append(2, durability::JournalOpType::kIngest, 0,
                             TinyTuples(2, 1))
                    .ok());
  }
  auto second = durability::ReplayJournal(
      dir, 0, [](const durability::JournalRecord&) { return Status::OK(); });
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.value().torn_tail);
  EXPECT_EQ(second.value().records_applied, 2u);
}

TEST(JournalFaultInjectionTest, TruncationBeforeTheEndIsDataLoss) {
  const std::string dir = FreshDir("journal_mid_truncate");
  durability::JournalOptions options;
  options.max_segment_bytes = 128;
  {
    auto writer = durability::JournalWriter::Open(dir, options);
    ASSERT_TRUE(writer.ok());
    for (uint64_t seq = 1; seq <= 12; ++seq) {
      ASSERT_TRUE(writer.value()
                      ->Append(seq, durability::JournalOpType::kIngest, 0,
                               TinyTuples(static_cast<int64_t>(seq), 2))
                      .ok());
    }
    ASSERT_GT(writer.value()->segments_opened(), 1);
  }
  // A short read in a NON-final segment means acknowledged records after it
  // are gone — loss, not a torn tail.
  TruncateFile(SortedSegmentPaths(dir).front(), 5);
  auto stats = durability::ReplayJournal(
      dir, 0, [](const durability::JournalRecord&) { return Status::OK(); });
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kDataLoss);
}

TEST(JournalFaultInjectionTest, FlippedRecordByteIsDataLoss) {
  const std::string dir = FreshDir("journal_bit_flip");
  {
    auto writer = durability::JournalWriter::Open(dir);
    ASSERT_TRUE(writer.ok());
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE(writer.value()
                      ->Append(seq, durability::JournalOpType::kIngest, 0,
                               TinyTuples(static_cast<int64_t>(seq), 2))
                      .ok());
    }
  }
  const std::string path = SortedSegmentPaths(dir).front();
  auto contents = serial::ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  std::string data = std::move(contents).value();
  data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 0x01);
  ASSERT_TRUE(serial::WriteStringToFile(path, data).ok());

  auto stats = durability::ReplayJournal(
      dir, 0, [](const durability::JournalRecord&) { return Status::OK(); });
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kDataLoss);
}

TEST(JournalFaultInjectionTest, NewerFormatVersionIsFailedPrecondition) {
  const std::string dir = FreshDir("journal_version_skew");
  {
    auto writer = durability::JournalWriter::Open(dir);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()
                    ->Append(1, durability::JournalOpType::kIngest, 0,
                             TinyTuples(1, 1))
                    .ok());
  }
  const std::string path = SortedSegmentPaths(dir).front();
  auto contents = serial::ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  std::string data = std::move(contents).value();
  data[8] = static_cast<char>(data[8] + 1);  // Version field after u64 magic.
  ASSERT_TRUE(serial::WriteStringToFile(path, data).ok());

  auto stats = durability::ReplayJournal(
      dir, 0, [](const durability::JournalRecord&) { return Status::OK(); });
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kFailedPrecondition);
}

TEST(JournalFaultInjectionTest, SequenceGapIsDataLoss) {
  const std::string dir = FreshDir("journal_seq_gap");
  {
    auto writer = durability::JournalWriter::Open(dir);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()
                    ->Append(1, durability::JournalOpType::kIngest, 0,
                             TinyTuples(1, 1))
                    .ok());
    ASSERT_TRUE(writer.value()
                    ->Append(3, durability::JournalOpType::kIngest, 0,
                             TinyTuples(3, 1))
                    .ok());
  }
  auto stats = durability::ReplayJournal(
      dir, 0, [](const durability::JournalRecord&) { return Status::OK(); });
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kDataLoss);
}

// --- The central differential: recovery == uninterrupted ------------------

struct ProtocolInput {
  ContinuousCpdOptions options;
  std::span<const Tuple> warmup;
  std::vector<std::span<const Tuple>> batches;
  int64_t horizon = 0;
};

ProtocolInput MakeProtocol(const DataStream& stream,
                           const ContinuousCpdOptions& options) {
  ProtocolInput input;
  input.options = options;
  const auto [warmup, live] = SplitWarmup(stream, options);
  input.warmup = warmup;
  for (size_t i = 0; i < live.size(); i += 3) {
    input.batches.push_back(live.subspan(i, std::min<size_t>(3, live.size() - i)));
  }
  input.horizon = stream.tuples().back().time + options.period;
  return input;
}

/// Uninterrupted reference: the full protocol with no journal, final state
/// as checkpoint bytes.
std::string RunUninterrupted(const ProtocolInput& input, int shards) {
  SnsService service = MakeService(shards);
  SNS_CHECK(service.CreateStream("s", {6, 5}, input.options).ok());
  SNS_CHECK(service.Warmup("s", input.warmup).ok());
  SNS_CHECK(service.Initialize("s").ok());
  for (const auto& batch : input.batches) {
    SNS_CHECK(service.Ingest("s", batch).ok());
  }
  SNS_CHECK(service.AdvanceTo("s", input.horizon).ok());
  return CheckpointBytes(service, "s");
}

enum class Interrupt { kBeforeWarmup, kMidBatches, kAfterBatches };

/// Journaled run checkpointed at `interrupt`, "crashed" at the end, then
/// recovered into a fresh service from checkpoint + journal suffix. Returns
/// the recovered service's final checkpoint bytes.
std::string RunRecovered(const ProtocolInput& input, int shards,
                         Interrupt interrupt, const std::string& dir) {
  fs::remove_all(dir);
  std::string saved;
  {
    SnsService service = MakeService(shards);
    SNS_CHECK(service.CreateStream("s", {6, 5}, input.options).ok());
    SNS_CHECK(service.EnableJournal("s", dir).ok());
    if (interrupt == Interrupt::kBeforeWarmup) {
      saved = CheckpointBytes(service, "s");
    }
    SNS_CHECK(service.Warmup("s", input.warmup).ok());
    SNS_CHECK(service.Initialize("s").ok());
    for (size_t i = 0; i < input.batches.size(); ++i) {
      SNS_CHECK(service.Ingest("s", input.batches[i]).ok());
      if (interrupt == Interrupt::kMidBatches &&
          i + 1 == input.batches.size() / 2) {
        saved = CheckpointBytes(service, "s");
      }
    }
    if (interrupt == Interrupt::kAfterBatches) {
      saved = CheckpointBytes(service, "s");
    }
    SNS_CHECK(service.AdvanceTo("s", input.horizon).ok());
  }  // "Crash": the service dies; checkpoint + journal survive.

  SnsService recovered = MakeService(shards);
  serial::StringSource source(saved);
  auto report = durability::RecoverStream(recovered, source, dir);
  SNS_CHECK(report.ok());
  SNS_CHECK(!report.value().torn_tail);
  return CheckpointBytes(recovered, "s");
}

TEST(RecoveryDifferentialTest, AllVariantsShardsAndInterruptPoints) {
  const DataStream stream = SmallStream(130, 21);
  const SnsVariant variants[] = {SnsVariant::kMat, SnsVariant::kVec,
                                 SnsVariant::kRnd, SnsVariant::kVecPlus,
                                 SnsVariant::kRndPlus};
  const Interrupt interrupts[] = {Interrupt::kBeforeWarmup,
                                  Interrupt::kMidBatches,
                                  Interrupt::kAfterBatches};
  for (SnsVariant variant : variants) {
    const ProtocolInput input =
        MakeProtocol(stream, SmallEngineOptions(variant));
    // The trajectory is shard-invariant (pinned streams), so one reference
    // run serves every shard count.
    const std::string reference = RunUninterrupted(input, /*shards=*/0);
    for (int shards : {0, 1, 4}) {
      for (Interrupt interrupt : interrupts) {
        const std::string recovered = RunRecovered(
            input, shards, interrupt, FreshDir("differential"));
        EXPECT_EQ(recovered, reference)
            << VariantName(variant) << " shards=" << shards
            << " interrupt=" << static_cast<int>(interrupt);
      }
    }
  }
}

TEST(RecoveryDifferentialTest, ReportAccountsForReplayAndMirroredFailures) {
  const DataStream stream = SmallStream(100, 29);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kVec));
  const std::string dir = FreshDir("report");
  std::string saved;
  std::string final_bytes;
  uint64_t saved_seq = 0;
  uint64_t final_seq = 0;
  {
    SnsService service = MakeService(1);
    SNS_CHECK(service.CreateStream("s", {6, 5}, input.options).ok());
    SNS_CHECK(service.EnableJournal("s", dir).ok());
    SNS_CHECK(service.Warmup("s", input.warmup).ok());
    SNS_CHECK(service.Initialize("s").ok());
    SNS_CHECK(service.Ingest("s", input.batches[0]).ok());
    saved = CheckpointBytes(service, "s");
    saved_seq = service.AppliedSequence("s").value();
    // A request the stream rejects (time regression): it consumes a token,
    // lands in the journal, and must fail identically on replay.
    Tuple regressed = input.batches[1].front();
    regressed.time = 0;
    EXPECT_EQ(service.Ingest("s", regressed).code(),
              StatusCode::kFailedPrecondition);
    SNS_CHECK(service.Ingest("s", input.batches[1]).ok());
    final_bytes = CheckpointBytes(service, "s");
    final_seq = service.AppliedSequence("s").value();
  }
  SnsService recovered = MakeService(1);
  serial::StringSource source(saved);
  auto report = durability::RecoverStream(recovered, source, dir);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().checkpoint_sequence, saved_seq);
  EXPECT_EQ(report.value().last_sequence, final_seq);
  EXPECT_EQ(report.value().records_replayed, final_seq - saved_seq);
  EXPECT_EQ(report.value().mirrored_failures, 1u);
  EXPECT_EQ(CheckpointBytes(recovered, "s"), final_bytes);
}

TEST(RecoveryDifferentialTest, TornTailRecoveryThenReattachThenRecoverAgain) {
  // The examples/durable_service.cpp loop: crash with a torn tail, recover,
  // re-attach the journal, continue, crash again, recover again. The second
  // recovery only works because the first one truncated the torn record —
  // otherwise it sits buried in a non-last segment as permanent kDataLoss.
  const DataStream stream = SmallStream(120, 47);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kVecPlus));
  const std::string dir = FreshDir("torn_reattach");
  const size_t half = input.batches.size() / 2;
  ASSERT_GE(half, 2u);
  std::string saved;
  {
    SnsService service = MakeService(1);
    SNS_CHECK(service.CreateStream("s", {6, 5}, input.options).ok());
    SNS_CHECK(service.EnableJournal("s", dir).ok());
    SNS_CHECK(service.Warmup("s", input.warmup).ok());
    SNS_CHECK(service.Initialize("s").ok());
    saved = CheckpointBytes(service, "s");
    for (size_t i = 0; i < half; ++i) {
      SNS_CHECK(service.Ingest("s", input.batches[i]).ok());
    }
  }  // Crash #1...
  // ...mid-write of the final record: its batch was never acknowledged.
  TruncateFile(SortedSegmentPaths(dir).back(), 3);

  std::string continued;
  {
    SnsService service = MakeService(1);
    serial::StringSource source(saved);
    auto report = durability::RecoverStream(service, source, dir);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report.value().torn_tail);
    // Re-attach and resume the feed from the torn (lost) batch onward.
    ASSERT_TRUE(service.EnableJournal("s", dir).ok());
    for (size_t i = half - 1; i < input.batches.size(); ++i) {
      ASSERT_TRUE(service.Ingest("s", input.batches[i]).ok());
    }
    continued = CheckpointBytes(service, "s");
  }  // Crash #2, this time with a clean tail.

  SnsService recovered = MakeService(1);
  serial::StringSource source(saved);
  auto report = durability::RecoverStream(recovered, source, dir);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().torn_tail);
  EXPECT_EQ(CheckpointBytes(recovered, "s"), continued);
}

// --- Service lifecycle interactions ---------------------------------------

TEST(ServiceDurabilityTest, CheckpointDuringAsyncIngestIsASequencePoint) {
  const DataStream stream = SmallStream(130, 31);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kRndPlus));

  SnsService service = MakeService(2);
  ASSERT_TRUE(service.CreateStream("s", {6, 5}, input.options).ok());
  ASSERT_TRUE(service.Warmup("s", input.warmup).ok());
  ASSERT_TRUE(service.Initialize("s").ok());

  // Fire every batch asynchronously, checkpoint in the middle of the
  // barrage WITHOUT draining, then let the rest land.
  std::vector<Ticket> tickets;
  serial::StringSink sink;
  Status checkpoint_status = Status::OK();
  for (size_t i = 0; i < input.batches.size(); ++i) {
    tickets.push_back(service.IngestAsync("s", input.batches[i]));
    if (i == input.batches.size() / 2) {
      checkpoint_status = service.Checkpoint("s", sink);
    }
  }
  for (Ticket& ticket : tickets) ASSERT_TRUE(ticket.Wait().ok());
  ASSERT_TRUE(checkpoint_status.ok());

  // The checkpoint reflects a prefix of the ticketed operations: restore it
  // and verify it matches a clean run of exactly that many batches.
  serial::StringSource source(sink.data());
  SnsService restored_service = MakeService(0);
  ASSERT_TRUE(restored_service.Restore(source).ok());
  const uint64_t seq = restored_service.AppliedSequence("s").value();
  ASSERT_GE(seq, 2u);  // Warmup + Initialize.
  const uint64_t batches_included = seq - 2;
  ASSERT_LE(batches_included, input.batches.size());

  SnsService reference = MakeService(0);
  ASSERT_TRUE(reference.CreateStream("s", {6, 5}, input.options).ok());
  ASSERT_TRUE(reference.Warmup("s", input.warmup).ok());
  ASSERT_TRUE(reference.Initialize("s").ok());
  for (uint64_t i = 0; i < batches_included; ++i) {
    ASSERT_TRUE(reference.Ingest("s", input.batches[i]).ok());
  }
  EXPECT_EQ(sink.data(), CheckpointBytes(reference, "s"));
}

/// Calls every StreamHandle query once, on the stream's owning shard.
void QueryEverything(SnsService& service, const std::string& name) {
  auto answered = service.Query(name, [](const StreamHandle& handle) {
    ModeIndex cell;
    for (int mode = 0; mode < handle.num_modes(); ++mode) {
      (void)handle.TopK(mode, 3);
      (void)handle.TopKForComponent(mode, 0, 3);
      (void)handle.FactorRow(mode, 0);
      (void)handle.OutlierActivity(mode, 3);
      cell.PushBack(0);
    }
    (void)handle.Reconstruct(cell);
    (void)handle.ComponentActivity();
    (void)handle.RunningFitness();
    (void)handle.ExactFitness();
    (void)handle.Stats();
    return 0;
  });
  SNS_CHECK(answered.ok());
}

// A query never changes serialized state: every StreamHandle query between
// batches leaves the checkpoint bytes equal to those of a run that never
// queries, inline and sharded, on the Gaussian path and on a robust
// Poisson stream. The running-fitness query's exact resync once overwrote
// the serialized accumulators after resync_interval (128) events.
TEST(ServiceDurabilityTest, QueriesBetweenBatchesLeaveStateBitwise) {
  const DataStream stream = SmallStream(130, 37);
  ContinuousCpdOptions poisson = RobustOptions(32);
  poisson.variant = SnsVariant::kVec;
  poisson.loss = LossKind::kPoisson;
  for (const ContinuousCpdOptions& options :
       {SmallEngineOptions(SnsVariant::kRnd), poisson}) {
    const ProtocolInput input = MakeProtocol(stream, options);
    const std::string reference = RunUninterrupted(input, /*shards=*/0);
    for (int shards : {0, 1, 4}) {
      SCOPED_TRACE("loss=" + LossKindName(options.loss) +
                   " shards=" + std::to_string(shards));
      SnsService service = MakeService(shards);
      ASSERT_TRUE(service.CreateStream("s", {6, 5}, input.options).ok());
      ASSERT_TRUE(service.Warmup("s", input.warmup).ok());
      QueryEverything(service, "s");
      ASSERT_TRUE(service.Initialize("s").ok());
      for (const auto& batch : input.batches) {
        QueryEverything(service, "s");
        ASSERT_TRUE(service.Ingest("s", batch).ok());
      }
      QueryEverything(service, "s");
      ASSERT_TRUE(service.AdvanceTo("s", input.horizon).ok());
      QueryEverything(service, "s");
      EXPECT_EQ(CheckpointBytes(service, "s"), reference);
    }
  }
}

TEST(ServiceDurabilityTest, DurabilityCallsAfterShutdownFailTyped) {
  const DataStream stream = SmallStream(90, 37);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kVec));
  SnsService service = MakeService(1);
  ASSERT_TRUE(service.CreateStream("s", {6, 5}, input.options).ok());
  ASSERT_TRUE(service.Warmup("s", input.warmup).ok());
  ASSERT_TRUE(service.Initialize("s").ok());
  const std::string valid = CheckpointBytes(service, "s");

  service.Shutdown();

  serial::StringSink sink;
  EXPECT_EQ(service.Checkpoint("s", sink).code(),
            StatusCode::kFailedPrecondition);
  serial::StringSource source(valid);
  EXPECT_EQ(service.Restore(source).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.EnableJournal("s", FreshDir("post_shutdown")).code(),
            StatusCode::kFailedPrecondition);
  // AdvanceAllTo degrades to an OK no-op, not a crash.
  EXPECT_TRUE(service.AdvanceAllTo(input.horizon).ok());
}

TEST(ServiceDurabilityTest, AdvanceAllToSurfacesJournalAppendFailure) {
  const DataStream stream = SmallStream(90, 53);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kVec));
  SnsService service = MakeService(0);
  ASSERT_TRUE(service.CreateStream("s", {6, 5}, input.options).ok());
  const std::string dir = FreshDir("advance_all_journal_fail");
  durability::JournalOptions journal_options;
  journal_options.max_segment_bytes = 1;  // Every append rotates.
  ASSERT_TRUE(service.EnableJournal("s", dir, journal_options).ok());
  ASSERT_TRUE(service.Warmup("s", input.warmup).ok());
  ASSERT_TRUE(service.Initialize("s").ok());
  ASSERT_TRUE(service.Ingest("s", input.batches[0]).ok());

  // Replace the journal directory with a plain file: the next append's
  // segment rotation fails. AdvanceAllTo must surface that as a typed
  // error, not abort the process.
  fs::remove_all(dir);
  ASSERT_TRUE(serial::WriteStringToFile(dir, "not a directory").ok());
  const Status status = service.AdvanceAllTo(input.horizon);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  // The failed append poisoned the stream; later mutations fail kDataLoss.
  EXPECT_EQ(service.Ingest("s", input.batches[1]).code(),
            StatusCode::kDataLoss);
}

TEST(ServiceDurabilityTest, RestoreRejectsDuplicateName) {
  const DataStream stream = SmallStream(90, 41);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kVec));
  SnsService service = MakeService(0);
  ASSERT_TRUE(service.CreateStream("s", {6, 5}, input.options).ok());
  ASSERT_TRUE(service.Warmup("s", input.warmup).ok());
  const std::string bytes = CheckpointBytes(service, "s");

  serial::StringSource source(bytes);
  EXPECT_EQ(service.Restore(source).status().code(),
            StatusCode::kFailedPrecondition);

  // A fresh service accepts it; the restored stream resumes its token.
  SnsService other = MakeService(0);
  serial::StringSource source2(bytes);
  auto restored = other.Restore(source2);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(other.AppliedSequence("s").value(),
            service.AppliedSequence("s").value());
}

TEST(ServiceDurabilityTest, EnableJournalTwiceFails) {
  const DataStream stream = SmallStream(90, 43);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kVec));
  SnsService service = MakeService(0);
  ASSERT_TRUE(service.CreateStream("s", {6, 5}, input.options).ok());
  const std::string dir = FreshDir("twice");
  ASSERT_TRUE(service.EnableJournal("s", dir).ok());
  EXPECT_EQ(service.EnableJournal("s", dir).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.EnableJournal("missing", dir).code(),
            StatusCode::kNotFound);
}

// --- Self-healing: quarantine + auto-recovery ------------------------------
// Faults are injected deterministically (common/failpoint.h), so the error
// paths below are ordinary unit tests: a journal append that fails
// mid-barrage, a torn write, a fault that never clears.

/// Every test starts and ends with a disarmed failpoint registry, so an
/// armed fault can never leak across tests.
class SelfHealingTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::DisarmAll(); }
  void TearDown() override { failpoint::DisarmAll(); }
};

/// Instant, reproducible recovery timing: no real sleeping, fixed jitter,
/// and (optionally) a recorded backoff schedule.
RecoveryPolicy TestPolicy(std::vector<int64_t>* backoffs = nullptr) {
  RecoveryPolicy policy;
  policy.jitter_seed = 7;
  policy.sleep_fn = [backoffs](int64_t backoff_ms) {
    if (backoffs != nullptr) backoffs->push_back(backoff_ms);
  };
  return policy;
}

/// Polls the supervisor surface until the stream is healthy again, for at
/// most 30 s. False on timeout.
bool WaitUntilHealthy(const SnsService& service, const std::string& name) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (service.Health(name).value().health != StreamHealth::kHealthy) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// IngestAsync that retries the documented submit-time refusal. A producer
/// racing a recovery on the owning shard can be refused by the health gate
/// with the retryable kUnavailable (api/stream_health.h). Such a ticket
/// completed at submit time with sequence 0: it consumed no token and
/// never entered the stream's order, so it is resubmitted once the stream
/// is healthy again, before any later batch. Every other outcome, any other
/// non-OK status included, is returned as is.
Ticket IngestAsyncRetryingRefusal(SnsService& service, const std::string& name,
                                  std::span<const Tuple> batch) {
  for (;;) {
    Ticket ticket = service.IngestAsync(name, batch);
    if (ticket.sequence() != 0 ||
        ticket.Wait().code() != StatusCode::kUnavailable ||
        !WaitUntilHealthy(service, name)) {
      return ticket;
    }
  }
}

/// Holds a recovery attempt on the owning shard (installed as
/// RecoveryPolicy::sleep_fn) until the test releases it.
class RecoveryGate {
 public:
  void Hold() {
    std::unique_lock<std::mutex> lock(mu_);
    held_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
  }

  /// True once a recovery is parked in Hold (false after 30 s).
  bool WaitUntilHeld() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(30),
                        [this] { return held_; });
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = false;      // Guarded by mu_.
  bool released_ = false;  // Guarded by mu_.
};

std::string ReadFileBytes(const std::string& path) {
  auto bytes = serial::ReadFileToString(path);
  SNS_CHECK(bytes.ok());
  return std::move(bytes).value();
}

// THE acceptance differential: inject a journal-append failure in the
// middle of an async barrage; the stream quarantines, auto-recovers on its
// owning shard, re-appends, and every ticket still lands OK — and the
// resumed factor state is bitwise identical to the uninterrupted run, for
// inline, one-shard, and multi-shard services. A batch submitted while the
// recovery is still running is refused with the retryable kUnavailable and
// resubmitted after the stream heals (IngestAsyncRetryingRefusal).
TEST_F(SelfHealingTest, InjectedAppendFailureHealsBitwise) {
  const DataStream stream = SmallStream(120, 61);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kVecPlus));
  const std::string reference = RunUninterrupted(input, /*shards=*/0);
  for (int shards : {0, 1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const std::string dir = FreshDir("heal_" + std::to_string(shards));
    const std::string ckpt = dir + ".ckpt";
    fs::remove(ckpt);
    SnsService service = MakeService(shards);
    ASSERT_TRUE(service.CreateStream("s", {6, 5}, input.options).ok());
    ASSERT_TRUE(service.EnableJournal("s", dir).ok());
    ASSERT_TRUE(service.CheckpointToFile("s", ckpt).ok());
    ASSERT_TRUE(service.EnableAutoRecovery("s", ckpt, TestPolicy()).ok());
    ASSERT_TRUE(service.Warmup("s", input.warmup).ok());
    ASSERT_TRUE(service.Initialize("s").ok());

    std::vector<Ticket> tickets;
    for (size_t i = 0; i < input.batches.size(); ++i) {
      if (i == input.batches.size() / 2) {
        ASSERT_TRUE(failpoint::Arm("journal.append", "once").ok());
      }
      tickets.push_back(
          IngestAsyncRetryingRefusal(service, "s", input.batches[i]));
    }
    for (Ticket& ticket : tickets) EXPECT_TRUE(ticket.Wait().ok());
    ASSERT_TRUE(service.AdvanceTo("s", input.horizon).ok());

    const StreamHealthInfo health = service.Health("s").value();
    EXPECT_EQ(health.health, StreamHealth::kHealthy);
    EXPECT_EQ(health.quarantine_count, 1u);
    EXPECT_EQ(health.recovery_attempts, 1u);
    EXPECT_EQ(health.recoveries_completed, 1u);
    EXPECT_EQ(health.last_error.code(), StatusCode::kIOError);

    EXPECT_EQ(CheckpointBytes(service, "s"), reference);

    // The healed journal is still a valid crash-recovery source: the
    // re-appended record continued the token sequence across the segment
    // the recovery opened, so checkpoint + journal rebuild the same state.
    SnsService recovered = MakeService(0);
    auto bytes = serial::ReadFileToString(ckpt);
    ASSERT_TRUE(bytes.ok());
    serial::StringSource source(bytes.value());
    auto report = durability::RecoverStream(recovered, source, dir);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(CheckpointBytes(recovered, "s"), reference);
  }
}

// The refusal the barrage above can race into, made deterministic: a gate
// in the recovery's sleep parks the owning shard mid-recovery while the
// producer submits. The submission is refused at submit time with the
// retryable kUnavailable and consumes no token; resubmitted after the
// stream heals, it lands, and the final state is bitwise the uninterrupted
// one.
TEST_F(SelfHealingTest, SubmitDuringRecoveryIsRefusedWithoutAToken) {
  const DataStream stream = SmallStream(120, 61);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kVecPlus));
  ASSERT_GE(input.batches.size(), 4u);
  const std::string reference = RunUninterrupted(input, /*shards=*/0);
  const std::string dir = FreshDir("heal_refused");
  const std::string ckpt = dir + ".ckpt";
  fs::remove(ckpt);
  const auto gate = std::make_shared<RecoveryGate>();
  RecoveryPolicy policy = TestPolicy();
  policy.sleep_fn = [gate](int64_t) { gate->Hold(); };

  SnsService service = MakeService(1);
  // Declared after the service, so it runs first on every exit path: the
  // shard must leave Hold before the service can drain and join it.
  struct ReleaseOnExit {
    std::shared_ptr<RecoveryGate> gate;
    ~ReleaseOnExit() { gate->Release(); }
  } release_on_exit{gate};
  ASSERT_TRUE(service.CreateStream("s", {6, 5}, input.options).ok());
  ASSERT_TRUE(service.EnableJournal("s", dir).ok());
  ASSERT_TRUE(service.CheckpointToFile("s", ckpt).ok());
  ASSERT_TRUE(service.EnableAutoRecovery("s", ckpt, policy).ok());
  ASSERT_TRUE(service.Warmup("s", input.warmup).ok());
  ASSERT_TRUE(service.Initialize("s").ok());
  const size_t fault = input.batches.size() / 2;
  for (size_t i = 0; i < fault; ++i) {
    ASSERT_TRUE(service.Ingest("s", input.batches[i]).ok());
  }

  ASSERT_TRUE(failpoint::Arm("journal.append", "once").ok());
  const Ticket failing = service.IngestAsync("s", input.batches[fault]);
  ASSERT_TRUE(gate->WaitUntilHeld());
  EXPECT_EQ(service.Health("s").value().health, StreamHealth::kRecovering);

  const Ticket refused = service.IngestAsync("s", input.batches[fault + 1]);
  ASSERT_TRUE(refused.done());
  EXPECT_EQ(refused.Wait().code(), StatusCode::kUnavailable);
  EXPECT_EQ(refused.sequence(), 0u);

  gate->Release();
  ASSERT_TRUE(failing.Wait().ok());
  EXPECT_EQ(service.Health("s").value().health, StreamHealth::kHealthy);
  // The refusal consumed no token: the resubmission takes the next one.
  const Ticket resubmitted =
      service.IngestAsync("s", input.batches[fault + 1]);
  ASSERT_TRUE(resubmitted.Wait().ok());
  EXPECT_EQ(resubmitted.sequence(), failing.sequence() + 1);
  for (size_t i = fault + 2; i < input.batches.size(); ++i) {
    ASSERT_TRUE(service.Ingest("s", input.batches[i]).ok());
  }
  ASSERT_TRUE(service.AdvanceTo("s", input.horizon).ok());

  const StreamHealthInfo health = service.Health("s").value();
  EXPECT_EQ(health.quarantine_count, 1u);
  EXPECT_EQ(health.recoveries_completed, 1u);
  EXPECT_EQ(CheckpointBytes(service, "s"), reference);
}

TEST_F(SelfHealingTest, TornWriteHealsBitwiseViaTailRepair) {
  const DataStream stream = SmallStream(110, 67);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kVec));
  const std::string reference = RunUninterrupted(input, /*shards=*/0);
  const std::string dir = FreshDir("heal_torn");
  const std::string ckpt = dir + ".ckpt";
  fs::remove(ckpt);
  SnsService service = MakeService(1);
  ASSERT_TRUE(service.CreateStream("s", {6, 5}, input.options).ok());
  ASSERT_TRUE(service.EnableJournal("s", dir).ok());
  ASSERT_TRUE(service.CheckpointToFile("s", ckpt).ok());
  ASSERT_TRUE(service.EnableAutoRecovery("s", ckpt, TestPolicy()).ok());
  ASSERT_TRUE(service.Warmup("s", input.warmup).ok());
  ASSERT_TRUE(service.Initialize("s").ok());
  for (size_t i = 0; i < input.batches.size(); ++i) {
    if (i == input.batches.size() / 2) {
      // The next journal write dies mid-record: half the bytes land on
      // disk — the torn-write shape, not a clean error. Recovery's replay
      // must truncate that tail before the retried append can land.
      ASSERT_TRUE(
          failpoint::Arm("serial.file_sink_short_write", "once").ok());
    }
    ASSERT_TRUE(service.Ingest("s", input.batches[i]).ok());
  }
  ASSERT_TRUE(service.AdvanceTo("s", input.horizon).ok());

  const StreamHealthInfo health = service.Health("s").value();
  EXPECT_EQ(health.health, StreamHealth::kHealthy);
  EXPECT_EQ(health.recoveries_completed, 1u);
  EXPECT_EQ(CheckpointBytes(service, "s"), reference);
}

// Recovery compares the live stream's bytes with checkpoint + journal
// replay, which never queries. A stream queried for its running fitness
// after every batch must therefore heal one failed append in one attempt.
TEST_F(SelfHealingTest, QueriedStreamHealsInOneAttempt) {
  const DataStream stream = SmallStream(120, 61);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kVecPlus));
  const std::string reference = RunUninterrupted(input, /*shards=*/0);
  const std::string dir = FreshDir("heal_queried");
  const std::string ckpt = dir + ".ckpt";
  fs::remove(ckpt);
  SnsService service = MakeService(1);
  ASSERT_TRUE(service.CreateStream("s", {6, 5}, input.options).ok());
  ASSERT_TRUE(service.EnableJournal("s", dir).ok());
  ASSERT_TRUE(service.CheckpointToFile("s", ckpt).ok());
  ASSERT_TRUE(service.EnableAutoRecovery("s", ckpt, TestPolicy()).ok());
  ASSERT_TRUE(service.Warmup("s", input.warmup).ok());
  ASSERT_TRUE(service.Initialize("s").ok());
  for (size_t i = 0; i < input.batches.size(); ++i) {
    if (i == input.batches.size() / 2) {
      ASSERT_TRUE(failpoint::Arm("journal.append", "once").ok());
    }
    ASSERT_TRUE(service.Ingest("s", input.batches[i]).ok());
    ASSERT_TRUE(service.RunningFitness("s").ok());
  }
  ASSERT_TRUE(service.AdvanceTo("s", input.horizon).ok());

  const StreamHealthInfo health = service.Health("s").value();
  EXPECT_EQ(health.health, StreamHealth::kHealthy);
  EXPECT_EQ(health.quarantine_count, 1u);
  EXPECT_EQ(health.recovery_attempts, 1u);
  EXPECT_EQ(health.recoveries_completed, 1u);
  EXPECT_EQ(CheckpointBytes(service, "s"), reference);
}

TEST_F(SelfHealingTest, ExhaustedRecoveryFailsPermanentlyButServesQueries) {
  const DataStream stream = SmallStream(100, 71);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kVec));
  const std::string dir = FreshDir("heal_exhausted");
  const std::string ckpt = dir + ".ckpt";
  fs::remove(ckpt);
  SnsService service = MakeService(1);
  ASSERT_TRUE(service.CreateStream("s", {6, 5}, input.options).ok());
  ASSERT_TRUE(service.EnableJournal("s", dir).ok());
  ASSERT_TRUE(service.CheckpointToFile("s", ckpt).ok());
  std::vector<int64_t> backoffs;
  RecoveryPolicy policy = TestPolicy(&backoffs);
  policy.max_attempts = 2;
  ASSERT_TRUE(service.EnableAutoRecovery("s", ckpt, policy).ok());
  ASSERT_TRUE(service.Warmup("s", input.warmup).ok());
  ASSERT_TRUE(service.Initialize("s").ok());
  ASSERT_TRUE(service.Ingest("s", input.batches[0]).ok());
  const double fitness_before = service.RunningFitness("s").value();

  // A fault that never clears: every append fails, including the retried
  // one after each otherwise-successful rebuild.
  ASSERT_TRUE(failpoint::Arm("journal.append", "after:0").ok());
  EXPECT_EQ(service.Ingest("s", input.batches[1]).code(),
            StatusCode::kIOError);

  const StreamHealthInfo health = service.Health("s").value();
  EXPECT_EQ(health.health, StreamHealth::kFailed);
  EXPECT_EQ(health.quarantine_count, 1u);
  EXPECT_EQ(health.recovery_attempts, 2u);
  EXPECT_EQ(health.recoveries_completed, 0u);
  EXPECT_EQ(health.last_error.code(), StatusCode::kIOError);
  // The retry loop followed the policy's jittered schedule exactly.
  ASSERT_EQ(backoffs.size(), 2u);
  EXPECT_EQ(backoffs[0], policy.BackoffMs(1));
  EXPECT_EQ(backoffs[1], policy.BackoffMs(2));
  EXPECT_GE(backoffs[1], backoffs[0]);  // Exponential, same jitter seed.

  // kFailed is terminal stream state, not the fault lingering: mutations
  // stay refused (typed) after the fault clears, through every entry point.
  failpoint::DisarmAll();
  EXPECT_EQ(service.Ingest("s", input.batches[1]).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(service.IngestAsync("s", input.batches[1]).Wait().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(service.AdvanceTo("s", input.horizon).code(),
            StatusCode::kDataLoss);
  // Queries keep serving the last-good state.
  EXPECT_EQ(service.RunningFitness("s").value(), fitness_before);
  EXPECT_TRUE(service.Stats("s").ok());
  EXPECT_TRUE(service.TopK("s", 0, 3).ok());
}

TEST_F(SelfHealingTest, QuarantineWithoutRecoveryConfigIsTerminal) {
  const DataStream stream = SmallStream(100, 73);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kVec));
  SnsService service = MakeService(0);
  ASSERT_TRUE(service.CreateStream("s", {6, 5}, input.options).ok());
  ASSERT_TRUE(
      service.EnableJournal("s", FreshDir("heal_unconfigured")).ok());
  ASSERT_TRUE(service.Warmup("s", input.warmup).ok());
  ASSERT_TRUE(service.Initialize("s").ok());

  ASSERT_TRUE(failpoint::Arm("journal.append", "once").ok());
  EXPECT_EQ(service.Ingest("s", input.batches[0]).code(),
            StatusCode::kIOError);

  // One transient fault, but no recovery config: the quarantine is
  // immediately terminal even though the fault never fires again.
  const StreamHealthInfo health = service.Health("s").value();
  EXPECT_EQ(health.health, StreamHealth::kFailed);
  EXPECT_EQ(health.quarantine_count, 1u);
  EXPECT_EQ(health.recovery_attempts, 0u);
  EXPECT_EQ(service.Ingest("s", input.batches[0]).code(),
            StatusCode::kDataLoss);
  EXPECT_TRUE(service.Stats("s").ok());
  // A failed stream cannot re-attach a journal; it must be rebuilt.
  EXPECT_EQ(service.EnableJournal("s", FreshDir("heal_reattach")).code(),
            StatusCode::kFailedPrecondition);
}

/// Records every health edge a stream's sinks observe.
struct RecordingHealthSink : EventSink {
  struct Edge {
    StreamHealth from;
    StreamHealth to;
    int attempt;
    StatusCode cause;
  };
  std::vector<Edge> edges;
  void OnStreamEvent(const StreamEvent&) override {}
  void OnHealthTransition(const HealthTransition& transition) override {
    edges.push_back({transition.from, transition.to, transition.attempt,
                     transition.cause.code()});
  }
};

TEST_F(SelfHealingTest, HealthTransitionsAreDeliveredToSinks) {
  const DataStream stream = SmallStream(100, 79);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kVec));
  const std::string dir = FreshDir("heal_sink");
  const std::string ckpt = dir + ".ckpt";
  fs::remove(ckpt);
  SnsService service = MakeService(0);
  ASSERT_TRUE(service.CreateStream("s", {6, 5}, input.options).ok());
  ASSERT_TRUE(service.EnableJournal("s", dir).ok());
  ASSERT_TRUE(service.CheckpointToFile("s", ckpt).ok());
  ASSERT_TRUE(service.EnableAutoRecovery("s", ckpt, TestPolicy()).ok());
  RecordingHealthSink sink;
  ASSERT_TRUE(service.Find("s")->AddSink(&sink).ok());
  ASSERT_TRUE(service.Warmup("s", input.warmup).ok());
  ASSERT_TRUE(service.Initialize("s").ok());

  ASSERT_TRUE(failpoint::Arm("journal.append", "once").ok());
  ASSERT_TRUE(service.Ingest("s", input.batches[0]).ok());  // Self-healed.

  // quarantine → attempt 1 → healed; the final edge arrives through the
  // REBUILT handle, proving subscriptions survive the recovery swap.
  ASSERT_EQ(sink.edges.size(), 3u);
  EXPECT_EQ(sink.edges[0].from, StreamHealth::kHealthy);
  EXPECT_EQ(sink.edges[0].to, StreamHealth::kQuarantined);
  EXPECT_EQ(sink.edges[0].attempt, 0);
  EXPECT_EQ(sink.edges[0].cause, StatusCode::kIOError);
  EXPECT_EQ(sink.edges[1].from, StreamHealth::kQuarantined);
  EXPECT_EQ(sink.edges[1].to, StreamHealth::kRecovering);
  EXPECT_EQ(sink.edges[1].attempt, 1);
  EXPECT_EQ(sink.edges[2].from, StreamHealth::kRecovering);
  EXPECT_EQ(sink.edges[2].to, StreamHealth::kHealthy);
  EXPECT_EQ(sink.edges[2].attempt, 1);
  EXPECT_EQ(sink.edges[2].cause, StatusCode::kOk);
}

TEST_F(SelfHealingTest, CheckpointToFileIsAtomicUnderRenameFailure) {
  const DataStream stream = SmallStream(100, 83);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kVec));
  SnsService service = MakeService(0);
  ASSERT_TRUE(service.CreateStream("s", {6, 5}, input.options).ok());
  ASSERT_TRUE(service.Warmup("s", input.warmup).ok());
  const std::string path = FreshDir("ckpt_atomic") + ".ckpt";
  fs::remove(path);
  fs::remove(path + ".tmp");
  ASSERT_TRUE(service.CheckpointToFile("s", path).ok());
  const std::string before = ReadFileBytes(path);
  EXPECT_EQ(before, CheckpointBytes(service, "s"));

  ASSERT_TRUE(service.Initialize("s").ok());
  ASSERT_TRUE(failpoint::Arm("checkpoint.rename", "once").ok());
  EXPECT_EQ(service.CheckpointToFile("s", path).code(), StatusCode::kIOError);
  // The failed checkpoint neither clobbered the good one nor left a temp.
  EXPECT_EQ(ReadFileBytes(path), before);
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  ASSERT_TRUE(service.CheckpointToFile("s", path).ok());
  EXPECT_EQ(ReadFileBytes(path), CheckpointBytes(service, "s"));
}

TEST_F(SelfHealingTest, EnableAutoRecoveryValidatesItsPreconditions) {
  const DataStream stream = SmallStream(100, 89);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kVec));
  SnsService service = MakeService(0);
  ASSERT_TRUE(service.CreateStream("s", {6, 5}, input.options).ok());
  const std::string dir = FreshDir("heal_preconditions");
  const std::string ckpt = dir + ".ckpt";
  fs::remove(ckpt);

  EXPECT_EQ(service.EnableAutoRecovery("missing", ckpt).code(),
            StatusCode::kNotFound);
  // Journal first: recovery replays checkpoint + journal.
  EXPECT_EQ(service.EnableAutoRecovery("s", ckpt).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(service.EnableJournal("s", dir).ok());
  RecoveryPolicy zero;
  zero.max_attempts = 0;
  EXPECT_EQ(service.EnableAutoRecovery("s", ckpt, zero).code(),
            StatusCode::kInvalidArgument);
  // A checkpoint that does not exist is caught here, not mid-incident.
  EXPECT_FALSE(service.EnableAutoRecovery("s", ckpt).ok());
  ASSERT_TRUE(service.CheckpointToFile("s", ckpt).ok());
  EXPECT_TRUE(service.EnableAutoRecovery("s", ckpt).ok());
}

TEST_F(SelfHealingTest, RecoverHandleRebuildsBitwiseWithoutAService) {
  const DataStream stream = SmallStream(110, 97);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kVecPlus));
  const std::string dir = FreshDir("recover_handle");
  std::string saved;
  std::string final_bytes;
  uint64_t saved_seq = 0;
  uint64_t final_seq = 0;
  {
    SnsService service = MakeService(0);
    SNS_CHECK(service.CreateStream("s", {6, 5}, input.options).ok());
    SNS_CHECK(service.EnableJournal("s", dir).ok());
    SNS_CHECK(service.Warmup("s", input.warmup).ok());
    SNS_CHECK(service.Initialize("s").ok());
    SNS_CHECK(service.Ingest("s", input.batches[0]).ok());
    saved = CheckpointBytes(service, "s");
    saved_seq = service.AppliedSequence("s").value();
    SNS_CHECK(service.Ingest("s", input.batches[1]).ok());
    SNS_CHECK(service.Ingest("s", input.batches[2]).ok());
    final_bytes = CheckpointBytes(service, "s");
    final_seq = service.AppliedSequence("s").value();
  }
  serial::StringSource source(saved);
  auto recovered = durability::RecoverHandle(source, dir);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().report.checkpoint_sequence, saved_seq);
  EXPECT_EQ(recovered.value().report.last_sequence, final_seq);
  EXPECT_EQ(recovered.value().report.records_replayed, final_seq - saved_seq);
  EXPECT_FALSE(recovered.value().report.torn_tail);
  serial::StringSink sink;
  ASSERT_TRUE(durability::WriteStreamCheckpoint(recovered.value().handle,
                                                final_seq, sink)
                  .ok());
  EXPECT_EQ(sink.data(), final_bytes);
}

TEST_F(SelfHealingTest, HostileInputIsRefusedBeforeJournaling) {
  const DataStream stream = SmallStream(100, 101);
  const ProtocolInput input =
      MakeProtocol(stream, SmallEngineOptions(SnsVariant::kVec));
  const std::string dir = FreshDir("admission");
  SnsService service = MakeService(0);
  ASSERT_TRUE(service.CreateStream("s", {6, 5}, input.options).ok());
  ASSERT_TRUE(service.EnableJournal("s", dir).ok());
  const std::string saved = CheckpointBytes(service, "s");
  ASSERT_TRUE(service.Warmup("s", input.warmup).ok());
  ASSERT_TRUE(service.Initialize("s").ok());
  ASSERT_TRUE(service.Ingest("s", input.batches[0]).ok());
  const uint64_t seq = service.AppliedSequence("s").value();

  // NaN, infinity, out-of-range and wrong-arity coordinates: refused with
  // kInvalidArgument at admission — before a token is issued — through
  // both the sync and the ticketed entry points.
  const std::vector<Tuple> nan_batch = {
      {{1, 1}, std::numeric_limits<double>::quiet_NaN(), 95}};
  const std::vector<Tuple> inf_batch = {
      {{1, 1}, std::numeric_limits<double>::infinity(), 95}};
  const std::vector<Tuple> range_batch = {{{6, 0}, 1.0, 95}};
  const std::vector<Tuple> arity_batch = {{{1, 1, 1}, 1.0, 95}};
  for (const auto& batch : {nan_batch, inf_batch, range_batch, arity_batch}) {
    EXPECT_EQ(service.Ingest("s", batch).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(service.IngestAsync("s", batch).Wait().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(service.Warmup("s", batch).code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(service.AppliedSequence("s").value(), seq);

  // Nothing hostile reached the journal: replay rebuilds the live state
  // from exactly the acknowledged records, with no mirrored failures.
  serial::StringSource source(saved);
  auto recovered = durability::RecoverHandle(source, dir);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().report.records_replayed, seq);
  EXPECT_EQ(recovered.value().report.mirrored_failures, 0u);
  serial::StringSink sink;
  ASSERT_TRUE(durability::WriteStreamCheckpoint(recovered.value().handle,
                                                seq, sink)
                  .ok());
  EXPECT_EQ(sink.data(), CheckpointBytes(service, "s"));
}

}  // namespace
}  // namespace sns
