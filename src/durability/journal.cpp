#include "durability/journal.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string_view>
#include <utility>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "tensor/mode_index.h"

namespace sns {
namespace durability {
namespace {

namespace fs = std::filesystem;

constexpr size_t kSegmentHeaderBytes = 12;  // u64 magic + u32 version.
constexpr size_t kRecordFrameBytes = 8;     // u32 size + u32 crc.
constexpr uint32_t kMaxRecordBytes = 64u << 20;

std::string SegmentFileName(int64_t number) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%08lld.seg",
                static_cast<long long>(number));
  return name;
}

/// Segment number of a `wal-NNNNNNNN.seg` file name, or -1.
int64_t ParseSegmentNumber(std::string_view name) {
  constexpr std::string_view prefix = "wal-";
  constexpr std::string_view suffix = ".seg";
  if (name.size() <= prefix.size() + suffix.size() ||
      name.substr(0, prefix.size()) != prefix ||
      name.substr(name.size() - suffix.size()) != suffix) {
    return -1;
  }
  const std::string_view digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  int64_t number = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return -1;
    number = number * 10 + (c - '0');
  }
  return number;
}

/// One record frame, [u32 payload_size][u32 crc32(payload)][payload], in
/// one string: the size and CRC are patched in after the payload is encoded.
std::string EncodeFrame(uint64_t sequence, JournalOpType op, int64_t time,
                        std::span<const Tuple> tuples) {
  serial::StringSink frame;
  size_t bytes = kRecordFrameBytes + 8 + 1 + 8 + 8;
  for (const Tuple& tuple : tuples) {
    bytes += 4 + 4 * static_cast<size_t>(tuple.index.size()) + 8 + 8;
  }
  frame.mutable_data()->reserve(bytes);
  serial::Writer w(frame);
  w.U64(0);  // Payload size and CRC, patched below.
  w.U64(sequence);
  w.U8(static_cast<uint8_t>(op));
  w.I64(time);
  w.U64(tuples.size());
  for (const Tuple& tuple : tuples) {
    w.U32(static_cast<uint32_t>(tuple.index.size()));
    for (int m = 0; m < tuple.index.size(); ++m) w.I32(tuple.index[m]);
    w.F64(tuple.value);
    w.I64(tuple.time);
  }
  std::string out = frame.TakeData();
  const size_t payload_size = out.size() - kRecordFrameBytes;
  const uint32_t size_field = static_cast<uint32_t>(payload_size);
  const uint32_t crc = Crc32(out.data() + kRecordFrameBytes, payload_size);
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<char>(size_field >> (8 * i));
    out[4 + i] = static_cast<char>(crc >> (8 * i));
  }
  return out;
}

/// Removes the torn tail of the final segment from disk. A later
/// JournalWriter::Open starts a fresh, higher-numbered segment, so a torn
/// tail left in place would sit at the end of a non-last segment forever and
/// turn every subsequent replay into kDataLoss. Truncating is safe: the torn
/// record was never acknowledged. A segment too short to hold even its
/// header (a crash during segment creation — the header is flushed before
/// any record) is removed whole.
Status RepairTornTail(const std::string& path, size_t intact_bytes) {
  std::error_code ec;
  if (intact_bytes < kSegmentHeaderBytes) {
    fs::remove(path, ec);
  } else {
    fs::resize_file(path, intact_bytes, ec);
  }
  if (ec) {
    return Status::IOError("cannot truncate torn tail of journal segment '" +
                           path + "': " + ec.message());
  }
  return Status::OK();
}

StatusOr<JournalRecord> DecodeRecord(std::string_view payload) {
  serial::StringSource source(payload);
  serial::Reader r(source);
  JournalRecord record;
  SNS_RETURN_IF_ERROR(r.U64(&record.sequence));
  uint8_t op = 0;
  SNS_RETURN_IF_ERROR(r.U8(&op));
  if (op < static_cast<uint8_t>(JournalOpType::kWarmup) ||
      op > static_cast<uint8_t>(JournalOpType::kAdvanceTo)) {
    return Status::DataLoss("journal record has unknown op " +
                            std::to_string(op));
  }
  record.op = static_cast<JournalOpType>(op);
  SNS_RETURN_IF_ERROR(r.I64(&record.time));
  uint64_t count = 0;
  SNS_RETURN_IF_ERROR(r.U64(&count));
  if (count > payload.size()) {  // Every tuple takes > 1 payload byte.
    return Status::DataLoss("journal record tuple count is implausible");
  }
  record.tuples.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    Tuple tuple;
    uint32_t arity = 0;
    SNS_RETURN_IF_ERROR(r.U32(&arity));
    if (arity > static_cast<uint32_t>(kMaxTensorModes)) {
      return Status::DataLoss("journal tuple arity is implausible");
    }
    for (uint32_t m = 0; m < arity; ++m) {
      int32_t c = 0;
      SNS_RETURN_IF_ERROR(r.I32(&c));
      tuple.index.PushBack(c);
    }
    SNS_RETURN_IF_ERROR(r.F64(&tuple.value));
    SNS_RETURN_IF_ERROR(r.I64(&tuple.time));
    record.tuples.push_back(std::move(tuple));
  }
  if (source.remaining() != 0) {
    return Status::DataLoss("journal record carries trailing bytes");
  }
  return record;
}

}  // namespace

StatusOr<std::unique_ptr<JournalWriter>> JournalWriter::Open(
    const std::string& directory, const JournalOptions& options) {
  if (options.max_segment_bytes < 1) {
    return Status::InvalidArgument("max_segment_bytes must be >= 1");
  }
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) {
    return Status::IOError("cannot create journal directory '" + directory +
                           "': " + ec.message());
  }
  int64_t max_segment = 0;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    max_segment = std::max(
        max_segment, ParseSegmentNumber(entry.path().filename().string()));
  }
  if (ec) {
    return Status::IOError("cannot list journal directory '" + directory +
                           "': " + ec.message());
  }
  std::unique_ptr<JournalWriter> writer(
      new JournalWriter(directory, options, max_segment + 1));
  SNS_RETURN_IF_ERROR(writer->OpenNextSegment());
  return writer;
}

JournalWriter::~JournalWriter() = default;

Status JournalWriter::OpenNextSegment() {
  if (SNS_FAILPOINT("journal.rotate")) {
    return failpoint::InjectedFailure("journal.rotate");
  }
  auto sink = serial::FileSink::Open(directory_ + "/" +
                                     SegmentFileName(next_segment_));
  if (!sink.ok()) return sink.status();
  segment_ =
      std::make_unique<serial::FileSink>(std::move(sink).value());
  serial::StringSink header;
  serial::Writer w(header);
  w.U64(kJournalMagic);
  w.U32(kJournalVersion);
  SNS_RETURN_IF_ERROR(
      segment_->Write(header.data().data(), header.data().size()));
  SNS_RETURN_IF_ERROR(segment_->Flush());
  segment_bytes_ = static_cast<int64_t>(kSegmentHeaderBytes);
  ++next_segment_;
  ++segments_opened_;
  return Status::OK();
}

Status JournalWriter::Append(uint64_t sequence, JournalOpType op,
                             int64_t time, std::span<const Tuple> tuples) {
  if (segment_ == nullptr) {
    return Status::FailedPrecondition("journal writer is not open");
  }
  // Clean append failure: nothing reaches the segment (contrast with the
  // torn-write shape injected at "serial.file_sink_short_write").
  if (SNS_FAILPOINT("journal.append")) {
    return failpoint::InjectedFailure("journal.append");
  }
  const std::string frame = EncodeFrame(sequence, op, time, tuples);
  if (frame.size() - kRecordFrameBytes > kMaxRecordBytes) {
    return Status::InvalidArgument("journal record exceeds the 64 MiB cap");
  }
  const int64_t frame_bytes = static_cast<int64_t>(frame.size());
  if (segment_bytes_ > static_cast<int64_t>(kSegmentHeaderBytes) &&
      segment_bytes_ + frame_bytes > options_.max_segment_bytes) {
    SNS_RETURN_IF_ERROR(OpenNextSegment());
  }
  SNS_RETURN_IF_ERROR(segment_->Write(frame.data(), frame.size()));
  // Write-ahead flush: the record must reach the OS before the operation is
  // applied and acknowledged, or a process crash could lose an acked op.
  SNS_RETURN_IF_ERROR(segment_->Flush(options_.sync_each_record));
  segment_bytes_ += frame_bytes;
  bytes_appended_ += frame_bytes;
  return Status::OK();
}

StatusOr<ReplayStats> ReplayJournal(
    const std::string& directory, uint64_t after_sequence,
    const std::function<Status(const JournalRecord&)>& apply) {
  ReplayStats stats;
  std::error_code ec;
  if (!fs::exists(directory, ec) || ec) return stats;  // No journal: empty.
  std::vector<std::pair<int64_t, std::string>> segments;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    const int64_t number =
        ParseSegmentNumber(entry.path().filename().string());
    if (number >= 0) segments.emplace_back(number, entry.path().string());
  }
  if (ec) {
    return Status::IOError("cannot list journal directory '" + directory +
                           "': " + ec.message());
  }
  std::sort(segments.begin(), segments.end());

  uint64_t prev_sequence = 0;
  for (size_t s = 0; s < segments.size(); ++s) {
    const bool last_segment = s + 1 == segments.size();
    const std::string& path = segments[s].second;
    auto contents = serial::ReadFileToString(path);
    if (!contents.ok()) return contents.status();
    const std::string& data = contents.value();

    // Header. A short header can only be the torn creation of the final
    // segment (no record was ever acked into it); anywhere else it is loss.
    if (data.size() < kSegmentHeaderBytes) {
      if (last_segment) {
        SNS_RETURN_IF_ERROR(RepairTornTail(path, 0));
        stats.torn_tail = true;
        break;
      }
      return Status::DataLoss("journal segment '" + path + "' is truncated");
    }
    serial::StringSource header_source(
        std::string_view(data).substr(0, kSegmentHeaderBytes));
    serial::Reader header(header_source);
    uint64_t magic = 0;
    uint32_t version = 0;
    SNS_RETURN_IF_ERROR(header.U64(&magic));
    SNS_RETURN_IF_ERROR(header.U32(&version));
    if (magic != kJournalMagic) {
      return Status::DataLoss("'" + path + "' is not a journal segment");
    }
    if (version != kJournalVersion) {
      return Status::FailedPrecondition(
          "journal segment '" + path + "' has format version " +
          std::to_string(version) + "; this build reads version " +
          std::to_string(kJournalVersion));
    }

    size_t pos = kSegmentHeaderBytes;
    while (pos < data.size()) {
      const size_t remaining = data.size() - pos;
      // A record cut short by a crash is recoverable only as the very last
      // thing in the journal: it was still unacknowledged. The same short
      // read with records after it means acknowledged data is gone.
      uint32_t size = 0;
      uint32_t crc = 0;
      bool torn = remaining < kRecordFrameBytes;
      if (!torn) {
        serial::StringSource frame_source(
            std::string_view(data).substr(pos, kRecordFrameBytes));
        serial::Reader frame(frame_source);
        SNS_RETURN_IF_ERROR(frame.U32(&size));
        SNS_RETURN_IF_ERROR(frame.U32(&crc));
        torn = remaining - kRecordFrameBytes < size;
      }
      if (torn) {
        if (last_segment) {
          SNS_RETURN_IF_ERROR(RepairTornTail(path, pos));
          stats.torn_tail = true;
          break;
        }
        return Status::DataLoss("journal segment '" + path +
                                "' has a truncated record before its end");
      }
      if (size > kMaxRecordBytes) {
        return Status::DataLoss("journal segment '" + path +
                                "' frames an implausible record size");
      }
      const std::string_view payload =
          std::string_view(data).substr(pos + kRecordFrameBytes, size);
      if (Crc32(payload.data(), payload.size()) != crc) {
        return Status::DataLoss("journal record CRC mismatch in '" + path +
                                "' at offset " + std::to_string(pos));
      }
      auto record = DecodeRecord(payload);
      if (!record.ok()) return record.status();
      const JournalRecord& rec = record.value();
      if (rec.sequence == 0 ||
          (prev_sequence != 0 && rec.sequence != prev_sequence + 1)) {
        return Status::DataLoss(
            "journal sequence gap: record " + std::to_string(rec.sequence) +
            " follows " + std::to_string(prev_sequence));
      }
      prev_sequence = rec.sequence;
      ++stats.records_seen;
      stats.last_sequence = rec.sequence;
      if (rec.sequence > after_sequence) {
        if (stats.records_applied == 0 &&
            rec.sequence != after_sequence + 1) {
          return Status::DataLoss(
              "journal does not cover the checkpoint boundary: first record "
              "past sequence " + std::to_string(after_sequence) + " is " +
              std::to_string(rec.sequence));
        }
        SNS_RETURN_IF_ERROR(apply(rec));
        ++stats.records_applied;
      }
      pos += kRecordFrameBytes + size;
    }
    if (stats.torn_tail) break;
  }
  return stats;
}

}  // namespace durability
}  // namespace sns
