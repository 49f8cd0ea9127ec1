#include "durability/checkpoint.h"

#include <utility>

#include "api/sns_service.h"
#include "common/crc32.h"
#include "common/failpoint.h"
#include "durability/journal.h"

namespace sns {
namespace durability {
bool IsMirroredFailure(StatusCode code) {
  return code == StatusCode::kInvalidArgument ||
         code == StatusCode::kOutOfRange ||
         code == StatusCode::kFailedPrecondition ||
         code == StatusCode::kNotFound;
}

Status WriteStreamCheckpoint(const StreamHandle& handle, uint64_t sequence,
                             serial::StringSink& sink) {
  if (SNS_FAILPOINT("checkpoint.write")) {
    return failpoint::InjectedFailure("checkpoint.write");
  }
  // The envelope is framed in the sink's own string: the payload size and
  // CRC are patched in after the payload is encoded.
  std::string& out = *sink.mutable_data();
  const size_t start = out.size();
  serial::Writer w(sink);
  w.U32(kCheckpointMagic);
  w.U32(handle.UsesExtendedState() ? kCheckpointVersionLoss
                                   : kCheckpointVersion);
  w.U64(0);  // Payload size, patched below.
  w.U64(sequence);
  const Status encoded = handle.SerializeState(w);
  if (!encoded.ok()) {
    out.resize(start);
    return encoded;
  }
  const size_t payload = start + 16;
  const uint64_t payload_size = out.size() - payload;
  for (int i = 0; i < 8; ++i) {
    out[start + 8 + i] = static_cast<char>(payload_size >> (8 * i));
  }
  w.U32(Crc32(out.data() + payload, payload_size));
  return Status::OK();
}

StatusOr<RestoredStream> ReadStreamCheckpoint(serial::StringSource& source) {
  serial::Reader envelope(source);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t payload_size = 0;
  SNS_RETURN_IF_ERROR(envelope.U32(&magic));
  if (magic != kCheckpointMagic) {
    return Status::InvalidArgument(
        "not a stream checkpoint (bad magic number)");
  }
  SNS_RETURN_IF_ERROR(envelope.U32(&version));
  if (version != kCheckpointVersion && version != kCheckpointVersionLoss) {
    return Status::FailedPrecondition(
        "checkpoint has format version " + std::to_string(version) +
        "; this build reads versions " + std::to_string(kCheckpointVersion) +
        " and " + std::to_string(kCheckpointVersionLoss));
  }
  SNS_RETURN_IF_ERROR(envelope.U64(&payload_size));
  // The payload is checksummed and decoded where it lies in the source; a
  // size past the bytes present is kDataLoss here, before any allocation.
  std::string_view bytes;
  SNS_RETURN_IF_ERROR(envelope.View(payload_size, &bytes));
  uint32_t crc = 0;
  SNS_RETURN_IF_ERROR(envelope.U32(&crc));
  if (Crc32(bytes.data(), bytes.size()) != crc) {
    return Status::DataLoss("checkpoint payload CRC mismatch");
  }

  serial::StringSource payload_source(bytes);
  serial::Reader payload(payload_source);
  uint64_t sequence = 0;
  SNS_RETURN_IF_ERROR(payload.U64(&sequence));
  auto handle = StreamHandle::DeserializeState(payload, version);
  if (!handle.ok()) return handle.status();
  if (payload_source.remaining() != 0) {
    return Status::DataLoss("checkpoint payload carries trailing bytes");
  }
  return RestoredStream{std::move(handle).value(), sequence};
}

StatusOr<RecoveryReport> RecoverStream(SnsService& service,
                                       serial::StringSource& checkpoint,
                                       const std::string& journal_directory) {
  if (service.registry_->shutdown.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("service is shut down");
  }
  auto recovered = RecoverHandle(checkpoint, journal_directory);
  if (!recovered.ok()) return recovered.status();
  const RecoveryReport report = recovered.value().report;
  auto registered = service.Register(std::move(recovered).value().handle,
                                     report.last_sequence);
  if (!registered.ok()) return registered.status();
  return report;
}

StatusOr<RecoveredHandle> RecoverHandle(serial::StringSource& checkpoint,
                                        const std::string& journal_directory) {
  auto restored = ReadStreamCheckpoint(checkpoint);
  if (!restored.ok()) return restored.status();

  const uint64_t checkpoint_sequence = restored.value().sequence;
  RecoveredHandle out{std::move(restored).value().handle, RecoveryReport{}};
  out.report.checkpoint_sequence = checkpoint_sequence;

  StreamHandle* handle = &out.handle;
  RecoveryReport* report = &out.report;
  auto stats = ReplayJournal(
      journal_directory, out.report.checkpoint_sequence,
      [handle, report](const JournalRecord& record) {
        Status status;
        switch (record.op) {
          case JournalOpType::kWarmup:
            status = handle->Warmup(record.tuples);
            break;
          case JournalOpType::kInitialize:
            status = handle->Initialize();
            break;
          case JournalOpType::kIngest:
            status = handle->Ingest(std::span<const Tuple>(record.tuples));
            break;
          case JournalOpType::kAdvanceTo:
            status = handle->AdvanceTo(record.time);
            break;
        }
        if (!status.ok()) {
          if (!IsMirroredFailure(status.code())) return status;
          ++report->mirrored_failures;
        }
        return Status::OK();
      });
  if (!stats.ok()) return stats.status();
  out.report.records_replayed = stats.value().records_applied;
  out.report.torn_tail = stats.value().torn_tail;
  out.report.last_sequence =
      out.report.checkpoint_sequence + stats.value().records_applied;
  return out;
}

}  // namespace durability
}  // namespace sns
