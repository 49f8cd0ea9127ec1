// Versioned, checksummed stream checkpoints: the first half of the
// durability contract (durability/journal.h is the second).
//
// A checkpoint is one self-describing byte envelope holding the complete
// deterministic state of a stream — schema, options, window tensor layout,
// event schedule, factors, λ, Grams, fitness accumulators, RNG engines, and
// the stream's per-operation sequence token. Restoring it yields a stream
// whose future trajectory is bitwise identical to the original's, so
// checkpoint + journal-suffix replay reproduces an uninterrupted run
// exactly (pinned by tests/durability_test.cpp).
//
// Envelope layout (common/serial.h little-endian encoding):
//
//   [u32 magic][u32 version][u64 payload_size][payload][u32 crc32(payload)]
//
// where payload = [u64 sequence][StreamHandle::SerializeState bytes]. The
// sequence token lives INSIDE the checksummed payload: a flipped byte there
// must surface as kDataLoss, never silently misalign journal replay.
//
// Failure taxonomy: wrong magic → kInvalidArgument (not a checkpoint at
// all); version from a different format generation → kFailedPrecondition;
// truncation, CRC mismatch, or a payload that decodes inconsistently →
// kDataLoss. Restores never crash on corrupt input.

#ifndef SLICENSTITCH_DURABILITY_CHECKPOINT_H_
#define SLICENSTITCH_DURABILITY_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "api/stream_handle.h"
#include "common/serial.h"
#include "common/status.h"

namespace sns {

class SnsService;

namespace durability {

inline constexpr uint32_t kCheckpointMagic = 0x50434E53;  // "SNCP"
/// Envelope versions this build writes and reads. Version 1 is the original
/// Gaussian-only payload; version 2 appends the loss/robust configuration
/// and the engine's loss section. Streams on the Gaussian non-robust
/// default keep writing version 1 — byte-identical to pre-loss builds — so
/// a version-2 envelope is itself proof that non-Gaussian or robust state
/// was active. Readers accept both; anything newer fails with
/// kFailedPrecondition rather than guessing at the payload layout.
inline constexpr uint32_t kCheckpointVersion = 1;
inline constexpr uint32_t kCheckpointVersionLoss = 2;

/// Failure codes a replayed request may legitimately reproduce: the journal
/// records every acknowledged request, including ones the stream rejected,
/// and deterministic validation rejects them identically on replay. Any
/// other code during replay means the journal and the stream disagree.
bool IsMirroredFailure(StatusCode code);

/// Appends one checkpoint envelope of `handle` (with its per-stream
/// sequence token) to `sink`. The bytes are deterministic: equal stream
/// state and sequence always produce equal envelopes.
Status WriteStreamCheckpoint(const StreamHandle& handle, uint64_t sequence,
                             serial::StringSink& sink);

/// A decoded checkpoint: the rebuilt stream plus the sequence token of the
/// last ticketed operation it reflects (0 for standalone-handle
/// checkpoints). Journal records with sequence > this are the replay
/// suffix.
struct RestoredStream {
  StreamHandle handle;
  uint64_t sequence = 0;
};

/// Decodes one checkpoint envelope from `source`, checksumming and decoding
/// the payload in place. See the failure taxonomy above; a payload size
/// past the bytes present is kDataLoss before anything is allocated. On
/// any error the source's read position is unspecified.
StatusOr<RestoredStream> ReadStreamCheckpoint(serial::StringSource& source);

/// Outcome of a successful RecoverStream.
struct RecoveryReport {
  uint64_t checkpoint_sequence = 0;  // Token the checkpoint reflects.
  uint64_t records_replayed = 0;     // Journal records re-applied.
  /// Replayed operations that failed with the same benign validation error
  /// they failed with originally (the journal records requests, not
  /// outcomes, so failed requests are replayed and must fail again).
  uint64_t mirrored_failures = 0;
  uint64_t last_sequence = 0;        // Stream token after recovery.
  bool torn_tail = false;            // Journal ended in a torn record.
};

/// Full crash recovery: rebuilds the stream from the checkpoint and the
/// journal suffix in `journal_directory` (RecoverHandle), so it ends
/// bitwise identical to the uninterrupted original, then registers it in
/// `service` under its serialized name with its sequence token at
/// report.last_sequence. Call before EnableJournal; on error nothing is
/// registered.
StatusOr<RecoveryReport> RecoverStream(SnsService& service,
                                       serial::StringSource& checkpoint,
                                       const std::string& journal_directory);

/// A stream rebuilt outside any service: checkpoint + journal-suffix replay
/// applied directly to a standalone StreamHandle. The handle carries no
/// sequence counter of its own, so the final token lives in the report.
struct RecoveredHandle {
  StreamHandle handle;
  RecoveryReport report;
};

/// Standalone-handle form of RecoverStream: decodes the checkpoint, replays
/// the journal suffix through the handle's own entry points (mirrored
/// failures tolerated, torn tail truncated), and returns the rebuilt handle
/// plus the replay report. This is the primitive stream auto-recovery runs
/// on the owning shard — no service registration, no ticket issue, no
/// cross-shard hop.
StatusOr<RecoveredHandle> RecoverHandle(serial::StringSource& checkpoint,
                                        const std::string& journal_directory);

}  // namespace durability
}  // namespace sns

#endif  // SLICENSTITCH_DURABILITY_CHECKPOINT_H_
