// In-memory serialization primitives for the durability layer.
//
// Every encode is a Writer appending to a StringSink's string, and every
// decode is a Reader over a StringSource byte range, both in fixed
// little-endian fields. Checkpoints and journal records are byte
// strings built with Writer, checksummed whole (common/crc32.h), and framed
// by their container (durability/checkpoint.h, durability/journal.h); files
// are read whole (ReadFileToString) and written through FileSink. Nothing
// here depends on the tensor or service layers.
//
// Encoding contract: all integers little-endian fixed width, doubles as the
// little-endian bytes of their IEEE-754 bit pattern, strings as u64 length +
// raw bytes. There is no padding, alignment or framing between fields. The
// layout is byte-for-byte deterministic — equal state always serializes to
// equal bytes, which is what lets the durability tests compare whole
// checkpoints bitwise — and it is the same on every host. A Writer appends
// each field straight into the string; a Reader decodes each field straight
// from the range, and a field longer than the bytes left is kDataLoss. A
// length read from the bytes (Str, View) is checked against the bytes left
// before anything is allocated or copied.

#ifndef SLICENSTITCH_COMMON_SERIAL_H_
#define SLICENSTITCH_COMMON_SERIAL_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/status.h"

namespace sns {
namespace serial {

/// Encoder output: an owned std::string that Writer appends to.
class StringSink {
 public:
  const std::string& data() const { return data_; }
  /// The accumulated bytes, for encoders that patch a field after the
  /// fact (a length or checksum) or frame their output in place.
  std::string* mutable_data() { return &data_; }
  std::string TakeData() { return std::move(data_); }

 private:
  std::string data_;
};

/// Decoder input: a borrowed byte range (must outlive the source) and a
/// read position in it, advanced by Reader.
class StringSource {
 public:
  explicit StringSource(std::string_view data) : data_(data) {}
  size_t remaining() const { return data_.size() - pos_; }

 private:
  friend class Reader;

  std::string_view data_;
  size_t pos_ = 0;
};

/// Sink writing a file via stdio. Move-only; flushes and closes on
/// destruction (errors at that point are lost — call Close() to observe
/// them).
class FileSink {
 public:
  /// Opens (truncating) `path` for binary writing.
  static StatusOr<FileSink> Open(const std::string& path);

  FileSink(FileSink&& other) noexcept { *this = std::move(other); }
  FileSink& operator=(FileSink&& other) noexcept;
  ~FileSink();

  Status Write(const void* data, size_t size);

  /// Flushes stdio buffers to the OS; with `sync_to_disk` also fsyncs.
  Status Flush(bool sync_to_disk = false);

  /// Flushes and closes. Idempotent.
  Status Close();

 private:
  FileSink(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}

  std::FILE* file_ = nullptr;
  std::string path_;
};

/// Whole-file forms: every file this library reads (checkpoints, journal
/// segments) is read whole and decoded from memory.
StatusOr<std::string> ReadFileToString(const std::string& path);
Status WriteStringToFile(const std::string& path, std::string_view data);

/// Little-endian primitive encoder appending to a StringSink's string.
class Writer {
 public:
  explicit Writer(StringSink& sink) : out_(sink.mutable_data()) {}

  void U8(uint8_t v) { Fixed<1>(v); }
  void U32(uint32_t v) { Fixed<4>(v); }
  void U64(uint64_t v) { Fixed<8>(v); }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  void Bytes(const void* data, size_t size) {
    out_->append(static_cast<const char*>(data), size);
  }
  /// u64 length + raw bytes.
  void Str(std::string_view s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }

  /// Bytes in the sink's string.
  size_t size() const { return out_->size(); }
  /// Makes room for `bytes` more without regrowing the string.
  void Reserve(size_t bytes) { out_->reserve(out_->size() + bytes); }

  /// Always OK: appending to a string cannot fail. Encoders return it so
  /// that a composed record is checked the same way at every call site.
  Status status() const { return Status::OK(); }

 private:
  template <size_t N>
  void Fixed(uint64_t v) {
    char b[N];
    for (size_t i = 0; i < N; ++i) b[i] = static_cast<char>(v >> (8 * i));
    Bytes(b, N);
  }

  std::string* out_;
};

/// Little-endian primitive decoder over a StringSource. A field that is
/// there is decoded inline; one longer than the bytes left fails with
/// kDataLoss. The first error sticks and every later accessor fails fast,
/// so decode sequences need only one status check per record.
class Reader {
 public:
  explicit Reader(StringSource& source) : source_(&source) {}

  Status U8(uint8_t* v) { return Fixed<1>(v); }
  Status U32(uint32_t* v) { return Fixed<4>(v); }
  Status U64(uint64_t* v) { return Fixed<8>(v); }
  Status I32(int32_t* v) { return Fixed<4>(v); }
  Status I64(int64_t* v) { return Fixed<8>(v); }
  Status F64(double* v) {
    uint64_t u = 0;
    SNS_RETURN_IF_ERROR(U64(&u));
    *v = std::bit_cast<double>(u);
    return Status::OK();
  }
  Status Bytes(void* data, size_t size) {
    if (!Has(size)) return ShortRead(size);
    if (size != 0) std::memcpy(data, Next(), size);
    source_->pos_ += size;
    return Status::OK();
  }
  /// The next `size` bytes in place (no copy), for containers that
  /// checksum and decode a framed payload where it lies. The view borrows
  /// the source's range.
  Status View(uint64_t size, std::string_view* out) {
    if (!Has(size)) return ShortRead(size);
    *out = std::string_view(Next(), static_cast<size_t>(size));
    source_->pos_ += static_cast<size_t>(size);
    return Status::OK();
  }
  /// Reads a Writer::Str string; fails with kDataLoss when the encoded
  /// length exceeds `max_size` (corruption guard for unchecksummed input).
  Status Str(std::string* s, size_t max_size = kDefaultMaxStr);

  /// Bytes left in the source. Decoders bound counts read from the bytes
  /// by it before they allocate.
  size_t remaining() const { return source_->remaining(); }

  const Status& status() const { return status_; }

 private:
  static constexpr size_t kDefaultMaxStr = 1u << 20;

  bool Has(uint64_t size) const {
    return status_.ok() && source_->remaining() >= size;
  }
  const char* Next() const { return source_->data_.data() + source_->pos_; }
  template <size_t N, typename T>
  Status Fixed(T* v) {
    if (!Has(N)) return ShortRead(N);
    const auto* b = reinterpret_cast<const unsigned char*>(Next());
    std::make_unsigned_t<T> out = 0;
    for (size_t i = 0; i < N; ++i) {
      out |= static_cast<std::make_unsigned_t<T>>(b[i]) << (8 * i);
    }
    *v = static_cast<T>(out);
    source_->pos_ += N;
    return Status::OK();
  }
  /// Sticky kDataLoss for a field of `size` bytes past the end (or the
  /// error that already stuck).
  Status ShortRead(uint64_t size);

  StringSource* source_;
  Status status_;
};

}  // namespace serial
}  // namespace sns

#endif  // SLICENSTITCH_COMMON_SERIAL_H_
