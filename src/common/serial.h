// Byte-stream serialization primitives for the durability layer.
//
// Two small abstractions — ByteSink (write bytes) and ByteSource (read
// bytes) — with in-memory and FILE*-backed implementations, plus Writer /
// Reader helpers that encode primitives in fixed little-endian layout with a
// sticky error status. Checkpoints and journal records are byte strings
// built with Writer, checksummed whole (common/crc32.h), and framed by their
// container (durability/checkpoint.h, durability/journal.h); nothing here
// depends on the tensor or service layers.
//
// Encoding contract: all integers little-endian fixed width, doubles as the
// little-endian bytes of their IEEE-754 bit pattern, strings as u64 length +
// raw bytes. There is no padding, alignment or framing between fields. The
// layout is byte-for-byte deterministic — equal state always serializes to
// equal bytes, which is what lets the durability tests compare whole
// checkpoints bitwise — and it is the same on every host and over every
// sink: a Writer over a StringSink appends each field straight into the
// sink's string, and a Reader over a StringSource decodes each field
// straight from its range (no virtual call, no per-field Status on
// success), while other sinks and sources go through Write / ReadSome with
// the same bytes and the same errors.

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

/// Destination of serialized bytes.
class ByteSink {
 public:
  virtual ~ByteSink() = default;
  virtual Status Write(const void* data, size_t size) = 0;
};

/// Source of serialized bytes.
class ByteSource {
 public:
  virtual ~ByteSource() = default;

  /// Reads up to `size` bytes into `data`; returns the count actually read
  /// (0 = end of stream). Short reads before the end are allowed.
  virtual StatusOr<size_t> ReadSome(void* data, size_t size) = 0;

  /// Reads exactly `size` bytes or fails: kDataLoss on a premature end of
  /// stream, the underlying error otherwise.
  Status ReadExact(void* data, size_t size);

  /// Bytes left before the end of the stream when the source knows them,
  /// SIZE_MAX otherwise. Decoders bound counts read from the stream by it
  /// before they allocate.
  virtual size_t remaining() const { return SIZE_MAX; }
};

/// Sink accumulating into an owned std::string.
class StringSink final : public ByteSink {
 public:
  Status Write(const void* data, size_t size) override {
    data_.append(static_cast<const char*>(data), size);
    return Status::OK();
  }
  const std::string& data() const { return data_; }
  /// The accumulated bytes, for encoders that patch a field after the
  /// fact (a length or checksum) or frame their output in place.
  std::string* mutable_data() { return &data_; }
  std::string TakeData() { return std::move(data_); }

 private:
  std::string data_;
};

/// Source over a borrowed byte range (must outlive the source).
class StringSource final : public ByteSource {
 public:
  explicit StringSource(std::string_view data) : data_(data) {}
  StatusOr<size_t> ReadSome(void* data, size_t size) override;
  size_t remaining() const override { return data_.size() - pos_; }

 private:
  friend class Reader;  // Decodes straight from data_ (see Reader).

  std::string_view data_;
  size_t pos_ = 0;
};

/// Sink writing a file via stdio. Move-only; flushes and closes on
/// destruction (errors at that point are lost — call Close() to observe
/// them).
class FileSink final : public ByteSink {
 public:
  /// Opens (truncating) `path` for binary writing.
  static StatusOr<FileSink> Open(const std::string& path);

  FileSink(FileSink&& other) noexcept { *this = std::move(other); }
  FileSink& operator=(FileSink&& other) noexcept;
  ~FileSink() override;

  Status Write(const void* data, size_t size) override;

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

/// Source reading a file via stdio. Move-only.
class FileSource final : public ByteSource {
 public:
  static StatusOr<FileSource> Open(const std::string& path);

  FileSource(FileSource&& other) noexcept { *this = std::move(other); }
  FileSource& operator=(FileSource&& other) noexcept;
  ~FileSource() override;

  StatusOr<size_t> ReadSome(void* data, size_t size) override;

 private:
  FileSource(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}

  std::FILE* file_ = nullptr;
  std::string path_;
};

/// Whole-file convenience forms (used by tests, tools, and the example).
StatusOr<std::string> ReadFileToString(const std::string& path);
Status WriteStringToFile(const std::string& path, std::string_view data);

/// Little-endian primitive encoder over a ByteSink. The first write error
/// sticks; callers compose an entire record and check status() once. Over a
/// StringSink every field is appended inline (a StringSink never fails).
class Writer {
 public:
  explicit Writer(ByteSink& sink);

  void U8(uint8_t v) { Fixed<1>(v); }
  void U32(uint32_t v) { Fixed<4>(v); }
  void U64(uint64_t v) { Fixed<8>(v); }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  void Bytes(const void* data, size_t size) {
    if (direct_ != nullptr) {
      direct_->append(static_cast<const char*>(data), size);
    } else {
      SinkWrite(data, size);
    }
  }
  /// u64 length + raw bytes.
  void Str(std::string_view s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }

  const Status& status() const { return status_; }

 private:
  template <size_t N>
  void Fixed(uint64_t v) {
    char b[N];
    for (size_t i = 0; i < N; ++i) b[i] = static_cast<char>(v >> (8 * i));
    Bytes(b, N);
  }
  void SinkWrite(const void* data, size_t size);

  ByteSink* sink_;
  std::string* direct_;  // The StringSink's string, or null.
  Status status_;
};

/// Little-endian primitive decoder over a ByteSource. The first read error
/// sticks and every later accessor fails fast, so decode sequences need only
/// one status check per record. Over a StringSource, a field that is there
/// is decoded inline; a short read takes the ReadExact path and fails with
/// its kDataLoss.
class Reader {
 public:
  explicit Reader(ByteSource& source);

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
    if (direct_ != nullptr && status_.ok() && direct_->remaining() >= size) {
      if (size != 0) {
        std::memcpy(data, direct_->data_.data() + direct_->pos_, size);
      }
      direct_->pos_ += size;
      return Status::OK();
    }
    return SourceRead(data, size);
  }
  /// Reads a Writer::Str string; fails with kDataLoss when the encoded
  /// length exceeds `max_size` (corruption guard for unchecksummed input).
  Status Str(std::string* s, size_t max_size = kDefaultMaxStr);

  /// The source's ByteSource::remaining().
  size_t remaining() const { return source_->remaining(); }

  const Status& status() const { return status_; }

 private:
  static constexpr size_t kDefaultMaxStr = 1u << 20;

  template <size_t N, typename T>
  Status Fixed(T* v) {
    unsigned char b[N];
    SNS_RETURN_IF_ERROR(Bytes(b, N));
    std::make_unsigned_t<T> out = 0;
    for (size_t i = 0; i < N; ++i) {
      out |= static_cast<std::make_unsigned_t<T>>(b[i]) << (8 * i);
    }
    *v = static_cast<T>(out);
    return Status::OK();
  }
  Status SourceRead(void* data, size_t size);

  ByteSource* source_;
  StringSource* direct_;  // The source when it is a StringSource, or null.
  Status status_;
};

}  // namespace serial
}  // namespace sns

#endif  // SLICENSTITCH_COMMON_SERIAL_H_
