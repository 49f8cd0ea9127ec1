#include "common/serial.h"

#include <cerrno>
#include <cstring>

#include <unistd.h>

#include "common/failpoint.h"

namespace sns {
namespace serial {
namespace {

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " '" + path + "': " + std::strerror(errno);
}

}  // namespace

Status ByteSource::ReadExact(void* data, size_t size) {
  auto* out = static_cast<char*>(data);
  size_t done = 0;
  while (done < size) {
    StatusOr<size_t> got = ReadSome(out + done, size - done);
    if (!got.ok()) return got.status();
    if (got.value() == 0) {
      return Status::DataLoss("unexpected end of stream (wanted " +
                              std::to_string(size) + " bytes, got " +
                              std::to_string(done) + ")");
    }
    done += got.value();
  }
  return Status::OK();
}

StatusOr<size_t> StringSource::ReadSome(void* data, size_t size) {
  const size_t n = std::min(size, remaining());
  std::memcpy(data, data_.data() + pos_, n);
  pos_ += n;
  return n;
}

StatusOr<FileSink> FileSink::Open(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IOError(ErrnoMessage("cannot open for writing", path));
  }
  return FileSink(file, path);
}

FileSink& FileSink::operator=(FileSink&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    file_ = other.file_;
    path_ = std::move(other.path_);
    other.file_ = nullptr;
  }
  return *this;
}

FileSink::~FileSink() {
  if (file_ != nullptr) std::fclose(file_);
}

Status FileSink::Write(const void* data, size_t size) {
  if (file_ == nullptr) return Status::FailedPrecondition("sink is closed");
  // Injected disk faults: "serial.file_sink_write" fails cleanly before a
  // byte lands (ENOSPC at the start of a write); "..._short_write" commits
  // the first half and then fails — the torn-write shape that leaves a
  // truncated journal record on disk.
  if (SNS_FAILPOINT("serial.file_sink_write")) {
    return failpoint::InjectedFailure("serial.file_sink_write");
  }
  if (SNS_FAILPOINT("serial.file_sink_short_write")) {
    const size_t half = size / 2;
    if (half > 0 && std::fwrite(data, 1, half, file_) != half) {
      return Status::IOError(ErrnoMessage("write failed", path_));
    }
    std::fflush(file_);
    return failpoint::InjectedFailure("serial.file_sink_short_write");
  }
  if (std::fwrite(data, 1, size, file_) != size) {
    return Status::IOError(ErrnoMessage("write failed", path_));
  }
  return Status::OK();
}

Status FileSink::Flush(bool sync_to_disk) {
  if (file_ == nullptr) return Status::FailedPrecondition("sink is closed");
  if (std::fflush(file_) != 0) {
    return Status::IOError(ErrnoMessage("flush failed", path_));
  }
  if (sync_to_disk && ::fsync(::fileno(file_)) != 0) {
    return Status::IOError(ErrnoMessage("fsync failed", path_));
  }
  return Status::OK();
}

Status FileSink::Close() {
  if (file_ == nullptr) return Status::OK();
  const int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) return Status::IOError(ErrnoMessage("close failed", path_));
  return Status::OK();
}

StatusOr<FileSource> FileSource::Open(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IOError(ErrnoMessage("cannot open for reading", path));
  }
  return FileSource(file, path);
}

FileSource& FileSource::operator=(FileSource&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    file_ = other.file_;
    path_ = std::move(other.path_);
    other.file_ = nullptr;
  }
  return *this;
}

FileSource::~FileSource() {
  if (file_ != nullptr) std::fclose(file_);
}

StatusOr<size_t> FileSource::ReadSome(void* data, size_t size) {
  if (file_ == nullptr) return Status::FailedPrecondition("source is closed");
  const size_t n = std::fread(data, 1, size, file_);
  if (n < size && std::ferror(file_) != 0) {
    return Status::IOError(ErrnoMessage("read failed", path_));
  }
  return n;
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  auto source = FileSource::Open(path);
  if (!source.ok()) return source.status();
  std::string out;
  char buffer[1 << 16];
  while (true) {
    StatusOr<size_t> got = source.value().ReadSome(buffer, sizeof(buffer));
    if (!got.ok()) return got.status();
    if (got.value() == 0) break;
    out.append(buffer, got.value());
  }
  return out;
}

Status WriteStringToFile(const std::string& path, std::string_view data) {
  auto sink = FileSink::Open(path);
  if (!sink.ok()) return sink.status();
  SNS_RETURN_IF_ERROR(sink.value().Write(data.data(), data.size()));
  return sink.value().Close();
}

Writer::Writer(ByteSink& sink)
    : sink_(&sink), direct_(nullptr) {
  if (auto* string_sink = dynamic_cast<StringSink*>(&sink)) {
    direct_ = string_sink->mutable_data();
  }
}

void Writer::SinkWrite(const void* data, size_t size) {
  if (!status_.ok()) return;
  status_ = sink_->Write(data, size);
}

Reader::Reader(ByteSource& source)
    : source_(&source), direct_(dynamic_cast<StringSource*>(&source)) {}

Status Reader::SourceRead(void* data, size_t size) {
  if (!status_.ok()) return status_;
  status_ = source_->ReadExact(data, size);
  return status_;
}

Status Reader::Str(std::string* s, size_t max_size) {
  uint64_t size = 0;
  SNS_RETURN_IF_ERROR(U64(&size));
  if (size > max_size) {
    status_ = Status::DataLoss("string length " + std::to_string(size) +
                               " exceeds limit " + std::to_string(max_size));
    return status_;
  }
  s->resize(static_cast<size_t>(size));
  return Bytes(s->data(), s->size());
}

}  // namespace serial
}  // namespace sns
