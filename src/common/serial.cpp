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

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IOError(ErrnoMessage("cannot open for reading", path));
  }
  std::string out;
  char buffer[1 << 16];
  size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    out.append(buffer, got);
  }
  Status status;
  if (std::ferror(file) != 0) {
    status = Status::IOError(ErrnoMessage("read failed", path));
  }
  std::fclose(file);
  if (!status.ok()) return status;
  return out;
}

Status WriteStringToFile(const std::string& path, std::string_view data) {
  auto sink = FileSink::Open(path);
  if (!sink.ok()) return sink.status();
  SNS_RETURN_IF_ERROR(sink.value().Write(data.data(), data.size()));
  return sink.value().Close();
}

Status Reader::ShortRead(uint64_t size) {
  if (!status_.ok()) return status_;
  status_ = Status::DataLoss("unexpected end of stream (wanted " +
                             std::to_string(size) + " bytes, " +
                             std::to_string(source_->remaining()) + " left)");
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
  std::string_view bytes;
  SNS_RETURN_IF_ERROR(View(size, &bytes));
  s->assign(bytes);
  return Status::OK();
}

}  // namespace serial
}  // namespace sns
