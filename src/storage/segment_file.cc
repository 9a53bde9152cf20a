#include "storage/segment_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "core/fault.h"
#include "storage/frame.h"

namespace censys::storage {
namespace {

void SetError(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

bool WriteAll(int fd, const char* data, std::size_t n, std::string* error) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      SetError(error, std::string("segment write: ") + std::strerror(errno));
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

bool WriteSegmentFile(const std::string& path, std::string_view payload,
                      std::string* error) {
  std::string frame;
  AppendFrame(frame, payload);

  bool torn = false;
  if (const auto fault = fault::Hit("storage.segment.write")) {
    switch (fault->mode) {
      case fault::Mode::kCrash:
        throw fault::CrashException{"storage.segment.write"};
      case fault::Mode::kBitFlip: {
        // Silent media corruption: the damaged frame lands and renames;
        // only the read-side CRC can tell.
        const std::size_t bit = fault->bit % (frame.size() * 8);
        frame[bit / 8] ^= static_cast<char>(1u << (bit % 8));
        break;
      }
      case fault::Mode::kTornWrite:
        // A tail of the frame silently never reaches the medium (torn
        // DMA, lying disk cache) — but the rename still completes.
        torn = true;
        break;
      case fault::Mode::kErrorReturn:
      default:
        SetError(error, "segment write: injected failure");
        return false;
    }
  }
  std::size_t write_len = frame.size();
  if (torn) {
    write_len = std::clamp<std::size_t>(
        static_cast<std::size_t>(0.5 * static_cast<double>(frame.size())), 1,
        frame.size() - 1);
  }

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    SetError(error, "segment open " + tmp + ": " + std::strerror(errno));
    return false;
  }
  if (!WriteAll(fd, frame.data(), write_len, error)) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  if (::fsync(fd) != 0) {
    SetError(error, std::string("segment fsync: ") + std::strerror(errno));
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    SetError(error, "segment rename to " + path + ": " + std::strerror(errno));
    ::unlink(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<std::string> ReadSegmentFile(const std::string& path,
                                           std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    SetError(error, "segment open " + path + ": " + std::strerror(errno));
    return std::nullopt;
  }
  std::string data;
  char buf[1 << 16];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0) {
      if (errno == EINTR) continue;
      SetError(error, std::string("segment read: ") + std::strerror(errno));
      ::close(fd);
      return std::nullopt;
    }
    if (r == 0) break;
    data.append(buf, static_cast<std::size_t>(r));
  }
  ::close(fd);

  if (const auto fault = fault::Hit("storage.segment.read")) {
    switch (fault->mode) {
      case fault::Mode::kCrash:
        throw fault::CrashException{"storage.segment.read"};
      case fault::Mode::kErrorReturn:
        SetError(error, "segment read: injected failure");
        return std::nullopt;
      case fault::Mode::kTornWrite:
        // Model a torn tail discovered at read time.
        data.resize(data.size() / 2);
        break;
      case fault::Mode::kBitFlip:
      default:
        if (!data.empty()) {
          const std::size_t bit = fault->bit % (data.size() * 8);
          data[bit / 8] ^= static_cast<char>(1u << (bit % 8));
        }
        break;
    }
  }

  const Frame frame = ParseFrame(data, 0);
  if (frame.size == 0) {
    SetError(error, "segment " + path + ": short file");
    return std::nullopt;
  }
  if (frame.size != data.size()) {
    SetError(error, "segment " + path + ": length mismatch");
    return std::nullopt;
  }
  if (frame.status != FrameStatus::kWhole) {
    SetError(error, "segment " + path + ": checksum mismatch");
    return std::nullopt;
  }
  return std::string(frame.payload);
}

bool SegmentFileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

}  // namespace censys::storage
