#include "storage/frame.h"

#include <cstdint>

#include "core/crc32c.h"

namespace censys::storage {
namespace {

void PutU32Le(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

std::uint32_t GetU32Le(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

}  // namespace

void AppendFrame(std::string& out, std::string_view payload) {
  out.reserve(out.size() + kFrameHeader + payload.size());
  PutU32Le(out, static_cast<std::uint32_t>(payload.size()));
  PutU32Le(out, core::Crc32c(payload));
  out.append(payload);
}

Frame ParseFrame(std::string_view data, std::size_t offset) {
  Frame frame;
  if (offset > data.size() || data.size() - offset < kFrameHeader) {
    return frame;
  }
  const std::uint32_t len = GetU32Le(data.data() + offset);
  const std::uint32_t crc = GetU32Le(data.data() + offset + 4);
  frame.size = kFrameHeader + len;
  if (data.size() - offset < frame.size) return frame;
  const std::string_view payload = data.substr(offset + kFrameHeader, len);
  if (core::Crc32c(payload) != crc) {
    frame.status = FrameStatus::kCorrupt;
    return frame;
  }
  frame.status = FrameStatus::kWhole;
  frame.payload = payload;
  return frame;
}

}  // namespace censys::storage
