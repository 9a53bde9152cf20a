// The one CRC frame: the unit every checksummed byte format in censysim is
// built from — WAL segment records, WAL checkpoint files (after their
// 8-byte magic), CSG1 column segment files and replication shipments.
//
//   [u32 payload_len][u32 crc32c(payload)][payload]     (little-endian)
//
// AppendFrame writes one; ParseFrame classifies the frame at an offset as
// whole, torn (it runs past the end of the buffer) or corrupt (its
// checksum fails) and reports how many bytes it claims. Neither knows who
// calls it: each format's fault model (storage.wal.*, storage.segment.*,
// replicate.ship) stays with the code that owns the format.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace censys::storage {

// Bytes of the length + checksum header in front of every payload.
inline constexpr std::size_t kFrameHeader = 8;

// Appends `payload` to `out` as one frame.
void AppendFrame(std::string& out, std::string_view payload);

enum class FrameStatus { kWhole, kTorn, kCorrupt };

struct Frame {
  FrameStatus status = FrameStatus::kTorn;
  // The checksummed payload; set only when whole, and views the parsed
  // buffer.
  std::string_view payload;
  // The frame's extent as its header declares it (header + payload);
  // 0 when the buffer ends inside the header.
  std::size_t size = 0;
};

// Parses the frame starting at data[offset]. A frame that does not fit in
// `data` is torn; one that fits but fails its checksum is corrupt. An
// offset at or past the end of `data` parses as torn with size 0.
Frame ParseFrame(std::string_view data, std::size_t offset);

}  // namespace censys::storage
