// Crash-safe single-blob segment files for the columnar analytics tier.
//
// A segment file is one CRC frame of storage/frame.h, the one definition
// of the [u32 len][u32 crc32c(payload)][payload] framing, holding the whole
// payload, written with the checkpoint idiom: the frame lands in `path + ".tmp"`,
// is fsynced, and is renamed over `path`, so a reader never observes a
// half-written destination — the file either holds the complete old
// frame, the complete new frame, or does not exist. Validation is the
// reader's job: a short file, length mismatch, or CRC mismatch reads as
// corrupt (nullopt), never as a wrong payload.
//
// Fault injection points (core/fault.h):
//   "storage.segment.write"  kErrorReturn fails the write cleanly;
//                            kCrash throws CrashException; kBitFlip and
//                            kTornWrite model silent media corruption —
//                            the damaged frame still lands and renames,
//                            and the CRC catches it at read time.
//   "storage.segment.read"   kErrorReturn fails the read; kBitFlip flips
//                            a bit of the read buffer; kTornWrite
//                            truncates the buffer (torn tail); kCrash
//                            throws.
//
// This lives in src/storage/ because raw file IO anywhere else in src/
// is a censyslint violation; the dictionary/RLE encoding layered on top
// belongs to src/query/columnar.h.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace censys::storage {

// Durably writes `payload` framed + tmp+renamed to `path`. Returns false
// with *error set on failure (the destination is untouched).
bool WriteSegmentFile(const std::string& path, std::string_view payload,
                      std::string* error);

// Reads and validates a segment file. Returns the payload, or nullopt
// with *error set when the file is missing, short, misframed, or fails
// its checksum.
std::optional<std::string> ReadSegmentFile(const std::string& path,
                                           std::string* error);

// Whether a segment exists at `path` (no validation — lets callers tell
// "never built" apart from "built but unreadable/corrupt").
bool SegmentFileExists(const std::string& path);

}  // namespace censys::storage
