#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>

#include "core/fault.h"
#include "core/trace.h"
#include "storage/frame.h"
#include "storage/serialize.h"

namespace censys::storage {
namespace {

namespace fs = std::filesystem;

constexpr char kSegmentPrefix[] = "wal-";
constexpr char kSegmentSuffix[] = ".log";
constexpr char kCheckpointPrefix[] = "ckpt-";
constexpr char kCheckpointSuffix[] = ".snap";
constexpr char kCheckpointMagic[8] = {'C', 'S', 'Y', 'S', 'C', 'K', 'P', 'T'};
void SetError(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

// Appends the `length` bytes at `offset` to *out; a file that ends early
// leaves them short (the frame check then sees a torn frame).
bool ReadRange(const std::string& path, std::uint64_t offset,
               std::uint64_t length, std::string* out, std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    SetError(error, path + ": " + std::strerror(errno));
    return false;
  }
  const std::size_t base = out->size();
  out->resize(base + length);
  std::size_t got = 0;
  while (got < length) {
    const ssize_t n = ::pread(fd, out->data() + base + got, length - got,
                              static_cast<off_t>(offset + got));
    if (n < 0) {
      if (errno == EINTR) continue;
      SetError(error, path + ": " + std::strerror(errno));
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  out->resize(base + got);
  return true;
}

// Reads a whole file; returns false on open/read failure.
bool ReadFile(const std::string& path, std::string* out, std::string* error) {
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  if (ec) {
    SetError(error, path + ": " + ec.message());
    return false;
  }
  return ReadRange(path, 0, size, out, error);
}

// Parses the frame starting at data[offset], with the read-path injection
// point firing once per frame that fits, simulating media errors on its
// bytes: a bit flip lands in `data`, an unreadable sector makes the frame
// corrupt. A frame the fault damaged is corrupt, never torn.
Frame CheckFrame(std::string& data, std::size_t offset) {
  Frame frame = ParseFrame(data, offset);
  if (frame.status == FrameStatus::kTorn) return frame;
  if (const auto fault = fault::Hit("storage.wal.read")) {
    switch (fault->mode) {
      case fault::Mode::kCrash:
        throw fault::CrashException{"storage.wal.read"};
      case fault::Mode::kErrorReturn:
      case fault::Mode::kStall:
        // Unreadable sector: everything from here on is lost.
        frame.status = FrameStatus::kCorrupt;
        break;
      default: {
        // Any corruption mode: one bit of this record's bytes flips.
        const std::size_t size = frame.size;
        const std::size_t bit = fault->bit % (size * 8);
        data[offset + bit / 8] ^= static_cast<char>(1u << (bit % 8));
        frame = ParseFrame(data, offset);
        if (frame.status != FrameStatus::kWhole || frame.size != size) {
          frame = Frame{FrameStatus::kCorrupt, {}, size};
        }
        break;
      }
    }
  }
  return frame;
}

}  // namespace

std::string EncodeWalPayload(const WalRecord& record) {
  std::string out;
  PutVarint(out, record.lsn);
  out.push_back(static_cast<char>(record.kind));
  PutVarint(out, static_cast<std::uint64_t>(record.at.minutes));
  PutLengthPrefixed(out, record.entity);
  PutLengthPrefixed(out, record.delta.Encode());
  return out;
}

std::optional<WalRecord> DecodeWalPayload(std::string_view payload) {
  WalRecord record;
  std::size_t pos = 0;
  const auto lsn = GetVarint(payload, &pos);
  if (!lsn.has_value()) return std::nullopt;
  record.lsn = *lsn;
  if (pos >= payload.size()) return std::nullopt;
  record.kind = static_cast<std::uint8_t>(payload[pos++]);
  const auto minutes = GetVarint(payload, &pos);
  if (!minutes.has_value()) return std::nullopt;
  record.at = Timestamp{static_cast<std::int64_t>(*minutes)};
  const auto entity = GetLengthPrefixed(payload, &pos);
  if (!entity.has_value()) return std::nullopt;
  record.entity = std::string(*entity);
  const auto delta_bytes = GetLengthPrefixed(payload, &pos);
  if (!delta_bytes.has_value() || pos != payload.size()) return std::nullopt;
  const auto delta = Delta::Decode(*delta_bytes);
  if (!delta.has_value()) return std::nullopt;
  record.delta = *delta;
  return record;
}

WriteAheadLog::WriteAheadLog(Options options) : options_(std::move(options)) {}

WriteAheadLog::~WriteAheadLog() {
  const core::MutexLock lock(mu_);
  if (fd_ >= 0) ::close(fd_);
}

void WriteAheadLog::BindMetrics(metrics::Registry* registry) {
  appends_metric_ =
      metrics::BindCounter(registry, "censys.storage.wal.appends");
  batch_appends_metric_ =
      metrics::BindCounter(registry, "censys.storage.wal.batch_appends");
  bytes_metric_ = metrics::BindCounter(registry, "censys.storage.wal.bytes");
  fsyncs_metric_ = metrics::BindCounter(registry, "censys.storage.wal.fsyncs");
  rotations_metric_ =
      metrics::BindCounter(registry, "censys.storage.wal.rotations");
  checkpoints_metric_ =
      metrics::BindCounter(registry, "censys.storage.wal.checkpoints");
  truncations_metric_ =
      metrics::BindCounter(registry, "censys.storage.wal.truncated_bytes");
  replayed_metric_ =
      metrics::BindCounter(registry, "censys.storage.wal.replayed");
  tail_bytes_metric_ =
      metrics::BindCounter(registry, "censys.storage.wal.tail_bytes");
}

void WriteAheadLog::Segment::TruncateTo(std::uint64_t length) {
  bytes = length;
  while (!frames.empty() && frames.back().offset >= length) frames.pop_back();
}

std::string WriteAheadLog::SegmentPath(std::uint64_t index) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%s%08llu%s", kSegmentPrefix,
                static_cast<unsigned long long>(index), kSegmentSuffix);
  return (fs::path(options_.dir) / name).string();
}

std::string WriteAheadLog::CheckpointPath(std::uint64_t lsn) const {
  char name[48];
  std::snprintf(name, sizeof(name), "%s%020llu%s", kCheckpointPrefix,
                static_cast<unsigned long long>(lsn), kCheckpointSuffix);
  return (fs::path(options_.dir) / name).string();
}

std::vector<std::uint64_t> WriteAheadLog::ListSegmentIndexes() const {
  std::vector<std::uint64_t> indexes;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(kSegmentPrefix, 0) != 0 ||
        name.size() <= std::strlen(kSegmentPrefix) +
                           std::strlen(kSegmentSuffix) ||
        name.compare(name.size() - std::strlen(kSegmentSuffix),
                     std::strlen(kSegmentSuffix), kSegmentSuffix) != 0) {
      continue;
    }
    const std::string digits =
        name.substr(std::strlen(kSegmentPrefix),
                    name.size() - std::strlen(kSegmentPrefix) -
                        std::strlen(kSegmentSuffix));
    indexes.push_back(std::strtoull(digits.c_str(), nullptr, 10));
  }
  std::sort(indexes.begin(), indexes.end());
  return indexes;
}

bool WriteAheadLog::ScanSegment(
    const std::string& path,
    const std::function<void(const WalRecord&)>& visit, ReplayStats* stats,
    Segment* segment, std::string* error) {
  std::string data;
  if (!ReadFile(path, &data, error)) return false;

  std::size_t offset = 0;
  Frame frame;
  while ((frame = CheckFrame(data, offset)).status == FrameStatus::kWhole) {
    const auto record = DecodeWalPayload(frame.payload);
    if (!record.has_value()) {
      frame.status = FrameStatus::kCorrupt;
      break;
    }
    if (segment != nullptr) segment->frames.push_back({record->lsn, offset});
    if (visit) visit(*record);
    if (stats != nullptr) ++stats->records;
    offset += frame.size;
  }
  if (segment != nullptr) segment->bytes = offset;

  const std::uint64_t file_size = data.size();
  if (offset < file_size) {
    const bool corrupt = frame.status == FrameStatus::kCorrupt;
    if (stats != nullptr) {
      stats->truncated_bytes += file_size - offset;
      if (corrupt) ++stats->corrupt_records;
    }
    // Torn or corrupt tail: truncate the file to the last whole record so
    // future appends land on a record boundary.
    truncated_bytes_.fetch_add(file_size - offset, std::memory_order_relaxed);
    if (corrupt) corrupt_records_.fetch_add(1, std::memory_order_relaxed);
    truncations_metric_.Add(file_size - offset);
    std::error_code ec;
    fs::resize_file(path, offset, ec);
    if (ec) {
      SetError(error, path + ": truncate failed: " + ec.message());
      return false;
    }
  }
  return true;
}

bool WriteAheadLog::Open(std::string* error) {
  const core::MutexLock lock(mu_);
  return OpenLocked(error);
}

bool WriteAheadLog::OpenLocked(std::string* error) {
  if (opened_) return true;
  if (options_.dir.empty()) {
    SetError(error, "wal: no directory configured");
    return false;
  }
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    SetError(error, options_.dir + ": " + ec.message());
    return false;
  }

  segments_.clear();
  const std::vector<std::uint64_t> indexes = ListSegmentIndexes();
  bool log_cut = false;
  for (const std::uint64_t index : indexes) {
    if (log_cut) {
      // A corrupt record invalidates everything after it: later segments
      // are dropped wholesale.
      std::error_code rm_ec;
      const auto size = fs::file_size(SegmentPath(index), rm_ec);
      if (!rm_ec) {
        truncations_metric_.Add(size);
        truncated_bytes_.fetch_add(size, std::memory_order_relaxed);
      }
      fs::remove(SegmentPath(index), rm_ec);
      segments_removed_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Segment segment;
    segment.index = index;
    ReplayStats stats;
    const bool ok = ScanSegment(
        SegmentPath(index),
        [&](const WalRecord& record) {
          const std::uint64_t next =
              next_lsn_.load(std::memory_order_relaxed);
          if (record.lsn >= next) {
            next_lsn_.store(record.lsn + 1, std::memory_order_relaxed);
          }
        },
        &stats, &segment, error);
    if (!ok) return false;
    if (stats.truncated_bytes > 0) log_cut = true;
    segments_.push_back(std::move(segment));
  }
  if (segments_.empty()) segments_.emplace_back();

  const std::uint64_t tail_offset = segments_.back().bytes;
  const std::string active = SegmentPath(segments_.back().index);
  fd_ = ::open(active.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) {
    SetError(error, active + ": " + std::strerror(errno));
    return false;
  }
  if (::lseek(fd_, static_cast<off_t>(tail_offset), SEEK_SET) < 0) {
    SetError(error, active + ": " + std::strerror(errno));
    return false;
  }
  opened_ = true;
  return true;
}

bool WriteAheadLog::WriteAllLocked(const void* data, std::size_t n,
                                   std::string* error) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t written = ::write(fd_, p, n);
    if (written < 0) {
      if (errno == EINTR) continue;
      SetError(error, std::string("wal write: ") + std::strerror(errno));
      return false;
    }
    p += written;
    n -= static_cast<std::size_t>(written);
  }
  return true;
}

bool WriteAheadLog::SyncLocked(std::string* error) {
  TRACE_SPAN("storage", "wal.fsync");
  if (const auto fault = fault::Hit("storage.wal.fsync")) {
    switch (fault->mode) {
      case fault::Mode::kCrash:
        throw fault::CrashException{"storage.wal.fsync"};
      default:
        SetError(error, "wal fsync: injected failure");
        return false;
    }
  }
  if (fd_ >= 0 && ::fsync(fd_) != 0) {
    SetError(error, std::string("wal fsync: ") + std::strerror(errno));
    return false;
  }
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  fsyncs_metric_.Add();
  return true;
}

bool WriteAheadLog::RotateLocked(std::string* error) {
  if (!SyncLocked(error)) return false;
  ::close(fd_);
  fd_ = -1;
  Segment segment;
  segment.index = segments_.back().index + 1;
  const std::string path = SegmentPath(segment.index);
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    SetError(error, path + ": " + std::strerror(errno));
    return false;
  }
  segments_.push_back(segment);
  rotations_.fetch_add(1, std::memory_order_relaxed);
  rotations_metric_.Add();
  return true;
}

bool WriteAheadLog::AppendBatch(std::vector<WalRecord>& records,
                                std::string* error) {
  if (records.empty()) return true;
  TRACE_SPAN_VAR(span, "storage", "wal.append_batch");
  span.SetArg("records", std::to_string(records.size()));
  const core::MutexLock lock(mu_);
  if (!opened_ && !OpenLocked(error)) return false;

  // Frame the whole batch first. Fault points fire once per record: an
  // error-return rejects the batch before a single byte is written
  // (nothing durable, nothing applied); a crash/torn-write loses at most
  // the batch's buffered tail, which recovery truncates back to a record
  // boundary.
  const std::uint64_t first_lsn = next_lsn_.load(std::memory_order_relaxed);
  std::string buffer;
  std::vector<std::uint64_t> frame_starts;  // offsets within `buffer`
  frame_starts.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].lsn = first_lsn + i;
    const std::size_t start = buffer.size();
    AppendFrame(buffer, EncodeWalPayload(records[i]));
    const std::size_t frame_size = buffer.size() - start;
    if (const auto fault = fault::Hit("storage.wal.append")) {
      switch (fault->mode) {
        case fault::Mode::kErrorReturn:
        default:
          SetError(error, "wal append: injected failure");
          return false;
        case fault::Mode::kCrash:
          throw fault::CrashException{"storage.wal.append"};
        case fault::Mode::kTornWrite: {
          // The batch dies mid-flight: everything buffered so far plus a
          // prefix of this frame reaches the medium.
          buffer.resize(start + std::clamp<std::size_t>(
                                    static_cast<std::size_t>(
                                        fault->tear_frac *
                                        static_cast<double>(frame_size)),
                                    1, frame_size - 1));
          std::string ignored;
          WriteAllLocked(buffer.data(), buffer.size(), &ignored);
          throw fault::CrashException{"storage.wal.append"};
        }
        case fault::Mode::kBitFlip: {
          const std::size_t bit = fault->bit % (frame_size * 8);
          buffer[start + bit / 8] ^= static_cast<char>(1u << (bit % 8));
          break;
        }
      }
    }
    frame_starts.push_back(start);
  }

  if (segments_.back().bytes > 0 &&
      segments_.back().bytes + buffer.size() > options_.segment_bytes) {
    if (!RotateLocked(error)) return false;
  }
  if (!WriteAllLocked(buffer.data(), buffer.size(), error)) return false;
  Segment& segment = segments_.back();
  for (std::size_t i = 0; i < records.size(); ++i) {
    segment.frames.push_back({first_lsn + i, segment.bytes + frame_starts[i]});
  }
  segment.bytes += buffer.size();
  if (options_.fsync_each) {
    // One fsync for the whole batch — the point of group commit.
    if (!SyncLocked(error)) {
      // The bytes may or may not be durable; withdraw them so the
      // in-memory journal (which will not apply the batch) and the log
      // cannot diverge.
      segment.TruncateTo(segment.bytes - buffer.size());
      ::ftruncate(fd_, static_cast<off_t>(segment.bytes));
      ::lseek(fd_, static_cast<off_t>(segment.bytes), SEEK_SET);
      return false;
    }
  }

  next_lsn_.fetch_add(records.size(), std::memory_order_relaxed);
  appended_records_.fetch_add(records.size(), std::memory_order_relaxed);
  appended_bytes_.fetch_add(buffer.size(), std::memory_order_relaxed);
  batch_appends_.fetch_add(1, std::memory_order_relaxed);
  appends_metric_.Add(records.size());
  bytes_metric_.Add(buffer.size());
  batch_appends_metric_.Add();
  return true;
}

bool WriteAheadLog::Sync(std::string* error) {
  const core::MutexLock lock(mu_);
  if (!opened_) return true;
  return SyncLocked(error);
}

bool WriteAheadLog::Replay(
    std::uint64_t from_lsn,
    const std::function<void(const WalRecord&)>& visit, ReplayStats* stats,
    std::string* error) {
  TRACE_SPAN("storage", "wal.replay");
  std::vector<std::uint64_t> indexes;
  std::size_t skip_below = 0;  // segments before this one are covered
  {
    const core::MutexLock lock(mu_);
    if (!opened_ && !OpenLocked(error)) return false;
    for (std::size_t i = 0; i < segments_.size(); ++i) {
      indexes.push_back(segments_[i].index);
      // A segment is fully covered by from_lsn when its successor's first
      // record — which bounds every lsn it holds — is already at or below
      // from_lsn + 1. Open() scanned these files once; skipping them here
      // is what removed Recover()'s duplicate segment open.
      if (i + 1 < segments_.size() && segments_[i + 1].first_lsn() != 0 &&
          segments_[i + 1].first_lsn() <= from_lsn + 1) {
        skip_below = i + 1;
      }
    }
  }
  // The scan itself runs unlocked: recovery is startup-only (it must not
  // race AppendBatch), and the journal's visitor takes its shard locks,
  // which never nest with this one.
  ReplayStats local;
  ReplayStats* out = stats != nullptr ? stats : &local;
  for (std::size_t i = skip_below; i < indexes.size(); ++i) {
    ReplayStats scan;
    const bool ok = ScanSegment(
        SegmentPath(indexes[i]),
        [&](const WalRecord& record) {
          if (record.lsn <= from_lsn) {
            ++out->skipped;
            return;
          }
          ++out->records;
          replayed_metric_.Add();
          if (visit) visit(record);
        },
        &scan, nullptr, error);
    if (!ok) return false;
    out->corrupt_records += scan.corrupt_records;
    out->truncated_bytes += scan.truncated_bytes;
    if (scan.truncated_bytes > 0) break;  // log cut: stop here
  }
  return true;
}

bool WriteAheadLog::ReadTail(std::uint64_t from_lsn, std::uint64_t end_lsn,
                             std::size_t max_records, std::string* frames,
                             std::uint64_t* last_lsn, std::string* error) {
  TRACE_SPAN("storage", "wal.read_tail");
  // Under the lock, the frame indexes give the exact byte range and the
  // LSNs of every frame to ship; the reads run unlocked. Appends only add
  // frames past those ranges, and a checkpoint that prunes a planned
  // segment makes its open fail.
  struct Range {
    std::uint64_t segment = 0;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::vector<std::uint64_t> lsns;  // one per frame, in file order
  };
  std::vector<Range> ranges;
  {
    const core::MutexLock lock(mu_);
    if (!opened_ && !OpenLocked(error)) return false;
    std::size_t budget =
        max_records == 0 ? std::numeric_limits<std::size_t>::max()
                         : max_records;
    const auto lsn_less = [](std::uint64_t lsn, const FrameRef& frame) {
      return lsn < frame.lsn;
    };
    for (const Segment& segment : segments_) {
      if (budget == 0) break;
      const std::vector<FrameRef>& index = segment.frames;
      const auto first = std::upper_bound(index.begin(), index.end(),
                                          from_lsn, lsn_less);
      const auto last = std::upper_bound(first, index.end(), end_lsn,
                                         lsn_less);
      if (last != index.end() && first == last) break;  // past end_lsn
      const std::size_t n =
          std::min<std::size_t>(static_cast<std::size_t>(last - first),
                                budget);
      if (n == 0) continue;
      const auto stop = first + static_cast<std::ptrdiff_t>(n);
      Range& range = ranges.emplace_back();
      range.segment = segment.index;
      range.begin = first->offset;
      range.end = stop == index.end() ? segment.bytes : stop->offset;
      for (auto it = first; it != stop; ++it) range.lsns.push_back(it->lsn);
      budget -= n;
    }
  }

  for (const Range& range : ranges) {
    std::size_t offset = frames->size();
    if (!ReadRange(SegmentPath(range.segment), range.begin,
                   range.end - range.begin, frames, error)) {
      return false;
    }
    tail_bytes_.fetch_add(frames->size() - offset, std::memory_order_relaxed);
    tail_bytes_metric_.Add(frames->size() - offset);
    for (const std::uint64_t lsn : range.lsns) {
      const Frame frame = CheckFrame(*frames, offset);
      if (frame.status != FrameStatus::kWhole) {
        frames->resize(offset);  // a torn or corrupt frame ends the read
        return true;
      }
      offset += frame.size;
      *last_lsn = lsn;
    }
  }
  return true;
}

std::uint64_t WriteAheadLog::oldest_lsn() const {
  const core::MutexLock lock(mu_);
  for (const Segment& segment : segments_) {
    if (segment.first_lsn() != 0) return segment.first_lsn();
  }
  return 0;
}

bool WriteAheadLog::WriteCheckpoint(std::uint64_t lsn,
                                    std::string_view payload,
                                    std::string* error) {
  TRACE_SPAN("storage", "wal.checkpoint");
  const core::MutexLock lock(mu_);
  if (!opened_ && !OpenLocked(error)) return false;

  // Make the log itself durable up to the state the checkpoint covers
  // before the checkpoint can supersede it.
  if (!SyncLocked(error)) return false;

  std::string file(kCheckpointMagic, sizeof(kCheckpointMagic));
  AppendFrame(file, payload);

  if (const auto fault = fault::Hit("storage.wal.append")) {
    switch (fault->mode) {
      case fault::Mode::kErrorReturn:
      default:
        SetError(error, "wal checkpoint: injected failure");
        return false;
      case fault::Mode::kCrash:
        throw fault::CrashException{"storage.wal.append"};
      case fault::Mode::kTornWrite: {
        // Die with a partial temp file on disk; recovery ignores *.tmp.
        const std::string tmp = CheckpointPath(lsn) + ".tmp";
        const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                              0644);
        if (fd >= 0) {
          const std::size_t torn = std::clamp<std::size_t>(
              static_cast<std::size_t>(fault->tear_frac *
                                       static_cast<double>(file.size())),
              1, file.size() - 1);
          [[maybe_unused]] const ssize_t n = ::write(fd, file.data(), torn);
          ::close(fd);
        }
        throw fault::CrashException{"storage.wal.append"};
      }
      case fault::Mode::kBitFlip: {
        const std::size_t bit =
            fault->bit % ((file.size() - sizeof(kCheckpointMagic)) * 8);
        file[sizeof(kCheckpointMagic) + bit / 8] ^=
            static_cast<char>(1u << (bit % 8));
        break;
      }
    }
  }

  const std::string tmp = CheckpointPath(lsn) + ".tmp";
  const std::string final_path = CheckpointPath(lsn);
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    SetError(error, tmp + ": " + std::strerror(errno));
    return false;
  }
  const char* p = file.data();
  std::size_t n = file.size();
  while (n > 0) {
    const ssize_t written = ::write(fd, p, n);
    if (written < 0) {
      if (errno == EINTR) continue;
      SetError(error, tmp + ": " + std::strerror(errno));
      ::close(fd);
      return false;
    }
    p += written;
    n -= static_cast<std::size_t>(written);
  }
  if (const auto fault = fault::Hit("storage.wal.fsync")) {
    if (fault->mode == fault::Mode::kCrash) {
      ::close(fd);
      throw fault::CrashException{"storage.wal.fsync"};
    }
    SetError(error, "wal checkpoint fsync: injected failure");
    ::close(fd);
    return false;
  }
  ::fsync(fd);
  ::close(fd);
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  fsyncs_metric_.Add();

  std::error_code ec;
  fs::rename(tmp, final_path, ec);
  if (ec) {
    SetError(error, final_path + ": " + ec.message());
    return false;
  }
  checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
  checkpoints_metric_.Add();

  // Prune old checkpoints beyond the retention count, then drop segments
  // the new checkpoint fully covers ("snapshots bound replay").
  std::vector<std::uint64_t> lsns = ListCheckpoints();
  for (std::size_t i = options_.keep_checkpoints; i < lsns.size(); ++i) {
    fs::remove(CheckpointPath(lsns[i]), ec);
  }
  RemoveSegmentsBelowLocked(lsn);
  return true;
}

void WriteAheadLog::RemoveSegmentsBelowLocked(std::uint64_t lsn) {
  // A closed segment is removable when its successor's first record —
  // which bounds every lsn it holds — is already covered by `lsn`.
  while (segments_.size() > 1) {
    const Segment& next = segments_[1];
    if (next.first_lsn() == 0 || next.first_lsn() > lsn + 1) break;
    std::error_code ec;
    fs::remove(SegmentPath(segments_.front().index), ec);
    segments_.erase(segments_.begin());
    segments_removed_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<std::uint64_t> WriteAheadLog::ListCheckpoints() const {
  std::vector<std::uint64_t> lsns;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(kCheckpointPrefix, 0) != 0 ||
        name.size() <= std::strlen(kCheckpointPrefix) +
                           std::strlen(kCheckpointSuffix) ||
        name.compare(name.size() - std::strlen(kCheckpointSuffix),
                     std::strlen(kCheckpointSuffix),
                     kCheckpointSuffix) != 0) {
      continue;
    }
    const std::string digits =
        name.substr(std::strlen(kCheckpointPrefix),
                    name.size() - std::strlen(kCheckpointPrefix) -
                        std::strlen(kCheckpointSuffix));
    lsns.push_back(std::strtoull(digits.c_str(), nullptr, 10));
  }
  std::sort(lsns.rbegin(), lsns.rend());
  return lsns;
}

std::optional<std::string> WriteAheadLog::ReadCheckpoint(
    std::uint64_t lsn) const {
  std::string data;
  std::string error;
  if (!ReadFile(CheckpointPath(lsn), &data, &error)) return std::nullopt;
  if (data.size() <= sizeof(kCheckpointMagic)) return std::nullopt;
  if (const auto fault = fault::Hit("storage.wal.read")) {
    switch (fault->mode) {
      case fault::Mode::kCrash:
        throw fault::CrashException{"storage.wal.read"};
      case fault::Mode::kErrorReturn:
        return std::nullopt;
      default: {
        const std::size_t bit = fault->bit % (data.size() * 8);
        data[bit / 8] ^= static_cast<char>(1u << (bit % 8));
        break;
      }
    }
  }
  if (std::memcmp(data.data(), kCheckpointMagic, sizeof(kCheckpointMagic)) !=
      0) {
    return std::nullopt;
  }
  const Frame frame = ParseFrame(data, sizeof(kCheckpointMagic));
  if (frame.status != FrameStatus::kWhole ||
      sizeof(kCheckpointMagic) + frame.size != data.size()) {
    return std::nullopt;
  }
  return std::string(frame.payload);
}

}  // namespace censys::storage
