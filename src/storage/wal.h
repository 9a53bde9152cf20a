// Crash-consistent write-ahead log for the event journal (§5.2 made
// durable).
//
// The in-memory EventJournal is the paper's Bigtable stand-in; this WAL is
// what makes a crash survivable: every journaled event is first appended
// here as a length-prefixed, CRC32C-checksummed record in a rotating
// sequence of segment files, and EventJournal::Recover() rebuilds a
// byte-identical journal from (latest valid checkpoint) + (WAL tail
// replay). Recovery is tolerant by construction — a torn or corrupt
// record truncates the log at that point instead of aborting, so the
// journal always restarts from the longest durable prefix.
//
// On-disk layout under `dir`:
//
//   wal-00000000.log            segment 0
//   wal-00000001.log            segment 1 (rotated at ~segment_bytes)
//   ...
//   ckpt-<lsn 20 digits>.snap   full-state checkpoints (tmp+rename)
//
// Every record is one frame of storage/frame.h, the one definition of the
// [u32 len][u32 crc32c(payload)][payload] framing; a checkpoint file is an
// 8-byte magic followed by one frame. A record's payload is
//
//   varint lsn | u8 kind | varint at_minutes | lp(entity_id)
//   | lp(delta_encoding)
//
// LSNs are assigned contiguously from 1 by Append; a checkpoint file
// carries the LSN it covers, so replay starts strictly after it.
//
// Every segment keeps an in-memory LSN -> byte-offset index of its whole
// frames, built as frames are appended and rebuilt by Open()'s recovery
// scan. Tail reads for replication use it to pread exactly the frames they
// ship and return them as read, so a read costs what it returns whatever
// the segment's size; only recovery (Open, Replay) reads whole segments.
//
// Fault injection points (core/fault.h): "storage.wal.append" (record and
// checkpoint writes; error-return / torn-write / bit-flip / crash),
// "storage.wal.fsync" (error-return / crash), "storage.wal.read" (once per
// frame read by replay or a tail read: bit-flip / error-return / crash).
// Torn writes and crashes throw fault::CrashException, the SIGKILL
// stand-in the torture tests catch.
//
// Concurrency: one mutex serializes Append/Sync/rotation, LSN assignment
// and the segment indexes; journal shards may append concurrently.
// Replay/Open are startup-only and must not race appends. ReadTail locates
// its frames under the mutex and reads them outside it, so it may run
// concurrently with appends. Counters are relaxed atomics.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/metrics.h"
#include "core/thread_safety.h"
#include "core/types.h"
#include "storage/delta.h"

namespace censys::storage {

enum class EventKind : std::uint8_t;

// One logical journal append, as logged.
struct WalRecord {
  std::uint64_t lsn = 0;
  std::string entity;
  std::uint8_t kind = 0;  // EventKind, kept raw so wal.h need not see it
  Timestamp at;
  Delta delta;
};

// Encodes/decodes the record *payload* (no framing). Decode returns
// nullopt on any truncation or trailing garbage.
std::string EncodeWalPayload(const WalRecord& record);
std::optional<WalRecord> DecodeWalPayload(std::string_view payload);

class WriteAheadLog {
 public:
  struct Options {
    // Directory for segments + checkpoints; empty disables the WAL.
    std::string dir;
    // Rotate to a new segment once the current one reaches this size.
    std::uint64_t segment_bytes = 4u << 20;
    // fsync after every append (durability over throughput). Off by
    // default: the simulated crash model is process death, not power
    // loss, and Sync() is still called on rotation and checkpoint.
    bool fsync_each = false;
    // Checkpoints retained on disk (older ones are pruned after a new
    // checkpoint lands).
    std::uint32_t keep_checkpoints = 2;
  };

  struct ReplayStats {
    std::uint64_t records = 0;         // delivered to the visitor
    std::uint64_t skipped = 0;         // valid but lsn <= from_lsn
    std::uint64_t corrupt_records = 0; // CRC/decode failures (tail cut)
    std::uint64_t truncated_bytes = 0; // bytes dropped at torn tails
  };

  explicit WriteAheadLog(Options options);
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  // Scans existing segments (validating every record), truncates any
  // torn/corrupt tail so the log ends on a record boundary, and positions
  // the append cursor. Creates the directory and segment 0 when empty.
  // Idempotent; Append auto-opens on first use.
  bool Open(std::string* error);

  // Appends one record, assigning its LSN. Returns false on (real or
  // injected) I/O failure — nothing is considered durable. May throw
  // fault::CrashException at the armed crash points.
  bool Append(WalRecord& record, std::string* error);

  // Group commit: appends every record as one contiguous framed write with
  // at most one fsync, assigning contiguous LSNs in order. An error-return
  // failure (real or injected, on any record) rejects the whole batch with
  // nothing written — recovery then sees the log exactly as before the
  // batch. Armed crash/torn-write faults throw after at most a prefix of
  // the batch buffer reached the medium; recovery truncates at the tear,
  // so the durable prefix is a record-aligned prefix of the batch. Record
  // framing is identical to Append's, so batching never changes replay.
  bool AppendBatch(std::vector<WalRecord>& records, std::string* error);

  // fsyncs the active segment.
  bool Sync(std::string* error);

  // Replays every valid record with lsn > from_lsn, in log order. The log
  // must be Open()ed. Returns false only on unrecoverable errors (an
  // unreadable directory); torn tails are truncated, counted, and NOT
  // errors. Segments whose records are all <= from_lsn (bounded by the
  // next segment's first LSN) are skipped without reopening their files.
  bool Replay(std::uint64_t from_lsn,
              const std::function<void(const WalRecord&)>& visit,
              ReplayStats* stats, std::string* error);

  // Read-only tail reader for replication shipping: appends to `frames`
  // the frames of every record with from_lsn < lsn <= end_lsn, in log
  // order, byte for byte as they lie in the segment files, and sets
  // *last_lsn to the LSN of the last one (untouched when none). At most
  // `max_records` frames are read (0 = unbounded). The segment indexes
  // locate the requested frames, which are pread and CRC-checked alone and
  // never decoded: every indexed frame was encoded by Append or decoded by
  // Open's scan. Frames below the window are neither read nor re-validated,
  // and bytes past the last whole appended frame (a writer's half-written
  // frame) are never looked at. Unlike Open/Replay this NEVER mutates the
  // log — a frame that fails its check just ends the read after the last
  // whole frame. Returns false only on unrecoverable I/O errors (e.g. a
  // segment pruned mid-read by a checkpoint; the caller re-checks
  // oldest_lsn and re-bootstraps).
  bool ReadTail(std::uint64_t from_lsn, std::uint64_t end_lsn,
                std::size_t max_records, std::string* frames,
                std::uint64_t* last_lsn, std::string* error);

  // First LSN still present in the segment files (0 when the log holds no
  // records). Checkpoints prune covered segments, so a follower whose
  // applied LSN has fallen below oldest_lsn() - 1 cannot be caught up
  // from the tail and must re-bootstrap from a snapshot.
  std::uint64_t oldest_lsn() const;

  // Durably writes a checkpoint payload covering `lsn` (tmp + rename),
  // prunes checkpoints beyond Options::keep_checkpoints, and deletes
  // segments whose records are all covered by `lsn`.
  bool WriteCheckpoint(std::uint64_t lsn, std::string_view payload,
                       std::string* error);

  // Ensures future LSNs are assigned strictly after `lsn`. Recovery calls
  // this with the checkpoint's LSN: if tail truncation cut the log below
  // it, newly appended records must not reuse LSNs the checkpoint already
  // covers (replay would silently skip them).
  void ReserveLsnsThrough(std::uint64_t lsn) {
    std::uint64_t next = next_lsn_.load(std::memory_order_relaxed);
    while (next < lsn + 1 &&
           !next_lsn_.compare_exchange_weak(next, lsn + 1,
                                            std::memory_order_relaxed)) {
    }
  }

  // Checkpoint LSNs present on disk, newest first (CRC not yet checked —
  // ReadCheckpoint validates).
  std::vector<std::uint64_t> ListCheckpoints() const;
  // Loads and validates a checkpoint payload; nullopt when missing or
  // corrupt (the caller falls back to an older one, then to full replay).
  std::optional<std::string> ReadCheckpoint(std::uint64_t lsn) const;

  // --- accounting -------------------------------------------------------------
  std::uint64_t last_lsn() const {
    return next_lsn_.load(std::memory_order_relaxed) - 1;
  }
  std::uint64_t appended_records() const {
    return appended_records_.load(std::memory_order_relaxed);
  }
  // Group appends (AppendBatch calls that hit the medium).
  std::uint64_t batch_appends() const {
    return batch_appends_.load(std::memory_order_relaxed);
  }
  std::uint64_t appended_bytes() const {
    return appended_bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t rotations() const {
    return rotations_.load(std::memory_order_relaxed);
  }
  std::uint64_t fsyncs() const {
    return fsyncs_.load(std::memory_order_relaxed);
  }
  std::uint64_t checkpoints_written() const {
    return checkpoints_written_.load(std::memory_order_relaxed);
  }
  std::uint64_t segments_removed() const {
    return segments_removed_.load(std::memory_order_relaxed);
  }
  // Bytes dropped at torn/corrupt tails (plus whole segments abandoned
  // past a corrupt record) across every scan since construction.
  std::uint64_t truncated_bytes() const {
    return truncated_bytes_.load(std::memory_order_relaxed);
  }
  // Records that failed CRC/decode validation (each one cuts the log).
  std::uint64_t corrupt_records() const {
    return corrupt_records_.load(std::memory_order_relaxed);
  }
  // Bytes ReadTail has read from segment files.
  std::uint64_t tail_bytes() const {
    return tail_bytes_.load(std::memory_order_relaxed);
  }
  const Options& options() const { return options_; }

  // Registers censys.storage.wal.* instruments.
  void BindMetrics(metrics::Registry* registry);

 private:
  // Where one whole frame starts in its segment file.
  struct FrameRef {
    std::uint64_t lsn = 0;
    std::uint64_t offset = 0;
  };
  struct Segment {
    std::uint64_t index = 0;
    // Length of the whole frames written so far; appends go here.
    std::uint64_t bytes = 0;
    // Every whole frame in file order (LSNs ascend): the LSN -> offset
    // index tail reads seek with.
    std::vector<FrameRef> frames;

    std::uint64_t first_lsn() const {
      return frames.empty() ? 0 : frames.front().lsn;
    }
    // Withdraws frames past `length` (a failed fsync took them back).
    void TruncateTo(std::uint64_t length);
  };

  std::string SegmentPath(std::uint64_t index) const;
  std::string CheckpointPath(std::uint64_t lsn) const;
  bool OpenLocked(std::string* error) CENSYS_REQUIRES(mu_);
  bool RotateLocked(std::string* error) CENSYS_REQUIRES(mu_);
  bool SyncLocked(std::string* error) CENSYS_REQUIRES(mu_);
  bool WriteAllLocked(const void* data, std::size_t n, std::string* error)
      CENSYS_REQUIRES(mu_);
  // Recovery scan of one whole segment file: delivers valid records, cuts
  // the file back to the last whole record and advances the truncation
  // counters. With `segment` set, rebuilds its frame index and length.
  bool ScanSegment(const std::string& path,
                   const std::function<void(const WalRecord&)>& visit,
                   ReplayStats* stats, Segment* segment, std::string* error);
  std::vector<std::uint64_t> ListSegmentIndexes() const;
  void RemoveSegmentsBelowLocked(std::uint64_t lsn) CENSYS_REQUIRES(mu_);

  Options options_;

  mutable core::Mutex mu_;
  int fd_ CENSYS_GUARDED_BY(mu_) = -1;
  bool opened_ CENSYS_GUARDED_BY(mu_) = false;
  // Open segments in index order; back() is the active one.
  std::vector<Segment> segments_ CENSYS_GUARDED_BY(mu_);

  std::atomic<std::uint64_t> next_lsn_{1};
  std::atomic<std::uint64_t> appended_records_{0};
  std::atomic<std::uint64_t> batch_appends_{0};
  std::atomic<std::uint64_t> appended_bytes_{0};
  std::atomic<std::uint64_t> rotations_{0};
  std::atomic<std::uint64_t> fsyncs_{0};
  std::atomic<std::uint64_t> checkpoints_written_{0};
  std::atomic<std::uint64_t> segments_removed_{0};
  std::atomic<std::uint64_t> truncated_bytes_{0};
  std::atomic<std::uint64_t> corrupt_records_{0};
  std::atomic<std::uint64_t> tail_bytes_{0};

  metrics::CounterHandle appends_metric_;
  metrics::CounterHandle batch_appends_metric_;
  metrics::CounterHandle bytes_metric_;
  metrics::CounterHandle fsyncs_metric_;
  metrics::CounterHandle rotations_metric_;
  metrics::CounterHandle checkpoints_metric_;
  metrics::CounterHandle truncations_metric_;
  metrics::CounterHandle replayed_metric_;
  metrics::CounterHandle tail_bytes_metric_;
};

}  // namespace censys::storage
