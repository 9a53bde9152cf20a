// Columnar daily analytics segments (the BigQuery role in §5.3).
//
// Aggregation sweeps ("how many hosts run each service name?") used to
// replay the journal: visit every entity, walk its field map, tally.
// This tier transposes a day's host×field state into column segments —
// one column per field, values dictionary-encoded and run-length
// compressed over rows sorted by entity id — so an aggregation reads one
// column's runs (O(runs), already grouped by dictionary id) instead of
// every field of every host.
//
// Segment payload layout (versioned by the leading magic; all integers
// LEB128 varints, strings length-prefixed):
//
//   "CSG1"
//   varint day
//   varint row_count
//   lp(entity_id) × row_count            -- sorted ascending
//   varint column_count
//   per column (sorted by field name):
//     lp(field)
//     varint dict_size
//     lp(value) × dict_size              -- first-appearance order
//     varint run_count
//     (varint dict_id, varint run_len) × run_count
//
// dict_id 0 means "field absent on these rows"; ids 1..dict_size index
// dict[id-1]. Run lengths must sum to row_count — Decode rejects
// anything else, plus trailing bytes, out-of-range ids, and unsorted
// rows, so a corrupt-but-CRC-passing payload can never mis-aggregate.
//
// On disk each segment is one storage::WriteSegmentFile blob
// (CRC-framed, tmp+rename — crash-safe like checkpoints). A segment
// that fails its CRC or its structural validation is counted in
// censys.query.segment_corrupt and the query falls back to the live
// journal walk: slower, never wrong.
//
// Staleness: a segment answers "as of the day it was built". Queries for
// day D are served by the newest segment with day' <= D; the Aggregate
// result carries (day, from_segment) so callers — and the replica router
// above — can label the answer's freshness the same way replica
// watermarks label replica reads.
//
// Memory: a tier that persists to a directory keeps only the day it last
// built in memory (plus days read back since); earlier days stay on disk
// and FindSegment reloads them on demand. An in-memory tier keeps every
// day, since nothing else holds its segments.
//
// Building: BuildDay cuts the sorted entity ids into contiguous chunks and
// builds each chunk's partial columns on a tier-owned Executor sized to
// the host's cores, reading every entity state in place under its
// journal shard's reader lock; the partial columns are then merged per
// range of field names, also in parallel. The merge is what keeps the
// bytes independent of the chunk and thread counts (see MergeChunks).
//
// Concurrency: one shared mutex guards the segment cache (`segments_`).
// Decoded segments are immutable shared_ptr<const ColumnSegment>; readers
// take the shared lock only long enough to pick a segment, then scan it
// lock-free. BuildDay takes the exclusive lock only to publish, and holds
// `build_mu_` throughout, so builds run one at a time (the executor takes
// one caller). The journal-walk fallback relies on EventJournal's own
// locking.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/executor.h"
#include "core/metrics.h"
#include "core/thread_safety.h"
#include "storage/journal.h"

namespace censys::query {

struct ColumnSegment {
  // One maximal run of rows sharing a dictionary id (0 = absent).
  struct Run {
    std::uint32_t value = 0;
    std::uint32_t length = 0;
  };

  struct Column {
    std::string field;
    std::vector<std::string> dict;  // dict[id - 1] for id in 1..size
    std::vector<Run> runs;          // lengths sum to row count
  };

  std::int64_t day = 0;
  std::vector<std::string> row_ids;  // sorted entity ids
  std::vector<Column> columns;       // sorted by field name

  std::string Encode() const;
  // Strict: rejects bad magic, truncation, trailing bytes, unsorted rows
  // or columns, out-of-range dictionary ids, and run-length sums that
  // disagree with row_count.
  static std::optional<ColumnSegment> Decode(std::string_view payload);
};

// Snapshots the journal's current non-empty entities (the same universe
// the search index holds) into a segment stamped `day`, visiting the
// sorted ids in `chunks` contiguous ranges on `executor`. The segment —
// and so its Encode() bytes — is the same for every chunk count and
// thread count. Call at a quiescent point: each entity is read under its
// shard lock, but a concurrent append would land in some chunks' view of
// the day and not others'.
ColumnSegment BuildSegment(const storage::EventJournal& journal,
                           std::int64_t day, Executor& executor,
                           std::size_t chunks);

class AnalyticsTier {
 public:
  struct Options {
    // Segment directory; empty keeps segments in memory only.
    std::string dir;
  };

  // One aggregation sweep's result. `groups` maps field value -> count:
  // host count for GroupCount (one value per host per field), service
  // count for GroupCountSuffix (one per matching field per host).
  struct Aggregate {
    std::map<std::string, std::uint64_t> groups;
    std::uint64_t rows = 0;    // universe rows scanned
    std::int64_t day = -1;     // segment day answered from; -1 = live walk
    bool from_segment = false;
  };

  AnalyticsTier(const storage::EventJournal& journal, Options options);

  AnalyticsTier(const AnalyticsTier&) = delete;
  AnalyticsTier& operator=(const AnalyticsTier&) = delete;

  // Builds day `day`'s segment from the journal on every core, persists
  // it (when a dir is configured) via the crash-safe segment file, and
  // caches it, dropping the other days from memory when they are on
  // disk. Returns false with *error set on a (real or injected) write
  // failure; the cache is only changed on success. Call at a quiescent
  // point — the build walks the live journal.
  bool BuildDay(std::int64_t day, std::string* error);

  // Counts hosts grouped by the value of exactly `field`, answered from
  // the newest segment with day' <= day; falls back to the live journal
  // walk (from_segment = false) when no usable segment exists.
  Aggregate GroupCount(std::int64_t day, std::string_view field) const;

  // Counts services grouped by value across every field whose name ends
  // with `suffix` (e.g. ".service.name" sweeps all ports).
  Aggregate GroupCountSuffix(std::int64_t day, std::string_view suffix) const;

  // The snapshot-walk baseline the segments replace — also the fallback
  // path and the bench's comparison point.
  Aggregate WalkJournal(std::string_view field) const;
  Aggregate WalkJournalSuffix(std::string_view suffix) const;

  // Days whose segments are in memory.
  std::vector<std::int64_t> CachedDays() const;
  std::string SegmentPath(std::int64_t day) const;

  // Registers the censys.query.* segment/scan instruments.
  void BindMetrics(metrics::Registry* registry);

 private:
  using SegmentPtr = std::shared_ptr<const ColumnSegment>;

  // Newest known segment with day' <= day, read back from the segment
  // directory when it was evicted; probes the directory for exactly `day`
  // when no such day is known. Corrupt files count and read as absent
  // (the caller walks the journal instead).
  SegmentPtr FindSegment(std::int64_t day) const;

  const storage::EventJournal& journal_;
  Options options_;

  core::Mutex build_mu_;
  // BuildDay's threads, idle between builds.
  Executor executor_ CENSYS_GUARDED_BY(build_mu_);
  mutable core::SharedMutex mu_;
  // Every day built or read; a null segment is on disk only.
  mutable std::map<std::int64_t, SegmentPtr> segments_ CENSYS_GUARDED_BY(mu_);

  metrics::CounterHandle built_metric_;
  metrics::CounterHandle bytes_metric_;
  metrics::CounterHandle scans_metric_;
  metrics::CounterHandle scan_rows_metric_;
  metrics::CounterHandle corrupt_metric_;
  metrics::CounterHandle fallback_metric_;
  // BuildDay's time by layer, microseconds per build.
  metrics::HistogramHandle visit_us_metric_;
  metrics::HistogramHandle merge_us_metric_;
  metrics::HistogramHandle encode_us_metric_;
  metrics::HistogramHandle write_us_metric_;
};

}  // namespace censys::query
