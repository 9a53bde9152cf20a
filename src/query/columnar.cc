#include "query/columnar.h"

#include <algorithm>
#include <memory>
#include <memory_resource>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/strings.h"
#include "core/trace.h"
#include "storage/segment_file.h"
#include "storage/serialize.h"

namespace censys::query {
namespace {

constexpr std::string_view kMagic = "CSG1";

// Dictionaries up to this size are searched by a scan (most columns hold a
// handful of values); past it a hash index takes over.
constexpr std::size_t kScanLimit = 8;

// Chunks per build thread: enough that a chunk of heavy hosts does not
// leave the other threads idle at the end of the visit.
constexpr std::size_t kChunksPerThread = 4;

// First block of a chunk's arena; later blocks grow geometrically.
constexpr std::size_t kArenaBlock = 1 << 16;

using Allocator = std::pmr::polymorphic_allocator<>;

// A first-appearance dictionary: id i (1-based) names values[i - 1]. It
// holds views: the caller keeps the bytes alive for the dictionary's life.
struct Dictionary {
  using allocator_type = Allocator;
  explicit Dictionary(const allocator_type& alloc = {})
      : values(alloc), index(alloc) {}

  std::pmr::vector<std::string_view> values;
  // Built once the dictionary outgrows kScanLimit.
  std::pmr::unordered_map<std::string_view, std::uint32_t> index;

  // `value`'s id, or 0 when it is not in the dictionary.
  std::uint32_t Find(std::string_view value) const {
    if (values.size() <= kScanLimit) {
      for (std::size_t i = 0; i < values.size(); ++i) {
        if (values[i] == value) return static_cast<std::uint32_t>(i) + 1;
      }
      return 0;
    }
    const auto it = index.find(value);
    return it == index.end() ? 0 : it->second;
  }

  std::uint32_t Add(std::string_view value) {
    values.push_back(value);
    const auto id = static_cast<std::uint32_t>(values.size());
    if (values.size() > kScanLimit) {
      if (index.empty()) {
        for (std::uint32_t i = 1; i < id; ++i) index.emplace(values[i - 1], i);
      }
      index.emplace(value, id);
    }
    return id;
  }
};

// Streams one column's (row, id) pairs — rows arriving in ascending order
// — into maximal runs, padding uncovered rows with the absent id 0.
struct ColumnBuilder {
  using allocator_type = Allocator;
  explicit ColumnBuilder(const allocator_type& alloc = {})
      : dict(alloc), runs(alloc) {}

  Dictionary dict;
  std::pmr::vector<ColumnSegment::Run> runs;
  std::uint32_t filled = 0;

  void Clear() {
    dict.values.clear();
    if (!dict.index.empty()) dict.index.clear();
    runs.clear();
    filled = 0;
  }

  void Extend(std::uint32_t id, std::uint32_t length) {
    if (length == 0) return;
    if (!runs.empty() && runs.back().value == id) {
      runs.back().length += length;
    } else {
      runs.push_back({id, length});
    }
    filled += length;
  }
};

// The partial columns of one contiguous range of sorted entity ids, with
// rows numbered from 0 at the range's first non-empty entity. Everything
// but the row ids lives in the chunk's arena — field names and values
// included — and is freed with it in one piece.
struct Chunk {
  std::pmr::monotonic_buffer_resource arena{kArenaBlock};
  std::vector<std::string> row_ids;
  std::pmr::unordered_map<std::string_view, ColumnBuilder> builders{&arena};
  // builders' entries sorted by field name.
  std::vector<std::pair<std::string_view, ColumnBuilder*>> by_field;

  // A copy of `bytes` that lives as long as the chunk.
  std::string_view Keep(std::string_view bytes) {
    char* copy = static_cast<char*>(arena.allocate(bytes.size(), 1));
    std::copy(bytes.begin(), bytes.end(), copy);
    return {copy, bytes.size()};
  }

  void Append(std::uint32_t row, const std::string& field,
              const std::string& value) {
    auto it = builders.find(field);
    if (it == builders.end()) it = builders.try_emplace(Keep(field)).first;
    ColumnBuilder& builder = it->second;
    if (row > builder.filled) builder.Extend(0, row - builder.filled);
    std::uint32_t id = builder.dict.Find(value);
    if (id == 0) id = builder.dict.Add(Keep(value));
    builder.Extend(id, 1);
  }
};

// Visits the sorted entity ids in `chunk_count` contiguous ranges on
// `executor`, each state read in place under its shard lock, and builds
// every range's partial columns.
std::vector<std::unique_ptr<Chunk>> VisitChunks(
    const storage::EventJournal& journal, Executor& executor,
    std::size_t chunk_count) {
  const std::vector<std::string> ids = journal.EntityIds();
  std::vector<std::unique_ptr<Chunk>> chunks(
      std::max<std::size_t>(chunk_count, 1));
  executor.ParallelFor(chunks.size(), [&](std::size_t c) {
    chunks[c] = std::make_unique<Chunk>();
    Chunk& chunk = *chunks[c];
    const std::size_t begin = c * ids.size() / chunks.size();
    const std::size_t end = (c + 1) * ids.size() / chunks.size();
    journal.ForEachEntityIn(
        std::span(ids).subspan(begin, end - begin),
        [&](std::string_view entity, const storage::FieldMap& fields) {
          if (fields.empty()) return;  // the universe is non-empty entities
          const auto row = static_cast<std::uint32_t>(chunk.row_ids.size());
          chunk.row_ids.emplace_back(entity);
          for (const auto& [field, value] : fields) {
            chunk.Append(row, field, value);
          }
        });
    chunk.by_field.reserve(chunk.builders.size());
    // censyslint:allow(unordered-iter): by_field is sorted below
    for (auto& [field, builder] : chunk.builders) {
      chunk.by_field.emplace_back(field, &builder);
    }
    std::sort(chunk.by_field.begin(), chunk.by_field.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  });
  return chunks;
}

// Merges the chunks' partial columns into one segment, one range of field
// names per task. Each column's dictionary takes the chunks' values in
// chunk order, so ids are numbered by first appearance over all rows and
// adjacent equal runs fuse across chunk seams: the result equals a single
// pass over every row, whatever the chunk count. Frees the chunks.
ColumnSegment MergeChunks(std::vector<std::unique_ptr<Chunk>> chunks,
                          std::int64_t day, Executor& executor) {
  ColumnSegment segment;
  segment.day = day;
  std::vector<std::uint32_t> offsets;  // each chunk's first global row
  offsets.reserve(chunks.size());
  std::size_t rows = 0;
  for (const auto& chunk : chunks) {
    offsets.push_back(static_cast<std::uint32_t>(rows));
    rows += chunk->row_ids.size();
  }
  segment.row_ids.reserve(rows);
  for (const auto& chunk : chunks) {
    for (std::string& id : chunk->row_ids) {
      segment.row_ids.push_back(std::move(id));
    }
  }

  // Field-name range bounds, spaced evenly over the chunk with the most
  // columns; range r covers [bounds[r], bounds[r + 1]), the last one
  // unbounded above.
  const auto widest = std::max_element(
      chunks.begin(), chunks.end(), [](const auto& a, const auto& b) {
        return a->by_field.size() < b->by_field.size();
      });
  const auto& spread = (*widest)->by_field;
  std::vector<std::string_view> bounds = {std::string_view()};
  for (std::size_t r = 1; r < chunks.size() && !spread.empty(); ++r) {
    const std::string_view bound =
        spread[r * spread.size() / chunks.size()].first;
    if (bounds.back() < bound) bounds.push_back(bound);
  }

  std::vector<std::vector<ColumnSegment::Column>> ranges(bounds.size());
  executor.ParallelFor(ranges.size(), [&](std::size_t r) {
    struct Part {
      std::string_view field;
      std::size_t chunk;
      const ColumnBuilder* builder;
    };
    std::vector<Part> parts;
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      const auto& by_field = chunks[c]->by_field;
      auto below = [](const auto& entry, std::string_view f) {
        return entry.first < f;
      };
      const auto lo = std::lower_bound(by_field.begin(), by_field.end(),
                                       bounds[r], below);
      const auto hi = r + 1 == bounds.size()
                          ? by_field.end()
                          : std::lower_bound(lo, by_field.end(),
                                             bounds[r + 1], below);
      for (auto it = lo; it != hi; ++it) {
        parts.push_back({it->first, c, it->second});
      }
    }
    // Stable: a field's parts stay in chunk order.
    std::stable_sort(
        parts.begin(), parts.end(),
        [](const Part& a, const Part& b) { return a.field < b.field; });

    std::vector<std::uint32_t> remap;  // chunk dictionary id -> merged id
    ColumnBuilder merged;  // its views point into the chunks' arenas
    for (std::size_t p = 0; p < parts.size();) {
      merged.Clear();
      const std::string_view field = parts[p].field;
      for (; p < parts.size() && parts[p].field == field; ++p) {
        const ColumnBuilder& part = *parts[p].builder;
        remap.assign(1, 0);
        for (const std::string_view value : part.dict.values) {
          std::uint32_t id = merged.dict.Find(value);
          if (id == 0) id = merged.dict.Add(value);
          remap.push_back(id);
        }
        merged.Extend(0, offsets[parts[p].chunk] - merged.filled);
        for (const ColumnSegment::Run& run : part.runs) {
          merged.Extend(remap[run.value], run.length);
        }
      }
      merged.Extend(0, static_cast<std::uint32_t>(rows) - merged.filled);
      ColumnSegment::Column& column = ranges[r].emplace_back();
      column.field = std::string(field);
      column.dict.assign(merged.dict.values.begin(), merged.dict.values.end());
      column.runs.assign(merged.runs.begin(), merged.runs.end());
    }
  });

  std::size_t column_count = 0;
  for (const auto& range : ranges) column_count += range.size();
  segment.columns.reserve(column_count);
  for (auto& range : ranges) {
    for (ColumnSegment::Column& column : range) {
      segment.columns.push_back(std::move(column));
    }
  }
  executor.ParallelFor(chunks.size(),
                       [&](std::size_t c) { chunks[c].reset(); });
  return segment;
}

void AccumulateColumn(const ColumnSegment::Column& column,
                      std::map<std::string, std::uint64_t>& groups) {
  for (const ColumnSegment::Run& run : column.runs) {
    if (run.value != 0) groups[column.dict[run.value - 1]] += run.length;
  }
}

}  // namespace

std::string ColumnSegment::Encode() const {
  std::string out;
  out.append(kMagic);
  storage::PutVarint(out, static_cast<std::uint64_t>(day));
  storage::PutVarint(out, row_ids.size());
  for (const std::string& id : row_ids) storage::PutLengthPrefixed(out, id);
  storage::PutVarint(out, columns.size());
  for (const Column& column : columns) {
    storage::PutLengthPrefixed(out, column.field);
    storage::PutVarint(out, column.dict.size());
    for (const std::string& value : column.dict) {
      storage::PutLengthPrefixed(out, value);
    }
    storage::PutVarint(out, column.runs.size());
    for (const Run& run : column.runs) {
      storage::PutVarint(out, run.value);
      storage::PutVarint(out, run.length);
    }
  }
  return out;
}

std::optional<ColumnSegment> ColumnSegment::Decode(std::string_view payload) {
  if (payload.substr(0, kMagic.size()) != kMagic) return std::nullopt;
  std::size_t pos = kMagic.size();

  ColumnSegment segment;
  const auto day = storage::GetVarint(payload, &pos);
  if (!day.has_value()) return std::nullopt;
  segment.day = static_cast<std::int64_t>(*day);

  const auto row_count = storage::GetVarint(payload, &pos);
  if (!row_count.has_value() || *row_count > payload.size()) {
    return std::nullopt;
  }
  segment.row_ids.reserve(*row_count);
  for (std::uint64_t i = 0; i < *row_count; ++i) {
    const auto id = storage::GetLengthPrefixed(payload, &pos);
    if (!id.has_value()) return std::nullopt;
    if (!segment.row_ids.empty() && !(segment.row_ids.back() < *id)) {
      return std::nullopt;  // rows must be strictly ascending
    }
    segment.row_ids.emplace_back(*id);
  }

  const auto column_count = storage::GetVarint(payload, &pos);
  if (!column_count.has_value() || *column_count > payload.size()) {
    return std::nullopt;
  }
  segment.columns.reserve(*column_count);
  for (std::uint64_t c = 0; c < *column_count; ++c) {
    Column column;
    const auto field = storage::GetLengthPrefixed(payload, &pos);
    if (!field.has_value()) return std::nullopt;
    column.field = std::string(*field);
    if (!segment.columns.empty() &&
        !(segment.columns.back().field < column.field)) {
      return std::nullopt;  // columns must be strictly ascending
    }
    const auto dict_size = storage::GetVarint(payload, &pos);
    if (!dict_size.has_value() || *dict_size > payload.size()) {
      return std::nullopt;
    }
    column.dict.reserve(*dict_size);
    for (std::uint64_t i = 0; i < *dict_size; ++i) {
      const auto value = storage::GetLengthPrefixed(payload, &pos);
      if (!value.has_value()) return std::nullopt;
      column.dict.emplace_back(*value);
    }
    const auto run_count = storage::GetVarint(payload, &pos);
    if (!run_count.has_value() || *run_count > payload.size()) {
      return std::nullopt;
    }
    column.runs.reserve(*run_count);
    std::uint64_t covered = 0;
    for (std::uint64_t i = 0; i < *run_count; ++i) {
      const auto value = storage::GetVarint(payload, &pos);
      const auto length = storage::GetVarint(payload, &pos);
      if (!value.has_value() || !length.has_value()) return std::nullopt;
      if (*value > column.dict.size() || *length == 0) return std::nullopt;
      covered += *length;
      column.runs.push_back({static_cast<std::uint32_t>(*value),
                             static_cast<std::uint32_t>(*length)});
    }
    if (covered != *row_count) return std::nullopt;  // must tile all rows
    segment.columns.push_back(std::move(column));
  }
  if (pos != payload.size()) return std::nullopt;  // trailing garbage
  return segment;
}

ColumnSegment BuildSegment(const storage::EventJournal& journal,
                           std::int64_t day, Executor& executor,
                           std::size_t chunks) {
  return MergeChunks(VisitChunks(journal, executor, chunks), day, executor);
}

AnalyticsTier::AnalyticsTier(const storage::EventJournal& journal,
                             Options options)
    : journal_(journal),
      options_(std::move(options)),
      executor_(static_cast<int>(
          std::max(1u, std::thread::hardware_concurrency()) - 1)) {}

bool AnalyticsTier::BuildDay(std::int64_t day, std::string* error) {
  TRACE_SPAN("query", "columnar.build");
  const core::MutexLock build_lock(build_mu_);
  std::shared_ptr<const ColumnSegment> segment;
  {
    std::vector<std::unique_ptr<Chunk>> chunks;
    {
      const metrics::ScopedTimer timer(visit_us_metric_);
      const auto threads =
          static_cast<std::size_t>(executor_.thread_count()) + 1;
      chunks = VisitChunks(journal_, executor_, kChunksPerThread * threads);
    }
    const metrics::ScopedTimer timer(merge_us_metric_);
    segment = std::make_shared<const ColumnSegment>(
        MergeChunks(std::move(chunks), day, executor_));
  }
  std::string encoded;
  {
    const metrics::ScopedTimer timer(encode_us_metric_);
    encoded = segment->Encode();
  }
  if (!options_.dir.empty()) {
    const metrics::ScopedTimer timer(write_us_metric_);
    if (!storage::WriteSegmentFile(SegmentPath(day), encoded, error)) {
      return false;
    }
  }
  std::vector<SegmentPtr> evicted;  // released after the lock drops
  {
    const core::MutexLock lock(mu_);
    if (!options_.dir.empty()) {
      // Every other day is on disk: keep only its slot, so FindSegment
      // still knows it exists and reloads it on demand.
      for (auto& [cached_day, cached] : segments_) {
        if (cached != nullptr) evicted.push_back(std::move(cached));
      }
    }
    segments_[day] = std::move(segment);
  }
  built_metric_.Add();
  bytes_metric_.Add(encoded.size());
  return true;
}

AnalyticsTier::SegmentPtr AnalyticsTier::FindSegment(std::int64_t day) const {
  {
    const core::ReaderLock lock(mu_);
    // Newest known day <= the requested one; an evicted day is reloaded.
    auto it = segments_.upper_bound(day);
    if (it != segments_.begin()) {
      --it;
      if (it->second != nullptr) return it->second;
      day = it->first;
    }
  }
  if (options_.dir.empty()) return nullptr;
  const std::string path = SegmentPath(day);
  if (!storage::SegmentFileExists(path)) return nullptr;
  std::string error;
  const auto payload = storage::ReadSegmentFile(path, &error);
  if (!payload.has_value()) {
    corrupt_metric_.Add();
    return nullptr;
  }
  auto decoded = ColumnSegment::Decode(*payload);
  if (!decoded.has_value()) {
    corrupt_metric_.Add();
    return nullptr;
  }
  auto segment = std::make_shared<const ColumnSegment>(std::move(*decoded));
  const core::MutexLock lock(mu_);
  segments_[day] = segment;
  return segment;
}

AnalyticsTier::Aggregate AnalyticsTier::GroupCount(
    std::int64_t day, std::string_view field) const {
  TRACE_SPAN("query", "columnar.scan");
  scans_metric_.Add();
  const SegmentPtr segment = FindSegment(day);
  if (segment == nullptr) {
    fallback_metric_.Add();
    return WalkJournal(field);
  }
  Aggregate out;
  out.from_segment = true;
  out.day = segment->day;
  out.rows = segment->row_ids.size();
  scan_rows_metric_.Add(out.rows);
  const auto it = std::lower_bound(
      segment->columns.begin(), segment->columns.end(), field,
      [](const ColumnSegment::Column& c, std::string_view f) {
        return c.field < f;
      });
  if (it != segment->columns.end() && it->field == field) {
    AccumulateColumn(*it, out.groups);
  }
  return out;
}

AnalyticsTier::Aggregate AnalyticsTier::GroupCountSuffix(
    std::int64_t day, std::string_view suffix) const {
  TRACE_SPAN("query", "columnar.scan");
  scans_metric_.Add();
  const SegmentPtr segment = FindSegment(day);
  if (segment == nullptr) {
    fallback_metric_.Add();
    return WalkJournalSuffix(suffix);
  }
  Aggregate out;
  out.from_segment = true;
  out.day = segment->day;
  out.rows = segment->row_ids.size();
  scan_rows_metric_.Add(out.rows);
  for (const ColumnSegment::Column& column : segment->columns) {
    if (EndsWith(column.field, suffix)) AccumulateColumn(column, out.groups);
  }
  return out;
}

AnalyticsTier::Aggregate AnalyticsTier::WalkJournal(
    std::string_view field) const {
  Aggregate out;
  journal_.ForEachEntity(
      [&](std::string_view /*entity*/, const storage::FieldMap& fields) {
        if (fields.empty()) return;
        ++out.rows;
        const auto it = fields.find(std::string(field));
        if (it != fields.end()) ++out.groups[it->second];
      });
  return out;
}

AnalyticsTier::Aggregate AnalyticsTier::WalkJournalSuffix(
    std::string_view suffix) const {
  Aggregate out;
  journal_.ForEachEntity(
      [&](std::string_view /*entity*/, const storage::FieldMap& fields) {
        if (fields.empty()) return;
        ++out.rows;
        for (const auto& [field, value] : fields) {
          if (EndsWith(field, suffix)) ++out.groups[value];
        }
      });
  return out;
}

std::vector<std::int64_t> AnalyticsTier::CachedDays() const {
  const core::ReaderLock lock(mu_);
  std::vector<std::int64_t> days;
  days.reserve(segments_.size());
  for (const auto& [day, segment] : segments_) {
    if (segment != nullptr) days.push_back(day);
  }
  return days;
}

std::string AnalyticsTier::SegmentPath(std::int64_t day) const {
  return options_.dir + "/seg-" + std::to_string(day) + ".col";
}

void AnalyticsTier::BindMetrics(metrics::Registry* registry) {
  built_metric_ =
      metrics::BindCounter(registry, "censys.query.segments_built");
  bytes_metric_ = metrics::BindCounter(registry, "censys.query.segment_bytes");
  scans_metric_ = metrics::BindCounter(registry, "censys.query.scans");
  scan_rows_metric_ = metrics::BindCounter(registry, "censys.query.scan_rows");
  corrupt_metric_ =
      metrics::BindCounter(registry, "censys.query.segment_corrupt");
  fallback_metric_ =
      metrics::BindCounter(registry, "censys.query.fallback_walks");
  visit_us_metric_ =
      metrics::BindHistogram(registry, "censys.query.build_visit_us");
  merge_us_metric_ =
      metrics::BindHistogram(registry, "censys.query.build_merge_us");
  encode_us_metric_ =
      metrics::BindHistogram(registry, "censys.query.build_encode_us");
  write_us_metric_ =
      metrics::BindHistogram(registry, "censys.query.build_write_us");
}

}  // namespace censys::query
