#include "storage/journal.h"

#include <algorithm>

#include "core/strings.h"
#include "core/trace.h"
#include "storage/serialize.h"

namespace censys::storage {
namespace {

std::string EncodeEvent(EventKind kind, Timestamp at, const Delta& delta) {
  std::string out;
  out.push_back(static_cast<char>(kind));
  PutVarint(out, static_cast<std::uint64_t>(at.minutes));
  out += delta.Encode();
  return out;
}

std::optional<JournalEvent> DecodeEvent(std::uint64_t seqno,
                                        std::string_view data) {
  if (data.empty()) return std::nullopt;
  JournalEvent ev;
  ev.seqno = seqno;
  ev.kind = static_cast<EventKind>(data[0]);
  std::size_t pos = 1;
  const auto minutes = GetVarint(data, &pos);
  if (!minutes.has_value()) return std::nullopt;
  ev.at = Timestamp{static_cast<std::int64_t>(*minutes)};
  const auto delta = Delta::Decode(data.substr(pos));
  if (!delta.has_value()) return std::nullopt;
  ev.delta = *delta;
  return ev;
}

std::string EncodeSnapshot(Timestamp at, const FieldMap& fields) {
  std::string out;
  PutVarint(out, static_cast<std::uint64_t>(at.minutes));
  out += EncodeFields(fields);
  return out;
}

std::optional<std::pair<Timestamp, FieldMap>> DecodeSnapshot(
    std::string_view data) {
  std::size_t pos = 0;
  const auto minutes = GetVarint(data, &pos);
  if (!minutes.has_value()) return std::nullopt;
  const auto fields = DecodeFields(data.substr(pos));
  if (!fields.has_value()) return std::nullopt;
  return std::make_pair(Timestamp{static_cast<std::int64_t>(*minutes)},
                        *fields);
}

// Bytes one (key, value) pair contributes to EncodeFields' output.
std::size_t FieldBytes(std::string_view key, std::string_view value) {
  return VarintLength(key.size()) + key.size() + VarintLength(value.size()) +
         value.size();
}

// Recomputes EntityMeta::fields_bytes from scratch (checkpoint load only;
// the append path maintains it incrementally).
std::uint64_t SumFieldBytes(const FieldMap& fields) {
  std::uint64_t total = 0;
  for (const auto& [key, value] : fields) total += FieldBytes(key, value);
  return total;
}

}  // namespace

std::string_view ToString(EventKind k) {
  switch (k) {
    case EventKind::kServiceFound: return "service-found";
    case EventKind::kServiceChanged: return "service-changed";
    case EventKind::kServiceRemoved: return "service-removed";
    case EventKind::kEntityUpdated: return "entity-updated";
  }
  return "?";
}

EventJournal::EventJournal(Options options)
    : options_(options),
      shard_count_(std::max<std::uint32_t>(1, options.shards)),
      shards_(std::make_unique<Shard[]>(shard_count_)) {
  if (!options_.wal.dir.empty()) {
    wal_ = std::make_unique<WriteAheadLog>(options_.wal);
  }
}

EventJournal::Shard& EventJournal::ShardFor(std::string_view entity_id) const {
  // Fnv1a is stable across platforms and standard libraries, so the
  // entity -> shard assignment (and thus per-shard content) is a pure
  // function of the configuration, never of std::hash.
  return shards_[Fnv1a64(entity_id) % shard_count_];
}

std::string EventJournal::EventKey(std::string_view entity,
                                   std::uint64_t seqno) {
  std::string key = "e/";
  key += entity;
  key += '/';
  key += EncodeSeqno(seqno);
  return key;
}

std::string EventJournal::SnapshotKey(std::string_view entity,
                                      std::uint64_t seqno) {
  std::string key = "s/";
  key += entity;
  key += '/';
  key += EncodeSeqno(seqno);
  return key;
}

void EventJournal::BindMetrics(metrics::Registry* registry) {
  events_metric_ = metrics::BindCounter(registry, "censys.storage.events");
  snapshots_metric_ =
      metrics::BindCounter(registry, "censys.storage.snapshots");
  delta_bytes_metric_ =
      metrics::BindCounter(registry, "censys.storage.delta_bytes");
  snapshot_bytes_metric_ =
      metrics::BindCounter(registry, "censys.storage.snapshot_bytes");
  if (wal_ != nullptr) wal_->BindMetrics(registry);
}

std::uint64_t EventJournal::Append(std::string_view entity_id, EventKind kind,
                                   Timestamp at, const Delta& delta) {
  std::vector<PendingEvent> events;
  events.push_back(PendingEvent{std::string(entity_id), kind, at, delta});
  return AppendBatch(std::move(events));
}

std::uint64_t EventJournal::AppendBatch(std::vector<PendingEvent> events) {
  if (events.empty()) return 0;
  TRACE_SPAN_VAR(span, "storage", "journal.append_batch");
  span.SetArg("events", std::to_string(events.size()));

  if (wal_ != nullptr) {
    // Log the whole batch before any in-memory mutation: one contiguous
    // write, at most one fsync. The framing is per-record, so replay of a
    // batch is indistinguishable from replay of N one-event batches. The
    // entity/delta payloads move into the frames and back out afterwards —
    // the apply loop below still sees every event intact.
    std::vector<WalRecord> records;
    records.reserve(events.size());
    std::vector<PendingEvent*> framed;
    framed.reserve(events.size());
    for (PendingEvent& ev : events) {
      if (ev.delta.empty() && ev.kind == EventKind::kEntityUpdated) continue;
      WalRecord record;
      record.entity = std::move(ev.entity_id);
      record.kind = static_cast<std::uint8_t>(ev.kind);
      record.at = ev.at;
      record.delta = std::move(ev.delta);
      records.push_back(std::move(record));
      framed.push_back(&ev);
    }
    if (!records.empty()) {
      std::string error;
      if (!wal_->AppendBatch(records, &error)) {
        throw WalIoError(error.empty() ? "wal batch append failed" : error);
      }
    }
    for (std::size_t i = 0; i < framed.size(); ++i) {
      framed[i]->entity_id = std::move(records[i].entity);
      framed[i]->delta = std::move(records[i].delta);
    }
  }
  // A crash or WAL failure on an earlier batch may have left a stale
  // staged list behind (its pointers are long dead); drop it first.
  observed_.clear();
  std::uint64_t seqno = 0;
  for (const PendingEvent& ev : events) {
    seqno = ApplyEvent(ev.entity_id, ev.kind, ev.at, ev.delta,
                       /*observe=*/true);
  }
  // Deliver while `events` is still alive: the staged AppliedEvents alias
  // its entity ids and deltas.
  NotifyObservers();
  return seqno;
}

void EventJournal::NotifyObservers() {
  if (observed_.empty()) return;
  for (const CommitObserver& observer : observers_) observer(observed_);
  observed_.clear();
}

std::uint64_t EventJournal::ApplyEvent(std::string_view entity_id,
                                       EventKind kind, Timestamp at,
                                       const Delta& delta, bool observe) {
  // Whichever thread appends is the command thread: CurrentState pointer
  // holders must be on it (debug builds enforce this).
  command_role_.AdoptCurrentThread();
  Shard& shard = ShardFor(entity_id);
  const core::MutexLock lock(shard.mu);
  EntityMeta& meta = shard.meta[std::string(entity_id)];
  if (delta.empty() && kind == EventKind::kEntityUpdated) {
    return meta.next_seqno;  // no-op refresh: nothing journaled
  }

  const std::uint64_t seqno = meta.next_seqno++;
  // Maintain the encoded-fields byte count per op (using the pre-apply
  // values of touched keys) instead of re-encoding the whole entity — the
  // old EncodeFields(meta.current) here was O(entity) per append and a
  // measurable serial-commit cost on large hosts.
  for (const FieldOp& op : delta.ops) {
    const auto it = meta.current.find(op.key);
    if (it != meta.current.end()) {
      meta.fields_bytes -= FieldBytes(it->first, it->second);
    }
    if (op.kind == FieldOp::Kind::kSet) {
      meta.fields_bytes += FieldBytes(op.key, op.value);
    }
  }
  ApplyDelta(meta.current, delta);

  const std::string encoded = EncodeEvent(kind, at, delta);
  delta_bytes_.fetch_add(encoded.size(), std::memory_order_relaxed);
  delta_bytes_metric_.Add(encoded.size());
  full_bytes_equivalent_.fetch_add(
      VarintLength(meta.current.size()) + meta.fields_bytes + 10,
      std::memory_order_relaxed);
  shard.table.Put(EventKey(entity_id, seqno), encoded, Tier::kSsd);
  event_count_.fetch_add(1, std::memory_order_relaxed);
  events_metric_.Add();
  ++meta.events_since_snapshot;

  if (meta.events_since_snapshot >= options_.snapshot_every) {
    WriteSnapshot(shard, entity_id, meta, at);
  }
  if (observe && !observers_.empty()) {
    // `delta` and `entity_id` belong to the caller and outlive the
    // enclosing Append/AppendBatch/ApplyReplicated; `meta.current` is a
    // node in the shard's meta map (stable across rehash, command-thread
    // mutated).
    observed_.push_back(
        AppliedEvent{entity_id, seqno, kind, at, &delta, &meta.current});
  }
  return seqno;
}

void EventJournal::WriteSnapshot(Shard& shard, std::string_view entity_id,
                                 EntityMeta& meta, Timestamp at) {
  TRACE_SPAN("storage", "journal.snapshot");
  const std::uint64_t snapshot_seqno = meta.next_seqno;  // covers < seqno
  const std::string encoded = EncodeSnapshot(at, meta.current);
  snapshot_bytes_.fetch_add(encoded.size(), std::memory_order_relaxed);
  snapshot_bytes_metric_.Add(encoded.size());
  shard.table.Put(SnapshotKey(entity_id, snapshot_seqno), encoded, Tier::kSsd);
  snapshot_count_.fetch_add(1, std::memory_order_relaxed);
  snapshots_metric_.Add();

  if (meta.has_snapshot) {
    // "Censys migrates journal events and historical snapshots prior to the
    // latest snapshot from SSD-backed tables to HDD-backed tables."
    shard.table.Scan(EventKey(entity_id, 0),
                     EventKey(entity_id, snapshot_seqno),
                     [&](std::string_view key, std::string_view) {
                       shard.table.SetTier(key, Tier::kHdd);
                       return true;
                     });
    shard.table.Scan(SnapshotKey(entity_id, 0),
                     SnapshotKey(entity_id, snapshot_seqno),
                     [&](std::string_view key, std::string_view) {
                       shard.table.SetTier(key, Tier::kHdd);
                       return true;
                     });
  }
  meta.has_snapshot = true;
  meta.last_snapshot_seqno = snapshot_seqno;
  meta.events_since_snapshot = 0;
}

const FieldMap* EventJournal::CurrentState(std::string_view entity_id) const {
  command_role_.AssertHeld();
  Shard& shard = ShardFor(entity_id);
  const core::ReaderLock lock(shard.mu);
  const auto it = shard.meta.find(std::string(entity_id));
  if (it == shard.meta.end()) return nullptr;
  return &it->second.current;
}

std::optional<VersionedState> EventJournal::SnapshotState(
    std::string_view entity_id) const {
  Shard& shard = ShardFor(entity_id);
  const core::ReaderLock lock(shard.mu);
  const auto it = shard.meta.find(std::string(entity_id));
  if (it == shard.meta.end()) return std::nullopt;
  return VersionedState{it->second.current, it->second.next_seqno};
}

std::uint64_t EventJournal::Watermark(std::string_view entity_id) const {
  Shard& shard = ShardFor(entity_id);
  const core::ReaderLock lock(shard.mu);
  const auto it = shard.meta.find(std::string(entity_id));
  return it == shard.meta.end() ? 0 : it->second.next_seqno;
}

std::optional<FieldMap> EventJournal::ReconstructAt(std::string_view entity_id,
                                                    Timestamp at) const {
  TRACE_SPAN("storage", "journal.reconstruct");
  Shard& shard = ShardFor(entity_id);
  const core::ReaderLock lock(shard.mu);

  // Find the latest snapshot taken at or before `at`.
  FieldMap state;
  std::uint64_t replay_from = 0;
  bool any = false;

  shard.table.Scan(SnapshotKey(entity_id, 0),
                   SnapshotKey(entity_id, ~std::uint64_t{0}),
                   [&](std::string_view key, std::string_view value) {
                     const auto snap = DecodeSnapshot(value);
                     if (!snap.has_value()) return true;
                     if (snap->first > at) return false;  // later snapshots too
                     state = snap->second;
                     replay_from = DecodeSeqno(key.substr(key.size() - 8));
                     any = true;
                     return true;
                   });

  // Replay events in (replay_from, ...] with time <= at.
  std::uint64_t replayed = 0;
  shard.table.Scan(EventKey(entity_id, replay_from),
                   EventKey(entity_id, ~std::uint64_t{0}),
                   [&](std::string_view key, std::string_view value) {
                     const std::uint64_t seqno =
                         DecodeSeqno(key.substr(key.size() - 8));
                     const auto ev = DecodeEvent(seqno, value);
                     if (!ev.has_value()) return true;
                     if (ev->at > at) return false;
                     ApplyDelta(state, ev->delta);
                     any = true;
                     ++replayed;
                     return true;
                   });
  // Lock-free max: replays race with each other, never with the data above.
  std::uint64_t seen = max_replay_.load(std::memory_order_relaxed);
  while (replayed > seen &&
         !max_replay_.compare_exchange_weak(seen, replayed,
                                            std::memory_order_relaxed)) {
  }
  if (!any) return std::nullopt;
  return state;
}

std::vector<JournalEvent> EventJournal::History(
    std::string_view entity_id) const {
  Shard& shard = ShardFor(entity_id);
  const core::ReaderLock lock(shard.mu);
  std::vector<JournalEvent> events;
  shard.table.Scan(EventKey(entity_id, 0),
                   EventKey(entity_id, ~std::uint64_t{0}),
                   [&](std::string_view key, std::string_view value) {
                     const std::uint64_t seqno =
                         DecodeSeqno(key.substr(key.size() - 8));
                     if (const auto ev = DecodeEvent(seqno, value)) {
                       events.push_back(*ev);
                     }
                     return true;
                   });
  return events;
}

std::vector<std::string> EventJournal::EntityIds() const {
  std::vector<std::string> ids;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    const core::ReaderLock lock(shards_[s].mu);
    // censyslint:allow(unordered-iter): ids are sorted below before return
    for (const auto& [id, meta] : shards_[s].meta) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

void EventJournal::ForEachEntity(
    const std::function<void(std::string_view, const FieldMap&)>& fn) const {
  // Enumerate in sorted-id order so callers (index rebuilds, digests,
  // exports) never observe hash-map layout.
  ForEachEntityIn(EntityIds(), fn);
}

void EventJournal::ForEachEntityIn(
    std::span<const std::string> ids,
    const std::function<void(std::string_view, const FieldMap&)>& fn) const {
  // The per-id re-lookup keeps the shard lock held only around each
  // callback.
  for (const std::string& id : ids) {
    Shard& shard = ShardFor(id);
    const core::ReaderLock lock(shard.mu);
    const auto it = shard.meta.find(id);
    if (it != shard.meta.end()) fn(id, it->second.current);
  }
}

void EventJournal::ScanAll(
    const std::function<bool(std::string_view, std::string_view)>& visit)
    const {
  // Copy out per shard, then merge-sort into the canonical single-table
  // order. Not a hot path: digests, dumps, and growth accounting only.
  std::vector<std::pair<std::string, std::string>> rows;
  rows.reserve(RowCount());
  for (std::size_t s = 0; s < shard_count_; ++s) {
    const core::ReaderLock lock(shards_[s].mu);
    shards_[s].table.Scan("", "",
                          [&](std::string_view key, std::string_view value) {
                            rows.emplace_back(key, value);
                            return true;
                          });
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [key, value] : rows) {
    if (!visit(key, value)) return;
  }
}

std::size_t EventJournal::RowCount() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    const core::ReaderLock lock(shards_[s].mu);
    total += shards_[s].table.size();
  }
  return total;
}

std::uint64_t EventJournal::bytes_on(Tier tier) const {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    const core::ReaderLock lock(shards_[s].mu);
    total += shards_[s].table.bytes_on(tier);
  }
  return total;
}

namespace {
constexpr std::uint64_t kCheckpointFormat = 1;
}  // namespace

std::string EventJournal::EncodeCheckpoint(std::uint64_t lsn) const {
  std::string out;
  PutVarint(out, kCheckpointFormat);
  PutVarint(out, lsn);
  PutVarint(out, event_count_.load(std::memory_order_relaxed));
  PutVarint(out, snapshot_count_.load(std::memory_order_relaxed));
  PutVarint(out, delta_bytes_.load(std::memory_order_relaxed));
  PutVarint(out, snapshot_bytes_.load(std::memory_order_relaxed));
  PutVarint(out, full_bytes_equivalent_.load(std::memory_order_relaxed));

  // Entity metadata, sorted by id so equal journals encode identically.
  std::vector<std::pair<std::string, EntityMeta>> entities;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    const core::ReaderLock lock(shards_[s].mu);
    // censyslint:allow(unordered-iter): collected then sorted by id below
    for (const auto& [id, meta] : shards_[s].meta) {
      entities.emplace_back(id, meta);
    }
  }
  std::sort(entities.begin(), entities.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  PutVarint(out, entities.size());
  for (const auto& [id, meta] : entities) {
    PutLengthPrefixed(out, id);
    PutVarint(out, meta.next_seqno);
    PutVarint(out, meta.last_snapshot_seqno);
    out.push_back(meta.has_snapshot ? 1 : 0);
    PutVarint(out, meta.events_since_snapshot);
    PutLengthPrefixed(out, EncodeFields(meta.current));
  }

  // Every table row in canonical key order, with its storage tier.
  std::vector<std::tuple<std::string, std::string, std::uint8_t>> rows;
  rows.reserve(RowCount());
  for (std::size_t s = 0; s < shard_count_; ++s) {
    const core::ReaderLock lock(shards_[s].mu);
    shards_[s].table.Scan(
        "", "", [&](std::string_view key, std::string_view value) {
          const auto tier = shards_[s].table.GetTier(key);
          rows.emplace_back(
              std::string(key), std::string(value),
              static_cast<std::uint8_t>(tier.value_or(Tier::kSsd)));
          return true;
        });
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return std::get<0>(a) < std::get<0>(b);
  });
  PutVarint(out, rows.size());
  for (const auto& [key, value, tier] : rows) {
    PutLengthPrefixed(out, key);
    PutLengthPrefixed(out, value);
    out.push_back(static_cast<char>(tier));
  }
  return out;
}

bool EventJournal::LoadCheckpoint(std::string_view payload,
                                  std::uint64_t expect_lsn) {
  std::size_t pos = 0;
  const auto format = GetVarint(payload, &pos);
  if (!format.has_value() || *format != kCheckpointFormat) return false;
  const auto lsn = GetVarint(payload, &pos);
  if (!lsn.has_value() || *lsn != expect_lsn) return false;
  const auto events = GetVarint(payload, &pos);
  const auto snapshots = GetVarint(payload, &pos);
  const auto dbytes = GetVarint(payload, &pos);
  const auto sbytes = GetVarint(payload, &pos);
  const auto fbytes = GetVarint(payload, &pos);
  if (!events || !snapshots || !dbytes || !sbytes || !fbytes) return false;

  const auto entity_count = GetVarint(payload, &pos);
  if (!entity_count.has_value()) return false;
  for (std::uint64_t i = 0; i < *entity_count; ++i) {
    const auto id = GetLengthPrefixed(payload, &pos);
    const auto next_seqno = GetVarint(payload, &pos);
    const auto last_snapshot = GetVarint(payload, &pos);
    if (!id || !next_seqno || !last_snapshot || pos >= payload.size()) {
      return false;
    }
    const bool has_snapshot = payload[pos++] != 0;
    const auto since = GetVarint(payload, &pos);
    const auto fields_bytes = GetLengthPrefixed(payload, &pos);
    if (!since || !fields_bytes) return false;
    const auto fields = DecodeFields(*fields_bytes);
    if (!fields.has_value()) return false;
    EntityMeta meta;
    meta.next_seqno = *next_seqno;
    meta.last_snapshot_seqno = *last_snapshot;
    meta.has_snapshot = has_snapshot;
    meta.events_since_snapshot = static_cast<std::uint32_t>(*since);
    meta.current = *fields;
    meta.fields_bytes = SumFieldBytes(meta.current);
    Shard& shard = ShardFor(*id);
    const core::MutexLock lock(shard.mu);
    shard.meta[std::string(*id)] = std::move(meta);
  }

  const auto row_count = GetVarint(payload, &pos);
  if (!row_count.has_value()) return false;
  for (std::uint64_t i = 0; i < *row_count; ++i) {
    const auto key = GetLengthPrefixed(payload, &pos);
    const auto value = GetLengthPrefixed(payload, &pos);
    if (!key || !value || pos >= payload.size()) return false;
    const std::uint8_t tier = static_cast<std::uint8_t>(payload[pos++]);
    // Keys are "e/<entity>/<8-byte seqno>" or "s/...": recover the entity
    // to route the row back to its shard.
    if (key->size() < 12 || ((*key)[0] != 'e' && (*key)[0] != 's') ||
        (*key)[1] != '/' || tier > 1) {
      return false;
    }
    const std::string_view entity = key->substr(2, key->size() - 11);
    Shard& shard = ShardFor(entity);
    const core::MutexLock lock(shard.mu);
    shard.table.Put(std::string(*key), std::string(*value),
                    static_cast<Tier>(tier));
  }
  if (pos != payload.size()) return false;

  event_count_.store(*events, std::memory_order_relaxed);
  snapshot_count_.store(*snapshots, std::memory_order_relaxed);
  delta_bytes_.store(*dbytes, std::memory_order_relaxed);
  snapshot_bytes_.store(*sbytes, std::memory_order_relaxed);
  full_bytes_equivalent_.store(*fbytes, std::memory_order_relaxed);
  return true;
}

std::string EventJournal::EncodeReplicaSnapshot(std::uint64_t lsn) const {
  return EncodeCheckpoint(lsn);
}

bool EventJournal::LoadReplicaSnapshot(std::string_view payload,
                                       std::uint64_t lsn) {
  const auto reset_in_place = [&] {
    for (std::size_t s = 0; s < shard_count_; ++s) {
      const core::MutexLock lock(shards_[s].mu);
      shards_[s].meta.clear();
      shards_[s].table = OrderedKv{};
    }
    event_count_.store(0, std::memory_order_relaxed);
    snapshot_count_.store(0, std::memory_order_relaxed);
    delta_bytes_.store(0, std::memory_order_relaxed);
    snapshot_bytes_.store(0, std::memory_order_relaxed);
    full_bytes_equivalent_.store(0, std::memory_order_relaxed);
    max_replay_.store(0, std::memory_order_relaxed);
  };
  reset_in_place();
  if (!LoadCheckpoint(payload, lsn)) {
    reset_in_place();  // LoadCheckpoint may have partially applied
    return false;
  }
  return true;
}

std::uint64_t EventJournal::ApplyReplicated(const WalRecord& record) {
  observed_.clear();
  const std::uint64_t seqno =
      ApplyEvent(record.entity, static_cast<EventKind>(record.kind),
                 record.at, record.delta, /*observe=*/true);
  NotifyObservers();
  return seqno;
}

std::optional<std::uint64_t> EventJournal::Checkpoint(std::string* error) {
  if (wal_ == nullptr) {
    if (error != nullptr) *error = "journal has no WAL configured";
    return std::nullopt;
  }
  std::string err;
  if (!wal_->Open(&err)) {
    if (error != nullptr) *error = err;
    return std::nullopt;
  }
  const std::uint64_t lsn = wal_->last_lsn();
  const std::string payload = EncodeCheckpoint(lsn);
  if (!wal_->WriteCheckpoint(lsn, payload, &err)) {
    if (error != nullptr) *error = err;
    return std::nullopt;
  }
  return lsn;
}

RecoveryReport EventJournal::Recover() {
  TRACE_SPAN("storage", "journal.recover");
  RecoveryReport report;
  if (wal_ == nullptr) {
    report.error = "journal has no WAL configured";
    return report;
  }

  const auto reset = [&] {
    shards_ = std::make_unique<Shard[]>(shard_count_);
    event_count_.store(0, std::memory_order_relaxed);
    snapshot_count_.store(0, std::memory_order_relaxed);
    delta_bytes_.store(0, std::memory_order_relaxed);
    snapshot_bytes_.store(0, std::memory_order_relaxed);
    full_bytes_equivalent_.store(0, std::memory_order_relaxed);
    max_replay_.store(0, std::memory_order_relaxed);
  };
  reset();

  std::string error;
  if (!wal_->Open(&error)) {
    report.error = error;
    return report;
  }

  // Newest checkpoint that validates and parses wins; corrupt or torn
  // ones fall back to older, then to empty-state full replay.
  std::uint64_t checkpoint_lsn = 0;
  for (const std::uint64_t lsn : wal_->ListCheckpoints()) {
    const auto payload = wal_->ReadCheckpoint(lsn);
    if (payload.has_value() && LoadCheckpoint(*payload, lsn)) {
      checkpoint_lsn = lsn;
      break;
    }
    ++report.checkpoints_rejected;
    reset();  // LoadCheckpoint may have partially applied
  }
  report.checkpoint_lsn = checkpoint_lsn;
  // If tail truncation cut the log below the checkpoint, future appends
  // must still get fresh LSNs beyond what the checkpoint covers.
  wal_->ReserveLsnsThrough(checkpoint_lsn);

  WriteAheadLog::ReplayStats stats;
  const bool ok = wal_->Replay(
      checkpoint_lsn,
      [&](const WalRecord& record) {
        ApplyEvent(record.entity, static_cast<EventKind>(record.kind),
                   record.at, record.delta, /*observe=*/false);
      },
      &stats, &error);
  if (!ok) {
    report.error = error;
    return report;
  }
  report.replayed_records = stats.records;
  report.truncated_bytes = wal_->truncated_bytes();
  report.corrupt_records = wal_->corrupt_records();
  report.recovered_events = event_count();
  report.ok = true;
  return report;
}

}  // namespace censys::storage
