// The Bigtable-backed event journal (§5.2).
//
// Entity state is journaled as a sequence of delta-encoded events keyed by
// (Entity ID, monotonic Sequence Number). Snapshots bound replay length;
// rows older than the latest snapshot migrate from SSD to HDD. Lookups at
// arbitrary timestamps reconstruct state by applying journal events on top
// of the nearest prior snapshot — exactly the read path of §5.2.
//
// Concurrency: entity metadata and the backing OrderedKv are partitioned
// across N lock-striped shards keyed by a stable hash of the entity id.
// Each shard is guarded by a shared_mutex, so CurrentState / SnapshotState /
// ReconstructAt / History on one entity run concurrently with Append on
// another (and concurrently with each other on the same entity). Writers
// take the shard lock exclusively. Aggregate counters are relaxed atomics.
// Shard count does not change journal *content*: the same entity always
// lands in the same shard for a given configuration, and ScanAll() visits
// rows in canonical key order regardless of sharding — the digest tests
// rely on this.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/metrics.h"
#include "core/thread_safety.h"
#include "core/types.h"
#include "storage/delta.h"
#include "storage/kv.h"
#include "storage/wal.h"

namespace censys::storage {

enum class EventKind : std::uint8_t {
  kServiceFound = 0,
  kServiceChanged = 1,
  kServiceRemoved = 2,
  kEntityUpdated = 3,
};

std::string_view ToString(EventKind k);

struct JournalEvent {
  std::uint64_t seqno = 0;
  Timestamp at;
  EventKind kind = EventKind::kEntityUpdated;
  Delta delta;
};

// A point-in-time copy of an entity's current state plus the seqno
// watermark (next unassigned seqno) it was taken at. The watermark is the
// read-side cache key: it advances exactly when the entity journals a new
// event, so equal watermarks mean byte-identical journaled state.
struct VersionedState {
  FieldMap fields;
  std::uint64_t watermark = 0;
};

// Thrown by Append when the configured WAL rejects the record (real or
// injected I/O failure). The in-memory journal is untouched: an event is
// either durable in the log *and* applied, or neither. Derived from
// std::runtime_error on purpose — unlike fault::CrashException this is an
// ordinary, catchable error.
class WalIoError : public std::runtime_error {
 public:
  explicit WalIoError(const std::string& what) : std::runtime_error(what) {}
};

// What EventJournal::Recover() found on disk.
struct RecoveryReport {
  bool ok = false;
  std::string error;
  // LSN of the checkpoint recovery started from (0 = none usable).
  std::uint64_t checkpoint_lsn = 0;
  // Stale/corrupt checkpoints skipped before one loaded (or all failed).
  std::uint64_t checkpoints_rejected = 0;
  // WAL records replayed on top of the checkpoint.
  std::uint64_t replayed_records = 0;
  // Bytes dropped at torn/corrupt log tails during the recovery scan.
  std::uint64_t truncated_bytes = 0;
  std::uint64_t corrupt_records = 0;
  // Total events in the journal after recovery.
  std::uint64_t recovered_events = 0;
};

// One event as applied by Append/AppendBatch/ApplyReplicated, as seen by
// a commit observer. Every pointer / view aliases storage owned by the
// caller or the journal and is valid only for the duration of the
// observer call: `post_state` points at the entity's live current-state
// map (stable across rehash, but mutated by the next command-thread
// append).
struct AppliedEvent {
  std::string_view entity_id;
  std::uint64_t seqno = 0;
  EventKind kind = EventKind::kEntityUpdated;
  Timestamp at;
  const Delta* delta = nullptr;
  const FieldMap* post_state = nullptr;  // state *after* applying delta
};

class EventJournal {
 public:
  struct Options {
    // Snapshot every N events per entity ("Censys regularly snapshots
    // entity state to minimize the maximum number of events that need to
    // be retrieved for a query").
    std::uint32_t snapshot_every = 16;
    // Automatically migrate pre-snapshot rows to HDD on snapshot.
    bool auto_tier = true;
    // Lock stripes. Entities hash onto shards; more shards means less
    // reader/writer contention. Content is shard-count independent.
    std::uint32_t shards = 16;
    // Write-ahead log configuration. A non-empty wal.dir enables
    // durability: every Append is logged before it is applied, and
    // Checkpoint()/Recover() persist and restore full journal state.
    WriteAheadLog::Options wal{};
  };

  EventJournal() : EventJournal(Options{}) {}
  explicit EventJournal(Options options);

  EventJournal(const EventJournal&) = delete;
  EventJournal& operator=(const EventJournal&) = delete;

  // Applies `delta` to the entity's current state, journals the event, and
  // returns its sequence number. Empty deltas with kind kEntityUpdated are
  // skipped (no-op refreshes produce no journal rows or WAL records).
  // With a WAL configured the record is logged *before* any in-memory
  // mutation; a log failure throws WalIoError and leaves the journal
  // untouched. May propagate fault::CrashException from armed crash points.
  std::uint64_t Append(std::string_view entity_id, EventKind kind,
                       Timestamp at, const Delta& delta);

  // One staged journal append, buffered by the write side's group commit.
  struct PendingEvent {
    std::string entity_id;
    EventKind kind = EventKind::kEntityUpdated;
    Timestamp at;
    Delta delta;
  };

  // Group commit: journals every event in order with ONE WAL batch append
  // (at most one fsync) instead of one log write per event. Equivalent to
  // calling Append for each element — same seqnos, same rows, same WAL
  // framing — so batch boundaries never change journal content or replay.
  // A WAL error-return rejects the whole batch (WalIoError, journal
  // untouched); an armed crash/torn-write fault may leave a record-aligned
  // prefix durable, which recovery replays like any other tail. Takes the
  // batch by value so staged deltas move into the WAL framing instead of
  // being copied once per record.
  void AppendBatch(std::vector<PendingEvent> events);

  // --- durability (WAL-backed journals only) ---------------------------------
  bool wal_enabled() const { return wal_ != nullptr; }
  WriteAheadLog* wal() { return wal_.get(); }

  // Durably persists the full journal state (metadata, rows, tiers,
  // counters) as a checkpoint covering the WAL's current last LSN, then
  // lets the WAL prune covered segments. Returns the covered LSN, or
  // nullopt on failure. Must not race Append — call at a quiescent point
  // (e.g. between engine ticks).
  std::optional<std::uint64_t> Checkpoint(std::string* error);

  // Rebuilds the journal from disk: newest valid checkpoint (corrupt ones
  // fall back to older, then to empty) plus a replay of every WAL record
  // after it. Torn/corrupt log tails are truncated, not fatal. The
  // resulting journal is byte-identical (ScanAll digest) to an uncrashed
  // journal that appended the same durable prefix. Startup-only: call on a
  // freshly constructed journal before any Append.
  RecoveryReport Recover();

  // --- replication (src/replicate/) -------------------------------------------
  // Serializes full journal state for replica bootstrap — the same payload
  // format Checkpoint() persists, produced without touching disk. `lsn` is
  // the WAL LSN the snapshot covers (the leader's last durable LSN at a
  // quiescent point; the caller must not race Append).
  std::string EncodeReplicaSnapshot(std::uint64_t lsn) const;

  // Follower (re-)bootstrap: resets this journal *in place* and loads
  // `payload` (which must cover `lsn`). Unlike Recover(), the Shard array
  // is never reallocated — each shard is cleared under its own exclusive
  // lock — so a ReadSide serving concurrent lookups against this journal
  // stays memory-safe throughout (readers see empty-then-loading state,
  // never freed memory). Returns false and leaves the journal empty on a
  // corrupt payload.
  bool LoadReplicaSnapshot(std::string_view payload, std::uint64_t lsn);

  // Applies one shipped WAL record without logging it locally (followers
  // keep no WAL of their own; durability lives on the leader). Equivalent
  // to the Recover() replay path, one record at a time, except that the
  // commit observers see it, as a one-event batch.
  std::uint64_t ApplyReplicated(const WalRecord& record);

  // --- commit observation (derived views) -------------------------------------
  // The journal's commit stream: the one way a view derived from the
  // journal (pivot tables, standing queries, a follower's search index)
  // learns about a commit. Observers are called in registration order,
  // once per Append / AppendBatch and once per ApplyReplicated record (a
  // one-event batch), on the command thread, after every shard lock is
  // released, with the events the call applied in seqno order. The vector
  // and everything its elements point at are valid only during the call.
  // NOT invoked for Recover() replay or LoadReplicaSnapshot(): a view
  // built from a loaded state walks it instead. An observer must not
  // append to this journal.
  using CommitObserver = std::function<void(const std::vector<AppliedEvent>&)>;
  // Registers one more observer (the name predates the list; it never
  // replaces one). Register only at a quiescent point (no concurrent
  // Append).
  void SetCommitObserver(CommitObserver observer) {
    observers_.push_back(std::move(observer));
  }

  const Options& options() const { return options_; }

  // Cached current state (the fast path behind the Lookup API). The
  // returned pointer is stable but its contents are only safe to read from
  // the (single) writer thread; concurrent readers must use SnapshotState.
  // Statically: callers must hold the journal's command-thread capability
  // (ThreadRoleGuard); at runtime, debug builds assert the calling thread.
  const FieldMap* CurrentState(std::string_view entity_id) const
      CENSYS_REQUIRES(command_role());

  // Copy of the current state plus its seqno watermark, taken atomically
  // under the shard's reader lock. This is the concurrent read path.
  std::optional<VersionedState> SnapshotState(std::string_view entity_id) const;

  // The entity's seqno watermark (next unassigned seqno); 0 for entities
  // with no journal rows. Cheap: one shared lock, no state copy.
  std::uint64_t Watermark(std::string_view entity_id) const;

  // Reconstructs entity state as of `at` from snapshot + replay. Returns
  // nullopt for entities with no events at or before `at`.
  std::optional<FieldMap> ReconstructAt(std::string_view entity_id,
                                        Timestamp at) const;

  // All events of an entity in seqno order (history API).
  std::vector<JournalEvent> History(std::string_view entity_id) const;

  // Entities with at least one journal row, sorted.
  std::vector<std::string> EntityIds() const;
  // Visits every entity's current state in sorted-id order.
  void ForEachEntity(
      const std::function<void(std::string_view, const FieldMap&)>& fn) const;
  // Visits the entities named by `ids` (typically a contiguous slice of
  // EntityIds()) in the given order, skipping ids with no journal rows.
  // Each state is read in place under its shard's reader lock, held only
  // around the callback, so several threads may visit disjoint (or
  // overlapping) slices at once. `fn` must not call back into the
  // journal's writers.
  void ForEachEntityIn(
      std::span<const std::string> ids,
      const std::function<void(std::string_view, const FieldMap&)>& fn) const;

  // Visits every row of every shard in canonical (lexicographic key) order
  // — the same order the pre-sharding single table scanned in, independent
  // of shard count. Used by digests, dumps, and growth accounting.
  void ScanAll(const std::function<bool(std::string_view key,
                                        std::string_view value)>& visit) const;

  // --- storage accounting ---------------------------------------------------
  std::uint64_t event_count() const {
    return event_count_.load(std::memory_order_relaxed);
  }
  std::uint64_t snapshot_count() const {
    return snapshot_count_.load(std::memory_order_relaxed);
  }
  // Bytes of encoded deltas actually journaled.
  std::uint64_t delta_bytes() const {
    return delta_bytes_.load(std::memory_order_relaxed);
  }
  // Bytes of encoded snapshots written.
  std::uint64_t snapshot_bytes() const {
    return snapshot_bytes_.load(std::memory_order_relaxed);
  }
  // Aggregates across shards (the old single-table accessors).
  std::size_t RowCount() const;
  std::uint64_t bytes_on(Tier tier) const;
  std::uint64_t total_bytes() const { return bytes_on(Tier::kSsd) + bytes_on(Tier::kHdd); }

  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shard_count_);
  }

  // Registers censys.storage.* instruments (events, snapshots, bytes).
  void BindMetrics(metrics::Registry* registry);
  // Bytes that journaling full records instead would have cost (the
  // delta-encoding ablation of DESIGN.md §4.6).
  std::uint64_t full_record_bytes_equivalent() const {
    return full_bytes_equivalent_.load(std::memory_order_relaxed);
  }

  // Longest replay (events applied after the snapshot) seen by a
  // ReconstructAt call; snapshots exist to bound this.
  std::uint64_t max_replay_length() const {
    return max_replay_.load(std::memory_order_relaxed);
  }

  // The command-thread capability backing CurrentState's pointer contract.
  // Append (re-)stamps the command thread in debug builds.
  const core::ThreadRole& command_role() const { return command_role_; }

 private:
  struct EntityMeta {
    std::uint64_t next_seqno = 0;
    std::uint64_t last_snapshot_seqno = 0;
    bool has_snapshot = false;
    std::uint32_t events_since_snapshot = 0;
    FieldMap current;
    // Encoded size of `current`'s (key, value) pairs, maintained
    // incrementally per delta op so the full-record ablation counter costs
    // O(ops) per append instead of re-encoding the whole entity.
    std::uint64_t fields_bytes = 0;
  };

  struct Shard {
    mutable core::SharedMutex mu;
    OrderedKv table CENSYS_GUARDED_BY(mu);
    std::unordered_map<std::string, EntityMeta> meta CENSYS_GUARDED_BY(mu);
  };

  static std::string EventKey(std::string_view entity, std::uint64_t seqno);
  static std::string SnapshotKey(std::string_view entity, std::uint64_t seqno);

  Shard& ShardFor(std::string_view entity_id) const;

  void WriteSnapshot(Shard& shard, std::string_view entity_id,
                     EntityMeta& meta, Timestamp at)
      CENSYS_REQUIRES(shard.mu);

  // The shared body of Append and WAL replay: applies and journals one
  // event. `durable` selects whether the record is WAL-logged first
  // (replay must not re-log what it reads from the log); `observe` stages
  // the event for the commit observers (live appends and replicated
  // records; Recover() replay applies with observe=false).
  std::uint64_t ApplyEvent(std::string_view entity_id, EventKind kind,
                           Timestamp at, const Delta& delta, bool durable,
                           bool observe);

  // Delivers (and clears) the staged observed_ batch. Command thread
  // only; called by Append/AppendBatch/ApplyReplicated after their shard
  // locks drop.
  void NotifyObservers();

  // Serializes / restores full journal state for checkpoints.
  std::string EncodeCheckpoint(std::uint64_t lsn) const;
  bool LoadCheckpoint(std::string_view payload, std::uint64_t expect_lsn);

  Options options_{};
  std::size_t shard_count_ = 1;
  std::unique_ptr<Shard[]> shards_;
  std::unique_ptr<WriteAheadLog> wal_;
  core::ThreadRole command_role_;

  // Commit observation: both are touched only on the command thread
  // (Append/AppendBatch/ApplyReplicated callers), so they need no lock of
  // their own.
  std::vector<CommitObserver> observers_;
  std::vector<AppliedEvent> observed_;

  std::atomic<std::uint64_t> event_count_{0};
  std::atomic<std::uint64_t> snapshot_count_{0};
  std::atomic<std::uint64_t> delta_bytes_{0};
  std::atomic<std::uint64_t> snapshot_bytes_{0};
  std::atomic<std::uint64_t> full_bytes_equivalent_{0};
  mutable std::atomic<std::uint64_t> max_replay_{0};

  metrics::CounterHandle events_metric_;
  metrics::CounterHandle snapshots_metric_;
  metrics::CounterHandle delta_bytes_metric_;
  metrics::CounterHandle snapshot_bytes_metric_;
};

}  // namespace censys::storage
