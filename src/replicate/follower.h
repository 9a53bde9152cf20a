// A read replica: journal + read stack fed by shipped WAL records.
//
// A Shipment is one contiguous run of the leader's WAL frames, byte for
// byte as WriteAheadLog::ReadTail read them (storage/frame.h framing),
// covering (prev_lsn, last_lsn]. The frames travel a simulated link that
// can lose, reorder, corrupt, or truncate them ("replicate.ship", see
// group.h), so Apply checks every frame as it walks the run and stops at
// the first torn or corrupt one: the whole-frame prefix still applies,
// exactly like a torn log tail, and the shipment is NACKed.
//
// A Follower owns a complete, WAL-less copy of the serving read path — an
// EventJournal, a passive WriteSide (required by ReadSide, never fed scan
// traffic), a ReadSide with its own ViewCache, a SearchIndex subscribed to
// the journal's commit stream (each applied record re-indexes its entity
// from the post-state), and an empty AnalyticsStore. It bootstraps from a
// leader snapshot (EncodeReplicaSnapshot), then tails shipments: duplicate
// prefixes are skipped, gaps and corrupt frames are NACKed for re-request,
// and every applied record advances the published staleness watermark
// (applied_lsn). "replicate.apply" faults fire per
// shipped record: kCrash throws fault::CrashException out of Apply — the
// SIGKILL stand-in; nothing here catches it — and any other mode stalls
// the remainder of the shipment for a later retry.
//
// Concurrency: Apply/Bootstrap run on the replication pump (one thread);
// read_side()/index()/analytics() serve concurrent readers through their
// own locks, exactly like the leader's read path. Kill() and applied_lsn()
// are safe from any thread. The object's address (and the addresses of its
// read stack) are stable across Kill/Bootstrap cycles, so a ServingFrontend
// bound to a follower survives its death and revival.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/metrics.h"
#include "pipeline/read_side.h"
#include "pipeline/write_side.h"
#include "search/analytics.h"
#include "search/index.h"
#include "storage/journal.h"

namespace censys::replicate {

struct Shipment {
  std::uint64_t prev_lsn = 0;  // the LSN this run extends
  std::uint64_t last_lsn = 0;  // LSN of the last frame
  std::string frames;          // the leader's WAL frames, as read
};

// FNV-1a over the journal's canonical ScanAll order — the cross-replica
// fidelity oracle: equal digests at equal watermarks mean byte-identical
// journaled state.
std::uint64_t JournalDigest(const storage::EventJournal& journal);

class Follower {
 public:
  struct Options {
    // Journal shape; must match the leader's snapshot cadence / tiering
    // (a follower with a different snapshot_every would journal different
    // snapshot rows and digests would diverge). wal.dir must stay empty.
    storage::EventJournal::Options journal{};
  };

  Follower(std::string name, Options options);

  Follower(const Follower&) = delete;
  Follower& operator=(const Follower&) = delete;

  // --- replication protocol ---------------------------------------------------
  // (Re-)initializes from a leader snapshot covering `lsn`: resets the
  // journal in place, rebuilds the search index (search::IndexJournal),
  // clears the view cache, and starts serving. Returns false on a corrupt
  // snapshot (the follower stays down).
  bool Bootstrap(std::string_view snapshot, std::uint64_t lsn);

  enum class Ingest : std::uint8_t {
    kApplied = 0,    // every new record applied
    kDuplicate = 1,  // entirely at or below applied_lsn; nothing to do
    kGap = 2,        // prev_lsn ahead of applied_lsn: NACK, re-request
    kCorrupt = 3,    // a frame was torn or failed CRC/decode, or the run
                     // ended before last_lsn: valid prefix applied
    kStalled = 4,    // injected apply stall: prefix applied, retry later
    kDead = 5,       // follower is killed; shipment dropped
  };
  struct IngestResult {
    Ingest status = Ingest::kDuplicate;
    std::uint64_t applied_records = 0;
  };

  // Ingests one shipment. May throw fault::CrashException mid-apply
  // ("replicate.apply" kCrash): already-applied records stay applied —
  // each record applies atomically — and the harness Kill()s the follower.
  IngestResult Apply(const Shipment& shipment);

  // --- staleness watermark ----------------------------------------------------
  std::uint64_t applied_lsn() const {
    return applied_lsn_.load(std::memory_order_acquire);
  }
  std::uint64_t LagBehind(std::uint64_t leader_lsn) const {
    const std::uint64_t applied = applied_lsn();
    return leader_lsn > applied ? leader_lsn - applied : 0;
  }

  // --- lifecycle (chaos) ------------------------------------------------------
  bool serving() const { return serving_.load(std::memory_order_acquire); }
  // Simulated process death: stops accepting shipments and reads until the
  // next Bootstrap. The in-memory state is deliberately kept (a killed
  // process's memory is gone, but re-bootstrap overwrites everything —
  // keeping it lets tests assert the pre-crash prefix stayed consistent).
  void Kill() { serving_.store(false, std::memory_order_release); }

  // --- read stack -------------------------------------------------------------
  const std::string& name() const { return name_; }
  const storage::EventJournal& journal() const { return journal_; }
  const pipeline::ReadSide& read_side() const { return read_side_; }
  const search::SearchIndex& index() const { return index_; }
  const search::AnalyticsStore& analytics() const { return analytics_; }

  std::uint64_t Digest() const { return JournalDigest(journal_); }

  // --- accounting -------------------------------------------------------------
  std::uint64_t applied_records() const {
    return applied_records_.load(std::memory_order_relaxed);
  }
  std::uint64_t bootstraps() const {
    return bootstraps_.load(std::memory_order_relaxed);
  }
  std::uint64_t gap_nacks() const {
    return gap_nacks_.load(std::memory_order_relaxed);
  }
  std::uint64_t corrupt_shipments() const {
    return corrupt_shipments_.load(std::memory_order_relaxed);
  }

 private:
  std::string name_;
  Options options_;

  storage::EventJournal journal_;
  pipeline::WriteSide write_side_;
  pipeline::ReadSide read_side_;
  search::SearchIndex index_;
  search::AnalyticsStore analytics_;

  std::atomic<std::uint64_t> applied_lsn_{0};
  std::atomic<bool> serving_{false};
  std::atomic<std::uint64_t> applied_records_{0};
  std::atomic<std::uint64_t> bootstraps_{0};
  std::atomic<std::uint64_t> gap_nacks_{0};
  std::atomic<std::uint64_t> corrupt_shipments_{0};
};

}  // namespace censys::replicate
