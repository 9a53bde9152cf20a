// CQRS write side (§5.2).
//
// Inbound scans are commands: the processor retrieves the entity's current
// state, computes an update delta, and journals the resulting event (found /
// changed / removed). Every event, scan or removal, is staged and reaches
// the journal through EventJournal::AppendBatch (see group commit below).
// Downstream processing (the secondary pivot tables, standing queries)
// subscribes to the journal's commit stream
// (EventJournal::SetCommitObserver), never to the write side. The write
// side also owns scan-state that is deliberately NOT journaled (last-seen
// times, pending-eviction marks) and implements the eviction policy of
// §4.6: pending eviction after the first failed refresh, removal after 72
// hours, with removed services remembered for 60 days so the predictive
// engine can re-inject them.
//
// Concurrency: there is exactly one command thread (the engine tick loop),
// but the serving layer reads scan-state from many threads concurrently.
// A shared_mutex guards the maps: command processing takes it exclusively,
// queries take it shared. GetState() returns a raw pointer and is therefore
// only safe from the command thread; concurrent readers use GetStateCopy().
// PrepareScan reads no write-side state, only the journal (under its shard
// reader locks), so interrogation workers call it while the command thread
// commits.
// Per-host scan-state revisions feed the read-side view cache: they bump
// whenever non-journaled state visible in a HostView changes.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/metrics.h"
#include "core/thread_safety.h"
#include "pipeline/record.h"
#include "storage/journal.h"

namespace censys::pipeline {

struct ServiceState {
  ServiceKey key;
  Timestamp first_seen;
  Timestamp last_seen;        // last successful interrogation
  Timestamp last_refreshed;   // last attempt, successful or not
  std::optional<Timestamp> pending_eviction_since;
};

class WriteSide {
 public:
  struct Options {
    Duration eviction_deadline = Duration::Hours(72);
    Duration reinjection_window = Duration::Days(60);
    // Hosts whose near-identical service count exceeds this are flagged as
    // pseudo-service middleboxes and their services suppressed (the
    // "Beyond Noise" filter the evaluation references, §6.1).
    std::uint32_t pseudo_service_threshold = 20;
    bool filter_pseudo_services = true;
  };

  explicit WriteSide(storage::EventJournal& journal)
      : WriteSide(journal, Options()) {}
  WriteSide(storage::EventJournal& journal, Options options);

  // The part of a scan command that is a pure function of the record and
  // the host's applied journal state, computed ahead of IngestScan so it
  // can run off the command thread (the tick pipeline's workers do).
  struct PreparedScan {
    storage::FieldMap service_fields;  // ServiceFields(record)
    // The pseudo-service content hash IngestScan buckets records by.
    std::uint64_t content_hash = 0;
    std::string entity;                // HostEntityId(record.key.ip)
    // UpsertServiceDelta of the service against the host's applied state
    // as PrepareScan read it.
    storage::Delta delta;
  };

  // Projects, hashes and diffs `record`, reading the host's applied state
  // in place under its journal shard's reader lock. Safe on any thread,
  // concurrently with the command thread's flushes.
  PreparedScan PrepareScan(const ServiceRecord& record) const;

  // A successful interrogation of `record.key`, projected and diffed on
  // the command thread.
  void IngestScan(const ServiceRecord& record);

  // Same, with `prepared` = PrepareScan(record) made inside the current
  // Begin/End window (or, outside one, after the last journal write).
  // Takes the entity id and delta out of `prepared`; the projection stays
  // with the caller, so a worker's allocation is freed by the worker.
  // UpsertServiceDelta reads only the service's own field range, and the
  // only journal writer is this command thread, so the prepared delta is
  // exact unless the service itself received an event since
  // BeginCommitBatch: then IngestScan diffs again against CurrentState,
  // with the same function, and counts a re-diff (rediffs()).
  void IngestScan(const ServiceRecord& record, PreparedScan&& prepared);

  // A failed interrogation (target unreachable / gone).
  void IngestFailure(ServiceKey key, Timestamp at);

  // --- group commit ------------------------------------------------------------
  // Every journal event (IngestScan's found/changed events, pseudo-host
  // removals, evictions) is staged, and a flush drains the staged events
  // with ONE journal/WAL batch append. An event for a host that already has
  // a staged event flushes first, so a command-thread diff reads applied
  // state (a revisit flush). Outside a Begin/End window each IngestScan and
  // AdvanceTo call flushes before it returns; between Begin and End only
  // FlushCommitBatch, End and revisits flush. Begin also starts the
  // window's written-key set: the services that received an event (scan or
  // removal) since, whose prepared deltas IngestScan re-diffs. The
  // journal's commit observers run inside the flush, with mu_ held: an
  // observer must never call back into the write side. Command-thread only;
  // batch boundaries never change journal content, only WAL write
  // granularity.
  void BeginCommitBatch();
  void FlushCommitBatch();
  void EndCommitBatch();  // flush + leave batching mode

  std::uint64_t batch_flushes() const {
    return batch_flushes_.load(std::memory_order_relaxed);
  }
  // Flushes forced by a host revisited while its event was staged.
  std::uint64_t revisit_flushes() const {
    return revisit_flushes_.load(std::memory_order_relaxed);
  }
  // Prepared deltas IngestScan discarded and diffed again, because their
  // service received an event earlier in the window.
  std::uint64_t rediffs() const {
    return rediffs_.load(std::memory_order_relaxed);
  }

  // Evicts services whose pending-eviction deadline has passed.
  void AdvanceTo(Timestamp now);

  // --- due-time index ----------------------------------------------------------
  // Both sets come from an index kept beside the scan state, so their cost
  // follows what is due, not the map size. Command thread only.
  //
  // Services last refreshed at or before `cutoff`, in key order.
  std::vector<ServiceState> DueForRefresh(Timestamp cutoff);
  // Services AdvanceTo(now) would evict, in key order.
  std::vector<ServiceKey> DueForEviction(Timestamp now);

  // --- scan-state queries -----------------------------------------------------
  // Command-thread fast path: pointer into the map, invalidated by a
  // concurrent eviction. Concurrent readers use GetStateCopy. Callers must
  // hold the command-thread capability (ThreadRoleGuard); debug builds
  // assert the calling thread at runtime.
  const ServiceState* GetState(ServiceKey key) const
      CENSYS_REQUIRES(command_role());
  // Thread-safe snapshot of one service's scan state.
  std::optional<ServiceState> GetStateCopy(ServiceKey key) const;
  void ForEachTracked(
      const std::function<void(const ServiceState&)>& fn) const;
  std::size_t tracked_count() const;

  // Monotonic per-host revision of non-journaled scan state (last_seen,
  // last_refreshed, pending-eviction marks, evictions). Together with the
  // journal seqno watermark it forms the view-cache freshness stamp.
  std::uint64_t ScanRevision(IPv4Address ip) const;

  // Services pruned within the re-injection window, oldest first.
  std::vector<ServiceKey> RecentlyPruned(Timestamp now) const;

  struct PrunedService {
    ServiceKey key;
    Timestamp pruned_at;
  };
  // Full pruned list with timestamps (drives the re-injection schedule).
  void ForEachPruned(
      const std::function<void(const PrunedService&)>& fn) const;

  bool IsPseudoFlagged(IPv4Address ip) const;

  // --- stats -------------------------------------------------------------------
  std::uint64_t scans_ingested() const {
    return scans_ingested_.load(std::memory_order_relaxed);
  }
  std::uint64_t services_evicted() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  std::uint64_t pseudo_suppressed() const {
    return pseudo_suppressed_.load(std::memory_order_relaxed);
  }

  // Registers censys.pipeline.* instruments (ingests, failures, evictions,
  // pseudo suppressions, re-diffs, tracked-service gauge).
  void BindMetrics(metrics::Registry* registry);

  // The command-thread capability backing GetState's pointer contract.
  // Command processing (IngestScan / IngestFailure / AdvanceTo) re-stamps
  // the command thread in debug builds.
  const core::ThreadRole& command_role() const { return command_role_; }

 private:
  // PreparedScan::content_hash of `record`.
  static std::uint64_t ContentHash(const ServiceRecord& record);
  // `prepared` is null for a command-thread diff.
  void IngestScanLocked(const ServiceRecord& record, PreparedScan* prepared)
      CENSYS_REQUIRES(mu_, journal_.command_role());
  void FlushCommitBatchLocked() CENSYS_REQUIRES(mu_);
  // The revisit rule: flushes when `host` has a staged event.
  void FlushIfStagedLocked(std::uint32_t host) CENSYS_REQUIRES(mu_);
  // Stages the removal of `key`'s fields from its host entity (nothing
  // when the journal holds none), after the revisit rule, and adds `key`
  // to the written-key set.
  void StageRemovalLocked(ServiceKey key, Timestamp at)
      CENSYS_REQUIRES(mu_, journal_.command_role());
  // Sets last_refreshed and files the service under it in the due index.
  void MarkRefreshed(ServiceState& state, Timestamp at) CENSYS_REQUIRES(mu_);
  std::vector<ServiceKey> DueForEvictionLocked(Timestamp now)
      CENSYS_REQUIRES(mu_);
  void Evict(ServiceKey key, Timestamp now)
      CENSYS_REQUIRES(mu_, journal_.command_role());
  void BumpRevision(IPv4Address ip) CENSYS_REQUIRES(mu_) {
    ++host_revisions_[ip.value()];
  }

  storage::EventJournal& journal_;
  Options options_;

  // Guards every map below. Writers (IngestScan / IngestFailure /
  // AdvanceTo) are exclusive; queries are shared.
  mutable core::SharedMutex mu_;
  core::ThreadRole command_role_;

  // Service scan state by packed key.
  std::unordered_map<std::uint64_t, ServiceState> states_ CENSYS_GUARDED_BY(mu_);
  // The due-time index over states_. Every write of a last_refreshed files
  // the packed key under that time; every pending-eviction mark appends it
  // to eviction_pending_. Entries are never erased eagerly: a reader drops
  // the ones states_ no longer backs (refreshed again, cleared, evicted or
  // pseudo-suppressed) and collapses duplicates, so removals need no hooks.
  std::map<Timestamp, std::vector<std::uint64_t>> refresh_due_
      CENSYS_GUARDED_BY(mu_);
  std::vector<std::uint64_t> eviction_pending_ CENSYS_GUARDED_BY(mu_);
  struct PrunedEntry {
    ServiceKey key;
    Timestamp pruned_at;
  };
  std::deque<PrunedEntry> pruned_ CENSYS_GUARDED_BY(mu_);
  std::unordered_map<std::uint32_t, std::uint64_t> host_revisions_
      CENSYS_GUARDED_BY(mu_);

  // Pseudo-service detection: the count of a host's services sharing one
  // content hash, in one map keyed by both.
  struct HostContent {
    std::uint32_t host = 0;
    std::uint64_t content_hash = 0;
    bool operator==(const HostContent&) const = default;
  };
  struct HostContentHash {
    std::size_t operator()(const HostContent& key) const {
      return key.content_hash ^ (key.host * 0x9E3779B97F4A7C15ull);
    }
  };
  std::unordered_map<HostContent, std::uint32_t, HostContentHash>
      content_counts_ CENSYS_GUARDED_BY(mu_);
  std::unordered_set<std::uint32_t> pseudo_hosts_ CENSYS_GUARDED_BY(mu_);

  // Group-commit staging (command thread, under mu_). batching_ is true
  // between Begin and End.
  bool batching_ CENSYS_GUARDED_BY(mu_) = false;
  std::vector<storage::EventJournal::PendingEvent> staged_events_
      CENSYS_GUARDED_BY(mu_);
  // Hosts with a staged (unapplied) journal event; a new event for one of
  // these forces a flush so its delta diffs against applied state.
  std::unordered_set<std::uint32_t> staged_hosts_ CENSYS_GUARDED_BY(mu_);
  // Packed keys that received an event since BeginCommitBatch (kept only
  // inside a window); a prepared delta for one of these is re-diffed.
  std::unordered_set<std::uint64_t> written_keys_ CENSYS_GUARDED_BY(mu_);

  std::atomic<std::uint64_t> scans_ingested_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> pseudo_suppressed_{0};
  std::atomic<std::uint64_t> batch_flushes_{0};
  std::atomic<std::uint64_t> revisit_flushes_{0};
  std::atomic<std::uint64_t> rediffs_{0};

  metrics::CounterHandle ingest_metric_;
  metrics::CounterHandle failure_metric_;
  metrics::CounterHandle eviction_metric_;
  metrics::CounterHandle pseudo_metric_;
  metrics::CounterHandle rediff_metric_;
  metrics::GaugeHandle tracked_metric_;
};

}  // namespace censys::pipeline
