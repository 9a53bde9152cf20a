// CQRS write side (§5.2).
//
// Inbound scans are commands: the processor retrieves the entity's current
// state, computes an update delta, and journals the resulting event (found /
// changed / removed). Downstream processing (the secondary pivot tables,
// standing queries) subscribes to the journal's commit stream
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

  // The pseudo-service content hash IngestScan buckets records by. Exposed
  // so interrogation workers can precompute it off the command thread.
  static std::uint64_t ContentHash(const ServiceRecord& record);

  // A successful interrogation of `record.key`.
  void IngestScan(const ServiceRecord& record);

  // Same, with the entity-field projection and pseudo-service content hash
  // precomputed (interrogation workers do both off-thread; the serial
  // commit stage then only diffs and journals). `service_fields` must equal
  // ServiceFields(record) and `content_hash` the pseudo-filter hash of the
  // record's banner/title/protocol.
  void IngestScan(const ServiceRecord& record,
                  const storage::FieldMap& service_fields,
                  std::uint64_t content_hash);

  // A failed interrogation (target unreachable / gone).
  void IngestFailure(ServiceKey key, Timestamp at);

  // --- group commit ------------------------------------------------------------
  // Between Begin and End, journal appends from IngestScan are staged
  // rather than written through: FlushCommitBatch (or End, or an ingest
  // that revisits an entity with a staged event — the delta must diff
  // against applied state) drains them with ONE journal/WAL batch append,
  // so the journal's commit observers run inside the flush, with mu_ held:
  // an observer must never call back into the write side. Command-thread
  // only; batch boundaries never change journal content, only WAL write
  // granularity.
  void BeginCommitBatch();
  void FlushCommitBatch();
  void EndCommitBatch();  // flush + leave batching mode

  std::uint64_t batch_flushes() const {
    return batch_flushes_.load(std::memory_order_relaxed);
  }
  // Flushes forced by an entity revisited while its event was staged.
  std::uint64_t revisit_flushes() const {
    return revisit_flushes_.load(std::memory_order_relaxed);
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
  // pseudo suppressions, tracked-service gauge).
  void BindMetrics(metrics::Registry* registry);

  // The command-thread capability backing GetState's pointer contract.
  // Command processing (IngestScan / IngestFailure / AdvanceTo) re-stamps
  // the command thread in debug builds.
  const core::ThreadRole& command_role() const { return command_role_; }

 private:
  void IngestScanLocked(const ServiceRecord& record,
                        const storage::FieldMap* service_fields,
                        const std::uint64_t* content_hash)
      CENSYS_REQUIRES(mu_);
  void FlushCommitBatchLocked() CENSYS_REQUIRES(mu_);
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

  // Pseudo-service detection: per-host count of services sharing one
  // content hash.
  struct HostCounts {
    std::unordered_map<std::uint64_t, std::uint32_t> by_content;
    std::uint32_t total = 0;
  };
  std::unordered_map<std::uint32_t, HostCounts> host_counts_
      CENSYS_GUARDED_BY(mu_);
  std::unordered_map<std::uint32_t, bool> pseudo_hosts_ CENSYS_GUARDED_BY(mu_);

  // Group-commit staging (command thread, under mu_).
  bool batching_ CENSYS_GUARDED_BY(mu_) = false;
  std::vector<storage::EventJournal::PendingEvent> staged_events_
      CENSYS_GUARDED_BY(mu_);
  // Hosts with a staged (unapplied) journal event; an ingest for one of
  // these forces a flush so its delta diffs against applied state.
  std::unordered_set<std::uint32_t> staged_hosts_ CENSYS_GUARDED_BY(mu_);

  std::atomic<std::uint64_t> scans_ingested_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> pseudo_suppressed_{0};
  std::atomic<std::uint64_t> batch_flushes_{0};
  std::atomic<std::uint64_t> revisit_flushes_{0};

  metrics::CounterHandle ingest_metric_;
  metrics::CounterHandle failure_metric_;
  metrics::CounterHandle eviction_metric_;
  metrics::CounterHandle pseudo_metric_;
  metrics::GaugeHandle tracked_metric_;
};

}  // namespace censys::pipeline
