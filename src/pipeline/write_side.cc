#include "pipeline/write_side.h"

#include <algorithm>

#include "core/strings.h"
#include "core/trace.h"
#include "pipeline/entity.h"

namespace censys::pipeline {

WriteSide::WriteSide(storage::EventJournal& journal, Options options)
    : journal_(journal), options_(options) {}

void WriteSide::BindMetrics(metrics::Registry* registry) {
  ingest_metric_ =
      metrics::BindCounter(registry, "censys.pipeline.ingest_scans");
  failure_metric_ =
      metrics::BindCounter(registry, "censys.pipeline.ingest_failures");
  eviction_metric_ =
      metrics::BindCounter(registry, "censys.pipeline.evictions");
  pseudo_metric_ =
      metrics::BindCounter(registry, "censys.pipeline.pseudo_suppressed");
  tracked_metric_ =
      metrics::BindGauge(registry, "censys.pipeline.tracked_services");
}

std::uint64_t WriteSide::ContentHash(const ServiceRecord& record) {
  return Fnv1a64(record.banner) ^ Fnv1a64(record.html_title) ^
         Fnv1a64(std::string(proto::Name(record.protocol)));
}

void WriteSide::IngestScan(const ServiceRecord& record) {
  command_role_.AdoptCurrentThread();
  journal_.command_role().AdoptCurrentThread();
  const core::MutexLock lock(mu_);
  IngestScanLocked(record, nullptr, nullptr);
}

void WriteSide::IngestScan(const ServiceRecord& record,
                           const storage::FieldMap& service_fields,
                           std::uint64_t content_hash) {
  command_role_.AdoptCurrentThread();
  journal_.command_role().AdoptCurrentThread();
  const core::MutexLock lock(mu_);
  IngestScanLocked(record, &service_fields, &content_hash);
}

void WriteSide::IngestScanLocked(const ServiceRecord& record,
                                 const storage::FieldMap* service_fields,
                                 const std::uint64_t* precomputed_hash) {
  scans_ingested_.fetch_add(1, std::memory_order_relaxed);
  ingest_metric_.Add();
  const std::uint64_t packed = record.key.Pack();
  const std::uint32_t host = record.key.ip.value();

  // A staged (unapplied) event for this host would make the delta below
  // diff against stale state — drain the batch first. The flush decision
  // depends only on commit sequence order, never on thread timing.
  if (batching_ && staged_hosts_.contains(host)) {
    revisit_flushes_.fetch_add(1, std::memory_order_relaxed);
    FlushCommitBatchLocked();
  }

  // --- pseudo-service filtering ----------------------------------------------
  if (options_.filter_pseudo_services) {
    if (pseudo_hosts_.contains(host)) {
      pseudo_suppressed_.fetch_add(1, std::memory_order_relaxed);
      pseudo_metric_.Add();
      return;
    }
    HostCounts& counts = host_counts_[host];
    const std::uint64_t content_hash =
        precomputed_hash != nullptr ? *precomputed_hash : ContentHash(record);
    if (!states_.contains(packed)) {
      ++counts.total;
      ++counts.by_content[content_hash];
    }
    if (counts.by_content[content_hash] > options_.pseudo_service_threshold) {
      // Host flagged: remove everything we had for it and suppress future
      // services. Removals are journaled write-through, so drain any other
      // staged events first to keep the WAL in sequence order.
      if (batching_) FlushCommitBatchLocked();
      pseudo_hosts_.emplace(host, true);
      const std::string entity = HostEntityId(record.key.ip);
      if (const storage::FieldMap* state = journal_.CurrentState(entity)) {
        for (ServiceKey key : ServicesIn(*state, record.key.ip)) {
          const storage::Delta delta = RemoveServiceDelta(*state, key);
          if (!delta.empty()) {
            journal_.Append(entity, storage::EventKind::kServiceRemoved,
                            record.observed_at, delta);
          }
          states_.erase(key.Pack());
          pseudo_suppressed_.fetch_add(1, std::memory_order_relaxed);
          pseudo_metric_.Add();
        }
      }
      BumpRevision(record.key.ip);
      tracked_metric_.Set(static_cast<std::int64_t>(states_.size()));
      return;
    }
  }

  // --- command processing -------------------------------------------------------
  std::string entity = HostEntityId(record.key.ip);
  const storage::FieldMap* current = journal_.CurrentState(entity);
  static const storage::FieldMap kEmpty;
  const storage::FieldMap& state = current != nullptr ? *current : kEmpty;

  const bool existed = states_.contains(packed);
  storage::Delta delta =
      service_fields != nullptr
          ? UpsertServiceDelta(state, record.key, *service_fields)
          : UpsertServiceDelta(state, record);

  auto& service_state = states_[packed];
  if (!existed) {
    service_state.key = record.key;
    service_state.first_seen = record.observed_at;
  }
  service_state.last_seen = record.observed_at;
  MarkRefreshed(service_state, record.observed_at);
  service_state.pending_eviction_since.reset();
  // Even a no-op refresh (empty delta, nothing journaled) moved last_seen,
  // which is visible in HostViews — cached views must not survive it.
  BumpRevision(record.key.ip);

  if (!delta.empty()) {
    const storage::EventKind kind = existed
                                        ? storage::EventKind::kServiceChanged
                                        : storage::EventKind::kServiceFound;
    if (batching_) {
      staged_events_.push_back(storage::EventJournal::PendingEvent{
          std::move(entity), kind, record.observed_at, std::move(delta)});
      staged_hosts_.insert(host);
    } else {
      journal_.Append(entity, kind, record.observed_at, delta);
    }
  }
  tracked_metric_.Set(static_cast<std::int64_t>(states_.size()));
}

void WriteSide::BeginCommitBatch() {
  command_role_.AdoptCurrentThread();
  journal_.command_role().AdoptCurrentThread();
  const core::MutexLock lock(mu_);
  batching_ = true;
}

void WriteSide::FlushCommitBatch() {
  const core::MutexLock lock(mu_);
  FlushCommitBatchLocked();
}

void WriteSide::EndCommitBatch() {
  const core::MutexLock lock(mu_);
  FlushCommitBatchLocked();
  batching_ = false;
}

void WriteSide::FlushCommitBatchLocked() {
  if (staged_events_.empty()) return;
  TRACE_SPAN_VAR(span, "pipeline", "commit_batch.flush");
  span.SetArg("events", std::to_string(staged_events_.size()));
  // One journal batch append (one WAL write, at most one fsync); the
  // journal's commit observers see the events in the sequence order the
  // scans committed in. The staged events move into the append; on a WAL
  // failure or injected crash the batch is rejected (or lost) as a unit,
  // so the staging buffers are cleared either way.
  std::vector<storage::EventJournal::PendingEvent> batch;
  batch.swap(staged_events_);
  staged_hosts_.clear();
  journal_.AppendBatch(std::move(batch));
  batch_flushes_.fetch_add(1, std::memory_order_relaxed);
}

void WriteSide::IngestFailure(ServiceKey key, Timestamp at) {
  command_role_.AdoptCurrentThread();
  const core::MutexLock lock(mu_);
  failure_metric_.Add();
  const auto it = states_.find(key.Pack());
  if (it == states_.end()) return;
  MarkRefreshed(it->second, at);
  if (!it->second.pending_eviction_since.has_value()) {
    // "Mark services as pending eviction after the first scan fails."
    it->second.pending_eviction_since = at;
    eviction_pending_.push_back(it->first);
  }
  BumpRevision(key.ip);
}

void WriteSide::MarkRefreshed(ServiceState& state, Timestamp at) {
  state.last_refreshed = at;
  refresh_due_[at].push_back(state.key.Pack());
}

std::vector<ServiceState> WriteSide::DueForRefresh(Timestamp cutoff) {
  command_role_.AdoptCurrentThread();
  const core::MutexLock lock(mu_);
  std::vector<ServiceState> due;
  for (auto bucket = refresh_due_.begin();
       bucket != refresh_due_.end() && bucket->first <= cutoff;) {
    // Keep the entries states_ still files under this time; a due service
    // that is not refreshed stays due.
    std::erase_if(bucket->second, [&](std::uint64_t packed) {
      const auto it = states_.find(packed);
      if (it == states_.end() || it->second.last_refreshed != bucket->first) {
        return true;
      }
      due.push_back(it->second);
      return false;
    });
    bucket = bucket->second.empty() ? refresh_due_.erase(bucket)
                                    : std::next(bucket);
  }
  std::sort(due.begin(), due.end(),
            [](const ServiceState& a, const ServiceState& b) {
              return a.key.Pack() < b.key.Pack();
            });
  due.erase(std::unique(due.begin(), due.end(),
                        [](const ServiceState& a, const ServiceState& b) {
                          return a.key == b.key;
                        }),
            due.end());
  return due;
}

std::vector<ServiceKey> WriteSide::DueForEviction(Timestamp now) {
  command_role_.AdoptCurrentThread();
  const core::MutexLock lock(mu_);
  return DueForEvictionLocked(now);
}

std::vector<ServiceKey> WriteSide::DueForEvictionLocked(Timestamp now) {
  std::sort(eviction_pending_.begin(), eviction_pending_.end());
  eviction_pending_.erase(
      std::unique(eviction_pending_.begin(), eviction_pending_.end()),
      eviction_pending_.end());
  std::vector<ServiceKey> due;
  std::erase_if(eviction_pending_, [&](std::uint64_t packed) {
    const auto it = states_.find(packed);
    if (it == states_.end() ||
        !it->second.pending_eviction_since.has_value()) {
      return true;
    }
    if (*it->second.pending_eviction_since + options_.eviction_deadline <=
        now) {
      due.push_back(it->second.key);
    }
    return false;
  });
  return due;
}

void WriteSide::AdvanceTo(Timestamp now) {
  command_role_.AdoptCurrentThread();
  journal_.command_role().AdoptCurrentThread();
  const core::MutexLock lock(mu_);
  // Evictions journal write-through; staged scan events must land first.
  if (batching_) FlushCommitBatchLocked();
  for (const ServiceKey key : DueForEvictionLocked(now)) Evict(key, now);

  // Age out the pruned list beyond the re-injection window.
  while (!pruned_.empty() &&
         pruned_.front().pruned_at + options_.reinjection_window < now) {
    pruned_.pop_front();
  }
}

void WriteSide::Evict(ServiceKey key, Timestamp now) {
  const std::string entity = HostEntityId(key.ip);
  if (const storage::FieldMap* current = journal_.CurrentState(entity)) {
    const storage::Delta delta = RemoveServiceDelta(*current, key);
    if (!delta.empty()) {
      journal_.Append(entity, storage::EventKind::kServiceRemoved, now, delta);
    }
  }
  states_.erase(key.Pack());
  pruned_.push_back(PrunedEntry{key, now});
  BumpRevision(key.ip);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  eviction_metric_.Add();
  tracked_metric_.Set(static_cast<std::int64_t>(states_.size()));
}

const ServiceState* WriteSide::GetState(ServiceKey key) const
    CENSYS_NO_THREAD_SAFETY_ANALYSIS {
  // Deliberately lockless: only the command thread mutates states_, and
  // only the command thread may call this (callers sit inside ForEachTracked
  // callbacks, so taking mu_ shared here would self-deadlock under a waiting
  // writer). Cross-thread readers go through GetStateCopy; debug builds
  // abort on any other thread. The analysis is off in this body because the
  // command-thread role, not mu_, is what makes the states_ read safe.
  command_role_.AssertHeld();
  const auto it = states_.find(key.Pack());
  return it == states_.end() ? nullptr : &it->second;
}

std::optional<ServiceState> WriteSide::GetStateCopy(ServiceKey key) const {
  const core::ReaderLock lock(mu_);
  const auto it = states_.find(key.Pack());
  if (it == states_.end()) return std::nullopt;
  return it->second;
}

std::uint64_t WriteSide::ScanRevision(IPv4Address ip) const {
  const core::ReaderLock lock(mu_);
  const auto it = host_revisions_.find(ip.value());
  return it == host_revisions_.end() ? 0 : it->second;
}

std::size_t WriteSide::tracked_count() const {
  const core::ReaderLock lock(mu_);
  return states_.size();
}

bool WriteSide::IsPseudoFlagged(IPv4Address ip) const {
  const core::ReaderLock lock(mu_);
  return pseudo_hosts_.contains(ip.value());
}

void WriteSide::ForEachTracked(
    const std::function<void(const ServiceState&)>& fn) const {
  const core::ReaderLock lock(mu_);
  std::vector<const ServiceState*> sorted;
  sorted.reserve(states_.size());
  // censyslint:allow(unordered-iter): pointers sorted by key before fn runs
  for (const auto& [packed, state] : states_) sorted.push_back(&state);
  std::sort(sorted.begin(), sorted.end(),
            [](const ServiceState* a, const ServiceState* b) {
              return a->key.Pack() < b->key.Pack();
            });
  for (const ServiceState* state : sorted) fn(*state);
}

void WriteSide::ForEachPruned(
    const std::function<void(const PrunedService&)>& fn) const {
  const core::ReaderLock lock(mu_);
  for (const PrunedEntry& entry : pruned_) {
    fn(PrunedService{entry.key, entry.pruned_at});
  }
}

std::vector<ServiceKey> WriteSide::RecentlyPruned(Timestamp now) const {
  const core::ReaderLock lock(mu_);
  std::vector<ServiceKey> keys;
  for (const PrunedEntry& entry : pruned_) {
    if (entry.pruned_at + options_.reinjection_window >= now) {
      keys.push_back(entry.key);
    }
  }
  return keys;
}

}  // namespace censys::pipeline
