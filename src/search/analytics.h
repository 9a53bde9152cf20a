// Analytics engine (§5.3 "Analytics Engine" / "Raw Data Downloads").
//
// Censys snapshots its Internet Map to BigQuery daily; after three months
// only one weekday snapshot per week is retained. We model the snapshot
// store and its retention policy, plus the aggregate series longitudinal
// analyses consume.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/thread_safety.h"
#include "core/types.h"

namespace censys::search {

struct DailySnapshot {
  std::int64_t day = 0;  // simulated day number
  std::uint64_t total_services = 0;
  std::uint64_t total_hosts = 0;
  std::map<std::string, std::uint64_t> by_protocol;
  std::map<Port, std::uint64_t> by_port;
  std::map<std::string, std::uint64_t> by_country;
};

// Concurrency: a reader/writer lock guards the snapshot map — writers
// (AddSnapshot / ThinOut, the engine tick loop) exclusive, copying queries
// shared.
class AnalyticsStore {
 public:
  void AddSnapshot(DailySnapshot snapshot);

  // Applies the retention policy relative to `now` (snapshots older than
  // 90 days are thinned to one weekday a week); returns snapshots dropped.
  std::size_t ThinOut(Timestamp now);

  // Latest snapshot at or before `day`, if any.
  std::optional<DailySnapshot> GetLatestUpToCopy(std::int64_t day) const;

  // Longitudinal series: (day, count) for a protocol across all snapshots.
  std::vector<std::pair<std::int64_t, std::uint64_t>> ProtocolSeries(
      const std::string& protocol) const;

  std::size_t size() const;

 private:
  // Daily snapshots land during ticks while the serving frontend reads
  // series concurrently: writers exclusive, readers shared.
  mutable core::SharedMutex mu_;
  std::map<std::int64_t, DailySnapshot> snapshots_ CENSYS_GUARDED_BY(mu_);
};

}  // namespace censys::search
