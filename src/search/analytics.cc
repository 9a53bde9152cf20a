#include "search/analytics.h"

namespace censys::search {
namespace {

// Snapshots older than this are thinned to one a week, on this weekday.
constexpr Duration kFullRetention = Duration::Days(90);
constexpr int kKeepWeekday = 2;

}  // namespace

void AnalyticsStore::AddSnapshot(DailySnapshot snapshot) {
  const core::MutexLock lock(mu_);
  snapshots_[snapshot.day] = std::move(snapshot);
}

std::size_t AnalyticsStore::ThinOut(Timestamp now) {
  const core::MutexLock lock(mu_);
  const std::int64_t cutoff_day = (now - kFullRetention).minutes / (24 * 60);
  std::size_t dropped = 0;
  for (auto it = snapshots_.begin(); it != snapshots_.end();) {
    if (it->first < cutoff_day && (it->first % 7) != kKeepWeekday) {
      it = snapshots_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

std::optional<DailySnapshot> AnalyticsStore::GetLatestUpToCopy(
    std::int64_t day) const {
  const core::ReaderLock lock(mu_);
  auto it = snapshots_.upper_bound(day);
  if (it == snapshots_.begin()) return std::nullopt;
  --it;
  return it->second;
}

std::vector<std::pair<std::int64_t, std::uint64_t>>
AnalyticsStore::ProtocolSeries(const std::string& protocol) const {
  const core::ReaderLock lock(mu_);
  std::vector<std::pair<std::int64_t, std::uint64_t>> series;
  for (const auto& [day, snapshot] : snapshots_) {
    const auto it = snapshot.by_protocol.find(protocol);
    series.emplace_back(day, it == snapshot.by_protocol.end() ? 0 : it->second);
  }
  return series;
}

std::size_t AnalyticsStore::size() const {
  const core::ReaderLock lock(mu_);
  return snapshots_.size();
}

}  // namespace censys::search
