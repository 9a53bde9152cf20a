// The benchmark's workloads and its rig: one set-up of the map, wired only
// through the program's public API.
//
// A Rig owns an engines::World with no alternative engines whose leader
// journal logs to a WAL under the rig's directory, an AnalyticsTier built
// daily through CensysEngine::AddDailyJob (the wiring docs/QUERIES.md
// describes), a StandingQueryRegistry on the journal's commit observer,
// and a ReplicationGroup of followers, each behind a ServingFrontend.
// Each closed-loop client gets its own ReplicaRouter over those frontends
// (a router is single-caller); a separate router captures views for the
// correctness checks. Aggregates go to a leader frontend with the tier
// attached.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check_threads.h"
#include "engines/world.h"
#include "oracle.h"
#include "query/columnar.h"
#include "query/standing.h"
#include "replicate/group.h"
#include "serving/frontend.h"
#include "serving/replica_router.h"
#include "spans.h"

namespace mapbench {

// Every run ingests the same pinned bench-scale world (the seed, universe
// and service count the reproduction benches default to), so runs differ
// only in the query streams their --seed draws and in timing noise.
constexpr std::uint64_t kWorldSeed = 42;
constexpr int kUniverseBits = 18;
constexpr std::uint32_t kServices = 40000;
constexpr int kWorkers = 3;  // interrogation worker threads (--workers)
constexpr std::size_t kStandingQueries = 20;  // on the commit observer

// Per-round query mix of the closed-loop batch, derived by BatchFor.
struct Batch {
  std::size_t lookups = 0;
  std::size_t histories = 0;
  std::size_t searches = 0;
  std::size_t analytics = 0;
  std::size_t aggregates = 0;  // one per kAggregateSpecs entry
};

struct Workload {
  std::string name;
  std::size_t followers = 1;
  // Lookups per round are the host count divided by this; every lookup
  // draws from all hosts, so the working set is the same on every workload.
  std::size_t lookup_divisor = 2;
};

std::optional<Workload> WorkloadNamed(const std::string& name);

// Analytics protocol names: each is asked once per round.
extern const char* const kAnalyticsProtocols[4];

// The batch of every round, from what the run can observe at set-up: the
// host count (the lookup working set), the search pool size and the fixed
// analytics and aggregate lists. The remaining proportion (one history
// per ten lookups) is chosen to load journal replay, not measured traffic.
Batch BatchFor(const Workload& w, std::size_t hosts, std::size_t search_pool);

struct AggregateSpec {
  const char* field;
  bool suffix;
};
// Fixed (seed-independent) aggregate specs, each asked once per round: one
// exact field and two suffix sweeps. The 1:2 split is chosen, not measured:
// with an even split the median would sit on the gap between the fast
// exact scans and the slow suffix sweeps.
extern const AggregateSpec kAggregateSpecs[3];

// Process CPU time (user + system), seconds.
double CpuSeconds();

// The standing-query population: mostly field-constrained service terms,
// a NOT slice and an any-field slice, as in bench/standing_queries.
std::vector<std::string> StandingPopulation(std::size_t target);

// Collects failed checks; the run is correct only if none failed.
class Verdict {
 public:
  void Fail(const std::string& check, const std::string& why);
  void Expect(bool ok, const std::string& check, const std::string& why) {
    ++checks_;
    if (!ok) Fail(check, why);
  }
  bool ok() const { return failures_ == 0; }
  std::uint64_t checks() const { return checks_; }

 private:
  std::uint64_t failures_ = 0;
  std::uint64_t checks_ = 0;
};

// One timed tick and what the program reported about it.
struct TickSample {
  double raw_ms = 0;    // RunUntil wall time
  double check_ms = 0;  // benchmark check work inside the daily job
  double wall_ms = 0;   // raw_ms - check_ms
  double cpu_s = 0;     // process CPU time during the tick
  double oncommit_ms = 0;
  std::uint64_t observer_calls = 0;
  std::uint64_t evals = 0;
  std::uint64_t match_events = 0;
  std::uint64_t probes = 0;
  censys::engines::TickStats stats;
};

class Rig {
 public:
  // `checks` runs the benchmark's own work inside program calls (the
  // aggregate oracle and host-list refresh in the daily job).
  Rig(const Workload& w, int workers, std::filesystem::path dir, int clients,
      CheckThreads* checks, Verdict* verdict);
  ~Rig();

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  // One 2-hour tick through World::RunUntil.
  TickSample Tick(std::uint32_t round);
  // Pumps every follower to the leader's LSN, timing each PumpFollower
  // call into *pump_ms. Returns false if a follower could not catch up.
  bool CatchUp(std::uint32_t round, std::vector<double>* pump_ms);

  censys::engines::World& world() { return *world_; }
  censys::engines::CensysEngine& engine() { return world_->censys(); }
  censys::replicate::ReplicationGroup& group() { return *group_; }
  censys::serving::ReplicaRouter& router(int client) {
    return *routers_[static_cast<std::size_t>(client)];
  }
  censys::serving::ReplicaRouter& check_router() { return *check_router_; }
  censys::serving::ServingFrontend& leader_frontend() {
    return *leader_frontend_;
  }
  censys::query::AnalyticsTier& tier() { return *tier_; }
  censys::query::StandingQueryRegistry& standing() { return standing_; }
  const std::vector<std::pair<censys::query::StandingQueryId, std::string>>&
  standing_ids() const {
    return standing_ids_;
  }

  // Hosts with journal rows, refreshed after each daily tick: the lookup
  // working set.
  const std::vector<censys::IPv4Address>& hosts() const { return hosts_; }
  // Follower view caches, summed.
  std::uint64_t CacheHits() const;
  std::uint64_t CacheMisses() const;

  const std::vector<double>& bootstrap_ms() const { return bootstrap_ms_; }
  const std::vector<double>& segment_build_ms() const { return build_ms_; }
  const std::vector<double>& segment_mb() const { return segment_mb_; }
  // Benchmark check time spent inside program calls (daily job, host
  // refresh), to be taken out of the wall times that contain it.
  double check_ms() const { return static_cast<double>(check_ns_) / 1e6; }
  const std::filesystem::path& dir() const { return dir_; }
  void set_spans(SpanLog* spans) { spans_ = spans; }

  // The benchmark's own aggregate counts (one per kAggregateSpecs entry)
  // taken when day `day`'s segment was built; null if not kept.
  const std::vector<Groups>* OwnGroups(std::int64_t day) const;

 private:
  void DailyJob(censys::Timestamp day_start);
  void RefreshHosts();

  CheckThreads* checks_;
  Verdict* verdict_;
  std::filesystem::path dir_;
  SpanLog* spans_ = nullptr;
  std::uint32_t round_ = 0;

  // Declared before the world: the journal's commit observer points here.
  censys::query::StandingQueryRegistry standing_;
  std::vector<std::pair<censys::query::StandingQueryId, std::string>>
      standing_ids_;
  std::int64_t oncommit_ns_ = 0;
  std::uint64_t observer_calls_ = 0;

  std::unique_ptr<censys::engines::World> world_;
  std::unique_ptr<censys::query::AnalyticsTier> tier_;
  std::unique_ptr<censys::replicate::ReplicationGroup> group_;
  std::vector<std::unique_ptr<censys::serving::ServingFrontend>> frontends_;
  std::unique_ptr<censys::serving::ServingFrontend> leader_frontend_;
  std::vector<std::unique_ptr<censys::serving::ReplicaRouter>> routers_;
  std::unique_ptr<censys::serving::ReplicaRouter> check_router_;

  std::vector<censys::IPv4Address> hosts_;
  std::vector<double> bootstrap_ms_;
  std::vector<double> build_ms_;
  std::vector<double> segment_mb_;
  std::map<std::int64_t, std::vector<Groups>> own_groups_;
  std::int64_t check_ns_ = 0;
};

}  // namespace mapbench
