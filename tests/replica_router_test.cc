// ReplicaRouter integration and chaos: fresh fan-out over healthy
// replicas, mid-batch failover on serve failure, degradation to a
// stale-but-watermarked answer from a lagging replica, shedding only when
// nothing can answer, and the kill/revive chaos loop with a version-token
// oracle — every answer is either current or correctly labeled stale;
// wrong answers never.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fault.h"
#include "interrogate/record.h"
#include "pipeline/read_side.h"
#include "pipeline/write_side.h"
#include "replicate/follower.h"
#include "replicate/group.h"
#include "serving/frontend.h"
#include "serving/replica_router.h"
#include "storage/journal.h"
#include "test_tmpdir.h"

namespace censys::serving {
namespace {

using test::ScratchDir;

storage::EventJournal::Options DurableOptions(const std::string& dir) {
  storage::EventJournal::Options options;
  options.shards = 4;
  options.wal.dir = dir;
  options.wal.segment_bytes = 8u << 10;
  return options;
}

// A versioned HTTP record: title and banner both carry `version` in one
// journal delta, so a view whose title and banner disagree was torn.
interrogate::ServiceRecord VersionedRecord(IPv4Address ip, Port port,
                                           Timestamp at, int version) {
  interrogate::ServiceRecord r;
  r.key = {ip, port, Transport::kTcp};
  r.observed_at = at;
  r.protocol = proto::Protocol::kHttp;
  r.detection = interrogate::DetectionMethod::kBatteryHandshake;
  r.handshake_validated = true;
  r.banner = "Server: nginx build v" + std::to_string(version);
  r.software = {"nginx", "nginx", "1.25.3"};
  r.html_title = "release v" + std::to_string(version);
  return r;
}

// Parses the trailing "v<k>" token; -1 when absent.
int VersionOf(const std::string& text) {
  const auto pos = text.rfind(" v");
  if (pos == std::string::npos) return -1;
  return std::atoi(text.c_str() + pos + 2);
}

// Leader write stack plus a replication group and one frontend per
// follower, wired into a router.
class RouterRig {
 public:
  RouterRig(const std::string& dir, std::size_t replicas,
            ReplicaRouter::Options router_options,
            replicate::ReplicationGroup::Options group_options = {})
      : journal_(DurableOptions(dir)), write_(journal_),
        group_(journal_, group_options) {
    for (std::size_t i = 0; i < replicas; ++i) {
      group_.AddFollower("f" + std::to_string(i));
      std::string error;
      EXPECT_TRUE(group_.BootstrapFollower(i, &error)) << error;
    }
    std::vector<ReplicaRouter::Endpoint> endpoints;
    for (std::size_t i = 0; i < replicas; ++i) {
      const replicate::Follower& f = group_.follower(i);
      ServingFrontend::Options fo;
      fo.threads = 0;  // ServeOne is inline; no pool needed
      frontends_.push_back(std::make_unique<ServingFrontend>(
          f.read_side(), f.index(), f.analytics(), fo));
      endpoints.push_back({frontends_.back().get(), &f});
    }
    router_ = std::make_unique<ReplicaRouter>(
        std::move(endpoints),
        [this] { return group_.leader_lsn(); }, router_options);
  }

  void WriteVersion(IPv4Address ip, int version, std::int64_t at) {
    write_.IngestScan(VersionedRecord(ip, 80, Timestamp{at}, version));
  }

  storage::EventJournal& journal() { return journal_; }
  replicate::ReplicationGroup& group() { return group_; }
  ReplicaRouter& router() { return *router_; }

 private:
  storage::EventJournal journal_;
  pipeline::WriteSide write_;
  replicate::ReplicationGroup group_;
  std::vector<std::unique_ptr<ServingFrontend>> frontends_;
  std::unique_ptr<ReplicaRouter> router_;
};

RouterPolicy::Options TightPolicy() {
  RouterPolicy::Options o;
  o.lagging_above = 4;
  o.healthy_below = 2;
  o.healthy_streak = 2;
  o.max_attempts = 3;
  o.backoff_base_us = 10;  // keep busy-wait retries cheap in tests
  o.backoff_cap_us = 50;
  o.hedge_latency_us = 0;  // hedging off unless a test turns it on
  o.down_probe_us = 1e12;  // probes off unless a test turns them on
  return o;
}

std::vector<Query> Lookups(const std::vector<IPv4Address>& hosts) {
  std::vector<Query> queries;
  for (const IPv4Address ip : hosts) {
    Query q;
    q.kind = Query::Kind::kLookup;
    q.ip = ip;
    queries.push_back(q);
  }
  return queries;
}

TEST(ReplicaRouterTest, FansFreshReadsAcrossHealthyReplicas) {
  ReplicaRouter::Options ro;
  ro.threads = 0;
  ro.capture_views = true;
  ro.policy = TightPolicy();
  RouterRig rig(ScratchDir("router_fresh"), 2, ro);

  std::vector<IPv4Address> hosts;
  for (std::uint32_t h = 1; h <= 8; ++h) {
    hosts.push_back(IPv4Address(h));
    rig.WriteVersion(IPv4Address(h), 1, 100 + h);
  }
  std::string error;
  for (std::size_t i = 0; i < rig.group().size(); ++i) {
    ASSERT_TRUE(rig.group().CatchUp(i, 1000, &error)) << error;
  }

  std::vector<RoutedAnswer> answers;
  const RouterReport report = rig.router().Run(Lookups(hosts), &answers);
  EXPECT_EQ(report.answered, hosts.size());
  EXPECT_EQ(report.stale, 0u);
  EXPECT_EQ(report.shed, 0u);
  EXPECT_EQ(report.failed, 0u);
  // Round-robin spreads load over both replicas.
  EXPECT_GT(report.served_by[0], 0u);
  EXPECT_GT(report.served_by[1], 0u);
  for (const RoutedAnswer& a : answers) {
    EXPECT_FALSE(a.stale);
    EXPECT_EQ(a.replica_lsn, a.leader_lsn);
    ASSERT_TRUE(a.outcome.view.has_value());
    ASSERT_EQ(a.outcome.view->services.size(), 1u);
    EXPECT_EQ(VersionOf(a.outcome.view->services[0].record.banner), 1);
  }
}

#if defined(CENSYSIM_FAULT_INJECTION)
TEST(ReplicaRouterTest, FailsOverWhenAReplicaStopsAnswering) {
  ReplicaRouter::Options ro;
  ro.threads = 0;  // inline: fault hit order is deterministic
  ro.policy = TightPolicy();
  RouterRig rig(ScratchDir("router_failover"), 2, ro);
  rig.WriteVersion(IPv4Address(1), 1, 100);
  std::string error;
  for (std::size_t i = 0; i < rig.group().size(); ++i) {
    ASSERT_TRUE(rig.group().CatchUp(i, 1000, &error)) << error;
  }

  // The first serve's whole retry ladder (3 attempts) faults and the
  // frontend has no stale fallback cached yet, so the serve fails; the
  // router marks the replica down and fails over to the partner.
  fault::ScopedPlan plan(3, {{.point = "serving.read",
                              .mode = fault::Mode::kErrorReturn,
                              .max_fires = 3}});
  std::vector<RoutedAnswer> answers;
  const RouterReport report =
      rig.router().Run(Lookups({IPv4Address(1)}), &answers);
  EXPECT_EQ(report.answered, 1u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.retries, 1u);
  EXPECT_EQ(report.failovers, 1u);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].replica, 1);
  EXPECT_EQ(rig.router().ReplicaHealth(0), RouterPolicy::Health::kDown);
}
#endif

TEST(ReplicaRouterTest, DegradesToStaleAnswerFromLaggingReplica) {
  ReplicaRouter::Options ro;
  ro.threads = 0;
  ro.capture_views = true;
  ro.policy = TightPolicy();
  RouterRig rig(ScratchDir("router_stale"), 2, ro);

  // Both followers see version 1...
  rig.WriteVersion(IPv4Address(1), 1, 100);
  std::string error;
  for (std::size_t i = 0; i < rig.group().size(); ++i) {
    ASSERT_TRUE(rig.group().CatchUp(i, 1000, &error)) << error;
  }
  // ...then the leader races ahead: replica 0 dies, replica 1 misses the
  // shipments and goes lagging.
  rig.group().follower(0).Kill();
  for (int k = 2; k <= 12; ++k) rig.WriteVersion(IPv4Address(1), k, 100 + k);

  std::vector<RoutedAnswer> answers;
  const RouterReport report =
      rig.router().Run(Lookups({IPv4Address(1)}), &answers);
  EXPECT_EQ(report.answered, 1u);
  EXPECT_EQ(report.stale, 1u);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_TRUE(answers[0].stale);
  EXPECT_EQ(answers[0].replica, 1);
  EXPECT_LT(answers[0].replica_lsn, answers[0].leader_lsn);
  // The stale answer is the replica's watermarked state — version 1, the
  // last state it applied — not garbage.
  ASSERT_TRUE(answers[0].outcome.view.has_value());
  EXPECT_EQ(VersionOf(answers[0].outcome.view->services[0].record.banner), 1);
}

TEST(ReplicaRouterTest, ShedsOnlyWhenNoReplicaCanAnswer) {
  ReplicaRouter::Options ro;
  ro.threads = 0;
  ro.policy = TightPolicy();
  RouterRig rig(ScratchDir("router_shed"), 2, ro);
  rig.WriteVersion(IPv4Address(1), 1, 100);
  rig.group().follower(0).Kill();
  rig.group().follower(1).Kill();

  const RouterReport report = rig.router().Run(Lookups({IPv4Address(1)}));
  EXPECT_EQ(report.answered, 0u);
  EXPECT_EQ(report.shed, 1u);
  EXPECT_EQ(rig.router().ReplicaHealth(0), RouterPolicy::Health::kDown);
  EXPECT_EQ(rig.router().ReplicaHealth(1), RouterPolicy::Health::kDown);
}

// ----------------------------------------------------------------- chaos (c)

// The router keeps answering under kill/revive load with a lossy link:
// every answer is either current or labeled stale, title/banner version
// tokens always agree (no torn views), and stale answers never exceed the
// leader's watermark. Zero wrong answers, every query answered while at
// least one replica serves.
TEST(ReplicaRouterChaosTest, ServesCorrectlyLabeledAnswersUnderKillRevive) {
  constexpr std::uint32_t kHosts = 8;
  constexpr int kRounds = 30;

  ReplicaRouter::Options ro;
  ro.threads = 4;
  ro.capture_views = true;
  ro.policy = TightPolicy();
  ro.policy.down_probe_us = 0;  // probe revived replicas immediately
  replicate::ReplicationGroup::Options go;
  go.max_records_per_shipment = 5;
  RouterRig rig(ScratchDir("router_chaos"), 3, ro, go);

  std::vector<IPv4Address> hosts;
  for (std::uint32_t h = 1; h <= kHosts; ++h) hosts.push_back(IPv4Address(h));
  const std::vector<Query> queries = Lookups(hosts);

  std::string error;
  for (int round = 1; round <= kRounds; ++round) {
    for (std::uint32_t h = 0; h < kHosts; ++h) {
      rig.WriteVersion(hosts[h], round, round * 100 + h);
    }

    // Chaos schedule: kill one follower on a cadence (never all of them),
    // revive the dead two rounds later via snapshot re-bootstrap.
    replicate::ReplicationGroup& group = rig.group();
    if (round % 5 == 2) {
      const std::size_t victim = static_cast<std::size_t>(round / 5) % 3;
      std::size_t serving = 0;
      for (std::size_t i = 0; i < group.size(); ++i) {
        if (group.follower(i).serving()) ++serving;
      }
      if (serving > 1 && group.follower(victim).serving()) {
        group.follower(victim).Kill();
      }
    }
    if (round % 5 == 4) {
      for (std::size_t i = 0; i < group.size(); ++i) {
        if (!group.follower(i).serving()) {
          ASSERT_TRUE(group.BootstrapFollower(i, &error)) << error;
        }
      }
    }

    {
      const fault::Mode mode =
          static_cast<fault::Mode>((round % 5) + 1);  // rotate link faults
      fault::ScopedPlan plan(static_cast<std::uint64_t>(round),
                             {{.point = "replicate.ship",
                               .mode = mode,
                               .probability = 0.3}});
      ASSERT_TRUE(group.PumpAll(&error)) << error;
    }

    std::vector<RoutedAnswer> answers;
    const RouterReport report = rig.router().Run(queries, &answers);
    EXPECT_EQ(report.answered, queries.size()) << "round " << round;
    EXPECT_EQ(report.shed + report.failed, 0u) << "round " << round;

    for (std::size_t i = 0; i < answers.size(); ++i) {
      const RoutedAnswer& a = answers[i];
      ASSERT_TRUE(a.answered);
      EXPECT_LE(a.replica_lsn, a.leader_lsn);
      if (!a.outcome.view.has_value()) continue;  // host not yet replicated
      ASSERT_EQ(a.outcome.view->services.size(), 1u);
      const int banner_v =
          VersionOf(a.outcome.view->services[0].record.banner);
      const int title_v =
          VersionOf(a.outcome.view->services[0].record.html_title);
      // Never torn, never from the future.
      EXPECT_EQ(banner_v, title_v) << "round " << round << " host " << i;
      EXPECT_GE(banner_v, 1);
      EXPECT_LE(banner_v, round);
      // A fresh-labeled answer is current by definition: the replica had
      // applied the leader's entire durable log at dispatch.
      if (!a.stale) {
        EXPECT_EQ(banner_v, round) << "round " << round << " host " << i;
      }
    }
  }

  // Quiesce: revive everything, drain the link, and the full-state
  // digests agree with the leader.
  replicate::ReplicationGroup& group = rig.group();
  for (std::size_t i = 0; i < group.size(); ++i) {
    if (!group.follower(i).serving()) {
      ASSERT_TRUE(group.BootstrapFollower(i, &error)) << error;
    }
    ASSERT_TRUE(group.CatchUp(i, 5000, &error)) << error;
  }
  const std::uint64_t want = replicate::JournalDigest(rig.journal());
  for (std::size_t i = 0; i < group.size(); ++i) {
    EXPECT_EQ(group.follower(i).applied_lsn(), group.leader_lsn());
    EXPECT_EQ(group.follower(i).Digest(), want);
  }
}

}  // namespace
}  // namespace censys::serving
