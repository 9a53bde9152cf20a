// Replica-tier scale-out (DESIGN.md §11): aggregate read QPS through the
// ReplicaRouter as the replica count grows 1 -> 2 -> 4. Each rig ships the
// same leader log to N caught-up followers and fans an identical lookup
// batch across the tier with every replica healthy.
//
// In-process followers share one machine, so the rows do NOT model real
// horizontal capacity (that comes from putting followers on separate
// hosts); what they pin is the cost side of the tier — the policy lock,
// round-robin dispatch, and the locality hit of spreading a hot working
// set over N separate read stacks.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "interrogate/record.h"
#include "pipeline/read_side.h"
#include "pipeline/write_side.h"
#include "replicate/follower.h"
#include "replicate/group.h"
#include "serving/frontend.h"
#include "serving/replica_router.h"
#include "storage/journal.h"
#include "test_tmpdir.h"

using namespace censys;
using namespace censys::engines;

namespace {

constexpr std::uint32_t kHosts = 1024;
constexpr int kWriteRounds = 4;
constexpr std::size_t kBatch = 24'000;

storage::EventJournal::Options DurableOptions(const std::string& dir) {
  storage::EventJournal::Options options;
  options.shards = 4;
  options.wal.dir = dir;
  options.wal.segment_bytes = 256u << 10;
  return options;
}

interrogate::ServiceRecord HostRecord(IPv4Address ip, Timestamp at,
                                      int version) {
  interrogate::ServiceRecord r;
  r.key = {ip, 80, Transport::kTcp};
  r.observed_at = at;
  r.protocol = proto::Protocol::kHttp;
  r.detection = interrogate::DetectionMethod::kBatteryHandshake;
  r.handshake_validated = true;
  r.banner = "Server: nginx build v" + std::to_string(version);
  r.software = {"nginx", "nginx", "1.25.3"};
  r.html_title = "release v" + std::to_string(version);
  return r;
}

// Leader write stack + N bootstrapped, caught-up followers behind a router.
class ScaleoutRig {
 public:
  ScaleoutRig(const std::string& dir, std::size_t replicas, int router_threads)
      : journal_(DurableOptions(dir)), write_(journal_),
        group_(journal_) {
    for (int round = 1; round <= kWriteRounds; ++round) {
      for (std::uint32_t h = 1; h <= kHosts; ++h) {
        write_.IngestScan(HostRecord(IPv4Address(h),
                                     Timestamp{round * 10'000 + h}, round));
      }
    }
    std::string error;
    for (std::size_t i = 0; i < replicas; ++i) {
      group_.AddFollower("f" + std::to_string(i));
      if (!group_.BootstrapFollower(i, &error) ||
          !group_.CatchUp(i, 1'000'000, &error)) {
        std::fprintf(stderr, "replica_scaleout: follower %zu: %s\n", i,
                     error.c_str());
        std::abort();
      }
    }
    std::vector<serving::ReplicaRouter::Endpoint> endpoints;
    for (std::size_t i = 0; i < replicas; ++i) {
      const replicate::Follower& f = group_.follower(i);
      serving::ServingFrontend::Options fo;
      fo.threads = 0;  // ServeOne is inline; the router's pool parallelizes
      frontends_.push_back(std::make_unique<serving::ServingFrontend>(
          f.read_side(), f.index(), f.analytics(), fo));
      endpoints.push_back({frontends_.back().get(), &f});
    }
    serving::ReplicaRouter::Options ro;
    ro.threads = router_threads;
    router_ = std::make_unique<serving::ReplicaRouter>(
        std::move(endpoints), [this] { return group_.leader_lsn(); }, ro);
  }

  serving::ReplicaRouter& router() { return *router_; }

 private:
  storage::EventJournal journal_;
  pipeline::WriteSide write_;
  replicate::ReplicationGroup group_;
  std::vector<std::unique_ptr<serving::ServingFrontend>> frontends_;
  std::unique_ptr<serving::ReplicaRouter> router_;
};

}  // namespace

int main() {
  std::printf("== Replica scale-out: router QPS vs replica count ==\n");
  std::printf("workload: %zu host lookups over %u hosts, %d write rounds, "
              "4 routing threads\n\n",
              kBatch, kHosts, kWriteRounds);

  std::vector<serving::Query> queries;
  queries.reserve(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    serving::Query q;
    q.kind = serving::Query::Kind::kLookup;
    q.ip = IPv4Address(static_cast<std::uint32_t>(i % kHosts) + 1);
    queries.push_back(q);
  }

  TablePrinter table({"Replicas", "queries/s", "stale", "shed", "vs 1"});
  double base_qps = 0.0;
  for (std::size_t replicas : {std::size_t{1}, std::size_t{2},
                               std::size_t{4}}) {
    ScaleoutRig rig(
        test::ScratchDir("replica_scaleout_" + std::to_string(replicas)),
        replicas, /*router_threads=*/4);
    rig.router().Run(queries);  // warm follower caches
    const serving::RouterReport report = rig.router().Run(queries);
    if (report.answered != queries.size()) {
      std::fprintf(stderr,
                   "replica_scaleout: only %llu/%zu answered at %zu replicas\n",
                   static_cast<unsigned long long>(report.answered),
                   queries.size(), replicas);
      return 1;
    }
    if (base_qps == 0.0) base_qps = report.qps;
    char qps_buf[64], speedup_buf[64];
    std::snprintf(qps_buf, sizeof(qps_buf), "%.0f", report.qps);
    std::snprintf(speedup_buf, sizeof(speedup_buf), "%.2fx",
                  report.qps / base_qps);
    table.AddRow({std::to_string(replicas), qps_buf,
                  std::to_string(report.stale), std::to_string(report.shed),
                  speedup_buf});
  }
  table.Print();

  std::printf(
      "\npaper (§5.3): the read tier scales horizontally by putting "
      "followers on separate machines; in this single-process rig the rows "
      "instead pin the router's fan-out overhead — all answers fresh, none "
      "shed\n");
  return 0;
}
