// Serving-layer throughput (§5.2 read path / §5.3 products): cache-hot vs
// uncached host lookups, and mixed query batches across reader-thread
// counts. The acceptance bar for the view cache is >=5x on the hot lookup
// path; the frontend must scale past a single reader.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/clock.h"
#include "engines/enrichment.h"
#include "fingerprint/fingerprints.h"
#include "fingerprint/vulns.h"
#include "pipeline/read_side.h"
#include "serving/frontend.h"

using namespace censys;
using namespace censys::engines;

namespace {

// Round-robin GetHost over `hosts`, `total` times; returns lookups/sec.
double LookupQps(const pipeline::ReadSide& read,
                 const std::vector<IPv4Address>& hosts, std::size_t total) {
  const censys::WallTimer timer;
  std::size_t found = 0;
  for (std::size_t i = 0; i < total; ++i) {
    found += read.GetHost(hosts[i % hosts.size()]).has_value() ? 1 : 0;
  }
  const double elapsed = timer.ElapsedSeconds();
  if (found == 0) std::printf("(warning: no lookups resolved)\n");
  return static_cast<double>(total) / elapsed;
}

}  // namespace

int main() {
  bench::BenchOptions opts;
  opts.run_days = 4.0;
  opts.with_alternatives = false;
  auto world = bench::MakeWorld("Serving throughput: view cache + frontend",
                                opts);
  CensysEngine& engine = world->censys();

  // Working set: tracked hosts, capped below the cache's total capacity so
  // the hot pass measures hits rather than LRU churn.
  std::vector<IPv4Address> hosts;
  engine.write_side().ForEachTracked([&](const pipeline::ServiceState& s) {
    hosts.push_back(s.key.ip);
  });
  std::sort(hosts.begin(), hosts.end(),
            [](IPv4Address a, IPv4Address b) { return a.value() < b.value(); });
  hosts.erase(std::unique(hosts.begin(), hosts.end(),
                          [](IPv4Address a, IPv4Address b) {
                            return a.value() == b.value();
                          }),
              hosts.end());
  if (hosts.size() > 4096) hosts.resize(4096);

  // Baseline: a cacheless read side over the same journal + write side;
  // every lookup replays and re-enriches.
  auto fingerprints = fingerprint::FingerprintEngine::BuiltIn(0);
  auto cves = fingerprint::CveDatabase::BuiltIn();
  const engines::ContextEnricher enricher(world->internet().blocks(),
                                          &fingerprints, &cves);
  pipeline::ReadSide uncached(engine.journal(), engine.write_side(),
                              &enricher);
  const double uncached_qps = LookupQps(uncached, hosts, 20'000);

  // Hot path: the engine's cached read side, warmed with one full pass.
  const pipeline::ReadSide& cached = engine.read_side();
  LookupQps(cached, hosts, hosts.size());  // warm
  const double cached_qps = LookupQps(cached, hosts, 200'000);

  TablePrinter lookup_table({"Lookup path", "lookups/s", "speedup"});
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f", uncached_qps);
  lookup_table.AddRow({"uncached (replay + enrich)", buf, "1.0x"});
  std::snprintf(buf, sizeof(buf), "%.0f", cached_qps);
  char speedup[64];
  std::snprintf(speedup, sizeof(speedup), "%.1fx", cached_qps / uncached_qps);
  lookup_table.AddRow({"cache-hot", buf, speedup});
  lookup_table.Print();
  std::printf("cache hit ratio: %.3f (hits=%llu misses=%llu)\n\n",
              cached.cache()->HitRatio(),
              static_cast<unsigned long long>(cached.cache()->hits()),
              static_cast<unsigned long long>(cached.cache()->misses()));

  // Mixed query batches (70% lookup / 10% history / 10% search / 10%
  // analytics) through the frontend at increasing reader counts. Ticks do
  // not fill the engine's search index, so rebuild it first. Host
  // documents key service fields by port; a search that matches nothing
  // would time an empty posting walk, so each must match something.
  engine.RebuildSearchIndex();
  const std::vector<std::string> searches = {"svc.80/tcp.service.name: http",
                                             "svc.22/tcp.service.name: ssh"};
  for (const std::string& text : searches) {
    std::string error;
    const std::size_t matched =
        engine.search_index().Search(text, &error).size();
    std::printf("search \"%s\": %zu document(s)\n", text.c_str(), matched);
    if (matched == 0) {
      std::fprintf(stderr, "serving_qps: search \"%s\" matched nothing%s%s\n",
                   text.c_str(), error.empty() ? "" : ": ", error.c_str());
      return 1;
    }
  }
  const std::vector<std::string> protocols = {"HTTP", "SSH"};
  constexpr std::size_t kBatch = 20'000;

  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("frontend sweep on %u hardware thread(s)%s\n", cores,
              cores <= 1 ? " — reader scaling is core-bound; expect gains "
                           "only on multi-core hosts"
                         : "");
  TablePrinter frontend_table({"Readers", "queries/s", "p99 lookup us"});
  for (int threads : {1, 4, 8}) {
    serving::ServingFrontend::Options options;
    options.threads = threads;
    serving::ServingFrontend frontend(cached, engine.search_index(),
                                      engine.analytics(), options);
    Rng rng(1234);  // identical workload per thread count
    const auto batch = serving::ServingFrontend::MixedWorkload(
        kBatch, hosts, searches, protocols, world->now(), rng);
    frontend.Run(batch);  // warm
    const serving::BatchReport report = frontend.Run(batch);
    std::snprintf(buf, sizeof(buf), "%.0f", report.qps);
    std::snprintf(speedup, sizeof(speedup), "%.1f", report.lookup_p99_us);
    frontend_table.AddRow({std::to_string(threads), buf, speedup});
  }
  frontend_table.Print();

  std::printf(
      "\npaper (§5.2/§5.3): reconstructed views are cached and served "
      "concurrently with ingestion; the watermark key invalidates exactly "
      "when a host's journal or scan state advances\n");
  return 0;
}
