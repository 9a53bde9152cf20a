// Tests for the concurrent serving layer: ViewCache watermark semantics,
// cached read-side lookups (must be indistinguishable from uncached), the
// reader/writer stress contract (no torn views under concurrent appends),
// the ServingFrontend mixed-query pump, and the journal-perturbation
// guarantee when serving traffic runs concurrently with engine ticks.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/fault.h"
#include "core/strings.h"
#include "engines/enrichment.h"
#include "engines/world.h"
#include "fingerprint/fingerprints.h"
#include "fingerprint/vulns.h"
#include "interrogate/record.h"
#include "pipeline/read_side.h"
#include "pipeline/view_cache.h"
#include "pipeline/write_side.h"
#include "search/analytics.h"
#include "search/index.h"
#include "serving/frontend.h"
#include "simnet/blocks.h"

namespace censys::serving {
namespace {

int ReaderThreads() {
  if (const char* env = std::getenv("CENSYSIM_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 4;
}

// A versioned HTTP record: title and banner both carry `version`, so both
// always change in the same journal delta. A view whose title and banner
// disagree on the version was torn mid-update.
interrogate::ServiceRecord VersionedRecord(IPv4Address ip, Port port,
                                           Timestamp at,
                                           const std::string& version) {
  interrogate::ServiceRecord r;
  r.key = {ip, port, Transport::kTcp};
  r.observed_at = at;
  r.protocol = proto::Protocol::kHttp;
  r.detection = interrogate::DetectionMethod::kBatteryHandshake;
  r.handshake_validated = true;
  r.banner = "Server: nginx build " + version;
  r.software = {"nginx", "nginx", "1.25.3"};
  r.html_title = "release " + version;
  return r;
}

std::string VersionOfBanner(const std::string& banner) {
  const auto pos = banner.rfind(' ');
  return pos == std::string::npos ? banner : banner.substr(pos + 1);
}

std::string VersionOfTitle(const std::string& title) {
  const auto pos = title.rfind(' ');
  return pos == std::string::npos ? title : title.substr(pos + 1);
}

// ----------------------------------------------------------------- view cache

TEST(ViewCacheTest, HitRequiresExactWatermark) {
  pipeline::ViewCache cache;
  const IPv4Address ip(42);
  const auto view = std::make_shared<const pipeline::HostView>();
  const pipeline::ViewCache::Watermark stamp{3, 1};

  EXPECT_EQ(cache.Get(ip, stamp), nullptr);
  EXPECT_EQ(cache.misses(), 1u);

  cache.Put(ip, stamp, view);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Get(ip, stamp), view);
  EXPECT_EQ(cache.hits(), 1u);

  // A journal-seqno advance invalidates the entry on the spot.
  EXPECT_EQ(cache.Get(ip, {4, 1}), nullptr);
  EXPECT_EQ(cache.invalidations(), 1u);
  EXPECT_EQ(cache.size(), 0u);

  // So does a scan-revision advance alone (non-journaled state moved).
  cache.Put(ip, stamp, view);
  EXPECT_EQ(cache.Get(ip, {3, 2}), nullptr);
  EXPECT_EQ(cache.invalidations(), 2u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ViewCacheTest, EvictsLeastRecentlyUsedWithinShard) {
  pipeline::ViewCache::Options options;
  options.shards = 1;  // single shard so the LRU order is total
  options.capacity_per_shard = 2;
  pipeline::ViewCache cache(options);
  const auto view = std::make_shared<const pipeline::HostView>();
  const pipeline::ViewCache::Watermark stamp{1, 0};

  cache.Put(IPv4Address(1), stamp, view);
  cache.Put(IPv4Address(2), stamp, view);
  EXPECT_NE(cache.Get(IPv4Address(1), stamp), nullptr);  // 1 now MRU
  cache.Put(IPv4Address(3), stamp, view);                // evicts 2

  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Get(IPv4Address(2), stamp), nullptr);
  EXPECT_NE(cache.Get(IPv4Address(1), stamp), nullptr);
  EXPECT_NE(cache.Get(IPv4Address(3), stamp), nullptr);
}

TEST(ViewCacheTest, InvalidateAndClearDropEntries) {
  pipeline::ViewCache cache;
  const auto view = std::make_shared<const pipeline::HostView>();
  const pipeline::ViewCache::Watermark stamp{1, 0};
  for (std::uint32_t i = 0; i < 32; ++i) {
    cache.Put(IPv4Address(i), stamp, view);
  }
  EXPECT_EQ(cache.size(), 32u);

  cache.Invalidate(IPv4Address(7));
  EXPECT_EQ(cache.size(), 31u);
  EXPECT_EQ(cache.Get(IPv4Address(7), stamp), nullptr);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Get(IPv4Address(3), stamp), nullptr);
}

// ------------------------------------------------------- cached read side

void ExpectViewsEqual(const std::optional<pipeline::HostView>& a,
                      const std::optional<pipeline::HostView>& b) {
  ASSERT_EQ(a.has_value(), b.has_value());
  if (!a.has_value()) return;
  EXPECT_EQ(a->ip.value(), b->ip.value());
  EXPECT_EQ(a->country, b->country);
  EXPECT_EQ(a->asn, b->asn);
  EXPECT_EQ(a->as_org, b->as_org);
  EXPECT_EQ(a->network_type, b->network_type);
  ASSERT_EQ(a->services.size(), b->services.size());
  for (std::size_t i = 0; i < a->services.size(); ++i) {
    const pipeline::ServiceView& sa = a->services[i];
    const pipeline::ServiceView& sb = b->services[i];
    EXPECT_EQ(sa.record, sb.record);
    EXPECT_EQ(sa.last_seen, sb.last_seen);
    EXPECT_EQ(sa.pending_eviction, sb.pending_eviction);
    EXPECT_EQ(sa.cves, sb.cves);
    EXPECT_EQ(sa.max_cvss, sb.max_cvss);
    EXPECT_EQ(sa.kev, sb.kev);
  }
}

// Two read sides over the same journal/write side: one cached, one not.
// Every assertion that the cached side equals the uncached side is an
// assertion that the watermark invalidation is precise.
class CachedReadTest : public ::testing::Test {
 protected:
  CachedReadTest()
      : plan_(PlanConfig()), write_(journal_),
        fingerprints_(fingerprint::FingerprintEngine::BuiltIn(0)),
        cves_(fingerprint::CveDatabase::BuiltIn()),
        enricher_(plan_, &fingerprints_, &cves_),
        cached_(journal_, write_, &enricher_),
        uncached_(journal_, write_, &enricher_) {
    cached_.EnableCache();
  }

  static simnet::UniverseConfig PlanConfig() {
    simnet::UniverseConfig cfg;
    cfg.seed = 2;
    cfg.universe_size = 1u << 16;
    return cfg;
  }

  storage::EventJournal journal_;
  simnet::BlockPlan plan_;
  pipeline::WriteSide write_;
  fingerprint::FingerprintEngine fingerprints_;
  fingerprint::CveDatabase cves_;
  engines::ContextEnricher enricher_;
  pipeline::ReadSide cached_;
  pipeline::ReadSide uncached_;
};

TEST_F(CachedReadTest, LookupOfUnknownHostMissesWithoutCaching) {
  EXPECT_FALSE(cached_.GetHost(IPv4Address(9)).has_value());
  EXPECT_EQ(cached_.cache()->size(), 0u);
}

TEST_F(CachedReadTest, RepeatLookupIsAHitAndMatchesUncached) {
  const IPv4Address ip(7);
  write_.IngestScan(VersionedRecord(ip, 80, Timestamp{100}, "one"));

  ExpectViewsEqual(cached_.GetHost(ip), uncached_.GetHost(ip));
  EXPECT_EQ(cached_.cache()->misses(), 1u);
  ExpectViewsEqual(cached_.GetHost(ip), uncached_.GetHost(ip));
  EXPECT_EQ(cached_.cache()->hits(), 1u);
  EXPECT_EQ(cached_.lookups_served(), 2u);
}

TEST_F(CachedReadTest, EveryScanStateChangeInvalidatesPrecisely) {
  const IPv4Address ip(7);
  const ServiceKey key{ip, 80, Transport::kTcp};
  write_.IngestScan(VersionedRecord(ip, 80, Timestamp{100}, "one"));
  ASSERT_TRUE(cached_.GetHost(ip).has_value());  // populate the cache

  // A no-op refresh journals nothing but moves last_seen: the cached view
  // must not serve the stale timestamp.
  write_.IngestScan(VersionedRecord(ip, 80, Timestamp{900}, "one"));
  auto view = cached_.GetHost(ip);
  ASSERT_TRUE(view.has_value());
  ASSERT_EQ(view->services.size(), 1u);
  EXPECT_EQ(view->services[0].last_seen, Timestamp{900});
  ExpectViewsEqual(view, uncached_.GetHost(ip));

  // A failed refresh flags pending eviction (§4.6) — also non-journaled.
  write_.IngestFailure(key, Timestamp{2000});
  view = cached_.GetHost(ip);
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(view->services[0].pending_eviction);
  ExpectViewsEqual(view, uncached_.GetHost(ip));

  // A content change journals a delta; the new version must surface.
  write_.IngestScan(VersionedRecord(ip, 80, Timestamp{3000}, "two"));
  view = cached_.GetHost(ip);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->services[0].record.html_title, "release two");
  EXPECT_FALSE(view->services[0].pending_eviction);
  ExpectViewsEqual(view, uncached_.GetHost(ip));

  // Eviction removes the service; cached and uncached agree on absence.
  write_.IngestFailure(key, Timestamp{4000});
  write_.AdvanceTo(Timestamp{4000} + Duration::Hours(73));
  EXPECT_FALSE(uncached_.GetHost(ip).has_value());
  EXPECT_FALSE(cached_.GetHost(ip).has_value());
}

// ----------------------------------------------------------------- stress

// The tentpole stress contract: N readers hammer GetHost through the cache
// while the command thread appends. Every returned view must correspond to
// some journal watermark — in particular the version stamp in a service's
// banner and title (written in one delta) must agree, and per-reader
// watermarks must be monotonic per host.
TEST(ServingStressTest, ConcurrentReadersNeverObserveTornViews) {
  storage::EventJournal journal;
  simnet::UniverseConfig plan_cfg;
  plan_cfg.seed = 2;
  plan_cfg.universe_size = 1u << 16;
  simnet::BlockPlan plan(plan_cfg);
  pipeline::WriteSide write(journal);
  const engines::ContextEnricher enricher(plan, nullptr, nullptr);
  pipeline::ReadSide read(journal, write, &enricher);
  read.EnableCache();

  constexpr std::uint32_t kHosts = 8;
  constexpr int kVersions = 160;
  const std::vector<Port> ports = {80, 443};

  // Seed every host at version 1 so readers always find something.
  for (std::uint32_t h = 0; h < kHosts; ++h) {
    for (Port port : ports) {
      write.IngestScan(
          VersionedRecord(IPv4Address(h + 1), port, Timestamp{1}, "1"));
    }
  }

  std::atomic<bool> done{false};
  const int reader_count = ReaderThreads();
  std::vector<std::thread> readers;
  readers.reserve(static_cast<std::size_t>(reader_count));
  for (int r = 0; r < reader_count; ++r) {
    readers.emplace_back([&, r] {
      std::vector<std::uint64_t> last_watermark(kHosts, 0);
      std::uint32_t h = static_cast<std::uint32_t>(r);
      std::uint64_t looked = 0;
      while (!done.load(std::memory_order_relaxed) || looked < 64) {
        h = (h + 1) % kHosts;
        ++looked;
        const auto view = read.GetHost(IPv4Address(h + 1));
        if (!view.has_value()) continue;
        // Watermark is some valid journal position, monotone per host.
        ASSERT_GT(view->watermark, 0u);
        ASSERT_GE(view->watermark, last_watermark[h]);
        last_watermark[h] = view->watermark;
        for (const pipeline::ServiceView& service : view->services) {
          // Banner and title were written in one delta: disagreement
          // means the view was assembled from a torn state.
          ASSERT_EQ(VersionOfBanner(service.record.banner),
                    VersionOfTitle(service.record.html_title));
        }
      }
    });
  }

  // Command thread: walk every host/port through kVersions updates, with
  // periodic failure + recovery so scan-state revisions churn too.
  for (int v = 2; v <= kVersions; ++v) {
    const std::string version = std::to_string(v);
    const Timestamp at{static_cast<std::int64_t>(v) * 10};
    for (std::uint32_t h = 0; h < kHosts; ++h) {
      for (Port port : ports) {
        if (v % 17 == 0) {
          write.IngestFailure({IPv4Address(h + 1), port, Transport::kTcp}, at);
        }
        write.IngestScan(VersionedRecord(IPv4Address(h + 1), port, at, version));
      }
    }
    write.AdvanceTo(at);
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  // Once the writer is quiet, lookups are pure hits.
  const std::uint64_t hits_before = read.cache()->hits();
  for (std::uint32_t h = 0; h < kHosts; ++h) {
    ASSERT_TRUE(read.GetHost(IPv4Address(h + 1)).has_value());
    ASSERT_TRUE(read.GetHost(IPv4Address(h + 1)).has_value());
  }
  EXPECT_GE(read.cache()->hits(), hits_before + kHosts);
  EXPECT_GT(read.cache()->HitRatio(), 0.0);

  // Final state: everything at the last version.
  const auto view = read.GetHost(IPv4Address(1));
  ASSERT_TRUE(view.has_value());
  ASSERT_EQ(view->services.size(), ports.size());
  EXPECT_EQ(view->services[0].record.html_title,
            "release " + std::to_string(kVersions));
}

// ----------------------------------------------------------------- frontend

class FrontendTest : public ::testing::Test {
 protected:
  FrontendTest()
      : plan_(PlanConfig()), write_(journal_),
        enricher_(plan_, nullptr, nullptr),
        read_(journal_, write_, &enricher_) {
    read_.EnableCache();
    for (std::uint32_t h = 0; h < kHosts; ++h) {
      const IPv4Address ip(h + 1);
      hosts_.push_back(ip);
      write_.IngestScan(VersionedRecord(ip, 80, Timestamp{100}, "one"));
    }
    journal_.ForEachEntity(
        [&](std::string_view entity, const storage::FieldMap& fields) {
          index_.Index(entity, fields);
        });
    search::DailySnapshot snapshot;
    snapshot.day = 1;
    snapshot.total_services = kHosts;
    snapshot.total_hosts = kHosts;
    snapshot.by_protocol["HTTP"] = kHosts;
    analytics_.AddSnapshot(snapshot);
  }

  static simnet::UniverseConfig PlanConfig() {
    simnet::UniverseConfig cfg;
    cfg.seed = 2;
    cfg.universe_size = 1u << 16;
    return cfg;
  }

  static constexpr std::uint32_t kHosts = 8;

  storage::EventJournal journal_;
  simnet::BlockPlan plan_;
  pipeline::WriteSide write_;
  engines::ContextEnricher enricher_;
  pipeline::ReadSide read_;
  search::SearchIndex index_;
  search::AnalyticsStore analytics_;
  std::vector<IPv4Address> hosts_;
};

TEST_F(FrontendTest, MixedBatchServesEveryQueryKind) {
  ServingFrontend::Options options;
  options.threads = 2;
  ServingFrontend frontend(read_, index_, analytics_, options);

  std::vector<Query> batch;
  for (IPv4Address ip : hosts_) {
    Query q;
    q.kind = Query::Kind::kLookup;
    q.ip = ip;
    batch.push_back(q);
  }
  Query history;
  history.kind = Query::Kind::kHistory;
  history.ip = hosts_[0];
  history.at = Timestamp{500};
  batch.push_back(history);
  Query search;
  search.kind = Query::Kind::kSearch;
  search.text = "nginx";
  batch.push_back(search);
  Query analytics;
  analytics.kind = Query::Kind::kAnalytics;
  analytics.at = Timestamp{2 * 1440};  // day 2: latest-up-to resolves day 1
  analytics.text = "HTTP";
  batch.push_back(analytics);

  const BatchReport report = frontend.Run(batch);
  EXPECT_EQ(report.queries, batch.size());
  EXPECT_EQ(report.lookups, kHosts);
  EXPECT_EQ(report.histories, 1u);
  EXPECT_EQ(report.searches, 1u);
  EXPECT_EQ(report.analytics, 1u);
  EXPECT_EQ(report.lookup_hits, kHosts);
  EXPECT_GT(report.search_results, 0u);
  EXPECT_GT(report.elapsed_us, 0.0);
  EXPECT_GT(report.qps, 0.0);
  EXPECT_EQ(frontend.queries_served(), batch.size());

  // The same batch again is served from the view cache.
  const BatchReport again = frontend.Run(batch);
  EXPECT_EQ(again.cache_hits, static_cast<std::uint64_t>(kHosts));
  EXPECT_GT(again.cache_hit_ratio, 0.0);
  EXPECT_EQ(frontend.queries_served(), 2 * batch.size());
  EXPECT_GT(frontend.LookupP99Us(), 0.0);
}

TEST_F(FrontendTest, InlineModeServesWithoutThreads) {
  ServingFrontend::Options options;
  options.threads = 0;
  ServingFrontend frontend(read_, index_, analytics_, options);
  Query q;
  q.kind = Query::Kind::kLookup;
  q.ip = hosts_[0];
  const BatchReport report = frontend.Run({q});
  EXPECT_EQ(report.lookup_hits, 1u);
}

TEST_F(FrontendTest, MixedWorkloadIsDeterministicAndLookupHeavy) {
  Rng rng(99);
  const auto batch = ServingFrontend::MixedWorkload(
      1000, hosts_, {"nginx", "http"}, {"HTTP"}, Timestamp{10'000}, rng);
  ASSERT_EQ(batch.size(), 1000u);
  std::size_t lookups = 0, histories = 0, searches = 0, analytics = 0;
  for (const Query& q : batch) {
    switch (q.kind) {
      case Query::Kind::kLookup: ++lookups; break;
      case Query::Kind::kHistory: ++histories; break;
      case Query::Kind::kSearch: ++searches; break;
      case Query::Kind::kAnalytics: ++analytics; break;
      case Query::Kind::kAggregate: break;  // not emitted by MixedWorkload
    }
    EXPECT_GE(q.at.minutes, 0);
  }
  EXPECT_GT(lookups, 500u);  // ~70% of traffic
  EXPECT_GT(histories, 0u);
  EXPECT_GT(searches, 0u);
  EXPECT_GT(analytics, 0u);

  Rng replay(99);
  const auto batch2 = ServingFrontend::MixedWorkload(
      1000, hosts_, {"nginx", "http"}, {"HTTP"}, Timestamp{10'000}, replay);
  ASSERT_EQ(batch2.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch2[i].kind, batch[i].kind);
    EXPECT_EQ(batch2[i].ip.value(), batch[i].ip.value());
  }
}

// --------------------------------------------------------- degradation
//
// The graceful-degradation ladder under injected read faults: retry ->
// stale-cache answer -> failed, plus batch-level load shedding. Every
// query is accounted for in BatchReport; nothing ever crashes.

std::vector<Query> LookupBatch(const std::vector<IPv4Address>& hosts) {
  std::vector<Query> batch;
  for (IPv4Address ip : hosts) {
    Query q;
    q.kind = Query::Kind::kLookup;
    q.ip = ip;
    batch.push_back(q);
  }
  return batch;
}

TEST_F(FrontendTest, BatchDeadlineShedsExcessQueries) {
  ServingFrontend::Options options;
  options.threads = 0;
  options.batch_deadline_us = 0.05;  // gone after roughly one lookup
  ServingFrontend frontend(read_, index_, analytics_, options);

  std::vector<Query> batch;
  for (int i = 0; i < 32; ++i) {
    const auto one = LookupBatch(hosts_);
    batch.insert(batch.end(), one.begin(), one.end());
  }
  const BatchReport report = frontend.Run(batch);
  EXPECT_GT(report.shed, 0u);
  // Shed queries never touch the read path; everything else (known
  // hosts, no faults) answers — the two partitions cover the batch.
  EXPECT_EQ(report.shed + report.lookup_hits, report.queries);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(frontend.queries_served(), batch.size());
}

#if defined(CENSYSIM_FAULT_INJECTION)

TEST_F(FrontendTest, TransientReadFaultsRetryToSuccess) {
  ServingFrontend::Options options;
  options.threads = 0;  // inline: deterministic fault-to-query assignment
  options.max_read_retries = 3;
  options.retry_backoff_us = 1;
  ServingFrontend frontend(read_, index_, analytics_, options);

  // The first two read attempts of the batch fail; backoff-retries
  // absorb both and every query still answers fresh.
  fault::ScopedPlan plan(5, {{.point = "serving.read",
                              .mode = fault::Mode::kErrorReturn,
                              .max_fires = 2}});
  const BatchReport report = frontend.Run(LookupBatch(hosts_));
  EXPECT_EQ(report.lookup_hits, kHosts);
  EXPECT_EQ(report.read_faults, 2u);
  EXPECT_EQ(report.retries, 2u);
  EXPECT_EQ(report.degraded, 0u);
  EXPECT_EQ(report.failed, 0u);
}

TEST_F(FrontendTest, PersistentFaultsDegradeLookupsToStaleCache) {
  ServingFrontend::Options options;
  options.threads = 0;
  options.max_read_retries = 2;
  options.retry_backoff_us = 1;
  ServingFrontend frontend(read_, index_, analytics_, options);

  // Warm the view cache while reads are healthy.
  const std::vector<Query> batch = LookupBatch(hosts_);
  ASSERT_EQ(frontend.Run(batch).lookup_hits, kHosts);

  // Then every fresh read fails, every retry included. Lookups fall to
  // the last cached view instead of failing.
  const std::uint64_t stale0 = read_.cache()->stale_hits();
  fault::ScopedPlan plan(
      6, {{.point = "serving.read", .mode = fault::Mode::kErrorReturn}});
  const BatchReport report = frontend.Run(batch);
  EXPECT_EQ(report.degraded, kHosts);
  EXPECT_EQ(report.lookup_hits, kHosts);  // stale answers still answer
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.read_faults, kHosts * 3u);  // retries+1 attempts each
  EXPECT_EQ(report.retries, kHosts * 2u);
  EXPECT_EQ(read_.cache()->stale_hits(), stale0 + kHosts);
}

TEST_F(FrontendTest, NoStaleFallbackMeansFailedNotCrashed) {
  ServingFrontend::Options options;
  options.threads = 0;
  options.max_read_retries = 1;
  options.retry_backoff_us = 1;
  options.allow_stale_reads = false;
  ServingFrontend frontend(read_, index_, analytics_, options);

  // Even kCrash on the read path is just a transient error: a pure
  // reader has nothing to tear, so the site never throws.
  fault::ScopedPlan plan(
      9, {{.point = "serving.read", .mode = fault::Mode::kCrash}});
  std::vector<Query> batch = LookupBatch(hosts_);
  Query search;
  search.kind = Query::Kind::kSearch;
  search.text = "nginx";
  batch.push_back(search);
  const BatchReport report = frontend.Run(batch);
  EXPECT_EQ(report.failed, batch.size());
  EXPECT_EQ(report.degraded, 0u);
  EXPECT_EQ(report.lookup_hits, 0u);
  EXPECT_EQ(report.search_results, 0u);
  EXPECT_EQ(frontend.queries_served(), batch.size());
}

#endif  // CENSYSIM_FAULT_INJECTION

// --------------------------------------------------- serving during ticks

std::uint64_t JournalDigest(const engines::CensysEngine& engine) {
  std::uint64_t digest = 1469598103934665603ull;
  engine.journal().ScanAll([&](std::string_view key, std::string_view value) {
    digest = (digest ^ Fnv1a64(key)) * 1099511628211ull;
    digest = (digest ^ Fnv1a64(value)) * 1099511628211ull;
    return true;
  });
  return digest;
}

// Acceptance criterion for the serving layer: a frontend hammering mixed
// query traffic while the engine ticks must not perturb the journal — the
// digest matches a run with no serving traffic at all.
TEST(ServingWithTicksTest, ServingTrafficDoesNotPerturbTheJournal) {
  engines::WorldConfig cfg;
  cfg.universe.seed = 21;
  cfg.universe.universe_size = 1u << 16;
  cfg.universe.target_services = 3000;
  cfg.universe.ics_scale = 128;
  cfg.with_alternatives = false;
  cfg.censys.threads = 2;

  auto quiet_run = [&] {
    engines::World world(cfg);
    world.Bootstrap();
    world.RunForDays(1.5);
    return std::tuple(JournalDigest(world.censys()),
                      world.censys().journal().RowCount(),
                      world.censys().journal().event_count());
  };
  const auto baseline = quiet_run();

  engines::World world(cfg);
  world.Bootstrap();
  // The frontend is wired from above the engine (layer DAG: serving sits
  // on top of engines), against the engine's read side and indexes.
  ServingFrontend frontend(world.censys().read_side(),
                           world.censys().search_index(),
                           world.censys().analytics(),
                           ServingFrontend::Options{2});

  std::vector<IPv4Address> hosts;
  for (std::uint32_t ip = 0; ip < (1u << 16); ip += 97) {
    hosts.emplace_back(ip);
  }
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> batches{0};
  std::thread traffic([&] {
    Rng rng(7);
    const Timestamp asof = Timestamp{3 * 1440};
    while (!done.load(std::memory_order_relaxed)) {
      const auto batch = ServingFrontend::MixedWorkload(
          128, hosts, {"nginx", "ssh"}, {"HTTP", "SSH"}, asof, rng);
      frontend.Run(batch);
      batches.fetch_add(1, std::memory_order_relaxed);
    }
  });
  world.RunForDays(1.5);
  done.store(true, std::memory_order_relaxed);
  traffic.join();

  EXPECT_GT(batches.load(), 0u);
  EXPECT_GT(frontend.queries_served(), 0u);
  EXPECT_EQ(JournalDigest(world.censys()), std::get<0>(baseline));
  EXPECT_EQ(world.censys().journal().RowCount(), std::get<1>(baseline));
  EXPECT_EQ(world.censys().journal().event_count(), std::get<2>(baseline));
}

}  // namespace
}  // namespace censys::serving
