// Integration tests: the full Censys engine, competitor models, and the
// evaluation world running end to end on a small universe.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_set>

#include "core/executor.h"
#include "core/strings.h"
#include "engines/evaluation.h"
#include "engines/tick_pipeline.h"
#include "engines/world.h"
#include "interrogate/interrogator.h"
#include "pipeline/entity.h"
#include "pipeline/write_side.h"
#include "predict/predictive.h"
#include "simnet/internet.h"
#include "search/pivots.h"
#include "web/attach.h"

namespace censys::engines {
namespace {

WorldConfig SmallWorld(std::uint64_t seed = 42) {
  WorldConfig cfg;
  cfg.universe.seed = seed;
  cfg.universe.universe_size = 1u << 16;
  cfg.universe.target_services = 9000;
  cfg.universe.ics_scale = 128;
  return cfg;
}

// The derived-view oracle for the secondary pivot tables: the engine's
// pivots() must equal a PivotIndex rebuilt by walking the journal's
// current host states, on every certificate and JARM the walk sees.
void ExpectPivotsMatchJournal(const CensysEngine& engine) {
  search::PivotIndex want;
  std::set<std::string> certs;
  std::set<std::string> jarms;
  engine.journal().ForEachEntity(
      [&](std::string_view id, const storage::FieldMap& fields) {
        const std::optional<IPv4Address> ip = IPv4Address::Parse(id);
        ASSERT_TRUE(ip.has_value()) << id;
        for (const ServiceKey key : pipeline::ServicesIn(fields, *ip)) {
          const auto record = pipeline::RecordFrom(fields, key);
          ASSERT_TRUE(record.has_value()) << key.ToString();
          want.Observe(key, record->cert_sha256, record->jarm);
          if (!record->cert_sha256.empty()) certs.insert(record->cert_sha256);
          if (!record->jarm.empty()) jarms.insert(record->jarm);
        }
      });
  const search::PivotIndex& got = engine.pivots();
  EXPECT_EQ(got.cert_count(), want.cert_count());
  EXPECT_EQ(got.jarm_count(), want.jarm_count());
  std::size_t differing = 0;
  std::string first;
  for (const std::string& cert : certs) {
    if (got.EndpointsWithCert(cert) != want.EndpointsWithCert(cert)) {
      if (differing++ == 0) first = "cert " + cert;
    }
  }
  for (const std::string& jarm : jarms) {
    if (got.EndpointsWithJarm(jarm) != want.EndpointsWithJarm(jarm)) {
      if (differing++ == 0) first = "jarm " + jarm;
    }
  }
  EXPECT_EQ(differing, 0u) << "first differing pivot: " << first;
}

class WorldTest : public ::testing::Test {
 protected:
  // One shared world: construction + bootstrap + a 3-day run is the
  // expensive part, and these assertions are all read-only.
  static void SetUpTestSuite() {
    world_ = new World(SmallWorld());
    // The web layer sits above engines in the layer DAG; the catalog is
    // wired onto the engine's daily cadence from outside.
    catalog_ = web::AttachCatalog(world_->censys()).release();
    world_->Bootstrap();
    world_->RunForDays(3);
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
    delete catalog_;
    catalog_ = nullptr;
  }

  static World* world_;
  static web::WebPropertyCatalog* catalog_;
};

World* WorldTest::world_ = nullptr;
web::WebPropertyCatalog* WorldTest::catalog_ = nullptr;

TEST_F(WorldTest, CensysTracksMostOfTheInternet) {
  const std::size_t active =
      world_->internet().ActiveServiceCount(world_->now());
  const std::size_t tracked = world_->censys().write_side().tracked_count();
  EXPECT_GT(tracked, active / 2);
  EXPECT_LT(tracked, active * 11 / 10);
}

TEST_F(WorldTest, CensysIsMostAccurateEngine) {
  double censys_acc = 0;
  std::vector<std::pair<std::string, double>> accuracies;
  for (ScanEngine* engine : world_->engines()) {
    std::uint64_t sampled = 0, live = 0, index = 0;
    engine->ForEachEntry([&](const EngineEntry& entry) {
      if (++index % 5 != 0 || sampled >= 1200) return;
      ++sampled;
      if (world_->internet().FindService(entry.key, world_->now()) != nullptr ||
          world_->internet().IsPseudoHost(entry.key.ip)) {
        ++live;
      }
    });
    const double acc = sampled ? double(live) / double(sampled) : 0;
    accuracies.emplace_back(std::string(engine->name()), acc);
    if (engine->name() == "Censys") censys_acc = acc;
  }
  EXPECT_GT(censys_acc, 0.8);
  for (const auto& [name, acc] : accuracies) {
    if (name != "Censys") {
      EXPECT_GT(censys_acc, acc) << name << " beat Censys on accuracy";
    }
  }
}

TEST_F(WorldTest, CensysFreshnessUnder48Hours) {
  // "100% of services in Censys were scanned within the past 48 hours."
  std::uint64_t total = 0, fresh = 0;
  world_->censys().ForEachEntry([&](const EngineEntry& entry) {
    ++total;
    if ((world_->now() - entry.last_scanned).ToHours() <= 48.0) ++fresh;
  });
  ASSERT_GT(total, 0u);
  EXPECT_GT(static_cast<double>(fresh) / static_cast<double>(total), 0.97);
}

TEST_F(WorldTest, ZoomEyeServesYearsOldEntries) {
  std::uint64_t stale_years = 0;
  world_->alternative("ZoomEye")->ForEachEntry([&](const EngineEntry& e) {
    if ((world_->now() - e.last_scanned).ToDays() > 365.0) ++stale_years;
  });
  EXPECT_GT(stale_years, 0u);
}

TEST_F(WorldTest, CensysCoversTopPortsNearlyCompletely) {
  std::unordered_set<std::uint64_t> known;
  world_->censys().ForEachEntry(
      [&](const EngineEntry& e) { known.insert(e.key.Pack()); });
  std::size_t top10_total = 0, top10_hit = 0, rest_total = 0, rest_hit = 0;
  world_->internet().ForEachActiveService(
      world_->now(), [&](const simnet::SimService& svc) {
        if (svc.pseudo) return;
        // Only count services old enough for the daily scans to have had a
        // full chance (coverage at a point in time always trails births).
        if ((world_->now() - svc.born).ToDays() < 1.5) return;
        const auto bucket = BucketOf(world_->internet().ports(), svc.key.port);
        if (bucket == PortBucket::kTop10) {
          ++top10_total;
          top10_hit += known.contains(svc.key.Pack());
        } else if (bucket == PortBucket::kRest &&
                   svc.key.transport == Transport::kTcp) {
          ++rest_total;
          rest_hit += known.contains(svc.key.Pack());
        }
      });
  ASSERT_GT(top10_total, 100u);
  const double top10 = double(top10_hit) / double(top10_total);
  const double rest = double(rest_hit) / double(rest_total);
  EXPECT_GT(top10, 0.9);      // ~98% in the paper
  EXPECT_LT(rest, top10);     // all-port coverage is necessarily lower
  EXPECT_GT(rest, 0.3);       // but far from zero (background + predictive)
}

TEST_F(WorldTest, EngineOverlapIsAsymmetric) {
  // Censys covers most of Shodan's live services; the reverse is far lower
  // (Figure 3's key asymmetry).
  std::unordered_set<std::uint64_t> censys_keys, shodan_live;
  world_->censys().ForEachEntry(
      [&](const EngineEntry& e) { censys_keys.insert(e.key.Pack()); });
  world_->alternative("Shodan")->ForEachEntry([&](const EngineEntry& e) {
    if (world_->internet().FindService(e.key, world_->now()) != nullptr) {
      shodan_live.insert(e.key.Pack());
    }
  });
  ASSERT_GT(shodan_live.size(), 100u);
  std::size_t censys_covers = 0;
  for (std::uint64_t k : shodan_live) censys_covers += censys_keys.contains(k);
  const double censys_of_shodan =
      double(censys_covers) / double(shodan_live.size());
  EXPECT_GT(censys_of_shodan, 0.75);

  std::size_t shodan_covers = 0;
  std::size_t censys_live = 0;
  for (std::uint64_t k : censys_keys) {
    if (world_->internet().FindService(ServiceKey::Unpack(k), world_->now()) ==
        nullptr)
      continue;
    ++censys_live;
    shodan_covers += shodan_live.contains(k);
  }
  const double shodan_of_censys =
      double(shodan_covers) / double(censys_live);
  EXPECT_LT(shodan_of_censys, censys_of_shodan);
}

TEST_F(WorldTest, QueryHostMatchesForEachEntry) {
  // Spot-check API consistency on a few known entries.
  int checked = 0;
  world_->censys().ForEachEntry([&](const EngineEntry& entry) {
    if (checked >= 20) return;
    ++checked;
    const auto host_entries = world_->censys().QueryHost(entry.key.ip);
    bool found = false;
    for (const EngineEntry& e : host_entries) {
      if (e.key == entry.key) found = true;
    }
    EXPECT_TRUE(found) << entry.key.ToString();
  });
  EXPECT_EQ(checked, 20);
}

TEST_F(WorldTest, DuplicateInflationMatchesPolicies) {
  EXPECT_EQ(UniqueCount(*world_->alternative("Shodan")),
            world_->alternative("Shodan")->SelfReportedCount());
  EXPECT_LT(UniqueCount(*world_->alternative("Fofa")),
            world_->alternative("Fofa")->SelfReportedCount());
  EXPECT_LT(UniqueCount(*world_->alternative("Netlas")),
            world_->alternative("Netlas")->SelfReportedCount());
}

TEST_F(WorldTest, IcsQueriesRespectSupportMatrix) {
  // "Netlas reports results for only S7."
  AltEngine* netlas = world_->alternative("Netlas");
  EXPECT_TRUE(netlas->SupportsProtocolQuery(proto::Protocol::kS7));
  EXPECT_FALSE(netlas->SupportsProtocolQuery(proto::Protocol::kModbus));
  EXPECT_TRUE(netlas->QueryProtocol(proto::Protocol::kModbus).empty());
  // Nobody but Censys answers CIMON/CMORE/DIGI queries (Table 4).
  for (const char* name : {"Shodan", "Fofa", "ZoomEye", "Netlas"}) {
    EXPECT_FALSE(world_->alternative(name)->SupportsProtocolQuery(
        proto::Protocol::kCimonPlc))
        << name;
  }
  EXPECT_TRUE(world_->censys().SupportsProtocolQuery(
      proto::Protocol::kCimonPlc));
}

TEST_F(WorldTest, ShodanOverReportsKeywordLabeledIcs) {
  AltEngine* shodan = world_->alternative("Shodan");
  const auto reported = shodan->QueryProtocol(proto::Protocol::kAtg);
  std::size_t validated = 0;
  for (const EngineEntry& e : reported) {
    const simnet::SimService* svc =
        world_->internet().FindService(e.key, world_->now());
    if (svc != nullptr && svc->protocol == proto::Protocol::kAtg) ++validated;
  }
  // Keyword labeling inflates the reported count well past validated truth.
  EXPECT_GT(reported.size(), validated * 3 + 3);
}

TEST_F(WorldTest, CensysIcsLabelsAreHandshakeValidated) {
  const auto reported =
      world_->censys().QueryProtocol(proto::Protocol::kModbus);
  ASSERT_GT(reported.size(), 5u);
  std::size_t validated = 0;
  for (const EngineEntry& e : reported) {
    const simnet::SimService* svc =
        world_->internet().FindService(e.key, world_->now());
    if (svc != nullptr && svc->protocol == proto::Protocol::kModbus)
      ++validated;
  }
  // Only staleness (pending eviction) separates reported from validated.
  EXPECT_GT(static_cast<double>(validated) /
                static_cast<double>(reported.size()),
            0.75);
}

TEST_F(WorldTest, WebPropertiesDiscoveredViaCt) {
  EXPECT_GT(catalog_->size(), 50u);
  EXPECT_GT(catalog_->reachable_count(), 25u);
}

TEST_F(WorldTest, AnalyticsSnapshotsAccumulateDaily) {
  EXPECT_GE(world_->censys().analytics().size(), 3u);
}

TEST_F(WorldTest, SearchIndexAnswersQueries) {
  World& world = *world_;
  world.censys().RebuildSearchIndex();
  const auto& index = world.censys().search_index();
  ASSERT_GT(index.doc_count(), 100u);
  std::string error;
  const auto https = index.Search(R"(svc.443/tcp.service.name: "HTTPS")",
                                  &error);
  EXPECT_TRUE(error.empty());
  EXPECT_GT(https.size(), 10u);
}

TEST_F(WorldTest, JournalSupportsHistoricalHostLookups) {
  // Pick a stable tracked service and look it up in the past.
  std::optional<ServiceKey> key;
  world_->censys().write_side().ForEachTracked(
      [&](const pipeline::ServiceState& s) {
        if (!key.has_value() && s.first_seen < Timestamp{0}) key = s.key;
      });
  ASSERT_TRUE(key.has_value());
  const auto view =
      world_->censys().read_side().GetHostAt(key->ip, world_->now());
  ASSERT_TRUE(view.has_value());
  EXPECT_FALSE(view->services.empty());
}

TEST_F(WorldTest, CertificateStoreIsPopulatedFromScansAndCt) {
  const auto& store = world_->censys().cert_store();
  ASSERT_GT(store.size(), 500u);
  auto stats = store.ComputeStats();
  // Scanned device certs + CT-logged web certs both flow in (§4.4).
  EXPECT_GT(stats.by_status[cert::ValidationStatus::kTrusted], 100u);
  EXPECT_GT(stats.by_status[cert::ValidationStatus::kSelfSigned], 10u);
  EXPECT_GT(stats.ct_only + stats.scan_only, 100u);
}

TEST_F(WorldTest, PivotTablesTrackTlsServices) {
  const auto& pivots = world_->censys().pivots();
  EXPECT_GT(pivots.cert_count(), 200u);
  EXPECT_GT(pivots.jarm_count(), 10u);
  // Every pivot points at a currently-journaled service, and every
  // journaled TLS service is pivoted.
  ExpectPivotsMatchJournal(world_->censys());
  // Rare JARM clusters exist (the 1/64 rare-stack population).
  EXPECT_FALSE(pivots.RareJarmClusters(2, 64).empty());
}

TEST_F(WorldTest, RequestScanServesRealTimeResults) {
  // Pick a live service Censys does not know about yet, request an
  // on-demand scan, and see it appear in the dataset (Figure 1 "Real-Time
  // Scan Requests").
  const core::ThreadRoleGuard role(
      world_->censys().write_side().command_role());
  std::optional<simnet::SimService> target;
  world_->internet().ForEachActiveService(
      world_->now(), [&](const simnet::SimService& svc) {
        if (target.has_value() || svc.pseudo) return;
        if (svc.key.transport != Transport::kTcp) return;
        if (world_->censys().write_side().GetState(svc.key) == nullptr) {
          target = svc;
        }
      });
  ASSERT_TRUE(target.has_value());
  std::optional<interrogate::ServiceRecord> record;
  for (int attempt = 0; attempt < 8 && !record.has_value(); ++attempt) {
    record = world_->censys().RequestScan(
        target->key, world_->now() + Duration::Hours(attempt));
  }
  ASSERT_TRUE(record.has_value());
  EXPECT_NE(world_->censys().write_side().GetState(target->key), nullptr);
}

// NOTE: this test mutates the shared world (adds an exclusion and advances
// time), so it must remain the last WorldTest registered in this file.
TEST_F(WorldTest, ExclusionStopsScanningAndDropsData) {
  // Opt out a prefix that currently has tracked services; after the
  // eviction deadline its services must be gone from the dataset.
  const core::ThreadRoleGuard role(
      world_->censys().write_side().command_role());
  std::optional<ServiceKey> victim;
  world_->censys().write_side().ForEachTracked(
      [&](const pipeline::ServiceState& state) {
        if (!victim.has_value()) victim = state.key;
      });
  ASSERT_TRUE(victim.has_value());
  const Cidr prefix(victim->ip, 24);
  ASSERT_TRUE(world_->censys().exclusions().Exclude(prefix, "Opt-Out Org",
                                                    world_->now()));
  // No real-time scan either.
  EXPECT_FALSE(
      world_->censys().RequestScan(*victim, world_->now()).has_value());
  world_->RunForDays(4.5);  // refresh fails daily; 72 h eviction passes
  EXPECT_EQ(world_->censys().write_side().GetState(*victim), nullptr);
}

// A rebuild must drop hosts whose state emptied since the previous one:
// the index then holds exactly the non-empty entities.
TEST(SearchRebuildTest, RebuildDropsHostsEmptiedSinceLastRebuild) {
  WorldConfig cfg = SmallWorld(42);
  cfg.universe.target_services = 3000;
  cfg.with_alternatives = false;
  World world(cfg);
  world.Bootstrap();
  world.RunForDays(1);
  world.censys().RebuildSearchIndex();
  world.RunForDays(3);  // past the 72 h eviction window

  const std::size_t indexed = world.censys().RebuildSearchIndex();
  std::size_t non_empty = 0;
  std::size_t emptied = 0;
  world.censys().journal().ForEachEntity(
      [&](std::string_view, const storage::FieldMap& fields) {
        ++(fields.empty() ? emptied : non_empty);
      });
  ASSERT_GT(emptied, 0u);
  EXPECT_EQ(indexed, non_empty);
  EXPECT_EQ(world.censys().search_index().doc_count(), non_empty);
}

// The pivot oracle after every tick of a run whose ticks journal
// evictions and pseudo-host suppressions, the two removal paths: the pivot
// tables follow the journal's commit stream and nothing else.
TEST(PivotOracleTest, PivotsMatchAJournalWalkAfterEveryTick) {
  WorldConfig cfg = SmallWorld(23);
  cfg.universe.target_services = 3000;
  cfg.with_alternatives = false;
  cfg.censys.threads = 2;
  World world(cfg);
  world.Bootstrap();
  ExpectPivotsMatchJournal(world.censys());
  const Timestamp end = world.now() + Duration::Days(4);
  while (world.now() < end && !HasFailure()) {
    world.RunUntil(world.now() + cfg.tick);
    SCOPED_TRACE("at minute " + std::to_string(world.now().minutes));
    ExpectPivotsMatchJournal(world.censys());
  }
  EXPECT_GT(world.censys().write_side().services_evicted(), 0u);
  EXPECT_GT(world.censys().write_side().pseudo_suppressed(), 0u);
  EXPECT_GT(world.censys().pivots().cert_count(), 0u);
}

// --------------------------------------------------- determinism (own worlds)

TEST(WorldDeterminismTest, SameSeedSameOutcome) {
  WorldConfig cfg = SmallWorld(7);
  cfg.universe.target_services = 3000;
  cfg.with_alternatives = false;

  auto run = [&] {
    World world(cfg);
    world.Bootstrap();
    world.RunForDays(1);
    std::vector<std::uint64_t> keys;
    world.censys().ForEachEntry(
        [&](const EngineEntry& e) { keys.push_back(e.key.Pack()); });
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  EXPECT_EQ(run(), run());
}

// Order-sensitive digest of every journal row: any difference in event
// order, content, or count between two runs changes it.
std::uint64_t JournalDigest(const storage::EventJournal& journal) {
  std::uint64_t digest = 1469598103934665603ull;
  journal.ScanAll([&](std::string_view key, std::string_view value) {
    digest = (digest ^ Fnv1a64(key)) * 1099511628211ull;
    digest = (digest ^ Fnv1a64(value)) * 1099511628211ull;
    return true;
  });
  return digest;
}

std::uint64_t JournalDigest(const CensysEngine& engine) {
  return JournalDigest(engine.journal());
}

// The tentpole guarantee of the staged pipeline: interrogation fans out
// across threads, but commits land in candidate-sequence order, so the
// event journal is identical to the single-threaded run.
TEST(WorldDeterminismTest, ParallelRunMatchesSerialJournalExactly) {
  WorldConfig cfg = SmallWorld(11);
  cfg.universe.target_services = 3000;
  cfg.with_alternatives = false;

  auto run = [&](int threads) {
    WorldConfig parallel_cfg = cfg;
    parallel_cfg.censys.threads = threads;
    World world(parallel_cfg);
    world.Bootstrap();
    world.RunForDays(2);
    return std::tuple(JournalDigest(world.censys()),
                      world.censys().journal().RowCount(),
                      world.censys().journal().event_count(),
                      world.censys().write_side().tracked_count());
  };

  int threads = 3;  // ctest also registers a CENSYSIM_THREADS=4 variant
  if (const char* env = std::getenv("CENSYSIM_THREADS")) {
    threads = std::atoi(env);
  }
  const auto serial = run(0);
  const auto parallel = run(threads);
  EXPECT_EQ(std::get<0>(parallel), std::get<0>(serial));
  EXPECT_EQ(std::get<1>(parallel), std::get<1>(serial));
  EXPECT_EQ(std::get<2>(parallel), std::get<2>(serial));
  EXPECT_EQ(std::get<3>(parallel), std::get<3>(serial));
}

// The leader journal of a small world whose days journal evictions and
// pseudo-host suppressions, pinned. The digest was printed by the engine
// that still walked the whole map for its refresh due list, diffed a copy
// of each service's fields and rebuilt the co-occurrence lists from every
// pair count: changes meant only to make the engine faster must keep it.
TEST(WorldDeterminismTest, GoldenLeaderJournalDigest) {
  WorldConfig cfg = SmallWorld(23);
  cfg.universe.target_services = 3000;
  cfg.with_alternatives = false;
  cfg.censys.threads = 2;
  World world(cfg);
  world.Bootstrap();
  world.RunForDays(5);
  const CensysEngine& censys = world.censys();
  EXPECT_EQ(censys.write_side().services_evicted(), 145u);
  EXPECT_EQ(censys.write_side().pseudo_suppressed(), 6095u);
  EXPECT_EQ(censys.write_side().tracked_count(), 2517u);
  EXPECT_EQ(censys.journal().event_count(), 2967u);
  EXPECT_EQ(JournalDigest(censys), 0x86a6ed4f873f98a3ull);
}

// Group commit's invariant: batch size changes WAL write granularity and
// nothing else. Every (threads, commit_batch) combination must produce the
// journal the single-threaded write-through run produces, byte for byte —
// including batch = 1 (flush every commit) and a batch far larger than any
// wave (one flush per wave).
TEST(WorldDeterminismTest, GroupCommitMatrixMatchesSerialJournalExactly) {
  WorldConfig cfg = SmallWorld(17);
  cfg.universe.target_services = 1200;
  cfg.with_alternatives = false;

  auto run = [&](int threads, std::uint32_t commit_batch) {
    WorldConfig matrix_cfg = cfg;
    matrix_cfg.censys.threads = threads;
    matrix_cfg.censys.commit_batch = commit_batch;
    World world(matrix_cfg);
    world.Bootstrap();
    world.RunForDays(1);
    return std::tuple(JournalDigest(world.censys()),
                      world.censys().journal().event_count(),
                      world.censys().write_side().tracked_count());
  };

  const auto want = run(0, 1);
  for (const int threads : {1, 2, 4, 8}) {
    for (const std::uint32_t batch : {1u, 16u, 256u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " batch=" + std::to_string(batch));
      EXPECT_EQ(run(threads, batch), want);
    }
  }
}

// ------------------------------------- worker-side diff (hand-built waves)

// A tick pipeline of its own over a small internet, fed hand-built waves.
// Workers diff each record against the host state they read; the commit
// stage re-diffs a service that received an event earlier in the wave.
class WorkerDiffTest : public ::testing::Test {
 protected:
  static constexpr Timestamp kAt = Timestamp::FromHours(1);

  WorkerDiffTest() : net_(Config()), interrogator_(net_, profile_) {}

  static simnet::UniverseConfig Config() {
    simnet::UniverseConfig cfg;
    cfg.seed = 19;
    cfg.universe_size = 1u << 16;
    cfg.target_services = 6000;
    return cfg;
  }

  InterrogationJob Job(ServiceKey key) const {
    InterrogationJob job;
    job.key = key;
    job.at = kAt;
    return job;
  }

  // Whether an interrogation of `key` at kAt answers (pure, so the waves
  // below answer the same way).
  bool Answers(ServiceKey key) const {
    return interrogator_.InterrogateDetached(key, kAt, 0).record.has_value();
  }

  // Up to `count` answering services of one non-pseudo host, with at
  // least `count` of them.
  std::vector<ServiceKey> HostServices(std::size_t count) const {
    std::map<std::uint32_t, std::vector<ServiceKey>> by_host;
    net_.ForEachActiveService(kAt, [&](const simnet::SimService& svc) {
      if (!svc.pseudo && Answers(svc.key)) {
        by_host[svc.key.ip.value()].push_back(svc.key);
      }
    });
    for (const auto& [ip, keys] : by_host) {
      if (keys.size() >= count) {
        return {keys.begin(), keys.begin() + static_cast<long>(count)};
      }
    }
    return {};
  }

  struct Outcome {
    std::uint64_t digest = 0;
    std::uint64_t events = 0;
    std::uint64_t rediffs = 0;
    bool operator==(const Outcome& o) const {
      return digest == o.digest && events == o.events;
    }
  };

  // The wave through a TickPipeline with `threads` workers, committing in
  // batches of 64.
  Outcome RunPipeline(const std::vector<InterrogationJob>& jobs,
                      int threads) {
    storage::EventJournal journal;
    pipeline::WriteSide write(journal);
    predict::PredictiveEngine predictive(net_.blocks(), 5);
    Executor executor(threads);
    TickPipeline tick(executor, interrogator_, write, predictive, 64);
    tick.Run(jobs);
    return {JournalDigest(journal), journal.event_count(), write.rediffs()};
  }

  // The same jobs one at a time, each diffed on the calling thread and
  // journaled before the next.
  Outcome RunSerial(const std::vector<InterrogationJob>& jobs) {
    storage::EventJournal journal;
    pipeline::WriteSide write(journal);
    for (const InterrogationJob& job : jobs) {
      const auto record = interrogator_.Interrogate(job.key, job.at, job.pop);
      if (record.has_value()) write.IngestScan(*record);
    }
    return {JournalDigest(journal), journal.event_count(), write.rediffs()};
  }

  simnet::Internet net_;
  simnet::ScannerProfile profile_{1, "censys", 576.0, 1280.0};
  interrogate::Interrogator interrogator_;
};

// A service found twice in one wave: the second prepared delta was read
// before the first event was applied, so only the re-diff keeps a second
// found event out of the journal.
TEST_F(WorkerDiffTest, SameServiceTwiceInAWaveIsRediffed) {
  const std::vector<ServiceKey> host = HostServices(2);
  ASSERT_EQ(host.size(), 2u);
  const std::vector<InterrogationJob> jobs = {Job(host[0]), Job(host[1]),
                                              Job(host[0])};
  const Outcome want = RunSerial(jobs);
  EXPECT_EQ(want.events, 2u);
  for (const int threads : {0, 3}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const Outcome got = RunPipeline(jobs, threads);
    EXPECT_EQ(got, want);
    EXPECT_EQ(got.rediffs, 1u);
  }
}

// A pseudo-service host crosses the threshold mid-wave: its services
// already journaled are removed (their keys join the written set) and its
// later jobs in the wave are suppressed before any delta is read, so the
// wave re-diffs nothing and still journals what the serial path does.
TEST_F(WorkerDiffTest, PseudoHostFlaggedMidWaveMatchesSerial) {
  std::optional<IPv4Address> pseudo;
  net_.ForEachPseudoHost([&](IPv4Address ip) {
    if (!pseudo.has_value()) pseudo = ip;
  });
  ASSERT_TRUE(pseudo.has_value());
  const std::vector<ServiceKey> other = HostServices(2);
  ASSERT_EQ(other.size(), 2u);
  std::vector<InterrogationJob> jobs = {Job(other[0])};
  std::size_t answering = 0;
  for (Port port = 1000; answering < 30 && port < 1200; ++port) {
    const ServiceKey key{*pseudo, port, Transport::kTcp};
    if (!Answers(key)) continue;
    jobs.push_back(Job(key));
    if (++answering == 10) jobs.push_back(Job(other[1]));
  }
  ASSERT_EQ(answering, 30u);
  const Outcome want = RunSerial(jobs);
  // Found events for the first 20 services, one removal event each, and
  // the other host's two.
  EXPECT_EQ(want.events, 42u);
  for (const int threads : {0, 3}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const Outcome got = RunPipeline(jobs, threads);
    EXPECT_EQ(got, want);
    EXPECT_EQ(got.rediffs, 0u);
  }
}

// A new host whose two services are found in one wave: both workers diff
// against no state at all. The first event is applied by the revisit flush
// before the second commits, but it wrote only its own service's range, so
// the second prepared delta is still exact and is taken without a re-diff.
TEST_F(WorkerDiffTest, NewHostFoundTwiceInAWaveNeedsNoRediff) {
  const std::vector<ServiceKey> host = HostServices(2);
  ASSERT_EQ(host.size(), 2u);
  const std::vector<InterrogationJob> jobs = {Job(host[0]), Job(host[1])};
  const Outcome want = RunSerial(jobs);
  EXPECT_EQ(want.events, 2u);
  for (const int threads : {0, 3}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const Outcome got = RunPipeline(jobs, threads);
    EXPECT_EQ(got, want);
    EXPECT_EQ(got.rediffs, 0u);
  }
}

TEST(TickReportTest, ReportsStageActivityAndMetrics) {
  WorldConfig cfg = SmallWorld(13);
  cfg.universe.target_services = 2000;
  cfg.with_alternatives = false;
  cfg.censys.threads = 2;

  World world(cfg);
  world.Bootstrap();
  world.RunForDays(1);

  const TickStats& report = world.censys().TickReport();
  EXPECT_GT(report.interrogations, 0u);
  EXPECT_GT(report.total_us, 0.0);
  EXPECT_GE(report.total_us, report.interrogate_us);

  // Staged-pipeline detail: the overlapped stages ran, group commit
  // flushed, and the occupancy fractions are sane (busy time can never
  // exceed the wall time each stage had available).
  EXPECT_GT(report.pipeline_jobs, 0u);
  EXPECT_GT(report.pipeline_waves, 0u);
  EXPECT_GT(report.batch_flushes, 0u);
  EXPECT_GT(report.pipeline_wall_us, 0.0);
  EXPECT_GT(report.worker_busy_us, 0.0);
  EXPECT_GT(report.commit_busy_us, 0.0);
  EXPECT_GE(report.worker_occupancy, 0.0);
  EXPECT_LE(report.worker_occupancy, 1.0);
  EXPECT_GE(report.commit_occupancy, 0.0);
  EXPECT_LE(report.commit_occupancy, 1.05);

  const metrics::Registry& registry = world.censys().metrics();
  EXPECT_GT(registry.CounterValue("censys.engine.ticks"), 0u);
  EXPECT_GT(registry.CounterValue("censys.scan.probes_sent"), 0u);
  EXPECT_GT(registry.CounterValue("censys.interrogate.attempts"), 0u);
  EXPECT_GT(registry.CounterValue("censys.pipeline.ingest_scans"), 0u);
  EXPECT_GT(registry.CounterValue("censys.storage.events"), 0u);
  EXPECT_EQ(
      registry.GaugeValue("censys.pipeline.tracked_services"),
      static_cast<std::int64_t>(world.censys().write_side().tracked_count()));

  const std::string rendered = registry.Render();
  EXPECT_NE(rendered.find("censys.engine.tick_us"), std::string::npos);
  EXPECT_NE(rendered.find("censys.interrogate.latency_us"), std::string::npos);
}

TEST(AblationTest, TwoPhaseValidationControlsLabelQuality) {
  WorldConfig cfg = SmallWorld(9);
  cfg.universe.target_services = 4000;
  cfg.with_alternatives = false;
  cfg.censys.two_phase_validation = false;
  cfg.censys.warm_start = false;

  World world(cfg);
  world.Bootstrap();
  world.RunForDays(2);
  std::uint64_t unvalidated = 0, total = 0;
  world.censys().write_side().ForEachTracked(
      [&](const pipeline::ServiceState& s) { ++total; (void)s; });
  world.censys().ForEachEntry([&](const EngineEntry& e) {
    (void)e;
    ++unvalidated;
  });
  EXPECT_GT(total, 100u);  // L4 hits get published without validation
}

}  // namespace
}  // namespace censys::engines
