// Tests for the CQRS pipeline: entity field projection, write side command
// processing, eviction policy, pseudo filtering, the journal commit stream
// the write side feeds, and read-side reconstruction + enrichment.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "engines/enrichment.h"
#include "pipeline/entity.h"
#include "pipeline/read_side.h"
#include "pipeline/write_side.h"
#include "simnet/blocks.h"

namespace censys::pipeline {
namespace {

ServiceRecord HttpRecord(IPv4Address ip, Port port, Timestamp at,
                                      const std::string& title = "Login") {
  ServiceRecord r;
  r.key = {ip, port, Transport::kTcp};
  r.observed_at = at;
  r.protocol = proto::Protocol::kHttp;
  r.detection = DetectionMethod::kBatteryHandshake;
  r.handshake_validated = true;
  r.banner = "Server: nginx/1.25.3";
  r.software = {"nginx", "nginx", "1.25.3"};
  r.html_title = title;
  return r;
}

// --------------------------------------------------------------------- entity

TEST(EntityTest, ServiceFieldsUsePrefix) {
  const auto record = HttpRecord(IPv4Address(5), 8080, Timestamp{0});
  const storage::FieldMap fields = ServiceFields(record);
  EXPECT_TRUE(fields.contains("svc.8080/tcp.service.name"));
  EXPECT_EQ(fields.at("svc.8080/tcp.service.name"), "HTTP");
}

TEST(EntityTest, ServicesInEnumeratesPrefixes) {
  storage::FieldMap state;
  for (const auto& [k, v] :
       ServiceFields(HttpRecord(IPv4Address(5), 80, Timestamp{0}))) {
    state[k] = v;
  }
  for (const auto& [k, v] :
       ServiceFields(HttpRecord(IPv4Address(5), 8443, Timestamp{0}))) {
    state[k] = v;
  }
  const auto keys = ServicesIn(state, IPv4Address(5));
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0].port, 80);
  EXPECT_EQ(keys[1].port, 8443);
}

TEST(EntityTest, ServiceKeyOfParsesOneFieldName) {
  const IPv4Address ip(5);
  const auto tcp = ServiceKeyOf("svc.443/tcp.tls.cert_sha256", ip);
  ASSERT_TRUE(tcp.has_value());
  EXPECT_EQ(*tcp, (ServiceKey{ip, 443, Transport::kTcp}));
  EXPECT_EQ(ServiceKeyOf("svc.161/udp.protocol", ip),
            (ServiceKey{ip, 161, Transport::kUdp}));
  for (const char* field :
       {"location.country", "svc.", "svc.443", "svc.x/tcp.a", "svc.443tcp.a"}) {
    EXPECT_FALSE(ServiceKeyOf(field, ip).has_value()) << field;
  }
}

TEST(EntityTest, RecordRoundTripsThroughEntityState) {
  const auto record = HttpRecord(IPv4Address(5), 8080, Timestamp{0});
  storage::FieldMap state;
  storage::ApplyDelta(state, UpsertServiceDelta({}, record));
  const auto back = RecordFrom(state, record.key);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, record);
}

TEST(EntityTest, UpsertDeltaIsEmptyWhenNothingChanged) {
  const auto record = HttpRecord(IPv4Address(5), 8080, Timestamp{0});
  storage::FieldMap state;
  storage::ApplyDelta(state, UpsertServiceDelta({}, record));
  EXPECT_TRUE(UpsertServiceDelta(state, record).empty());
}

TEST(EntityTest, RemoveDeltaErasesOnlyThatService) {
  storage::FieldMap state;
  const auto a = HttpRecord(IPv4Address(5), 80, Timestamp{0});
  const auto b = HttpRecord(IPv4Address(5), 443, Timestamp{0});
  storage::ApplyDelta(state, UpsertServiceDelta(state, a));
  storage::ApplyDelta(state, UpsertServiceDelta(state, b));
  storage::ApplyDelta(state, RemoveServiceDelta(state, a.key));
  EXPECT_FALSE(RecordFrom(state, a.key).has_value());
  EXPECT_TRUE(RecordFrom(state, b.key).has_value());
}

// The in-place diff against ComputeDelta over a copy of the range, on one
// host whose service prefixes sort next to each other ("svc.44/",
// "svc.443/", "svc.4433/", each on tcp and udp). Each step rewrites one
// service with fields added, changed and dropped, and values that agree
// except in length; some steps drop the whole service.
TEST(EntityTest, InPlaceUpsertMatchesComputeDeltaOverACopy) {
  const IPv4Address ip(9);
  const std::vector<std::string> names = {
      "a", "ab", "b", "service.name", "service.name2", "tls.jarm", "x.k"};
  const std::vector<std::string> values = {
      "", "v", "vv", std::string("v\0", 2), "HTTP", "HTTPS"};
  std::vector<ServiceKey> keys;
  for (const Port port : {Port{44}, Port{443}, Port{4433}}) {
    for (const Transport transport : {Transport::kTcp, Transport::kUdp}) {
      keys.push_back(ServiceKey{ip, port, transport});
    }
  }
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    storage::FieldMap state = {{"location.country", "us"}};
    for (int step = 0; step < 400 && !HasFailure(); ++step) {
      const ServiceKey key = keys[rng.NextBelow(keys.size())];
      const std::string prefix = ServicePrefix(key);
      if (rng.Bernoulli(0.1)) {
        storage::ApplyDelta(state, RemoveServiceDelta(state, key));
        continue;
      }
      storage::FieldMap fields;
      for (const std::string& name : names) {
        if (rng.Bernoulli(0.6)) {
          fields[prefix + name] = values[rng.NextBelow(values.size())];
        }
      }
      storage::FieldMap before;
      for (auto it = state.lower_bound(prefix);
           it != state.end() && it->first.starts_with(prefix); ++it) {
        before.insert(*it);
      }
      const storage::Delta delta = UpsertServiceDelta(state, key, fields);
      ASSERT_EQ(delta, storage::ComputeDelta(before, fields))
          << "step " << step << " " << key.ToString();
      storage::ApplyDelta(state, delta);
      ASSERT_EQ(RecordFrom(state, key).has_value(), !fields.empty());
    }
  }
}

// ----------------------------------------------------------------- write side

class WriteSideTest : public ::testing::Test {
 protected:
  WriteSideTest() : write_(journal_) {}

  storage::EventJournal journal_;
  WriteSide write_;
};

TEST_F(WriteSideTest, FirstScanJournalsServiceFound) {
  write_.IngestScan(HttpRecord(IPv4Address(7), 80, Timestamp{100}));
  const auto history = journal_.History("0.0.0.7");
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history[0].kind, storage::EventKind::kServiceFound);
  EXPECT_EQ(write_.tracked_count(), 1u);
}

TEST_F(WriteSideTest, UnchangedRefreshJournalsNothing) {
  const core::ThreadRoleGuard role(write_.command_role());
  write_.IngestScan(HttpRecord(IPv4Address(7), 80, Timestamp{100}));
  write_.IngestScan(HttpRecord(IPv4Address(7), 80, Timestamp{1540}));
  EXPECT_EQ(journal_.History("0.0.0.7").size(), 1u);
  // But scan state advanced.
  const ServiceState* state =
      write_.GetState({IPv4Address(7), 80, Transport::kTcp});
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->last_seen, Timestamp{1540});
}

TEST_F(WriteSideTest, ChangedServiceJournalsServiceChanged) {
  write_.IngestScan(HttpRecord(IPv4Address(7), 80, Timestamp{100}, "Old"));
  write_.IngestScan(HttpRecord(IPv4Address(7), 80, Timestamp{200}, "New"));
  const auto history = journal_.History("0.0.0.7");
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[1].kind, storage::EventKind::kServiceChanged);
}

TEST_F(WriteSideTest, EvictionLifecycle) {
  const core::ThreadRoleGuard role(write_.command_role());
  const ServiceKey key{IPv4Address(7), 80, Transport::kTcp};
  write_.IngestScan(HttpRecord(key.ip, key.port, Timestamp{0}));

  // First failure marks pending.
  write_.IngestFailure(key, Timestamp::FromHours(24));
  const ServiceState* state = write_.GetState(key);
  ASSERT_NE(state, nullptr);
  ASSERT_TRUE(state->pending_eviction_since.has_value());
  EXPECT_EQ(*state->pending_eviction_since, Timestamp::FromHours(24));

  // Second failure does not reset the pending clock.
  write_.IngestFailure(key, Timestamp::FromHours(48));
  EXPECT_EQ(*write_.GetState(key)->pending_eviction_since,
            Timestamp::FromHours(24));

  // Before the 72 h deadline: still tracked.
  write_.AdvanceTo(Timestamp::FromHours(24 + 71));
  EXPECT_NE(write_.GetState(key), nullptr);

  // After: removed, journaled, remembered for re-injection.
  write_.AdvanceTo(Timestamp::FromHours(24 + 73));
  EXPECT_EQ(write_.GetState(key), nullptr);
  EXPECT_EQ(write_.services_evicted(), 1u);
  const auto history = journal_.History("0.0.0.7");
  EXPECT_EQ(history.back().kind, storage::EventKind::kServiceRemoved);
  EXPECT_EQ(write_.RecentlyPruned(Timestamp::FromHours(100)).size(), 1u);
}

TEST_F(WriteSideTest, SuccessfulScanClearsPendingEviction) {
  const core::ThreadRoleGuard role(write_.command_role());
  const ServiceKey key{IPv4Address(7), 80, Transport::kTcp};
  write_.IngestScan(HttpRecord(key.ip, key.port, Timestamp{0}));
  write_.IngestFailure(key, Timestamp::FromHours(10));
  ASSERT_TRUE(write_.GetState(key)->pending_eviction_since.has_value());
  // "Removing data too quickly leads to churn where services are removed
  // and then immediately re-added": a transient outage ends, the next
  // refresh succeeds, and nothing was evicted.
  write_.IngestScan(HttpRecord(key.ip, key.port, Timestamp::FromHours(20)));
  EXPECT_FALSE(write_.GetState(key)->pending_eviction_since.has_value());
  write_.AdvanceTo(Timestamp::FromHours(200));
  EXPECT_NE(write_.GetState(key), nullptr);
  EXPECT_EQ(write_.services_evicted(), 0u);
}

TEST_F(WriteSideTest, ReinjectionWindowExpires) {
  const ServiceKey key{IPv4Address(7), 80, Transport::kTcp};
  write_.IngestScan(HttpRecord(key.ip, key.port, Timestamp{0}));
  write_.IngestFailure(key, Timestamp{10});
  write_.AdvanceTo(Timestamp::FromDays(4));
  EXPECT_EQ(write_.RecentlyPruned(Timestamp::FromDays(30)).size(), 1u);
  // 60-day window (§4.6): after it, the pruned entry ages out.
  write_.AdvanceTo(Timestamp::FromDays(70));
  EXPECT_TRUE(write_.RecentlyPruned(Timestamp::FromDays(70)).empty());
}

TEST_F(WriteSideTest, PseudoHostGetsFilteredAfterThreshold) {
  const IPv4Address middlebox(99);
  // The same canned record on many ports: a pseudo-service middlebox.
  for (Port port = 1000; port < 1030; ++port) {
    auto record = HttpRecord(middlebox, port, Timestamp{0}, "Canned");
    record.banner = "Server: middlebox";
    write_.IngestScan(record);
  }
  EXPECT_TRUE(write_.IsPseudoFlagged(middlebox));
  // Everything for the host was removed and further scans are suppressed.
  EXPECT_EQ(write_.tracked_count(), 0u);
  EXPECT_GT(write_.pseudo_suppressed(), 0u);
  auto more = HttpRecord(middlebox, 4000, Timestamp{10}, "Canned");
  write_.IngestScan(more);
  EXPECT_EQ(write_.tracked_count(), 0u);
}

TEST_F(WriteSideTest, PseudoHostSuppressionPublishesEachRemoval) {
  const IPv4Address middlebox(99);
  std::vector<ServiceKey> removed;
  std::size_t found = 0;
  journal_.SetCommitObserver(
      [&](const std::vector<storage::AppliedEvent>& batch) {
        for (const storage::AppliedEvent& ev : batch) {
          if (ev.kind == storage::EventKind::kServiceFound) ++found;
          if (ev.kind != storage::EventKind::kServiceRemoved) continue;
          // One removal names one service, and the post-state no longer
          // holds it.
          std::set<std::uint64_t> keys;
          for (const storage::FieldOp& op : ev.delta->ops) {
            EXPECT_EQ(op.kind, storage::FieldOp::Kind::kRemove);
            const auto key = ServiceKeyOf(op.key, middlebox);
            ASSERT_TRUE(key.has_value()) << op.key;
            keys.insert(key->Pack());
          }
          ASSERT_EQ(keys.size(), 1u);
          const ServiceKey key = ServiceKey::Unpack(*keys.begin());
          EXPECT_FALSE(RecordFrom(*ev.post_state, key).has_value());
          removed.push_back(key);
        }
      });
  for (Port port = 1000; port < 1030; ++port) {
    auto record = HttpRecord(middlebox, port, Timestamp{0}, "Canned");
    record.banner = "Server: middlebox";
    write_.IngestScan(record);
  }
  ASSERT_TRUE(write_.IsPseudoFlagged(middlebox));

  // Observers (the engine's pivot tables) hear of every service the
  // journal removed, one event each, as they do for evictions.
  std::size_t journaled = 0;
  for (const auto& event : journal_.History("0.0.0.99")) {
    if (event.kind == storage::EventKind::kServiceRemoved) ++journaled;
  }
  EXPECT_GT(journaled, 0u);
  EXPECT_EQ(removed.size(), journaled);
  EXPECT_EQ(removed.size(), found);
  std::set<std::uint64_t> distinct;
  for (const ServiceKey& key : removed) {
    EXPECT_EQ(key.ip, middlebox);
    distinct.insert(key.Pack());
  }
  EXPECT_EQ(distinct.size(), removed.size());
}

TEST_F(WriteSideTest, DiverseServicesOnOneHostAreNotPseudo) {
  const IPv4Address host(50);
  for (Port port = 8000; port < 8030; ++port) {
    // Distinct titles -> distinct content hashes.
    write_.IngestScan(HttpRecord(host, port, Timestamp{0},
                                 "Site " + std::to_string(port)));
  }
  EXPECT_FALSE(write_.IsPseudoFlagged(host));
  EXPECT_EQ(write_.tracked_count(), 30u);
}

// The due-time index against a brute-force walk of the scan state: random
// scans (some backdated), failures, eviction sweeps and pseudo-host
// flags, checked after every step on several seeds.
TEST(DueIndexTest, MatchesABruteForceWalkAfterEveryStep) {
  struct Row {
    std::uint64_t packed;
    Timestamp last_refreshed;
    bool pending;
    bool operator==(const Row&) const = default;
  };
  const auto row = [](const ServiceState& s) {
    return Row{s.key.Pack(), s.last_refreshed,
               s.pending_eviction_since.has_value()};
  };
  const Duration interval = Duration::Hours(24);
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    storage::EventJournal journal;
    WriteSide::Options options;
    options.pseudo_service_threshold = 6;
    WriteSide write(journal, options);
    const core::ThreadRoleGuard role(write.command_role());
    Rng rng(seed);
    Timestamp now{0};
    std::size_t evicted_checked = 0;
    for (int step = 0; step < 1500 && !HasFailure(); ++step) {
      const IPv4Address ip(static_cast<std::uint32_t>(rng.NextBelow(24)));
      const Port port = static_cast<Port>(80 + rng.NextBelow(10));
      const ServiceKey key{ip, port, Transport::kTcp};
      const double pick = rng.NextDouble();
      if (pick < 0.45) {
        // Backdated scans land in earlier buckets than entries already
        // filed for the same service.
        const Timestamp at{now.minutes -
                           static_cast<std::int64_t>(rng.NextBelow(120))};
        // Hosts under 3 serve one canned page on every port: pseudo
        // flags. The rest serve distinct pages.
        write.IngestScan(HttpRecord(
            ip, port, at,
            ip.value() < 3 ? "Canned" : "Site " + std::to_string(port)));
      } else if (pick < 0.8) {
        write.IngestFailure(key, now);
      } else if (pick < 0.9) {
        now = now + Duration::Minutes(
                        static_cast<std::int64_t>(rng.NextBelow(600)));
      } else {
        const std::vector<ServiceKey> due = write.DueForEviction(now);
        write.AdvanceTo(now);
        for (const ServiceKey& gone : due) {
          EXPECT_EQ(write.GetState(gone), nullptr) << gone.ToString();
        }
        evicted_checked += due.size();
      }

      for (const Timestamp cutoff :
           {now - interval, now - Duration::Minutes(60), now}) {
        std::vector<Row> want;
        write.ForEachTracked([&](const ServiceState& s) {
          if (s.last_refreshed <= cutoff) want.push_back(row(s));
        });
        std::vector<Row> got;
        for (const ServiceState& s : write.DueForRefresh(cutoff)) {
          got.push_back(row(s));
        }
        ASSERT_EQ(got, want) << "step " << step << " cutoff "
                             << cutoff.minutes;
      }
      std::vector<std::uint64_t> want_evict;
      write.ForEachTracked([&](const ServiceState& s) {
        if (s.pending_eviction_since.has_value() &&
            *s.pending_eviction_since + options.eviction_deadline <= now) {
          want_evict.push_back(s.key.Pack());
        }
      });
      std::vector<std::uint64_t> got_evict;
      for (const ServiceKey& k : write.DueForEviction(now)) {
        got_evict.push_back(k.Pack());
      }
      ASSERT_EQ(got_evict, want_evict) << "step " << step;
    }
    // The sequences reached every path the index must follow.
    EXPECT_GT(write.services_evicted(), 0u);
    EXPECT_GT(evicted_checked, 0u);
    EXPECT_GT(write.pseudo_suppressed(), 0u);
    EXPECT_GT(write.tracked_count(), 0u);
  }
}

// ------------------------------------------------------------------ read side

class ReadSideTest : public ::testing::Test {
 protected:
  ReadSideTest()
      : plan_(PlanConfig()), write_(journal_),
        fingerprints_(fingerprint::FingerprintEngine::BuiltIn(0)),
        cves_(fingerprint::CveDatabase::BuiltIn()),
        enricher_(plan_, &fingerprints_, &cves_),
        read_(journal_, write_, &enricher_) {}

  static simnet::UniverseConfig PlanConfig() {
    simnet::UniverseConfig cfg;
    cfg.seed = 2;
    cfg.universe_size = 1u << 16;
    return cfg;
  }

  storage::EventJournal journal_;
  simnet::BlockPlan plan_;
  WriteSide write_;
  fingerprint::FingerprintEngine fingerprints_;
  fingerprint::CveDatabase cves_;
  engines::ContextEnricher enricher_;
  ReadSide read_;
};

TEST_F(ReadSideTest, CurrentHostViewWithEnrichment) {
  auto record = HttpRecord(IPv4Address(100), 8080, Timestamp{50},
                           "RouterOS configuration page");
  write_.IngestScan(record);

  const auto view = read_.GetHost(IPv4Address(100));
  ASSERT_TRUE(view.has_value());
  EXPECT_FALSE(view->country.empty());
  EXPECT_GT(view->asn, 0u);
  ASSERT_EQ(view->services.size(), 1u);
  const ServiceView& svc = view->services[0];
  EXPECT_EQ(svc.record.protocol, proto::Protocol::kHttp);
  EXPECT_EQ(svc.last_seen, Timestamp{50});
  ASSERT_TRUE(svc.labels.has_value());
  EXPECT_EQ(svc.labels->manufacturer, "MikroTik");
}

TEST_F(ReadSideTest, VulnerableSoftwareGetsCves) {
  auto record = HttpRecord(IPv4Address(100), 80, Timestamp{0});
  record.software = {"apache", "httpd", "2.4.49"};
  write_.IngestScan(record);
  const auto view = read_.GetHost(IPv4Address(100));
  ASSERT_TRUE(view.has_value());
  ASSERT_EQ(view->services.size(), 1u);
  EXPECT_FALSE(view->services[0].cves.empty());
  EXPECT_TRUE(view->services[0].kev);
  EXPECT_GT(view->services[0].max_cvss, 7.0);
}

TEST_F(ReadSideTest, HistoricalLookupSeesOldState) {
  write_.IngestScan(HttpRecord(IPv4Address(100), 80, Timestamp{100}, "Old"));
  write_.IngestScan(HttpRecord(IPv4Address(100), 80, Timestamp{200}, "New"));

  const auto old_view = read_.GetHostAt(IPv4Address(100), Timestamp{150});
  ASSERT_TRUE(old_view.has_value());
  EXPECT_EQ(old_view->services[0].record.html_title, "Old");

  const auto new_view = read_.GetHostAt(IPv4Address(100), Timestamp{250});
  ASSERT_TRUE(new_view.has_value());
  EXPECT_EQ(new_view->services[0].record.html_title, "New");

  EXPECT_FALSE(read_.GetHostAt(IPv4Address(100), Timestamp{50}).has_value());
}

TEST_F(ReadSideTest, PendingEvictionSurfacesInView) {
  const ServiceKey key{IPv4Address(100), 80, Transport::kTcp};
  write_.IngestScan(HttpRecord(key.ip, key.port, Timestamp{0}));
  write_.IngestFailure(key, Timestamp{100});
  const auto view = read_.GetHost(key.ip);
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(view->services[0].pending_eviction);
}

TEST_F(ReadSideTest, UnknownHostIsEmpty) {
  EXPECT_FALSE(read_.GetHost(IPv4Address(12345)).has_value());
}

TEST_F(ReadSideTest, EvictedServiceDisappearsFromCurrentButNotHistory) {
  const ServiceKey key{IPv4Address(100), 80, Transport::kTcp};
  write_.IngestScan(HttpRecord(key.ip, key.port, Timestamp{0}));
  write_.IngestFailure(key, Timestamp::FromHours(2));
  write_.AdvanceTo(Timestamp::FromHours(80));

  EXPECT_FALSE(read_.GetHost(key.ip).has_value());  // empty current state
  const auto historical = read_.GetHostAt(key.ip, Timestamp::FromHours(1));
  ASSERT_TRUE(historical.has_value());
  EXPECT_EQ(historical->services.size(), 1u);
}

// ---------------------------------------------------------------- concurrency

// Readers call GetHost / GetStateCopy while the command thread ingests:
// the shared_mutex split means views are always built from locked copies.
// (The full stress contract, with the view cache, lives in serving_test.)
TEST_F(ReadSideTest, LookupsRunConcurrentlyWithIngest) {
  constexpr int kHosts = 6;
  for (int h = 0; h < kHosts; ++h) {
    write_.IngestScan(HttpRecord(IPv4Address(100 + h), 80, Timestamp{1}));
  }

  int reader_count = 4;
  if (const char* env = std::getenv("CENSYSIM_THREADS")) {
    if (std::atoi(env) > 0) reader_count = std::atoi(env);
  }
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < reader_count; ++r) {
    readers.emplace_back([&, r] {
      std::uint64_t local = static_cast<std::uint64_t>(r);
      while (!done.load(std::memory_order_relaxed)) {
        const IPv4Address ip(100 + static_cast<std::uint32_t>(local % kHosts));
        const auto view = read_.GetHost(ip);
        if (view.has_value()) {
          ASSERT_FALSE(view->services.empty());
          ASSERT_TRUE(view->services[0].last_seen.has_value());
        }
        const auto state =
            write_.GetStateCopy({ip, 80, Transport::kTcp});
        if (state.has_value()) {
          ASSERT_GE(state->last_refreshed.minutes, state->first_seen.minutes);
        }
        ++local;
      }
    });
  }

  for (int i = 2; i < 120; ++i) {
    for (int h = 0; h < kHosts; ++h) {
      const std::string title = "Rev " + std::to_string(i);
      write_.IngestScan(
          HttpRecord(IPv4Address(100 + h), 80, Timestamp{i * 10}, title));
    }
    write_.AdvanceTo(Timestamp{i * 10});
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(write_.tracked_count(), static_cast<std::size_t>(kHosts));
  const auto view = read_.GetHost(IPv4Address(100));
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->services[0].record.html_title, "Rev 119");
}

}  // namespace
}  // namespace censys::pipeline
