// Tests for the predictive scan engine and the web-property catalog.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>
#include <unordered_map>
#include <vector>

#include "cert/ct.h"
#include "core/rng.h"
#include "predict/predictive.h"
#include "proto/tls.h"
#include "simnet/internet.h"
#include "web/webprops.h"

namespace censys {
namespace {

simnet::UniverseConfig SmallConfig() {
  simnet::UniverseConfig cfg;
  cfg.seed = 17;
  cfg.universe_size = 1u << 16;
  cfg.target_services = 8000;
  cfg.ics_scale = 0.0;
  return cfg;
}

// ------------------------------------------------------------------ predictive

TEST(PredictiveTest, AffinityProposalsTargetHotBlockPorts) {
  simnet::Internet net(SmallConfig());
  predict::PredictiveEngine engine(net.blocks(), 5);

  // Train: port 8443 is hot in one specific block.
  const simnet::NetworkBlock* block =
      net.blocks().BlocksOfType(simnet::NetworkType::kHosting).front();
  for (std::uint64_t i = 0; i < 24; ++i) {
    engine.ObserveService(
        {block->cidr.AddressAt(i * 3), 8443, Transport::kTcp});
  }

  const auto candidates = engine.GenerateCandidates(Timestamp{0}, 200);
  ASSERT_FALSE(candidates.empty());
  std::size_t in_block_on_port = 0;
  for (const ServiceKey& key : candidates) {
    if (block->cidr.Contains(key.ip) && key.port == 8443) ++in_block_on_port;
  }
  // The affinity model should focus most proposals on the hot (block, port).
  EXPECT_GT(in_block_on_port, candidates.size() / 2);
}

TEST(PredictiveTest, CooccurrenceProposesCorrelatedPortsOnNewHosts) {
  simnet::Internet net(SmallConfig());
  predict::PredictiveEngine::Options options;
  options.min_cooccurrence_support = 4;
  predict::PredictiveEngine engine(net.blocks(), 5, options);

  // Train the pair (80, 4567) on several multi-service hosts.
  for (std::uint32_t host = 100; host < 110; ++host) {
    engine.ObserveService({IPv4Address(host), 80, Transport::kTcp});
    engine.ObserveService({IPv4Address(host), 4567, Transport::kTcp});
  }
  engine.GenerateCandidates(Timestamp{0}, 1000);  // drain training hosts

  // A brand-new host shows up with port 80 open.
  engine.ObserveService({IPv4Address(7777), 80, Transport::kTcp});
  const auto candidates =
      engine.GenerateCandidates(Timestamp::FromHours(1), 400);
  bool proposed = false;
  for (const ServiceKey& key : candidates) {
    if (key.ip == IPv4Address(7777) && key.port == 4567) proposed = true;
  }
  EXPECT_TRUE(proposed);
}

TEST(PredictiveTest, CooldownPreventsImmediateReproposal) {
  simnet::Internet net(SmallConfig());
  predict::PredictiveEngine engine(net.blocks(), 5);
  const simnet::NetworkBlock* block =
      net.blocks().BlocksOfType(simnet::NetworkType::kHosting).front();
  for (std::uint64_t i = 0; i < 16; ++i) {
    engine.ObserveService({block->cidr.AddressAt(i), 9999, Transport::kTcp});
  }
  const auto first = engine.GenerateCandidates(Timestamp{0}, 100);
  const auto second = engine.GenerateCandidates(Timestamp{60}, 100);
  std::set<std::uint64_t> first_keys;
  for (const ServiceKey& k : first) first_keys.insert(k.Pack());
  for (const ServiceKey& k : second) {
    EXPECT_FALSE(first_keys.contains(k.Pack()))
        << k.ToString() << " re-proposed within cooldown";
  }
}

TEST(PredictiveTest, UntrainedEngineProposesNothing) {
  simnet::Internet net(SmallConfig());
  predict::PredictiveEngine engine(net.blocks(), 5);
  EXPECT_TRUE(engine.GenerateCandidates(Timestamp{0}, 100).empty());
}

TEST(PredictiveTest, StatsAreTracked) {
  simnet::Internet net(SmallConfig());
  predict::PredictiveEngine engine(net.blocks(), 5);
  const simnet::NetworkBlock* block =
      net.blocks().BlocksOfType(simnet::NetworkType::kCloud).front();
  for (std::uint64_t i = 0; i < 10; ++i) {
    engine.ObserveService({block->cidr.AddressAt(i), 8080, Transport::kTcp});
  }
  engine.GenerateCandidates(Timestamp{0}, 50);
  EXPECT_EQ(engine.stats().observations, 10u);
  EXPECT_GT(engine.stats().candidates_emitted, 0u);
}

// The predictive engine as it was before co-occurrence upkeep became
// incremental: every GenerateCandidates call after a new pair count
// rebuilt each port's top-8 partner list from all pair counts. Kept as
// the reference the incremental lists must reproduce.
class ReferencePredictiveEngine {
 public:
  ReferencePredictiveEngine(const simnet::BlockPlan& plan, std::uint64_t seed,
                            predict::PredictiveEngine::Options options)
      : plan_(plan), options_(options), rng_(SplitMix64(seed ^ 0x93ED1C7)) {}

  void ObserveService(ServiceKey key) {
    const simnet::NetworkBlock& block = plan_.BlockOf(key.ip);
    ++block_port_counts_[(static_cast<std::uint64_t>(block.id) << 16) |
                         key.port];
    hot_dirty_ = true;
    auto& ports = host_ports_[key.ip.value()];
    if (std::find(ports.begin(), ports.end(), key.port) == ports.end()) {
      if (pair_counts_.size() < options_.max_pairs) {
        for (Port existing : ports) ++pair_counts_[PairKey(existing, key.port)];
        correlated_dirty_ = true;
      }
      if (ports.size() < 16) ports.push_back(key.port);
      if (recent_hosts_.size() < 65536) recent_hosts_.push_back(key.ip.value());
    }
  }

  std::vector<ServiceKey> GenerateCandidates(Timestamp now,
                                             std::size_t budget) {
    std::vector<ServiceKey> out;
    if (hot_dirty_) {
      hot_affinities_.clear();
      for (const auto& [key, count] : block_port_counts_) {
        if (count >= options_.min_affinity_support) {
          hot_affinities_.push_back(AffinityEntry{
              static_cast<std::uint32_t>(key >> 16),
              static_cast<Port>(key & 0xffff), count});
        }
      }
      std::sort(hot_affinities_.begin(), hot_affinities_.end(),
                [](const AffinityEntry& a, const AffinityEntry& b) {
                  if (a.support != b.support) return a.support > b.support;
                  if (a.block_id != b.block_id) return a.block_id < b.block_id;
                  return a.port < b.port;
                });
      hot_dirty_ = false;
    }
    const std::size_t affinity_budget = budget * 6 / 10;
    if (!hot_affinities_.empty()) {
      std::size_t emitted = 0;
      std::size_t attempts = 0;
      while (emitted < affinity_budget && attempts < affinity_budget * 4) {
        ++attempts;
        const std::size_t index = static_cast<std::size_t>(
            rng_.NextBelow(hot_affinities_.size()) * rng_.NextDouble());
        const AffinityEntry& entry = hot_affinities_[index];
        const simnet::NetworkBlock& block = plan_.blocks()[entry.block_id];
        const IPv4Address ip =
            block.cidr.AddressAt(rng_.NextBelow(block.cidr.size()));
        const ServiceKey key{ip, entry.port, Transport::kTcp};
        if (!Cooldown(key, now)) continue;
        out.push_back(key);
        ++emitted;
      }
    }
    if (correlated_dirty_) {
      correlated_.clear();
      for (const auto& [pair, count] : pair_counts_) {
        if (count < options_.min_cooccurrence_support) continue;
        const Port a = static_cast<Port>(pair >> 16);
        const Port b = static_cast<Port>(pair & 0xffff);
        correlated_[a].emplace_back(b, count);
        correlated_[b].emplace_back(a, count);
      }
      for (auto& [port, list] : correlated_) {
        std::sort(list.begin(), list.end(), [](const auto& x, const auto& y) {
          if (x.second != y.second) return x.second > y.second;
          return x.first < y.first;
        });
        if (list.size() > 8) list.resize(8);
      }
      correlated_dirty_ = false;
    }
    std::size_t emitted = 0;
    const std::size_t cooccur_budget = budget - out.size();
    auto propose_for_host = [&](std::uint32_t ip) {
      const auto hp = host_ports_.find(ip);
      if (hp == host_ports_.end()) return;
      for (Port known : hp->second) {
        const auto corr = correlated_.find(known);
        if (corr == correlated_.end()) continue;
        for (const auto& [candidate_port, support] : corr->second) {
          if (std::find(hp->second.begin(), hp->second.end(),
                        candidate_port) != hp->second.end())
            continue;
          const ServiceKey key{IPv4Address(ip), candidate_port,
                               Transport::kTcp};
          if (!Cooldown(key, now)) continue;
          out.push_back(key);
          ++emitted;
          if (emitted >= cooccur_budget) return;
        }
      }
    };
    while (emitted < cooccur_budget && !recent_hosts_.empty()) {
      const std::uint32_t ip = recent_hosts_.front();
      recent_hosts_.pop_front();
      propose_for_host(ip);
    }
    if (!host_ports_.empty()) {
      std::size_t attempts = 0;
      const std::size_t max_attempts = cooccur_budget * 4 + 16;
      const std::size_t bucket_count = host_ports_.bucket_count();
      std::size_t bucket = static_cast<std::size_t>(
          SplitMix64(static_cast<std::uint64_t>(now.minutes)) % bucket_count);
      while (emitted < cooccur_budget && attempts < max_attempts) {
        ++attempts;
        bucket = (bucket + 1) % bucket_count;
        for (auto it = host_ports_.begin(bucket);
             it != host_ports_.end(bucket) && emitted < cooccur_budget;
             ++it) {
          propose_for_host(it->first);
        }
      }
    }
    return out;
  }

 private:
  struct AffinityEntry {
    std::uint32_t block_id;
    Port port;
    std::uint32_t support;
  };

  static std::uint32_t PairKey(Port a, Port b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint32_t>(a) << 16) | b;
  }

  bool Cooldown(ServiceKey key, Timestamp now) {
    auto [it, inserted] = last_proposed_.try_emplace(key.Pack(), now);
    if (inserted) return true;
    if (it->second + options_.proposal_cooldown > now) return false;
    it->second = now;
    return true;
  }

  const simnet::BlockPlan& plan_;
  predict::PredictiveEngine::Options options_;
  Rng rng_;
  std::unordered_map<std::uint64_t, std::uint32_t> block_port_counts_;
  std::unordered_map<std::uint32_t, std::vector<Port>> host_ports_;
  std::unordered_map<std::uint32_t, std::uint32_t> pair_counts_;
  std::unordered_map<Port, std::vector<std::pair<Port, std::uint32_t>>>
      correlated_;
  bool correlated_dirty_ = true;
  std::deque<std::uint32_t> recent_hosts_;
  std::unordered_map<std::uint64_t, Timestamp> last_proposed_;
  std::vector<AffinityEntry> hot_affinities_;
  bool hot_dirty_ = true;
};

// The incremental top-8 lists against the full rebuild: thousands of
// observations on hosts with up to 16 ports, two hub ports seen with
// far more than 8 partners, and small supports so that equal counts (tie
// broken by port) are common. Every call's candidate stream must match.
TEST(PredictiveTest, CooccurrenceIndexMatchesFullRebuild) {
  simnet::Internet net(SmallConfig());
  const std::vector<Port> pool = {80,   443,  22,   21,   25,   53,   110,
                                  143,  993,  995,  3306, 5432, 6379, 8080,
                                  8443, 8888, 9000, 9200, 2222, 4567, 5000,
                                  5900, 6443, 7001, 8000, 8081, 9090, 10000};
  for (const std::uint64_t seed : {3u, 4u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    predict::PredictiveEngine::Options options;
    options.min_cooccurrence_support = static_cast<std::uint32_t>(seed - 2);
    predict::PredictiveEngine engine(net.blocks(), seed, options);
    ReferencePredictiveEngine reference(net.blocks(), seed, options);
    Rng rng(seed);
    Timestamp now{0};
    std::size_t calls = 0;
    for (int observation = 0; observation < 6000 && !HasFailure();
         ++observation) {
      const IPv4Address ip(
          static_cast<std::uint32_t>(rng.NextBelow(400) * 37 % 65536));
      // Hubs first and often; the rest head-heavy over the pool, some
      // hosts collecting more than 16 distinct ports.
      const Port port =
          rng.Bernoulli(0.3)
              ? pool[rng.NextBelow(2)]
              : pool[static_cast<std::size_t>(
                    rng.NextBelow(pool.size()) * rng.NextDouble())];
      const ServiceKey key{ip, port, Transport::kTcp};
      engine.ObserveService(key);
      reference.ObserveService(key);
      if (observation % 97 == 0) {
        now = now + Duration::Hours(7);
        const std::size_t budget = 40 + rng.NextBelow(400);
        const std::vector<ServiceKey> got =
            engine.GenerateCandidates(now, budget);
        const std::vector<ServiceKey> want =
            reference.GenerateCandidates(now, budget);
        ASSERT_EQ(got, want) << "call " << calls;
        ++calls;
      }
    }
    EXPECT_GT(engine.stats().cooccurrence_candidates, 1000u);
  }
}

// ------------------------------------------------------------------------- web

class WebTest : public ::testing::Test {
 protected:
  WebTest()
      : net_(WebConfig()), profile_{1, "t", 300.0, 1280.0},
        interrogator_(net_, profile_), catalog_(net_, interrogator_) {}

  static simnet::UniverseConfig WebConfig() {
    simnet::UniverseConfig cfg;
    cfg.seed = 23;
    cfg.universe_size = 1u << 16;
    cfg.target_services = 8000;
    cfg.sni_only_fraction = 0.10;
    cfg.ics_scale = 0.0;
    return cfg;
  }

  // Fills the CT log with certificates of current name-addressed services.
  std::size_t FillCtLog(Timestamp t) {
    std::size_t added = 0;
    net_.ForEachActiveService(t, [&](const simnet::SimService& svc) {
      if (!svc.requires_sni) return;
      const auto tls = proto::DeriveTls(svc.protocol, svc.seed, true);
      if (!tls) return;
      ct_log_.Append(cert::SynthesizeCertificate(tls->cert_seed, svc.sni_name,
                                                 Timestamp{0}),
                     t);
      ++added;
    });
    return added;
  }

  simnet::Internet net_;
  simnet::ScannerProfile profile_;
  interrogate::Interrogator interrogator_;
  cert::CtLog ct_log_;
  web::WebPropertyCatalog catalog_;
};

TEST_F(WebTest, CtPollingDiscoversWebProperties) {
  const std::size_t logged = FillCtLog(Timestamp{0});
  ASSERT_GT(logged, 50u);
  const std::size_t added = catalog_.PollCtLog(ct_log_, Timestamp{0});
  EXPECT_GT(added, logged / 2);  // wildcards skipped, rest registered
  EXPECT_EQ(catalog_.size(), added);
  // Most registered properties resolve and serve content.
  EXPECT_GT(catalog_.reachable_count(), added * 7 / 10);
}

TEST_F(WebTest, PollingIsIncremental) {
  FillCtLog(Timestamp{0});
  catalog_.PollCtLog(ct_log_, Timestamp{0});
  // Nothing new: second poll adds nothing.
  EXPECT_EQ(catalog_.PollCtLog(ct_log_, Timestamp{10}), 0u);
}

TEST_F(WebTest, ScannedPropertyCarriesNamedContent) {
  FillCtLog(Timestamp{0});
  catalog_.PollCtLog(ct_log_, Timestamp{0});
  const web::WebProperty* reachable = nullptr;
  catalog_.ForEach([&](const web::WebProperty& prop) {
    if (reachable == nullptr && prop.reachable) reachable = &prop;
  });
  ASSERT_NE(reachable, nullptr);
  // The record was fetched with the right SNI, so it is not the generic
  // frontend page.
  EXPECT_NE(reachable->record.html_title, "Default web page");
  EXPECT_EQ(reachable->record.sni_name, reachable->name);
}

TEST_F(WebTest, RefreshDueHonorsInterval) {
  FillCtLog(Timestamp{0});
  catalog_.PollCtLog(ct_log_, Timestamp{0});
  EXPECT_EQ(catalog_.RefreshDue(Timestamp::FromDays(10)), 0u);  // too soon
  const std::size_t refreshed = catalog_.RefreshDue(Timestamp::FromDays(31));
  EXPECT_EQ(refreshed, catalog_.size());  // "at least monthly"
}

TEST_F(WebTest, DeadNamesBecomeUnreachableOnRefresh) {
  FillCtLog(Timestamp{0});
  catalog_.PollCtLog(ct_log_, Timestamp{0});
  const std::size_t before = catalog_.reachable_count();
  net_.AdvanceTo(Timestamp::FromDays(31));
  catalog_.RefreshDue(net_.now());
  // Churn killed some name-addressed services; their properties flip to
  // unreachable but remain catalogued.
  EXPECT_LT(catalog_.reachable_count(), before);
  EXPECT_GT(catalog_.reachable_count(), 0u);
}

TEST_F(WebTest, ManualNamesFromPassiveDns) {
  catalog_.AddName("nonexistent.example.com",
                   web::WebProperty::Source::kPassiveDns, Timestamp{0});
  const web::WebProperty* prop = catalog_.Get("nonexistent.example.com");
  ASSERT_NE(prop, nullptr);
  EXPECT_FALSE(prop->reachable);
  EXPECT_EQ(prop->source, web::WebProperty::Source::kPassiveDns);
}

}  // namespace
}  // namespace censys
