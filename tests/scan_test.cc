// Tests for the scan engine: cyclic-group permutation, discovery passes,
// and the continuous scheduler.
#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "scan/cyclic.h"
#include "scan/discovery.h"
#include "scan/scheduler.h"
#include "simnet/internet.h"

namespace censys::scan {
namespace {

// --------------------------------------------------------------------- cyclic

TEST(PrimalityTest, KnownValues) {
  EXPECT_TRUE(IsPrime(2));
  EXPECT_TRUE(IsPrime(3));
  EXPECT_TRUE(IsPrime(65537));
  EXPECT_TRUE(IsPrime(4294967311ull));  // ZMap's 2^32 + 15
  EXPECT_FALSE(IsPrime(1));
  EXPECT_FALSE(IsPrime(4294967297ull));  // 641 * 6700417 (Fermat F5)
  EXPECT_FALSE(IsPrime(3215031751ull));  // strong pseudoprime to small bases
}

TEST(PrimalityTest, NextPrimeAbove) {
  EXPECT_EQ(NextPrimeAbove(1u << 16), 65537u);
  EXPECT_EQ(NextPrimeAbove(4294967296ull), 4294967311ull);
  EXPECT_EQ(NextPrimeAbove(2), 3u);
}

TEST(FactorTest, DistinctPrimeFactors) {
  EXPECT_EQ(DistinctPrimeFactors(12), (std::vector<std::uint64_t>{2, 3}));
  EXPECT_EQ(DistinctPrimeFactors(65536), (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(DistinctPrimeFactors(97), (std::vector<std::uint64_t>{97}));
}

TEST(ModMathTest, MulModAndPowMod) {
  EXPECT_EQ(MulMod(0xFFFFFFFFFFFFFFFull, 0xFFFFFFFFFFFFFFFull,
                   4294967311ull),
            (static_cast<unsigned __int128>(0xFFFFFFFFFFFFFFFull) *
             0xFFFFFFFFFFFFFFFull) % 4294967311ull);
  EXPECT_EQ(PowMod(2, 10, 1000000007ull), 1024u);
  EXPECT_EQ(PowMod(3, 0, 7), 1u);
  // Fermat's little theorem.
  EXPECT_EQ(PowMod(12345, 65536, 65537), 1u);
}

TEST(CyclicPermutationTest, VisitsEveryElementExactlyOnce) {
  for (std::uint64_t n : {1ull, 7ull, 100ull, 4096ull, 10007ull}) {
    CyclicPermutation perm(n, 99);
    std::vector<bool> seen(n, false);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t v = perm.Next();
      ASSERT_LT(v, n);
      ASSERT_FALSE(seen[v]) << "duplicate " << v << " in n=" << n;
      seen[v] = true;
    }
  }
}

TEST(CyclicPermutationTest, WrapsAfterFullCycle) {
  const std::uint64_t n = 500;
  CyclicPermutation perm(n, 4);
  std::vector<std::uint64_t> first_cycle;
  for (std::uint64_t i = 0; i < n; ++i) first_cycle.push_back(perm.Next());
  // The next n values repeat the same cycle.
  for (std::uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(perm.Next(), first_cycle[i]);
  }
}

TEST(CyclicPermutationTest, DifferentSeedsGiveDifferentOrders) {
  CyclicPermutation a(10000, 1), b(10000, 2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 5);
}

TEST(CyclicPermutationTest, OrderLooksScattered) {
  // Consecutive outputs should not be sequential addresses (the whole
  // point of scanning in a permuted order).
  CyclicPermutation perm(1u << 20, 7);
  std::uint64_t adjacent = 0;
  std::uint64_t prev = perm.Next();
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t cur = perm.Next();
    if (cur == prev + 1 || prev == cur + 1) ++adjacent;
    prev = cur;
  }
  EXPECT_LT(adjacent, 5u);
}

TEST(BackgroundPortSliceTest, CoversAllPortsAcrossOneCycle) {
  const std::size_t per_pass = 1000;
  std::vector<bool> seen(kPortSpaceSize, false);
  std::size_t total = 0;
  const std::uint64_t passes = (kPortSpaceSize + per_pass - 1) / per_pass;
  for (std::uint64_t pass = 0; pass < passes; ++pass) {
    for (Port p : BackgroundPortSlice(pass, per_pass, 5)) {
      ASSERT_FALSE(seen[p]) << "port " << p << " repeated within a cycle";
      seen[p] = true;
      ++total;
    }
  }
  EXPECT_EQ(total, kPortSpaceSize);
}

TEST(BackgroundPortSliceTest, NewCycleUsesNewOrder) {
  const std::size_t per_pass = 65536;  // one pass = full cycle
  const auto cycle0 = BackgroundPortSlice(0, per_pass, 5);
  const auto cycle1 = BackgroundPortSlice(1, per_pass, 5);
  ASSERT_EQ(cycle0.size(), cycle1.size());
  int same = 0;
  for (std::size_t i = 0; i < 1000; ++i) same += (cycle0[i] == cycle1[i]);
  EXPECT_LT(same, 10);
}

// ------------------------------------------------------------------ discovery

class DiscoveryTest : public ::testing::Test {
 protected:
  DiscoveryTest() : net_(Config()), profile_{1, "test", 300.0, 1280.0} {}

  static simnet::UniverseConfig Config() {
    simnet::UniverseConfig cfg;
    cfg.seed = 3;
    cfg.universe_size = 1u << 16;
    cfg.target_services = 6000;
    cfg.ics_scale = 0.0;  // no ICS needed here
    return cfg;
  }

  simnet::Internet net_;
  simnet::ScannerProfile profile_;
};

TEST_F(DiscoveryTest, DailyPassFindsMostServicesOnScannedPorts) {
  DiscoveryEngine engine(net_, profile_, 3, 7);
  ScanClass klass;
  klass.name = "test-pass";
  klass.ports = net_.ports().TopPorts(100);
  klass.period = Duration::Days(1);

  std::unordered_set<std::uint64_t> found;
  // Run the full pass in 2 h chunks, advancing churn like the real loop.
  for (int chunk = 0; chunk < 12; ++chunk) {
    const Timestamp from{chunk * 120}, to{(chunk + 1) * 120};
    net_.AdvanceTo(to);
    engine.RunPassChunk(klass, 0, from, to, [&](const Candidate& c) {
      found.insert(c.key.Pack());
    });
  }

  // Count TCP services on those ports alive at end of day.
  std::unordered_set<Port> port_set(klass.ports.begin(), klass.ports.end());
  std::size_t expected = 0, hit = 0;
  net_.ForEachActiveService(net_.now(), [&](const simnet::SimService& s) {
    if (s.key.transport != Transport::kTcp) return;
    if (!port_set.contains(s.key.port)) return;
    ++expected;
    if (found.contains(s.key.Pack())) ++hit;
  });
  ASSERT_GT(expected, 100u);
  EXPECT_GT(static_cast<double>(hit) / expected, 0.85);
}

TEST_F(DiscoveryTest, ScopedPassStaysInScope) {
  DiscoveryEngine engine(net_, profile_, 1, 7);
  ScanClass klass;
  klass.name = "cloud-only";
  klass.ports = net_.ports().TopPorts(50);
  klass.blocks = net_.blocks().BlocksOfType(simnet::NetworkType::kCloud);
  klass.period = Duration::Days(1);

  bool all_in_scope = true;
  engine.RunPassChunk(klass, 0, Timestamp{0}, Timestamp{1440},
                      [&](const Candidate& c) {
                        if (net_.blocks().BlockOf(c.key.ip).type !=
                            simnet::NetworkType::kCloud)
                          all_in_scope = false;
                      });
  EXPECT_TRUE(all_in_scope);
}

TEST_F(DiscoveryTest, ProbeCountingIsAnalytic) {
  DiscoveryEngine engine(net_, profile_, 1, 7);
  ScanClass klass;
  klass.name = "count";
  klass.ports = {80, 443};
  klass.period = Duration::Days(1);
  EXPECT_EQ(engine.PassProbeCount(klass),
            static_cast<std::uint64_t>(net_.blocks().universe_size()) * 2);

  engine.RunPassChunk(klass, 0, Timestamp{0}, Timestamp{720}, [](auto&) {});
  // Half the pass window -> half the probe volume.
  EXPECT_NEAR(static_cast<double>(engine.probes_sent()),
              static_cast<double>(engine.PassProbeCount(klass)) / 2,
              static_cast<double>(engine.PassProbeCount(klass)) * 0.02);
}

TEST_F(DiscoveryTest, UdpServicesNeedMatchingProbe) {
  DiscoveryEngine engine(net_, profile_, 1, 7);
  // Find a UDP DNS service on port 53 (IANA-probed) and check it is
  // discoverable; a UDP service on an unassigned port must not be.
  ScanClass klass;
  klass.name = "udp";
  klass.ports = {53};
  klass.period = Duration::Days(1);
  std::size_t dns_hits = 0;
  engine.RunPassChunk(klass, 0, Timestamp{0}, Timestamp{1440},
                      [&](const Candidate& c) {
                        if (c.key.transport == Transport::kUdp) {
                          EXPECT_EQ(c.udp_protocol, proto::Protocol::kDns);
                          ++dns_hits;
                        }
                      });
  EXPECT_GT(dns_hits, 0u);
}

// ------------------------------------------------------------------ scheduler

TEST_F(DiscoveryTest, SchedulerSplitsAtPassBoundaries) {
  DiscoveryEngine engine(net_, profile_, 1, 7);
  ScanScheduler scheduler(engine);

  std::vector<std::uint64_t> provider_calls;
  ScheduledClass rotating;
  rotating.klass.name = "rotating";
  rotating.klass.period = Duration::Days(1);
  rotating.port_provider = [&](std::uint64_t pass) {
    provider_calls.push_back(pass);
    return std::vector<Port>{80};
  };
  scheduler.AddClass(std::move(rotating));

  // A tick spanning a day boundary must execute both passes' slices.
  net_.AdvanceTo(Timestamp{1500});
  scheduler.Tick(Timestamp{1380}, Timestamp{1500}, [](auto&) {});
  ASSERT_EQ(provider_calls.size(), 2u);
  EXPECT_EQ(provider_calls[0], 0u);
  EXPECT_EQ(provider_calls[1], 1u);
}

TEST_F(DiscoveryTest, SchedulerEnableDisable) {
  DiscoveryEngine engine(net_, profile_, 1, 7);
  ScanScheduler scheduler(engine);
  ScheduledClass fixed;
  fixed.klass.name = "fixed";
  fixed.klass.ports = {80};
  fixed.klass.period = Duration::Days(1);
  scheduler.AddClass(std::move(fixed));

  ASSERT_TRUE(scheduler.SetEnabled("fixed", false));
  int candidates = 0;
  scheduler.Tick(Timestamp{0}, Timestamp{1440},
                 [&](const Candidate&) { ++candidates; });
  EXPECT_EQ(candidates, 0);
  EXPECT_FALSE(scheduler.SetEnabled("nope", false));
}

}  // namespace
}  // namespace censys::scan
