// Unit tests for the core module: addresses, CIDR math, RNG statistics,
// SHA-256 vectors, string utilities, the simulated clock, the executor
// thread pool, and the metrics registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/cidr.h"
#include "core/clock.h"
#include "core/crc32c.h"
#include "core/fault.h"
#include "core/executor.h"
#include "core/metrics.h"
#include "core/rng.h"
#include "core/sha256.h"
#include "core/strings.h"
#include "core/thread_safety.h"
#include "core/types.h"

namespace censys {
namespace {

// ---------------------------------------------------------------- IPv4Address

TEST(IPv4AddressTest, ParsesValidDottedQuad) {
  const auto a = IPv4Address::Parse("192.0.2.17");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->value(), 0xC0000211u);
  EXPECT_EQ(a->ToString(), "192.0.2.17");
}

TEST(IPv4AddressTest, ParsesBoundaryValues) {
  EXPECT_EQ(IPv4Address::Parse("0.0.0.0")->value(), 0u);
  EXPECT_EQ(IPv4Address::Parse("255.255.255.255")->value(), 0xFFFFFFFFu);
}

TEST(IPv4AddressTest, RejectsMalformedInput) {
  EXPECT_FALSE(IPv4Address::Parse("").has_value());
  EXPECT_FALSE(IPv4Address::Parse("1.2.3").has_value());
  EXPECT_FALSE(IPv4Address::Parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(IPv4Address::Parse("1.2.3.256").has_value());
  EXPECT_FALSE(IPv4Address::Parse("1.2.3.-4").has_value());
  EXPECT_FALSE(IPv4Address::Parse("a.b.c.d").has_value());
  EXPECT_FALSE(IPv4Address::Parse("1.2.3.4 ").has_value());
  EXPECT_FALSE(IPv4Address::Parse("01.2.3.4").has_value());
}

TEST(IPv4AddressTest, OctetsAreNetworkOrder) {
  const IPv4Address a(0x01020304u);
  EXPECT_EQ(a.octet(0), 1);
  EXPECT_EQ(a.octet(1), 2);
  EXPECT_EQ(a.octet(2), 3);
  EXPECT_EQ(a.octet(3), 4);
}

TEST(IPv4AddressTest, RoundTripsThroughString) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const IPv4Address a(static_cast<std::uint32_t>(rng.NextU64()));
    EXPECT_EQ(IPv4Address::Parse(a.ToString()), a);
  }
}

// ------------------------------------------------------------------ ServiceKey

TEST(ServiceKeyTest, PackUnpackRoundTrips) {
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    ServiceKey key{IPv4Address(static_cast<std::uint32_t>(rng.NextU64())),
                   static_cast<Port>(rng.NextBelow(65536)),
                   rng.Bernoulli(0.5) ? Transport::kTcp : Transport::kUdp};
    EXPECT_EQ(ServiceKey::Unpack(key.Pack()), key);
  }
}

TEST(ServiceKeyTest, ToStringIsReadable) {
  const ServiceKey key{IPv4Address(0x7F000001u), 443, Transport::kTcp};
  EXPECT_EQ(key.ToString(), "127.0.0.1:443/tcp");
}

// ------------------------------------------------------------------ Timestamp

TEST(TimestampTest, ArithmeticIsConsistent) {
  const Timestamp t0 = Timestamp::FromDays(2);
  const Timestamp t1 = t0 + Duration::Hours(36);
  EXPECT_DOUBLE_EQ((t1 - t0).ToHours(), 36.0);
  EXPECT_DOUBLE_EQ(t1.ToDays(), 3.5);
  EXPECT_LT(t0, t1);
}

TEST(TimestampTest, ToStringFormatsDayAndTime) {
  EXPECT_EQ((Timestamp::FromDays(12) + Duration::Hours(7.5)).ToString(),
            "d12 07:30");
}

// ----------------------------------------------------------------------- Cidr

TEST(CidrTest, ParseAndProperties) {
  const auto c = Cidr::Parse("10.1.0.0/16");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->size(), 65536u);
  EXPECT_TRUE(c->Contains(*IPv4Address::Parse("10.1.200.7")));
  EXPECT_FALSE(c->Contains(*IPv4Address::Parse("10.2.0.0")));
  EXPECT_EQ(c->ToString(), "10.1.0.0/16");
}

TEST(CidrTest, BaseIsMaskedToBoundary) {
  const Cidr c(*IPv4Address::Parse("10.1.2.3"), 24);
  EXPECT_EQ(c.base().ToString(), "10.1.2.0");
}

TEST(CidrTest, RejectsMalformed) {
  EXPECT_FALSE(Cidr::Parse("10.0.0.0").has_value());
  EXPECT_FALSE(Cidr::Parse("10.0.0.0/33").has_value());
  EXPECT_FALSE(Cidr::Parse("10.0.0.0/x").has_value());
  EXPECT_FALSE(Cidr::Parse("300.0.0.0/8").has_value());
}

TEST(CidrTest, ContainsNestedPrefix) {
  const Cidr outer(*IPv4Address::Parse("10.0.0.0"), 8);
  const Cidr inner(*IPv4Address::Parse("10.9.0.0"), 16);
  EXPECT_TRUE(outer.Contains(inner));
  EXPECT_FALSE(inner.Contains(outer));
}

TEST(CidrTest, SlashZeroCoversEverything) {
  const Cidr all(IPv4Address(0), 0);
  EXPECT_EQ(all.size(), std::uint64_t{1} << 32);
  EXPECT_TRUE(all.Contains(IPv4Address(0xFFFFFFFFu)));
}

// -------------------------------------------------------------------- CidrSet

TEST(CidrSetTest, MembershipAndMerging) {
  CidrSet set;
  set.Insert(*Cidr::Parse("10.0.0.0/24"));
  set.Insert(*Cidr::Parse("10.0.1.0/24"));  // adjacent: should merge
  set.Insert(*Cidr::Parse("192.168.0.0/16"));
  EXPECT_TRUE(set.Contains(*IPv4Address::Parse("10.0.0.200")));
  EXPECT_TRUE(set.Contains(*IPv4Address::Parse("10.0.1.5")));
  EXPECT_FALSE(set.Contains(*IPv4Address::Parse("10.0.2.0")));
  EXPECT_TRUE(set.Contains(*IPv4Address::Parse("192.168.55.1")));
  EXPECT_EQ(set.AddressCount(), 512u + 65536u);
  EXPECT_EQ(set.range_count(), 2u);
}

TEST(CidrSetTest, OverlappingInsertsMerge) {
  CidrSet set;
  set.Insert(*Cidr::Parse("10.0.0.0/16"));
  set.Insert(*Cidr::Parse("10.0.128.0/17"));  // inside the /16
  EXPECT_EQ(set.AddressCount(), 65536u);
  EXPECT_EQ(set.range_count(), 1u);
}

TEST(CidrSetTest, InsertBridgingTwoRanges) {
  CidrSet set;
  set.Insert(*Cidr::Parse("10.0.0.0/24"));
  set.Insert(*Cidr::Parse("10.0.2.0/24"));
  EXPECT_EQ(set.range_count(), 2u);
  set.Insert(*Cidr::Parse("10.0.1.0/24"));  // bridges the gap
  EXPECT_EQ(set.range_count(), 1u);
  EXPECT_EQ(set.AddressCount(), 768u);
}

TEST(CidrSetTest, EmptySetContainsNothing) {
  CidrSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.Contains(IPv4Address(0)));
  EXPECT_EQ(set.AddressCount(), 0u);
}

// ------------------------------------------------------------------------ Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
  EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(6);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng(9);
  double sum = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(10);
  double sum = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.NextExponential(7.0);
  EXPECT_NEAR(sum / kN, 7.0, 0.15);
}

TEST(RngTest, NormalHasRequestedMoments) {
  Rng rng(11);
  double sum = 0, sq = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.NextNormal(3.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(RngTest, PoissonMatchesMeanSmallAndLarge) {
  Rng rng(12);
  for (const double mean : {0.5, 4.0, 80.0}) {
    double sum = 0;
    constexpr int kN = 20000;
    for (int i = 0; i < kN; ++i)
      sum += static_cast<double>(rng.NextPoisson(mean));
    EXPECT_NEAR(sum / kN, mean, mean * 0.05 + 0.05) << "mean=" << mean;
  }
}

TEST(RngTest, GeometricMatchesMean) {
  Rng rng(13);
  const double p = 0.2;
  double sum = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) sum += static_cast<double>(rng.NextGeometric(p));
  // mean failures before success = (1-p)/p = 4.
  EXPECT_NEAR(sum / kN, 4.0, 0.15);
}

TEST(RngTest, PickWeightedFollowsWeights) {
  Rng rng(14);
  const double weights[] = {1.0, 3.0, 6.0};
  int counts[3] = {0, 0, 0};
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) ++counts[rng.PickWeighted(weights)];
  EXPECT_NEAR(counts[0] / double(kN), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / double(kN), 0.3, 0.015);
  EXPECT_NEAR(counts[2] / double(kN), 0.6, 0.015);
}

TEST(RngTest, ForkedStreamsAreIndependent) {
  Rng parent(99);
  Rng a = parent.Fork(1);
  Rng b = parent.Fork(2);
  Rng a2 = parent.Fork(1);  // same stream id -> same stream
  EXPECT_EQ(a.NextU64(), a2.NextU64());
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LT(same, 3);
}

TEST(ZipfSamplerTest, RanksAreInRangeAndMonotonicallyPopular) {
  Rng rng(21);
  ZipfSampler zipf(1000, 1.1);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t r = zipf.Sample(rng);
    ASSERT_GE(r, 1u);
    ASSERT_LE(r, 1000u);
    ++counts[r];
  }
  // Rank 1 should dominate rank 10 which dominates rank 100 (smooth decay).
  EXPECT_GT(counts[1], counts[10]);
  EXPECT_GT(counts[10], counts[100]);
  // Ratio count(1)/count(2) should approximate 2^s within tolerance.
  const double ratio = static_cast<double>(counts[1]) / counts[2];
  EXPECT_NEAR(ratio, std::pow(2.0, 1.1), 0.35);
}

// --------------------------------------------------------------------- Sha256

TEST(Sha256Test, Fips180EmptyString) {
  EXPECT_EQ(
      ToHex(Sha256::Hash("")),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Fips180Abc) {
  EXPECT_EQ(
      ToHex(Sha256::Hash("abc")),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, Fips180TwoBlockMessage) {
  EXPECT_EQ(
      ToHex(Sha256::Hash(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(
      ToHex(h.Finish()),
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Sha256 h;
    h.Update(data.substr(0, split));
    h.Update(data.substr(split));
    EXPECT_EQ(h.Finish(), Sha256::Hash(data)) << "split=" << split;
  }
}

TEST(Sha256Test, DigestPrefixIsBigEndian) {
  const auto d = Sha256::Hash("abc");
  EXPECT_EQ(DigestPrefix64(d), 0xba7816bf8f01cfeaull);
}

// -------------------------------------------------------------------- Strings

TEST(StringsTest, SplitPreservesEmptyFields) {
  const auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitWhitespaceSkipsRuns) {
  const auto parts = SplitWhitespace("  alpha \t beta\ngamma  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "alpha");
  EXPECT_EQ(parts[2], "gamma");
}

TEST(StringsTest, TrimWhitespace) {
  EXPECT_EQ(TrimWhitespace("  x y  "), "x y");
  EXPECT_EQ(TrimWhitespace("\t\n"), "");
  EXPECT_EQ(TrimWhitespace(""), "");
}

TEST(StringsTest, CaseHelpers) {
  EXPECT_EQ(ToLower("MixedCASE123"), "mixedcase123");
  EXPECT_TRUE(EqualsIgnoreCase("Modbus", "MODBUS"));
  EXPECT_FALSE(EqualsIgnoreCase("Modbus", "Modbus7"));
  EXPECT_TRUE(ContainsIgnoreCase("Apache httpd Server", "HTTPD"));
  EXPECT_FALSE(ContainsIgnoreCase("Apache", "nginx"));
  EXPECT_TRUE(ContainsIgnoreCase("anything", ""));
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("SSH-2.0-OpenSSH", "SSH-"));
  EXPECT_FALSE(StartsWith("SSH", "SSH-"));
  EXPECT_TRUE(EndsWith("report.json", ".json"));
  EXPECT_FALSE(EndsWith("x", ".json"));
}

TEST(StringsTest, GlobMatch) {
  EXPECT_TRUE(GlobMatch("*", "anything"));
  EXPECT_TRUE(GlobMatch("SSH-*", "SSH-2.0-OpenSSH_8.9p1"));
  EXPECT_TRUE(GlobMatch("*nginx*", "Server: nginx/1.18.0"));
  EXPECT_TRUE(GlobMatch("a?c", "abc"));
  EXPECT_FALSE(GlobMatch("a?c", "ac"));
  EXPECT_FALSE(GlobMatch("nginx", "Server: nginx"));
  EXPECT_TRUE(GlobMatch("**", ""));
  EXPECT_TRUE(GlobMatch("a*b*c", "aXXbYYc"));
  EXPECT_FALSE(GlobMatch("a*b*c", "aXXcYYb"));
}

TEST(StringsTest, HumanCount) {
  EXPECT_EQ(HumanCount(49), "49");
  EXPECT_EQ(HumanCount(1200), "1.2K");
  EXPECT_EQ(HumanCount(13100), "13.1K");
  EXPECT_EQ(HumanCount(42000), "42K");
  EXPECT_EQ(HumanCount(794000000), "794M");
  EXPECT_EQ(HumanCount(3100000000ull), "3.1B");
}

TEST(StringsTest, Fnv1aIsStable) {
  // FNV-1a published test vector.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
}

// ---------------------------------------------------------------------- Clock

TEST(ClockTest, AdvanceIsMonotonic) {
  SimClock clock;
  clock.Advance(Duration::Hours(2));
  EXPECT_EQ(clock.now().minutes, 120);
  clock.AdvanceTo(Timestamp{100});  // earlier: no-op
  EXPECT_EQ(clock.now().minutes, 120);
  clock.AdvanceTo(Timestamp{150});
  EXPECT_EQ(clock.now().minutes, 150);
}

TEST(EventQueueTest, RunsInTimeThenInsertionOrder) {
  SimClock clock;
  EventQueue queue;
  std::vector<int> order;
  queue.ScheduleAt(Timestamp{10}, [&](Timestamp) { order.push_back(2); });
  queue.ScheduleAt(Timestamp{5}, [&](Timestamp) { order.push_back(1); });
  queue.ScheduleAt(Timestamp{10}, [&](Timestamp) { order.push_back(3); });
  queue.RunUntil(clock, Timestamp{20});
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(clock.now().minutes, 20);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, EventsCanScheduleMoreEvents) {
  SimClock clock;
  EventQueue queue;
  int fired = 0;
  queue.ScheduleAt(Timestamp{5}, [&](Timestamp t) {
    ++fired;
    queue.ScheduleAfter(t, Duration::Minutes(5), [&](Timestamp) { ++fired; });
  });
  queue.RunUntil(clock, Timestamp{30});
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, FutureEventsStayQueued) {
  SimClock clock;
  EventQueue queue;
  int fired = 0;
  queue.ScheduleAt(Timestamp{100}, [&](Timestamp) { ++fired; });
  queue.RunUntil(clock, Timestamp{50});
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(queue.size(), 1u);
  queue.RunUntil(clock, Timestamp{100});
  EXPECT_EQ(fired, 1);
}

// ------------------------------------------------------------------- Executor

TEST(ExecutorTest, ZeroThreadsRunsInlineInOrder) {
  Executor executor(0);
  EXPECT_EQ(executor.thread_count(), 0);
  std::vector<std::size_t> order;
  executor.ParallelFor(100, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ExecutorTest, EveryIndexRunsExactlyOnce) {
  Executor executor(4);
  EXPECT_EQ(executor.thread_count(), 4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  executor.ParallelFor(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ExecutorTest, PerIndexResultSlotsMatchSerialRun) {
  // The pipeline's contract: a pure function fanned out over result slots
  // gives the same vector regardless of thread count.
  auto run = [](int threads) {
    Executor executor(threads);
    std::vector<std::uint64_t> out(5000);
    executor.ParallelFor(out.size(), [&](std::size_t i) {
      out[i] = SplitMix64(static_cast<std::uint64_t>(i) * 0x9E3779B9u);
    });
    return out;
  };
  const auto serial = run(0);
  EXPECT_EQ(run(1), serial);
  EXPECT_EQ(run(3), serial);
  EXPECT_EQ(run(8), serial);
}

TEST(ExecutorTest, PropagatesFirstException) {
  Executor executor(3);
  EXPECT_THROW(executor.ParallelFor(64,
                                    [](std::size_t i) {
                                      if (i == 17) {
                                        throw std::runtime_error("boom");
                                      }
                                    }),
               std::runtime_error);
  // The pool survives a throwing batch and runs subsequent batches fully.
  std::atomic<int> count{0};
  executor.ParallelFor(64, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 64);
}

TEST(ExecutorTest, HandlesManySmallBatchesBackToBack) {
  Executor executor(2);
  std::atomic<std::uint64_t> total{0};
  for (int round = 0; round < 200; ++round) {
    executor.ParallelFor(round % 5, [&](std::size_t i) { total += i + 1; });
  }
  // 200 rounds of n in {0,1,2,3,4}: 40 * (0 + 1 + 3 + 6 + 10).
  EXPECT_EQ(total.load(), 40u * 20u);
}

TEST(ExecutorTest, BroadcastRunsOnePerWorkerWhileCallerWorks) {
  Executor executor(3);
  std::atomic<int> worker_calls{0};
  std::vector<std::atomic<int>> per_worker(3);
  executor.Broadcast([&](std::size_t w) {
    per_worker[w].fetch_add(1, std::memory_order_relaxed);
    worker_calls.fetch_add(1, std::memory_order_relaxed);
  });
  // The caller keeps running while the broadcast is in flight — this is
  // the commit stage's overlap with interrogation workers.
  int caller_work = 0;
  for (int i = 0; i < 1000; ++i) caller_work += i;
  executor.JoinBroadcast();
  EXPECT_EQ(worker_calls.load(), 3);
  for (int w = 0; w < 3; ++w) EXPECT_EQ(per_worker[w].load(), 1) << w;
  EXPECT_EQ(caller_work, 499500);
}

TEST(ExecutorTest, BroadcastPropagatesWorkerExceptionAtJoin) {
  Executor executor(2);
  executor.Broadcast([](std::size_t w) {
    if (w == 1) throw std::runtime_error("worker died");
  });
  EXPECT_THROW(executor.JoinBroadcast(), std::runtime_error);
  // The pool survives and runs subsequent batches.
  std::atomic<int> count{0};
  executor.ParallelFor(10, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ExecutorTest, BroadcastWithZeroWorkersIsANoOp) {
  Executor executor(0);
  bool ran = false;
  executor.Broadcast([&](std::size_t) { ran = true; });
  executor.JoinBroadcast();
  EXPECT_FALSE(ran);  // the caller is expected to run the work inline
}

// -------------------------------------------------------------------- metrics

TEST(MetricsTest, CounterAccumulatesAndRegistryReads) {
  metrics::Registry registry;
  registry.GetCounter("censys.test.a").Add();
  registry.GetCounter("censys.test.a").Add(41);
  EXPECT_EQ(registry.CounterValue("censys.test.a"), 42u);
  EXPECT_EQ(registry.CounterValue("censys.test.absent"), 0u);
}

TEST(MetricsTest, GaugeSetsAndAdds) {
  metrics::Registry registry;
  metrics::Gauge& gauge = registry.GetGauge("censys.test.g");
  gauge.Set(10);
  gauge.Add(-3);
  EXPECT_EQ(registry.GaugeValue("censys.test.g"), 7);
}

TEST(MetricsTest, RegistryReturnsStableInstruments) {
  metrics::Registry registry;
  metrics::Counter& a = registry.GetCounter("censys.test.same");
  metrics::Counter& b = registry.GetCounter("censys.test.same");
  EXPECT_EQ(&a, &b);
}

TEST(MetricsTest, HistogramTracksCountSumMeanMax) {
  metrics::Registry registry;
  metrics::Histogram& h = registry.GetHistogram("censys.test.h");
  for (double v : {1.0, 2.0, 3.0, 10.0}) h.Observe(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_NEAR(h.sum(), 16.0, 1e-3);
  EXPECT_NEAR(h.Mean(), 4.0, 1e-3);
  EXPECT_NEAR(h.Max(), 10.0, 1e-3);
}

TEST(MetricsTest, HistogramQuantileIsBucketUpperBound) {
  metrics::Histogram h;
  for (int i = 0; i < 100; ++i) h.Observe(3.0);  // bucket [2, 4)
  EXPECT_EQ(h.Quantile(0.5), 4.0);
  EXPECT_EQ(h.Quantile(0.99), 4.0);
  h.Observe(1000.0);  // bucket [512, 1024)
  EXPECT_EQ(h.Quantile(0.999), 1024.0);
}

TEST(MetricsTest, UnboundHandlesAreNoOps) {
  metrics::CounterHandle counter;
  metrics::GaugeHandle gauge;
  metrics::HistogramHandle histogram;
  counter.Add();
  gauge.Set(5);
  histogram.Observe(1.0);
  { metrics::ScopedTimer timer(histogram); }
  // Nothing to assert beyond "does not crash": the handles hold no state.
  SUCCEED();
}

TEST(MetricsTest, RenderListsEveryInstrumentSorted) {
  metrics::Registry registry;
  registry.GetCounter("censys.b.counter").Add(7);
  registry.GetGauge("censys.a.gauge").Set(-2);
  registry.GetHistogram("censys.c.hist").Observe(5.0);
  const std::string text = registry.Render();
  const auto pos_a = text.find("censys.a.gauge");
  const auto pos_b = text.find("censys.b.counter");
  const auto pos_c = text.find("censys.c.hist");
  ASSERT_NE(pos_a, std::string::npos);
  ASSERT_NE(pos_b, std::string::npos);
  ASSERT_NE(pos_c, std::string::npos);
  EXPECT_LT(pos_a, pos_b);
  EXPECT_LT(pos_b, pos_c);
  EXPECT_NE(text.find("7"), std::string::npos);
}

TEST(MetricsTest, ScopedTimerRecordsIntoHistogram) {
  metrics::Registry registry;
  const metrics::HistogramHandle handle =
      metrics::BindHistogram(&registry, "censys.test.timer_us");
  { metrics::ScopedTimer timer(handle); }
  const metrics::Histogram* h =
      registry.FindHistogram("censys.test.timer_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
}

TEST(MetricsTest, CountersAreThreadSafe) {
  metrics::Registry registry;
  metrics::Counter& counter = registry.GetCounter("censys.test.mt");
  metrics::Histogram& hist = registry.GetHistogram("censys.test.mt_us");
  Executor executor(4);
  executor.ParallelFor(20000, [&](std::size_t i) {
    counter.Add();
    hist.Observe(static_cast<double>(i % 64));
  });
  EXPECT_EQ(counter.value(), 20000u);
  EXPECT_EQ(hist.count(), 20000u);
}

// ---------------------------------------------- thread-safety primitives

TEST(ThreadSafetyTest, MutexLockExcludesConcurrentWriters) {
  core::Mutex mu;
  int counter = 0;
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&]() {
      for (int i = 0; i < 5000; ++i) {
        const core::MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(counter, 20000);
}

TEST(ThreadSafetyTest, ReaderLockAdmitsConcurrentReaders) {
  core::SharedMutex mu;
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&]() {
      for (int i = 0; i < 200; ++i) {
        const core::ReaderLock lock(mu);
        const int now = concurrent.fetch_add(1) + 1;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        concurrent.fetch_sub(1);
      }
    });
  }
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(concurrent.load(), 0);
  EXPECT_GE(peak.load(), 1);
}

TEST(ThreadSafetyTest, MutexLockAwaitWakesOnPredicate) {
  core::Mutex mu;
  std::condition_variable cv;
  bool ready = false;
  std::thread waiter([&]() {
    core::MutexLock lock(mu);
    lock.Await(cv, [&]() { return ready; });
  });
  {
    const core::MutexLock lock(mu);
    ready = true;
  }
  cv.notify_one();
  waiter.join();
  SUCCEED();
}

TEST(ThreadSafetyTest, ThreadRoleSelfBindsAndTracksOwner) {
  core::ThreadRole role;
  // First checker binds the role to the current thread...
  EXPECT_TRUE(role.CheckHeld());
  // ...and keeps holding it.
  EXPECT_TRUE(role.CheckHeld());
  // Any other thread now fails the check.
  bool other_held = true;
  std::thread other([&]() { other_held = role.CheckHeld(); });
  other.join();
  EXPECT_FALSE(other_held);
}

TEST(ThreadSafetyTest, ThreadRoleAdoptionMovesOwnership) {
  core::ThreadRole role;
  EXPECT_TRUE(role.CheckHeld());  // bound to main
  // Sequential handoff: a worker adopts, becoming the command thread.
  bool worker_held = false;
  std::thread worker([&]() {
    role.AdoptCurrentThread();
    worker_held = role.CheckHeld();
  });
  worker.join();
  EXPECT_TRUE(worker_held);
  // Main is no longer the owner...
  EXPECT_FALSE(role.CheckHeld());
  // ...until it detaches and rebinds.
  role.Detach();
  EXPECT_TRUE(role.CheckHeld());
}

// --------------------------------------------------------------------- crc32c

// RFC 3720 §B.4 reference vectors for CRC32C (Castagnoli).
TEST(Crc32cTest, Rfc3720Vectors) {
  EXPECT_EQ(core::Crc32c(std::string(32, '\0')), 0x8A9136AAu);
  EXPECT_EQ(core::Crc32c(std::string(32, '\xff')), 0x62A8AB43u);

  std::string ascending;
  for (int i = 0; i < 32; ++i) ascending.push_back(static_cast<char>(i));
  EXPECT_EQ(core::Crc32c(ascending), 0x46DD794Eu);

  std::string descending;
  for (int i = 31; i >= 0; --i) descending.push_back(static_cast<char>(i));
  EXPECT_EQ(core::Crc32c(descending), 0x113FDB5Cu);

  // An iSCSI SCSI Read (10) command PDU.
  const unsigned char pdu[48] = {
      0x01, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
      0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x18, 0x28, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  EXPECT_EQ(core::Crc32cExtend(0, pdu, sizeof(pdu)), 0xD9963A56u);

  EXPECT_EQ(core::Crc32c("123456789"), 0xE3069283u);
}

TEST(Crc32cTest, ExtendChainsAcrossArbitrarySplits) {
  const std::string data =
      "The quick brown fox jumps over the lazy dog, twice around the block";
  const std::uint32_t whole = core::Crc32c(data);
  for (const std::size_t split : {std::size_t{0}, std::size_t{1},
                                  std::size_t{7}, std::size_t{8},
                                  std::size_t{33}, data.size()}) {
    std::uint32_t crc = core::Crc32cExtend(0, data.data(), split);
    crc = core::Crc32cExtend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  std::string data = "censysim wal record payload";
  const std::uint32_t clean = core::Crc32c(data);
  for (std::size_t bit = 0; bit < data.size() * 8; bit += 13) {
    data[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    EXPECT_NE(core::Crc32c(data), clean) << "bit " << bit;
    data[bit / 8] ^= static_cast<char>(1u << (bit % 8));
  }
}

// ---------------------------------------------------------------------- fault

// CrashException must not be swallowable by generic std::exception
// handlers — it stands in for SIGKILL.
static_assert(!std::is_base_of_v<std::exception, fault::CrashException>);

TEST(FaultInjectorTest, UnarmedHitsReturnNothing) {
  fault::Injector::Global().Disarm();
  EXPECT_FALSE(fault::Hit("storage.wal.append").has_value());
}

#if defined(CENSYSIM_FAULT_INJECTION)

TEST(FaultInjectorTest, SkipHitsAndMaxFiresBoundTheWindow) {
  fault::Rule rule;
  rule.point = "test.point";
  rule.mode = fault::Mode::kErrorReturn;
  rule.skip_hits = 3;
  rule.max_fires = 2;
  const fault::ScopedPlan plan(42, {rule});
  std::vector<bool> fired;
  for (int i = 0; i < 8; ++i) {
    fired.push_back(fault::Hit("test.point").has_value());
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, false, false, true, true, false,
                                      false, false}));
  EXPECT_EQ(fault::Injector::Global().hits("test.point"), 8u);
  EXPECT_EQ(fault::Injector::Global().fires("test.point"), 2u);
}

TEST(FaultInjectorTest, SameSeedReproducesTheSchedule) {
  fault::Rule rule;
  rule.point = "test.prob";
  rule.mode = fault::Mode::kBitFlip;
  rule.probability = 0.3;

  const auto schedule = [&](std::uint64_t seed) {
    const fault::ScopedPlan plan(seed, {rule});
    std::vector<std::uint64_t> bits;
    for (int i = 0; i < 200; ++i) {
      if (const auto fault = fault::Hit("test.prob")) {
        bits.push_back(fault->bit);
      }
    }
    return bits;
  };

  const auto a = schedule(7);
  const auto b = schedule(7);
  const auto c = schedule(8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // ~30% of 200 hits should fire; allow generous slack.
  EXPECT_GT(a.size(), 30u);
  EXPECT_LT(a.size(), 120u);
}

TEST(FaultInjectorTest, FiringIsThreadInterleavingInvariant) {
  fault::Rule rule;
  rule.point = "test.mt";
  rule.mode = fault::Mode::kErrorReturn;
  rule.probability = 0.5;

  const auto total_fires = [&](int threads, int hits_per_thread) {
    const fault::ScopedPlan plan(99, {rule});
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        for (int i = 0; i < hits_per_thread; ++i) {
          (void)fault::Hit("test.mt");
        }
      });
    }
    for (auto& t : pool) t.join();
    return fault::Injector::Global().fires("test.mt");
  };

  // The fire decision for hit #i is a pure function of (seed, point, i):
  // 1000 hits fire the same number of times no matter how threads
  // interleave.
  const auto serial = total_fires(1, 1000);
  const auto parallel = total_fires(4, 250);
  EXPECT_EQ(serial, parallel);
}

TEST(FaultInjectorTest, TearFractionStaysInsideTheRecord) {
  fault::Rule rule;
  rule.point = "test.tear";
  rule.mode = fault::Mode::kTornWrite;
  const fault::ScopedPlan plan(5, {rule});
  for (int i = 0; i < 100; ++i) {
    const auto fault = fault::Hit("test.tear");
    ASSERT_TRUE(fault.has_value());
    EXPECT_GT(fault->tear_frac, 0.0);
    EXPECT_LT(fault->tear_frac, 1.0);
  }
}

#else

TEST(FaultInjectorTest, CompiledOutHitIsConstantNullopt) {
  // With the layer compiled out even an armed injector never fires.
  const fault::ScopedPlan plan(1, {fault::Rule{"test.off"}});
  EXPECT_FALSE(fault::Hit("test.off").has_value());
}

#endif  // CENSYSIM_FAULT_INJECTION

}  // namespace
}  // namespace censys
