// Microbenchmarks (google-benchmark) for the hot paths of the library:
// the ZMap-style permutation, SHA-256, delta encoding, the commit stage's
// per-service diff, journal writes, journal reconstruction, search
// queries and index updates, the simulated L4 probe path, the executor
// thread pool, the metrics instruments, and the full staged engine tick
// at several thread counts.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/executor.h"
#include "core/metrics.h"
#include "core/rng.h"
#include "core/sha256.h"
#include "engines/world.h"
#include "fingerprint/fingerprints.h"
#include "pipeline/entity.h"
#include "scan/cyclic.h"
#include "search/index.h"
#include "simnet/internet.h"
#include "storage/delta.h"
#include "storage/journal.h"

namespace censys {
namespace {

void BM_CyclicPermutationNext(benchmark::State& state) {
  scan::CyclicPermutation perm(1ull << 32, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(perm.Next());
  }
}
BENCHMARK(BM_CyclicPermutationNext);

void BM_Sha256(benchmark::State& state) {
  std::string data(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_XoshiroNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextU64());
  }
}
BENCHMARK(BM_XoshiroNext);

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(1);
  ZipfSampler zipf(65536, 1.08);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

storage::FieldMap MakeRecord(int fields, int salt) {
  storage::FieldMap map;
  for (int i = 0; i < fields; ++i) {
    map["service.field" + std::to_string(i)] =
        "value-" + std::to_string(i * 31 + salt);
  }
  return map;
}

void BM_DeltaCompute(benchmark::State& state) {
  const auto before = MakeRecord(static_cast<int>(state.range(0)), 0);
  auto after = before;
  after["service.field1"] = "changed";
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::ComputeDelta(before, after));
  }
}
BENCHMARK(BM_DeltaCompute)->Arg(8)->Arg(32);

// The commit stage's diff: one service of a host with 8 services of 16
// fields each, against its freshly projected fields. Arg 0 is a no-op
// refresh (empty delta), arg 1 a refresh that changed one field.
void BM_UpsertServiceDelta(benchmark::State& state) {
  const IPv4Address ip(0x0A000001);
  storage::FieldMap host;
  storage::FieldMap fields;
  for (const Port port : {22, 80, 443, 3306, 5432, 8080, 8443, 9200}) {
    const ServiceKey key{ip, port, Transport::kTcp};
    const std::string prefix = pipeline::ServicePrefix(key);
    for (const auto& [field, value] : MakeRecord(16, port)) {
      host.emplace(prefix + field, value);
      if (port == 3306) fields.emplace(prefix + field, value);
    }
  }
  if (state.range(0) == 1) fields.begin()->second += "-changed";
  const ServiceKey key{ip, 3306, Transport::kTcp};
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline::UpsertServiceDelta(host, key, fields));
  }
}
BENCHMARK(BM_UpsertServiceDelta)->Arg(0)->Arg(1);

void BM_JournalAppend(benchmark::State& state) {
  storage::EventJournal journal;
  const core::ThreadRoleGuard role(journal.command_role());
  std::uint64_t i = 0;
  const auto base = MakeRecord(16, 0);
  for (auto _ : state) {
    auto changed = base;
    changed["counter"] = std::to_string(i);
    const std::string entity = std::to_string(i % 512);
    const storage::FieldMap* current = journal.CurrentState(entity);
    static const storage::FieldMap kEmpty;
    journal.Append(entity, storage::EventKind::kServiceChanged,
                   Timestamp{static_cast<std::int64_t>(i)},
                   storage::ComputeDelta(current ? *current : kEmpty, changed));
    ++i;
  }
}
BENCHMARK(BM_JournalAppend);

void BM_JournalReconstruct(benchmark::State& state) {
  storage::EventJournal journal;
  storage::FieldMap prev;
  for (int i = 0; i < 200; ++i) {
    auto cur = MakeRecord(16, 0);
    cur["counter"] = std::to_string(i);
    journal.Append("host", storage::EventKind::kServiceChanged,
                   Timestamp{i * 10}, storage::ComputeDelta(prev, cur));
    prev = cur;
  }
  std::int64_t t = 0;
  for (auto _ : state) {
    t = (t + 137) % 2000;
    benchmark::DoNotOptimize(journal.ReconstructAt("host", Timestamp{t}));
  }
}
BENCHMARK(BM_JournalReconstruct);

void BM_SearchIndexQuery(benchmark::State& state) {
  search::SearchIndex index;
  for (int i = 0; i < 5000; ++i) {
    storage::FieldMap doc;
    doc["service.name"] = (i % 3 == 0) ? "HTTP" : "SSH";
    doc["service.banner"] = "Server: nginx/1." + std::to_string(i % 25);
    doc["host.country"] = (i % 5 == 0) ? "US" : "DE";
    index.Index("10.0." + std::to_string(i / 256) + "." +
                    std::to_string(i % 256),
                doc);
  }
  std::string error;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Search(
        R"(service.name: "HTTP" AND host.country: "US")", &error));
  }
}
BENCHMARK(BM_SearchIndexQuery);

// A host-like document: `fields` fields over a vocabulary shared across
// hosts (service names, products, countries) plus per-host tokens; the
// first `changed` fields carry `version`, so two versions differ there.
storage::FieldMap HostDocument(int host, int fields, int changed,
                               int version) {
  static const char* const kProducts[] = {"nginx", "apache httpd", "openssh",
                                          "mysql", "microsoft iis"};
  storage::FieldMap doc;
  for (int f = 0; f < fields; ++f) {
    const std::string port = std::to_string(80 + f / 4);
    const int salt = f < changed ? version : 0;
    switch (f % 4) {
      case 0:
        doc["svc." + port + "/tcp.service.name"] = f % 8 == 0 ? "HTTP" : "SSH";
        break;
      case 1:
        doc["svc." + port + "/tcp.software.product"] =
            std::string(kProducts[(host + f + salt) % 5]) + " " +
            std::to_string(1 + salt % 9) + "." + std::to_string(f);
        break;
      case 2:
        doc["svc." + port + "/tcp.banner"] =
            "Server: build " + std::to_string(host % 997) + " rev " +
            std::to_string(salt);
        break;
      default:
        doc["svc." + port + "/tcp.location.country"] =
            (host + salt) % 3 == 0 ? "US" : "DE";
        break;
    }
  }
  return doc;
}

std::string HostId(int host) {
  return "10." + std::to_string(host >> 16) + "." +
         std::to_string((host >> 8) & 255) + "." + std::to_string(host & 255);
}

// One Index call into a ~30K-document index: Arg(0) a first-time
// 16-field document, Arg(1) a re-index of a 56-field document whose new
// version changes 16 fields — the two kinds of follower index update.
void BM_SearchIndexIndex(benchmark::State& state) {
  constexpr int kHosts = 30000;
  const bool reindex = state.range(0) == 1;
  const int fields = reindex ? 56 : 16;
  search::SearchIndex index;
  for (int h = 0; h < kHosts; ++h) {
    index.Index(HostId(h), HostDocument(h, fields, 16, 0));
  }
  std::vector<storage::FieldMap> versions;
  for (int v = 0; v < 8; ++v) {
    versions.push_back(HostDocument(kHosts, fields, 16, v));
  }
  const std::string fresh = HostId(kHosts);
  if (reindex) index.Index(fresh, versions[0]);
  int version = 0;
  for (auto _ : state) {
    version = (version + 1) % 8;
    if (!reindex) {
      state.PauseTiming();
      index.Remove(fresh);
      state.ResumeTiming();
    }
    index.Index(fresh, versions[static_cast<std::size_t>(version)]);
    benchmark::ClobberMemory();
  }
  state.SetLabel(reindex ? "re-index" : "first-time");
}
BENCHMARK(BM_SearchIndexIndex)->Arg(0)->Arg(1);

void BM_L4Probe(benchmark::State& state) {
  simnet::UniverseConfig cfg;
  cfg.seed = 3;
  cfg.universe_size = 1u << 18;
  cfg.target_services = 40000;
  static simnet::Internet* net = new simnet::Internet(cfg);
  static const simnet::ScannerProfile profile{1, "bench", 300.0, 1280.0};
  const simnet::ProbeContext ctx{&profile, 0};
  Rng rng(9);
  for (auto _ : state) {
    const ServiceKey key{
        IPv4Address(static_cast<std::uint32_t>(rng.NextBelow(1u << 18))),
        static_cast<Port>(rng.NextBelow(65536)), Transport::kTcp};
    benchmark::DoNotOptimize(net->L4Probe(ctx, key, Timestamp{0}));
  }
}
BENCHMARK(BM_L4Probe);

void BM_FingerprintCorpusEvaluate(benchmark::State& state) {
  const auto engine = fingerprint::FingerprintEngine::BuiltIn(2000);
  const storage::FieldMap fields = {
      {"service.name", "HTTP"},
      {"http.html_title", "Some Unremarkable Page"},
      {"service.banner", "Server: nginx/1.25.3"},
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Evaluate(fields));
  }
}
BENCHMARK(BM_FingerprintCorpusEvaluate);

// --- executor ----------------------------------------------------------------

void BM_ExecutorParallelFor(benchmark::State& state) {
  Executor executor(static_cast<int>(state.range(0)));
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  std::vector<std::uint64_t> out(n);
  for (auto _ : state) {
    executor.ParallelFor(n, [&](std::size_t i) {
      // ~64 dependent hash rounds per index: the cost shape of an
      // in-memory L7 interrogation (hashing, no I/O).
      std::uint64_t h = i;
      for (int r = 0; r < 64; ++r) h = SplitMix64(h);
      out[i] = h;
    });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ExecutorParallelFor)
    ->Args({0, 4096})
    ->Args({1, 4096})
    ->Args({2, 4096})
    ->Args({4, 4096})
    ->Args({4, 64});

// --- metrics overhead --------------------------------------------------------

void BM_MetricsCounterAdd(benchmark::State& state) {
  metrics::Registry registry;
  metrics::Counter& counter = registry.GetCounter("bench.counter");
  for (auto _ : state) {
    counter.Add();
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_MetricsCounterAdd);

void BM_MetricsUnboundHandleAdd(benchmark::State& state) {
  const metrics::CounterHandle handle;  // unbound: the no-metrics fast path
  for (auto _ : state) {
    handle.Add();
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MetricsUnboundHandleAdd);

void BM_MetricsHistogramObserve(benchmark::State& state) {
  metrics::Registry registry;
  metrics::Histogram& hist = registry.GetHistogram("bench.hist");
  std::uint64_t i = 0;
  for (auto _ : state) {
    hist.Observe(static_cast<double>(i++ % 1024));
  }
  benchmark::DoNotOptimize(hist.count());
}
BENCHMARK(BM_MetricsHistogramObserve);

// --- staged engine tick ------------------------------------------------------

// Whole-pipeline throughput at different executor sizes. Each iteration is
// one 2-hour tick of a settled small world; items/sec is interrogations/sec
// (stage 3 is the parallel stage and the dominant cost) per wall-clock
// second: UseRealTime, because the benchmark thread's CPU time would read
// work moved onto the workers as speedup.
void BM_EngineTick(benchmark::State& state) {
  engines::WorldConfig cfg;
  cfg.universe.seed = 5;
  cfg.universe.universe_size = 1u << 16;
  cfg.universe.target_services = 9000;
  cfg.universe.ics_scale = 128;
  cfg.with_alternatives = false;
  cfg.censys.threads = static_cast<int>(state.range(0));
  engines::World world(cfg);
  world.Bootstrap();
  world.RunForDays(1.0);  // settle into steady state before measuring

  std::uint64_t interrogations = 0;
  for (auto _ : state) {
    world.RunForDays(1.0 / 12.0);  // exactly one tick
    interrogations += world.censys().TickReport().interrogations;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(interrogations));
}
BENCHMARK(BM_EngineTick)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Iterations(12)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace censys

BENCHMARK_MAIN();
