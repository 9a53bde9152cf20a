// The span flight recorder (core/trace.h): recording, nesting across
// executor threads, ring wraparound, JSON escaping, build gating, and the
// determinism contract (a traced run is byte-identical to an untraced one).
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/executor.h"
#include "core/rng.h"
#include "core/strings.h"
#include "core/trace.h"
#include "engines/world.h"
#include "serving/frontend.h"
#include "test_tmpdir.h"

namespace censys {
namespace {

#if !defined(CENSYSIM_TRACE)

// The compile-out proof: with CENSYSIM_TRACE=OFF every macro and stub must
// be usable in a constant expression — i.e. the instrumentation literally
// evaluates to nothing at compile time.
constexpr bool OffModeFoldsAway() {
  TRACE_SPAN("cat", "span-with-no-storage");
  TRACE_SPAN_VAR(span, "cat", "span-with-no-storage");
  span.SetArg("key", "value");
  trace::RecordSpan("cat", "direct", 0, 1, "k", "v");
  trace::SetEnabled(true);  // a no-op: Enabled() below still sees false
  return !trace::kCompiledIn && !trace::Enabled() &&
         trace::NowMicros() == 0.0 && trace::GetStats().recorded == 0;
}
static_assert(OffModeFoldsAway(),
              "CENSYSIM_TRACE=OFF must compile tracing to nothing");

TEST(TraceOffTest, DumpReportsCompiledOut) {
  std::string error;
  EXPECT_FALSE(trace::Dump("/nonexistent/never-written.json", &error));
  EXPECT_NE(error.find("compiled out"), std::string::npos);
  EXPECT_TRUE(trace::DumpToString().empty());
}

#else  // CENSYSIM_TRACE

int EnvThreads(int fallback) {
  const char* value = std::getenv("CENSYSIM_THREADS");
  return value != nullptr ? std::atoi(value) : fallback;
}

struct CollectedSpan {
  std::string category;
  std::string name;
  std::uint32_t thread_id;
  double start_us;
  double end_us;
  std::string arg_value;
};

std::vector<CollectedSpan> Collect() {
  std::vector<CollectedSpan> spans;
  trace::ForEachSpan([&](const trace::SpanView& span) {
    spans.push_back({span.category, span.name, span.thread_id, span.start_us,
                     span.start_us + span.duration_us,
                     std::string(span.arg_value)});
  });
  return spans;
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::ResetForTest();
    trace::SetEnabled(true);
  }
  void TearDown() override { trace::SetEnabled(false); }
};

TEST_F(TraceTest, RecordsScopedSpans) {
  {
    TRACE_SPAN("unit", "outer_scope");
    TRACE_SPAN_VAR(span, "unit", "inner_scope");
    span.SetArg("item", "42");
  }
  const auto spans = Collect();
  ASSERT_EQ(spans.size(), 2u);
  // Destruction order records the inner span first.
  EXPECT_EQ(spans[0].name, "inner_scope");
  EXPECT_EQ(spans[0].arg_value, "42");
  EXPECT_EQ(spans[1].name, "outer_scope");
  EXPECT_GE(spans[1].end_us, spans[0].end_us);
  EXPECT_LE(spans[1].start_us, spans[0].start_us);
}

TEST_F(TraceTest, DisarmedSpansRecordNothing) {
  trace::SetEnabled(false);
  {
    TRACE_SPAN("unit", "disarmed");
  }
  EXPECT_EQ(trace::GetStats().recorded, 0u);
}

TEST_F(TraceTest, SpansNestAcrossExecutorThreads) {
  const int threads = EnvThreads(3);
  Executor executor(threads);
  constexpr std::size_t kItems = 64;
  // The calling thread participates in the batch and could drain all 64
  // near-instant tasks before a worker wakes; hold each task at a
  // rendezvous until a second thread has entered so the test always
  // exercises rings on more than one thread.
  std::mutex rendezvous_mu;
  std::condition_variable rendezvous_cv;
  std::set<std::thread::id> entered;
  executor.ParallelFor(kItems, [&](std::size_t i) {
    if (threads > 0) {
      std::unique_lock<std::mutex> lock(rendezvous_mu);
      entered.insert(std::this_thread::get_id());
      rendezvous_cv.notify_all();
      rendezvous_cv.wait(lock, [&] { return entered.size() > 1; });
    }
    TRACE_SPAN("unit", "worker_outer");
    for (int inner = 0; inner < 2; ++inner) {
      TRACE_SPAN_VAR(span, "unit", "worker_inner");
      span.SetArg("item", std::to_string(i));
    }
  });

  const auto spans = Collect();
  std::vector<CollectedSpan> outers, inners;
  std::set<std::uint32_t> threads_seen;
  for (const CollectedSpan& span : spans) {
    threads_seen.insert(span.thread_id);
    if (span.name == "worker_outer") outers.push_back(span);
    if (span.name == "worker_inner") inners.push_back(span);
  }
  EXPECT_EQ(outers.size(), kItems);
  EXPECT_EQ(inners.size(), 2 * kItems);
  // ParallelFor includes the calling thread, so a threaded run records
  // rings for more than one thread.
  if (threads > 0) {
    EXPECT_GT(threads_seen.size(), 1u);
  }

  // Every inner span is contained in an outer span on its own thread: the
  // scoped nesting survives the fan-out because each thread writes only
  // its own ring.
  for (const CollectedSpan& inner : inners) {
    bool contained = false;
    for (const CollectedSpan& outer : outers) {
      if (outer.thread_id == inner.thread_id &&
          outer.start_us <= inner.start_us && outer.end_us >= inner.end_us) {
        contained = true;
        break;
      }
    }
    EXPECT_TRUE(contained) << "orphan inner span on thread "
                           << inner.thread_id;
  }
}

TEST_F(TraceTest, RingBufferWrapsKeepingNewestSpans) {
  constexpr std::size_t kOverflow = 100;
  const double t0 = trace::NowMicros();
  for (std::size_t i = 0; i < trace::kRingCapacity + kOverflow; ++i) {
    trace::RecordSpan("unit", "wrap", t0 + static_cast<double>(i), 1.0, "",
                      "");
  }
  const trace::Stats stats = trace::GetStats();
  EXPECT_EQ(stats.recorded, trace::kRingCapacity + kOverflow);
  EXPECT_EQ(stats.dropped, kOverflow);

  const auto spans = Collect();
  ASSERT_EQ(spans.size(), trace::kRingCapacity);
  // The retained window is the newest kRingCapacity spans, oldest-first.
  EXPECT_DOUBLE_EQ(spans.front().start_us,
                   t0 + static_cast<double>(kOverflow));
  EXPECT_DOUBLE_EQ(spans.back().start_us,
                   t0 + static_cast<double>(trace::kRingCapacity + kOverflow -
                                            1));
}

TEST_F(TraceTest, DumpEscapesArgStrings) {
  trace::RecordSpan("unit", "escape", 0, 1, "arg",
                    "quote\" slash\\ newline\n tab\t ctrl\x01");
  const std::string json = trace::DumpToString();
  EXPECT_NE(json.find("quote\\\""), std::string::npos);
  EXPECT_NE(json.find("slash\\\\"), std::string::npos);
  EXPECT_NE(json.find("newline\\n"), std::string::npos);
  EXPECT_NE(json.find("tab\\t"), std::string::npos);
  EXPECT_NE(json.find("ctrl\\u0001"), std::string::npos);
  // No raw control bytes survive into the JSON; the newlines the exporter
  // emits between events are its only formatting whitespace.
  for (const char c : json) {
    if (c == '\n') continue;
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
}

TEST_F(TraceTest, ArgsTruncateToSlotSize) {
  const std::string long_value(200, 'v');
  {
    TRACE_SPAN_VAR(span, "unit", "truncate");
    span.SetArg("key", long_value);
  }
  const auto spans = Collect();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].arg_value, std::string(trace::kMaxArgValue, 'v'));
}

TEST_F(TraceTest, DumpWritesChromeTraceFile) {
  trace::RecordSpan("unit", "file_span", 5.0, 2.5, "k", "v");
  const std::string path = test::ScratchDir("trace_dump") + "/trace.json";
  std::string error;
  ASSERT_TRUE(trace::Dump(path, &error)) << error;
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"file_span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

// --- determinism probe --------------------------------------------------------
// The acceptance bar from DESIGN §10: tracing must never leak wall time
// into simulation state. Two identically seeded worlds — one traced, one
// not — must journal byte-identical events and answer search identically.

std::uint64_t JournalDigest(const storage::EventJournal& journal) {
  std::uint64_t digest = 1469598103934665603ull;
  journal.ScanAll([&](std::string_view key, std::string_view value) {
    digest = (digest ^ Fnv1a64(key)) * 1099511628211ull;
    digest = (digest ^ Fnv1a64(value)) * 1099511628211ull;
    return true;
  });
  return digest;
}

engines::WorldConfig ProbeWorld() {
  engines::WorldConfig cfg;
  cfg.universe.seed = 77;
  cfg.universe.universe_size = 1u << 14;
  cfg.universe.target_services = 800;
  cfg.with_alternatives = false;
  cfg.censys.threads = 2;
  return cfg;
}

TEST(TraceDeterminismTest, TracedRunMatchesUntracedRunExactly) {
  trace::ResetForTest();

  trace::SetEnabled(true);
  engines::World traced(ProbeWorld());
  traced.Bootstrap();
  traced.RunForDays(2.0);
  trace::SetEnabled(false);

  engines::World untraced(ProbeWorld());
  untraced.Bootstrap();
  untraced.RunForDays(2.0);

  EXPECT_GT(trace::GetStats().recorded, 0u);
  EXPECT_EQ(JournalDigest(traced.censys().journal()),
            JournalDigest(untraced.censys().journal()));
  EXPECT_EQ(traced.censys().SelfReportedCount(),
            untraced.censys().SelfReportedCount());

  traced.censys().RebuildSearchIndex();
  untraced.censys().RebuildSearchIndex();
  std::string error;
  const auto traced_hits =
      traced.censys().search_index().Search("service.protocol=http", &error);
  const auto untraced_hits = untraced.censys().search_index().Search(
      "service.protocol=http", &error);
  EXPECT_EQ(traced_hits, untraced_hits);
}

// --- 200-tick smoke -----------------------------------------------------------
// The end-to-end acceptance run: 200 ticks with tracing armed produce a
// Chrome-trace JSON covering every instrumented layer. check.sh points
// CENSYSIM_TRACE_SMOKE_OUT at a path and runs tracereport over the dump.

TEST(TraceSmokeTest, TwoHundredTickRunProducesChromeTrace) {
  trace::ResetForTest();
  engines::WorldConfig cfg;
  cfg.universe.seed = 42;
  cfg.universe.universe_size = 1u << 13;
  cfg.universe.target_services = 500;
  cfg.with_alternatives = false;
  cfg.censys.threads = 2;
  cfg.tick = Duration::Hours(1);

  trace::SetEnabled(true);
  engines::World world(cfg);
  world.Bootstrap();
  serving::ServingFrontend frontend(world.censys().read_side(),
                                    world.censys().search_index(),
                                    world.censys().analytics(),
                                    serving::ServingFrontend::Options{2});
  // 200 ticks at 1 h per tick, with serving traffic sprinkled in so the
  // serving and pipeline categories appear in the dump.
  Rng rng(42);
  std::vector<IPv4Address> hosts;
  world.censys().write_side().ForEachTracked(
      [&](const pipeline::ServiceState& state) {
        hosts.push_back(state.key.ip);
      });
  for (int chunk = 0; chunk < 10; ++chunk) {
    world.RunForDays(20.0 / 24.0);  // 20 ticks
    const auto queries = serving::ServingFrontend::MixedWorkload(
        64, hosts, {"service.protocol=http"}, {"http"}, world.now(), rng);
    frontend.Run(queries);
  }
  trace::SetEnabled(false);

  EXPECT_GE(world.censys().metrics().CounterValue("censys.engine.ticks"),
            200u);

  std::set<std::string> categories;
  trace::ForEachSpan([&](const trace::SpanView& span) {
    categories.insert(span.category);
  });
  for (const char* expected :
       {"engine", "scan", "interrogate", "pipeline", "serving", "storage"}) {
    EXPECT_TRUE(categories.contains(expected))
        << "no spans in category " << expected;
  }

  const char* env_out = std::getenv("CENSYSIM_TRACE_SMOKE_OUT");
  const std::string path =
      env_out != nullptr ? env_out
                         : test::ScratchDir("trace_smoke") + "/smoke.json";
  std::string error;
  ASSERT_TRUE(trace::Dump(path, &error)) << error;
  const trace::Stats stats = trace::GetStats();
  EXPECT_GT(stats.recorded, 1000u);
  EXPECT_GE(stats.threads, 3u);  // command thread + 2 executor workers
}

#endif  // CENSYSIM_TRACE

}  // namespace
}  // namespace censys
