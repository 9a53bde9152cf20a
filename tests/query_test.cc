// Tests for the query tier: the shared per-document matcher (must agree
// with the inverted index exactly), the standing-query registry (delta
// evaluation, universe tracking for NOT, backfill seeding, pending caps,
// push callbacks), the columnar analytics segments (round trip, strict
// decode, a parallel build byte-identical to the serial one, crash-safe
// persistence, eviction, corruption fallback to the journal walk), the
// serving frontend's kAggregate ladder rung, and the
// acceptance-criterion determinism run: pushed match streams must be
// byte-identical across engine thread counts AND identical to re-running
// the full search per tick.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "core/executor.h"
#include "core/fault.h"
#include "core/metrics.h"
#include "core/rng.h"
#include "core/types.h"
#include "engines/enrichment.h"
#include "engines/world.h"
#include "interrogate/record.h"
#include "pipeline/read_side.h"
#include "pipeline/write_side.h"
#include "query/columnar.h"
#include "query/standing.h"
#include "search/analytics.h"
#include "search/index.h"
#include "search/match.h"
#include "serving/frontend.h"
#include "simnet/blocks.h"
#include "storage/delta.h"
#include "storage/serialize.h"
#include "storage/journal.h"
#include "storage/segment_file.h"
#include "test_tmpdir.h"

namespace censys::query {
namespace {

int EnvThreads() {
  if (const char* env = std::getenv("CENSYSIM_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 4;
}

// Journal writer that tracks each entity's shadow state so tests can say
// "set this entity to exactly these fields" and get the right delta.
class TestJournal {
 public:
  storage::EventJournal& journal() { return journal_; }
  const storage::EventJournal& journal() const { return journal_; }

  void Set(const std::string& id, storage::FieldMap after,
           std::int64_t at_minutes = 0) {
    auto& before = shadow_[id];
    const storage::Delta delta = storage::ComputeDelta(before, after);
    if (delta.ops.empty()) return;
    journal_.Append(id, storage::EventKind::kEntityUpdated,
                    Timestamp{at_minutes}, delta);
    before = std::move(after);
  }

  void Clear(const std::string& id, std::int64_t at_minutes = 0) {
    Set(id, {}, at_minutes);
  }

 private:
  storage::EventJournal journal_;
  std::map<std::string, storage::FieldMap> shadow_;
};

// --------------------------------------------------------- commit observer

TEST(CommitObserverTest, AppendDeliversEventWithPostState) {
  storage::EventJournal journal;
  struct Seen {
    std::string entity;
    std::uint64_t seqno;
    storage::FieldMap post;
    std::size_t batch_size;
  };
  std::vector<Seen> seen;
  journal.SetCommitObserver(
      [&](const std::vector<storage::AppliedEvent>& batch) {
        for (const storage::AppliedEvent& ev : batch) {
          ASSERT_NE(ev.post_state, nullptr);
          seen.push_back({std::string(ev.entity_id), ev.seqno, *ev.post_state,
                          batch.size()});
        }
      });

  const storage::FieldMap a{{"k", "v"}};
  const std::uint64_t s1 = journal.Append(
      "e1", storage::EventKind::kEntityUpdated, Timestamp{1},
      storage::ComputeDelta({}, a));
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].entity, "e1");
  EXPECT_EQ(seen[0].seqno, s1);
  EXPECT_EQ(seen[0].post, a);
  EXPECT_EQ(seen[0].batch_size, 1u);

  // An empty delta is a no-op append: no journal row, no observation.
  journal.Append("e1", storage::EventKind::kEntityUpdated, Timestamp{2},
                 storage::Delta{});
  EXPECT_EQ(seen.size(), 1u);
}

TEST(CommitObserverTest, AppendBatchDeliversOneBatchInOrder) {
  storage::EventJournal journal;
  std::vector<std::pair<std::string, std::size_t>> seen;  // entity, batch size
  journal.SetCommitObserver(
      [&](const std::vector<storage::AppliedEvent>& batch) {
        for (const storage::AppliedEvent& ev : batch) {
          seen.emplace_back(std::string(ev.entity_id), batch.size());
        }
      });

  std::vector<storage::EventJournal::PendingEvent> batch;
  for (const char* id : {"a", "b", "c"}) {
    storage::EventJournal::PendingEvent ev;
    ev.entity_id = id;
    ev.at = Timestamp{5};
    ev.delta = storage::ComputeDelta({}, {{"f", id}});
    batch.push_back(std::move(ev));
  }
  journal.AppendBatch(std::move(batch));

  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<std::string, std::size_t>{"a", 3u}));
  EXPECT_EQ(seen[1], (std::pair<std::string, std::size_t>{"b", 3u}));
  EXPECT_EQ(seen[2], (std::pair<std::string, std::size_t>{"c", 3u}));
}

// ------------------------------------------------------- per-doc matcher

storage::FieldMap RandomDoc(Rng& rng) {
  static const std::vector<std::string> kNames = {"HTTP", "SSH", "FTP"};
  static const std::vector<std::string> kProducts = {
      "nginx", "apache httpd", "openssh", "mysql", "iis"};
  static const std::vector<std::string> kCountries = {"us", "de", "jp"};
  static const std::vector<std::string> kTitles = {
      "release 1.2", "admin console", "welcome page"};

  storage::FieldMap doc;
  if (rng.NextDouble() < 0.9) {
    doc["svc.80/tcp.service.name"] = kNames[rng.NextBelow(kNames.size())];
    doc["svc.80/tcp.software.product"] =
        kProducts[rng.NextBelow(kProducts.size())];
  }
  if (rng.NextDouble() < 0.7) {
    doc["location.country"] = kCountries[rng.NextBelow(kCountries.size())];
  }
  if (rng.NextDouble() < 0.5) {
    doc["svc.443/tcp.http.html_title"] = kTitles[rng.NextBelow(kTitles.size())];
  }
  return doc;
}

TEST(MatcherTest, AgreesWithInvertedIndexOnRandomCorpus) {
  search::SearchIndex index;
  std::map<std::string, storage::FieldMap> docs;
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    const storage::FieldMap doc = RandomDoc(rng);
    if (doc.empty()) continue;  // both sides skip empty docs
    const std::string id = "h" + std::to_string(i);
    index.Index(id, doc);
    docs.emplace(id, doc);
  }
  ASSERT_GT(docs.size(), 100u);

  const std::vector<std::string> kQueries = {
      "nginx",
      "apache",  // one word of a multi-word value
      "svc.80/tcp.software.product: nginx",
      "svc.80/tcp.software.product: \"apache httpd\"",
      "ngin*",
      "svc.80/tcp.service.name: htt*",
      "http AND nginx",
      "http OR ssh",
      "NOT nginx",
      "http AND NOT location.country: de",
      "\"admin console\"",
      "release AND NOT iis",
      "nosuchword",
      "location.country: fr",
  };
  for (const std::string& text : kQueries) {
    std::string error;
    const auto parsed = search::ParseQuery(text, &error);
    ASSERT_TRUE(parsed.has_value()) << text << ": " << error;

    const std::vector<std::string> via_index = index.Execute(*parsed);
    std::vector<std::string> via_matcher;
    for (const auto& [id, doc] : docs) {
      if (search::MatchesDocument(*parsed, doc)) via_matcher.push_back(id);
    }
    EXPECT_EQ(via_index, via_matcher) << "query: " << text;
  }
}

// A value of 1-4 words drawn from a pool every field shares, repeats
// allowed, so one word can sit in several fields and twice in one value.
std::string RandomValue(Rng& rng) {
  static const std::vector<std::string> kWords = {
      "nginx", "apache", "http", "ssh", "admin", "console", "release", "1.2",
      "de",    "us"};
  std::string value;
  const std::uint64_t n = 1 + rng.NextBelow(4);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (!value.empty()) value += rng.Bernoulli(0.5) ? " " : ", ";
    value += kWords[rng.NextBelow(kWords.size())];
  }
  return value;
}

// Adds, changes or drops one to three fields of `doc`.
void MutateDoc(Rng& rng, storage::FieldMap& doc) {
  static const std::vector<std::string> kFields = {
      "svc.80/tcp.service.name", "svc.80/tcp.software.product",
      "location.country", "svc.443/tcp.http.html_title",
      "svc.22/tcp.banner"};
  const std::uint64_t ops = 1 + rng.NextBelow(3);
  for (std::uint64_t i = 0; i < ops; ++i) {
    const std::string& field = kFields[rng.NextBelow(kFields.size())];
    if (doc.contains(field) && rng.Bernoulli(0.35)) {
      doc.erase(field);
    } else {
      doc[field] = RandomValue(rng);  // adds, or changes the value
    }
  }
}

TEST(MatcherTest, IncrementalIndexAgreesWithFreshIndexUnderMutations) {
  const std::vector<std::string> kQueries = {
      "nginx",
      "http AND ssh",
      "nginx OR console",
      "NOT apache",
      "svc.80/tcp.service.name: http",
      "svc.80/tcp.software.product: \"apache http\"",
      "svc.22/tcp.banner: nginx AND NOT location.country: de",
      "\"admin console\"",
      "ngin*",
      "svc.443/tcp.http.html_title: *release*",
      "location.country: us OR location.country: de",
      "1.2 AND NOT svc.22/tcp.banner: 1.2",
      "nosuchword",
  };
  std::vector<search::QueryPtr> parsed;
  for (const std::string& text : kQueries) {
    std::string error;
    const auto query = search::ParseQuery(text, &error);
    ASSERT_TRUE(query.has_value()) << text << ": " << error;
    parsed.push_back(*query);
  }

  for (const std::uint64_t seed : {3u, 17u, 29u}) {
    search::SearchIndex index;
    std::map<std::string, storage::FieldMap> docs;
    Rng rng(seed);
    for (int step = 0; step < 300; ++step) {
      const std::string id = "h" + std::to_string(rng.NextBelow(24));
      if (docs.contains(id) && rng.Bernoulli(0.1)) {
        index.Remove(id);
        docs.erase(id);
      } else {
        storage::FieldMap doc = docs[id];
        MutateDoc(rng, doc);
        // As the follower does: an emptied entity leaves the index.
        if (doc.empty()) {
          index.Remove(id);
          docs.erase(id);
        } else {
          index.Index(id, doc);
          docs[id] = doc;
        }
      }

      search::SearchIndex fresh;
      for (const auto& [doc_id, fields] : docs) fresh.Index(doc_id, fields);
      ASSERT_EQ(index.doc_count(), docs.size()) << "seed " << seed;
      ASSERT_EQ(index.term_count(), fresh.term_count())
          << "seed " << seed << " step " << step;
      for (std::size_t q = 0; q < parsed.size(); ++q) {
        std::vector<std::string> via_matcher;
        for (const auto& [doc_id, fields] : docs) {
          if (search::MatchesDocument(parsed[q], fields)) {
            via_matcher.push_back(doc_id);
          }
        }
        const std::vector<std::string> via_index = index.Execute(parsed[q]);
        ASSERT_EQ(via_index, fresh.Execute(parsed[q]))
            << "seed " << seed << " step " << step << " query "
            << kQueries[q];
        ASSERT_EQ(via_index, via_matcher)
            << "seed " << seed << " step " << step << " query "
            << kQueries[q];
      }
    }
  }
}

TEST(MatcherTest, TokenizeValueMatchesIndexTokenization) {
  EXPECT_EQ(search::TokenizeValue("Server: nginx build 1.25.3"),
            (std::vector<std::string>{"server", "nginx", "build", "1.25.3"}));
  EXPECT_EQ(search::TokenizeValue(""), std::vector<std::string>{});
  EXPECT_EQ(search::TokenizeValue("a_b-c.d e"),
            (std::vector<std::string>{"a_b-c.d", "e"}));
}

TEST(MatcherTest, CollectQueryFieldsSeparatesAnyField) {
  std::string error;
  const auto fielded =
      search::ParseQuery("a: x OR (b: y AND NOT c: z)", &error);
  ASSERT_TRUE(fielded.has_value()) << error;
  std::set<std::string> fields;
  bool any_field = false;
  search::CollectQueryFields(*fielded, &fields, &any_field);
  EXPECT_EQ(fields, (std::set<std::string>{"a", "b", "c"}));
  EXPECT_FALSE(any_field);

  const auto mixed = search::ParseQuery("a: x AND nginx", &error);
  ASSERT_TRUE(mixed.has_value()) << error;
  fields.clear();
  any_field = false;
  search::CollectQueryFields(*mixed, &fields, &any_field);
  EXPECT_EQ(fields, (std::set<std::string>{"a"}));
  EXPECT_TRUE(any_field);
}

// ------------------------------------------------------ standing queries

TEST(StandingQueryTest, RejectsMalformedExpression) {
  StandingQueryRegistry registry;
  std::string error;
  EXPECT_FALSE(registry.Register("bad", "(((", &error).has_value());
  EXPECT_FALSE(error.empty());
  // A null error out-param must not crash on malformed input.
  EXPECT_FALSE(registry.Register("bad2", "AND AND", nullptr).has_value());
  EXPECT_EQ(registry.query_count(), 0u);
}

TEST(StandingQueryTest, EnterAndLeaveTransitions) {
  TestJournal tj;
  StandingQueryRegistry registry;
  metrics::Registry metrics;
  registry.BindMetrics(&metrics);
  tj.journal().SetCommitObserver(
      [&](const std::vector<storage::AppliedEvent>& batch) {
        registry.OnCommit(batch);
      });

  std::string error;
  const auto id = registry.Register(
      "http80", "svc.80/tcp.service.name: http", &error);
  ASSERT_TRUE(id.has_value()) << error;
  EXPECT_EQ(metrics.GaugeValue("censys.query.standing.registered"), 1);

  tj.Set("1.2.3.4", {{"svc.80/tcp.service.name", "HTTP"}}, 10);
  auto events = registry.Drain(*id);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, MatchEvent::Kind::kEnter);
  EXPECT_EQ(events[0].entity_id, "1.2.3.4");
  EXPECT_EQ(events[0].at.minutes, 10);
  EXPECT_EQ(events[0].ToString(),
            "q" + std::to_string(*id) + " + 1.2.3.4 #" +
                std::to_string(events[0].seqno) + " @10");

  // Touching an unrelated field changes nothing.
  tj.Set("1.2.3.4",
         {{"svc.80/tcp.service.name", "HTTP"}, {"location.country", "de"}},
         20);
  EXPECT_TRUE(registry.Drain(*id).empty());

  // Flipping the matched field away emits a leave...
  tj.Set("1.2.3.4",
         {{"svc.80/tcp.service.name", "SSH"}, {"location.country", "de"}},
         30);
  events = registry.Drain(*id);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, MatchEvent::Kind::kLeave);

  // ...and back re-enters.
  tj.Set("1.2.3.4",
         {{"svc.80/tcp.service.name", "HTTP"}, {"location.country", "de"}},
         40);
  events = registry.Drain(*id);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, MatchEvent::Kind::kEnter);
  EXPECT_EQ(registry.MatchedEntities(*id),
            std::vector<std::string>{"1.2.3.4"});
  EXPECT_GE(metrics.CounterValue("censys.query.standing.events"), 3u);
  EXPECT_GE(metrics.CounterValue("censys.query.standing.evals"), 3u);
}

TEST(StandingQueryTest, NotQueryTracksUniverseMembership) {
  TestJournal tj;
  StandingQueryRegistry registry;
  tj.journal().SetCommitObserver(
      [&](const std::vector<storage::AppliedEvent>& batch) {
        registry.OnCommit(batch);
      });

  std::string error;
  const auto id = registry.Register("notred", "NOT color: red", &error);
  ASSERT_TRUE(id.has_value()) << error;

  // A brand-new entity whose delta never touches `color` must still enter
  // (NOT is evaluated against the non-empty-entity universe).
  tj.Set("a", {{"shape", "square"}}, 1);
  auto events = registry.Drain(*id);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, MatchEvent::Kind::kEnter);

  // Turning red leaves; ceasing to be red re-enters.
  tj.Set("a", {{"shape", "square"}, {"color", "red"}}, 2);
  events = registry.Drain(*id);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, MatchEvent::Kind::kLeave);
  tj.Set("a", {{"shape", "square"}, {"color", "blue"}}, 3);
  events = registry.Drain(*id);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, MatchEvent::Kind::kEnter);

  // Emptying the entity drops it from the universe: it stops matching
  // even though its (empty) state trivially "isn't red".
  tj.Clear("a", 4);
  events = registry.Drain(*id);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, MatchEvent::Kind::kLeave);
  EXPECT_TRUE(registry.MatchedEntities(*id).empty());
}

TEST(StandingQueryTest, BackfillSeedsSilently) {
  TestJournal tj;
  tj.Set("m1", {{"svc.80/tcp.service.name", "HTTP"}}, 1);
  tj.Set("m2", {{"svc.80/tcp.service.name", "HTTP"}}, 1);
  tj.Set("x1", {{"svc.80/tcp.service.name", "SSH"}}, 1);

  StandingQueryRegistry registry;
  std::string error;
  const auto id = registry.Register("http", "svc.80/tcp.service.name: http",
                                    &error, &tj.journal());
  ASSERT_TRUE(id.has_value()) << error;
  // Already-matching entities are seeded, not flooded as kEnter events.
  EXPECT_TRUE(registry.Drain(*id).empty());
  EXPECT_EQ(registry.MatchedEntities(*id),
            (std::vector<std::string>{"m1", "m2"}));

  // Post-registration transitions do produce events.
  tj.journal().SetCommitObserver(
      [&](const std::vector<storage::AppliedEvent>& batch) {
        registry.OnCommit(batch);
      });
  tj.Set("m1", {{"svc.80/tcp.service.name", "SSH"}}, 2);
  const auto events = registry.Drain(*id);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, MatchEvent::Kind::kLeave);
  EXPECT_EQ(events[0].entity_id, "m1");
}

TEST(StandingQueryTest, PendingCapDropsOldest) {
  TestJournal tj;
  StandingQueryRegistry registry(StandingQueryRegistry::Options{
      .max_pending = 2});
  tj.journal().SetCommitObserver(
      [&](const std::vector<storage::AppliedEvent>& batch) {
        registry.OnCommit(batch);
      });
  std::string error;
  const auto id = registry.Register("all", "tag: hot", &error);
  ASSERT_TRUE(id.has_value()) << error;

  for (int i = 0; i < 5; ++i) {
    tj.Set("e" + std::to_string(i), {{"tag", "hot"}}, i);
  }
  EXPECT_EQ(registry.dropped(*id), 3u);
  const auto events = registry.Drain(*id);
  ASSERT_EQ(events.size(), 2u);
  // The survivors are the newest two, still in commit order.
  EXPECT_EQ(events[0].entity_id, "e3");
  EXPECT_EQ(events[1].entity_id, "e4");
}

TEST(StandingQueryTest, CallbackMirrorsPendingQueue) {
  TestJournal tj;
  StandingQueryRegistry registry;
  tj.journal().SetCommitObserver(
      [&](const std::vector<storage::AppliedEvent>& batch) {
        registry.OnCommit(batch);
      });

  std::vector<MatchEvent> pushed;
  std::string error;
  const auto id = registry.Register(
      "cb", "tag: hot", &error, nullptr,
      [&pushed](const MatchEvent& ev) { pushed.push_back(ev); });
  ASSERT_TRUE(id.has_value()) << error;

  tj.Set("a", {{"tag", "hot"}}, 1);
  tj.Set("b", {{"tag", "hot"}}, 2);
  tj.Set("a", {{"tag", "cold"}}, 3);

  const auto drained = registry.Drain(*id);
  EXPECT_EQ(pushed, drained);
  ASSERT_EQ(pushed.size(), 3u);
  EXPECT_EQ(pushed[2].kind, MatchEvent::Kind::kLeave);
}

TEST(StandingQueryTest, UnregisterStopsDelivery) {
  TestJournal tj;
  StandingQueryRegistry registry;
  tj.journal().SetCommitObserver(
      [&](const std::vector<storage::AppliedEvent>& batch) {
        registry.OnCommit(batch);
      });
  std::string error;
  const auto id = registry.Register("q", "tag: hot", &error);
  ASSERT_TRUE(id.has_value()) << error;
  EXPECT_TRUE(registry.Unregister(*id));
  EXPECT_FALSE(registry.Unregister(*id));
  EXPECT_EQ(registry.query_count(), 0u);

  tj.Set("a", {{"tag", "hot"}}, 1);  // must not crash or deliver
  EXPECT_TRUE(registry.Drain(*id).empty());
  EXPECT_EQ(registry.dropped(*id), 0u);
}

// --------------------------------------------- standing-query determinism

// The acceptance-criterion run: a full engine world with standing queries
// attached to the journal's commit observer. The pushed match streams
// must be byte-identical across engine thread counts, and the registry's
// matched set must equal a from-scratch index search after every tick.
struct StandingRun {
  std::map<std::string, std::string> streams;  // expression -> event log
};

const std::vector<std::string>& StandingExpressions() {
  static const std::vector<std::string> kExprs = {
      "http",
      "NOT http",
      "ssh OR ftp",
  };
  return kExprs;
}

StandingRun RunStandingWorld(int threads) {
  engines::WorldConfig cfg;
  cfg.universe.seed = 42;
  cfg.universe.universe_size = 1u << 14;
  cfg.universe.target_services = 1200;
  cfg.universe.ics_scale = 32;
  cfg.with_alternatives = false;
  cfg.censys.threads = threads;
  engines::World world(cfg);

  StandingQueryRegistry registry;
  std::vector<std::pair<std::string, StandingQueryId>> ids;
  for (const std::string& expr : StandingExpressions()) {
    std::string error;
    const auto id =
        registry.Register(expr, expr, &error, &world.censys().journal());
    EXPECT_TRUE(id.has_value()) << expr << ": " << error;
    ids.emplace_back(expr, *id);
  }
  world.censys().journal().SetCommitObserver(
      [&registry](const std::vector<storage::AppliedEvent>& batch) {
        registry.OnCommit(batch);
      });

  StandingRun out;
  world.Bootstrap();
  for (int tick = 0; tick < 12; ++tick) {
    world.RunUntil(world.now() + world.config().tick);
    for (const auto& [expr, id] : ids) {
      std::string& stream = out.streams[expr];
      for (const MatchEvent& ev : registry.Drain(id)) {
        stream += ev.ToString();
        stream += '\n';
      }
    }
    // Oracle: the incrementally maintained matched set must equal
    // re-running the search from scratch at this tick.
    world.censys().RebuildSearchIndex();
    for (const auto& [expr, id] : ids) {
      std::string error;
      const auto oracle = world.censys().search_index().Search(expr, &error);
      EXPECT_EQ(registry.MatchedEntities(id), oracle)
          << "tick " << tick << " expr " << expr << " threads " << threads;
    }
  }
  return out;
}

TEST(StandingDeterminismTest, StreamsByteIdenticalAcrossThreadCounts) {
  const StandingRun serial = RunStandingWorld(0);
  const StandingRun threaded = RunStandingWorld(EnvThreads());

  // The world journals real traffic: the streams must not be vacuous.
  ASSERT_FALSE(serial.streams.at("http").empty());
  for (const std::string& expr : StandingExpressions()) {
    EXPECT_EQ(serial.streams.at(expr), threaded.streams.at(expr))
        << "stream diverged for " << expr;
  }
}

// ------------------------------------------------------ columnar segments

void FillColumnarJournal(TestJournal& tj) {
  tj.Set("10.0.0.1", {{"svc.80/tcp.service.name", "HTTP"},
                      {"svc.80/tcp.software.product", "nginx"},
                      {"location.country", "us"}});
  tj.Set("10.0.0.2", {{"svc.80/tcp.service.name", "HTTP"},
                      {"svc.443/tcp.service.name", "HTTP"},
                      {"location.country", "de"}});
  tj.Set("10.0.0.3", {{"svc.22/tcp.service.name", "SSH"},
                      {"location.country", "us"}});
  tj.Set("10.0.0.4", {{"svc.80/tcp.service.name", "HTTP"},
                      {"svc.80/tcp.software.product", "nginx"}});
  // An emptied entity must vanish from the segment universe.
  tj.Set("10.0.0.5", {{"svc.80/tcp.service.name", "FTP"}});
  tj.Clear("10.0.0.5");
}

// A one-chunk build on the calling thread.
ColumnSegment BuildInline(const storage::EventJournal& journal,
                          std::int64_t day) {
  Executor inline_executor(0);
  return BuildSegment(journal, day, inline_executor, 1);
}

// The single-threaded builder BuildSegment replaced, kept here as the
// oracle of the parallel one: copy every non-empty state, sort the rows by
// id, and stream each field's cells into a first-appearance dictionary
// and maximal runs.
ColumnSegment ReferenceSegment(const storage::EventJournal& journal,
                               std::int64_t day) {
  std::vector<std::pair<std::string, storage::FieldMap>> rows;
  journal.ForEachEntity(
      [&](std::string_view entity, const storage::FieldMap& fields) {
        if (!fields.empty()) rows.emplace_back(std::string(entity), fields);
      });
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  struct Builder {
    std::vector<std::string> dict;
    std::map<std::string, std::uint32_t> ids;
    std::vector<ColumnSegment::Run> runs;
    std::uint32_t filled = 0;
    void Extend(std::uint32_t id, std::uint32_t length) {
      if (length == 0) return;
      if (!runs.empty() && runs.back().value == id) {
        runs.back().length += length;
      } else {
        runs.push_back({id, length});
      }
      filled += length;
    }
  };
  ColumnSegment segment;
  segment.day = day;
  std::map<std::string, Builder> builders;
  for (std::uint32_t row = 0; row < rows.size(); ++row) {
    segment.row_ids.push_back(rows[row].first);
    for (const auto& [field, value] : rows[row].second) {
      Builder& b = builders[field];
      if (row > b.filled) b.Extend(0, row - b.filled);
      const auto [it, inserted] =
          b.ids.emplace(value, static_cast<std::uint32_t>(b.dict.size()) + 1);
      if (inserted) b.dict.push_back(value);
      b.Extend(it->second, 1);
    }
  }
  for (auto& [field, b] : builders) {
    b.Extend(0, static_cast<std::uint32_t>(rows.size()) - b.filled);
    segment.columns.push_back({field, std::move(b.dict), std::move(b.runs)});
  }
  return segment;
}

// A seeded journal of `entities` hosts: a low-cardinality column, a column
// with more distinct values than any small dictionary, sparse per-port
// columns, hosts emptied or stripped of fields by later events, and a
// column only the last host carries.
void FillSeededJournal(TestJournal& tj, std::uint64_t seed, int entities) {
  Rng rng(seed);
  std::vector<std::string> ids;
  for (int e = 0; e < entities; ++e) {
    char id[16];
    std::snprintf(id, sizeof(id), "h%05d", e);
    ids.emplace_back(id);
    storage::FieldMap fields;
    fields["country"] = "c" + std::to_string(rng.NextBelow(3));
    if (rng.Bernoulli(0.8)) {
      fields["banner"] = "b" + std::to_string(rng.NextBelow(40));
    }
    for (int port = 0; port < 12; ++port) {
      if (rng.Bernoulli(0.15)) {
        fields["svc." + std::to_string(port) + ".name"] =
            "s" + std::to_string(rng.NextBelow(4));
      }
    }
    tj.Set(id, std::move(fields));
  }
  for (const std::string& id : ids) {
    const std::uint64_t roll = rng.NextBelow(10);
    if (roll == 0) {
      tj.Clear(id);
    } else if (roll == 1) {
      tj.Set(id, {{"country", "c9"}});
    }
  }
  tj.Set(ids.back(), {{"country", "c0"}, {"tail.only", "last"}});
}

TEST(ColumnSegmentTest, ParallelBuildIsByteIdentical) {
  TestJournal empty;
  TestJournal fixed;
  FillColumnarJournal(fixed);
  TestJournal small;
  FillSeededJournal(small, 7, 40);
  TestJournal large;
  FillSeededJournal(large, 11, 600);
  Executor inline_executor(0);
  Executor threads(3);
  for (const TestJournal* tj : {&empty, &fixed, &small, &large}) {
    const std::string want = ReferenceSegment(tj->journal(), 5).Encode();
    for (Executor* executor : {&inline_executor, &threads}) {
      for (const std::size_t chunks : {1, 2, 3, 7, 64}) {
        EXPECT_EQ(BuildSegment(tj->journal(), 5, *executor, chunks).Encode(),
                  want)
            << "chunks " << chunks << " threads "
            << executor->thread_count();
      }
    }
  }
  // The seeded journals exercise what the merge must get right.
  const ColumnSegment segment = ReferenceSegment(large.journal(), 5);
  EXPECT_LT(segment.row_ids.size(), 600u);  // some hosts were emptied
  auto column = [&](std::string_view field) {
    return *std::find_if(
        segment.columns.begin(), segment.columns.end(),
        [&](const ColumnSegment::Column& c) { return c.field == field; });
  };
  EXPECT_GT(column("banner").dict.size(), 16u);
  EXPECT_EQ(column("tail.only").runs.size(), 2u);  // absent, then the last
  EXPECT_EQ(ReferenceSegment(empty.journal(), 5).row_ids.size(), 0u);
  EXPECT_LT(ReferenceSegment(small.journal(), 5).row_ids.size(), 64u);
}

// The one-pass CSG1 encoder ColumnSegment::Encode replaced, kept as the
// oracle of the ranged one.
std::string ReferenceEncode(const ColumnSegment& segment) {
  std::string out = "CSG1";
  storage::PutVarint(out, static_cast<std::uint64_t>(segment.day));
  storage::PutVarint(out, segment.row_ids.size());
  for (const std::string& id : segment.row_ids) {
    storage::PutLengthPrefixed(out, id);
  }
  storage::PutVarint(out, segment.columns.size());
  for (const ColumnSegment::Column& column : segment.columns) {
    storage::PutLengthPrefixed(out, column.field);
    storage::PutVarint(out, column.dict.size());
    for (const std::string& value : column.dict) {
      storage::PutLengthPrefixed(out, value);
    }
    storage::PutVarint(out, column.runs.size());
    for (const ColumnSegment::Run& run : column.runs) {
      storage::PutVarint(out, run.value);
      storage::PutVarint(out, run.length);
    }
  }
  return out;
}

// Encode cuts the row ids and the columns into ranges, encodes them on the
// executor and joins them: the bytes must not depend on the thread count,
// including a segment with rows but no columns and one with neither.
TEST(ColumnSegmentTest, ParallelEncodeIsByteIdentical) {
  TestJournal empty;
  TestJournal fixed;
  FillColumnarJournal(fixed);
  TestJournal large;
  FillSeededJournal(large, 11, 600);
  ColumnSegment rows_only;
  rows_only.day = 2;
  rows_only.row_ids = {"a", "b", "c"};
  std::vector<ColumnSegment> segments = {ReferenceSegment(empty.journal(), 5),
                                         ReferenceSegment(fixed.journal(), 3),
                                         ReferenceSegment(large.journal(), 5),
                                         rows_only};
  Executor inline_executor(0);
  Executor one(1);
  Executor three(3);
  for (const ColumnSegment& segment : segments) {
    const std::string want = ReferenceEncode(segment);
    EXPECT_EQ(segment.Encode(), want);
    for (Executor* executor : {&inline_executor, &one, &three}) {
      EXPECT_EQ(segment.Encode(*executor), want)
          << "threads " << executor->thread_count() << " rows "
          << segment.row_ids.size();
    }
  }
}

// The CSG1 bytes of FillColumnarJournal's day-3 segment, pinned: the
// on-disk format must not drift with the builder.
TEST(ColumnSegmentTest, GoldenBytes) {
  TestJournal tj;
  FillColumnarJournal(tj);
  EXPECT_EQ(
      BuildInline(tj.journal(), 3).Encode(),
      std::string(
          "\x43\x53\x47\x31\x03\x04\x08\x31\x30\x2e\x30\x2e\x30\x2e"
          "\x31\x08\x31\x30\x2e\x30\x2e\x30\x2e\x32\x08\x31\x30\x2e"
          "\x30\x2e\x30\x2e\x33\x08\x31\x30\x2e\x30\x2e\x30\x2e\x34"
          "\x05\x10\x6c\x6f\x63\x61\x74\x69\x6f\x6e\x2e\x63\x6f\x75"
          "\x6e\x74\x72\x79\x02\x02\x75\x73\x02\x64\x65\x04\x01\x01"
          "\x02\x01\x01\x01\x00\x01\x17\x73\x76\x63\x2e\x32\x32\x2f"
          "\x74\x63\x70\x2e\x73\x65\x72\x76\x69\x63\x65\x2e\x6e\x61"
          "\x6d\x65\x01\x03\x53\x53\x48\x03\x00\x02\x01\x01\x00\x01"
          "\x18\x73\x76\x63\x2e\x34\x34\x33\x2f\x74\x63\x70\x2e\x73"
          "\x65\x72\x76\x69\x63\x65\x2e\x6e\x61\x6d\x65\x01\x04\x48"
          "\x54\x54\x50\x03\x00\x01\x01\x01\x00\x02\x17\x73\x76\x63"
          "\x2e\x38\x30\x2f\x74\x63\x70\x2e\x73\x65\x72\x76\x69\x63"
          "\x65\x2e\x6e\x61\x6d\x65\x01\x04\x48\x54\x54\x50\x03\x01"
          "\x02\x00\x01\x01\x01\x1b\x73\x76\x63\x2e\x38\x30\x2f\x74"
          "\x63\x70\x2e\x73\x6f\x66\x74\x77\x61\x72\x65\x2e\x70\x72"
          "\x6f\x64\x75\x63\x74\x01\x05\x6e\x67\x69\x6e\x78\x03\x01"
          "\x01\x00\x02\x01\x01",
          229));
}

TEST(ColumnSegmentTest, EncodeDecodeRoundTrip) {
  TestJournal tj;
  FillColumnarJournal(tj);
  const ColumnSegment segment = BuildInline(tj.journal(), 7);
  EXPECT_EQ(segment.day, 7);
  ASSERT_EQ(segment.row_ids.size(), 4u);  // .5 was emptied
  EXPECT_TRUE(std::is_sorted(segment.row_ids.begin(), segment.row_ids.end()));

  const std::string encoded = segment.Encode();
  const auto decoded = ColumnSegment::Decode(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->Encode(), encoded);  // canonical form is stable
  EXPECT_EQ(decoded->day, 7);
  EXPECT_EQ(decoded->row_ids, segment.row_ids);
  ASSERT_EQ(decoded->columns.size(), segment.columns.size());

  // Every column's runs tile the row count.
  for (const ColumnSegment::Column& column : decoded->columns) {
    std::uint64_t covered = 0;
    for (const ColumnSegment::Run& run : column.runs) covered += run.length;
    EXPECT_EQ(covered, decoded->row_ids.size()) << column.field;
  }
}

TEST(ColumnSegmentTest, DecodeRejectsStructuralCorruption) {
  TestJournal tj;
  FillColumnarJournal(tj);
  ColumnSegment segment = BuildInline(tj.journal(), 7);
  const std::string encoded = segment.Encode();

  // Every strict prefix is invalid (truncation can never mis-aggregate).
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    EXPECT_FALSE(ColumnSegment::Decode(encoded.substr(0, i)).has_value())
        << "prefix " << i;
  }
  // Trailing garbage and a damaged magic are invalid.
  EXPECT_FALSE(ColumnSegment::Decode(encoded + "x").has_value());
  std::string bad_magic = encoded;
  bad_magic[0] ^= 0x01;
  EXPECT_FALSE(ColumnSegment::Decode(bad_magic).has_value());

  // Unsorted rows are rejected.
  ColumnSegment unsorted = segment;
  std::swap(unsorted.row_ids[0], unsorted.row_ids[1]);
  EXPECT_FALSE(ColumnSegment::Decode(unsorted.Encode()).has_value());

  // Run lengths that disagree with the row count are rejected.
  ColumnSegment overlong = segment;
  ASSERT_FALSE(overlong.columns.empty());
  overlong.columns[0].runs[0].length += 1;
  EXPECT_FALSE(ColumnSegment::Decode(overlong.Encode()).has_value());

  // Out-of-range dictionary ids are rejected.
  ColumnSegment bad_dict = segment;
  bad_dict.columns[0].runs[0].value =
      static_cast<std::uint32_t>(bad_dict.columns[0].dict.size()) + 1;
  EXPECT_FALSE(ColumnSegment::Decode(bad_dict.Encode()).has_value());
}

TEST(AnalyticsTierTest, SegmentAggregatesMatchJournalWalkExactly) {
  TestJournal tj;
  FillColumnarJournal(tj);
  AnalyticsTier tier(tj.journal(), {});  // in-memory only
  std::string error;
  ASSERT_TRUE(tier.BuildDay(3, &error)) << error;

  // Exact-field host counts.
  const auto seg = tier.GroupCount(3, "svc.80/tcp.service.name");
  EXPECT_TRUE(seg.from_segment);
  EXPECT_EQ(seg.day, 3);
  EXPECT_EQ(seg.rows, 4u);
  EXPECT_EQ(seg.groups,
            (std::map<std::string, std::uint64_t>{{"HTTP", 3}}));
  const auto walk = tier.WalkJournal("svc.80/tcp.service.name");
  EXPECT_FALSE(walk.from_segment);
  EXPECT_EQ(walk.groups, seg.groups);
  EXPECT_EQ(walk.rows, seg.rows);

  // Suffix service counts: (host, field) pairs, so 10.0.0.2 counts twice.
  const auto seg_sfx = tier.GroupCountSuffix(3, ".service.name");
  EXPECT_TRUE(seg_sfx.from_segment);
  EXPECT_EQ(seg_sfx.groups, (std::map<std::string, std::uint64_t>{
                                {"HTTP", 4}, {"SSH", 1}}));
  EXPECT_EQ(tier.WalkJournalSuffix(".service.name").groups, seg_sfx.groups);

  // Absent field: zero groups, full row scan, still from the segment.
  const auto none = tier.GroupCount(3, "no.such.field");
  EXPECT_TRUE(none.from_segment);
  EXPECT_TRUE(none.groups.empty());
  EXPECT_EQ(none.rows, 4u);
}

TEST(AnalyticsTierTest, StalenessServesNewestSegmentAtOrBefore) {
  TestJournal tj;
  FillColumnarJournal(tj);
  metrics::Registry metrics;
  AnalyticsTier tier(tj.journal(), {});
  tier.BindMetrics(&metrics);
  std::string error;
  ASSERT_TRUE(tier.BuildDay(3, &error)) << error;

  // Day 5 is answered by the day-3 segment (stale but labeled).
  const auto agg = tier.GroupCount(5, "location.country");
  EXPECT_TRUE(agg.from_segment);
  EXPECT_EQ(agg.day, 3);

  // Day 2 predates every segment: journal-walk fallback, not corruption.
  const auto early = tier.GroupCount(2, "location.country");
  EXPECT_FALSE(early.from_segment);
  EXPECT_EQ(early.groups, tier.WalkJournal("location.country").groups);
  EXPECT_EQ(metrics.CounterValue("censys.query.fallback_walks"), 1u);
  EXPECT_EQ(metrics.CounterValue("censys.query.segment_corrupt"), 0u);
  EXPECT_EQ(metrics.CounterValue("censys.query.segments_built"), 1u);
  EXPECT_EQ(tier.CachedDays(), std::vector<std::int64_t>{3});
}

TEST(AnalyticsTierTest, SegmentsPersistAcrossInstances) {
  TestJournal tj;
  FillColumnarJournal(tj);
  const std::string dir = test::ScratchDir("query_segments");
  {
    AnalyticsTier writer(tj.journal(), {.dir = dir});
    std::string error;
    ASSERT_TRUE(writer.BuildDay(3, &error)) << error;
    ASSERT_TRUE(storage::SegmentFileExists(writer.SegmentPath(3)));
  }
  AnalyticsTier reader(tj.journal(), {.dir = dir});
  const auto agg = reader.GroupCount(3, "svc.80/tcp.service.name");
  EXPECT_TRUE(agg.from_segment);
  EXPECT_EQ(agg.groups, (std::map<std::string, std::uint64_t>{{"HTTP", 3}}));
  // The reload is cached: a second scan needs no directory probe.
  EXPECT_EQ(reader.CachedDays(), std::vector<std::int64_t>{3});
}

TEST(AnalyticsTierTest, PersistedTierKeepsOnlyTheNewestDayInMemory) {
  TestJournal tj;
  FillColumnarJournal(tj);
  const std::string dir = test::ScratchDir("query_segments_evict");
  AnalyticsTier tier(tj.journal(), {.dir = dir});
  std::string error;
  ASSERT_TRUE(tier.BuildDay(3, &error)) << error;
  tj.Set("10.0.0.6", {{"svc.80/tcp.service.name", "HTTP"}});
  ASSERT_TRUE(tier.BuildDay(4, &error)) << error;
  EXPECT_EQ(tier.CachedDays(), std::vector<std::int64_t>{4});

  // The evicted day reloads from disk, still answering as of day 3.
  const auto day3 = tier.GroupCount(3, "svc.80/tcp.service.name");
  EXPECT_TRUE(day3.from_segment);
  EXPECT_EQ(day3.day, 3);
  EXPECT_EQ(day3.groups, (std::map<std::string, std::uint64_t>{{"HTTP", 3}}));

  // A day between two built ones is answered by the newest earlier day,
  // though that day is no longer in memory.
  ASSERT_TRUE(tier.BuildDay(6, &error)) << error;
  EXPECT_EQ(tier.CachedDays(), std::vector<std::int64_t>{6});
  const auto day5 = tier.GroupCount(5, "svc.80/tcp.service.name");
  EXPECT_TRUE(day5.from_segment);
  EXPECT_EQ(day5.day, 4);
  EXPECT_EQ(day5.groups, (std::map<std::string, std::uint64_t>{{"HTTP", 4}}));
  EXPECT_EQ(tier.CachedDays(), (std::vector<std::int64_t>{4, 6}));

  // An in-memory tier keeps every day: nothing else holds its segments.
  AnalyticsTier memory(tj.journal(), {});
  ASSERT_TRUE(memory.BuildDay(3, &error)) << error;
  ASSERT_TRUE(memory.BuildDay(4, &error)) << error;
  EXPECT_EQ(memory.CachedDays(), (std::vector<std::int64_t>{3, 4}));
}

// ------------------------------------------------- corruption fallback

// The satellite's contract: a segment damaged at write or read time is
// detected (CRC frame or strict decode), counted in
// censys.query.segment_corrupt, and the aggregate falls back to the live
// journal walk — the answer is NEVER wrong, only slower.
class SegmentCorruptionTest : public ::testing::Test {
 protected:
  SegmentCorruptionTest() { FillColumnarJournal(tj_); }

  // Builds day 3's segment on disk under an optional write-fault plan.
  std::string BuildDir(const char* name, std::vector<fault::Rule> rules) {
    const std::string dir = test::ScratchDir(name);
    AnalyticsTier writer(tj_.journal(), {.dir = dir});
    std::string error;
    if (rules.empty()) {
      EXPECT_TRUE(writer.BuildDay(3, &error)) << error;
    } else {
      const fault::ScopedPlan plan(11, std::move(rules));
      EXPECT_TRUE(writer.BuildDay(3, &error)) << error;
    }
    return dir;
  }

  // Asserts a fresh tier over `dir` detects the damage and falls back to
  // a correct walk answer.
  void ExpectDetectedAndCorrect(const std::string& dir) {
    metrics::Registry metrics;
    AnalyticsTier reader(tj_.journal(), {.dir = dir});
    reader.BindMetrics(&metrics);
    const auto agg = reader.GroupCount(3, "svc.80/tcp.service.name");
    EXPECT_FALSE(agg.from_segment);
    EXPECT_EQ(agg.groups,
              reader.WalkJournal("svc.80/tcp.service.name").groups);
    EXPECT_GE(metrics.CounterValue("censys.query.segment_corrupt"), 1u);
    EXPECT_GE(metrics.CounterValue("censys.query.fallback_walks"), 1u);
  }

  TestJournal tj_;
};

TEST_F(SegmentCorruptionTest, BitFlipAtWriteFallsBackToWalk) {
  // A silent media bit-flip: the damaged frame lands and renames cleanly;
  // only the CRC (or strict decode) catches it at read time.
  fault::Rule rule;
  rule.point = "storage.segment.write";
  rule.mode = fault::Mode::kBitFlip;
  ExpectDetectedAndCorrect(BuildDir("seg_bitflip_write", {rule}));
}

TEST_F(SegmentCorruptionTest, TornTailAtWriteFallsBackToWalk) {
  fault::Rule rule;
  rule.point = "storage.segment.write";
  rule.mode = fault::Mode::kTornWrite;
  ExpectDetectedAndCorrect(BuildDir("seg_torn_write", {rule}));
}

TEST_F(SegmentCorruptionTest, BitFlipAtReadIsTransient) {
  const std::string dir = BuildDir("seg_bitflip_read", {});
  metrics::Registry metrics;
  AnalyticsTier reader(tj_.journal(), {.dir = dir});
  reader.BindMetrics(&metrics);
  {
    fault::Rule rule;
    rule.point = "storage.segment.read";
    rule.mode = fault::Mode::kBitFlip;
    const fault::ScopedPlan plan(13, {rule});
    const auto agg = reader.GroupCount(3, "svc.80/tcp.service.name");
    EXPECT_FALSE(agg.from_segment);
    EXPECT_EQ(agg.groups,
              reader.WalkJournal("svc.80/tcp.service.name").groups);
    EXPECT_GE(metrics.CounterValue("censys.query.segment_corrupt"), 1u);
  }
  // The file itself is fine: once the fault clears, reads recover and the
  // segment serves again (nothing poisoned the cache).
  const auto healthy = reader.GroupCount(3, "svc.80/tcp.service.name");
  EXPECT_TRUE(healthy.from_segment);
  EXPECT_EQ(healthy.groups,
            (std::map<std::string, std::uint64_t>{{"HTTP", 3}}));
}

TEST_F(SegmentCorruptionTest, ReadErrorCountsAndFallsBack) {
  const std::string dir = BuildDir("seg_read_error", {});
  fault::Rule rule;
  rule.point = "storage.segment.read";
  rule.mode = fault::Mode::kErrorReturn;
  const fault::ScopedPlan plan(17, {rule});
  ExpectDetectedAndCorrect(dir);
}

TEST_F(SegmentCorruptionTest, WriteErrorFailsBuildCleanly) {
  const std::string dir = test::ScratchDir("seg_write_error");
  AnalyticsTier tier(tj_.journal(), {.dir = dir});
  fault::Rule rule;
  rule.point = "storage.segment.write";
  rule.mode = fault::Mode::kErrorReturn;
  {
    const fault::ScopedPlan plan(19, {rule});
    std::string error;
    EXPECT_FALSE(tier.BuildDay(3, &error));
    EXPECT_FALSE(error.empty());
  }
  // A failed build caches nothing and leaves no segment behind.
  EXPECT_TRUE(tier.CachedDays().empty());
  EXPECT_FALSE(storage::SegmentFileExists(tier.SegmentPath(3)));
  const auto agg = tier.GroupCount(3, "location.country");
  EXPECT_FALSE(agg.from_segment);
  EXPECT_EQ(agg.groups, tier.WalkJournal("location.country").groups);
}

TEST_F(SegmentCorruptionTest, CrashAtWriteLeavesNoVisibleSegment) {
  const std::string dir = test::ScratchDir("seg_write_crash");
  AnalyticsTier tier(tj_.journal(), {.dir = dir});
  fault::Rule rule;
  rule.point = "storage.segment.write";
  rule.mode = fault::Mode::kCrash;
  bool crashed = false;
  {
    const fault::ScopedPlan plan(23, {rule});
    std::string error;
    try {
      tier.BuildDay(3, &error);
    } catch (const fault::CrashException&) {
      crashed = true;
    }
  }
  EXPECT_TRUE(crashed);
  // tmp+rename: the crash never publishes a partial segment.
  EXPECT_FALSE(storage::SegmentFileExists(tier.SegmentPath(3)));
  EXPECT_TRUE(tier.CachedDays().empty());
}

TEST(CommitObserverTest, ObserversRunInRegistrationOrder) {
  storage::EventJournal journal;
  std::vector<std::pair<int, std::size_t>> calls;  // observer, batch size
  for (const int observer : {1, 2}) {
    journal.SetCommitObserver(
        [&calls, observer](const std::vector<storage::AppliedEvent>& batch) {
          calls.emplace_back(observer, batch.size());
        });
  }

  journal.Append("e1", storage::EventKind::kEntityUpdated, Timestamp{1},
                 storage::ComputeDelta({}, {{"k", "v"}}));
  std::vector<storage::EventJournal::PendingEvent> batch(2);
  batch[0].entity_id = "e2";
  batch[0].delta = storage::ComputeDelta({}, {{"k", "a"}});
  batch[1].entity_id = "e3";
  batch[1].delta = storage::ComputeDelta({}, {{"k", "b"}});
  journal.AppendBatch(std::move(batch));

  const std::vector<std::pair<int, std::size_t>> want = {
      {1, 1u}, {2, 1u}, {1, 2u}, {2, 2u}};
  EXPECT_EQ(calls, want);
}

TEST(CommitObserverTest, ApplyReplicatedDeliversAOneEventBatch) {
  storage::EventJournal journal;
  struct Seen {
    std::string entity;
    std::uint64_t seqno;
    storage::EventKind kind;
    storage::FieldMap post;
    std::size_t batch_size;
  };
  std::vector<Seen> seen;
  journal.SetCommitObserver(
      [&](const std::vector<storage::AppliedEvent>& batch) {
        for (const storage::AppliedEvent& ev : batch) {
          ASSERT_NE(ev.post_state, nullptr);
          seen.push_back({std::string(ev.entity_id), ev.seqno, ev.kind,
                          *ev.post_state, batch.size()});
        }
      });

  storage::WalRecord record;
  record.lsn = 1;
  record.entity = "e1";
  record.kind = static_cast<std::uint8_t>(storage::EventKind::kServiceFound);
  record.at = Timestamp{3};
  record.delta = storage::ComputeDelta({}, {{"a", "1"}, {"b", "2"}});
  const std::uint64_t s1 = journal.ApplyReplicated(record);
  record.lsn = 2;
  record.kind = static_cast<std::uint8_t>(storage::EventKind::kServiceRemoved);
  record.delta = storage::ComputeDelta({{"a", "1"}, {"b", "2"}}, {{"b", "2"}});
  const std::uint64_t s2 = journal.ApplyReplicated(record);

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].entity, "e1");
  EXPECT_EQ(seen[0].seqno, s1);
  EXPECT_EQ(seen[0].kind, storage::EventKind::kServiceFound);
  EXPECT_EQ(seen[0].post, (storage::FieldMap{{"a", "1"}, {"b", "2"}}));
  EXPECT_EQ(seen[0].batch_size, 1u);
  EXPECT_EQ(seen[1].seqno, s2);
  EXPECT_EQ(seen[1].kind, storage::EventKind::kServiceRemoved);
  EXPECT_EQ(seen[1].post, (storage::FieldMap{{"b", "2"}}));
  EXPECT_EQ(seen[1].batch_size, 1u);
}

// ------------------------------------------------------ serving integration

interrogate::ServiceRecord ProductRecord(IPv4Address ip, Port port,
                                         const std::string& product) {
  interrogate::ServiceRecord r;
  r.key = {ip, port, Transport::kTcp};
  r.observed_at = Timestamp{100};
  r.protocol = proto::Protocol::kHttp;
  r.detection = interrogate::DetectionMethod::kBatteryHandshake;
  r.handshake_validated = true;
  r.software = {product, product, "1.0"};
  return r;
}

class AggregateServingTest : public ::testing::Test {
 protected:
  AggregateServingTest()
      : plan_(PlanConfig()), write_(journal_),
        enricher_(plan_, nullptr, nullptr),
        read_(journal_, write_, &enricher_) {
    for (std::uint32_t h = 0; h < 8; ++h) {
      write_.IngestScan(ProductRecord(IPv4Address(h + 1), 80,
                                      h < 5 ? "nginx" : "apache"));
    }
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
  engines::ContextEnricher enricher_;
  pipeline::ReadSide read_;
  search::SearchIndex index_;
  search::AnalyticsStore analytics_;
};

TEST_F(AggregateServingTest, AggregateQueriesServeThroughTheLadder) {
  AnalyticsTier tier(journal_, {});
  std::string error;
  ASSERT_TRUE(tier.BuildDay(0, &error)) << error;

  serving::ServingFrontend::Options options;
  options.threads = 2;
  serving::ServingFrontend frontend(read_, index_, analytics_, options);
  frontend.AttachAnalyticsTier(&tier);

  serving::Query q;
  q.kind = serving::Query::Kind::kAggregate;
  q.text = ".software.product";
  q.suffix_aggregate = true;
  q.at = Timestamp{100};
  const auto out = frontend.ServeOne(q);
  EXPECT_TRUE(out.hit);
  EXPECT_FALSE(out.failed);
  EXPECT_FALSE(out.degraded);  // answered from the segment
  EXPECT_EQ(out.results, 2u);  // {nginx, apache}

  // Exact-field aggregates work too.
  q.text = "svc.80/tcp.software.product";
  q.suffix_aggregate = false;
  const auto exact = frontend.ServeOne(q);
  EXPECT_TRUE(exact.hit);
  EXPECT_EQ(exact.results, 2u);

  // A batch counts aggregates in the report.
  const auto report = frontend.Run({q, q, q});
  EXPECT_EQ(report.aggregates, 3u);
  EXPECT_EQ(report.failed, 0u);
}

TEST_F(AggregateServingTest, WalkFallbackIsDegradedButCorrect) {
  AnalyticsTier tier(journal_, {});  // no segment built
  serving::ServingFrontend::Options options;
  options.threads = 1;
  serving::ServingFrontend frontend(read_, index_, analytics_, options);
  frontend.AttachAnalyticsTier(&tier);

  serving::Query q;
  q.kind = serving::Query::Kind::kAggregate;
  q.text = ".software.product";
  q.suffix_aggregate = true;
  q.at = Timestamp{100};
  const auto out = frontend.ServeOne(q);
  EXPECT_TRUE(out.hit);
  EXPECT_TRUE(out.degraded);  // journal-walk fallback
  EXPECT_EQ(out.results, 2u);
}

TEST_F(AggregateServingTest, MissingTierFailsTheQuery) {
  serving::ServingFrontend::Options options;
  options.threads = 1;
  options.max_read_retries = 1;
  options.retry_backoff_us = 0;
  serving::ServingFrontend frontend(read_, index_, analytics_, options);

  serving::Query q;
  q.kind = serving::Query::Kind::kAggregate;
  q.text = ".software.product";
  q.at = Timestamp{100};
  const auto out = frontend.ServeOne(q);
  EXPECT_TRUE(out.failed);
  EXPECT_FALSE(out.hit);
  // A missing tier is a wiring error, not a read fault: no retry ladder,
  // no fault counted.
  EXPECT_EQ(out.retries, 0u);
  EXPECT_EQ(out.faults, 0u);
}

}  // namespace
}  // namespace censys::query
