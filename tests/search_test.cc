// Tests for the query language, inverted index, and analytics store.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "search/analytics.h"
#include "search/index.h"
#include "search/postings.h"
#include "search/query.h"

namespace censys::search {
namespace {

// ---------------------------------------------------------------------- query

TEST(QueryParseTest, FieldTerm) {
  std::string error;
  const auto q = ParseQuery(R"(service.name: "MODBUS")", &error);
  ASSERT_TRUE(q.has_value()) << error;
  EXPECT_EQ((*q)->kind, QueryNode::Kind::kTerm);
  EXPECT_EQ((*q)->field, "service.name");
  EXPECT_EQ((*q)->pattern, "MODBUS");
  EXPECT_TRUE((*q)->is_phrase);
}

TEST(QueryParseTest, ImplicitAndExplicitAnd) {
  std::string error;
  const auto implicit = ParseQuery("a: 1 b: 2", &error);
  ASSERT_TRUE(implicit.has_value()) << error;
  const auto explicit_and = ParseQuery("a: 1 AND b: 2", &error);
  ASSERT_TRUE(explicit_and.has_value()) << error;
  EXPECT_EQ(ToString(*implicit), ToString(*explicit_and));
}

TEST(QueryParseTest, PrecedenceOrBindsLooserThanAnd) {
  std::string error;
  const auto q = ParseQuery("a: 1 AND b: 2 OR c: 3", &error);
  ASSERT_TRUE(q.has_value()) << error;
  EXPECT_EQ((*q)->kind, QueryNode::Kind::kOr);
  EXPECT_EQ((*q)->children[0]->kind, QueryNode::Kind::kAnd);
}

TEST(QueryParseTest, ParensAndNot) {
  std::string error;
  const auto q = ParseQuery("NOT (a: 1 OR b: 2)", &error);
  ASSERT_TRUE(q.has_value()) << error;
  EXPECT_EQ((*q)->kind, QueryNode::Kind::kNot);
  EXPECT_EQ((*q)->children[0]->kind, QueryNode::Kind::kOr);
}

TEST(QueryParseTest, RejectsMalformed) {
  std::string error;
  EXPECT_FALSE(ParseQuery("a: ", &error).has_value());
  EXPECT_FALSE(ParseQuery("(a: 1", &error).has_value());
  EXPECT_FALSE(ParseQuery("a: \"unterminated", &error).has_value());
  EXPECT_FALSE(ParseQuery("", &error).has_value());
  EXPECT_FALSE(ParseQuery("AND", &error).has_value());
}

// ---------------------------------------------------------------------- index

class IndexTest : public ::testing::Test {
 protected:
  IndexTest() {
    index_.Index("10.0.0.1", {{"service.name", "HTTP"},
                              {"http.html_title", "Welcome to nginx!"},
                              {"service.banner", "Server: nginx/1.25.3"}});
    index_.Index("10.0.0.2", {{"service.name", "SSH"},
                              {"service.banner", "SSH-2.0-openssh_8.9p1"}});
    index_.Index("10.0.0.3", {{"service.name", "MODBUS"},
                              {"device.manufacturer", "Schneider Electric"}});
    index_.Index("10.0.0.4", {{"service.name", "HTTP"},
                              {"http.html_title", "RouterOS configuration"}});
  }

  std::vector<std::string> Run(const std::string& query) {
    std::string error;
    auto result = index_.Search(query, &error);
    EXPECT_TRUE(error.empty()) << error;
    return result;
  }

  SearchIndex index_;
};

TEST_F(IndexTest, FieldTermQuery) {
  EXPECT_EQ(Run(R"(service.name: "MODBUS")"),
            (std::vector<std::string>{"10.0.0.3"}));
  EXPECT_EQ(Run("service.name: http").size(), 2u);  // case-insensitive token
}

TEST_F(IndexTest, AnyFieldQuery) {
  EXPECT_EQ(Run("nginx"), (std::vector<std::string>{"10.0.0.1"}));
  EXPECT_EQ(Run("schneider"), (std::vector<std::string>{"10.0.0.3"}));
}

TEST_F(IndexTest, BooleanOperators) {
  EXPECT_EQ(Run("service.name: HTTP AND http.html_title: RouterOS"),
            (std::vector<std::string>{"10.0.0.4"}));
  EXPECT_EQ(Run(R"(service.name: "SSH" OR service.name: "MODBUS")").size(),
            2u);
  const auto not_http = Run("NOT service.name: HTTP");
  EXPECT_EQ(not_http.size(), 2u);
}

TEST_F(IndexTest, PhraseQueryRequiresContiguity) {
  EXPECT_EQ(Run(R"(http.html_title: "Welcome to nginx!")"),
            (std::vector<std::string>{"10.0.0.1"}));
  // Words present but not contiguous in this order -> no match.
  EXPECT_TRUE(Run(R"(http.html_title: "nginx Welcome")").empty());
}

TEST_F(IndexTest, WildcardQuery) {
  EXPECT_EQ(Run(R"(service.banner: "SSH-2.0-*")"),
            (std::vector<std::string>{"10.0.0.2"}));
  EXPECT_EQ(Run(R"(http.html_title: "*router*")"),
            (std::vector<std::string>{"10.0.0.4"}));
}

TEST_F(IndexTest, ReindexReplacesOldPostings) {
  index_.Index("10.0.0.2", {{"service.name", "TELNET"}});
  EXPECT_TRUE(Run(R"(service.name: "SSH")").empty());
  EXPECT_EQ(Run(R"(service.name: "TELNET")"),
            (std::vector<std::string>{"10.0.0.2"}));
}

TEST_F(IndexTest, RemoveDropsDocument) {
  index_.Remove("10.0.0.3");
  EXPECT_TRUE(Run(R"(service.name: "MODBUS")").empty());
  EXPECT_EQ(index_.doc_count(), 3u);
  index_.Remove("10.0.0.3");  // idempotent
  EXPECT_EQ(index_.doc_count(), 3u);
}

TEST_F(IndexTest, ClearDropsEveryDocument) {
  index_.Clear();
  EXPECT_EQ(index_.doc_count(), 0u);
  EXPECT_EQ(index_.term_count(), 0u);
  EXPECT_TRUE(Run("NOT service.name: HTTP").empty());
  index_.Index("10.0.0.5", {{"service.name", "HTTP"}});
  EXPECT_EQ(Run("service.name: http"), (std::vector<std::string>{"10.0.0.5"}));
}

TEST_F(IndexTest, MalformedQueryReturnsError) {
  std::string error;
  const auto result = index_.Search("(((", &error);
  EXPECT_TRUE(result.empty());
  EXPECT_FALSE(error.empty());
}

TEST_F(IndexTest, MissingTermMatchesNothing) {
  EXPECT_TRUE(Run(R"(service.name: "GOPHER")").empty());
  EXPECT_TRUE(Run(R"(no.such.field: "x")").empty());
}

// Random inserts and erases against a std::set, over ids spread across
// three 65,536-id containers and dense enough in one of them to cross the
// array -> bitmap -> array conversions several times.
TEST(PostingListTest, MatchesASetAcrossContainerConversions) {
  PostingList list;
  std::set<std::uint32_t> reference;
  std::uint64_t state = 12345;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(state >> 33);
  };
  for (int round = 0; round < 6; ++round) {
    // Even rounds grow container 1 to ~5,200 ids (a bitmap past 4,096),
    // odd rounds shrink it to ~1,700 (an array again below 2,048).
    const bool grow = round % 2 == 0;
    for (int op = 0; op < 20000; ++op) {
      const std::uint32_t r = next();
      const std::uint32_t id =
          r % 8 == 0 ? r % 3 == 0 ? r % 65536 : (2u << 16) | (r % 65536)
                     : (1u << 16) | (r % 8000);
      const bool insert = grow ? r % 10 < 8 : r % 10 < 2;
      if (insert) {
        EXPECT_EQ(list.Insert(id), reference.insert(id).second);
      } else {
        EXPECT_EQ(list.Erase(id), reference.erase(id) == 1);
      }
    }
    ASSERT_EQ(list.size(), reference.size()) << "round " << round;
    std::vector<std::uint32_t> ids;
    list.AppendTo(&ids);
    ASSERT_EQ(ids, std::vector<std::uint32_t>(reference.begin(),
                                              reference.end()))
        << "round " << round;
    for (std::uint32_t probe = (1u << 16); probe < (1u << 16) + 8000;
         probe += 7) {
      ASSERT_EQ(list.Contains(probe), reference.contains(probe)) << probe;
    }
  }
}

// ------------------------------------------------------------------ analytics

DailySnapshot Snap(std::int64_t day, std::uint64_t http_count) {
  DailySnapshot s;
  s.day = day;
  s.total_services = http_count + 10;
  s.by_protocol["HTTP"] = http_count;
  return s;
}

TEST(AnalyticsTest, SeriesAcrossDays) {
  AnalyticsStore store;
  store.AddSnapshot(Snap(1, 100));
  store.AddSnapshot(Snap(2, 110));
  store.AddSnapshot(Snap(3, 120));
  const auto series = store.ProtocolSeries("HTTP");
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series[2].second, 120u);
  EXPECT_EQ(store.ProtocolSeries("SSH")[0].second, 0u);
}

TEST(AnalyticsTest, GetLatestUpTo) {
  AnalyticsStore store;
  store.AddSnapshot(Snap(5, 1));
  store.AddSnapshot(Snap(9, 2));
  EXPECT_FALSE(store.GetLatestUpToCopy(4).has_value());
  EXPECT_EQ(store.GetLatestUpToCopy(5)->day, 5);
  EXPECT_EQ(store.GetLatestUpToCopy(7)->day, 5);
  EXPECT_EQ(store.GetLatestUpToCopy(100)->day, 9);
}

TEST(AnalyticsTest, RetentionThinsOldSnapshotsToWeekly) {
  AnalyticsStore store;
  for (std::int64_t day = 0; day < 200; ++day) store.AddSnapshot(Snap(day, 1));

  store.ThinOut(Timestamp::FromDays(200));
  // The series lists exactly the retained days: the recent 90 days in
  // full, older days only on weekday 2.
  std::set<std::int64_t> kept;
  for (const auto& [day, count] : store.ProtocolSeries("HTTP")) {
    kept.insert(day);
  }
  EXPECT_EQ(kept.size(), store.size());
  for (std::int64_t day = 110; day < 200; ++day) {
    EXPECT_TRUE(kept.contains(day)) << day;
  }
  EXPECT_EQ(store.GetLatestUpToCopy(150)->day, 150);  // within window
  int old_kept = 0;
  for (std::int64_t day = 0; day < 110; ++day) {
    if (kept.contains(day)) {
      EXPECT_EQ(day % 7, 2) << day;
      ++old_kept;
    }
  }
  EXPECT_GT(old_kept, 10);
  EXPECT_LT(old_kept, 20);
}

// ---------------------------------------------------------------- concurrency

// The serving frontend searches from many threads while the engine rebuilds
// the index between ticks: queries take the reader lock, Index/Remove the
// writer lock. Concurrent identical queries must agree with a serial run.
TEST(IndexConcurrencyTest, ParallelQueriesMatchSerialResults) {
  SearchIndex index;
  for (int d = 0; d < 64; ++d) {
    const std::string id = "10.0.1." + std::to_string(d);
    index.Index(id, {{"service.name", d % 2 == 0 ? "HTTP" : "SSH"},
                     {"service.banner", "build " + std::to_string(d % 8)}});
  }

  const std::vector<std::string> queries = {
      "service.name: http", "service.name: ssh",
      R"(service.banner: "build 3")",
      "service.name: http AND NOT service.banner: 0"};
  std::vector<std::vector<std::string>> serial;
  for (const std::string& q : queries) {
    std::string error;
    serial.push_back(index.Search(q, &error));
    EXPECT_TRUE(error.empty()) << error;
  }

  int thread_count = 4;
  if (const char* env = std::getenv("CENSYSIM_THREADS")) {
    if (std::atoi(env) > 0) thread_count = std::atoi(env);
  }
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < thread_count; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round) {
        const std::size_t qi =
            static_cast<std::size_t>(t + round) % queries.size();
        std::string error;
        if (index.Search(queries[qi], &error) != serial[qi] ||
            !error.empty()) {
          mismatch.store(true, std::memory_order_relaxed);
        }
        index.GetDocument("10.0.1.3");
        index.doc_count();
      }
    });
  }
  // Re-index churn concurrent with the queries: rewriting a document with
  // identical fields must not change any result set.
  for (int round = 0; round < 50; ++round) {
    const int d = round % 64;
    const std::string id = "10.0.1." + std::to_string(d);
    index.Index(id, {{"service.name", d % 2 == 0 ? "HTTP" : "SSH"},
                     {"service.banner", "build " + std::to_string(d % 8)}});
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(mismatch.load());
}

}  // namespace
}  // namespace censys::search
