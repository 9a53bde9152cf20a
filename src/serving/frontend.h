// Concurrent serving frontend (§5.3 "Search and Analysis Products").
//
// Drives mixed user traffic — host lookups, historical lookups, search
// queries, analytics series — against the read side, search index, and
// analytics store from a pool of reader threads, concurrently with engine
// ticks. Queries are pure reads: the frontend never touches the write side
// or the journal's append path, so serving traffic cannot perturb journal
// content (the digest tests assert exactly that).
//
// The frontend owns its own Executor: core::Executor::ParallelFor is a
// single-caller primitive, and the engine's pool is busy inside ticks.
// Reports censys.serving.* instruments (queries, qps, lookup latency);
// cache hit/miss instruments come from the ReadSide's ViewCache.
//
// Degradation: every query passes the "serving.read" fault-injection
// point; a transient read fault walks the ladder retry-with-backoff ->
// stale-cache answer (lookups, when a ViewCache is installed) -> failed,
// bounded by per-query and per-batch deadline budgets. A batch over its
// budget sheds the remaining queries outright. The frontend never
// crashes on a read fault — BatchReport::shed/degraded/failed and the
// censys.serving.shed/degraded/retries instruments account for every
// query.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/executor.h"
#include "core/metrics.h"
#include "core/rng.h"
#include "core/types.h"
#include "pipeline/read_side.h"
#include "query/columnar.h"
#include "search/analytics.h"
#include "search/index.h"

namespace censys::serving {

struct Query {
  enum class Kind : std::uint8_t {
    kLookup = 0,     // current host view (cacheable fast path)
    kHistory = 1,    // host view at a past timestamp (replay)
    kSearch = 2,     // full-text search expression
    kAnalytics = 3,  // protocol series + latest daily snapshot
    kAggregate = 4,  // columnar group-count sweep (query::AnalyticsTier)
  };

  Kind kind = Kind::kLookup;
  IPv4Address ip;    // lookup / history target
  Timestamp at;      // history timestamp; analytics/aggregate as-of day
  std::string text;  // search expression / analytics protocol name /
                     // aggregate field name
  // kAggregate: treat `text` as a field-name suffix (".service.name"
  // sweeps every port's column) instead of an exact field.
  bool suffix_aggregate = false;
};

// Outcome of one query through the degradation ladder (ServeOne, and
// Run()'s per-query accounting).
struct QueryOutcome {
  bool hit = false;
  bool shed = false;      // only set by Run()'s batch-deadline shedding
  bool degraded = false;  // answered from a stale cached view
  bool failed = false;    // retries exhausted, no stale fallback, or an
                          // aggregate with no tier attached
  std::size_t results = 0;
  double latency_us = 0;
  std::uint32_t retries = 0;
  std::uint32_t faults = 0;
  // The served view, filled for lookup/history queries when requested via
  // ServeOne(capture_view): the replica router's correctness oracle reads
  // the per-entity watermark off it.
  std::optional<pipeline::HostView> view;
};

// Aggregate outcome of one Run() batch.
struct BatchReport {
  std::size_t queries = 0;
  std::size_t lookups = 0;
  std::size_t histories = 0;
  std::size_t searches = 0;
  std::size_t analytics = 0;
  std::size_t aggregates = 0;

  std::size_t lookup_hits = 0;     // lookups that returned a view
  std::size_t search_results = 0;  // total doc ids matched across searches

  // Degradation ladder accounting (all zero on a healthy run).
  std::size_t shed = 0;      // never attempted: batch deadline exhausted
  std::size_t degraded = 0;  // answered from a stale cached view
  std::size_t failed = 0;    // exhausted retries, no stale fallback
  std::uint64_t read_faults = 0;  // transient read errors observed
  std::uint64_t retries = 0;      // fresh-read retry attempts

  double elapsed_us = 0;
  double qps = 0;
  double lookup_p50_us = 0;
  double lookup_p99_us = 0;

  // View-cache counter deltas across this batch (zero without a cache).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double cache_hit_ratio = 0;
};

class ServingFrontend {
 public:
  struct Options {
    // Reader threads; 0 runs queries inline on the caller.
    int threads = 4;

    // --- graceful degradation (the ladder: retry -> stale -> fail, with
    // --- load shedding once the batch budget is gone) ----------------------
    // Wall-clock budget for one query, including its retries; 0 = none.
    // Once exceeded the query stops retrying and degrades immediately.
    double query_deadline_us = 0;
    // Wall-clock budget for the whole batch; 0 = none. Queries starting
    // after it is exhausted are shed: answered "unavailable" without
    // touching the read path at all (overload protection).
    double batch_deadline_us = 0;
    // Fresh-read attempts after a transient fault (so max_read_retries+1
    // attempts total).
    int max_read_retries = 2;
    // Backoff before retry k is k * retry_backoff_us, busy-waited on the
    // wall clock (reader threads never sleep).
    double retry_backoff_us = 50;
    // Degrade lookups to the last cached view (any watermark) when fresh
    // reads keep failing, instead of failing the query.
    bool allow_stale_reads = true;
  };

  ServingFrontend(const pipeline::ReadSide& read_side,
                  const search::SearchIndex& index,
                  const search::AnalyticsStore& analytics)
      : ServingFrontend(read_side, index, analytics, Options()) {}
  ServingFrontend(const pipeline::ReadSide& read_side,
                  const search::SearchIndex& index,
                  const search::AnalyticsStore& analytics, Options options);

  ServingFrontend(const ServingFrontend&) = delete;
  ServingFrontend& operator=(const ServingFrontend&) = delete;

  // Executes the batch across the reader pool and blocks until done. Safe
  // to call while the engine ticks on another thread; not safe to call
  // from two threads at once (one frontend = one query pump).
  BatchReport Run(const std::vector<Query>& queries);

  // Executes one query inline on the calling thread through the same
  // degradation ladder Run uses (retry -> stale -> fail; no batch-level
  // shedding — that is the caller's budget to manage). Unlike Run this IS
  // safe from many threads at once: it never touches the executor, and
  // the read paths and metrics sinks are all concurrent. The replica
  // router fans queries across followers' frontends through this.
  QueryOutcome ServeOne(const Query& query, bool capture_view = false);

  std::uint64_t queries_served() const {
    return queries_served_.load(std::memory_order_relaxed);
  }
  // Lifetime p99 of current-host lookups, microseconds.
  double LookupP99Us() const { return lookup_latency_.Quantile(0.99); }
  int thread_count() const { return executor_.thread_count(); }

  // Registers censys.serving.queries / qps / lookup_us plus the
  // degradation instruments shed / degraded / retries / read_faults.
  void BindMetrics(metrics::Registry* registry);

  // Wires the columnar analytics tier behind kAggregate queries. The
  // tier must outlive the frontend; without one, aggregate queries fail
  // at once, with no retry and no read fault counted. Call before serving
  // traffic (not thread-safe against in-flight queries).
  void AttachAnalyticsTier(const query::AnalyticsTier* tier) {
    analytics_tier_ = tier;
  }

  // Deterministic mixed workload: ~70% lookups, 10% history, 10% search,
  // 10% analytics, targets drawn from `hosts` via `rng`. Search queries
  // cycle through `search_texts`; analytics queries through `protocols`.
  static std::vector<Query> MixedWorkload(
      std::size_t count, const std::vector<IPv4Address>& hosts,
      const std::vector<std::string>& search_texts,
      const std::vector<std::string>& protocols, Timestamp now, Rng& rng);

 private:
  // The ladder shared by Run and ServeOne: retry with backoff, then stale
  // cache (lookups), then failed. Thread-safe.
  void ExecuteLadder(const Query& query, QueryOutcome& out,
                     metrics::Histogram* batch_lookup_latency,
                     bool capture_view);

  const pipeline::ReadSide& read_side_;
  const search::SearchIndex& index_;
  const search::AnalyticsStore& analytics_;
  const query::AnalyticsTier* analytics_tier_ = nullptr;
  Executor executor_;

  std::atomic<std::uint64_t> queries_served_{0};
  metrics::Histogram lookup_latency_;  // lifetime, powers LookupP99Us

  Options options_;

  metrics::CounterHandle queries_metric_;
  metrics::GaugeHandle qps_metric_;
  metrics::HistogramHandle lookup_us_metric_;
  metrics::CounterHandle shed_metric_;
  metrics::CounterHandle degraded_metric_;
  metrics::CounterHandle retries_metric_;
  metrics::CounterHandle read_faults_metric_;
};

}  // namespace censys::serving
