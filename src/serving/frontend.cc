#include "serving/frontend.h"

#include <algorithm>

#include "core/clock.h"
#include "core/fault.h"
#include "core/trace.h"

namespace censys::serving {
namespace {

// Bounded busy-wait: reader threads hold no locks here and must not
// sleep (the executor pool is shared across the batch).
void BusyWaitMicros(double us) {
  if (us <= 0) return;
  // Deadline bookkeeping, not stage timing: the retry ladder's backoff and
  // budget checks need raw elapsed time. censyslint:allow(wall-timer)
  const WallTimer timer;  // censyslint:allow(wall-timer)
  while (timer.ElapsedMicros() < us) {
  }
}

}  // namespace

ServingFrontend::ServingFrontend(const pipeline::ReadSide& read_side,
                                 const search::SearchIndex& index,
                                 const search::AnalyticsStore& analytics,
                                 Options options)
    : read_side_(read_side), index_(index), analytics_(analytics),
      executor_(options.threads), options_(options) {}

void ServingFrontend::BindMetrics(metrics::Registry* registry) {
  queries_metric_ = metrics::BindCounter(registry, "censys.serving.queries");
  qps_metric_ = metrics::BindGauge(registry, "censys.serving.qps");
  lookup_us_metric_ =
      metrics::BindHistogram(registry, "censys.serving.lookup_us");
  shed_metric_ = metrics::BindCounter(registry, "censys.serving.shed");
  degraded_metric_ = metrics::BindCounter(registry, "censys.serving.degraded");
  retries_metric_ = metrics::BindCounter(registry, "censys.serving.retries");
  read_faults_metric_ =
      metrics::BindCounter(registry, "censys.serving.read_faults");
}

namespace {

[[maybe_unused]] constexpr const char* QuerySpanName(Query::Kind kind) {
  switch (kind) {
    case Query::Kind::kLookup: return "query.lookup";
    case Query::Kind::kHistory: return "query.history";
    case Query::Kind::kSearch: return "query.search";
    case Query::Kind::kAnalytics: return "query.analytics";
    case Query::Kind::kAggregate: return "query.aggregate";
  }
  return "query";
}

}  // namespace

void ServingFrontend::ExecuteLadder(const Query& q, QueryOutcome& out,
                                    metrics::Histogram* batch_lookup_latency,
                                    bool capture_view) {
  TRACE_SPAN("serving", QuerySpanName(q.kind));
  const WallTimer timer;  // censyslint:allow(wall-timer)
  if (q.kind == Query::Kind::kAggregate && analytics_tier_ == nullptr) {
    // No tier attached is a wiring error, not a transient read fault: no
    // retry could answer it.
    out.failed = true;
    out.latency_us = timer.ElapsedMicros();
    return;
  }
  // Retry ladder: every query passes the "serving.read" injection
  // point. On a pure read path every fault mode is a transient error —
  // a reader has nothing to tear or corrupt durably — so each one
  // costs a retry, bounded by the per-query deadline.
  bool done = false;
  for (int attempt = 0; attempt <= options_.max_read_retries; ++attempt) {
    if (attempt > 0) {
      ++out.retries;
      BusyWaitMicros(attempt * options_.retry_backoff_us);
    }
    if (fault::Hit("serving.read").has_value()) {
      ++out.faults;
      if (options_.query_deadline_us > 0 &&
          timer.ElapsedMicros() > options_.query_deadline_us) {
        break;  // budget gone: degrade now rather than retry further
      }
      continue;
    }
    switch (q.kind) {
      case Query::Kind::kLookup: {
        auto view = read_side_.GetHost(q.ip);
        out.hit = view.has_value();
        out.results = out.hit ? view->services.size() : 0;
        out.latency_us = timer.ElapsedMicros();
        if (batch_lookup_latency != nullptr) {
          batch_lookup_latency->Observe(out.latency_us);
        }
        lookup_latency_.Observe(out.latency_us);
        lookup_us_metric_.Observe(out.latency_us);
        if (capture_view && view.has_value()) out.view = std::move(*view);
        break;
      }
      case Query::Kind::kHistory: {
        auto view = read_side_.GetHostAt(q.ip, q.at);
        out.hit = view.has_value();
        out.results = out.hit ? view->services.size() : 0;
        out.latency_us = timer.ElapsedMicros();
        if (capture_view && view.has_value()) out.view = std::move(*view);
        break;
      }
      case Query::Kind::kSearch: {
        std::string error;
        const auto ids = index_.Search(q.text, &error);
        out.hit = !ids.empty();
        out.results = ids.size();
        out.latency_us = timer.ElapsedMicros();
        break;
      }
      case Query::Kind::kAnalytics: {
        const auto series = analytics_.ProtocolSeries(q.text);
        const auto latest =
            analytics_.GetLatestUpToCopy(q.at.minutes / (24 * 60));
        out.hit = !series.empty() || latest.has_value();
        out.results = series.size();
        out.latency_us = timer.ElapsedMicros();
        break;
      }
      case Query::Kind::kAggregate: {
        const std::int64_t day = q.at.minutes / (24 * 60);
        const query::AnalyticsTier::Aggregate agg =
            q.suffix_aggregate ? analytics_tier_->GroupCountSuffix(day, q.text)
                               : analytics_tier_->GroupCount(day, q.text);
        out.hit = !agg.groups.empty();
        out.results = agg.groups.size();
        // A journal-walk fallback is a degraded (but correct) answer,
        // mirroring the stale-read labeling of the lookup ladder.
        out.degraded = !agg.from_segment;
        out.latency_us = timer.ElapsedMicros();
        break;
      }
    }
    done = true;
    break;
  }
  if (done) return;

  // Retries exhausted. Lookups can still degrade to the last cached
  // view at any watermark; everything else fails.
  if (q.kind == Query::Kind::kLookup && options_.allow_stale_reads) {
    if (auto stale = read_side_.GetHostStale(q.ip)) {
      out.degraded = true;
      out.hit = true;
      out.results = stale->services.size();
      out.latency_us = timer.ElapsedMicros();
      if (capture_view) out.view = std::move(*stale);
      return;
    }
  }
  out.failed = true;
  out.latency_us = timer.ElapsedMicros();
}

QueryOutcome ServingFrontend::ServeOne(const Query& query, bool capture_view) {
  QueryOutcome out;
  ExecuteLadder(query, out, /*batch_lookup_latency=*/nullptr, capture_view);
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  queries_metric_.Add();
  if (out.degraded) degraded_metric_.Add();
  retries_metric_.Add(out.retries);
  read_faults_metric_.Add(out.faults);
  return out;
}

BatchReport ServingFrontend::Run(const std::vector<Query>& queries) {
  TRACE_SPAN("serving", "batch");
  BatchReport report;
  report.queries = queries.size();
  if (queries.empty()) return report;

  const pipeline::ViewCache* cache = read_side_.cache();
  const std::uint64_t hits0 = cache != nullptr ? cache->hits() : 0;
  const std::uint64_t misses0 = cache != nullptr ? cache->misses() : 0;

  // Compact per-query record for the batch path: QueryOutcome carries an
  // optional HostView for ServeOne callers, which would blow up the
  // outcomes vector's stride here; the batch never captures views, so it
  // keeps the full outcome on the worker's stack and stores only the tally
  // fields.
  struct Outcome {
    bool hit = false;
    bool shed = false;
    bool degraded = false;
    bool failed = false;
    std::size_t results = 0;
    std::uint32_t retries = 0;
    std::uint32_t faults = 0;
  };
  std::vector<Outcome> outcomes(queries.size());
  metrics::Histogram batch_lookup_latency;

  const WallTimer batch_timer;  // censyslint:allow(wall-timer)
  executor_.ParallelFor(queries.size(), [&](std::size_t i) {
    const Query& q = queries[i];
    Outcome& out = outcomes[i];

    // Load shedding: once the batch budget is exhausted, answer
    // "unavailable" without touching the read path at all.
    if (options_.batch_deadline_us > 0 &&
        batch_timer.ElapsedMicros() > options_.batch_deadline_us) {
      out.shed = true;
      return;
    }

    QueryOutcome full;
    ExecuteLadder(q, full, &batch_lookup_latency, /*capture_view=*/false);
    out.hit = full.hit;
    out.degraded = full.degraded;
    out.failed = full.failed;
    out.results = full.results;
    out.retries = full.retries;
    out.faults = full.faults;
  });
  report.elapsed_us = batch_timer.ElapsedMicros();

  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Outcome& out = outcomes[i];
    report.shed += out.shed ? 1 : 0;
    report.degraded += out.degraded ? 1 : 0;
    report.failed += out.failed ? 1 : 0;
    report.read_faults += out.faults;
    report.retries += out.retries;
    switch (queries[i].kind) {
      case Query::Kind::kLookup:
        ++report.lookups;
        if (out.hit) ++report.lookup_hits;
        break;
      case Query::Kind::kHistory:
        ++report.histories;
        break;
      case Query::Kind::kSearch:
        ++report.searches;
        report.search_results += out.results;
        break;
      case Query::Kind::kAnalytics:
        ++report.analytics;
        break;
      case Query::Kind::kAggregate:
        ++report.aggregates;
        break;
    }
  }
  report.qps = report.elapsed_us > 0
                   ? static_cast<double>(report.queries) /
                         (report.elapsed_us / 1e6)
                   : 0;
  report.lookup_p50_us = batch_lookup_latency.Quantile(0.50);
  report.lookup_p99_us = batch_lookup_latency.Quantile(0.99);

  if (cache != nullptr) {
    report.cache_hits = cache->hits() - hits0;
    report.cache_misses = cache->misses() - misses0;
    const double total =
        static_cast<double>(report.cache_hits + report.cache_misses);
    report.cache_hit_ratio =
        total == 0 ? 0.0 : static_cast<double>(report.cache_hits) / total;
  }

  queries_served_.fetch_add(report.queries, std::memory_order_relaxed);
  queries_metric_.Add(report.queries);
  qps_metric_.Set(static_cast<std::int64_t>(report.qps));
  shed_metric_.Add(report.shed);
  degraded_metric_.Add(report.degraded);
  retries_metric_.Add(report.retries);
  read_faults_metric_.Add(report.read_faults);
  return report;
}

std::vector<Query> ServingFrontend::MixedWorkload(
    std::size_t count, const std::vector<IPv4Address>& hosts,
    const std::vector<std::string>& search_texts,
    const std::vector<std::string>& protocols, Timestamp now, Rng& rng) {
  std::vector<Query> queries;
  queries.reserve(count);
  if (hosts.empty()) return queries;
  for (std::size_t i = 0; i < count; ++i) {
    Query q;
    q.ip = hosts[rng.NextBelow(hosts.size())];
    q.at = now;
    const double roll = rng.NextDouble();
    if (roll < 0.70 || (search_texts.empty() && protocols.empty())) {
      q.kind = Query::Kind::kLookup;
    } else if (roll < 0.80) {
      q.kind = Query::Kind::kHistory;
      // Uniformly back in time up to a week, clamped at t=0.
      const std::int64_t back =
          static_cast<std::int64_t>(rng.NextBelow(7 * 24 * 60));
      q.at = Timestamp{std::max<std::int64_t>(0, now.minutes - back)};
    } else if (roll < 0.90 && !search_texts.empty()) {
      q.kind = Query::Kind::kSearch;
      q.text = search_texts[i % search_texts.size()];
    } else if (!protocols.empty()) {
      q.kind = Query::Kind::kAnalytics;
      q.text = protocols[i % protocols.size()];
    } else {
      q.kind = Query::Kind::kLookup;
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

}  // namespace censys::serving
