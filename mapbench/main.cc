// mapbench: one benchmark for the map — ingest and serving, measured end
// to end and per layer.
//
//   mapbench --workload ingest|serve --seed N --seconds S
//            --trace 0|1 [--workers N] [--out DIR]
//
// Every workload runs the same loop on a Rig (rig.h): one set-up, then a
// fixed number of rounds (RunDays), each three steps that never overlap:
// (1) World::RunUntil runs one 2-hour tick,
// (2) every follower is pumped to the leader's LSN, (3) a closed-loop query
// batch runs — lookups, history, searches and kAnalytics through one
// ReplicaRouter per client thread, then kAggregate on the leader frontend.
// Every latency is timed by this program's own clock around the call that
// serves one query; percentiles are exact order statistics of those times.
// Correctness checks (oracle.h) run between the timed windows, on the
// benchmark's own check threads (check_threads.h). Every round also probes
// the host's speed (host_speed.h); the end-to-end metrics are scaled by it.
//
// stdout ends with per-kind operation counts, one line per metric, and as
// its last line one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics under --trace 0, the per-layer
// metrics under --trace 1. The traced run also records spans around every
// call into a layer and writes them to DIR/trace-<workload>-<seed>.json.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "check_threads.h"
#include "engines/evaluation.h"
#include "host_speed.h"
#include "oracle.h"
#include "pipeline/view_cache.h"
#include "replicate/follower.h"
#include "rig.h"
#include "rss.h"
#include "search/index.h"
#include "spans.h"

namespace mapbench {
namespace {

namespace fs = std::filesystem;
using censys::IPv4Address;
using censys::Rng;
using censys::Timestamp;
using censys::serving::Query;
using Kind = censys::serving::Query::Kind;

// Share of reported services that must answer a follow-up liveness scan:
// the paper reports 92% accurate, EXPERIMENTS.md Table 2 measures 86% at
// bench scale; the floor sits six points under the measurement.
constexpr double kLiveFloor = 0.80;

// Per round: lookups and histories whose served view is compared in full
// (evenly spaced).
constexpr std::size_t kViewChecks = 64;

// Searches drawn from the pinned world; every round runs each one once.
constexpr std::size_t kSearchPool = 256;

// Rounds of one simulated day: twelve 2-hour ticks, one of them running
// the daily job.
constexpr std::size_t kTicksPerDay = 12;

// Whole simulated days a run measures. The count depends on --seconds
// only, never on the clock, so every run times the same ticks and batches
// however fast the host runs: one day per 10 s asked, and never fewer than
// two (README.md, "Run length").
std::size_t RunDays(double seconds) {
  const auto asked = static_cast<std::size_t>(std::ceil(seconds / 10));
  return std::max<std::size_t>(2, asked);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int workers = kWorkers;
  std::string out = ".bench_out";
};

// Client threads of the closed-loop batch, capped at the host's cores.
// Two, not one per core: on 4 cores the read path served `ingest`'s batch
// no faster with 4 clients than with 2, and with 4 its throughput varied
// from run to run by half (README.md, "Client threads").
int ClientThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw == 0 ? 1u : hw, 1u, 2u));
}

// Exact order statistic (nearest rank).
double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const auto index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(samples.size())));
  return samples[index - 1];
}
double Median(const std::vector<double>& samples) {
  return Percentile(samples, 0.5);
}
double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (const double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

double SecondsSince(std::int64_t t0) {
  return static_cast<double>(NowNs() - t0) / 1e9;
}

std::uint64_t DirBytes(const fs::path& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

// A document's fields as the journal holds them now.
std::optional<censys::storage::FieldMap> JournalDoc(
    const censys::storage::EventJournal& journal, std::string_view id) {
  auto state = journal.SnapshotState(id);
  if (!state.has_value()) return std::nullopt;
  return std::move(state->fields);
}

// Search expressions drawn from the data: one or two field-constrained
// terms taken from one sampled host, so most searches match something.
std::vector<std::vector<Term>> SearchPool(
    const censys::storage::EventJournal& journal,
    const std::vector<IPv4Address>& hosts, Rng& rng, std::size_t size) {
  static const char* kSuffixes[] = {".service.name", ".software.product",
                                    ".software.vendor", ".http.html_title"};
  std::vector<std::vector<Term>> pool;
  for (int attempt = 0; pool.size() < size && attempt < 100000; ++attempt) {
    const IPv4Address ip = hosts[rng.NextBelow(hosts.size())];
    const auto fields = JournalDoc(journal, ip.ToString());
    if (!fields.has_value()) continue;
    std::vector<Term> candidates;
    for (const auto& [field, value] : *fields) {
      for (const std::string_view suffix : kSuffixes) {
        if (field.size() > suffix.size() &&
            field.compare(field.size() - suffix.size(), suffix.size(),
                          suffix) == 0) {
          for (const std::string& token : OwnTokens(value)) {
            candidates.push_back({field, token});
          }
        }
      }
    }
    if (candidates.empty()) continue;
    std::vector<Term> terms{candidates[rng.NextBelow(candidates.size())]};
    if (pool.size() % 2 == 1) {
      const Term& second = candidates[rng.NextBelow(candidates.size())];
      if (second.field != terms[0].field || second.token != terms[0].token) {
        terms.push_back(second);
      }
    }
    pool.push_back(std::move(terms));
  }
  return pool;
}

struct HistoryEntry {
  IPv4Address ip;
  Timestamp at;
  RecordedView view;  // the leader's view of `at`, recorded a minute later
};

struct PlannedQuery {
  Query query;
  std::size_t aux = 0;  // history/search pool index; aggregate spec index
};

struct QueryResult {
  double latency_us = 0;
  censys::serving::RoutedAnswer answer;
  std::uint64_t hedged = 0;  // from the call's RouterReport
  std::uint64_t failovers = 0;
};

struct KindCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Timed samples as measured and scaled to the nominal host speed by the
// slowdown of the round each was taken in (host_speed.h).
struct Samples {
  std::vector<double> raw, scaled;
  void AddTime(double value, double slowdown) {
    raw.push_back(value);
    scaled.push_back(value / slowdown);
  }
  void AddRate(double value, double slowdown) {
    raw.push_back(value);
    scaled.push_back(value * slowdown);
  }
  const std::vector<double>& get(bool scale) const {
    return scale ? scaled : raw;
  }
  std::size_t size() const { return raw.size(); }
};

class Bench {
 public:
  Bench(const Options& opt, Workload w)
      : opt_(opt),
        w_(std::move(w)),
        workers_(opt.workers),
        clients_(ClientThreads()),
        out_dir_(fs::absolute(opt.out)),
        rng_(opt.seed * 0x9E3779B97F4A7C15ULL + 17) {
    for (int c = 0; c <= clients_; ++c) logs_.emplace_back(c);
  }

  // Set-up, the measured rounds, the end-of-run checks and the report.
  void Run();
  bool ok() const { return verdict_.ok(); }

 private:
  SpanLog* log(int thread) {
    return opt_.trace ? &logs_[static_cast<std::size_t>(thread)] : nullptr;
  }

  void SetUp();
  void Round(std::uint32_t round);
  std::vector<PlannedQuery> PlanRouted(Timestamp now);
  std::vector<PlannedQuery> PlanAggregates(Timestamp now);
  void ServeBatch(std::uint32_t round, const std::vector<PlannedQuery>& routed,
                  std::vector<QueryResult>* results,
                  const std::vector<PlannedQuery>& aggregates,
                  std::vector<censys::serving::QueryOutcome>* served);
  void CheckReplicas(std::function<void()> beside);
  void CheckBatch(const std::vector<PlannedQuery>& routed,
                  const std::vector<QueryResult>& results,
                  const std::vector<std::vector<std::string>>& own_search,
                  const std::vector<PlannedQuery>& aggregates,
                  const std::vector<censys::serving::QueryOutcome>& served,
                  Timestamp now);
  void SelfTest(Timestamp now);
  void EndChecks();
  std::vector<Metric> EndToEndMetrics(bool scaled) const;
  std::vector<Metric> PerLayerMetrics() const;
  void Report(const std::vector<Metric>& metrics);

  const Options& opt_;
  const Workload w_;
  const int workers_;
  const int clients_;
  const fs::path out_dir_;
  Rng rng_;
  Verdict verdict_;
  RssSampler rss_;
  HostSpeed host_;
  double slowdown_ = 1;  // this round's, from host_
  std::vector<SpanLog> logs_;  // [0] main thread, [1..] clients
  // Every check between the timed steps runs here, never on the command
  // thread: the digests beside the own-search walk, or the three own
  // aggregate counts of the daily job.
  CheckThreads checks_{3};

  std::unique_ptr<Rig> rig_;
  Batch batch_;
  std::vector<std::vector<Term>> search_pool_;
  // Recorded (host, tick boundary) views that history queries replay: each
  // round records as many as it asks, up to the lookup working set (the
  // host count at set-up), oldest dropped first.
  std::vector<HistoryEntry> history_pool_;
  std::size_t history_cap_ = 0;
  bool self_tested_ = false;
  std::uint64_t leader_digest_ = 0;
  // First non-empty search answer of the run, for the self-test.
  std::optional<std::pair<std::size_t, std::vector<std::string>>>
      sample_search_;

  // --- samples ---------------------------------------------------------------
  double setup_s_ = 0;
  std::vector<TickSample> ticks_;
  Samples tick_ms_, catchup_ms_;
  std::vector<double> pump_ms_;
  Samples lookup_us_, history_us_, search_us_;
  Samples aggregate_ms_;
  std::vector<double> search_results_;
  double batch_wall_s_ = 0, batch_cpu_s_ = 0;
  std::uint64_t batch_queries_ = 0;
  Samples batch_qps_;  // per round
  double exact_rows_ = 0, exact_s_ = 0, suffix_rows_ = 0, suffix_s_ = 0;
  std::uint64_t hedged_ = 0, failovers_ = 0, stale_ = 0;
  std::map<std::string, KindCount> kinds_;
  std::uint64_t cache_hits0_ = 0, cache_misses0_ = 0;
  std::uint64_t shipments0_ = 0, shipped0_ = 0;
  double run_s_ = 0, check_s_ = 0, end_check_s_ = 0, live_share_ = 0;
};

void Bench::SetUp() {
  fs::create_directories(out_dir_);
  const fs::path dir = out_dir_ / ("run-" + std::to_string(::getpid()));
  const std::int64_t t0 = NowNs();
  rig_ = std::make_unique<Rig>(w_, workers_, dir, clients_, &checks_,
                               &verdict_);
  setup_s_ = SecondsSince(t0) - rig_->check_ms() / 1e3;
  rig_->set_spans(log(0));
  // The search pool is part of the pinned world; --seed draws the order.
  checks_.RunOne([this] {
    Rng pool_rng(kWorldSeed);
    search_pool_ = SearchPool(rig_->engine().journal(), rig_->hosts(),
                              pool_rng, kSearchPool);
  });
  const std::size_t hosts = rig_->hosts().size();
  batch_ = BatchFor(w_, hosts, search_pool_.size());
  history_cap_ = hosts;
  const censys::pipeline::ViewCache::Options cache;
  const std::size_t cache_views = cache.shards * cache.capacity_per_shard;
  verdict_.Expect(hosts > cache_views, "lookup.working_set",
                  std::to_string(hosts) + " hosts fit a follower's " +
                      std::to_string(cache_views) + "-view cache");
  cache_hits0_ = rig_->CacheHits();
  cache_misses0_ = rig_->CacheMisses();
  shipments0_ = rig_->group().shipments();
  shipped0_ = rig_->group().shipped_records();
}

void Bench::Run() {
  SetUp();
  const std::int64_t start = NowNs();
  const std::size_t rounds = RunDays(opt_.seconds) * kTicksPerDay;
  for (std::uint32_t round = 1; round <= rounds; ++round) Round(round);
  run_s_ = SecondsSince(start);
  rss_.Pause();
  const std::int64_t end0 = NowNs();
  EndChecks();
  end_check_s_ = SecondsSince(end0);
  Report(opt_.trace ? PerLayerMetrics() : EndToEndMetrics(true));
  std::error_code ec;
  fs::remove_all(rig_->dir(), ec);
}

void Bench::Round(std::uint32_t round) {
  // (1) the tick
  ticks_.push_back(rig_->Tick(round));
  ++kinds_["tick"].attempted;
  // (2) catch-up
  const std::int64_t t0 = NowNs();
  const bool caught_up = rig_->CatchUp(round, &pump_ms_);
  const double catchup_ms = SecondsSince(t0) * 1e3;
  ++kinds_["catchup"].attempted;
  verdict_.Expect(caught_up, "replicate.catchup",
                  "a follower did not reach the leader's LSN");
  rss_.Pause();
  // The probe runs first in the check window, whose digests evict the
  // caches anyway; its slowdown scales this round's tick, catch-up and
  // batch.
  slowdown_ = host_.Measure();
  tick_ms_.AddTime(ticks_.back().wall_ms, slowdown_);
  catchup_ms_.AddTime(catchup_ms, slowdown_);
  const std::int64_t check0 = NowNs();
  const Timestamp now = rig_->world().now();
  std::vector<PlannedQuery> routed, aggregates;
  std::vector<QueryResult> results;
  std::vector<censys::serving::QueryOutcome> served;
  checks_.RunOne([&] {
    // Record, for later history queries, the leader's view of the last
    // minute before this tick boundary. Not the boundary itself: the next
    // tick can still journal events stamped with it (CHANGES.md, FOUND).
    const Timestamp before = now - censys::Duration::Minutes(1);
    const auto& hosts = rig_->hosts();
    for (std::size_t i = 0; i < batch_.histories; ++i) {
      const IPv4Address ip = hosts[rng_.NextBelow(hosts.size())];
      history_pool_.push_back(
          {ip, before,
           Record(rig_->engine().read_side().GetHostAt(ip, before))});
    }
    if (history_pool_.size() > history_cap_) {
      history_pool_.erase(history_pool_.begin(),
                          history_pool_.end() - history_cap_);
    }
    routed = PlanRouted(now);
    aggregates = PlanAggregates(now);
    results.resize(routed.size());
    served.reserve(aggregates.size());
  });
  // The benchmark's own answers to this batch's searches, computed beside
  // the digests: nothing changes the journal until the next tick.
  std::vector<std::vector<std::string>> own_search;
  CheckReplicas([&] {
    std::vector<const std::vector<Term>*> searches;
    for (const PlannedQuery& p : routed) {
      if (p.query.kind == Kind::kSearch) {
        searches.push_back(&search_pool_[p.aux]);
      }
    }
    own_search = OwnSearch(rig_->engine().journal(), searches);
  });
  check_s_ += SecondsSince(check0);
  rss_.Resume();

  // (3) the closed-loop batch
  ServeBatch(round, routed, &results, aggregates, &served);

  rss_.Pause();
  const std::int64_t check1 = NowNs();
  checks_.RunOne([&] {
    CheckBatch(routed, results, own_search, aggregates, served, now);
    if (!self_tested_) SelfTest(now);
  });
  check_s_ += SecondsSince(check1);
  rss_.Resume();
}

std::vector<PlannedQuery> Bench::PlanRouted(Timestamp now) {
  const auto& hosts = rig_->hosts();
  std::vector<PlannedQuery> routed;
  for (std::size_t i = 0; i < batch_.lookups; ++i) {
    PlannedQuery p;
    p.query.kind = Kind::kLookup;
    p.query.ip = hosts[rng_.NextBelow(hosts.size())];
    routed.push_back(std::move(p));
  }
  for (std::size_t i = 0; i < batch_.histories; ++i) {
    PlannedQuery p;
    p.aux = rng_.NextBelow(history_pool_.size());
    p.query.kind = Kind::kHistory;
    p.query.ip = history_pool_[p.aux].ip;
    p.query.at = history_pool_[p.aux].at;
    routed.push_back(std::move(p));
  }
  for (std::size_t i = 0; i < batch_.searches; ++i) {
    PlannedQuery p;
    p.aux = i;
    p.query.kind = Kind::kSearch;
    p.query.text = SearchText(search_pool_[p.aux]);
    routed.push_back(std::move(p));
  }
  for (std::size_t i = 0; i < batch_.analytics; ++i) {
    PlannedQuery p;
    p.query.kind = Kind::kAnalytics;
    p.query.text = kAnalyticsProtocols[i];
    p.query.at = now;
    routed.push_back(std::move(p));
  }
  for (std::size_t i = routed.size(); i > 1; --i) {
    std::swap(routed[i - 1], routed[rng_.NextBelow(i)]);
  }
  return routed;
}

std::vector<PlannedQuery> Bench::PlanAggregates(Timestamp now) {
  std::vector<PlannedQuery> aggregates;
  for (std::size_t i = 0; i < batch_.aggregates; ++i) {
    PlannedQuery p;
    p.aux = i;
    p.query.kind = Kind::kAggregate;
    p.query.text = kAggregateSpecs[p.aux].field;
    p.query.suffix_aggregate = kAggregateSpecs[p.aux].suffix;
    p.query.at = now;
    aggregates.push_back(std::move(p));
  }
  return aggregates;
}

void Bench::ServeBatch(std::uint32_t round,
                       const std::vector<PlannedQuery>& routed,
                       std::vector<QueryResult>* results,
                       const std::vector<PlannedQuery>& aggregates,
                       std::vector<censys::serving::QueryOutcome>* served) {
  const double cpu0 = CpuSeconds();
  const std::int64_t t0 = NowNs();
  {
    const ScopedSpan batch_span(log(0), "serving.batch", round);
    const SpanRef batch_ref = opt_.trace ? logs_[0].Current() : SpanRef{};
    // Closed loop: each client takes the batch's next query when its last
    // one returns, so a few slow searches do not leave one client with
    // the batch's tail while the others idle.
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < clients_; ++c) {
      threads.emplace_back([&, c] {
        SpanLog* client_log = log(c + 1);
        auto& router = rig_->router(c);
        std::vector<Query> one(1);
        std::vector<censys::serving::RoutedAnswer> answers;
        for (std::size_t j = next.fetch_add(1); j < routed.size();
             j = next.fetch_add(1)) {
          one[0] = routed[j].query;
          QueryResult& r = (*results)[j];
          const ScopedSpan span(client_log, "serving.route", round, batch_ref);
          const std::int64_t q0 = NowNs();
          const censys::serving::RouterReport report =
              router.Run(one, &answers);
          r.latency_us = static_cast<double>(NowNs() - q0) / 1e3;
          r.answer = std::move(answers[0]);
          r.hedged = report.hedged;
          r.failovers = report.failovers;
        }
      });
    }
    for (auto& t : threads) t.join();

    // Aggregates, one at a time on the leader frontend: the scan-row
    // counter delta around each call belongs to that call alone.
    const auto& m = rig_->engine().metrics();
    for (const PlannedQuery& p : aggregates) {
      const ScopedSpan span(log(0), "query.aggregate", round);
      const std::uint64_t rows0 = m.CounterValue("censys.query.scan_rows");
      const std::int64_t q0 = NowNs();
      served->push_back(rig_->leader_frontend().ServeOne(p.query));
      const double secs = SecondsSince(q0);
      aggregate_ms_.AddTime(secs * 1e3, slowdown_);
      const double rows = static_cast<double>(
          m.CounterValue("censys.query.scan_rows") - rows0);
      (p.query.suffix_aggregate ? suffix_rows_ : exact_rows_) += rows;
      (p.query.suffix_aggregate ? suffix_s_ : exact_s_) += secs;
    }
  }
  const double wall_s = SecondsSince(t0);
  batch_wall_s_ += wall_s;
  batch_qps_.AddRate(
      static_cast<double>(routed.size() + aggregates.size()) / wall_s,
      slowdown_);
  batch_cpu_s_ += CpuSeconds() - cpu0;
  batch_queries_ += routed.size() + aggregates.size();
}

// Digests every journal, one after another on one check thread (so one
// arena holds the row copies JournalDigest makes), with `beside` on a
// second.
void Bench::CheckReplicas(std::function<void()> beside) {
  auto& group = rig_->group();
  std::vector<std::uint64_t> digests(group.size());
  checks_.Run({[&] {
                 leader_digest_ = censys::replicate::JournalDigest(
                     rig_->engine().journal());
                 for (std::size_t i = 0; i < group.size(); ++i) {
                   digests[i] = group.follower(i).Digest();
                 }
               },
               std::move(beside)});
  for (std::size_t i = 0; i < group.size(); ++i) {
    std::string why;
    verdict_.Expect(SameDigest(digests[i], leader_digest_, &why),
                    "replicate.digest", group.follower(i).name() + ": " + why);
  }
}

// `own_search` holds the benchmark's own answer to each search, in batch
// order. Its matcher is the token test itself, so an answer equal to it
// holds every searched token in the searched field.
void Bench::CheckBatch(const std::vector<PlannedQuery>& routed,
                       const std::vector<QueryResult>& results,
                       const std::vector<std::vector<std::string>>& own_search,
                       const std::vector<PlannedQuery>& aggregates,
                       const std::vector<censys::serving::QueryOutcome>& served,
                       Timestamp now) {
  auto& engine = rig_->engine();
  std::size_t search_index = 0;

  const std::size_t stride = std::max<std::size_t>(
      1, (batch_.lookups + batch_.histories) / kViewChecks);
  std::size_t sampled = 0;
  for (std::size_t j = 0; j < routed.size(); ++j) {
    const PlannedQuery& p = routed[j];
    const QueryResult& r = results[j];
    const auto& a = r.answer;
    hedged_ += r.hedged;
    failovers_ += r.failovers;
    if (a.stale) ++stale_;
    const char* kind = "";
    switch (p.query.kind) {
      case Kind::kLookup:
        kind = "lookup";
        lookup_us_.AddTime(r.latency_us, slowdown_);
        break;
      case Kind::kHistory:
        kind = "history";
        history_us_.AddTime(r.latency_us, slowdown_);
        break;
      case Kind::kSearch:
        kind = "search";
        search_us_.AddTime(r.latency_us, slowdown_);
        break;
      case Kind::kAnalytics:
        kind = "analytics";
        break;
      case Kind::kAggregate:
        break;
    }
    KindCount& count = kinds_[kind];
    ++count.attempted;
    verdict_.Expect(a.answered && !a.stale && !a.shed && !a.outcome.failed &&
                        !a.outcome.degraded,
                    std::string(kind) + ".served",
                    "answer missing, stale, shed, failed or degraded");
    const bool sample =
        (p.query.kind == Kind::kLookup || p.query.kind == Kind::kHistory) &&
        sampled++ % stride == 0;
    std::vector<censys::serving::RoutedAnswer> check;
    if (sample) rig_->check_router().Run({p.query}, &check);
    std::string why;
    switch (p.query.kind) {
      case Kind::kLookup:
        if (sample) {
          verdict_.Expect(
              SameView(Record(check[0].outcome.view),
                       Record(engine.read_side().GetHost(p.query.ip)), true,
                       &why),
              "lookup.view", p.query.ip.ToString() + ": " + why);
        }
        break;
      case Kind::kHistory: {
        const RecordedView& want = history_pool_[p.aux].view;
        verdict_.Expect(a.outcome.results == want.records.size(),
                        "history.count",
                        p.query.ip.ToString() + ": " +
                            std::to_string(a.outcome.results) +
                            " services, recorded " +
                            std::to_string(want.records.size()));
        if (sample) {
          verdict_.Expect(
              SameView(Record(check[0].outcome.view), want, false, &why),
              "history.view", p.query.ip.ToString() + ": " + why);
        }
        break;
      }
      case Kind::kSearch: {
        const std::vector<std::string>& want = own_search[search_index++];
        search_results_.push_back(static_cast<double>(a.outcome.results));
        verdict_.Expect(a.outcome.results == want.size(), "search.count",
                        p.query.text + ": " +
                            std::to_string(a.outcome.results) +
                            " results, expected " + std::to_string(want.size()));
        // The answering replica's index, at the leader's LSN.
        const auto& index =
            rig_->group()
                .follower(static_cast<std::size_t>(std::max(a.replica, 0)))
                .index();
        std::string error;
        verdict_.Expect(SameSet(index.Search(p.query.text, &error), want, &why),
                        "search.answer", p.query.text + ": " + why);
        if (!sample_search_ && !want.empty()) {
          sample_search_.emplace(p.aux, want);
        }
        break;
      }
      case Kind::kAnalytics: {
        // A follower answer that differs from the leader's is a failed
        // operation: followers hold no analytics store (a known fault).
        const auto leader = rig_->leader_frontend().ServeOne(p.query);
        if (leader.hit != a.outcome.hit ||
            leader.results != a.outcome.results) {
          ++count.failed;
        }
        break;
      }
      case Kind::kAggregate:
        break;
    }
  }

  // The served answer carries only its group count; the full groups come
  // from the same tier call the frontend makes for that day.
  const std::int64_t day = now.minutes / (24 * 60);
  for (std::size_t k = 0; k < aggregates.size(); ++k) {
    const PlannedQuery& p = aggregates[k];
    const AggregateSpec& spec = kAggregateSpecs[p.aux];
    const censys::serving::QueryOutcome& outcome = served[k];
    ++kinds_["aggregate"].attempted;
    const auto agg = spec.suffix
                         ? rig_->tier().GroupCountSuffix(day, spec.field)
                         : rig_->tier().GroupCount(day, spec.field);
    const std::vector<Groups>* own = rig_->OwnGroups(agg.day);
    if (own == nullptr) {
      verdict_.Fail("aggregate.groups", std::string(spec.field) +
                                            ": no own count for day " +
                                            std::to_string(agg.day));
      continue;
    }
    const Groups& want = (*own)[p.aux];
    std::string why;
    verdict_.Expect(ServedAggregateMatches(outcome, want, &why),
                    "aggregate.served", std::string(spec.field) + ": " + why);
    verdict_.Expect(agg.from_segment && SameGroups(agg.groups, want, &why),
                    "aggregate.groups", std::string(spec.field) + ": " + why);
  }
}

// Each check must reject a deliberately altered answer.
void Bench::SelfTest(Timestamp now) {
  self_tested_ = true;
  std::string why;
  int cases = 0, rejected = 0;
  auto expect_reject = [&](bool accepted, const char* what) {
    ++cases;
    if (!accepted) {
      ++rejected;
    } else {
      verdict_.Fail("self-test",
                    std::string(what) + " accepted an altered answer");
    }
  };
  expect_reject(SameDigest(leader_digest_ ^ 1, leader_digest_, &why), "digest");
  for (const HistoryEntry& h : history_pool_) {
    if (h.view.records.empty()) continue;
    RecordedView altered = h.view;
    altered.records[0].banner += " altered";
    expect_reject(SameView(altered, h.view, false, &why), "view.record");
    altered = h.view;
    ++altered.watermark;
    expect_reject(SameView(altered, h.view, true, &why), "view.watermark");
    altered = h.view;
    altered.records.pop_back();
    expect_reject(SameView(altered, h.view, false, &why), "view.services");
    break;
  }
  if (sample_search_) {
    const auto& [pool_index, want] = *sample_search_;
    const auto& journal = rig_->engine().journal();
    std::map<std::string, censys::storage::FieldMap, std::less<>> docs;
    auto doc = [&](std::string_view id) -> const censys::storage::FieldMap* {
      auto it = docs.find(id);
      if (it == docs.end()) {
        auto fields = JournalDoc(journal, id);
        if (!fields.has_value()) return nullptr;
        it = docs.emplace(std::string(id), std::move(*fields)).first;
      }
      return &it->second;
    };
    auto extra = want;
    extra.push_back(want[0] == "0.0.0.1" ? "0.0.0.2" : "0.0.0.1");
    expect_reject(CheckSearch(extra, want, search_pool_[pool_index], doc, &why),
                  "search.set");
    std::vector<Term> wrong = search_pool_[pool_index];
    wrong[0].token += "x";
    expect_reject(CheckSearch(want, want, wrong, doc, &why), "search.token");
  }
  if (const auto* own = rig_->OwnGroups(now.minutes / (24 * 60))) {
    for (const Groups& g : *own) {
      if (g.empty()) continue;
      Groups altered = g;
      ++altered.begin()->second;
      expect_reject(SameGroups(altered, g, &why), "aggregate.groups");
      censys::serving::QueryOutcome served;
      served.hit = true;
      served.results = g.size() + 1;
      expect_reject(ServedAggregateMatches(served, g, &why),
                    "aggregate.served");
      break;
    }
  }
  for (const auto& [id, expr] : rig_->standing_ids()) {
    auto matched = rig_->standing().MatchedEntities(id);
    if (matched.empty()) continue;
    const auto want = matched;
    matched.pop_back();
    expect_reject(SameSet(matched, want, &why), "standing.set");
    break;
  }
  expect_reject(LiveShareAtLeast(79, 100, kLiveFloor, &why), "live.floor");
  constexpr int kCases = 10;
  verdict_.Expect(cases == kCases && rejected == cases, "self-test",
                  std::to_string(rejected) + "/" + std::to_string(cases) +
                      " altered answers rejected, expected " +
                      std::to_string(kCases));
  std::fprintf(stderr, "mapbench: self-test: %d/%d altered answers rejected\n",
               rejected, cases);
}

void Bench::EndChecks() {
  auto& engine = rig_->engine();
  // A fresh index filled from the journal at the final LSN (every follower
  // caught up to it and nothing has ticked since), built on a second
  // thread while this one runs the liveness scans.
  censys::search::SearchIndex fresh;
  std::thread build([&] {
    engine.journal().ForEachEntity(
        [&](std::string_view id, const censys::storage::FieldMap& fields) {
          if (!fields.empty()) fresh.Index(id, fields);
        });
  });

  // Follow-up liveness scans of reported services from the neutral vantage
  // (the paper's §6.1 method, as in bench/table2_coverage_accuracy).
  Rng ip_rng(opt_.seed + 7);
  const std::uint32_t universe = 1u << kUniverseBits;
  std::uint64_t returned = 0, live = 0;
  for (int probe = 0; probe < 200000 && returned < 2000; ++probe) {
    const IPv4Address ip(
        static_cast<std::uint32_t>(ip_rng.NextBelow(universe)));
    for (const auto& entry : engine.QueryHost(ip)) {
      ++returned;
      if (censys::engines::ValidateLive(rig_->world().internet(), entry.key,
                                        rig_->world().now())) {
        ++live;
      }
    }
  }
  std::string why;
  verdict_.Expect(LiveShareAtLeast(live, returned, kLiveFloor, &why),
                  "live.floor", why);
  live_share_ = returned == 0 ? 0
                              : static_cast<double>(live) /
                                    static_cast<double>(returned);
  build.join();

  auto doc = [&](std::string_view id) { return fresh.GetDocument(id); };
  for (const auto& terms : search_pool_) {
    const std::string text = SearchText(terms);
    std::string error;
    const auto want = fresh.Search(text, &error);
    for (std::size_t i = 0; i < rig_->group().size(); ++i) {
      const auto& follower = rig_->group().follower(i);
      verdict_.Expect(CheckSearch(follower.index().Search(text, &error), want,
                                  terms, doc, &why),
                      "search.fresh_index",
                      follower.name() + " " + text + ": " + why);
    }
  }
  for (const auto& [id, expr] : rig_->standing_ids()) {
    std::string error;
    verdict_.Expect(SameSet(rig_->standing().MatchedEntities(id),
                            fresh.Search(expr, &error), &why),
                    "standing.matched", expr + ": " + why);
  }
}

// `scaled`: timed figures at the nominal host speed (the reported ones), or
// as measured.
std::vector<Metric> Bench::EndToEndMetrics(bool scaled) const {
  const std::vector<double>& tick_ms = tick_ms_.get(scaled);
  // Whole simulated days: any 12 consecutive 2-hour ticks hold exactly one
  // daily-job tick.
  const std::size_t days = tick_ms.size() / kTicksPerDay;
  double day_ms = 0;
  for (std::size_t i = 0; i < days * kTicksPerDay; ++i) day_ms += tick_ms[i];
  return {
      // Set-up is scaled by the run's median slowdown: a probe taken just
      // after the probe's table was filled would find it in the cache.
      {"setup_s", scaled ? setup_s_ / host_.Median() : setup_s_, "s"},
      // The program's peak: the probe's table is the benchmark's own.
      {"peak_rss_mb", rss_.PeakMb() - HostSpeed::TableMb(), "MB"},
      {"sim_hours_per_s", 24.0 * static_cast<double>(days) / (day_ms / 1e3),
       "h/s"},
      {"tick_ms_p50", Median(tick_ms), "ms"},
      {"replica_catchup_ms_p50", Median(catchup_ms_.get(scaled)), "ms"},
      {"serve_qps", Median(batch_qps_.get(scaled)), "1/s"},
      {"lookup_us_p50", Percentile(lookup_us_.get(scaled), 0.5), "us"},
      {"lookup_us_p99", Percentile(lookup_us_.get(scaled), 0.99), "us"},
      {"history_us_p50", Percentile(history_us_.get(scaled), 0.5), "us"},
      {"search_us_p50", Percentile(search_us_.get(scaled), 0.5), "us"},
      {"aggregate_ms_p50", Percentile(aggregate_ms_.get(scaled), 0.5), "ms"},
  };
}

std::vector<Metric> Bench::PerLayerMetrics() const {
  using T = const TickSample&;
  // Per tick: times as medians, counts as means.
  auto median = [&](auto&& field) {
    std::vector<double> v;
    for (const TickSample& t : ticks_) v.push_back(field(t));
    return Median(v);
  };
  auto mean = [&](auto&& field) {
    std::vector<double> v;
    for (const TickSample& t : ticks_) {
      v.push_back(static_cast<double>(field(t)));
    }
    return Mean(v);
  };
  std::vector<double> daily_ms;
  double tick_wall_s = 0, tick_cpu_s = 0, evals = 0, calls = 0;
  for (const TickSample& t : ticks_) {
    if (t.stats.daily_us > 0) {
      daily_ms.push_back(t.stats.daily_us / 1e3 - t.check_ms);
    }
    tick_wall_s += t.raw_ms / 1e3;
    tick_cpu_s += t.cpu_s;
    evals += static_cast<double>(t.evals);
    calls += static_cast<double>(t.observer_calls);
  }
  const double hits = static_cast<double>(rig_->CacheHits() - cache_hits0_);
  const double misses =
      static_cast<double>(rig_->CacheMisses() - cache_misses0_);
  const double rounds = static_cast<double>(ticks_.size());
  auto& group = rig_->group();
  return {
      {"engines.refresh_ms", median([](T t) { return t.stats.refresh_us / 1e3; }), "ms"},
      {"engines.commit_ms", median([](T t) { return t.stats.commit_us / 1e3; }), "ms"},
      {"engines.commit_stalls", mean([](T t) { return t.stats.commit_stalls; }), "count"},
      {"engines.commit_occupancy", median([](T t) { return t.stats.commit_occupancy; }), "ratio"},
      {"engines.discovery_ms", median([](T t) { return t.stats.discovery_us / 1e3; }), "ms"},
      {"engines.interrogate_ms", median([](T t) { return t.stats.interrogate_us / 1e3; }), "ms"},
      {"engines.worker_occupancy", median([](T t) { return t.stats.worker_occupancy; }), "ratio"},
      {"engines.help_runs", mean([](T t) { return t.stats.help_runs; }), "count"},
      {"engines.daily_ms", Median(daily_ms), "ms"},
      {"simnet.advance_ms", median([](T t) { return t.raw_ms - t.stats.total_us / 1e3; }), "ms"},
      {"scan.candidates", mean([](T t) { return t.stats.candidates; }), "count"},
      {"scan.probes", mean([](T t) { return t.probes; }), "count"},
      {"interrogate.interrogations", mean([](T t) { return t.stats.interrogations; }), "count"},
      {"interrogate.handshakes", mean([](T t) { return t.stats.handshakes; }), "count"},
      {"interrogate.busy_ms", median([](T t) { return t.stats.worker_busy_us / 1e3; }), "ms"},
      {"pipeline.ingests", mean([](T t) { return t.stats.ingests; }), "count"},
      {"pipeline.commit_busy_ms", median([](T t) { return t.stats.commit_busy_us / 1e3; }), "ms"},
      {"pipeline.batch_flushes", mean([](T t) { return t.stats.batch_flushes; }), "count"},
      {"pipeline.view_cache_hit_ratio", hits + misses == 0 ? 0 : hits / (hits + misses), "ratio"},
      {"storage.journal_events", mean([](T t) { return t.stats.journal_events; }), "count"},
      {"storage.wal_mb", static_cast<double>(DirBytes(rig_->dir() / "wal")) / (1024.0 * 1024.0), "MB"},
      {"replicate.pump_ms_p50", Median(pump_ms_), "ms"},
      {"replicate.shipments", static_cast<double>(group.shipments() - shipments0_) / rounds, "count"},
      {"replicate.records_shipped", static_cast<double>(group.shipped_records() - shipped0_) / rounds, "count"},
      {"replicate.bootstrap_ms", Median(rig_->bootstrap_ms()), "ms"},
      {"search.results_per_query", Mean(search_results_), "count"},
      {"search.index_docs", static_cast<double>(group.follower(0).index().doc_count()), "count"},
      {"query.oncommit_ms", median([](T t) { return t.oncommit_ms; }), "ms"},
      {"query.evals_per_commit", calls == 0 ? 0 : evals / calls, "count"},
      {"query.match_events", mean([](T t) { return t.match_events; }), "count"},
      {"query.segment_build_ms", Median(rig_->segment_build_ms()), "ms"},
      {"query.segment_mb", Median(rig_->segment_mb()), "MB"},
      {"query.suffix_rows_per_s", suffix_s_ > 0 ? suffix_rows_ / suffix_s_ : 0, "rows/s"},
      {"query.exact_rows_per_s", exact_s_ > 0 ? exact_rows_ / exact_s_ : 0, "rows/s"},
      {"serving.hedged", static_cast<double>(hedged_) / rounds, "count"},
      {"serving.failovers", static_cast<double>(failovers_) / rounds, "count"},
      {"serving.stale", static_cast<double>(stale_) / rounds, "count"},
      {"core.tick_cpu_util", tick_cpu_s / tick_wall_s, "ratio"},
      {"core.serve_cpu_util", batch_cpu_s_ / batch_wall_s_, "ratio"},
      {"core.host_slowdown", host_.Median(), "ratio"},
  };
}

void Bench::Report(const std::vector<Metric>& metrics) {
  std::fprintf(stderr,
               "mapbench: workload=%s seed=%llu workers=%d clients=%d "
               "followers=%zu standing=%zu trace=%d\n",
               w_.name.c_str(), static_cast<unsigned long long>(opt_.seed),
               workers_, clients_, w_.followers, kStandingQueries,
               opt_.trace ? 1 : 0);
  std::fprintf(stderr,
               "mapbench: batch per round: %zu lookups, %zu histories, %zu "
               "searches, %zu analytics, %zu aggregates\n",
               batch_.lookups, batch_.histories, batch_.searches,
               batch_.analytics, batch_.aggregates);
  std::fprintf(stderr,
               "mapbench: set-up %.1f s, %.1f s of rounds (%.1f s of "
               "checks), end-of-run checks %.1f s, %zu ticks (%zu whole "
               "days), %llu queries, %llu checks, live share %.3f\n",
               setup_s_, run_s_, check_s_, end_check_s_, ticks_.size(),
               ticks_.size() / kTicksPerDay,
               static_cast<unsigned long long>(batch_queries_),
               static_cast<unsigned long long>(verdict_.checks()),
               live_share_);
  std::fprintf(stderr,
               "mapbench: samples: ticks=%zu catchups=%zu "
               "pumps=%zu lookups=%zu histories=%zu searches=%zu "
               "aggregates=%zu history_pool=%zu\n",
               ticks_.size(), catchup_ms_.size(),
               pump_ms_.size(), lookup_us_.size(), history_us_.size(),
               search_us_.size(), aggregate_ms_.size(), history_pool_.size());
  // The end-to-end figures as measured, before scaling to the nominal
  // host speed.
  std::fprintf(stderr, "mapbench: host slowdown %.4f (median of %zu probes)\n",
               host_.Median(), ticks_.size());
  for (const Metric& m : EndToEndMetrics(false)) {
    std::fprintf(stderr, "mapbench: unscaled %-24s %12.6g %s\n",
                 m.name.c_str(), m.value, m.unit);
  }
  if (opt_.trace) {
    // The traced run's end-to-end figures, to compare with untraced runs.
    for (const Metric& m : EndToEndMetrics(true)) {
      std::fprintf(stderr, "mapbench: traced %-24s %12.6g %s\n",
                   m.name.c_str(), m.value, m.unit);
    }
    std::vector<const SpanLog*> all;
    for (const SpanLog& l : logs_) all.push_back(&l);
    std::fprintf(stderr, "mapbench: %-20s %9s %12s %12s\n", "span", "count",
                 "total_ms", "self_ms");
    for (const auto& [name, lt] : SummarizeSpans(all)) {
      std::fprintf(stderr, "mapbench: %-20s %9llu %12.1f %12.1f\n",
                   name.c_str(), static_cast<unsigned long long>(lt.count),
                   lt.total_ms, lt.self_ms);
    }
    const fs::path path = out_dir_ / ("trace-" + w_.name + "-" +
                                      std::to_string(opt_.seed) + ".json");
    if (WriteChromeTrace(path.string(), all)) {
      std::fprintf(stderr, "mapbench: spans written to %s\n", path.c_str());
    } else {
      verdict_.Fail("trace", "cannot write " + path.string());
    }
  }

  std::uint64_t attempted = 0, failed = 0;
  for (const auto& [name, kc] : kinds_) {
    std::printf("operations %-10s attempted %8llu failed %8llu\n",
                name.c_str(), static_cast<unsigned long long>(kc.attempted),
                static_cast<unsigned long long>(kc.failed));
    attempted += kc.attempted;
    failed += kc.failed;
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-30s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              verdict_.ok() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  if (argc % 2 == 0) return false;  // every flag takes one value
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const char* value = argv[i + 1];
    if (arg == "--workload") {
      opt->workload = value;
    } else if (arg == "--seed") {
      opt->seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      opt->seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      opt->trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--workers") {
      opt->workers = std::atoi(value);
    } else if (arg == "--out") {
      opt->out = value;
    } else {
      return false;
    }
  }
  return !opt->workload.empty() && opt->seconds > 0;
}

}  // namespace
}  // namespace mapbench

int main(int argc, char** argv) {
  mapbench::Options opt;
  if (!mapbench::ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: mapbench --workload ingest|serve --seed N "
                 "--seconds S --trace 0|1 [--workers N] [--out DIR]\n");
    return 2;
  }
  const auto workload = mapbench::WorkloadNamed(opt.workload);
  if (!workload.has_value()) {
    std::fprintf(stderr, "mapbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  auto bench = std::make_unique<mapbench::Bench>(opt, *workload);
  bench->Run();
  // Tearing the world down takes seconds and measures nothing: the run's
  // files are already removed, so end the process (and every thread in it)
  // without running destructors. A run that failed a check exits 1 after
  // printing its result.
  std::fflush(nullptr);
  std::_Exit(bench->ok() ? 0 : 1);
}
