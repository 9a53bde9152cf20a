// The Censys engine: the paper's full architecture wired together as an
// explicit staged tick pipeline.
//
//   stage 1  L4 discovery (3 continuous scan classes, multi-PoP)   §4.1
//   stage 2  sequence-stamped candidate queue
//   stage 3  L7 interrogation (LZR detection) — fanned out across
//            a core::Executor thread pool                          §4.2
//   stage 4  validation + deterministic in-sequence commit
//   stage 5  CQRS write side -> Bigtable-style event journal       §5.2
//            -> commit stream -> pivot tables; read side + enrichment
//   plus: predictive scanning, daily refresh, 72-hour
//   eviction with 60-day re-injection, CT polling, web
//   properties, daily analytics snapshots.                         §4.1–5.3
//
// Stage 3 is the dominant cost and the only parallel stage: interrogation
// is pure (InterrogateDetached), PoPs are assigned serially before fan-out,
// and results are committed in candidate-sequence order — so a run with
// Config::threads = N produces a byte-identical event journal to the
// threads = 0 single-threaded fallback.
//
// Every layer reports into a metrics::Registry (names follow
// `censys.<layer>.<name>`); TickReport() summarizes the last tick.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "cert/ct.h"
#include "cert/store.h"
#include "core/executor.h"
#include "core/metrics.h"
#include "engines/engine.h"
#include "engines/enrichment.h"
#include "engines/tick_pipeline.h"
#include "fingerprint/fingerprints.h"
#include "fingerprint/vulns.h"
#include "interrogate/interrogator.h"
#include "pipeline/read_side.h"
#include "pipeline/write_side.h"
#include "predict/predictive.h"
#include "scan/discovery.h"
#include "scan/exclusion.h"
#include "scan/scheduler.h"
#include "search/analytics.h"
#include "search/index.h"
#include "search/pivots.h"
#include "simnet/internet.h"
#include "storage/journal.h"

namespace censys::engines {

// Per-tick pipeline summary: counter deltas across the tick plus wall-clock
// stage timings. Aggregates live in the metrics registry.
struct TickStats {
  std::uint64_t candidates = 0;      // stage-1 L4 responders queued
  std::uint64_t interrogations = 0;  // stage-3 detached interrogations
  std::uint64_t handshakes = 0;      // completed L7 sessions
  std::uint64_t ingests = 0;         // stage-5 records ingested
  std::uint64_t failures = 0;        // failed refreshes ingested
  std::uint64_t journal_events = 0;  // journal rows written

  double discovery_us = 0;    // stage 1
  double interrogate_us = 0;  // stages 2-5 for discovered candidates
  double refresh_us = 0;      // refresh + predictive re-interrogation
  double daily_us = 0;        // daily jobs (reinjection, CT, analytics)
  double commit_us = 0;       // eviction sweep
  double total_us = 0;

  // Overlapped interrogation pipeline (stages 3-5) detail, summed over
  // every wave of the tick.
  std::uint64_t pipeline_jobs = 0;     // jobs run through the pipeline
  std::uint64_t pipeline_waves = 0;    // job batches run
  // Jobs the commit thread ran itself; with threads = 0 that is every job.
  std::uint64_t help_runs = 0;
  std::uint64_t commit_stalls = 0;     // committer yields on a pending slot
  std::uint64_t batch_flushes = 0;     // group-commit flushes
  double pipeline_wall_us = 0;         // wall clock inside the pipeline
  double worker_busy_us = 0;           // interrogation time, all threads
  double commit_busy_us = 0;           // serial commit time
  // Busy / wall fractions under overlap: how much of the pipeline's wall
  // clock each stage actually worked. worker_occupancy is normalized by
  // the threads that run jobs, the workers plus the helping command thread
  // (1.0 = all of them interrogating the whole time), so it never exceeds
  // 1.0; commit_occupancy by the one command thread.
  double worker_occupancy = 0;
  double commit_occupancy = 0;
};

class CensysEngine : public ScanEngine {
 public:
  struct Config {
    std::uint64_t seed = 1;
    int pop_count = 3;  // Chicago, Frankfurt, Hong Kong (§4.5)

    // Interrogation worker threads. 0 = single-threaded fallback: the
    // pipeline runs the exact same staged code path inline, and the event
    // journal is byte-identical to any threads > 0 run.
    int threads = 0;

    // Commits per group-commit flush (stage 4-5): the write side stages
    // this many journal appends before draining them as one WAL batch
    // write. Batch size changes WAL write granularity only, never journal
    // content — tests assert byte-identical journals across sizes.
    std::uint32_t commit_batch = 64;

    // Scan classes (§4.1).
    std::size_t priority_top_ports = 100;   // most responsive ports, daily
    std::size_t cloud_ports = 300;          // cloud-infra ports, daily
    std::size_t background_ports_per_day = 100;  // rotating 65K sweep

    // Refresh & eviction (§4.6).
    Duration refresh_interval = Duration::Days(1);

    // Predictive engine (§4.1).
    bool enable_predictive = true;
    double predictive_budget_per_day_frac = 0.05;  // of universe size

    // Ablation switches (DESIGN.md §4).
    bool enable_background = true;
    bool enable_cloud_class = true;
    bool two_phase_validation = true;  // false: publish L4 hits unvalidated

    // Warm start: seed the dataset with the steady-state it would have
    // reached after years of operation (DESIGN.md §5).
    bool warm_start = true;

    pipeline::WriteSide::Options write_options{};

    // Journal lock striping (shard count changes contention, never
    // content — journals stay byte-identical across shard counts).
    storage::EventJournal::Options journal_options{};

    // Per-host view cache for read-side lookups (watermark-invalidated).
    pipeline::ViewCache::Options view_cache{};
  };

  CensysEngine(simnet::Internet& net, cert::CtLog& ct_log, Config config);

  // Seeds the steady-state dataset at `t0` and trains the predictive
  // models from it. Call once before the first Tick.
  void Bootstrap(Timestamp t0);

  // --- ScanEngine -------------------------------------------------------------
  std::string_view name() const override { return "Censys"; }
  std::uint32_t scanner_id() const override { return profile_.scanner_id; }
  void Tick(Timestamp from, Timestamp to) override;
  std::vector<EngineEntry> QueryHost(IPv4Address ip) const override;
  void ForEachEntry(
      const std::function<void(const EngineEntry&)>& fn) const override;
  std::uint64_t SelfReportedCount() const override;
  bool SupportsProtocolQuery(proto::Protocol) const override { return true; }

  // --- observability ----------------------------------------------------------
  // Summary of the most recent Tick (counter deltas + stage timings).
  const TickStats& TickReport() const { return last_tick_; }
  // Cumulative instruments for every layer; Render() gives the text dump
  // used by benches and examples.
  metrics::Registry& metrics() { return metrics_; }
  const metrics::Registry& metrics() const { return metrics_; }

  // --- component access (examples, benches) -----------------------------------
  // The query frontend (serving::ServingFrontend) and the web-property
  // catalog (web::WebPropertyCatalog) live in layers *above* engines; wire
  // them from outside against read_side()/search_index()/analytics() and
  // net()/interrogator()/ct_log() (web/attach.h does the latter).
  const pipeline::ReadSide& read_side() const { return *read_side_; }
  pipeline::WriteSide& write_side() { return *write_side_; }
  const pipeline::WriteSide& write_side() const { return *write_side_; }
  storage::EventJournal& journal() { return journal_; }
  const storage::EventJournal& journal() const { return journal_; }
  const search::AnalyticsStore& analytics() const { return analytics_; }
  const predict::PredictorStats& predictor_stats() const {
    return predictive_->stats();
  }
  scan::ScanScheduler& scheduler() { return *scheduler_; }
  // Opt-out list (§8): excluded prefixes are never probed and their
  // tracked services are dropped at the next refresh cycle.
  scan::ExclusionList& exclusions() { return exclusions_; }
  const simnet::ScannerProfile& profile() const { return profile_; }
  std::uint64_t probes_sent() const { return discovery_->probes_sent(); }
  const Config& config() const { return config_; }
  Executor& executor() { return *executor_; }

  // Wiring points for the layers above (serving, web): the simulated
  // network, the shared L7 scanner, and the CT log the engine polls.
  simnet::Internet& net() { return net_; }
  interrogate::Interrogator& interrogator() { return *interrogator_; }
  const cert::CtLog& ct_log() const { return ct_log_; }

  // Registers a job run once per simulated day, at the same tick boundary
  // as the engine's own daily work (reinjection, CT polling, analytics).
  // Jobs run in registration order after the engine's internal daily
  // steps; the argument is the day-start timestamp. Callers must ensure
  // anything the job captures outlives the engine's ticking.
  void AddDailyJob(std::function<void(Timestamp)> job) {
    daily_jobs_.push_back(std::move(job));
  }

  // Certificate entities (§4.4) and secondary pivot tables (§5.2).
  const cert::CertificateStore& cert_store() const { return cert_store_; }
  cert::CrlStore& crl_store() { return crls_; }
  const search::PivotIndex& pivots() const { return pivots_; }

  // Real-time scan request (Figure 1 "User Requests"): interrogates the
  // target immediately, ingests the result, and returns the fresh record
  // (nullopt if nothing answered).
  std::optional<interrogate::ServiceRecord> RequestScan(ServiceKey key,
                                                        Timestamp now);

  // Rebuilds the full-text index from current entity state (the walk a
  // follower bootstrap shares, search::IndexJournal); returns the number
  // of indexed documents.
  std::size_t RebuildSearchIndex();
  const search::SearchIndex& search_index() const { return index_; }

 private:
  EngineEntry EntryFor(const pipeline::ServiceState& state) const;
  // Stages 2-5 for everything queued: builds per-wave job lists (one job
  // per key per wave so freshness checks see earlier commits), fans
  // interrogation out, commits in sequence order.
  void DrainScanQueue();
  // Stage 3+4 core: parallel detached interrogation of `jobs`, then
  // serial in-order commit into the write side.
  void RunInterrogationBatch(const std::vector<InterrogationJob>& jobs);
  // Naive-pipeline ablation path: journal an unvalidated port-labeled
  // record for an L4 responder.
  void ProcessThinRecord(ServiceKey key, Timestamp at);
  void RunRefresh(Timestamp to);
  void RunPredictive(Timestamp from, Timestamp to);
  void RunReinjection(Timestamp day_start);
  void TakeAnalyticsSnapshot(Timestamp day_start);
  double BootstrapKnownProbability(const simnet::SimService& svc,
                                   Timestamp t0) const;

  simnet::Internet& net_;
  cert::CtLog& ct_log_;
  Config config_;
  simnet::ScannerProfile profile_;

  // Declared before every component that binds instruments so handles
  // stay valid for the components' full lifetime.
  metrics::Registry metrics_;
  std::unique_ptr<Executor> executor_;

  scan::ExclusionList exclusions_;
  std::unique_ptr<scan::DiscoveryEngine> discovery_;
  std::unique_ptr<scan::ScanScheduler> scheduler_;
  std::unique_ptr<interrogate::Interrogator> interrogator_;
  std::unique_ptr<predict::PredictiveEngine> predictive_;

  storage::EventJournal journal_;
  cert::RootStore roots_;
  cert::CrlStore crls_;
  cert::CertificateStore cert_store_{roots_, crls_};
  search::PivotIndex pivots_;
  std::uint64_t ct_cert_cursor_ = 0;
  std::unique_ptr<pipeline::WriteSide> write_side_;
  std::unique_ptr<TickPipeline> tick_pipeline_;
  fingerprint::FingerprintEngine fingerprints_;
  fingerprint::CveDatabase cves_;
  // Binds geo/fingerprint/CVE context into the read side (declared after
  // its sources, before the ReadSide holding the pointer).
  std::unique_ptr<ContextEnricher> enricher_;
  std::unique_ptr<pipeline::ReadSide> read_side_;
  search::SearchIndex index_;
  search::AnalyticsStore analytics_;
  std::vector<std::function<void(Timestamp)>> daily_jobs_;

  std::deque<scan::Candidate> scan_queue_;
  std::uint64_t next_seq_ = 0;  // discovery-order candidate stamp
  std::unordered_set<std::uint64_t> priority_port_set_;
  Rng rng_;
  std::int64_t last_daily_run_ = -1;
  int next_pop_ = 0;

  TickStats last_tick_;
  metrics::CounterHandle ticks_metric_;
  metrics::HistogramHandle stage_discovery_metric_;
  metrics::HistogramHandle stage_interrogate_metric_;
  metrics::HistogramHandle stage_parallel_metric_;
  metrics::HistogramHandle stage_refresh_metric_;
  metrics::HistogramHandle stage_daily_metric_;
  metrics::HistogramHandle stage_commit_metric_;
  metrics::HistogramHandle refresh_due_metric_;
  metrics::HistogramHandle predict_generate_metric_;
  metrics::HistogramHandle snapshot_metric_;
  metrics::HistogramHandle tick_metric_;
  metrics::HistogramHandle rebuild_metric_;
};

}  // namespace censys::engines
