#include "engines/censys_engine.h"

#include <algorithm>
#include <vector>

#include "core/thread_safety.h"
#include "core/trace.h"
#include "pipeline/entity.h"
#include "proto/banner.h"

namespace censys::engines {
namespace {

// Builds the daily priority port list: the ~100 most responsive ports plus
// the IANA-assigned ports of every protocol of interest (which is how the
// security-critical ICS ports get daily coverage despite their rarity).
std::vector<Port> BuildPriorityPorts(const simnet::PortModel& ports,
                                     std::size_t top_n) {
  std::vector<Port> list = ports.TopPorts(top_n);
  for (const proto::ProtocolInfo& info : proto::AllProtocols()) {
    for (Port p : info.assigned_ports) list.push_back(p);
  }
  std::sort(list.begin(), list.end());
  list.erase(std::unique(list.begin(), list.end()), list.end());
  return list;
}

// Secondary pivot tables (§5.2) from one applied event: each service the
// delta names is re-observed from the post-state, or forgotten when the
// post-state no longer holds it. Reads only the event: the observer runs
// inside the write side's group-commit flush.
void UpdatePivots(search::PivotIndex& pivots,
                  const storage::AppliedEvent& event) {
  const std::optional<IPv4Address> ip = IPv4Address::Parse(event.entity_id);
  if (!ip.has_value()) return;  // not a host entity
  std::vector<ServiceKey> keys;
  for (const storage::FieldOp& op : event.delta->ops) {
    if (const auto key = pipeline::ServiceKeyOf(op.key, *ip)) {
      keys.push_back(*key);
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (const ServiceKey key : keys) {
    if (const auto record = pipeline::RecordFrom(*event.post_state, key)) {
      pivots.Observe(key, record->cert_sha256, record->jarm);
    } else {
      pivots.Forget(key);
    }
  }
}

}  // namespace

CensysEngine::CensysEngine(simnet::Internet& net, cert::CtLog& ct_log,
                           Config config)
    : net_(net), ct_log_(ct_log), config_(config),
      journal_(config.journal_options),
      rng_(SplitMix64(config.seed ^ 0xCE5515)) {
  // §8: ~576 probes per public IP per day, spread over five /24s of
  // identifying source addresses.
  profile_ = simnet::ScannerProfile{1, "censys", 576.0, 1280.0};

  executor_ = std::make_unique<Executor>(config_.threads);

  roots_ = cert::RootStore::Default();
  discovery_ = std::make_unique<scan::DiscoveryEngine>(
      net_, profile_, config_.pop_count, config_.seed);
  discovery_->SetExclusionList(&exclusions_);
  discovery_->SetExecutor(executor_.get());
  scheduler_ = std::make_unique<scan::ScanScheduler>(*discovery_);
  interrogator_ = std::make_unique<interrogate::Interrogator>(net_, profile_);
  interrogator_->SetCertificateObserver(
      [this](const interrogate::PresentedCertificate& presented,
             ServiceKey presented_by, Timestamp at) {
        cert_store_.ObserveFromScan(presented.certificate, presented.sha256_hex,
                                    presented_by, at);
      });
  predictive_ = std::make_unique<predict::PredictiveEngine>(net_.blocks(),
                                                            config_.seed);
  write_side_ = std::make_unique<pipeline::WriteSide>(journal_,
                                                      config_.write_options);
  tick_pipeline_ = std::make_unique<TickPipeline>(
      *executor_, *interrogator_, *write_side_, *predictive_,
      config_.commit_batch);
  fingerprints_ = fingerprint::FingerprintEngine::BuiltIn();
  cves_ = fingerprint::CveDatabase::BuiltIn();
  enricher_ = std::make_unique<ContextEnricher>(net_.blocks(), &fingerprints_,
                                                &cves_);
  read_side_ = std::make_unique<pipeline::ReadSide>(journal_, *write_side_,
                                                    enricher_.get());
  read_side_->EnableCache(config_.view_cache);

  // --- scan classes (§4.1) -----------------------------------------------------
  const std::vector<Port> priority =
      BuildPriorityPorts(net_.ports(), config_.priority_top_ports);
  for (Port p : priority) {
    priority_port_set_.insert(p);
    priority_port_set_.insert(0x10000u | p);  // udp marker shares the set
  }
  scan::ScheduledClass priority_class;
  priority_class.klass.name = "priority-ports";
  priority_class.klass.ports = priority;
  priority_class.klass.period = Duration::Days(1);
  scheduler_->AddClass(std::move(priority_class));

  if (config_.enable_cloud_class) {
    scan::ScheduledClass cloud_class;
    cloud_class.klass.name = "cloud-networks";
    cloud_class.klass.ports = net_.ports().TopPorts(config_.cloud_ports);
    cloud_class.klass.blocks =
        net_.blocks().BlocksOfType(simnet::NetworkType::kCloud);
    cloud_class.klass.period = Duration::Days(1);
    scheduler_->AddClass(std::move(cloud_class));
  }

  // Event processing (§5.2): the secondary pivot tables follow the
  // journal's commit stream.
  journal_.SetCommitObserver(
      [this](const std::vector<storage::AppliedEvent>& batch) {
        for (const storage::AppliedEvent& event : batch) {
          UpdatePivots(pivots_, event);
        }
      });

  if (config_.enable_background) {
    scan::ScheduledClass background;
    background.klass.name = "background-65k";
    background.klass.period = Duration::Days(1);
    const std::size_t per_day = config_.background_ports_per_day;
    const std::uint64_t seed = config_.seed;
    background.port_provider = [per_day, seed](std::uint64_t pass) {
      return scan::BackgroundPortSlice(pass, per_day, seed);
    };
    scheduler_->AddClass(std::move(background));
  }

  // --- observability -----------------------------------------------------------
  // Bind after every component and scan class exists so gauges cover them.
  discovery_->BindMetrics(&metrics_);
  scheduler_->BindMetrics(&metrics_);
  interrogator_->BindMetrics(&metrics_);
  predictive_->BindMetrics(&metrics_);
  journal_.BindMetrics(&metrics_);
  write_side_->BindMetrics(&metrics_);
  read_side_->BindMetrics(&metrics_);
  index_.BindMetrics(&metrics_);
  ticks_metric_ = metrics::BindCounter(&metrics_, "censys.engine.ticks");
  stage_discovery_metric_ =
      metrics::BindHistogram(&metrics_, "censys.engine.stage.discovery_us");
  stage_interrogate_metric_ =
      metrics::BindHistogram(&metrics_, "censys.engine.stage.interrogate_us");
  stage_parallel_metric_ = metrics::BindHistogram(
      &metrics_, "censys.engine.stage.interrogate_parallel_us");
  stage_refresh_metric_ =
      metrics::BindHistogram(&metrics_, "censys.engine.stage.refresh_us");
  stage_daily_metric_ =
      metrics::BindHistogram(&metrics_, "censys.engine.stage.daily_us");
  stage_commit_metric_ =
      metrics::BindHistogram(&metrics_, "censys.engine.stage.commit_us");
  refresh_due_metric_ =
      metrics::BindHistogram(&metrics_, "censys.engine.refresh_due_us");
  predict_generate_metric_ =
      metrics::BindHistogram(&metrics_, "censys.predict.generate_us");
  snapshot_metric_ =
      metrics::BindHistogram(&metrics_, "censys.engine.snapshot_us");
  tick_metric_ = metrics::BindHistogram(&metrics_, "censys.engine.tick_us");
  rebuild_metric_ =
      metrics::BindHistogram(&metrics_, "censys.search.rebuild_us");
}

double CensysEngine::BootstrapKnownProbability(const simnet::SimService& svc,
                                               Timestamp t0) const {
  const bool priority = priority_port_set_.contains(
      svc.key.transport == Transport::kUdp ? (0x10000u | svc.key.port)
                                           : std::uint32_t{svc.key.port});
  if (priority) {
    // Probed daily; only persistent visibility gaps hide it.
    if (svc.key.transport == Transport::kUdp) {
      // UDP needs a protocol-specific probe on an assigned port.
      const auto assigned =
          proto::AssignedToPort(svc.key.port, Transport::kUdp);
      const bool probed = std::find(assigned.begin(), assigned.end(),
                                    svc.protocol) != assigned.end();
      return probed ? 0.95 : 0.0;
    }
    return 0.97;
  }
  if (svc.key.transport == Transport::kUdp) return 0.0;

  const simnet::NetworkBlock& block = net_.blocks().BlockOf(svc.key.ip);
  if (config_.enable_cloud_class &&
      block.type == simnet::NetworkType::kCloud &&
      net_.ports().RankOf(svc.key.port) <= config_.cloud_ports) {
    return 0.95;
  }

  // Background sweep + predictive equilibrium for everything else. The
  // paper's background scan completes a full pass of all 65K ports every
  // nine months (§4.1), so the chance an age-A service has been swept grows
  // linearly to 1 over ~270 days; the predictive engine adds a coverage
  // floor that saturates over the first weeks of a service's life.
  const double age_days = (t0 - svc.born).ToDays();
  double p_bg = 0.0;
  if (config_.enable_background) {
    p_bg = std::min(1.0, age_days / 270.0);
  }
  double p_pred = 0.0;
  if (config_.enable_predictive) {
    p_pred = std::min(0.55, age_days * 0.04);
  }
  return 1.0 - (1.0 - p_bg) * (1.0 - p_pred);
}

void CensysEngine::Bootstrap(Timestamp t0) {
  if (!config_.warm_start) return;
  std::vector<simnet::SimService> to_seed;
  net_.ForEachActiveService(t0, [&](const simnet::SimService& svc) {
    if (svc.pseudo) return;
    Rng fork = rng_.Fork(svc.key.Pack());
    if (fork.NextDouble() < BootstrapKnownProbability(svc, t0)) {
      to_seed.push_back(svc);
    }
  });
  for (const simnet::SimService& svc : to_seed) {
    simnet::L7Session session;
    session.service = svc;
    if (proto::GetInfo(svc.protocol).server_talks_first) {
      session.server_first_banner =
          proto::GenerateBanner(svc.protocol, svc.seed);
    }
    std::optional<proto::Protocol> udp_hint;
    if (svc.key.transport == Transport::kUdp) udp_hint = svc.protocol;
    // The accumulated dataset was last refreshed within the past day.
    Rng fork = rng_.Fork(svc.key.Pack() ^ 0x0B5EE);
    const Timestamp observed =
        t0 - Duration{static_cast<std::int64_t>(
                 fork.NextDouble() *
                 static_cast<double>(config_.refresh_interval.minutes))};
    interrogate::ServiceRecord record =
        interrogator_->BuildRecord(session, observed, udp_hint, {});
    write_side_->IngestScan(record);
    predictive_->ObserveService(svc.key);
  }
}

void CensysEngine::RunInterrogationBatch(
    const std::vector<InterrogationJob>& jobs) {
  if (jobs.empty()) return;
  // Stages 3-5, overlapped: workers claim jobs from an atomic cursor and
  // stage pure interrogation results into sequence slots; the command
  // thread commits them strictly in candidate-sequence order with
  // group-committed journal appends (see engines/tick_pipeline.h). The
  // journal is identical no matter how stage 3 interleaved.
  const metrics::ScopedTimer timer(stage_parallel_metric_);
  tick_pipeline_->Run(jobs);
}

void CensysEngine::DrainScanQueue() {
  // Drains run on the command thread: the freshness check below follows
  // GetState's pointer without copying.
  const core::ThreadRoleGuard role(write_side_->command_role());
  // Wave loop: each wave takes at most one candidate per service key so the
  // freshness check against write-side state observes the previous wave's
  // commits — the same thing the old one-at-a-time loop got for free.
  while (!scan_queue_.empty()) {
    std::vector<InterrogationJob> jobs;
    std::deque<scan::Candidate> deferred;
    std::unordered_set<std::uint64_t> claimed;
    while (!scan_queue_.empty()) {
      const scan::Candidate candidate = scan_queue_.front();
      scan_queue_.pop_front();
      if (exclusions_.IsExcluded(candidate.key.ip, candidate.discovered_at)) {
        continue;
      }
      // Already fresh? Skip (continuous scans rediscover known services all
      // the time; the refresh path owns re-interrogation cadence).
      if (const pipeline::ServiceState* state =
              write_side_->GetState(candidate.key)) {
        if (state->last_refreshed + config_.refresh_interval >
            candidate.discovered_at) {
          continue;
        }
      }
      if (!config_.two_phase_validation) {
        // Ablation: publish the L4 hit labeled by port assumption, the way
        // naive pipelines do — no handshake, no validation (§4.1 explains
        // why Censys does not do this).
        ProcessThinRecord(candidate.key, candidate.discovered_at);
        continue;
      }
      if (!claimed.insert(candidate.key.Pack()).second) {
        deferred.push_back(candidate);
        continue;
      }
      InterrogationJob job;
      job.key = candidate.key;
      job.at = candidate.discovered_at;
      job.pop = next_pop_;
      next_pop_ = (next_pop_ + 1) % config_.pop_count;
      job.udp_hint = candidate.udp_protocol;
      // Ingests for flagged pseudo hosts are suppressed before a prepared
      // ingest is ever read; skip preparing it in the worker. Safe even
      // if the flag races a later wave: the unprepared commit path
      // computes the same fields and delta on the command thread.
      job.prepare = !write_side_->IsPseudoFlagged(candidate.key.ip);
      jobs.push_back(job);
    }
    scan_queue_ = std::move(deferred);
    RunInterrogationBatch(jobs);
  }
}

void CensysEngine::ProcessThinRecord(ServiceKey key, Timestamp at) {
  interrogate::ServiceRecord record;
  record.key = key;
  record.observed_at = at;
  const auto assigned = proto::AssignedToPort(key.port, key.transport);
  record.protocol =
      assigned.empty() ? proto::Protocol::kUnknown : assigned.front();
  record.detection = interrogate::DetectionMethod::kPortAssumption;
  record.handshake_validated = false;
  write_side_->IngestScan(record);
}

void CensysEngine::RunRefresh(Timestamp to) {
  std::vector<pipeline::ServiceState> due;
  {
    const metrics::ScopedTimer timer(refresh_due_metric_);
    due = write_side_->DueForRefresh(to - config_.refresh_interval);
  }
  if (!config_.two_phase_validation) {
    // Naive-pipeline ablation: refresh is an L4 probe, no L7 validation.
    for (const pipeline::ServiceState& item : due) {
      const int pop = next_pop_;
      next_pop_ = (next_pop_ + 1) % config_.pop_count;
      if (discovery_->ProbeOne(item.key, to, pop)) {
        ProcessThinRecord(item.key, to);
      } else {
        write_side_->IngestFailure(item.key, to);
      }
    }
    return;
  }

  // Serial pre-pass: PoP rotation and opt-out decisions in due-list order,
  // exactly as the serial loop made them.
  std::vector<InterrogationJob> jobs;
  jobs.reserve(due.size());
  for (const pipeline::ServiceState& item : due) {
    InterrogationJob job;
    job.key = item.key;
    job.at = to;
    job.ingest_failure_on_miss = true;
    job.observe_predictive = false;
    if (exclusions_.IsExcluded(item.key.ip, to)) {
      // Opted-out networks stop being refreshed; their services age into
      // pending eviction and drop out of the dataset.
      job.interrogate = false;
      jobs.push_back(job);
      continue;
    }
    // "If a service appears unresponsive from one PoP, we attempt to scan
    // it from the other PoPs over the following 24 hours" — pending
    // services rotate PoPs on each retry.
    job.pop = item.pending_eviction_since.has_value()
                  ? next_pop_
                  : static_cast<int>(item.key.Pack() %
                                     static_cast<std::uint64_t>(
                                         config_.pop_count));
    next_pop_ = (next_pop_ + 1) % config_.pop_count;
    if (item.key.transport == Transport::kUdp) {
      const auto assigned =
          proto::AssignedToPort(item.key.port, Transport::kUdp);
      if (!assigned.empty()) job.udp_hint = assigned.front();
    }
    jobs.push_back(job);
  }
  RunInterrogationBatch(jobs);
}

void CensysEngine::RunPredictive(Timestamp from, Timestamp to) {
  const double day_fraction =
      static_cast<double>((to - from).minutes) / (24.0 * 60.0);
  const std::size_t budget = static_cast<std::size_t>(
      config_.predictive_budget_per_day_frac *
      static_cast<double>(net_.blocks().universe_size()) * day_fraction);
  std::vector<ServiceKey> candidates;
  {
    const metrics::ScopedTimer timer(predict_generate_metric_);
    candidates = predictive_->GenerateCandidates(to, budget);
  }
  for (const ServiceKey key : candidates) {
    const int pop = next_pop_;
    next_pop_ = (next_pop_ + 1) % config_.pop_count;
    if (!discovery_->ProbeOne(key, to, pop)) continue;
    scan_queue_.push_back(
        scan::Candidate{key, to, "predictive", std::nullopt, next_seq_++});
  }
  DrainScanQueue();
}

void CensysEngine::RunReinjection(Timestamp day_start) {
  const std::int64_t day = day_start.minutes / 1440;
  std::vector<ServiceKey> to_probe;
  write_side_->ForEachPruned([&](const pipeline::WriteSide::PrunedService& p) {
    const double age_days = (day_start - p.pruned_at).ToDays();
    if (age_days < 0) return;
    // Daily for the first week after pruning, weekly thereafter.
    const bool due = age_days <= 7.0 ||
                     (static_cast<std::int64_t>(p.key.Pack() % 7) == day % 7);
    if (due) to_probe.push_back(p.key);
  });
  // Serial L4 pre-pass; L4 responders go through the parallel stage with
  // the same PoP their probe used.
  std::vector<InterrogationJob> jobs;
  for (ServiceKey key : to_probe) {
    const int pop = next_pop_;
    next_pop_ = (next_pop_ + 1) % config_.pop_count;
    std::optional<proto::Protocol> udp_hint;
    if (key.transport == Transport::kUdp) {
      const auto assigned = proto::AssignedToPort(key.port, Transport::kUdp);
      if (!assigned.empty()) udp_hint = assigned.front();
    }
    if (!discovery_->ProbeOne(key, day_start, pop, udp_hint)) continue;
    InterrogationJob job;
    job.key = key;
    job.at = day_start;
    job.pop = pop;
    job.udp_hint = udp_hint;
    jobs.push_back(job);
  }
  RunInterrogationBatch(jobs);
}

void CensysEngine::TakeAnalyticsSnapshot(Timestamp day_start) {
  const metrics::ScopedTimer timer(snapshot_metric_);
  search::DailySnapshot snapshot;
  snapshot.day = day_start.minutes / 1440;
  const core::ThreadRoleGuard role(journal_.command_role());
  // Services arrive in key order, so each host is one run of them and
  // shares one state lookup.
  std::optional<IPv4Address> host;
  const storage::FieldMap* fields = nullptr;
  write_side_->ForEachTracked([&](const pipeline::ServiceState& state) {
    ++snapshot.total_services;
    ++snapshot.by_port[state.key.port];
    if (host != state.key.ip) {
      host = state.key.ip;
      ++snapshot.total_hosts;
      fields = journal_.CurrentState(pipeline::HostEntityId(state.key.ip));
    }
    const proto::Protocol label =
        fields != nullptr ? pipeline::ServiceProtocol(*fields, state.key)
                          : proto::Protocol::kUnknown;
    ++snapshot.by_protocol[std::string(proto::Name(label))];
    if (state.key.ip.value() < net_.blocks().universe_size()) {
      ++snapshot.by_country[std::string(simnet::ToString(
          net_.blocks().BlockOf(state.key.ip).country))];
    }
  });
  analytics_.AddSnapshot(std::move(snapshot));
  analytics_.ThinOut(day_start);
}

void CensysEngine::Tick(Timestamp from, Timestamp to) {
  TRACE_SPAN("engine", "tick");
  const metrics::ScopedTimer tick_timer(tick_metric_);
  ticks_metric_.Add();
  TickStats stats;
  const std::uint64_t candidates0 =
      metrics_.CounterValue("censys.scan.candidates");
  const std::uint64_t attempts0 =
      metrics_.CounterValue("censys.interrogate.attempts");
  const std::uint64_t handshakes0 =
      metrics_.CounterValue("censys.interrogate.handshakes");
  const std::uint64_t ingests0 =
      metrics_.CounterValue("censys.pipeline.ingest_scans");
  const std::uint64_t failures0 =
      metrics_.CounterValue("censys.pipeline.ingest_failures");
  const std::uint64_t events0 = metrics_.CounterValue("censys.storage.events");
  tick_pipeline_->ResetStats();

  // Stage 1: L4 discovery. Candidates are stamped with a sequence number in
  // discovery order; everything downstream commits in that order.
  {
    metrics::ScopedTimer timer(stage_discovery_metric_);
    TRACE_SPAN("engine", "stage.discovery");
    scheduler_->Tick(from, to, [this](const scan::Candidate& candidate) {
      scan::Candidate stamped = candidate;
      stamped.seq = next_seq_++;
      scan_queue_.push_back(stamped);
    });
    stats.discovery_us = timer.ElapsedMicros();
  }

  // Stages 2-5 for this tick's discoveries: queue -> parallel L7
  // interrogation -> validation -> in-sequence CQRS ingest.
  {
    metrics::ScopedTimer timer(stage_interrogate_metric_);
    TRACE_SPAN("engine", "stage.interrogate");
    DrainScanQueue();
    stats.interrogate_us = timer.ElapsedMicros();
  }

  // Refresh cadence + predictive discoveries ride the same staged path.
  {
    metrics::ScopedTimer timer(stage_refresh_metric_);
    TRACE_SPAN("engine", "stage.refresh");
    RunRefresh(to);
    if (config_.enable_predictive) RunPredictive(from, to);
    stats.refresh_us = timer.ElapsedMicros();
  }

  const std::int64_t day = to.minutes / 1440;
  if (day != last_daily_run_) {
    metrics::ScopedTimer timer(stage_daily_metric_);
    TRACE_SPAN("engine", "stage.daily");
    last_daily_run_ = day;
    const Timestamp day_start{day * 1440};
    RunReinjection(day_start);
    // CT polling into the certificate store and the daily revalidation
    // pass (§4.4, §4.6).
    for (const cert::CtEntry& entry : ct_log_.EntriesSince(ct_cert_cursor_)) {
      if (entry.logged_at > day_start) break;
      ct_cert_cursor_ = entry.index + 1;
      cert_store_.ObserveFromCt(entry, day_start);
    }
    cert_store_.RevalidateAll(day_start);
    TakeAnalyticsSnapshot(day_start);
    // Externally attached daily work (e.g. the web-property catalog's CT
    // poll + refresh, wired by web/attach.h) runs after the engine's own
    // steps, in registration order.
    for (const auto& job : daily_jobs_) job(day_start);
    stats.daily_us = timer.ElapsedMicros();
  }

  // Final stage: eviction sweep.
  {
    metrics::ScopedTimer timer(stage_commit_metric_);
    TRACE_SPAN("engine", "stage.commit");
    write_side_->AdvanceTo(to);
    stats.commit_us = timer.ElapsedMicros();
  }

  stats.candidates =
      metrics_.CounterValue("censys.scan.candidates") - candidates0;
  stats.interrogations =
      metrics_.CounterValue("censys.interrogate.attempts") - attempts0;
  stats.handshakes =
      metrics_.CounterValue("censys.interrogate.handshakes") - handshakes0;
  stats.ingests =
      metrics_.CounterValue("censys.pipeline.ingest_scans") - ingests0;
  stats.failures =
      metrics_.CounterValue("censys.pipeline.ingest_failures") - failures0;
  stats.journal_events =
      metrics_.CounterValue("censys.storage.events") - events0;
  stats.total_us = tick_timer.ElapsedMicros();

  const TickPipelineStats& pipe = tick_pipeline_->stats();
  stats.pipeline_jobs = pipe.jobs;
  stats.pipeline_waves = pipe.waves;
  stats.help_runs = pipe.help_runs;
  stats.commit_stalls = pipe.commit_stalls;
  stats.batch_flushes = pipe.batch_flushes;
  stats.pipeline_wall_us = pipe.wall_us;
  stats.worker_busy_us = pipe.worker_busy_us;
  stats.commit_busy_us = pipe.commit_busy_us;
  if (pipe.wall_us > 0) {
    // Jobs run on the workers and, as help runs, on the command thread.
    const int job_threads = executor_->thread_count() + 1;
    stats.worker_occupancy = pipe.worker_busy_us / (pipe.wall_us * job_threads);
    stats.commit_occupancy = pipe.commit_busy_us / pipe.wall_us;
  }
  last_tick_ = stats;
}

EngineEntry CensysEngine::EntryFor(const pipeline::ServiceState& state) const {
  EngineEntry entry;
  entry.key = state.key;
  entry.first_seen = state.first_seen;
  // "Last scanned" is the most recent refresh attempt; services pending
  // eviction keep getting probed, so Censys data is never >48 h old (Fig 2).
  entry.last_scanned = state.last_refreshed;
  entry.record_count = 1;
  const core::ThreadRoleGuard role(journal_.command_role());
  if (const storage::FieldMap* fields =
          journal_.CurrentState(pipeline::HostEntityId(state.key.ip))) {
    entry.label = pipeline::ServiceProtocol(*fields, state.key);
  }
  return entry;
}

std::vector<EngineEntry> CensysEngine::QueryHost(IPv4Address ip) const {
  std::vector<EngineEntry> entries;
  const core::ThreadRoleGuard journal_role(journal_.command_role());
  const core::ThreadRoleGuard write_role(write_side_->command_role());
  const storage::FieldMap* fields =
      journal_.CurrentState(pipeline::HostEntityId(ip));
  if (fields == nullptr) return entries;
  for (ServiceKey key : pipeline::ServicesIn(*fields, ip)) {
    const pipeline::ServiceState* state = write_side_->GetState(key);
    if (state == nullptr) continue;
    entries.push_back(EntryFor(*state));
  }
  return entries;
}

void CensysEngine::ForEachEntry(
    const std::function<void(const EngineEntry&)>& fn) const {
  write_side_->ForEachTracked([&](const pipeline::ServiceState& state) {
    fn(EntryFor(state));
  });
}

std::uint64_t CensysEngine::SelfReportedCount() const {
  return write_side_->tracked_count();
}

std::optional<interrogate::ServiceRecord> CensysEngine::RequestScan(
    ServiceKey key, Timestamp now) {
  if (exclusions_.IsExcluded(key.ip, now)) return std::nullopt;
  const int pop = next_pop_;
  next_pop_ = (next_pop_ + 1) % config_.pop_count;
  std::optional<proto::Protocol> udp_hint;
  if (key.transport == Transport::kUdp) {
    const auto assigned = proto::AssignedToPort(key.port, Transport::kUdp);
    if (!assigned.empty()) udp_hint = assigned.front();
  }
  const core::ThreadRoleGuard role(write_side_->command_role());
  auto record = interrogator_->Interrogate(key, now, pop, udp_hint);
  if (record.has_value()) {
    write_side_->IngestScan(*record);
    predictive_->ObserveService(key);
  } else if (write_side_->GetState(key) != nullptr) {
    write_side_->IngestFailure(key, now);
  }
  return record;
}

std::size_t CensysEngine::RebuildSearchIndex() {
  const metrics::ScopedTimer timer(rebuild_metric_);
  return search::IndexJournal(journal_, index_);
}

}  // namespace censys::engines
