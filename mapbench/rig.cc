#include "rig.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <functional>

namespace mapbench {
namespace {

namespace fs = std::filesystem;

double MsSince(std::int64_t t0) {
  return static_cast<double>(NowNs() - t0) / 1e6;
}

}  // namespace

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

std::optional<Workload> WorkloadNamed(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "ingest") {
    // The light batch: an eighth of the host count a round keeps the batch
    // well under a tick's time and still gives the lookup tail enough
    // samples (see README.md).
    w.lookup_divisor = 8;
    return w;
  }
  if (name == "serve") {
    // The full batch: half the host count a round, so two rounds draw
    // about as many lookups as there are hosts.
    w.followers = 2;
    return w;
  }
  return std::nullopt;
}

const char* const kAnalyticsProtocols[4] = {"HTTP", "SSH", "TLS", "SMTP"};

Batch BatchFor(const Workload& w, std::size_t hosts, std::size_t search_pool) {
  Batch b;
  b.lookups = std::max<std::size_t>(1, hosts / w.lookup_divisor);
  b.histories = std::max<std::size_t>(1, b.lookups / 10);
  b.searches = search_pool;
  b.analytics = std::size(kAnalyticsProtocols);
  b.aggregates = std::size(kAggregateSpecs);
  return b;
}

const AggregateSpec kAggregateSpecs[3] = {
    {"svc.80/tcp.service.name", false},
    {".service.name", true},
    {".software.product", true},
};

std::vector<std::string> StandingPopulation(std::size_t target) {
  static const char* kPorts[] = {"21",   "22",   "23",  "25",   "53",
                                 "80",   "110",  "143", "443",  "465",
                                 "587",  "993",  "995", "1883", "3306",
                                 "5432", "6379", "8080", "8443", "9200"};
  static const char* kNames[] = {"http", "ssh",  "ftp",   "smtp",
                                 "dns",  "imap", "pop3",  "mysql",
                                 "redis", "mqtt", "https", "telnet"};
  static const char* kWords[] = {"nginx", "apache", "openssh", "iis",
                                 "postfix", "unauthorized", "default",
                                 "login", "admin", "camera"};
  static const char* kProducts[] = {"nginx", "apache httpd", "openssh",
                                    "postfix", "dovecot", "mysql", "redis",
                                    "mosquitto", "haproxy", "lighttpd"};
  static const char* kNotPorts[] = {"80", "443", "22"};
  // Per 2,000 queries: 10 any-field, 9 NOT, the rest field-constrained.
  const std::size_t any_field = std::max<std::size_t>(1, target / 200);
  const std::size_t negated = std::max<std::size_t>(1, target * 9 / 2000);
  std::vector<std::string> out;
  for (std::size_t i = 0; i < any_field; ++i) {
    out.push_back(kWords[i % std::size(kWords)]);
  }
  for (std::size_t i = 0; i < negated; ++i) {
    out.push_back(std::string("NOT svc.") + kNotPorts[i / 3 % 3] +
                  "/tcp.service.name: " + kNames[i % 3]);
  }
  for (std::size_t i = 0; out.size() < target; ++i) {
    const std::string prefix =
        std::string("svc.") + kPorts[i % std::size(kPorts)] + "/tcp.";
    switch ((i / std::size(kPorts)) % 4) {
      case 0:
        out.push_back(prefix + "service.name: " +
                      kNames[i % std::size(kNames)]);
        break;
      case 1:
        out.push_back(prefix + "service.banner: " +
                      kWords[i % std::size(kWords)]);
        break;
      case 2:
        out.push_back(prefix + "software.product: \"" +
                      kProducts[i % std::size(kProducts)] + "\"");
        break;
      default:
        out.push_back(prefix + "service.validated: true");
        break;
    }
  }
  return out;
}

void Verdict::Fail(const std::string& check, const std::string& why) {
  if (failures_ < 20) {
    std::fprintf(stderr, "mapbench: CHECK FAILED [%s] %s\n", check.c_str(),
                 why.c_str());
  }
  ++failures_;
}

Rig::Rig(const Workload& w, int workers, fs::path dir, int clients,
         CheckThreads* checks, Verdict* verdict)
    : checks_(checks), verdict_(verdict), dir_(std::move(dir)) {
  fs::create_directories(dir_ / "segments");
  censys::engines::WorldConfig cfg;
  cfg.universe.seed = kWorldSeed;
  cfg.universe.universe_size = 1u << kUniverseBits;
  cfg.universe.target_services = kServices;
  cfg.universe.ics_scale = 64.0;
  cfg.with_alternatives = false;
  cfg.censys.seed = kWorldSeed;
  cfg.censys.threads = workers;
  cfg.censys.journal_options.wal.dir = (dir_ / "wal").string();
  world_ = std::make_unique<censys::engines::World>(cfg);
  auto& engine = world_->censys();

  tier_ = std::make_unique<censys::query::AnalyticsTier>(
      engine.journal(),
      censys::query::AnalyticsTier::Options{(dir_ / "segments").string()});
  tier_->BindMetrics(&engine.metrics());
  engine.AddDailyJob(
      [this](censys::Timestamp day_start) { DailyJob(day_start); });

  standing_.BindMetrics(&engine.metrics());
  for (const std::string& expr : StandingPopulation(kStandingQueries)) {
    std::string error;
    const auto id = standing_.Register(expr, expr, &error);
    verdict_->Expect(id.has_value(), "standing.register", expr + ": " + error);
    if (id.has_value()) standing_ids_.emplace_back(*id, expr);
  }
  engine.journal().SetCommitObserver(
      [this](const std::vector<censys::storage::AppliedEvent>& batch) {
        const ScopedSpan span(spans_, "query.oncommit", round_);
        const std::int64_t t0 = NowNs();
        standing_.OnCommit(batch);
        oncommit_ns_ += NowNs() - t0;
        ++observer_calls_;
      });

  world_->Bootstrap();
  // Warm-up: one tick. The first tick also runs day 0's daily work, so the
  // leader holds an analytics snapshot and a column segment before serving.
  world_->RunUntil(world_->now() + censys::Duration::Hours(2));

  group_ = std::make_unique<censys::replicate::ReplicationGroup>(
      engine.journal());
  group_->BindMetrics(&engine.metrics());
  for (std::size_t i = 0; i < w.followers; ++i) {
    group_->AddFollower("f" + std::to_string(i));
    std::string error;
    const std::int64_t t0 = NowNs();
    const bool ok = group_->BootstrapFollower(i, &error);
    bootstrap_ms_.push_back(MsSince(t0));
    verdict_->Expect(ok, "replicate.bootstrap", error);
    verdict_->Expect(group_->CatchUp(i, 1 << 20, &error),
                     "replicate.bootstrap_catchup", error);
  }

  censys::serving::ServingFrontend::Options fo;
  fo.threads = 0;  // ServeOne runs inline on the calling client thread
  std::vector<censys::serving::ReplicaRouter::Endpoint> endpoints;
  for (std::size_t i = 0; i < w.followers; ++i) {
    const auto& f = group_->follower(i);
    frontends_.push_back(std::make_unique<censys::serving::ServingFrontend>(
        f.read_side(), f.index(), f.analytics(), fo));
    endpoints.push_back({frontends_.back().get(), &f});
  }
  leader_frontend_ = std::make_unique<censys::serving::ServingFrontend>(
      engine.read_side(), engine.search_index(), engine.analytics(), fo);
  leader_frontend_->AttachAnalyticsTier(tier_.get());

  auto leader_lsn = [this] { return group_->leader_lsn(); };
  for (int c = 0; c < clients; ++c) {
    censys::serving::ReplicaRouter::Options ro;
    ro.threads = 0;
    ro.seed = static_cast<std::uint64_t>(c) + 1;
    routers_.push_back(std::make_unique<censys::serving::ReplicaRouter>(
        endpoints, leader_lsn, ro));
  }
  censys::serving::ReplicaRouter::Options check_options;
  check_options.threads = 0;
  check_options.capture_views = true;
  check_router_ = std::make_unique<censys::serving::ReplicaRouter>(
      endpoints, leader_lsn, check_options);
  RefreshHosts();
}

Rig::~Rig() {
  // Routers and frontends point into the followers and the engine.
  check_router_.reset();
  routers_.clear();
  leader_frontend_.reset();
  frontends_.clear();
  group_.reset();
  tier_.reset();
  world_.reset();
  std::error_code ec;
  fs::remove_all(dir_, ec);
}

TickSample Rig::Tick(std::uint32_t round) {
  round_ = round;
  auto& engine = world_->censys();
  const auto& m = engine.metrics();
  const std::uint64_t evals0 = m.CounterValue("censys.query.standing.evals");
  const std::uint64_t events0 =
      m.CounterValue("censys.query.standing.events");
  const std::uint64_t probes0 = engine.probes_sent();
  const std::int64_t oncommit0 = oncommit_ns_;
  const std::uint64_t calls0 = observer_calls_;
  const std::int64_t check0 = check_ns_;
  const double cpu0 = CpuSeconds();

  TickSample s;
  {
    const ScopedSpan span(spans_, "engines.tick", round);
    const std::int64_t t0 = NowNs();
    world_->RunUntil(world_->now() + censys::Duration::Hours(2));
    s.raw_ms = MsSince(t0);
  }
  s.cpu_s = CpuSeconds() - cpu0;
  s.check_ms = static_cast<double>(check_ns_ - check0) / 1e6;
  s.wall_ms = s.raw_ms - s.check_ms;
  s.oncommit_ms = static_cast<double>(oncommit_ns_ - oncommit0) / 1e6;
  s.observer_calls = observer_calls_ - calls0;
  s.evals = m.CounterValue("censys.query.standing.evals") - evals0;
  s.match_events = m.CounterValue("censys.query.standing.events") - events0;
  s.probes = engine.probes_sent() - probes0;
  s.stats = engine.TickReport();
  if (s.stats.daily_us > 0) RefreshHosts();
  return s;
}

bool Rig::CatchUp(std::uint32_t round, std::vector<double>* pump_ms) {
  const ScopedSpan span(spans_, "replicate.catchup", round);
  const std::uint64_t target = group_->leader_lsn();
  for (std::size_t i = 0; i < group_->size(); ++i) {
    auto& follower = group_->follower(i);
    for (int pumps = 0; follower.applied_lsn() < target; ++pumps) {
      if (pumps > (1 << 20)) return false;
      std::string error;
      const ScopedSpan pump_span(spans_, "replicate.pump", round);
      const std::int64_t t0 = NowNs();
      const bool ok = group_->PumpFollower(i, &error);
      pump_ms->push_back(MsSince(t0));
      if (!ok) {
        verdict_->Fail("replicate.pump", error);
        return false;
      }
    }
  }
  return true;
}

std::uint64_t Rig::CacheHits() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < group_->size(); ++i) {
    if (const auto* cache = group_->follower(i).read_side().cache()) {
      total += cache->hits();
    }
  }
  return total;
}

std::uint64_t Rig::CacheMisses() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < group_->size(); ++i) {
    if (const auto* cache = group_->follower(i).read_side().cache()) {
      total += cache->misses();
    }
  }
  return total;
}

const std::vector<Groups>* Rig::OwnGroups(std::int64_t day) const {
  const auto it = own_groups_.find(day);
  return it == own_groups_.end() ? nullptr : &it->second;
}

void Rig::DailyJob(censys::Timestamp day_start) {
  const std::int64_t day = day_start.minutes / (24 * 60);
  const auto& m = world_->censys().metrics();
  const std::uint64_t bytes0 = m.CounterValue("censys.query.segment_bytes");
  {
    const ScopedSpan span(spans_, "query.build_day", round_);
    std::string error;
    const std::int64_t t0 = NowNs();
    const bool ok = tier_->BuildDay(day, &error);
    build_ms_.push_back(MsSince(t0));
    verdict_->Expect(ok, "query.build_day", error);
  }
  segment_mb_.push_back(
      static_cast<double>(m.CounterValue("censys.query.segment_bytes") -
                          bytes0) /
      (1024.0 * 1024.0));
  // The aggregate oracle: the benchmark's own counts over the journal
  // state the segment froze, kept for the last two days.
  const std::int64_t t0 = NowNs();
  std::vector<Groups>& own = own_groups_[day];
  own.assign(std::size(kAggregateSpecs), Groups{});
  std::vector<std::function<void()>> jobs;
  for (std::size_t i = 0; i < own.size(); ++i) {
    jobs.push_back([this, &own, i] {
      own[i] = OwnGroupCount(world_->censys().journal(),
                             kAggregateSpecs[i].field,
                             kAggregateSpecs[i].suffix);
    });
  }
  checks_->Run(std::move(jobs));
  while (own_groups_.size() > 2) own_groups_.erase(own_groups_.begin());
  check_ns_ += NowNs() - t0;
}

void Rig::RefreshHosts() {
  const std::int64_t t0 = NowNs();
  checks_->RunOne([this] {
    hosts_.clear();
    for (const std::string& id : world_->censys().journal().EntityIds()) {
      if (const auto ip = censys::IPv4Address::Parse(id)) hosts_.push_back(*ip);
    }
  });
  check_ns_ += NowNs() - t0;
}

}  // namespace mapbench
