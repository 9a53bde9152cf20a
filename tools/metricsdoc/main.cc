// metricsdoc: generates and verifies docs/METRICS.md from the live registry.
//
// Constructs a fully wired CensysEngine (tiny universe, WAL-backed journal,
// view cache, serving frontend) so every BindMetrics() hook runs, then
// walks metrics::Registry::ForEachInstrument:
//
//   --dump-metrics         print the reference table (markdown) to stdout;
//                          regenerating docs/METRICS.md is
//                          `metricsdoc --dump-metrics > docs/METRICS.md`
//   --check <METRICS.md>   exit 1 if any registered metric is missing from
//                          the doc (the tier-1 drift test)
//
// Descriptions live in the table below; the tool exits 2 if a registered
// metric has no description, so adding an instrument forces a doc entry.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "engines/world.h"
#include "query/columnar.h"
#include "query/standing.h"
#include "replicate/group.h"
#include "serving/frontend.h"
#include "serving/replica_router.h"

namespace {

struct MetricDoc {
  // Exact metric name, or a prefix ending in '.' matching a dynamic family
  // (e.g. "censys.scan.pass_permille." covers every scan class gauge).
  const char* name;
  const char* stage;
  const char* meaning;
};

constexpr MetricDoc kDocs[] = {
    {"censys.engine.ticks", "engine", "Simulation ticks executed."},
    {"censys.engine.tick_us", "engine", "Wall time per full tick."},
    {"censys.engine.stage.discovery_us", "engine",
     "Tick stage 1: L4 discovery / target generation."},
    {"censys.engine.stage.interrogate_us", "engine",
     "Tick stages 2-5: scan-queue drain incl. parallel interrogation."},
    {"censys.engine.stage.interrogate_parallel_us", "engine",
     "Parallel fan-out portion of an interrogation batch."},
    {"censys.engine.stage.refresh_us", "engine",
     "Refresh cadence + predictive discovery stage."},
    {"censys.engine.stage.daily_us", "engine",
     "Daily stage: reinjection, CT polling, revalidation, analytics."},
    {"censys.engine.stage.commit_us", "engine",
     "Final stage: the eviction sweep (WriteSide::AdvanceTo) over the "
     "pending-eviction list."},
    {"censys.engine.refresh_due_us", "engine",
     "Refresh stage: building the due set from the due-time index."},
    {"censys.engine.snapshot_us", "engine",
     "Daily stage: the analytics snapshot's walk of the tracked services."},
    {"censys.predict.generate_us", "predict",
     "Refresh stage: one GenerateCandidates call of the predictive engine."},
    {"censys.predict.capped_recounts", "predict",
     "Observations of a port a host does not store, on a host already "
     "storing the 16-port maximum: each counts the host's port pairs "
     "again."},
    {"censys.scan.candidates", "scan",
     "L4 responsive candidates emitted to the interrogation queue."},
    {"censys.scan.probes_sent", "scan", "L4 probes sent."},
    {"censys.scan.probes_filtered", "scan",
     "L4 probes suppressed by the exclusion list."},
    {"censys.scan.pass_permille.", "scan",
     "Per-class sweep progress through the current pass (0-1000)."},
    {"censys.interrogate.attempts", "interrogate",
     "L7 interrogation attempts."},
    {"censys.interrogate.no_answer", "interrogate",
     "Interrogations where the target never answered."},
    {"censys.interrogate.handshakes", "interrogate",
     "Completed L7 handshakes."},
    {"censys.interrogate.validated", "interrogate",
     "Records confirmed by protocol handshake validation."},
    {"censys.interrogate.unvalidated", "interrogate",
     "Connected sessions that failed handshake validation."},
    {"censys.interrogate.latency_us", "interrogate",
     "Per-candidate interrogation latency."},
    {"censys.pipeline.ingest_scans", "pipeline",
     "Service records ingested by the write side."},
    {"censys.pipeline.ingest_failures", "pipeline",
     "Failed-refresh ingests (service unreachable)."},
    {"censys.pipeline.pseudo_suppressed", "pipeline",
     "Ingests suppressed because the service was a known pseudo-service."},
    {"censys.pipeline.rediffs", "pipeline",
     "Worker-prepared deltas the commit stage diffed again, because their "
     "service received an event earlier in the same wave."},
    {"censys.pipeline.evictions", "pipeline",
     "Services evicted after the unreachability window."},
    {"censys.pipeline.tracked_services", "pipeline",
     "Services currently tracked by the write side."},
    {"censys.replicate.shipments", "replicate",
     "WAL-tail shipments delivered to followers (including faulted ones)."},
    {"censys.replicate.shipped_records", "replicate",
     "WAL records applied by followers from shipments."},
    {"censys.replicate.ship_lost", "replicate",
     "Shipments lost in flight on the replication link."},
    {"censys.replicate.ship_corrupt", "replicate",
     "Shipments delivered with a flipped bit or torn tail."},
    {"censys.replicate.ship_reordered", "replicate",
     "Shipments overtaken by their successor run (gap NACK path)."},
    {"censys.replicate.ship_stalled", "replicate",
     "Shipping rounds where the link silently made no progress."},
    {"censys.replicate.nacks", "replicate",
     "Shipments NACKed by a follower (gap, corrupt frame, or apply "
     "stall); the next pump re-reads from the follower watermark."},
    {"censys.replicate.bootstraps", "replicate",
     "Follower snapshot bootstraps (initial, revival, and pruned-tail "
     "fallback)."},
    {"censys.replicate.max_lag", "replicate",
     "Max LSN lag behind the leader across serving followers."},
    {"censys.replicate.followers_down", "replicate",
     "Followers currently killed / not serving."},
    {"censys.serving.lookups", "serving", "Host view lookups served."},
    {"censys.serving.queries", "serving",
     "Queries served by the frontend (all kinds)."},
    {"censys.serving.qps", "serving",
     "Throughput of the most recent serving batch."},
    {"censys.serving.lookup_us", "serving", "Per-lookup latency."},
    {"censys.serving.shed", "serving",
     "Queries shed when the batch deadline was exhausted."},
    {"censys.serving.degraded", "serving",
     "Lookups answered from stale cache after read faults."},
    {"censys.serving.retries", "serving",
     "Read retries taken on the serving fault ladder."},
    {"censys.serving.read_faults", "serving",
     "Injected/transient read faults observed while serving."},
    {"censys.serving.cache_hits", "serving", "View-cache hits."},
    {"censys.serving.cache_misses", "serving", "View-cache misses."},
    {"censys.serving.cache_evictions", "serving",
     "View-cache LRU evictions."},
    {"censys.serving.cache_invalidations", "serving",
     "View-cache entries dropped as stale on watermark mismatch."},
    {"censys.serving.cache_size", "serving",
     "View-cache resident entries."},
    {"censys.serving.cache_stale_hits", "serving",
     "Degraded reads answered from a stale cached view."},
    {"censys.serving.router.queries", "serving",
     "Queries routed across the replica set."},
    {"censys.serving.router.answered", "serving",
     "Routed queries answered by some replica (fresh or stale)."},
    {"censys.serving.router.stale_answers", "serving",
     "Answers labeled stale (replica watermark behind the leader LSN at "
     "dispatch)."},
    {"censys.serving.router.shed", "serving",
     "Routed queries shed with no replica eligible to try."},
    {"censys.serving.router.failed", "serving",
     "Routed queries where every tried replica failed."},
    {"censys.serving.router.retries", "serving",
     "Routed serve attempts beyond each query's first."},
    {"censys.serving.router.failovers", "serving",
     "Retries that moved to a different replica."},
    {"censys.serving.router.hedged", "serving",
     "Hedge reads mirrored to a second replica."},
    {"censys.serving.router.hedge_wins", "serving",
     "Hedge reads that returned a fresher watermark and won."},
    {"censys.serving.router.replicas_healthy", "serving",
     "Replicas currently healthy in the router's view."},
    {"censys.serving.router.replicas_lagging", "serving",
     "Replicas currently lagging in the router's view."},
    {"censys.serving.router.replicas_down", "serving",
     "Replicas currently down in the router's view."},
    {"censys.query.standing.registered", "query",
     "Standing queries currently registered."},
    {"censys.query.standing.evals", "query",
     "Per-document match evaluations run by the commit observer."},
    {"censys.query.standing.events", "query",
     "Match-set transitions (enter/leave) pushed to subscribers."},
    {"censys.query.standing.dropped", "query",
     "Pending match events dropped because a subscriber fell behind its "
     "per-query cap."},
    {"censys.query.standing.eval_us", "query",
     "Time spent evaluating standing queries per observed commit."},
    {"censys.query.segments_built", "query",
     "Columnar day segments built from the journal."},
    {"censys.query.segment_bytes", "query",
     "Encoded bytes written into columnar segments."},
    {"censys.query.scans", "query",
     "Aggregation scans requested (segment-served or fallback)."},
    {"censys.query.scan_rows", "query",
     "Universe rows covered by segment-served aggregation scans."},
    {"censys.query.segment_corrupt", "query",
     "Segment files rejected by the CRC frame or strict decode; the scan "
     "fell back to the journal walk."},
    {"censys.query.fallback_walks", "query",
     "Aggregation scans answered by the live journal walk (no usable "
     "segment)."},
    {"censys.query.build_visit_us", "query",
     "Segment builds: microseconds visiting entity chunks into partial "
     "columns."},
    {"censys.query.build_merge_us", "query",
     "Segment builds: microseconds merging partial columns per field "
     "range."},
    {"censys.query.build_encode_us", "query",
     "Segment builds: microseconds encoding the CSG1 payload."},
    {"censys.query.build_write_us", "query",
     "Segment builds: microseconds writing the segment file (tiers with a "
     "segment directory)."},
    {"censys.search.docs", "search",
     "Documents currently in the search index."},
    {"censys.search.indexed", "search",
     "Documents (re)indexed into the search index."},
    {"censys.search.queries", "search", "Search queries executed."},
    {"censys.search.rebuild_us", "search",
     "Full search-index rebuild latency."},
    {"censys.storage.events", "storage", "Events appended to the journal."},
    {"censys.storage.snapshots", "storage", "Entity snapshots written."},
    {"censys.storage.snapshot_bytes", "storage",
     "Bytes written into entity snapshots."},
    {"censys.storage.delta_bytes", "storage",
     "Bytes written into journaled event deltas."},
    {"censys.storage.wal.appends", "storage", "WAL records appended."},
    {"censys.storage.wal.batch_appends", "storage",
     "WAL writes: group-commit batches appended, one record or many (one "
     "buffered write, at most one fsync, per batch)."},
    {"censys.storage.wal.bytes", "storage", "WAL bytes appended (framed)."},
    {"censys.storage.wal.fsyncs", "storage", "WAL fsync calls."},
    {"censys.storage.wal.rotations", "storage", "WAL segment rotations."},
    {"censys.storage.wal.replayed", "storage",
     "WAL records replayed during recovery."},
    {"censys.storage.wal.checkpoints", "storage",
     "WAL checkpoints written."},
    {"censys.storage.wal.truncated_bytes", "storage",
     "Torn/corrupt tail bytes truncated during WAL recovery."},
    {"censys.storage.wal.tail_bytes", "storage",
     "Segment-file bytes read by replication tail reads (ReadTail)."},
};

const MetricDoc* FindDoc(std::string_view name) {
  for (const MetricDoc& doc : kDocs) {
    const std::size_t n = std::strlen(doc.name);
    if (doc.name[n - 1] == '.') {
      if (name.size() > n && name.substr(0, n) == doc.name) return &doc;
    } else if (name == doc.name) {
      return &doc;
    }
  }
  return nullptr;
}

// A scratch WAL dir so storage.wal.* metrics register; removed on exit.
class ScratchWalDir {
 public:
  ScratchWalDir() {
    path_ = (std::filesystem::temp_directory_path() /
             "censysim-metricsdoc-wal")
                .string();
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchWalDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct Instrument {
  std::string name;
  std::string kind;
};

std::vector<Instrument> RegisteredInstruments(const std::string& wal_dir) {
  censys::engines::WorldConfig cfg;
  cfg.universe.seed = 42;
  cfg.universe.universe_size = 1u << 12;
  cfg.universe.target_services = 400;
  cfg.with_alternatives = false;
  cfg.censys.warm_start = false;
  cfg.censys.journal_options.wal.dir = wal_dir;
  censys::engines::World world(cfg);

  // The serving frontend lives above the engine in the layer DAG; bind one
  // locally so the censys.serving.* instruments register like production.
  censys::serving::ServingFrontend frontend(world.censys().read_side(),
                                            world.censys().search_index(),
                                            world.censys().analytics(),
                                            censys::serving::ServingFrontend::Options{});
  frontend.BindMetrics(&world.censys().metrics());

  // Same for the replica tier: a group + one follower + a router, so the
  // censys.replicate.* and censys.serving.router.* instruments register.
  censys::replicate::ReplicationGroup group(world.censys().journal());
  const censys::replicate::Follower& follower = group.AddFollower("f0");
  group.BindMetrics(&world.censys().metrics());
  censys::serving::ServingFrontend replica_frontend(
      follower.read_side(), follower.index(), follower.analytics(),
      censys::serving::ServingFrontend::Options{});
  censys::serving::ReplicaRouter router(
      {{&replica_frontend, &follower}}, [&group] { return group.leader_lsn(); });
  router.BindMetrics(&world.censys().metrics());

  // The query tier (standing queries + columnar analytics) also lives
  // above the journal; bind both halves so censys.query.* registers.
  censys::query::StandingQueryRegistry standing;
  standing.BindMetrics(&world.censys().metrics());
  censys::query::AnalyticsTier analytics_tier(world.censys().journal(), {});
  analytics_tier.BindMetrics(&world.censys().metrics());

  std::vector<Instrument> instruments;
  world.censys().metrics().ForEachInstrument(
      [&](std::string_view name, std::string_view kind) {
        instruments.push_back({std::string(name), std::string(kind)});
      });
  return instruments;
}

int DumpMetrics(const std::vector<Instrument>& instruments) {
  std::printf("# Metrics reference\n\n");
  std::printf(
      "Generated by `metricsdoc --dump-metrics` from the live registry of a\n"
      "fully wired engine (WAL-backed journal, view cache, serving\n"
      "frontend). Do not edit by hand — regenerate with:\n\n"
      "```sh\n"
      "build/tools/metricsdoc/metricsdoc --dump-metrics > docs/METRICS.md\n"
      "```\n\n"
      "A tier-1 ctest (`metricsdoc_check`) fails if a registered metric is\n"
      "missing from this file. Dynamic families (one instrument per scan\n"
      "class) are listed by prefix with `<class>` in the name.\n\n");
  std::printf("| Metric | Type | Stage | Meaning |\n");
  std::printf("|---|---|---|---|\n");
  std::string last_family;
  int missing = 0;
  for (const Instrument& inst : instruments) {
    const MetricDoc* doc = FindDoc(inst.name);
    if (doc == nullptr) {
      std::fprintf(stderr,
                   "metricsdoc: no description for registered metric %s — "
                   "add it to kDocs in tools/metricsdoc/main.cc\n",
                   inst.name.c_str());
      ++missing;
      continue;
    }
    std::string shown = inst.name;
    if (doc->name[std::strlen(doc->name) - 1] == '.') {
      if (last_family == doc->name) continue;  // one row per family
      last_family = doc->name;
      shown = std::string(doc->name) + "<class>";
    }
    std::printf("| `%s` | %s | %s | %s |\n", shown.c_str(),
                inst.kind.c_str(), doc->stage, doc->meaning);
  }
  return missing == 0 ? 0 : 2;
}

int CheckDoc(const std::vector<Instrument>& instruments,
             const std::string& doc_path) {
  std::ifstream in(doc_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "metricsdoc: cannot read %s\n", doc_path.c_str());
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string doc = buffer.str();

  int missing = 0;
  for (const Instrument& inst : instruments) {
    // Dynamic-family instruments are documented by their prefix row.
    const MetricDoc* entry = FindDoc(inst.name);
    const std::string needle =
        entry != nullptr && entry->name[std::strlen(entry->name) - 1] == '.'
            ? std::string(entry->name) + "<class>"
            : inst.name;
    if (doc.find("`" + needle + "`") == std::string::npos) {
      std::fprintf(stderr,
                   "metricsdoc: registered metric %s is missing from %s "
                   "(expected `%s`) — regenerate with --dump-metrics\n",
                   inst.name.c_str(), doc_path.c_str(), needle.c_str());
      ++missing;
    }
  }
  std::printf("metricsdoc: %zu registered instrument(s), %d missing from "
              "%s\n",
              instruments.size(), missing, doc_path.c_str());
  return missing == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool dump = false;
  std::string check_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--dump-metrics") {
      dump = true;
    } else if (arg == "--check" && i + 1 < argc) {
      check_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: metricsdoc --dump-metrics | --check <METRICS.md>\n");
      return 2;
    }
  }
  if (dump == !check_path.empty()) {
    std::fprintf(stderr,
                 "usage: metricsdoc --dump-metrics | --check <METRICS.md>\n");
    return 2;
  }
  ScratchWalDir wal_dir;
  const std::vector<Instrument> instruments =
      RegisteredInstruments(wal_dir.path());
  return dump ? DumpMetrics(instruments) : CheckDoc(instruments, check_path);
}
