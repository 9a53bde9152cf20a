// Failure injection: the engine must degrade gracefully — not crash, not
// spiral into eviction storms, not corrupt its journal — under network
// regimes far worse than the calibrated defaults (§2.2's fractured
// visibility taken to extremes).
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/fault.h"
#include "core/strings.h"
#include "engines/world.h"
#include "search/index.h"
#include "storage/journal.h"
#include "test_tmpdir.h"

namespace censys::engines {
namespace {

WorldConfig BaseWorld() {
  WorldConfig cfg;
  cfg.universe.seed = 77;
  cfg.universe.universe_size = 1u << 16;
  cfg.universe.target_services = 6000;
  cfg.universe.ics_scale = 0;
  cfg.with_alternatives = false;
  return cfg;
}

struct RunResult {
  std::size_t tracked;
  std::uint64_t evicted;
  double accuracy;
};

RunResult RunScenario(WorldConfig cfg, double days = 4.0) {
  World world(cfg);
  world.Bootstrap();
  world.RunForDays(days);
  RunResult result{};
  result.tracked = world.censys().write_side().tracked_count();
  result.evicted = world.censys().write_side().services_evicted();
  std::uint64_t live = 0, sampled = 0;
  world.censys().ForEachEntry([&](const EngineEntry& entry) {
    if (sampled >= 1500) return;
    ++sampled;
    if (world.internet().FindService(entry.key, world.now()) != nullptr) {
      ++live;
    }
  });
  result.accuracy = sampled ? double(live) / double(sampled) : 0;
  return result;
}

TEST(FailureInjectionTest, TenPercentPacketLoss) {
  WorldConfig cfg = BaseWorld();
  cfg.universe.base_loss_rate = 0.10;
  const RunResult result = RunScenario(cfg);
  // Coverage survives (refresh retries smooth loss); accuracy holds; the
  // eviction rate does not explode from spurious single-probe failures
  // alone (pending-eviction clears on the next successful refresh).
  EXPECT_GT(result.tracked, 3000u);
  EXPECT_GT(result.accuracy, 0.75);
  EXPECT_LT(result.evicted, result.tracked);
}

TEST(FailureInjectionTest, OutageStorm) {
  WorldConfig cfg = BaseWorld();
  cfg.universe.outage_rate_per_day = 0.5;   // half of all networks daily
  cfg.universe.outage_mean_hours = 8.0;
  const RunResult result = RunScenario(cfg);
  EXPECT_GT(result.tracked, 2500u);
  // Outages cause pending-eviction churn but the 72 h deadline plus
  // multi-PoP retries keep most transient victims in the dataset.
  EXPECT_GT(result.accuracy, 0.6);
}

TEST(FailureInjectionTest, HeavyBlocking) {
  WorldConfig cfg = BaseWorld();
  cfg.universe.blocking_sensitivity = 0.05;  // ~33x the calibrated default
  const RunResult heavy = RunScenario(cfg);
  const RunResult normal = RunScenario(BaseWorld());
  // Blocking costs coverage — the §2.2 trade-off — but never correctness.
  EXPECT_LT(heavy.tracked, normal.tracked);
  EXPECT_GT(heavy.accuracy, 0.7);
}

TEST(FailureInjectionTest, ExtremeChurn) {
  WorldConfig cfg = BaseWorld();
  cfg.universe.mean_lifetime_cloud_days = 1.0;
  cfg.universe.mean_lifetime_residential_days = 2.0;
  const RunResult result = RunScenario(cfg);
  // The dataset shrinks toward what daily refresh can confirm and accuracy
  // degrades, but the pipeline keeps functioning and pruning.
  EXPECT_GT(result.tracked, 1000u);
  EXPECT_GT(result.evicted, 100u);
  EXPECT_GT(result.accuracy, 0.4);
}

TEST(FailureInjectionTest, EverythingAtOnceStaysDeterministic) {
  WorldConfig cfg = BaseWorld();
  cfg.universe.base_loss_rate = 0.08;
  cfg.universe.outage_rate_per_day = 0.3;
  cfg.universe.blocking_sensitivity = 0.01;
  cfg.universe.mean_lifetime_cloud_days = 2.0;

  auto run_keys = [&] {
    World world(cfg);
    world.Bootstrap();
    world.RunForDays(2.0);
    std::vector<std::uint64_t> keys;
    world.censys().ForEachEntry(
        [&](const EngineEntry& e) { keys.push_back(e.key.Pack()); });
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  const auto first = run_keys();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run_keys());  // chaos, but reproducible chaos
}

#if defined(CENSYSIM_FAULT_INJECTION)

// ------------------------------------------------------- storage faults
//
// The same graceful-degradation bar, one layer down: injected disk
// faults (core/fault.h) against the WAL-backed journal. The invariant
// throughout is the one DESIGN.md §9 promises — after any crash, the
// recovered journal is byte-identical (digest) to a journal that simply
// replayed the surviving prefix, and re-running the lost suffix of a
// deterministic workload converges on the fault-free end state.

constexpr int kTortureOps = 300;
constexpr int kTortureEntities = 5;

using test::ScratchDir;

storage::EventJournal::Options DurableOptions(const std::string& dir) {
  storage::EventJournal::Options options;
  options.shards = 4;
  options.wal.dir = dir;
  options.wal.segment_bytes = 8u << 10;  // rotate often under torture
  return options;
}

// Op `i` of the workload script — a pure function of i (always an
// explicit state change, never a journal no-op), so a run can resume
// from any recovered prefix.
void ApplyOp(storage::EventJournal& journal, int i) {
  storage::Delta delta;
  delta.ops.push_back({storage::FieldOp::Kind::kSet,
                       "f" + std::to_string(i % 3),
                       "v" + std::to_string(i)});
  journal.Append("host/" + std::to_string(i % kTortureEntities),
                 storage::EventKind::kServiceChanged,
                 Timestamp{static_cast<std::int64_t>(i + 1)}, delta);
}

// How many script ops the journal state reflects: op i targets entity
// i % kTortureEntities and always advances its watermark, so the
// watermark sum IS the resume index.
int AppliedOps(const storage::EventJournal& journal) {
  std::uint64_t total = 0;
  for (int e = 0; e < kTortureEntities; ++e) {
    total += journal.Watermark("host/" + std::to_string(e));
  }
  return static_cast<int>(total);
}

std::uint64_t JournalDigest(const storage::EventJournal& journal) {
  std::uint64_t digest = 1469598103934665603ull;
  journal.ScanAll([&](std::string_view key, std::string_view value) {
    digest = (digest ^ Fnv1a64(key)) * 1099511628211ull;
    digest = (digest ^ Fnv1a64(value)) * 1099511628211ull;
    return true;
  });
  return digest;
}

TEST(WalFaultTest, DiskFullSurfacesAsErrorNotCorruption) {
  const std::string dir = ScratchDir("disk_full");
  storage::EventJournal journal(DurableOptions(dir));
  for (int i = 0; i < 10; ++i) ApplyOp(journal, i);
  const std::uint64_t digest = JournalDigest(journal);

  {
    fault::ScopedPlan plan(
        1, {{.point = "storage.wal.append", .mode = fault::Mode::kErrorReturn}});
    EXPECT_THROW(ApplyOp(journal, 10), storage::WalIoError);
  }
  // The failed append left no trace, in memory or on disk.
  EXPECT_EQ(AppliedOps(journal), 10);
  EXPECT_EQ(JournalDigest(journal), digest);

  // The disk "recovers"; the same op now lands, and a fresh recovery
  // agrees with the live journal byte for byte.
  ApplyOp(journal, 10);
  storage::EventJournal recovered(DurableOptions(dir));
  const storage::RecoveryReport report = recovered.Recover();
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(JournalDigest(recovered), JournalDigest(journal));
}

TEST(WalFaultTest, BitFlipIsCutAtRecoveryAndReplayable) {
  const std::string dir = ScratchDir("bit_flip");
  storage::EventJournal journal(DurableOptions(dir));
  {
    // Silently corrupt the 21st record's frame on its way to disk.
    fault::ScopedPlan plan(7, {{.point = "storage.wal.append",
                                .mode = fault::Mode::kBitFlip,
                                .skip_hits = 20,
                                .max_fires = 1}});
    for (int i = 0; i < 60; ++i) ApplyOp(journal, i);
  }
  // The live journal never noticed (bit flips are silent) — it holds the
  // fault-free state.
  const std::uint64_t want = JournalDigest(journal);

  // Crash. Recovery CRC-checks every record, cuts the log at the flipped
  // one, and keeps only the prefix — 20 ops, nothing garbled.
  storage::EventJournal recovered(DurableOptions(dir));
  const storage::RecoveryReport report = recovered.Recover();
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_GT(report.corrupt_records + report.truncated_bytes, 0u);
  ASSERT_EQ(AppliedOps(recovered), 20);

  // Re-running the lost suffix converges on the fault-free end state.
  for (int i = 20; i < 60; ++i) ApplyOp(recovered, i);
  EXPECT_EQ(JournalDigest(recovered), want);
}

// PendingEvent twin of ApplyOp(i) for group-commit batches: same entity,
// same delta, so a recovered prefix is resumable by index either way.
storage::EventJournal::PendingEvent BatchOp(int i) {
  storage::EventJournal::PendingEvent ev;
  ev.entity_id = "host/" + std::to_string(i % kTortureEntities);
  ev.kind = storage::EventKind::kServiceChanged;
  ev.at = Timestamp{static_cast<std::int64_t>(i + 1)};
  ev.delta.ops.push_back({storage::FieldOp::Kind::kSet,
                          "f" + std::to_string(i % 3),
                          "v" + std::to_string(i)});
  return ev;
}

// Group commit stages many events into one WAL batch write; a crash mid-
// batch must leave a record-aligned durable prefix (kTornWrite flushes the
// framed records buffered before the tear) and recovery must equal a
// journal that simply ran that prefix — no torn record, no reordering.
TEST(WalFaultTest, CrashMidGroupCommitRecoversRecordAlignedPrefix) {
  const std::string dir = ScratchDir("group_commit_crash");
  storage::EventJournal journal(DurableOptions(dir));
  for (int i = 0; i < 20; ++i) ApplyOp(journal, i);

  // A clean crash while framing the batch: nothing durable, nothing
  // applied — the whole batch is lost, not a prefix of it torn mid-record.
  std::vector<storage::EventJournal::PendingEvent> batch;
  for (int i = 20; i < 60; ++i) batch.push_back(BatchOp(i));
  {
    fault::ScopedPlan plan(11, {{.point = "storage.wal.append",
                                 .mode = fault::Mode::kCrash,
                                 .skip_hits = 9,
                                 .max_fires = 1}});
    EXPECT_THROW(journal.AppendBatch(batch), fault::CrashException);
  }
  {
    storage::EventJournal recovered(DurableOptions(dir));
    const storage::RecoveryReport report = recovered.Recover();
    ASSERT_TRUE(report.ok) << report.error;
    EXPECT_EQ(AppliedOps(recovered), 20);
  }

  // A torn write on the batch's 10th record: the 9 records framed before
  // it reach the medium plus a partial frame; recovery truncates the
  // partial record and keeps exactly the aligned prefix.
  {
    fault::ScopedPlan plan(13, {{.point = "storage.wal.append",
                                 .mode = fault::Mode::kTornWrite,
                                 .skip_hits = 9,
                                 .max_fires = 1}});
    EXPECT_THROW(journal.AppendBatch(batch), fault::CrashException);
  }
  storage::EventJournal recovered(DurableOptions(dir));
  const storage::RecoveryReport report = recovered.Recover();
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_GT(report.corrupt_records + report.truncated_bytes, 0u);
  const int done = AppliedOps(recovered);
  EXPECT_EQ(done, 29);  // 20 singles + 9 whole batch records

  storage::EventJournal prefix{storage::EventJournal::Options{.shards = 4}};
  for (int i = 0; i < done; ++i) ApplyOp(prefix, i);
  EXPECT_EQ(JournalDigest(recovered), JournalDigest(prefix));

  // Resuming the lost suffix as a second group commit converges on the
  // fault-free end state.
  std::vector<storage::EventJournal::PendingEvent> rest;
  for (int i = done; i < 60; ++i) rest.push_back(BatchOp(i));
  recovered.AppendBatch(rest);
  storage::EventJournal reference{storage::EventJournal::Options{.shards = 4}};
  for (int i = 0; i < 60; ++i) ApplyOp(reference, i);
  EXPECT_EQ(JournalDigest(recovered), JournalDigest(reference));
}

TEST(WalFaultTest, CrashMidCheckpointFallsBackToOlderState) {
  const std::string dir = ScratchDir("ckpt_crash");
  storage::EventJournal journal(DurableOptions(dir));
  std::string error;
  for (int i = 0; i < 60; ++i) ApplyOp(journal, i);
  ASSERT_TRUE(journal.Checkpoint(&error).has_value()) << error;
  for (int i = 60; i < 100; ++i) ApplyOp(journal, i);
  const std::uint64_t want = JournalDigest(journal);

  {
    // The next checkpoint write tears partway through and the process
    // dies (checkpoint writes pass the same storage.wal.append point).
    fault::ScopedPlan plan(3, {{.point = "storage.wal.append",
                                .mode = fault::Mode::kTornWrite}});
    EXPECT_THROW(journal.Checkpoint(&error), fault::CrashException);
  }

  // The torn checkpoint was never renamed into place: recovery loads the
  // lsn-60 checkpoint, replays the 40-record tail, loses nothing.
  storage::EventJournal recovered(DurableOptions(dir));
  const storage::RecoveryReport report = recovered.Recover();
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.checkpoint_lsn, 60u);
  EXPECT_EQ(report.checkpoints_rejected, 0u);
  EXPECT_EQ(report.replayed_records, 40u);
  EXPECT_EQ(JournalDigest(recovered), want);
}

// The headline torture loop: for each seed, run the deterministic
// 300-op script against a WAL-backed journal while a fault plan kills
// the "process" (CrashException) at seed-chosen appends — sometimes
// cleanly, sometimes mid-write (torn), sometimes mid-checkpoint. After
// every death: fresh journal, Recover(), assert the recovered state is
// byte-identical to an uncrashed journal at the same prefix, resume the
// script from the watermark sum. Every seed must converge on the exact
// fault-free digest.
TEST(WalTortureTest, CrashRecoveryConvergesAcrossSeeds) {
  storage::EventJournal reference{storage::EventJournal::Options{.shards = 4}};
  for (int i = 0; i < kTortureOps; ++i) ApplyOp(reference, i);
  const std::uint64_t want = JournalDigest(reference);

  int total_crashes = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string dir = ScratchDir("torture_" + std::to_string(seed));
    auto journal =
        std::make_unique<storage::EventJournal>(DurableOptions(dir));
    int done = 0;
    int crashes = 0;
    for (int attempt = 0; done < kTortureOps && attempt < 40; ++attempt) {
      const fault::Mode mode = attempt % 2 == 0 ? fault::Mode::kCrash
                                                : fault::Mode::kTornWrite;
      fault::ScopedPlan plan(seed * 100 + attempt,
                             {{.point = "storage.wal.append",
                               .mode = mode,
                               .probability = 0.04,
                               .max_fires = 1}});
      try {
        // Checkpoint the recovered state first (the checkpoint write is
        // itself a crash candidate), then push toward the end.
        std::string error;
        if (done > 0) {
          ASSERT_TRUE(journal->Checkpoint(&error).has_value()) << error;
        }
        for (int i = done; i < kTortureOps; ++i) ApplyOp(*journal, i);
        done = kTortureOps;
      } catch (const fault::CrashException&) {
        ++crashes;
        journal.reset();  // the process is dead; only the disk survives
        journal = std::make_unique<storage::EventJournal>(DurableOptions(dir));
        const storage::RecoveryReport report = journal->Recover();
        ASSERT_TRUE(report.ok) << report.error;
        done = AppliedOps(*journal);
        ASSERT_LE(done, kTortureOps);
        // Crash-consistency, the strong form: recovery must equal a
        // journal that simply ran the surviving prefix uncrashed.
        storage::EventJournal prefix{
            storage::EventJournal::Options{.shards = 4}};
        for (int i = 0; i < done; ++i) ApplyOp(prefix, i);
        ASSERT_EQ(JournalDigest(*journal), JournalDigest(prefix));
      }
    }
    ASSERT_EQ(done, kTortureOps);
    EXPECT_EQ(JournalDigest(*journal), want);
    EXPECT_GE(crashes, 1) << "plan never fired; torture was a no-op";
    total_crashes += crashes;

    // A search index built from the recovered journal answers queries
    // identically to one built from the fault-free run.
    const auto search_hits = [](const storage::EventJournal& j) {
      search::SearchIndex index;
      j.ForEachEntity(
          [&](std::string_view entity, const storage::FieldMap& fields) {
            index.Index(entity, fields);
          });
      std::string error;
      return index.Search("v" + std::to_string(kTortureOps - 5), &error);
    };
    const auto want_hits = search_hits(reference);
    EXPECT_FALSE(want_hits.empty());
    EXPECT_EQ(search_hits(*journal), want_hits);
  }
  // ~12 deaths per seed in expectation; anything under 30 total means
  // the injector is not actually firing.
  EXPECT_GT(total_crashes, 30);
}

// A WAL write that fails mid-tick throws out of the tick pipeline's commit
// loop while its workers are still claiming jobs. The pipeline must stop
// and join them before the error surfaces: the World then destructs
// without hanging, at every worker count.
TEST(TickPipelineFaultTest, WalErrorMidTickJoinsWorkersAndRethrows) {
  for (const int threads : {0, 3}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    WorldConfig cfg = BaseWorld();
    cfg.universe.target_services = 2000;
    cfg.censys.threads = threads;
    cfg.censys.commit_batch = 1;
    cfg.censys.journal_options.wal.dir =
        ScratchDir("tick_wal_error_" + std::to_string(threads));
    World world(cfg);
    world.Bootstrap();
    {
      // The tick's first commit fails; with threads = 3 the workers have
      // usually claimed only part of that wave by then.
      fault::ScopedPlan plan(5, {{.point = "storage.wal.append",
                                  .mode = fault::Mode::kErrorReturn}});
      EXPECT_THROW(world.RunUntil(world.now() + Duration::Hours(2)),
                   storage::WalIoError);
    }
  }
}

// Probe-level faults degrade coverage, never crash the pipeline: the
// interrogate.probe point turns seed-chosen interrogations into
// no-answers, which the refresh scheduler already absorbs.
TEST(FailureInjectionTest, ProbeFaultsDegradeNotCrash) {
  WorldConfig cfg = BaseWorld();
  fault::ScopedPlan plan(
      11, {{.point = "interrogate.probe", .probability = 0.05}});
  const RunResult result = RunScenario(cfg, 2.0);
  EXPECT_GT(fault::Injector::Global().fires("interrogate.probe"), 100u);
  EXPECT_GT(result.tracked, 2500u);
  EXPECT_GT(result.accuracy, 0.7);
}

#endif  // CENSYSIM_FAULT_INJECTION

}  // namespace
}  // namespace censys::engines
