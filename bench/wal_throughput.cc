// WAL throughput harness (DESIGN.md §9): what durability costs.
//
// Measures journal append throughput without a WAL, with the WAL in its
// default batched-fsync mode, and with fsync-per-append, plus checkpoint
// write and full crash-recovery times — the knobs a deployment trades
// between durability latency and ingest rate. Scratch segments live
// under the system temp root (tests/test_tmpdir.h) and are recreated on
// every run.
//
// Knobs: CENSYSIM_WAL_OPS (append count, default 200000),
// CENSYSIM_WAL_FSYNC_OPS (fsync-each append count, default 5000).
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_common.h"
#include "core/clock.h"
#include "core/strings.h"
#include "storage/journal.h"
#include "test_tmpdir.h"

using namespace censys;
using namespace censys::engines;

namespace {

constexpr int kEntities = 64;

// One synthetic append, shaped like a real interrogation delta: a couple
// of short fields changing per event.
void ApplyOp(storage::EventJournal& journal, int i) {
  storage::Delta delta;
  delta.ops.push_back({storage::FieldOp::Kind::kSet,
                       "banner", "Server: nginx build " + std::to_string(i)});
  delta.ops.push_back({storage::FieldOp::Kind::kSet,
                       "observed", std::to_string(i)});
  journal.Append("host/" + std::to_string(i % kEntities),
                 storage::EventKind::kServiceChanged,
                 Timestamp{static_cast<std::int64_t>(i + 1)}, delta);
}

using censys::test::ScratchDir;

std::string Rate(double ops, double micros) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f ops/s", ops / (micros / 1e6));
  return buf;
}

}  // namespace

int main() {
  const int ops = static_cast<int>(bench::EnvOr("CENSYSIM_WAL_OPS", 200000));
  const int fsync_ops =
      static_cast<int>(bench::EnvOr("CENSYSIM_WAL_FSYNC_OPS", 5000));
  std::printf("== WAL throughput (DESIGN.md §9) ==\n");
  std::printf("ops=%d fsync_ops=%d entities=%d\n\n", ops, fsync_ops,
              kEntities);

  TablePrinter table({"Configuration", "Throughput", "Notes"});

  // Baseline: the in-memory journal alone.
  {
    storage::EventJournal journal;
    const WallTimer timer;
    for (int i = 0; i < ops; ++i) ApplyOp(journal, i);
    const double micros = timer.ElapsedMicros();
    table.AddRow({"journal, no WAL", Rate(ops, micros),
                  "in-memory ceiling"});
  }

  // Durable default: WAL on, fsync only at rotation/checkpoint.
  double wal_micros = 0;
  {
    storage::EventJournal::Options options;
    options.wal.dir = ScratchDir("batched");
    storage::EventJournal journal(options);
    const WallTimer timer;
    for (int i = 0; i < ops; ++i) ApplyOp(journal, i);
    wal_micros = timer.ElapsedMicros();
    char notes[64];
    std::snprintf(notes, sizeof(notes), "%s logged, %llu rotations",
                  HumanCount(journal.wal()->appended_bytes()).c_str(),
                  static_cast<unsigned long long>(journal.wal()->rotations()));
    table.AddRow({"WAL, batched fsync", Rate(ops, wal_micros), notes});

    // Checkpoint cost at this journal size.
    const WallTimer ckpt_timer;
    std::string error;
    if (!journal.Checkpoint(&error).has_value()) {
      std::fprintf(stderr, "checkpoint failed: %s\n", error.c_str());
      return 1;
    }
    const double ckpt_ms = ckpt_timer.ElapsedMicros() / 1e3;
    char ckpt[64];
    std::snprintf(ckpt, sizeof(ckpt), "%.1f ms", ckpt_ms);
    table.AddRow({"checkpoint write", ckpt,
                  std::to_string(journal.event_count()) + " events covered"});

    // Append a tail past the checkpoint, then time a full recovery
    // (checkpoint load + tail replay) into a fresh journal.
    for (int i = ops; i < ops + ops / 10; ++i) ApplyOp(journal, i);
    storage::EventJournal recovered(options);
    const WallTimer recover_timer;
    const storage::RecoveryReport report = recovered.Recover();
    if (!report.ok) {
      std::fprintf(stderr, "recovery failed: %s\n", report.error.c_str());
      return 1;
    }
    const double rec_ms = recover_timer.ElapsedMicros() / 1e3;
    char rec[64];
    std::snprintf(rec, sizeof(rec), "%.1f ms", rec_ms);
    table.AddRow({"crash recovery", rec,
                  "ckpt@" + std::to_string(report.checkpoint_lsn) + " + " +
                      std::to_string(report.replayed_records) + " replayed"});
  }

  // Paranoid mode: fsync on every append.
  {
    storage::EventJournal::Options options;
    options.wal.dir = ScratchDir("fsync_each");
    options.wal.fsync_each = true;
    storage::EventJournal journal(options);
    const WallTimer timer;
    for (int i = 0; i < fsync_ops; ++i) ApplyOp(journal, i);
    const double micros = timer.ElapsedMicros();
    table.AddRow({"WAL, fsync each", Rate(fsync_ops, micros),
                  std::to_string(journal.wal()->fsyncs()) + " fsyncs"});
  }

  table.Print();
  std::printf(
      "\ndurability model: batched fsync survives process death (the "
      "simulated crash model); fsync-each additionally survives power "
      "loss at the cost shown above\n");
  return 0;
}
