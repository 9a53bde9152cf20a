// Stages 3-5 of the tick pipeline: parallel interrogation overlapped with
// an in-order commit.
//
// A wave's job list is fully known before it starts, so the only thing
// handed out is a job index, and one shared atomic counter (the cursor)
// hands those out:
//
//   command thread            workers (Executor::Broadcast)
//   --------------            -----------------------------
//   commit ready slots <----  claim next_.fetch_add(1), interrogate
//   in SEQUENCE order         (pure), stage the result into its slot,
//   (group-committed)         publish
//
// The command thread commits slots strictly in sequence order
// (group-committing journal appends through WriteSide::BeginCommitBatch).
// When the next slot is not ready it claims a job from the same cursor and
// runs it itself ("help"), or yields once every job is claimed, so a slow
// worker never idles the committer. Workers exit when the cursor passes
// the job count. With zero workers Broadcast is a no-op and the same loop
// claims, executes and commits job i in turn: the exact serial order and
// flush cadence.
//
// Overlap pays: a plain ParallelFor over the jobs followed by a serial
// commit loop measured ~24% slower per tick on `mapbench ingest`
// (EXPERIMENTS.md).
//
// Determinism is by construction: interrogation is pure
// (InterrogateDetached), every side effect commits on the command thread in
// sequence order, and group-commit batch boundaries never change journal
// content.
//
// Concurrency: the cursor `next_` hands each index to exactly one thread
// (atomic RMW); a slot is written only by the thread that claimed its
// index and is release-published through its `ready` flag, which the
// command thread acquire-loads before committing. Slots and the cursor are
// reset only between waves, while no worker runs (Broadcast/JoinBroadcast
// order those accesses). Workers read `jobs_` and the interrogator
// const-only. There are no mutexes or condition variables on this path
// (censyslint enforces the absence for src/engines/ and src/interrogate/).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/executor.h"
#include "interrogate/interrogator.h"
#include "pipeline/write_side.h"
#include "predict/predictive.h"

namespace censys::engines {

// One unit of stage-3 work. PoP and UDP hint are assigned serially in
// candidate-sequence order before fan-out; the commit flags say how the
// outcome feeds stage 5.
struct InterrogationJob {
  ServiceKey key;
  Timestamp at;
  int pop = 0;
  std::optional<proto::Protocol> udp_hint;
  // false: skip interrogation and commit a failure (opted-out refresh).
  bool interrogate = true;
  // Refresh semantics: a miss is journaled as a failed refresh.
  bool ingest_failure_on_miss = false;
  // Discovery semantics: a hit trains the predictive engine.
  bool observe_predictive = true;
  // Precompute the entity projection (ServiceFields + content hash) in the
  // worker. Job builders clear this for hosts already pseudo-flagged at
  // build time — their ingests are suppressed before the projection is
  // ever read, so computing it would be pure waste. Set serially, so the
  // decision is deterministic.
  bool project = true;
};

// Cumulative across Run calls; the engine resets per tick.
struct TickPipelineStats {
  std::uint64_t jobs = 0;
  std::uint64_t waves = 0;         // Run invocations
  std::uint64_t batch_flushes = 0; // group-commit flushes issued
  // Jobs the command thread ran itself; with zero workers, every job.
  std::uint64_t help_runs = 0;
  std::uint64_t commit_stalls = 0; // yields waiting on an unpublished slot
  double wall_us = 0;              // stage 3-5 wall clock
  double worker_busy_us = 0;       // summed across workers + help runs
  double commit_busy_us = 0;       // command-thread commit work
};

class TickPipeline {
 public:
  TickPipeline(Executor& executor, interrogate::Interrogator& interrogator,
               pipeline::WriteSide& write_side,
               predict::PredictiveEngine& predictive,
               std::uint32_t commit_batch);

  TickPipeline(const TickPipeline&) = delete;
  TickPipeline& operator=(const TickPipeline&) = delete;

  // Runs stages 3-5 for `jobs`, committing results in index order. `jobs`
  // must be in candidate-sequence order. Rethrows the first commit-side
  // exception (e.g. storage::WalIoError) after quiescing the workers.
  void Run(const std::vector<InterrogationJob>& jobs);

  const TickPipelineStats& stats() const { return stats_; }
  void ResetStats() {
    stats_ = TickPipelineStats{};
    worker_busy_us_.store(0, std::memory_order_relaxed);
  }

 private:
  // What a worker stages for the commit stage: the pure interrogation
  // result plus the projections the serial stage would otherwise compute.
  struct StagedResult {
    interrogate::InterrogationResult result;
    storage::FieldMap service_fields;  // ServiceFields(*result.record)
    std::uint64_t content_hash = 0;    // WriteSide::ContentHash
    bool projected = false;            // fields/hash above are filled in
  };

  // One staging cell per job index, on its own cache line so workers
  // finishing adjacent jobs never write the same line.
  struct alignas(64) Slot {
    std::atomic<bool> ready{false};
    StagedResult staged;
  };

  // Stage 3 for one job, into its slot; publishes when done. Pure except
  // for the slot and relaxed stat counters — safe on any thread.
  void Execute(std::size_t index);
  // Stage 4+5 for one published slot (command thread only).
  void Commit(std::size_t index);

  Executor& executor_;
  interrogate::Interrogator& interrogator_;
  pipeline::WriteSide& write_side_;
  predict::PredictiveEngine& predictive_;
  const std::uint32_t commit_batch_;

  // Grown on demand, never shrunk; slots are reused across waves.
  std::vector<Slot> slots_;
  // The next unclaimed job index of the current wave.
  alignas(64) std::atomic<std::size_t> next_{0};
  const std::vector<InterrogationJob>* jobs_ = nullptr;

  TickPipelineStats stats_;
  std::atomic<std::uint64_t> worker_busy_us_{0};
};

}  // namespace censys::engines
