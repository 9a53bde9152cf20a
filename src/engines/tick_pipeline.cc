#include "engines/tick_pipeline.h"

#include <string>
#include <thread>

#include "core/metrics.h"
#include "core/trace.h"

namespace censys::engines {

TickPipeline::TickPipeline(Executor& executor,
                           interrogate::Interrogator& interrogator,
                           pipeline::WriteSide& write_side,
                           predict::PredictiveEngine& predictive,
                           std::uint32_t commit_batch)
    : executor_(executor),
      interrogator_(interrogator),
      write_side_(write_side),
      predictive_(predictive),
      commit_batch_(commit_batch == 0 ? 1 : commit_batch) {}

void TickPipeline::Execute(std::size_t index) {
  const metrics::ScopedTimer timer({});
  const InterrogationJob& job = (*jobs_)[index];
  StagedResult& slot = slots_[index].staged;
  // Slots are reused across waves: clear before filling.
  slot = StagedResult{};
  if (job.interrogate) {
    try {
      slot.result = interrogator_.InterrogateDetached(job.key, job.at, job.pop,
                                                      job.udp_hint);
      if (job.prepare && slot.result.record.has_value()) {
        // Project, hash and diff the record here, off the command thread;
        // the commit stage takes the delta unless an earlier commit in
        // this wave wrote the same service.
        slot.prepared = write_side_.PrepareScan(*slot.result.record);
      }
    } catch (...) {
      // Publish the (empty) slot even on failure so the commit stage never
      // waits forever on it; the exception surfaces at JoinBroadcast.
      slot = StagedResult{};
      slots_[index].ready.store(true, std::memory_order_release);
      throw;
    }
  }
  slots_[index].ready.store(true, std::memory_order_release);
  worker_busy_us_.fetch_add(static_cast<std::uint64_t>(timer.ElapsedMicros()),
                            std::memory_order_relaxed);
}

void TickPipeline::Commit(std::size_t index) {
  const InterrogationJob& job = (*jobs_)[index];
  StagedResult& slot = slots_[index].staged;
  interrogator_.CommitResult(slot.result);
  if (slot.result.record.has_value()) {
    if (slot.prepared.has_value()) {
      write_side_.IngestScan(*slot.result.record, std::move(*slot.prepared));
    } else {
      write_side_.IngestScan(*slot.result.record);
    }
    if (job.observe_predictive) predictive_.ObserveService(job.key);
  } else if (job.ingest_failure_on_miss) {
    write_side_.IngestFailure(job.key, job.at);
  }
}

void TickPipeline::Run(const std::vector<InterrogationJob>& jobs) {
  if (jobs.empty()) return;
  const std::size_t n = jobs.size();
  TRACE_SPAN_VAR(span, "engine", "pipeline.run");
  span.SetArg("jobs", std::to_string(n));
  const metrics::ScopedTimer wall({});
  stats_.jobs += n;
  ++stats_.waves;

  jobs_ = &jobs;
  if (slots_.size() < n) {
    slots_ = std::vector<Slot>(n);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      slots_[i].ready.store(false, std::memory_order_relaxed);
    }
  }
  next_.store(0, std::memory_order_relaxed);
  // The window opens before any worker reads journal state: the written-key
  // set must cover every event committed after a prepared diff's read.
  write_side_.BeginCommitBatch();

  // Workers: claim job indices until the cursor passes n. Each claim is a
  // pure interrogation staged into its own slot.
  executor_.Broadcast([this, n](std::size_t) {
    TRACE_SPAN_VAR(wspan, "engine", "pipeline.worker");
    std::uint64_t executed = 0;
    for (std::size_t i = next_.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next_.fetch_add(1, std::memory_order_relaxed)) {
      Execute(i);
      ++executed;
    }
    wspan.SetArg("executed", std::to_string(executed));
  });

  // Command thread: commit published slots strictly in sequence order
  // (group-committed); when the next slot is not ready, claim a job and
  // run it (help), or yield once every job is claimed.
  std::size_t committed = 0;
  std::uint32_t since_flush = 0;
  try {
    TRACE_SPAN_VAR(cspan, "engine", "pipeline.commit");
    while (committed < n) {
      if (slots_[committed].ready.load(std::memory_order_acquire)) {
        const metrics::ScopedTimer commit_timer({});
        Commit(committed);
        ++committed;
        if (++since_flush >= commit_batch_) {
          write_side_.FlushCommitBatch();
          ++stats_.batch_flushes;
          since_flush = 0;
        }
        stats_.commit_busy_us += commit_timer.ElapsedMicros();
        continue;
      }
      const std::size_t index = next_.fetch_add(1, std::memory_order_relaxed);
      if (index < n) {
        Execute(index);
        ++stats_.help_runs;
        continue;
      }
      ++stats_.commit_stalls;
      std::this_thread::yield();
    }
    write_side_.EndCommitBatch();
    cspan.SetArg("helps", std::to_string(stats_.help_runs));
    cspan.SetArg("stalls", std::to_string(stats_.commit_stalls));
  } catch (...) {
    // Stop the workers claiming before unwinding: they reference jobs_ and
    // the slots, so they must be joined before this frame's references go.
    next_.store(n, std::memory_order_relaxed);
    try {
      executor_.JoinBroadcast();
    } catch (...) {
    }
    jobs_ = nullptr;
    throw;
  }
  executor_.JoinBroadcast();
  jobs_ = nullptr;

  stats_.wall_us += wall.ElapsedMicros();
  // Cumulative Execute time everywhere it ran (workers + help runs).
  stats_.worker_busy_us =
      static_cast<double>(worker_busy_us_.load(std::memory_order_relaxed));
  span.SetArg("helps", std::to_string(stats_.help_runs));
}

}  // namespace censys::engines
