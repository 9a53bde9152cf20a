// Long-lived threads for the benchmark's own check work.
//
// glibc gives each thread a malloc arena and hands the arena of an exited
// thread to the next thread that starts. Check work run on the command
// thread, or on short-lived threads whose arenas the next batch's client
// threads inherit, leaves the program allocating among the checks' freed
// chunks. These threads live for the whole run, so no program thread ever
// allocates from their arenas (README.md, "Check memory", has the A/B).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mapbench {

class CheckThreads {
 public:
  explicit CheckThreads(std::size_t n) : jobs_(n) {
    for (std::size_t i = 0; i < n; ++i) {
      threads_.emplace_back([this, i] { Loop(i); });
    }
  }
  ~CheckThreads() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (auto& t : threads_) t.join();
  }
  CheckThreads(const CheckThreads&) = delete;
  CheckThreads& operator=(const CheckThreads&) = delete;

  // Runs job i on check thread i (at most size() jobs, all at once) and
  // returns when every job has returned.
  void Run(std::vector<std::function<void()>> jobs) {
    std::unique_lock<std::mutex> lock(mu_);
    pending_ = jobs.size();
    for (std::size_t i = 0; i < jobs.size(); ++i) jobs_[i] = std::move(jobs[i]);
    ++generation_;
    wake_.notify_all();
    done_.wait(lock, [this] { return pending_ == 0; });
  }

  // Runs one job on check thread 0 and waits for it.
  void RunOne(std::function<void()> job) { Run({std::move(job)}); }

 private:
  void Loop(std::size_t i) {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      if (!jobs_[i]) continue;
      std::function<void()> job = std::move(jobs_[i]);
      jobs_[i] = nullptr;
      lock.unlock();
      job();
      job = nullptr;
      lock.lock();
      if (--pending_ == 0) done_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::vector<std::function<void()>> jobs_;
  std::size_t pending_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;  // last: starts after the state it reads
};

}  // namespace mapbench
