// Peak resident set of the process, sampled while the program works.
//
// getrusage's ru_maxrss would also count the benchmark's own checks (a
// journal digest copies every row; the end-of-run fresh index is hundreds
// of MB). Instead a sampler thread reads /proc/self/statm every 2 ms
// while sampling is active, and the benchmark pauses it around its check
// phases. The heap is left as the checks leave it: they run on their own
// threads (check_threads.h), so the program never allocates from their
// arenas.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>

namespace mapbench {

class RssSampler {
 public:
  RssSampler() : thread_([this] { Loop(); }) {}
  ~RssSampler() {
    stop_.store(true);
    thread_.join();
  }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  // Takes a last sample and stops sampling (a check phase begins).
  void Pause() {
    Sample();
    active_.store(false);
  }
  // Samples again (the check phase is over).
  void Resume() {
    active_.store(true);
    Sample();
  }
  double PeakMb() const {
    return static_cast<double>(peak_bytes_.load()) / (1024.0 * 1024.0);
  }

 private:
  void Loop() {
    while (!stop_.load()) {
      if (active_.load()) Sample();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  void Sample() {
    std::FILE* f = std::fopen("/proc/self/statm", "r");
    if (f == nullptr) return;
    unsigned long long size = 0, resident = 0;
    if (std::fscanf(f, "%llu %llu", &size, &resident) == 2) {
      const std::uint64_t bytes =
          resident * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
      std::uint64_t prev = peak_bytes_.load();
      while (bytes > prev && !peak_bytes_.compare_exchange_weak(prev, bytes)) {
      }
    }
    std::fclose(f);
  }

  std::atomic<bool> active_{true};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> peak_bytes_{0};
  std::thread thread_;  // last: starts after the state it reads
};

}  // namespace mapbench
