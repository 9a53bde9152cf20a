// The host's speed, probed between the timed steps.
//
// This VM shares its host's last-level cache and memory with other tenants,
// and how much of them it gets changes from minute to minute: whole runs
// read 15-25% faster or slower together, and the program's own timings
// follow a memory probe far more closely than an arithmetic one (README.md,
// "Host speed"). The probe is a fixed kernel of random 8-byte reads over a
// 64 MB table; its median time over a few runs, divided by its nominal
// time, is the host's slowdown at that moment. The benchmark divides each
// timed figure by the slowdown of the round it was taken in (and multiplies
// each rate by it), so the end-to-end metrics read as on a host where the
// probe takes kNominalMs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "spans.h"

namespace mapbench {

class HostSpeed {
 public:
  // The probe's time the figures are scaled to: about its median on the
  // VM the benchmark was tuned on.
  static constexpr double kNominalMs = 0.5;

  HostSpeed() : table_(kTableWords) {
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (std::uint64_t& word : table_) {
      x = Next(x);
      word = x;
    }
  }
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  // Runs the probe kRuns times and returns the host's slowdown: the median
  // probe time over kNominalMs. Every call is also kept for Median().
  double Measure() {
    std::vector<double> ms;
    for (int i = 0; i < kRuns; ++i) ms.push_back(ProbeMs());
    std::nth_element(ms.begin(), ms.begin() + kRuns / 2, ms.end());
    const double slowdown = ms[kRuns / 2] / kNominalMs;
    measured_.push_back(slowdown);
    return slowdown;
  }

  // Median slowdown over every Measure() so far.
  double Median() const {
    if (measured_.empty()) return 1;
    std::vector<double> v = measured_;
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  }

  // Resident bytes of the table, which the program's peak RSS leaves out.
  static constexpr double TableMb() {
    return static_cast<double>(kTableWords * sizeof(std::uint64_t)) /
           (1024.0 * 1024.0);
  }

 private:
  static constexpr std::size_t kTableWords = std::size_t{1} << 23;  // 64 MB
  static constexpr int kReads = 20000;
  static constexpr int kRuns = 15;

  static std::uint64_t Next(std::uint64_t x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }

  double ProbeMs() {
    const std::int64_t t0 = NowNs();
    std::uint64_t x = sink_ | 1, sum = 0;
    for (int i = 0; i < kReads; ++i) {
      x = Next(x);
      sum += table_[x & (kTableWords - 1)];
    }
    sink_ += sum;  // keeps the reads
    return static_cast<double>(NowNs() - t0) / 1e6;
  }

  std::vector<std::uint64_t> table_;
  std::vector<double> measured_;
  std::uint64_t sink_ = 1;
};

}  // namespace mapbench
