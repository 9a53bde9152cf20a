// Benchmark-side span recorder for the traced run (--trace 1).
//
// Spans are recorded only from the benchmark's own code, around each call
// it makes into a layer (tick, pump, router call, OnCommit, BuildDay,
// aggregate). Every thread appends to its own SpanLog, so recording takes
// no lock; the logs grow without bound, so a whole run is kept (unlike a
// fixed-size ring). At the end the logs are merged, each span's self time
// is its duration minus the union of its children's intervals, and the
// spans are written as Chrome trace-event JSON (loadable in a trace
// viewer or the repository's tracereport tool).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace mapbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A span's parent, possibly in another thread's log (a router call on a
// client thread is a child of the batch span on the main thread).
struct SpanRef {
  int log = -1;
  int index = -1;
};

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  SpanRef parent;
  std::uint32_t round = 0;  // the tick round the span belongs to
};

class SpanLog {
 public:
  explicit SpanLog(int id) : id_(id) {}

  // Opens a span under the innermost open span of this log, or under
  // `outer` when nothing is open here (cross-thread parent).
  int Begin(const char* name, std::uint32_t round, SpanRef outer = {}) {
    Span span;
    span.name = name;
    span.round = round;
    span.parent = open_.empty() ? outer : SpanRef{id_, open_.back()};
    span.start_ns = NowNs();
    spans_.push_back(span);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
    open_.pop_back();
  }

  SpanRef Current() const {
    return open_.empty() ? SpanRef{} : SpanRef{id_, open_.back()};
  }
  int id() const { return id_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int id_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null log makes it free (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint32_t round,
             SpanRef outer = {})
      : log_(log), index_(log != nullptr ? log->Begin(name, round, outer) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

struct LayerTime {
  std::uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

// Per span name: count, total and self time over every log.
inline std::map<std::string, LayerTime> SummarizeSpans(
    const std::vector<const SpanLog*>& logs) {
  // Children intervals per parent, keyed by (log, index).
  std::map<std::pair<int, int>, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (s.parent.log >= 0) {
        children[{s.parent.log, s.parent.index}].emplace_back(s.start_ns,
                                                              s.end_ns);
      }
    }
  }
  std::map<std::string, LayerTime> out;
  for (const SpanLog* log : logs) {
    for (std::size_t i = 0; i < log->spans().size(); ++i) {
      const Span& s = log->spans()[i];
      const double total_ns = static_cast<double>(s.end_ns - s.start_ns);
      double covered_ns = 0;
      const auto it = children.find({log->id(), static_cast<int>(i)});
      if (it != children.end()) {
        auto intervals = it->second;
        std::sort(intervals.begin(), intervals.end());
        std::int64_t cur_start = 0, cur_end = -1;
        for (auto [a, b] : intervals) {
          a = std::max(a, s.start_ns);
          b = std::min(b, s.end_ns);
          if (b <= a) continue;
          if (a > cur_end) {
            if (cur_end > cur_start) covered_ns += static_cast<double>(cur_end - cur_start);
            cur_start = a;
            cur_end = b;
          } else {
            cur_end = std::max(cur_end, b);
          }
        }
        if (cur_end > cur_start) covered_ns += static_cast<double>(cur_end - cur_start);
      }
      LayerTime& lt = out[s.name];
      ++lt.count;
      lt.total_ms += total_ns / 1e6;
      lt.self_ms += (total_ns - covered_ns) / 1e6;
    }
  }
  return out;
}

// Chrome trace-event JSON ("X" complete events, microseconds).
inline bool WriteChromeTrace(const std::string& path,
                             const std::vector<const SpanLog*>& logs) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::int64_t origin = INT64_MAX;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) origin = std::min(origin, s.start_ns);
  }
  std::fprintf(out, "{\"traceEvents\":[");
  bool first = true;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      const std::string name = s.name;
      const std::string cat = name.substr(0, name.find('.'));
      std::fprintf(out,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                   "\"args\":{\"round\":%u}}",
                   first ? "" : ",", s.name, cat.c_str(),
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, log->id(),
                   s.round);
      first = false;
    }
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace mapbench
