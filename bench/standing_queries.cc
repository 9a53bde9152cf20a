// Standing-query fan-out cost (DESIGN.md §12): two thousand registered
// expressions ride the journal's commit observer through a full simulated
// run. The numbers pin the incremental-evaluation claim — per-commit cost
// scales with the queries a delta's fields shortlist, not with the total
// registered population — so the printed figures are the evaluation rate
// and the total time spent inside OnCommit, read against the run's journal
// volume.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/clock.h"
#include "core/metrics.h"
#include "query/standing.h"

using namespace censys;
using namespace censys::bench;

namespace {

// A realistic mixed population: mostly field-constrained service terms
// (cheap — shortlisted by the touched field), a NOT slice (universe
// transitions), and a small any-field slice (evaluated on every commit).
std::vector<std::string> QueryPopulation(std::size_t target) {
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

  std::vector<std::string> out;
  for (const char* word : kWords) out.push_back(word);
  for (const char* port : {"80", "443", "22"}) {
    for (const char* name : {"http", "https", "ssh"}) {
      out.push_back(std::string("NOT svc.") + port +
                    "/tcp.service.name: " + name);
    }
  }
  // Field-constrained bulk: cycle ports x {name, banner word, product,
  // validated}. Repeats are realistic — many subscribers watch the same
  // expression — and each still costs its own per-query evaluation.
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
      case 3:
        out.push_back(prefix + "service.validated: true");
        break;
    }
  }
  return out;
}

}  // namespace

int main() {
  BenchOptions opts;
  opts.with_alternatives = false;
  opts.run_days = 2.0;

  metrics::Registry metrics;
  query::StandingQueryRegistry registry;
  registry.BindMetrics(&metrics);
  std::size_t registered = 0;

  const WallTimer run_timer;
  const auto world = MakeWorld(
      "standing_queries", opts, [&](engines::World& w) {
        for (const std::string& expr : QueryPopulation(2000)) {
          std::string error;
          if (registry.Register(expr, expr, &error).has_value()) {
            ++registered;
          } else {
            std::fprintf(stderr, "standing_queries: %s: %s\n", expr.c_str(),
                         error.c_str());
          }
        }
        w.censys().journal().SetCommitObserver(
            [&registry](const std::vector<storage::AppliedEvent>& batch) {
              registry.OnCommit(batch);
            });
      });
  const double run_secs = run_timer.ElapsedMicros() / 1e6;

  const std::uint64_t evals =
      metrics.CounterValue("censys.query.standing.evals");
  const std::uint64_t events =
      metrics.CounterValue("censys.query.standing.events");
  const metrics::Histogram* eval_us =
      metrics.FindHistogram("censys.query.standing.eval_us");
  const double eval_secs = eval_us != nullptr ? eval_us->sum() / 1e6 : 0;
  const std::uint64_t commits = eval_us != nullptr ? eval_us->count() : 0;
  const double evals_per_s = eval_secs > 0 ? evals / eval_secs : 0;

  std::printf("registered queries:     %zu\n", registered);
  std::printf("observed commits:       %llu\n",
              static_cast<unsigned long long>(commits));
  std::printf("match events pushed:    %llu\n",
              static_cast<unsigned long long>(events));
  std::printf("per-doc evaluations:    %llu (%.3g/s inside OnCommit)\n",
              static_cast<unsigned long long>(evals), evals_per_s);
  std::printf("time inside OnCommit:   %.1f ms (%.1f%% of the %.1fs run)\n",
              eval_secs * 1000.0,
              run_secs > 0 ? 100.0 * eval_secs / run_secs : 0, run_secs);

  if (registered == 0 || events == 0 || evals == 0) {
    std::fprintf(stderr,
                 "standing_queries: degenerate run (registered=%zu "
                 "events=%llu evals=%llu)\n",
                 registered, static_cast<unsigned long long>(events),
                 static_cast<unsigned long long>(evals));
    return 1;
  }
  return 0;
}
