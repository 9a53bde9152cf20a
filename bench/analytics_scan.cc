// Columnar aggregation throughput vs the snapshot-walk it replaces
// (DESIGN.md §12). Both paths compute the same group-count semantics over
// the same universe — the bench cross-checks the group maps byte-for-byte
// before timing anything — so the printed speedup is pure representation:
// dictionary+RLE column runs against a full walk of every entity's field
// map. The bench exits non-zero below a >=10x suffix-sweep speedup.
//
// It also times the daily segment build (BuildDay into a scratch segment
// directory) as the median of kBuilds builds, split by layer from the
// tier's censys.query.build_*_us histograms: the chunked entity visit that
// builds partial columns, the merge, the CSG1 encode and the file write.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/clock.h"
#include "core/metrics.h"
#include "query/columnar.h"
#include "test_tmpdir.h"

using namespace censys;
using namespace censys::bench;

namespace {

struct Measured {
  double rows_per_s = 0;
  double ms_per_scan = 0;
};

// Runs `scan` until both the iteration floor and the wall floor are met;
// rates are nominal universe rows per wall second.
Measured MeasureScans(const std::function<query::AnalyticsTier::Aggregate()>&
                          scan,
                      int min_iters, double min_secs) {
  const std::uint64_t rows_per_scan = scan().rows;  // warm-up
  const WallTimer timer;
  std::uint64_t rows = 0;
  int iters = 0;
  while (iters < min_iters || timer.ElapsedMicros() < min_secs * 1e6) {
    rows += scan().rows;
    ++iters;
  }
  const double secs = timer.ElapsedMicros() / 1e6;
  Measured m;
  m.rows_per_s = secs > 0 ? static_cast<double>(rows) / secs : 0;
  m.ms_per_scan = iters > 0 ? secs * 1000.0 / iters : 0;
  (void)rows_per_scan;
  return m;
}

constexpr int kBuilds = 5;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

void RequireEqualGroups(const query::AnalyticsTier::Aggregate& a,
                        const query::AnalyticsTier::Aggregate& b,
                        const char* what) {
  if (a.groups != b.groups || a.rows != b.rows) {
    std::fprintf(stderr,
                 "analytics_scan: %s: segment and walk disagree "
                 "(%zu vs %zu groups, %llu vs %llu rows)\n",
                 what, a.groups.size(), b.groups.size(),
                 static_cast<unsigned long long>(a.rows),
                 static_cast<unsigned long long>(b.rows));
    std::abort();
  }
}

}  // namespace

int main() {
  BenchOptions opts;
  opts.with_alternatives = false;
  opts.run_days = 2.0;
  const auto world = MakeWorld("analytics_scan", opts);
  const storage::EventJournal& journal = world->censys().journal();

  metrics::Registry registry;
  query::AnalyticsTier tier(journal,
                            {.dir = test::ScratchDir("analytics_scan")});
  tier.BindMetrics(&registry);
  const std::int64_t day = world->now().minutes / (24 * 60);
  struct Layer {
    const char* label;
    const char* histogram;
  };
  const Layer kLayers[] = {
      {"visit + partial build", "censys.query.build_visit_us"},
      {"merge", "censys.query.build_merge_us"},
      {"encode", "censys.query.build_encode_us"},
      {"write", "censys.query.build_write_us"}};
  std::vector<double> build_ms;
  std::vector<std::vector<double>> layer_ms(std::size(kLayers));
  for (int b = 0; b < kBuilds; ++b) {
    std::vector<double> before;
    for (const Layer& layer : kLayers) {
      before.push_back(registry.GetHistogram(layer.histogram).sum());
    }
    const WallTimer build_timer;
    std::string error;
    if (!tier.BuildDay(day, &error)) {
      std::fprintf(stderr, "analytics_scan: BuildDay: %s\n", error.c_str());
      return 1;
    }
    build_ms.push_back(build_timer.ElapsedMicros() / 1000.0);
    for (std::size_t l = 0; l < std::size(kLayers); ++l) {
      layer_ms[l].push_back(
          (registry.GetHistogram(kLayers[l].histogram).sum() - before[l]) /
          1000.0);
    }
  }

  const std::string suffix = ".service.name";
  const std::string field = "svc.443/tcp.service.name";

  // Same answer on both paths before any timing.
  const auto seg_suffix = tier.GroupCountSuffix(day, suffix);
  const auto walk_suffix = tier.WalkJournalSuffix(suffix);
  RequireEqualGroups(seg_suffix, walk_suffix, "suffix sweep");
  const auto seg_field = tier.GroupCount(day, field);
  const auto walk_field = tier.WalkJournal(field);
  RequireEqualGroups(seg_field, walk_field, "exact field");

  const Measured walk_sfx = MeasureScans(
      [&] { return tier.WalkJournalSuffix(suffix); }, 3, 0.4);
  const Measured seg_sfx = MeasureScans(
      [&] { return tier.GroupCountSuffix(day, suffix); }, 30, 0.4);
  const Measured walk_fld = MeasureScans(
      [&] { return tier.WalkJournal(field); }, 3, 0.4);
  const Measured seg_fld = MeasureScans(
      [&] { return tier.GroupCount(day, field); }, 30, 0.4);

  const double suffix_speedup = walk_sfx.rows_per_s > 0
                                    ? seg_sfx.rows_per_s / walk_sfx.rows_per_s
                                    : 0;
  const double field_speedup = walk_fld.rows_per_s > 0
                                   ? seg_fld.rows_per_s / walk_fld.rows_per_s
                                   : 0;

  std::printf("universe rows:          %llu (day %lld, %zu groups in %s)\n",
              static_cast<unsigned long long>(seg_suffix.rows),
              static_cast<long long>(day), seg_suffix.groups.size(),
              suffix.c_str());
  std::printf("segment build:          %.2f ms (median of %d)\n",
              Median(build_ms), kBuilds);
  for (std::size_t l = 0; l < std::size(kLayers); ++l) {
    std::printf("  %-22s %.2f ms\n", kLayers[l].label,
                Median(layer_ms[l]));
  }
  std::printf("\n");
  std::printf("%-28s %14s %14s\n", "sweep", "rows/s", "ms/scan");
  std::printf("%-28s %14.3g %14.3f\n", "walk  suffix .service.name",
              walk_sfx.rows_per_s, walk_sfx.ms_per_scan);
  std::printf("%-28s %14.3g %14.3f\n", "seg   suffix .service.name",
              seg_sfx.rows_per_s, seg_sfx.ms_per_scan);
  std::printf("%-28s %14.3g %14.3f\n", "walk  field 443/tcp",
              walk_fld.rows_per_s, walk_fld.ms_per_scan);
  std::printf("%-28s %14.3g %14.3f\n", "seg   field 443/tcp",
              seg_fld.rows_per_s, seg_fld.ms_per_scan);
  std::printf("\nsuffix speedup: %.1fx   exact-field speedup: %.1fx "
              "(acceptance floor: 10x)\n",
              suffix_speedup, field_speedup);

  if (suffix_speedup < 10.0) {
    std::fprintf(stderr,
                 "analytics_scan: suffix speedup %.1fx below the 10x "
                 "acceptance floor\n",
                 suffix_speedup);
    return 1;
  }
  return 0;
}
