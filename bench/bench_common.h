// Shared setup for the table/figure reproduction harnesses.
//
// Every bench builds a World from a deterministic seed, bootstraps the
// engines' steady-state datasets, and runs the simulation forward before
// measuring — mirroring how the paper measured a system that had been
// running for years. All knobs can be overridden via environment variables
// (CENSYSIM_SEED, CENSYSIM_UNIVERSE_BITS, CENSYSIM_SERVICES,
// CENSYSIM_DAYS) so reviewers can rerun at other scales.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>

#include "engines/evaluation.h"
#include "engines/world.h"

namespace censys::bench {

struct BenchOptions {
  std::uint64_t seed = 42;
  int universe_bits = 18;
  std::uint32_t services = 40000;
  double ics_scale = 64.0;
  double run_days = 6.0;
  bool with_alternatives = true;
};

inline std::uint64_t EnvOr(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::strtoull(value, nullptr, 10) : fallback;
}

inline BenchOptions WithEnvOverrides(BenchOptions opts) {
  opts.seed = EnvOr("CENSYSIM_SEED", opts.seed);
  opts.universe_bits =
      static_cast<int>(EnvOr("CENSYSIM_UNIVERSE_BITS",
                             static_cast<std::uint64_t>(opts.universe_bits)));
  opts.services = static_cast<std::uint32_t>(
      EnvOr("CENSYSIM_SERVICES", opts.services));
  opts.run_days = static_cast<double>(
      EnvOr("CENSYSIM_DAYS", static_cast<std::uint64_t>(opts.run_days)));
  return opts;
}

// `pre_run` (optional) runs after construction but before bootstrap — the
// hook for wiring components that live above the engine in the layer DAG
// (e.g. web::AttachCatalog) so they observe the whole simulated run.
inline std::unique_ptr<engines::World> MakeWorld(
    const char* bench_name, BenchOptions opts,
    const std::function<void(engines::World&)>& pre_run = {}) {
  opts = WithEnvOverrides(opts);
  engines::WorldConfig cfg;
  cfg.universe.seed = opts.seed;
  cfg.universe.universe_size = 1u << opts.universe_bits;
  cfg.universe.target_services = opts.services;
  cfg.universe.ics_scale = opts.ics_scale;
  cfg.with_alternatives = opts.with_alternatives;

  std::printf("== %s ==\n", bench_name);
  std::printf(
      "world: seed=%llu universe=2^%d target_services=%u ics_scale=%.0f "
      "sim_days=%.1f\n\n",
      static_cast<unsigned long long>(opts.seed), opts.universe_bits,
      opts.services, opts.ics_scale, opts.run_days);

  auto world = std::make_unique<engines::World>(cfg);
  if (pre_run) pre_run(*world);
  world->Bootstrap();
  world->RunForDays(opts.run_days);
  return world;
}

}  // namespace censys::bench
