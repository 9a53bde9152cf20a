// The predictive scan engine (§4.1 "Predictive Scanning").
//
// Censys "implements several dozen probabilistic models that rely on
// transport and application layer features along with network and
// geolocation data in an approach inspired by Izhikevich et al. [GPS]".
// Our engine learns two families of conditionals online from discovery
// results and proposes (ip, port) candidates:
//
//   1. network-port affinity:   P(port p open | network block b)
//      — services cluster by deployment (a hosting block full of :8443
//      panels predicts more of them);
//   2. port co-occurrence:      P(port q open on host | port p open)
//      — multi-service hosts open correlated ports (80 -> 443, 22 -> 2222).
//
// It also re-injects services pruned within the last 60 days (§4.6), so
// transiently-offline services on obscure ports are quickly re-found.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "core/rng.h"
#include "core/types.h"
#include "simnet/blocks.h"

namespace censys::predict {

struct PredictorStats {
  std::uint64_t observations = 0;
  std::uint64_t candidates_emitted = 0;
  std::uint64_t affinity_candidates = 0;
  std::uint64_t cooccurrence_candidates = 0;
};

class PredictiveEngine {
 public:
  struct Options {
    // Minimum observations of (block, port) before the affinity model
    // proposes that port across the block.
    std::uint32_t min_affinity_support = 3;
    // Minimum co-occurrence count before proposing a correlated port.
    std::uint32_t min_cooccurrence_support = 4;
    // Do not re-propose a candidate within this window.
    Duration proposal_cooldown = Duration::Days(7);
    // Cap on tracked co-occurrence pairs (memory guard).
    std::size_t max_pairs = 1u << 20;
  };

  PredictiveEngine(const simnet::BlockPlan& plan, std::uint64_t seed)
      : PredictiveEngine(plan, seed, Options()) {}
  PredictiveEngine(const simnet::BlockPlan& plan, std::uint64_t seed,
                   Options options);

  // Online training: a service was confirmed at `key`.
  void ObserveService(ServiceKey key);

  // Proposes up to `budget` candidates to probe at `now`.
  std::vector<ServiceKey> GenerateCandidates(Timestamp now,
                                             std::size_t budget);

  const PredictorStats& stats() const { return stats_; }

 private:
  bool Cooldown(ServiceKey key, Timestamp now);
  // Counts one more host with ports a and b both open, keeping both
  // ports' correlated_ lists exact.
  void RaisePair(Port a, Port b);

  const simnet::BlockPlan& plan_;
  Options options_;
  Rng rng_;

  // Affinity model: (block_id, port) -> observation count.
  std::unordered_map<std::uint64_t, std::uint32_t> block_port_counts_;
  // Ports seen per host (bounded small vectors).
  std::unordered_map<std::uint32_t, std::vector<Port>> host_ports_;
  // Co-occurrence model: (port_a << 16 | port_b) -> count, a < b.
  std::unordered_map<std::uint32_t, std::uint32_t> pair_counts_;
  // Per port, its top-8 partners with at least min_cooccurrence_support,
  // by count (descending) then port, kept exact on every pair increment.
  std::unordered_map<Port, std::vector<std::pair<Port, std::uint32_t>>>
      correlated_;
  // Hosts with fresh discoveries, drained first by candidate generation
  // (new hosts are the best co-occurrence targets).
  std::deque<std::uint32_t> recent_hosts_;
  // Proposal cooldown: packed key -> last proposal time.
  std::unordered_map<std::uint64_t, Timestamp> last_proposed_;

  // Hot lists rebuilt lazily from the models.
  struct AffinityEntry {
    std::uint32_t block_id;
    Port port;
    std::uint32_t support;
  };
  std::vector<AffinityEntry> hot_affinities_;
  bool hot_dirty_ = true;

  PredictorStats stats_;
};

}  // namespace censys::predict
