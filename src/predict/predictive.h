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

#include <array>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/metrics.h"
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

  // Registers censys.predict.capped_recounts.
  void BindMetrics(metrics::Registry* registry);

 private:
  // A port's top partners, best first: (partner port, pair count).
  struct TopPartners {
    static constexpr std::size_t kCapacity = 8;
    std::array<std::pair<Port, std::uint32_t>, kCapacity> partners;
    std::uint8_t size = 0;
  };

  bool Cooldown(ServiceKey key, Timestamp now);
  // Sets a partner's count in `top` after it grew, keeping the order.
  static void Promote(TopPartners& top, std::pair<Port, std::uint32_t> partner);
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
  // Co-occurrence model: (port_a << 16 | port_b) -> count, a < b. Only
  // ever counted up by key and sized, never iterated, so it is an
  // open-addressing table (linear probing, at most half full): an
  // increment probes one array where a node map chased two pointers.
  class PairCounts {
   public:
    // The count of `key`, inserted at 0 when absent.
    std::uint32_t& operator[](std::uint32_t key);
    std::size_t size() const { return size_; }

   private:
    // No pair key: a < b, so a pair never has a == b == 0xffff.
    static constexpr std::uint32_t kEmpty = 0xffffffff;
    // The slot `key`'s probe run starts at.
    std::size_t Home(std::uint32_t key) const {
      return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
    }
    void Grow();

    std::vector<std::pair<std::uint32_t, std::uint32_t>> slots_;
    int shift_ = 0;  // 64 - log2(slots_.size()), set by Grow
    std::size_t size_ = 0;
  };
  PairCounts pair_counts_;
  // Per port (indexed by port number, all 65,536), its top-8 partners
  // with at least min_cooccurrence_support, by count (descending) then
  // port, kept exact on every pair increment.
  std::vector<TopPartners> correlated_ = std::vector<TopPartners>(1u << 16);
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
  // Observations of a port not stored on a host that already stores the
  // maximum: each one counts the host's pairs again.
  metrics::CounterHandle capped_recounts_metric_;
};

}  // namespace censys::predict
