#include "predict/predictive.h"

#include <algorithm>

namespace censys::predict {
namespace {

std::uint64_t BlockPortKey(std::uint32_t block_id, Port port) {
  return (static_cast<std::uint64_t>(block_id) << 16) | port;
}

std::uint32_t PairKey(Port a, Port b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint32_t>(a) << 16) | b;
}

constexpr std::size_t kTopPartners = 8;

using Partner = std::pair<Port, std::uint32_t>;

// A correlated_ list's order: higher count first, ties by lower port.
bool RanksBefore(const Partner& x, const Partner& y) {
  if (x.second != y.second) return x.second > y.second;
  return x.first < y.first;
}

// Sets `partner`'s count in a top list after it grew. Counts only grow, so
// a partner outside the list can enter only here, when its own count
// rises, and it can only move up.
void Promote(std::vector<Partner>& top, Partner partner) {
  // A member's count now exceeds the 8th's, so a full list whose 8th
  // this partner does not rank before cannot hold it: the common case,
  // settled without a scan.
  if (top.size() == kTopPartners && !RanksBefore(partner, top.back())) {
    return;
  }
  auto it = std::find_if(top.begin(), top.end(), [&](const Partner& p) {
    return p.first == partner.first;
  });
  if (it != top.end()) {
    it->second = partner.second;
  } else if (top.size() < kTopPartners) {
    it = top.insert(top.end(), partner);
  } else {
    it = top.end() - 1;
    *it = partner;  // displaces the 8th
  }
  for (; it != top.begin() && RanksBefore(*it, *(it - 1)); --it) {
    std::iter_swap(it, it - 1);
  }
}

}  // namespace

PredictiveEngine::PredictiveEngine(const simnet::BlockPlan& plan,
                                   std::uint64_t seed, Options options)
    : plan_(plan), options_(options), rng_(SplitMix64(seed ^ 0x93ED1C7)) {}

void PredictiveEngine::ObserveService(ServiceKey key) {
  ++stats_.observations;
  const simnet::NetworkBlock& block = plan_.BlockOf(key.ip);
  ++block_port_counts_[BlockPortKey(block.id, key.port)];
  hot_dirty_ = true;

  auto& ports = host_ports_[key.ip.value()];
  if (std::find(ports.begin(), ports.end(), key.port) == ports.end()) {
    // Update co-occurrence with previously known ports on this host.
    if (pair_counts_.size() < options_.max_pairs) {
      for (Port existing : ports) RaisePair(existing, key.port);
    }
    if (ports.size() < 16) ports.push_back(key.port);
    // Freshly (re)discovered hosts are prime co-occurrence targets.
    if (recent_hosts_.size() < 65536) recent_hosts_.push_back(key.ip.value());
  }
}

void PredictiveEngine::RaisePair(Port a, Port b) {
  const std::uint32_t count = ++pair_counts_[PairKey(a, b)];
  if (count < options_.min_cooccurrence_support) return;
  Promote(correlated_[a], Partner{b, count});
  Promote(correlated_[b], Partner{a, count});
}

bool PredictiveEngine::Cooldown(ServiceKey key, Timestamp now) {
  auto [it, inserted] = last_proposed_.try_emplace(key.Pack(), now);
  if (inserted) return true;
  if (it->second + options_.proposal_cooldown > now) return false;
  it->second = now;
  return true;
}

std::vector<ServiceKey> PredictiveEngine::GenerateCandidates(
    Timestamp now, std::size_t budget) {
  std::vector<ServiceKey> out;
  out.reserve(budget);

  if (hot_dirty_) {
    hot_affinities_.clear();
    for (const auto& [key, count] : block_port_counts_) {
      if (count >= options_.min_affinity_support) {
        hot_affinities_.push_back(AffinityEntry{
            static_cast<std::uint32_t>(key >> 16),
            static_cast<Port>(key & 0xffff), count});
      }
    }
    // Strongest affinities first.
    std::sort(hot_affinities_.begin(), hot_affinities_.end(),
              [](const AffinityEntry& a, const AffinityEntry& b) {
                if (a.support != b.support) return a.support > b.support;
                if (a.block_id != b.block_id) return a.block_id < b.block_id;
                return a.port < b.port;
              });
    hot_dirty_ = false;
  }

  // --- model 1: network-port affinity -----------------------------------------
  const std::size_t affinity_budget = budget * 6 / 10;
  if (!hot_affinities_.empty()) {
    std::size_t emitted = 0;
    std::size_t attempts = 0;
    const std::size_t max_attempts = affinity_budget * 4;
    while (emitted < affinity_budget && attempts < max_attempts) {
      ++attempts;
      // Sample affinities with bias toward the head of the list.
      const std::size_t index = static_cast<std::size_t>(
          rng_.NextBelow(hot_affinities_.size()) *
          rng_.NextDouble());  // squared-uniform: head-heavy
      const AffinityEntry& entry = hot_affinities_[index];
      const simnet::NetworkBlock& block = plan_.blocks()[entry.block_id];
      const IPv4Address ip = block.cidr.AddressAt(
          rng_.NextBelow(block.cidr.size()));
      const ServiceKey key{ip, entry.port, Transport::kTcp};
      if (!Cooldown(key, now)) continue;
      out.push_back(key);
      ++emitted;
      ++stats_.affinity_candidates;
    }
  }

  // --- model 2: port co-occurrence ---------------------------------------------
  // For hosts with known services, propose the most strongly correlated
  // ports. Hosts with fresh discoveries are drained first — a brand-new
  // host with port 80 open is the best candidate for its siblings.
  std::size_t emitted = 0;
  const std::size_t cooccur_budget = budget - out.size();
  auto propose_for_host = [&](std::uint32_t ip) {
    const auto hp = host_ports_.find(ip);
    if (hp == host_ports_.end()) return;
    for (Port known : hp->second) {
      const auto corr = correlated_.find(known);
      if (corr == correlated_.end()) continue;
      for (const auto& [candidate_port, support] : corr->second) {
        if (std::find(hp->second.begin(), hp->second.end(), candidate_port) !=
            hp->second.end())
          continue;  // already known open
        const ServiceKey key{IPv4Address(ip), candidate_port, Transport::kTcp};
        if (!Cooldown(key, now)) continue;
        out.push_back(key);
        ++emitted;
        ++stats_.cooccurrence_candidates;
        if (emitted >= cooccur_budget) return;
      }
    }
  };

  // Fresh hosts first.
  while (emitted < cooccur_budget && !recent_hosts_.empty()) {
    const std::uint32_t ip = recent_hosts_.front();
    recent_hosts_.pop_front();
    propose_for_host(ip);
  }
  // Then a random sweep over known hosts.
  if (!host_ports_.empty()) {
    std::size_t attempts = 0;
    const std::size_t max_attempts = cooccur_budget * 4 + 16;
    const std::size_t bucket_count = host_ports_.bucket_count();
    std::size_t bucket = static_cast<std::size_t>(
        SplitMix64(static_cast<std::uint64_t>(now.minutes)) % bucket_count);
    while (emitted < cooccur_budget && attempts < max_attempts) {
      ++attempts;
      bucket = (bucket + 1) % bucket_count;
      for (auto it = host_ports_.begin(bucket);
           it != host_ports_.end(bucket) && emitted < cooccur_budget; ++it) {
        propose_for_host(it->first);
      }
    }
  }

  stats_.candidates_emitted += out.size();
  return out;
}

}  // namespace censys::predict
