// Leader-side replication: snapshot bootstrap + WAL tail shipping over a
// fault-injectable link.
//
// A ReplicationGroup wraps the leader's EventJournal (which must have a
// WAL — shipping reads the durable log, never leader memory) and a set of
// Followers. Shipping is pull-model and self-healing: each pump reads the
// leader tail past the follower's applied LSN (WriteAheadLog::ReadTail,
// read-only) and delivers its frames, as read, in one Shipment; a lost,
// stalled, corrupt, torn, or overtaken shipment simply leaves the
// follower's watermark short of its end, so the next pump re-reads from
// there — the NACK/resend loop needs no retransmit queue. When checkpoint
// pruning has dropped segments below a lagging follower's watermark, the
// pump falls back to a fresh snapshot bootstrap instead.
//
// The "replicate.ship" fault point fires once per shipment on the link:
//   kErrorReturn  shipment lost in flight
//   kStall        slow link / slow replica: nothing arrives this round
//   kBitFlip      one bit of the framed run flips (CRC catches it)
//   kTornWrite    the shipment arrives truncated mid-frame
//   kReorder      the successor run overtakes this shipment (the follower
//                 sees the gap first and NACKs)
//
// Threading: Pump*/Bootstrap*/AddFollower run on one thread, quiescent
// with leader appends (the engine's command thread between ticks, or the
// chaos harness's driver loop). Follower read stacks serve concurrently
// throughout. Apply-side crashes (fault::CrashException) propagate out of
// PumpFollower — nothing in src/ catches the SIGKILL stand-in.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "replicate/follower.h"
#include "storage/journal.h"

namespace censys::replicate {

class ReplicationGroup {
 public:
  struct Options {
    // Records per shipment; small values exercise the gap/NACK machinery,
    // large values amortize framing.
    std::size_t max_records_per_shipment = 64;
    // Shape of new followers. Journal content knobs (snapshot cadence,
    // tiering) are overridden from the leader so digests can match; the
    // shard count is honored as given.
    Follower::Options follower{};
  };

  explicit ReplicationGroup(storage::EventJournal& leader);
  ReplicationGroup(storage::EventJournal& leader, Options options);

  ReplicationGroup(const ReplicationGroup&) = delete;
  ReplicationGroup& operator=(const ReplicationGroup&) = delete;

  // Adds a (not yet bootstrapped) follower; the reference stays valid for
  // the group's lifetime.
  Follower& AddFollower(std::string name);
  std::size_t size() const { return followers_.size(); }
  Follower& follower(std::size_t i) { return *followers_[i]; }
  const Follower& follower(std::size_t i) const { return *followers_[i]; }

  // The leader's last durable LSN (the replication high-water mark).
  std::uint64_t leader_lsn() const;

  // Snapshots the leader at its current durable LSN and (re-)bootstraps
  // follower i from it. Quiescent-point only.
  bool BootstrapFollower(std::size_t i, std::string* error);

  // One shipping round for follower i: at most one shipment (plus the
  // overtaker a kReorder fault injects). Killed followers are skipped.
  // Returns false on leader-side read errors that bootstrap could not
  // repair; may propagate fault::CrashException from the apply path.
  bool PumpFollower(std::size_t i, std::string* error);

  // One shipping round for every follower; refreshes the lag gauges.
  bool PumpAll(std::string* error);

  // Pumps follower i until it reaches the leader LSN or max_rounds pass.
  // Returns true when caught up.
  bool CatchUp(std::size_t i, int max_rounds, std::string* error);

  // Max LagBehind(leader_lsn()) across serving followers.
  std::uint64_t MaxLag() const;

  // --- accounting -------------------------------------------------------------
  std::uint64_t shipments() const { return shipments_; }
  std::uint64_t shipped_records() const { return shipped_records_; }
  std::uint64_t lost() const { return lost_; }
  std::uint64_t corrupted() const { return corrupted_; }
  std::uint64_t reordered() const { return reordered_; }
  std::uint64_t stalled() const { return stalled_; }
  std::uint64_t nacks() const { return nacks_; }
  std::uint64_t bootstraps() const { return bootstraps_; }

  // Registers censys.replicate.* instruments.
  void BindMetrics(metrics::Registry* registry);

 private:
  Follower::IngestResult Deliver(Follower& follower, const Shipment& shipment);
  void RefreshGauges();

  storage::EventJournal& leader_;
  Options options_;
  // unique_ptr so follower addresses survive vector growth — frontends
  // and routers hold pointers into them.
  std::vector<std::unique_ptr<Follower>> followers_;

  // Pump-thread-only accounting (see the threading contract above).
  std::uint64_t shipments_ = 0;
  std::uint64_t shipped_records_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t corrupted_ = 0;
  std::uint64_t reordered_ = 0;
  std::uint64_t stalled_ = 0;
  std::uint64_t nacks_ = 0;
  std::uint64_t bootstraps_ = 0;

  metrics::CounterHandle shipments_metric_;
  metrics::CounterHandle shipped_records_metric_;
  metrics::CounterHandle lost_metric_;
  metrics::CounterHandle corrupted_metric_;
  metrics::CounterHandle reordered_metric_;
  metrics::CounterHandle stalled_metric_;
  metrics::CounterHandle nacks_metric_;
  metrics::CounterHandle bootstraps_metric_;
  metrics::GaugeHandle max_lag_metric_;
  metrics::GaugeHandle followers_down_metric_;
};

}  // namespace censys::replicate
