#include "replicate/group.h"

#include <algorithm>

#include "core/fault.h"

namespace censys::replicate {

ReplicationGroup::ReplicationGroup(storage::EventJournal& leader)
    : ReplicationGroup(leader, Options()) {}

ReplicationGroup::ReplicationGroup(storage::EventJournal& leader,
                                   Options options)
    : leader_(leader), options_(std::move(options)) {
  if (options_.max_records_per_shipment == 0) {
    options_.max_records_per_shipment = 1;
  }
}

Follower& ReplicationGroup::AddFollower(std::string name) {
  Follower::Options fo = options_.follower;
  // Journal *content* knobs must match the leader or digests diverge
  // (snapshot cadence decides which snapshot rows exist). Shard count is
  // content-neutral and stays whatever the caller configured.
  fo.journal.snapshot_every = leader_.options().snapshot_every;
  fo.journal.auto_tier = leader_.options().auto_tier;
  followers_.push_back(
      std::make_unique<Follower>(std::move(name), std::move(fo)));
  return *followers_.back();
}

std::uint64_t ReplicationGroup::leader_lsn() const {
  return leader_.wal_enabled() ? leader_.wal()->last_lsn() : 0;
}

bool ReplicationGroup::BootstrapFollower(std::size_t i, std::string* error) {
  if (!leader_.wal_enabled()) {
    if (error != nullptr) *error = "replication leader has no WAL";
    return false;
  }
  std::string err;
  if (!leader_.wal()->Open(&err)) {
    if (error != nullptr) *error = err;
    return false;
  }
  const std::uint64_t lsn = leader_.wal()->last_lsn();
  const std::string snapshot = leader_.EncodeReplicaSnapshot(lsn);
  if (!followers_[i]->Bootstrap(snapshot, lsn)) {
    if (error != nullptr) {
      *error = "follower " + followers_[i]->name() + ": corrupt snapshot";
    }
    return false;
  }
  ++bootstraps_;
  bootstraps_metric_.Add();
  return true;
}

Follower::IngestResult ReplicationGroup::Deliver(Follower& follower,
                                                 const Shipment& shipment) {
  ++shipments_;
  shipments_metric_.Add();
  const Follower::IngestResult result = follower.Apply(shipment);
  shipped_records_ += result.applied_records;
  shipped_records_metric_.Add(result.applied_records);
  switch (result.status) {
    case Follower::Ingest::kGap:
    case Follower::Ingest::kCorrupt:
    case Follower::Ingest::kStalled:
      // The follower's watermark did not reach the shipment's end; the
      // next pump re-reads from there (the implicit resend).
      ++nacks_;
      nacks_metric_.Add();
      break;
    default:
      break;
  }
  return result;
}

bool ReplicationGroup::PumpFollower(std::size_t i, std::string* error) {
  Follower& f = *followers_[i];
  if (!f.serving()) return true;  // killed: nothing to ship
  if (!leader_.wal_enabled()) {
    if (error != nullptr) *error = "replication leader has no WAL";
    return false;
  }
  storage::WriteAheadLog* wal = leader_.wal();
  std::string err;
  if (!wal->Open(&err)) {
    if (error != nullptr) *error = err;
    return false;
  }
  const std::uint64_t end = wal->last_lsn();
  const std::uint64_t from = f.applied_lsn();
  if (from >= end) return true;  // caught up

  // Checkpoint pruning may have dropped the segments holding (from, ...]:
  // the tail can no longer serve this follower, so fall back to a fresh
  // snapshot bootstrap.
  const std::uint64_t oldest = wal->oldest_lsn();
  if (oldest != 0 && from + 1 < oldest) {
    return BootstrapFollower(i, error);
  }

  // The shipment is the leader's checked frames, exactly as read.
  Shipment shipment{.prev_lsn = from, .last_lsn = from, .frames = {}};
  if (!wal->ReadTail(from, end, options_.max_records_per_shipment,
                     &shipment.frames, &shipment.last_lsn, &err) ||
      shipment.frames.empty()) {
    // A segment vanished mid-read (pruning race) or the window closed:
    // re-bootstrap rather than stall forever.
    return BootstrapFollower(i, error);
  }

  // The link: one fault check per shipment.
  if (const auto fault = fault::Hit("replicate.ship")) {
    switch (fault->mode) {
      case fault::Mode::kErrorReturn:
      case fault::Mode::kCrash:
      default:
        // Lost in flight; the watermark stays put and the next pump
        // re-reads the same run.
        ++lost_;
        lost_metric_.Add();
        return true;
      case fault::Mode::kStall:
        // Slow link / slow replica: nothing arrives this round.
        ++stalled_;
        stalled_metric_.Add();
        return true;
      case fault::Mode::kBitFlip: {
        if (!shipment.frames.empty()) {
          const std::size_t bit = fault->bit % (shipment.frames.size() * 8);
          shipment.frames[bit / 8] ^= static_cast<char>(1u << (bit % 8));
        }
        ++corrupted_;
        corrupted_metric_.Add();
        break;
      }
      case fault::Mode::kTornWrite: {
        // Truncate mid-frame: at least one byte survives, at least one is
        // dropped, so the follower sees a torn frame and NACKs.
        const std::size_t keep = std::clamp<std::size_t>(
            static_cast<std::size_t>(
                fault->tear_frac *
                static_cast<double>(shipment.frames.size())),
            1, shipment.frames.empty() ? 1 : shipment.frames.size() - 1);
        shipment.frames.resize(keep);
        ++corrupted_;
        corrupted_metric_.Add();
        break;
      }
      case fault::Mode::kReorder: {
        // The successor run overtakes this shipment: the follower sees
        // the gap first and NACKs it, then the original lands.
        ++reordered_;
        reordered_metric_.Add();
        Shipment overtaker{.prev_lsn = shipment.last_lsn,
                           .last_lsn = shipment.last_lsn, .frames = {}};
        if (wal->ReadTail(overtaker.prev_lsn, end,
                          options_.max_records_per_shipment,
                          &overtaker.frames, &overtaker.last_lsn, &err) &&
            !overtaker.frames.empty()) {
          Deliver(f, overtaker);
          if (!f.serving()) return true;  // overtaker's apply crash-killed it
        }
        break;
      }
    }
  }

  Deliver(f, shipment);
  return true;
}

bool ReplicationGroup::PumpAll(std::string* error) {
  bool ok = true;
  for (std::size_t i = 0; i < followers_.size(); ++i) {
    if (!PumpFollower(i, error)) ok = false;
  }
  RefreshGauges();
  return ok;
}

bool ReplicationGroup::CatchUp(std::size_t i, int max_rounds,
                               std::string* error) {
  for (int round = 0; round < max_rounds; ++round) {
    if (followers_[i]->serving() &&
        followers_[i]->applied_lsn() >= leader_lsn()) {
      RefreshGauges();
      return true;
    }
    if (!PumpFollower(i, error)) return false;
  }
  RefreshGauges();
  return followers_[i]->serving() &&
         followers_[i]->applied_lsn() >= leader_lsn();
}

std::uint64_t ReplicationGroup::MaxLag() const {
  const std::uint64_t end = leader_lsn();
  std::uint64_t max_lag = 0;
  for (const auto& f : followers_) {
    if (!f->serving()) continue;
    max_lag = std::max(max_lag, f->LagBehind(end));
  }
  return max_lag;
}

void ReplicationGroup::RefreshGauges() {
  std::int64_t down = 0;
  for (const auto& f : followers_) {
    if (!f->serving()) ++down;
  }
  max_lag_metric_.Set(static_cast<std::int64_t>(MaxLag()));
  followers_down_metric_.Set(down);
}

void ReplicationGroup::BindMetrics(metrics::Registry* registry) {
  shipments_metric_ =
      metrics::BindCounter(registry, "censys.replicate.shipments");
  shipped_records_metric_ =
      metrics::BindCounter(registry, "censys.replicate.shipped_records");
  lost_metric_ = metrics::BindCounter(registry, "censys.replicate.ship_lost");
  corrupted_metric_ =
      metrics::BindCounter(registry, "censys.replicate.ship_corrupt");
  reordered_metric_ =
      metrics::BindCounter(registry, "censys.replicate.ship_reordered");
  stalled_metric_ =
      metrics::BindCounter(registry, "censys.replicate.ship_stalled");
  nacks_metric_ = metrics::BindCounter(registry, "censys.replicate.nacks");
  bootstraps_metric_ =
      metrics::BindCounter(registry, "censys.replicate.bootstraps");
  max_lag_metric_ = metrics::BindGauge(registry, "censys.replicate.max_lag");
  followers_down_metric_ =
      metrics::BindGauge(registry, "censys.replicate.followers_down");
}

}  // namespace censys::replicate
