#include "replicate/follower.h"

#include "core/fault.h"
#include "storage/frame.h"
#include "storage/wal.h"

namespace censys::replicate {

std::uint64_t JournalDigest(const storage::EventJournal& journal) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&h](std::string_view s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  };
  journal.ScanAll([&](std::string_view key, std::string_view value) {
    mix(key);
    mix(value);
    return true;
  });
  return h;
}

namespace {

storage::EventJournal::Options WithoutWal(
    storage::EventJournal::Options options) {
  // Followers are WAL-less by design: durability lives on the leader, and
  // a follower that lost its memory re-bootstraps from a snapshot.
  options.wal = storage::WriteAheadLog::Options{};
  return options;
}

}  // namespace

Follower::Follower(std::string name, Options options)
    : name_(std::move(name)),
      options_(std::move(options)),
      journal_(WithoutWal(options_.journal)),
      write_side_(journal_),
      read_side_(journal_, write_side_) {
  read_side_.EnableCache();
  // The index follows the commit stream: ApplyReplicated hands each
  // record's post-state to this observer on the pump thread, its only
  // writer, so the state needs no copy.
  journal_.SetCommitObserver(
      [this](const std::vector<storage::AppliedEvent>& batch) {
        for (const storage::AppliedEvent& event : batch) {
          if (event.post_state->empty()) {
            index_.Remove(event.entity_id);  // no-op if never indexed
          } else {
            index_.Index(event.entity_id, *event.post_state);
          }
        }
      });
}

bool Follower::Bootstrap(std::string_view snapshot, std::uint64_t lsn) {
  serving_.store(false, std::memory_order_release);
  // Wipe the previous incarnation's index before the journal resets
  // underneath it.
  index_.Clear();
  read_side_.cache()->Clear();
  if (!journal_.LoadReplicaSnapshot(snapshot, lsn)) {
    applied_lsn_.store(0, std::memory_order_release);
    return false;
  }
  search::IndexJournal(journal_, index_);
  applied_lsn_.store(lsn, std::memory_order_release);
  bootstraps_.fetch_add(1, std::memory_order_relaxed);
  serving_.store(true, std::memory_order_release);
  return true;
}

Follower::IngestResult Follower::Apply(const Shipment& shipment) {
  IngestResult result;
  if (!serving()) {
    result.status = Ingest::kDead;
    return result;
  }
  std::uint64_t applied = applied_lsn_.load(std::memory_order_relaxed);
  if (shipment.last_lsn <= applied) {
    result.status = Ingest::kDuplicate;
    return result;
  }
  if (shipment.prev_lsn > applied) {
    // The run starts past our watermark: an earlier shipment was lost or
    // overtaken. NACK so the shipper re-reads from applied_lsn.
    gap_nacks_.fetch_add(1, std::memory_order_relaxed);
    result.status = Ingest::kGap;
    return result;
  }

  result.status = Ingest::kApplied;
  std::size_t offset = 0;
  while (offset < shipment.frames.size()) {
    const storage::Frame frame = storage::ParseFrame(shipment.frames, offset);
    if (frame.status != storage::FrameStatus::kWhole) break;
    const auto record = storage::DecodeWalPayload(frame.payload);
    if (!record.has_value()) break;
    offset += frame.size;
    if (record->lsn <= applied) continue;  // duplicate prefix: already applied
    if (record->lsn != applied + 1) {
      // Records must chain contiguously; a hole inside the run means the
      // shipment is not trustworthy past this point.
      corrupt_shipments_.fetch_add(1, std::memory_order_relaxed);
      result.status = Ingest::kCorrupt;
      return result;
    }
    if (const auto fault = fault::Hit("replicate.apply")) {
      if (fault->mode == fault::Mode::kCrash) {
        // Mid-apply process death. The applied prefix stays applied (each
        // record applies atomically under its shard lock); the harness
        // Kill()s us and later re-bootstraps.
        throw fault::CrashException{"replicate.apply"};
      }
      // Any other mode: the apply loop stalls; the rest of the shipment
      // is retried on a later pump.
      result.status = Ingest::kStalled;
      return result;
    }
    journal_.ApplyReplicated(*record);
    applied = record->lsn;
    applied_lsn_.store(applied, std::memory_order_release);
    applied_records_.fetch_add(1, std::memory_order_relaxed);
    ++result.applied_records;
  }
  if (applied < shipment.last_lsn) {
    // A torn or corrupt frame cut the run short: the valid prefix applied;
    // the cut tail must be re-shipped.
    corrupt_shipments_.fetch_add(1, std::memory_order_relaxed);
    result.status = Ingest::kCorrupt;
  }
  return result;
}

}  // namespace censys::replicate
