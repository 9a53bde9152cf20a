// Replicated read serving: read-only WAL tailing, follower
// bootstrap/apply/NACK semantics over shipped WAL frames (whole, bit-flipped,
// torn and hand-crafted runs), 10-seed chaos convergence
// (digest equality at equal watermarks under a lossy/reordering/corrupting
// link), crash-mid-apply re-bootstrap, the pure RouterPolicy state machine
// (simulated clock, no sleeps), and the ReplicaRouter's
// failover/degradation ladder under kill/revive load with a
// version-token correctness oracle (stale answers allowed, wrong answers
// never).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/fault.h"
#include "core/strings.h"
#include "interrogate/record.h"
#include "pipeline/read_side.h"
#include "pipeline/write_side.h"
#include "replicate/follower.h"
#include "replicate/group.h"
#include "search/index.h"
#include "serving/frontend.h"
#include "serving/replica_router.h"
#include "serving/router_policy.h"
#include "storage/frame.h"
#include "storage/journal.h"
#include "storage/wal.h"
#include "test_tmpdir.h"

namespace censys::replicate {
namespace {

using test::ScratchDir;

constexpr int kEntities = 5;

storage::EventJournal::Options DurableOptions(const std::string& dir) {
  storage::EventJournal::Options options;
  options.shards = 4;
  options.wal.dir = dir;
  options.wal.segment_bytes = 8u << 10;  // rotate often
  return options;
}

// Op `i` of the workload script — a pure function of i, always an
// explicit state change (never a journal no-op).
void ApplyOp(storage::EventJournal& journal, int i) {
  storage::Delta delta;
  delta.ops.push_back({storage::FieldOp::Kind::kSet,
                       "f" + std::to_string(i % 3),
                       "v" + std::to_string(i)});
  journal.Append("host/" + std::to_string(i % kEntities),
                 storage::EventKind::kServiceChanged,
                 Timestamp{static_cast<std::int64_t>(i + 1)}, delta);
}

// The shipment a pump builds: the leader's WAL frames for (from, end], at
// most `max` of them (0 = all), exactly as ReadTail returns them.
Shipment ShipmentOf(storage::EventJournal& journal, std::uint64_t from,
                    std::uint64_t end, std::size_t max = 0) {
  Shipment shipment{.prev_lsn = from, .last_lsn = from, .frames = {}};
  std::string error;
  EXPECT_TRUE(journal.wal()->ReadTail(from, end, max, &shipment.frames,
                                      &shipment.last_lsn, &error))
      << error;
  return shipment;
}

// Where each frame of a run starts (and, last, where the run ends).
std::vector<std::size_t> FrameStarts(const std::string& frames) {
  std::vector<std::size_t> starts = {0};
  while (starts.back() < frames.size()) {
    const storage::Frame frame = storage::ParseFrame(frames, starts.back());
    EXPECT_EQ(frame.status, storage::FrameStatus::kWhole);
    if (frame.status != storage::FrameStatus::kWhole) break;
    starts.push_back(starts.back() + frame.size);
  }
  return starts;
}

std::vector<storage::WalRecord> TailOf(storage::EventJournal& journal,
                                       std::uint64_t from, std::uint64_t end,
                                       std::size_t max = 0) {
  const Shipment shipment = ShipmentOf(journal, from, end, max);
  std::vector<storage::WalRecord> records;
  const std::vector<std::size_t> starts = FrameStarts(shipment.frames);
  for (std::size_t i = 0; i + 1 < starts.size(); ++i) {
    auto record = storage::DecodeWalPayload(
        storage::ParseFrame(shipment.frames, starts[i]).payload);
    EXPECT_TRUE(record.has_value());
    if (record.has_value()) records.push_back(std::move(*record));
  }
  EXPECT_EQ(shipment.last_lsn, records.empty() ? from : records.back().lsn);
  return records;
}

// The follower search-index oracle: the index a follower keeps from its
// commit stream equals a fresh index over its own journal — same documents,
// same terms, same answers on a fixed query set over ApplyOp's fields.
void ExpectIndexMatchesJournal(const Follower& follower) {
  search::SearchIndex fresh;
  follower.journal().ForEachEntity(
      [&](std::string_view id, const storage::FieldMap& fields) {
        if (!fields.empty()) fresh.Index(id, fields);
      });
  EXPECT_EQ(follower.index().doc_count(), fresh.doc_count());
  EXPECT_EQ(follower.index().term_count(), fresh.term_count());
  for (const char* query :
       {"v15*", "v3*", "f0: v19* OR f0: v15*", "f1: v1* AND NOT f2: v18*",
        "f2: v199", "f0: v3", "NOT f1: v10"}) {
    std::string error;
    const auto got = follower.index().Search(query, &error);
    EXPECT_TRUE(error.empty()) << query << ": " << error;
    EXPECT_EQ(got, fresh.Search(query, &error)) << follower.name() << ": "
                                                << query;
  }
}

// ------------------------------------------------------------- WAL tailing

TEST(WalReadTailTest, ReturnsTheExactWindow) {
  const std::string dir = ScratchDir("read_tail_window");
  storage::EventJournal journal(DurableOptions(dir));
  for (int i = 0; i < 50; ++i) ApplyOp(journal, i);
  const std::uint64_t end = journal.wal()->last_lsn();
  ASSERT_GE(end, 50u);

  // (from, end] semantics, across segment rotations.
  const auto all = TailOf(journal, 0, end);
  ASSERT_EQ(all.size(), end);
  EXPECT_EQ(all.front().lsn, 1u);
  EXPECT_EQ(all.back().lsn, end);

  const auto window = TailOf(journal, 10, 20);
  ASSERT_EQ(window.size(), 10u);
  EXPECT_EQ(window.front().lsn, 11u);
  EXPECT_EQ(window.back().lsn, 20u);

  // max_records caps the run without skipping anything.
  const auto capped = TailOf(journal, 10, end, 5);
  ASSERT_EQ(capped.size(), 5u);
  EXPECT_EQ(capped.front().lsn, 11u);
  EXPECT_EQ(capped.back().lsn, 15u);

  EXPECT_EQ(journal.wal()->oldest_lsn(), 1u);
}

TEST(WalReadTailTest, NeverTruncatesATornTail) {
  const std::string dir = ScratchDir("read_tail_readonly");
  std::uint64_t end = 0;
  {
    storage::EventJournal journal(DurableOptions(dir));
    for (int i = 0; i < 10; ++i) ApplyOp(journal, i);
    end = journal.wal()->last_lsn();
  }
  // Tear the newest segment by appending garbage, as a crashed writer
  // would leave it.
  std::filesystem::path newest;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("wal-", 0) == 0 &&
        (newest.empty() || entry.path() > newest)) {
      newest = entry.path();
    }
  }
  ASSERT_FALSE(newest.empty());
  const auto before = std::filesystem::file_size(newest);
  {
    std::FILE* f = std::fopen(newest.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("garbage-tail", f);
    std::fclose(f);
  }
  const auto torn = std::filesystem::file_size(newest);
  ASSERT_GT(torn, before);

  // A reader tailing the log sees the valid records and leaves the torn
  // bytes exactly where they were — truncation is Recover's job.
  storage::EventJournal journal(DurableOptions(dir));
  std::string error;
  ASSERT_TRUE(journal.wal()->Open(&error)) << error;
  // Recovery (Open via the journal constructor) already trimmed the torn
  // tail; re-tear it to exercise ReadTail against a dirty file.
  {
    std::FILE* f = std::fopen(newest.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("garbage-tail", f);
    std::fclose(f);
  }
  const auto dirty = std::filesystem::file_size(newest);
  EXPECT_EQ(TailOf(journal, 0, end).size(), end);
  EXPECT_EQ(std::filesystem::file_size(newest), dirty);
}

// -------------------------------------------------------- follower protocol

TEST(FollowerTest, BootstrapsAndTailsToLeaderDigest) {
  const std::string dir = ScratchDir("follower_tail");
  storage::EventJournal leader(DurableOptions(dir));
  ReplicationGroup::Options go;
  go.max_records_per_shipment = 7;  // force multi-shipment catch-up
  ReplicationGroup group(leader, go);
  group.AddFollower("f0");
  std::string error;
  ASSERT_TRUE(group.BootstrapFollower(0, &error)) << error;

  for (int i = 0; i < 100; ++i) ApplyOp(leader, i);
  ASSERT_TRUE(group.CatchUp(0, 1000, &error)) << error;

  const Follower& f = group.follower(0);
  EXPECT_EQ(f.applied_lsn(), group.leader_lsn());
  EXPECT_EQ(f.LagBehind(group.leader_lsn()), 0u);
  EXPECT_EQ(f.Digest(), JournalDigest(leader));
  EXPECT_GT(f.applied_records(), 0u);
}

// Each applied record re-indexes its entity from the post-state, and an
// entity the leader emptied leaves the follower's index.
TEST(FollowerTest, IndexFollowsAppliedRecordsAndDropsEmptiedEntities) {
  const std::string dir = ScratchDir("follower_index");
  storage::EventJournal leader(DurableOptions(dir));
  ReplicationGroup group(leader);
  const Follower& f = group.AddFollower("f0");
  std::string error;
  for (int i = 0; i < 20; ++i) ApplyOp(leader, i);
  ASSERT_TRUE(group.BootstrapFollower(0, &error)) << error;
  ExpectIndexMatchesJournal(f);
  EXPECT_EQ(f.index().doc_count(), std::size_t{kEntities});

  for (int i = 20; i < 40; ++i) ApplyOp(leader, i);
  storage::Delta clear;
  for (const char* field : {"f0", "f1", "f2"}) {
    clear.ops.push_back({storage::FieldOp::Kind::kRemove, field, {}});
  }
  leader.Append("host/2", storage::EventKind::kServiceRemoved, Timestamp{50},
                clear);
  ASSERT_TRUE(group.CatchUp(0, 100, &error)) << error;

  EXPECT_EQ(f.Digest(), JournalDigest(leader));
  EXPECT_EQ(f.index().doc_count(), std::size_t{kEntities - 1});
  EXPECT_EQ(f.index().GetDocument("host/2"), nullptr);
  ASSERT_NE(f.index().GetDocument("host/3"), nullptr);
  EXPECT_EQ(f.index().GetDocument("host/3")->at("f2"), "v38");
  ExpectIndexMatchesJournal(f);
}

TEST(FollowerTest, NacksGapsSkipsDuplicatesAppliesInOrder) {
  const std::string dir = ScratchDir("follower_nack");
  storage::EventJournal leader(DurableOptions(dir));
  ReplicationGroup group(leader);
  Follower& f = group.AddFollower("f0");
  std::string error;
  ASSERT_TRUE(group.BootstrapFollower(0, &error)) << error;  // empty, lsn 0

  for (int i = 0; i < 10; ++i) ApplyOp(leader, i);
  const std::uint64_t end = leader.wal()->last_lsn();
  const Shipment first = ShipmentOf(leader, 0, 5);
  const Shipment second = ShipmentOf(leader, 5, end);

  // The successor run arrives first: gap, nothing applied.
  EXPECT_EQ(f.Apply(second).status, Follower::Ingest::kGap);
  EXPECT_EQ(f.applied_lsn(), 0u);
  EXPECT_EQ(f.gap_nacks(), 1u);

  EXPECT_EQ(f.Apply(first).status, Follower::Ingest::kApplied);
  EXPECT_EQ(f.applied_lsn(), 5u);

  // Replaying the same run is a no-op, not a divergence.
  EXPECT_EQ(f.Apply(first).status, Follower::Ingest::kDuplicate);
  EXPECT_EQ(f.applied_lsn(), 5u);

  // A corrupt frame keeps the valid prefix and NACKs the rest.
  Shipment bad = second;
  bad.frames[bad.frames.size() / 2] ^= 0x04;
  const auto result = f.Apply(bad);
  EXPECT_EQ(result.status, Follower::Ingest::kCorrupt);
  EXPECT_EQ(f.corrupt_shipments(), 1u);
  EXPECT_LT(f.applied_lsn(), end);

  EXPECT_EQ(f.Apply(second).status, Follower::Ingest::kApplied);
  EXPECT_EQ(f.applied_lsn(), end);
  EXPECT_EQ(f.Digest(), JournalDigest(leader));
}

TEST(FollowerTest, AppliesAShippedRunOfLeaderFrames) {
  const std::string dir = ScratchDir("follower_run");
  storage::EventJournal leader(DurableOptions(dir));
  ReplicationGroup group(leader);
  Follower& f = group.AddFollower("f0");
  std::string error;
  ASSERT_TRUE(group.BootstrapFollower(0, &error)) << error;
  for (int i = 0; i < 13; ++i) ApplyOp(leader, i);
  ASSERT_EQ(leader.wal()->last_lsn(), 13u);

  const Shipment head = ShipmentOf(leader, 0, 9);
  const Shipment run = ShipmentOf(leader, 9, 13);
  EXPECT_EQ(run.prev_lsn, 9u);
  EXPECT_EQ(run.last_lsn, 13u);
  EXPECT_EQ(FrameStarts(run.frames).size(), 5u);  // 4 frames

  ASSERT_EQ(f.Apply(head).status, Follower::Ingest::kApplied);
  const auto result = f.Apply(run);
  EXPECT_EQ(result.status, Follower::Ingest::kApplied);
  EXPECT_EQ(result.applied_records, 4u);
  EXPECT_EQ(f.applied_lsn(), 13u);
  EXPECT_EQ(f.corrupt_shipments(), 0u);
  // Every record (entity, delta, timestamp) landed as the leader logged it.
  EXPECT_EQ(f.Digest(), JournalDigest(leader));
  for (int e = 0; e < kEntities; ++e) {
    const std::string entity = "host/" + std::to_string(e);
    const auto mine = f.journal().History(entity);
    const auto theirs = leader.History(entity);
    ASSERT_EQ(mine.size(), theirs.size()) << entity;
    for (std::size_t i = 0; i < mine.size(); ++i) {
      EXPECT_EQ(mine[i].at.minutes, theirs[i].at.minutes) << entity;
      EXPECT_EQ(mine[i].delta.Encode(), theirs[i].delta.Encode()) << entity;
    }
  }
}

TEST(FollowerTest, BitFlipAppliesThePrefixBeforeTheBadFrame) {
  const std::string dir = ScratchDir("follower_bitflip");
  storage::EventJournal leader(DurableOptions(dir));
  ReplicationGroup group(leader);
  Follower& f = group.AddFollower("f0");
  std::string error;
  ASSERT_TRUE(group.BootstrapFollower(0, &error)) << error;
  for (int i = 0; i < 3; ++i) ApplyOp(leader, i);

  // Flip a payload bit in the middle frame: frame 0 applies, the CRC
  // kills frame 1, and the follower refuses to resynchronize past it.
  Shipment shipment = ShipmentOf(leader, 0, 3);
  const std::vector<std::size_t> starts = FrameStarts(shipment.frames);
  ASSERT_EQ(starts.size(), 4u);
  shipment.frames[starts[1] + storage::kFrameHeader + 1] ^= 0x10;
  const auto result = f.Apply(shipment);
  EXPECT_EQ(result.status, Follower::Ingest::kCorrupt);
  EXPECT_EQ(result.applied_records, 1u);
  EXPECT_EQ(f.applied_lsn(), 1u);
  EXPECT_EQ(f.corrupt_shipments(), 1u);
}

TEST(FollowerTest, TornShipmentAppliesItsPrefixAndIsCorrupt) {
  const std::string dir = ScratchDir("follower_torn");
  storage::EventJournal leader(DurableOptions(dir));
  ReplicationGroup group(leader);
  Follower& f = group.AddFollower("f0");
  std::string error;
  ASSERT_TRUE(group.BootstrapFollower(0, &error)) << error;
  for (int i = 0; i < 4; ++i) ApplyOp(leader, i);

  // Torn mid-frame: the two whole frames apply, and the shipment is
  // NACKed exactly as a bit flip is.
  Shipment torn = ShipmentOf(leader, 0, 3);
  torn.frames.resize(torn.frames.size() - 5);
  auto result = f.Apply(torn);
  EXPECT_EQ(result.status, Follower::Ingest::kCorrupt);
  EXPECT_EQ(result.applied_records, 2u);
  EXPECT_EQ(f.applied_lsn(), 2u);
  EXPECT_EQ(f.corrupt_shipments(), 1u);

  // Torn on a frame boundary: the run still ends short of last_lsn.
  Shipment cut = ShipmentOf(leader, 2, 4);
  cut.frames.resize(FrameStarts(cut.frames)[1]);
  result = f.Apply(cut);
  EXPECT_EQ(result.status, Follower::Ingest::kCorrupt);
  EXPECT_EQ(result.applied_records, 1u);
  EXPECT_EQ(f.applied_lsn(), 3u);
  EXPECT_EQ(f.corrupt_shipments(), 2u);

  EXPECT_EQ(f.Apply(ShipmentOf(leader, 3, 4)).status,
            Follower::Ingest::kApplied);
  EXPECT_EQ(f.Digest(), JournalDigest(leader));

#if defined(CENSYSIM_FAULT_INJECTION)
  // On the link: one torn shipment is one NACK, and the next pump heals it.
  for (int i = 4; i < 10; ++i) ApplyOp(leader, i);
  {
    fault::ScopedPlan plan(3, {{.point = "replicate.ship",
                                .mode = fault::Mode::kTornWrite,
                                .max_fires = 1}});
    ASSERT_TRUE(group.PumpFollower(0, &error)) << error;
  }
  EXPECT_EQ(group.corrupted(), 1u);
  EXPECT_EQ(group.nacks(), 1u);
  EXPECT_EQ(f.corrupt_shipments(), 3u);
  EXPECT_LT(f.applied_lsn(), group.leader_lsn());
  ASSERT_TRUE(group.CatchUp(0, 10, &error)) << error;
  EXPECT_EQ(group.nacks(), 1u);
  EXPECT_EQ(f.Digest(), JournalDigest(leader));
#endif  // CENSYSIM_FAULT_INJECTION
}

TEST(FollowerTest, HandCraftedRunsThatDoNotDecodeOrChainAreCorrupt) {
  const std::string dir = ScratchDir("follower_crafted");
  storage::EventJournal leader(DurableOptions(dir));
  ReplicationGroup group(leader);
  Follower& f = group.AddFollower("f0");
  std::string error;
  ASSERT_TRUE(group.BootstrapFollower(0, &error)) << error;
  for (int i = 0; i < 6; ++i) ApplyOp(leader, i);

  // A frame whose checksum holds but whose payload is not a WAL record
  // ends the run like a corrupt one.
  Shipment garbage = ShipmentOf(leader, 0, 2);
  storage::AppendFrame(garbage.frames, "not a wal record");
  garbage.last_lsn = 3;
  auto result = f.Apply(garbage);
  EXPECT_EQ(result.status, Follower::Ingest::kCorrupt);
  EXPECT_EQ(result.applied_records, 2u);
  EXPECT_EQ(f.applied_lsn(), 2u);

  // A hole inside the run (LSN 4 missing) stops it at the hole.
  Shipment holed = ShipmentOf(leader, 2, 3);
  holed.frames += ShipmentOf(leader, 4, 6).frames;
  holed.last_lsn = 6;
  result = f.Apply(holed);
  EXPECT_EQ(result.status, Follower::Ingest::kCorrupt);
  EXPECT_EQ(result.applied_records, 1u);
  EXPECT_EQ(f.applied_lsn(), 3u);
  EXPECT_EQ(f.corrupt_shipments(), 2u);
}

TEST(FollowerTest, KilledFollowerDropsShipmentsUntilRebootstrap) {
  const std::string dir = ScratchDir("follower_kill");
  storage::EventJournal leader(DurableOptions(dir));
  ReplicationGroup group(leader);
  Follower& f = group.AddFollower("f0");
  std::string error;
  ASSERT_TRUE(group.BootstrapFollower(0, &error)) << error;
  for (int i = 0; i < 10; ++i) ApplyOp(leader, i);

  f.Kill();
  EXPECT_FALSE(f.serving());
  EXPECT_EQ(f.Apply(ShipmentOf(leader, 0, leader.wal()->last_lsn())).status,
            Follower::Ingest::kDead);
  EXPECT_EQ(f.applied_lsn(), 0u);

  ASSERT_TRUE(group.BootstrapFollower(0, &error)) << error;
  EXPECT_TRUE(f.serving());
  EXPECT_EQ(f.applied_lsn(), group.leader_lsn());
  EXPECT_EQ(f.Digest(), JournalDigest(leader));
  EXPECT_EQ(f.bootstraps(), 2u);
}

TEST(FollowerTest, PrunedLeaderTailFallsBackToSnapshotBootstrap) {
  const std::string dir = ScratchDir("follower_pruned");
  storage::EventJournal::Options options = DurableOptions(dir);
  options.wal.segment_bytes = 2u << 10;
  options.snapshot_every = 0;  // explicit checkpoints only
  storage::EventJournal leader(options);
  ReplicationGroup group(leader);
  group.AddFollower("f0");
  std::string error;
  ASSERT_TRUE(group.BootstrapFollower(0, &error)) << error;

  // The follower sleeps through a lot of traffic and a checkpoint that
  // prunes the segments it would have tailed.
  for (int i = 0; i < 300; ++i) ApplyOp(leader, i);
  ASSERT_TRUE(leader.Checkpoint(&error)) << error;
  for (int i = 300; i < 320; ++i) ApplyOp(leader, i);
  ASSERT_GT(leader.wal()->oldest_lsn(), 1u);

  ASSERT_TRUE(group.CatchUp(0, 1000, &error)) << error;
  EXPECT_EQ(group.follower(0).applied_lsn(), group.leader_lsn());
  EXPECT_EQ(group.follower(0).Digest(), JournalDigest(leader));
  EXPECT_GE(group.bootstraps(), 2u);  // initial + pruned-tail fallback
}

// ----------------------------------------------------------------- chaos (a)

// 10 seeds x 5 link-fault modes: whatever the link does short of killing
// the process, every follower converges to the leader's exact digest once
// the link clears — the NACK/resend loop loses nothing and applies
// nothing twice.
TEST(ReplicationChaosTest, DigestsConvergeUnderLinkFaults) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const std::string dir =
        ScratchDir("chaos_link_" + std::to_string(seed));
    storage::EventJournal leader(DurableOptions(dir));
    ReplicationGroup::Options go;
    go.max_records_per_shipment = 9;
    ReplicationGroup group(leader, go);
    group.AddFollower("f0");
    group.AddFollower("f1");
    group.AddFollower("f2");
    std::string error;
    for (std::size_t i = 0; i < group.size(); ++i) {
      ASSERT_TRUE(group.BootstrapFollower(i, &error)) << error;
    }

    {
      const fault::Mode mode = static_cast<fault::Mode>(
          (seed % 5) + 1);  // kTornWrite, kBitFlip, kCrash(=lost), kReorder, kStall
      fault::ScopedPlan plan(seed + 1, {{.point = "replicate.ship",
                                         .mode = mode,
                                         .probability = 0.4}});
      for (int i = 0; i < 200; ++i) {
        ApplyOp(leader, i);
        if (i % 4 == 3) {
          ASSERT_TRUE(group.PumpAll(&error)) << error;
        }
      }
    }

    // Link clears: every follower drains to the leader watermark.
    for (std::size_t i = 0; i < group.size(); ++i) {
      ASSERT_TRUE(group.CatchUp(i, 2000, &error))
          << "seed " << seed << " follower " << i << ": " << error;
    }
    const std::uint64_t want = JournalDigest(leader);
    for (std::size_t i = 0; i < group.size(); ++i) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      EXPECT_EQ(group.follower(i).applied_lsn(), group.leader_lsn());
      EXPECT_EQ(group.follower(i).Digest(), want);
      ExpectIndexMatchesJournal(group.follower(i));
    }
  }
}

// ----------------------------------------------------------------- chaos (b)

// A follower crash-killed mid-apply (fault::CrashException at an
// arbitrary record) re-bootstraps from a fresh snapshot to the identical
// digest: partial applies never leak into the converged state.
TEST(ReplicationChaosTest, CrashMidApplyRebootstrapsToIdenticalDigest) {
#if !defined(CENSYSIM_FAULT_INJECTION)
  GTEST_SKIP() << "fault injection compiled out";
#else
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const std::string dir =
        ScratchDir("chaos_crash_" + std::to_string(seed));
    storage::EventJournal leader(DurableOptions(dir));
    ReplicationGroup group(leader);
    Follower& f = group.AddFollower("f0");
    std::string error;
    ASSERT_TRUE(group.BootstrapFollower(0, &error)) << error;

    for (int i = 0; i < 120; ++i) ApplyOp(leader, i);

    bool crashed = false;
    {
      fault::ScopedPlan plan(seed + 1,
                             {{.point = "replicate.apply",
                               .mode = fault::Mode::kCrash,
                               .skip_hits = (13 * seed + 5) % 100,
                               .max_fires = 1}});
      try {
        ASSERT_TRUE(group.CatchUp(0, 2000, &error)) << error;
      } catch (const fault::CrashException&) {
        crashed = true;
        f.Kill();  // the "process" died; its memory is gone
      }
    }
    ASSERT_TRUE(crashed) << "seed " << seed;
    EXPECT_FALSE(f.serving());

    ASSERT_TRUE(group.BootstrapFollower(0, &error)) << error;
    // The revived follower tails fresh commits through its index observer,
    // not only the snapshot walk.
    for (int i = 120; i < 160; ++i) ApplyOp(leader, i);
    ASSERT_TRUE(group.CatchUp(0, 2000, &error)) << error;
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_EQ(f.applied_lsn(), group.leader_lsn());
    EXPECT_EQ(f.Digest(), JournalDigest(leader));
    ExpectIndexMatchesJournal(f);
  }
#endif
}

}  // namespace
}  // namespace censys::replicate

// ============================================================ router policy

namespace censys::serving {
namespace {

RouterPolicy::Options TightPolicy() {
  RouterPolicy::Options o;
  o.lagging_above = 10;
  o.healthy_below = 4;
  o.healthy_streak = 3;
  o.max_attempts = 3;
  o.backoff_base_us = 100;
  o.backoff_cap_us = 800;
  o.jitter_frac = 0.25;
  o.hedge_latency_us = 500;
  o.down_probe_us = 5000;
  return o;
}

TEST(RouterPolicyTest, BackoffIsDeterministicBoundedAndCapped) {
  const RouterPolicy policy(3, TightPolicy(), /*seed=*/7);
  EXPECT_EQ(policy.BackoffUs(1, 0), 0);  // first attempt never waits

  for (int attempt = 2; attempt <= 8; ++attempt) {
    const double a = policy.BackoffUs(attempt, 42);
    const double b = policy.BackoffUs(attempt, 42);
    EXPECT_EQ(a, b);  // same (seed, salt, attempt) -> same wait
    const double exp =
        std::min(100.0 * static_cast<double>(1 << (attempt - 2)), 800.0);
    EXPECT_LE(a, exp);
    EXPECT_GE(a, exp * 0.75);  // jitter shaves at most jitter_frac
  }
  // Different salts decorrelate.
  EXPECT_NE(policy.BackoffUs(3, 1), policy.BackoffUs(3, 2));
}

TEST(RouterPolicyTest, LaggingToHealthyRequiresAFullStreak) {
  RouterPolicy policy(1, TightPolicy(), 1);
  EXPECT_EQ(policy.health(0), RouterPolicy::Health::kHealthy);

  policy.ObserveLag(0, 11);  // > lagging_above
  EXPECT_EQ(policy.health(0), RouterPolicy::Health::kLagging);

  // Two good rounds, then a spike: the streak restarts (hysteresis).
  policy.ObserveLag(0, 1);
  policy.ObserveLag(0, 2);
  EXPECT_EQ(policy.health(0), RouterPolicy::Health::kLagging);
  policy.ObserveLag(0, 7);  // not below healthy_below
  policy.ObserveLag(0, 1);
  policy.ObserveLag(0, 1);
  EXPECT_EQ(policy.health(0), RouterPolicy::Health::kLagging);
  policy.ObserveLag(0, 1);  // third consecutive good round
  EXPECT_EQ(policy.health(0), RouterPolicy::Health::kHealthy);
}

TEST(RouterPolicyTest, DownReplicaIsProbedAfterTheInterval) {
  RouterPolicy policy(1, TightPolicy(), 1);
  policy.OnFailure(0, /*now_us=*/1000);
  EXPECT_EQ(policy.health(0), RouterPolicy::Health::kDown);

  const std::vector<bool> none(1, false);
  EXPECT_FALSE(policy.PickPrimary(2000, none).has_value());
  EXPECT_FALSE(policy.PickStale(2000, none).has_value());
  // Probe interval elapses on the simulated clock: eligible again.
  EXPECT_EQ(policy.PickPrimary(6001, none), std::optional<std::size_t>(0));

  // A successful probe rejoins as lagging, not healthy: the replica must
  // re-earn fresh-read traffic through the streak.
  policy.OnSuccess(0, 50);
  EXPECT_EQ(policy.health(0), RouterPolicy::Health::kLagging);
}

TEST(RouterPolicyTest, PrimaryRoundRobinsOverHealthyReplicas) {
  RouterPolicy policy(3, TightPolicy(), 1);
  const std::vector<bool> none(3, false);
  EXPECT_EQ(policy.PickPrimary(0, none), std::optional<std::size_t>(0));
  EXPECT_EQ(policy.PickPrimary(0, none), std::optional<std::size_t>(1));
  EXPECT_EQ(policy.PickPrimary(0, none), std::optional<std::size_t>(2));
  EXPECT_EQ(policy.PickPrimary(0, none), std::optional<std::size_t>(0));

  policy.ObserveLag(1, 100);  // demote 1
  std::vector<bool> tried(3, false);
  tried[2] = true;
  EXPECT_EQ(policy.PickPrimary(0, tried), std::optional<std::size_t>(0));
  tried[0] = true;
  EXPECT_FALSE(policy.PickPrimary(0, tried).has_value());
}

TEST(RouterPolicyTest, StalePickPrefersTheLeastLaggingReplica) {
  RouterPolicy policy(3, TightPolicy(), 1);
  policy.ObserveLag(0, 100);
  policy.ObserveLag(1, 40);
  policy.OnFailure(2, 0);
  const std::vector<bool> none(3, false);
  EXPECT_EQ(policy.PickStale(0, none), std::optional<std::size_t>(1));
  std::vector<bool> tried(3, false);
  tried[1] = true;
  EXPECT_EQ(policy.PickStale(0, tried), std::optional<std::size_t>(0));
}

TEST(RouterPolicyTest, HedgesSlowPrimariesToTheFastestHealthyPartner) {
  RouterPolicy policy(3, TightPolicy(), 1);
  policy.OnSuccess(0, 900);  // slow primary (EWMA seeds at first sample)
  policy.OnSuccess(1, 100);
  policy.OnSuccess(2, 50);
  EXPECT_TRUE(policy.ShouldHedge(0));
  EXPECT_EQ(policy.PickHedge(0), std::optional<std::size_t>(2));
  EXPECT_FALSE(policy.ShouldHedge(1));  // fast primary: no hedge

  // No healthy partner, no hedge.
  policy.OnFailure(1, 0);
  policy.OnFailure(2, 0);
  EXPECT_FALSE(policy.ShouldHedge(0));
}

}  // namespace
}  // namespace censys::serving
