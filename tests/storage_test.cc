// Tests for serialization, delta encoding, the ordered KV store, and the
// event journal (snapshot + replay reconstruction, tier migration).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/fault.h"
#include "core/rng.h"
#include "core/strings.h"
#include "storage/delta.h"
#include "storage/frame.h"
#include "storage/journal.h"
#include "storage/kv.h"
#include "storage/segment_file.h"
#include "storage/serialize.h"
#include "storage/wal.h"
#include "test_tmpdir.h"

namespace censys::storage {
namespace {

// ------------------------------------------------------------------ serialize

TEST(VarintTest, RoundTripsBoundaryValues) {
  for (std::uint64_t v :
       {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull, 0xFFFFFFFFull,
        ~0ull}) {
    std::string buf;
    PutVarint(buf, v);
    std::size_t pos = 0;
    const auto decoded = GetVarint(buf, &pos);
    ASSERT_TRUE(decoded.has_value()) << v;
    EXPECT_EQ(*decoded, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(VarintTest, DetectsTruncation) {
  std::string buf;
  PutVarint(buf, 300);
  buf.pop_back();
  std::size_t pos = 0;
  EXPECT_FALSE(GetVarint(buf, &pos).has_value());
}

TEST(FieldsCodecTest, RoundTrips) {
  FieldMap fields{{"a", "1"}, {"banner", "SSH-2.0-OpenSSH"}, {"empty", ""}};
  const std::string encoded = EncodeFields(fields);
  const auto decoded = DecodeFields(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, fields);
}

TEST(FieldsCodecTest, EqualMapsEncodeIdentically) {
  FieldMap a{{"x", "1"}, {"y", "2"}};
  FieldMap b{{"y", "2"}, {"x", "1"}};
  EXPECT_EQ(EncodeFields(a), EncodeFields(b));
}

TEST(FieldsCodecTest, RejectsGarbage) {
  EXPECT_FALSE(DecodeFields("\xff\xff\xff").has_value());
  const std::string valid = EncodeFields({{"k", "v"}});
  EXPECT_FALSE(DecodeFields(valid + "x").has_value());  // trailing bytes
}

// ---------------------------------------------------------------------- delta

TEST(DeltaTest, ComputeAndApplyRoundTrip) {
  FieldMap before{{"a", "1"}, {"b", "2"}, {"c", "3"}};
  FieldMap after{{"a", "1"}, {"b", "changed"}, {"d", "new"}};
  const Delta delta = ComputeDelta(before, after);
  FieldMap state = before;
  ApplyDelta(state, delta);
  EXPECT_EQ(state, after);
}

TEST(DeltaTest, NoChangeYieldsEmptyDelta) {
  FieldMap state{{"a", "1"}, {"b", "2"}};
  EXPECT_TRUE(ComputeDelta(state, state).empty());
}

TEST(DeltaTest, DeltaIsMinimal) {
  FieldMap before{{"a", "1"}, {"b", "2"}, {"c", "3"}};
  FieldMap after = before;
  after["b"] = "2!";
  const Delta delta = ComputeDelta(before, after);
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_EQ(delta.ops[0].key, "b");
  EXPECT_EQ(delta.ops[0].kind, FieldOp::Kind::kSet);
}

TEST(DeltaTest, EncodesAndDecodes) {
  FieldMap before{{"a", "1"}, {"z", "26"}};
  FieldMap after{{"a", "2"}, {"m", "13"}};
  const Delta delta = ComputeDelta(before, after);
  const auto decoded = Delta::Decode(delta.Encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, delta);
}

TEST(DeltaTest, DecodeRejectsCorruptInput) {
  EXPECT_FALSE(Delta::Decode("\x01X").has_value());  // bad op kind
  const Delta delta = ComputeDelta({}, {{"k", "v"}});
  std::string encoded = delta.Encode();
  encoded.pop_back();
  EXPECT_FALSE(Delta::Decode(encoded).has_value());
}

TEST(DeltaTest, ApplyFromEmptyBuildsState) {
  FieldMap after{{"x", "1"}, {"y", "2"}};
  const Delta delta = ComputeDelta({}, after);
  FieldMap state;
  ApplyDelta(state, delta);
  EXPECT_EQ(state, after);
}

TEST(DeltaTest, RemovalDeltaEmptiesState) {
  FieldMap before{{"x", "1"}, {"y", "2"}};
  const Delta delta = ComputeDelta(before, {});
  EXPECT_EQ(delta.size(), 2u);
  FieldMap state = before;
  ApplyDelta(state, delta);
  EXPECT_TRUE(state.empty());
}

// ------------------------------------------------------------------------- kv

TEST(OrderedKvTest, PutGetDelete) {
  OrderedKv kv;
  kv.Put("k1", "v1");
  kv.Put("k2", "v2");
  EXPECT_EQ(kv.Get("k1"), "v1");
  EXPECT_FALSE(kv.Get("missing").has_value());
  EXPECT_TRUE(kv.Delete("k1"));
  EXPECT_FALSE(kv.Delete("k1"));
  EXPECT_FALSE(kv.Get("k1").has_value());
}

TEST(OrderedKvTest, OverwriteUpdatesBytes) {
  OrderedKv kv;
  kv.Put("key", "short");
  const auto initial = kv.total_bytes();
  kv.Put("key", "a much longer value than before");
  EXPECT_GT(kv.total_bytes(), initial);
  kv.Put("key", "s");
  EXPECT_LT(kv.total_bytes(), initial);
}

TEST(OrderedKvTest, ScanIsOrderedAndBounded) {
  OrderedKv kv;
  for (const char* k : {"b", "a", "d", "c", "e"}) kv.Put(k, k);
  std::string visited;
  kv.Scan("b", "e", [&](std::string_view key, std::string_view) {
    visited += key;
    return true;
  });
  EXPECT_EQ(visited, "bcd");
}

TEST(OrderedKvTest, ScanEarlyStop) {
  OrderedKv kv;
  for (const char* k : {"a", "b", "c"}) kv.Put(k, k);
  int count = 0;
  kv.Scan("a", "", [&](std::string_view, std::string_view) {
    return ++count < 2;
  });
  EXPECT_EQ(count, 2);
}

TEST(OrderedKvTest, SeekBefore) {
  OrderedKv kv;
  kv.Put("b", "1");
  kv.Put("d", "2");
  const auto hit = kv.SeekBefore("c");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->first, "b");
  EXPECT_FALSE(kv.SeekBefore("a").has_value());
  EXPECT_EQ(kv.SeekBefore("z")->first, "d");
}

TEST(OrderedKvTest, TierAccounting) {
  OrderedKv kv;
  kv.Put("hot", "data", Tier::kSsd);
  kv.Put("cold", "data", Tier::kHdd);
  EXPECT_EQ(kv.bytes_on(Tier::kSsd), 7u);
  EXPECT_EQ(kv.bytes_on(Tier::kHdd), 8u);
  EXPECT_TRUE(kv.SetTier("hot", Tier::kHdd));
  EXPECT_EQ(kv.bytes_on(Tier::kSsd), 0u);
  EXPECT_EQ(kv.bytes_on(Tier::kHdd), 15u);
  EXPECT_FALSE(kv.SetTier("missing", Tier::kSsd));
}

TEST(SeqnoCodecTest, PreservesOrder) {
  std::string prev = EncodeSeqno(0);
  for (std::uint64_t v : {1ull, 2ull, 255ull, 256ull, 1ull << 40, ~0ull}) {
    const std::string cur = EncodeSeqno(v);
    EXPECT_LT(prev, cur);
    EXPECT_EQ(DecodeSeqno(cur), v);
    prev = cur;
  }
}

// -------------------------------------------------------------------- journal

Delta SetDelta(const std::string& key, const std::string& value) {
  Delta d;
  d.ops.push_back({FieldOp::Kind::kSet, key, value});
  return d;
}

TEST(JournalTest, CurrentStateTracksAppends) {
  EventJournal journal;
  journal.Append("1.2.3.4", EventKind::kServiceFound, Timestamp{10},
                 SetDelta("svc.80/tcp.name", "HTTP"));
  journal.Append("1.2.3.4", EventKind::kServiceChanged, Timestamp{20},
                 SetDelta("svc.80/tcp.name", "HTTPS"));
  const core::ThreadRoleGuard role(journal.command_role());
  const FieldMap* state = journal.CurrentState("1.2.3.4");
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->at("svc.80/tcp.name"), "HTTPS");
  EXPECT_EQ(journal.event_count(), 2u);
}

TEST(JournalTest, EmptyDeltaRefreshJournalsNothing) {
  EventJournal journal;
  journal.Append("h", EventKind::kServiceFound, Timestamp{10},
                 SetDelta("f", "v"));
  const auto before = journal.event_count();
  journal.Append("h", EventKind::kEntityUpdated, Timestamp{20}, Delta{});
  EXPECT_EQ(journal.event_count(), before);
}

TEST(JournalTest, ReconstructAtTimestamps) {
  EventJournal journal;
  journal.Append("h", EventKind::kServiceFound, Timestamp{10},
                 SetDelta("a", "1"));
  journal.Append("h", EventKind::kServiceChanged, Timestamp{20},
                 SetDelta("a", "2"));
  journal.Append("h", EventKind::kServiceChanged, Timestamp{30},
                 SetDelta("a", "3"));

  EXPECT_FALSE(journal.ReconstructAt("h", Timestamp{5}).has_value());
  EXPECT_EQ(journal.ReconstructAt("h", Timestamp{10})->at("a"), "1");
  EXPECT_EQ(journal.ReconstructAt("h", Timestamp{25})->at("a"), "2");
  EXPECT_EQ(journal.ReconstructAt("h", Timestamp{99})->at("a"), "3");
  EXPECT_FALSE(journal.ReconstructAt("other", Timestamp{99}).has_value());
}

TEST(JournalTest, ReconstructionMatchesCurrentAfterManyEvents) {
  EventJournal::Options options;
  options.snapshot_every = 4;  // force several snapshots
  EventJournal journal(options);
  for (int i = 0; i < 50; ++i) {
    journal.Append("h", EventKind::kServiceChanged, Timestamp{i * 10},
                   SetDelta("field" + std::to_string(i % 7),
                            std::to_string(i)));
  }
  const auto reconstructed = journal.ReconstructAt("h", Timestamp{1000});
  ASSERT_TRUE(reconstructed.has_value());
  const core::ThreadRoleGuard role(journal.command_role());
  EXPECT_EQ(*reconstructed, *journal.CurrentState("h"));
  EXPECT_GT(journal.snapshot_count(), 5u);
}

TEST(JournalTest, SnapshotsBoundReplayLength) {
  EventJournal::Options options;
  options.snapshot_every = 8;
  EventJournal journal(options);
  for (int i = 0; i < 100; ++i) {
    journal.Append("h", EventKind::kServiceChanged, Timestamp{i},
                   SetDelta("f", std::to_string(i)));
  }
  journal.ReconstructAt("h", Timestamp{99});
  EXPECT_LE(journal.max_replay_length(), 8u);
}

TEST(JournalTest, HistoryPreservesAllEvents) {
  EventJournal journal;
  journal.Append("h", EventKind::kServiceFound, Timestamp{1},
                 SetDelta("a", "1"));
  journal.Append("h", EventKind::kServiceRemoved, Timestamp{2},
                 ComputeDelta({{"a", "1"}}, {}));
  const auto history = journal.History("h");
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[0].kind, EventKind::kServiceFound);
  EXPECT_EQ(history[1].kind, EventKind::kServiceRemoved);
  EXPECT_EQ(history[0].at, Timestamp{1});
}

TEST(JournalTest, ColdDataMigratesToHdd) {
  EventJournal::Options options;
  options.snapshot_every = 4;
  EventJournal journal(options);
  for (int i = 0; i < 40; ++i) {
    journal.Append("h", EventKind::kServiceChanged, Timestamp{i},
                   SetDelta("f" + std::to_string(i), "v"));
  }
  // After multiple snapshots, historical rows must live on HDD while the
  // journal tail stays on SSD.
  EXPECT_GT(journal.bytes_on(Tier::kHdd), 0u);
  EXPECT_GT(journal.bytes_on(Tier::kSsd), 0u);
}

TEST(JournalTest, DeltaEncodingBeatsFullRecords) {
  EventJournal journal;
  // One big record refreshed repeatedly with a single changing field.
  FieldMap state;
  for (int f = 0; f < 25; ++f) {
    state["field" + std::to_string(f)] = std::string(30, 'x');
  }
  FieldMap prev;
  for (int refresh = 0; refresh < 20; ++refresh) {
    state["counter"] = std::to_string(refresh);
    journal.Append("h", EventKind::kServiceChanged, Timestamp{refresh},
                   ComputeDelta(prev, state));
    prev = state;
  }
  // "Only differences are stored to disk": after the first full write, the
  // deltas are tiny compared to re-journaling the whole record.
  EXPECT_LT(journal.delta_bytes(),
            journal.full_record_bytes_equivalent() / 5);
}

TEST(JournalTest, EntitiesAreIsolated) {
  EventJournal journal;
  journal.Append("a", EventKind::kServiceFound, Timestamp{1},
                 SetDelta("x", "1"));
  journal.Append("ab", EventKind::kServiceFound, Timestamp{1},
                 SetDelta("y", "2"));
  const core::ThreadRoleGuard role(journal.command_role());
  EXPECT_EQ(journal.CurrentState("a")->size(), 1u);
  EXPECT_EQ(journal.CurrentState("ab")->size(), 1u);
  EXPECT_EQ(journal.History("a").size(), 1u);
  EXPECT_FALSE(journal.CurrentState("a")->contains("y"));
}

// ------------------------------------------------------------------- sharding

namespace {

void FillJournal(EventJournal& journal, int entities, int events_each) {
  for (int e = 0; e < entities; ++e) {
    const std::string id = "host/" + std::to_string(e);
    for (int i = 0; i < events_each; ++i) {
      journal.Append(id, EventKind::kServiceChanged,
                     Timestamp{static_cast<std::int64_t>(i + 1)},
                     SetDelta("f" + std::to_string(i % 5),
                              "v" + std::to_string(i)));
    }
  }
}

std::vector<std::pair<std::string, std::string>> AllRows(
    const EventJournal& journal) {
  std::vector<std::pair<std::string, std::string>> rows;
  journal.ScanAll([&](std::string_view key, std::string_view value) {
    rows.emplace_back(key, value);
    return true;
  });
  return rows;
}

}  // namespace

TEST(JournalShardingTest, ContentIsShardCountIndependent) {
  // The lock-striped journal must be a pure refactor of the single-table
  // one: identical rows in identical canonical order, identical counters,
  // for any shard count.
  EventJournal::Options one;
  one.shards = 1;
  EventJournal::Options many;
  many.shards = 16;
  EventJournal a(one);
  EventJournal b(many);
  FillJournal(a, 40, 25);
  FillJournal(b, 40, 25);

  EXPECT_EQ(a.shard_count(), 1u);
  EXPECT_EQ(b.shard_count(), 16u);
  EXPECT_EQ(AllRows(a), AllRows(b));
  EXPECT_EQ(a.RowCount(), b.RowCount());
  EXPECT_EQ(a.event_count(), b.event_count());
  EXPECT_EQ(a.snapshot_count(), b.snapshot_count());
  EXPECT_EQ(a.delta_bytes(), b.delta_bytes());
  EXPECT_EQ(a.snapshot_bytes(), b.snapshot_bytes());
  EXPECT_EQ(a.bytes_on(Tier::kSsd), b.bytes_on(Tier::kSsd));
  EXPECT_EQ(a.bytes_on(Tier::kHdd), b.bytes_on(Tier::kHdd));
  const core::ThreadRoleGuard role_a(a.command_role());
  const core::ThreadRoleGuard role_b(b.command_role());
  for (int e = 0; e < 40; ++e) {
    const std::string id = "host/" + std::to_string(e);
    ASSERT_EQ(*a.CurrentState(id), *b.CurrentState(id)) << id;
    ASSERT_EQ(a.Watermark(id), b.Watermark(id)) << id;
  }
}

TEST(JournalShardingTest, ScanAllVisitsCanonicalOrderAndStopsEarly) {
  EventJournal::Options options;
  options.shards = 8;
  EventJournal journal(options);
  FillJournal(journal, 20, 10);

  std::string prev;
  std::size_t visited = 0;
  journal.ScanAll([&](std::string_view key, std::string_view) {
    EXPECT_LT(prev, std::string(key));  // strictly ascending, cross-shard
    prev = std::string(key);
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, journal.RowCount());

  std::size_t limited = 0;
  journal.ScanAll([&](std::string_view, std::string_view) {
    return ++limited < 5;
  });
  EXPECT_EQ(limited, 5u);
}

TEST(JournalConcurrencyTest, ReadersRunConcurrentlyWithAppends) {
  // 4 reader threads hammer SnapshotState / ReconstructAt / History /
  // Watermark / ScanAll while the writer keeps appending. Under TSan this
  // proves the lock striping; everywhere it proves snapshots are coherent
  // (a watermark of w implies exactly w journaled events for the entity).
  EventJournal::Options options;
  options.shards = 4;
  options.snapshot_every = 8;
  EventJournal journal(options);
  constexpr int kEntities = 16;
  constexpr int kEventsPerEntity = 400;
  const auto entity_id = [](int e) { return "host/" + std::to_string(e); };

  int reader_count = 4;
  if (const char* env = std::getenv("CENSYSIM_THREADS")) {
    if (std::atoi(env) > 0) reader_count = std::atoi(env);
  }
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < reader_count; ++r) {
    readers.emplace_back([&, r] {
      std::uint64_t local = 0;
      std::uint64_t last_wm[kEntities] = {};
      while (!done.load(std::memory_order_acquire)) {
        const int e = static_cast<int>(local + r) % kEntities;
        const std::string id = entity_id(e);
        const auto snap = journal.SnapshotState(id);
        if (snap.has_value()) {
          // Watermark w == number of appends observed; each append sets
          // field "seq" to its ordinal, so the snapshot must agree.
          ASSERT_EQ(snap->fields.at("seq"),
                    std::to_string(snap->watermark - 1));
          // Watermarks never regress for a given reader.
          ASSERT_GE(snap->watermark, last_wm[e]);
          last_wm[e] = snap->watermark;
          const auto then = journal.ReconstructAt(
              id, Timestamp{static_cast<std::int64_t>(snap->watermark)});
          ASSERT_TRUE(then.has_value());
          ASSERT_EQ(then->at("seq"), std::to_string(snap->watermark - 1));
          ASSERT_GE(journal.History(id).size(), snap->watermark);
        }
        if (local % 64 == 0) {
          journal.ScanAll(
              [&](std::string_view, std::string_view) { return true; });
        }
        ++local;
      }
      reads.fetch_add(local, std::memory_order_relaxed);
    });
  }

  for (int i = 0; i < kEventsPerEntity; ++i) {
    for (int e = 0; e < kEntities; ++e) {
      Delta delta;
      delta.ops.push_back({FieldOp::Kind::kSet, "payload",
                           std::string(16, static_cast<char>('a' + i % 26))});
      delta.ops.push_back({FieldOp::Kind::kSet, "seq", std::to_string(i)});
      journal.Append(entity_id(e), EventKind::kServiceChanged,
                     Timestamp{static_cast<std::int64_t>(i + 1)}, delta);
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_GT(reads.load(), 0u);
  for (int e = 0; e < kEntities; ++e) {
    EXPECT_EQ(journal.Watermark(entity_id(e)),
              static_cast<std::uint64_t>(kEventsPerEntity));
  }
}

// ------------------------------------------------------------------------ wal

using test::ScratchDir;

std::uint64_t JournalDigest(const EventJournal& journal) {
  std::uint64_t digest = 1469598103934665603ull;
  journal.ScanAll([&](std::string_view key, std::string_view value) {
    digest = (digest ^ Fnv1a64(key)) * 1099511628211ull;
    digest = (digest ^ Fnv1a64(value)) * 1099511628211ull;
    return true;
  });
  return digest;
}

Delta SetField(const std::string& field, const std::string& value) {
  Delta delta;
  delta.ops.push_back({FieldOp::Kind::kSet, field, value});
  return delta;
}

// Deterministic append script: op i is a pure function of i, always an
// explicit field set (never a no-op), spread across 5 entities.
void RunScript(EventJournal& journal, int from, int to) {
  for (int i = from; i < to; ++i) {
    journal.Append("host/" + std::to_string(i % 5),
                   EventKind::kServiceChanged,
                   Timestamp{static_cast<std::int64_t>(i + 1)},
                   SetField("f" + std::to_string(i % 3),
                            "v" + std::to_string(i)));
  }
}

WalRecord MakeRecord(const std::string& entity, int i) {
  WalRecord record;
  record.entity = entity;
  record.kind = static_cast<std::uint8_t>(EventKind::kServiceChanged);
  record.at = Timestamp{static_cast<std::int64_t>(i + 1)};
  record.delta = SetField("k", "value-" + std::to_string(i));
  return record;
}

TEST(WalCodecTest, PayloadRoundTrips) {
  WalRecord record;
  record.lsn = 123456789;
  record.entity = "host/192.0.2.1";
  record.kind = static_cast<std::uint8_t>(EventKind::kServiceFound);
  record.at = Timestamp{987654};
  record.delta.ops.push_back({FieldOp::Kind::kSet, "banner", "SSH-2.0"});
  record.delta.ops.push_back({FieldOp::Kind::kRemove, "stale", ""});

  const std::string payload = EncodeWalPayload(record);
  const auto decoded = DecodeWalPayload(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->lsn, record.lsn);
  EXPECT_EQ(decoded->entity, record.entity);
  EXPECT_EQ(decoded->kind, record.kind);
  EXPECT_EQ(decoded->at.minutes, record.at.minutes);
  EXPECT_EQ(decoded->delta.Encode(), record.delta.Encode());
}

TEST(WalCodecTest, DecodeRejectsTruncationAndTrailingGarbage) {
  const std::string payload = EncodeWalPayload(MakeRecord("e", 0));
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(DecodeWalPayload(payload.substr(0, cut)).has_value())
        << "prefix of " << cut;
  }
  EXPECT_FALSE(DecodeWalPayload(payload + "x").has_value());
}

// ------------------------------------------------------------- frame codec

TEST(WalFrameTest, ParsesARunAndReportsEachExtent) {
  std::string run;
  const std::vector<std::string> payloads = {"a", "", std::string(300, 'z')};
  for (const std::string& payload : payloads) AppendFrame(run, payload);
  std::size_t offset = 0;
  for (const std::string& payload : payloads) {
    const Frame frame = ParseFrame(run, offset);
    ASSERT_EQ(frame.status, FrameStatus::kWhole);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_EQ(frame.size, kFrameHeader + payload.size());
    offset += frame.size;
  }
  EXPECT_EQ(offset, run.size());
  const Frame end = ParseFrame(run, offset);
  EXPECT_EQ(end.status, FrameStatus::kTorn);
  EXPECT_EQ(end.size, 0u);
}

TEST(WalFrameTest, TruncationsAreTornAndBitFlipsNeverWhole) {
  Rng rng(19);
  for (int round = 0; round < 40; ++round) {
    std::string payload(rng.NextBelow(round < 4 ? 3 : 200), '\0');
    for (char& c : payload) c = static_cast<char>(rng.NextBelow(256));
    std::string frame;
    AppendFrame(frame, payload);
    ASSERT_EQ(frame.size(), kFrameHeader + payload.size());

    // Every proper prefix is torn, and says so before reading a payload.
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
      const Frame parsed =
          ParseFrame(std::string_view(frame).substr(0, cut), 0);
      EXPECT_EQ(parsed.status, FrameStatus::kTorn) << "cut " << cut;
      EXPECT_TRUE(parsed.payload.empty());
    }
    // Every single-bit flip is caught: torn when it grows the length past
    // the buffer, corrupt otherwise, never whole.
    for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
      std::string flipped = frame;
      flipped[bit / 8] ^= static_cast<char>(1u << (bit % 8));
      const Frame parsed = ParseFrame(flipped, 0);
      EXPECT_NE(parsed.status, FrameStatus::kWhole) << "bit " << bit;
      if (parsed.status == FrameStatus::kWhole) {
        EXPECT_EQ(parsed.payload, payload) << "bit " << bit;
      }
    }
  }
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// The on-disk formats, pinned byte for byte: the framing moved behind
// storage/frame.h without changing a byte any reader sees.
TEST(WalFrameTest, GoldenBytesOfWalCheckpointAndSegmentFiles) {
  const std::string dir = ScratchDir("frame_golden");
  std::string error;
  {
    WriteAheadLog wal({.dir = dir});
    WalRecord record;
    record.entity = "host/192.0.2.1";
    record.kind = static_cast<std::uint8_t>(EventKind::kServiceFound);
    record.at = Timestamp{987654};
    record.delta.ops.push_back({FieldOp::Kind::kSet, "banner", "SSH-2.0"});
    record.delta.ops.push_back({FieldOp::Kind::kRemove, "stale", ""});
    ASSERT_TRUE(wal.Append(record, &error)) << error;
    ASSERT_TRUE(wal.WriteCheckpoint(1, "checkpoint-state", &error)) << error;
  }
  EXPECT_EQ(FileBytes(dir + "/wal-00000000.log"),
            std::string(
                "\x2d\x00\x00\x00\xe3\x9a\x0a\xa6\x01\x00\x86\xa4\x3c\x0e"
                "\x68\x6f\x73\x74\x2f\x31\x39\x32\x2e\x30\x2e\x32\x2e\x31"
                "\x18\x02\x53\x06\x62\x61\x6e\x6e\x65\x72\x07\x53\x53\x48"
                "\x2d\x32\x2e\x30\x52\x05\x73\x74\x61\x6c\x65",
                53));
  EXPECT_EQ(FileBytes(dir + "/ckpt-00000000000000000001.snap"),
            std::string(
                "\x43\x53\x59\x53\x43\x4b\x50\x54\x10\x00\x00\x00\x31\x63"
                "\x34\x8e\x63\x68\x65\x63\x6b\x70\x6f\x69\x6e\x74\x2d\x73"
                "\x74\x61\x74\x65",
                32));

  // A column segment file: one frame around a CSG1 payload (the payload's
  // own encoding belongs to query/columnar and is not pinned here).
  const std::string segment = dir + "/day.csg";
  ASSERT_TRUE(WriteSegmentFile(segment, std::string("CSG1\x01\x00\x02xy", 9),
                               &error))
      << error;
  EXPECT_EQ(FileBytes(segment),
            std::string(
                "\x09\x00\x00\x00\xee\x47\x39\xa7\x43\x53\x47\x31\x01\x00"
                "\x02\x78\x79",
                17));
}

TEST(WalTest, AppendsAssignContiguousLsnsAndReplayInOrder) {
  const std::string dir = ScratchDir("append_replay");
  {
    WriteAheadLog wal({.dir = dir});
    std::string error;
    for (int i = 0; i < 20; ++i) {
      WalRecord record = MakeRecord("host/a", i);
      ASSERT_TRUE(wal.Append(record, &error)) << error;
      EXPECT_EQ(record.lsn, static_cast<std::uint64_t>(i + 1));
    }
    EXPECT_EQ(wal.last_lsn(), 20u);
  }
  // A fresh instance recovers the LSN cursor and replays everything.
  WriteAheadLog wal({.dir = dir});
  std::string error;
  ASSERT_TRUE(wal.Open(&error)) << error;
  EXPECT_EQ(wal.last_lsn(), 20u);
  std::vector<std::uint64_t> lsns;
  WriteAheadLog::ReplayStats stats;
  ASSERT_TRUE(wal.Replay(
      0, [&](const WalRecord& r) { lsns.push_back(r.lsn); }, &stats, &error))
      << error;
  EXPECT_EQ(stats.records, 20u);
  EXPECT_EQ(stats.truncated_bytes, 0u);
  ASSERT_EQ(lsns.size(), 20u);
  for (std::size_t i = 0; i < lsns.size(); ++i) EXPECT_EQ(lsns[i], i + 1);

  // from_lsn skips the durable prefix.
  stats = {};
  std::size_t tail = 0;
  ASSERT_TRUE(wal.Replay(
      15, [&](const WalRecord&) { ++tail; }, &stats, &error));
  EXPECT_EQ(tail, 5u);
  EXPECT_EQ(stats.skipped, 15u);
}

TEST(WalTest, RotationSplitsSegmentsAndReplaySpansThem) {
  const std::string dir = ScratchDir("rotation");
  WriteAheadLog wal({.dir = dir, .segment_bytes = 256});
  std::string error;
  for (int i = 0; i < 64; ++i) {
    WalRecord record = MakeRecord("host/rot", i);
    ASSERT_TRUE(wal.Append(record, &error)) << error;
  }
  EXPECT_GT(wal.rotations(), 2u);
  std::size_t segment_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    segment_files +=
        entry.path().filename().string().rfind("wal-", 0) == 0 ? 1 : 0;
  }
  EXPECT_EQ(segment_files, wal.rotations() + 1);

  std::size_t replayed = 0;
  ASSERT_TRUE(wal.Replay(
      0, [&](const WalRecord&) { ++replayed; }, nullptr, &error))
      << error;
  EXPECT_EQ(replayed, 64u);
}

// Appends `n` records and returns the path of the (single) segment file.
std::string FillSegment(const std::string& dir, int n) {
  WriteAheadLog wal({.dir = dir});
  std::string error;
  for (int i = 0; i < n; ++i) {
    WalRecord record = MakeRecord("host/t", i);
    EXPECT_TRUE(wal.Append(record, &error)) << error;
  }
  return (std::filesystem::path(dir) / "wal-00000000.log").string();
}

TEST(WalTest, TornTailIsTruncatedNotFatal) {
  const std::string dir = ScratchDir("torn");
  const std::string segment = FillSegment(dir, 10);

  // Simulate a crash mid-write: a partial frame lands at the tail.
  const auto full_size = std::filesystem::file_size(segment);
  {
    std::ofstream out(segment, std::ios::binary | std::ios::app);
    out.write("\x40\x00\x00\x00\xde\xad\xbe", 7);  // header + partial bytes
  }

  WriteAheadLog wal({.dir = dir});
  std::string error;
  ASSERT_TRUE(wal.Open(&error)) << error;
  std::size_t replayed = 0;
  WriteAheadLog::ReplayStats stats;
  ASSERT_TRUE(wal.Replay(
      0, [&](const WalRecord&) { ++replayed; }, &stats, &error));
  EXPECT_EQ(replayed, 10u);  // the torn tail cost nothing durable
  EXPECT_EQ(std::filesystem::file_size(segment), full_size);
  EXPECT_EQ(wal.truncated_bytes(), 7u);

  // Appends continue on the clean boundary.
  WalRecord record = MakeRecord("host/t", 10);
  ASSERT_TRUE(wal.Append(record, &error)) << error;
  EXPECT_EQ(record.lsn, 11u);
}

TEST(WalTest, CorruptRecordCutsTheLogAtThatPoint) {
  const std::string dir = ScratchDir("bitflip");
  const std::string segment = FillSegment(dir, 4);

  // Flip one bit in the middle of the file (inside record ~2's payload).
  const auto size = std::filesystem::file_size(segment);
  {
    std::fstream file(segment,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(static_cast<std::streamoff>(size / 2));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    file.seekp(static_cast<std::streamoff>(size / 2));
    file.write(&byte, 1);
  }

  WriteAheadLog wal({.dir = dir});
  std::string error;
  ASSERT_TRUE(wal.Open(&error)) << error;
  std::vector<std::uint64_t> lsns;
  ASSERT_TRUE(wal.Replay(
      0, [&](const WalRecord& r) { lsns.push_back(r.lsn); }, nullptr,
      &error));
  // CRC catches the flip; the log is cut there and only the prefix
  // survives. The file now ends on a record boundary.
  EXPECT_LT(lsns.size(), 4u);
  for (std::size_t i = 0; i < lsns.size(); ++i) EXPECT_EQ(lsns[i], i + 1);
  EXPECT_GE(wal.corrupt_records(), 1u);
  EXPECT_LT(std::filesystem::file_size(segment), size);
  EXPECT_EQ(wal.last_lsn(), lsns.size());
}

// ------------------------------------------------------------ wal tail reads

// Every record Replay delivers past `from_lsn`, at most `max` (0 = all).
std::vector<WalRecord> ReplayedTail(WriteAheadLog& wal, std::uint64_t from_lsn,
                                    std::size_t max = 0) {
  std::vector<WalRecord> records;
  std::string error;
  EXPECT_TRUE(wal.Replay(
      from_lsn,
      [&](const WalRecord& r) {
        if (max == 0 || records.size() < max) records.push_back(r);
      },
      nullptr, &error))
      << error;
  return records;
}

// Decodes a run of frames as ReadTail returns them: every frame whole.
std::vector<WalRecord> DecodeFrames(const std::string& frames) {
  std::vector<WalRecord> records;
  for (std::size_t offset = 0; offset < frames.size();) {
    const Frame frame = ParseFrame(frames, offset);
    EXPECT_EQ(frame.status, FrameStatus::kWhole) << "at " << offset;
    if (frame.status != FrameStatus::kWhole) break;
    auto record = DecodeWalPayload(frame.payload);
    EXPECT_TRUE(record.has_value()) << "at " << offset;
    if (!record.has_value()) break;
    records.push_back(std::move(*record));
    offset += frame.size;
  }
  return records;
}

// ReadTail's frames past `from_lsn`, decoded; its last LSN must be the
// last decoded record's.
std::vector<WalRecord> Tail(WriteAheadLog& wal, std::uint64_t from_lsn,
                            std::size_t max = 0) {
  std::string frames;
  std::uint64_t last_lsn = from_lsn;
  std::string error;
  EXPECT_TRUE(wal.ReadTail(from_lsn, wal.last_lsn(), max, &frames, &last_lsn,
                           &error))
      << error;
  std::vector<WalRecord> records = DecodeFrames(frames);
  EXPECT_EQ(last_lsn, records.empty() ? from_lsn : records.back().lsn);
  return records;
}

void ExpectSameRecords(const std::vector<WalRecord>& got,
                       const std::vector<WalRecord>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].lsn, want[i].lsn) << what << " #" << i;
    EXPECT_EQ(got[i].entity, want[i].entity) << what << " #" << i;
    EXPECT_EQ(got[i].at.minutes, want[i].at.minutes) << what << " #" << i;
    EXPECT_EQ(got[i].delta.Encode(), want[i].delta.Encode())
        << what << " #" << i;
  }
}

// ReadTail against Replay over a spread of windows and batch caps.
void ExpectTailMatchesReplay(WriteAheadLog& wal, const std::string& what) {
  const std::uint64_t last = wal.last_lsn();
  const std::uint64_t oldest = wal.oldest_lsn();
  const std::uint64_t base = oldest > 0 ? oldest - 1 : 0;
  for (const std::uint64_t from :
       {base, base + 1, base + 17, (base + last) / 2, last - 1, last}) {
    for (const std::size_t max : {std::size_t{0}, std::size_t{1},
                                  std::size_t{7}, std::size_t{64}}) {
      ExpectSameRecords(Tail(wal, from, max), ReplayedTail(wal, from, max),
                        what + " from " + std::to_string(from) + " max " +
                            std::to_string(max));
    }
  }
}

// Fills a log with `n` equal-sized records in batches.
void FillFixedSize(WriteAheadLog& wal, int n) {
  std::string error;
  std::vector<WalRecord> batch;
  for (int i = 0; i < n; ++i) {
    WalRecord record = MakeRecord("host/fixed", 0);
    record.delta = SetField("k", std::string(1000, 'x'));
    batch.push_back(std::move(record));
    if (batch.size() == 1000 || i + 1 == n) {
      ASSERT_TRUE(wal.AppendBatch(batch, &error)) << error;
      batch.clear();
    }
  }
}

TEST(WalTailTest, ReadCostDoesNotGrowWithSegmentSize) {
  // One ~0.9 MB segment against one ~60 MB segment: the 64-record tail
  // costs the same bytes in both, not a whole-segment scan.
  WriteAheadLog small({.dir = ScratchDir("tail_cost_small"),
                       .segment_bytes = 1u << 20});
  WriteAheadLog large({.dir = ScratchDir("tail_cost_large"),
                       .segment_bytes = 64u << 20});
  FillFixedSize(small, 900);
  FillFixedSize(large, 60000);
  ASSERT_EQ(small.rotations(), 0u);
  ASSERT_EQ(large.rotations(), 0u);

  const auto small_tail = Tail(small, small.last_lsn() - 64, 64);
  const auto large_tail = Tail(large, large.last_lsn() - 64, 64);
  ASSERT_EQ(small_tail.size(), 64u);
  ASSERT_EQ(large_tail.size(), 64u);
  EXPECT_EQ(large_tail.back().lsn, large.last_lsn());

  // The index is dense (one entry per frame), so its stride is one frame;
  // the two logs' frames differ only in their LSN varints.
  const std::uint64_t frame_bytes = small.appended_bytes() / 900;
  const std::uint64_t small_bytes = small.tail_bytes();
  const std::uint64_t large_bytes = large.tail_bytes();
  EXPECT_LE(small_bytes, 64 * (frame_bytes + 1));
  EXPECT_LE(large_bytes > small_bytes ? large_bytes - small_bytes
                                      : small_bytes - large_bytes,
            frame_bytes);
}

TEST(WalTailTest, MatchesReplayAcrossRotationReopenAndPruning) {
  const std::string dir = ScratchDir("tail_vs_replay");
  {
    WriteAheadLog wal({.dir = dir, .segment_bytes = 512});
    std::string error;
    for (int i = 0; i < 60; ++i) {
      WalRecord record = MakeRecord("host/" + std::to_string(i % 4), i);
      ASSERT_TRUE(wal.Append(record, &error)) << error;
    }
    std::vector<WalRecord> batch;
    for (int i = 60; i < 120; ++i) {
      batch.push_back(MakeRecord("host/" + std::to_string(i % 4), i));
    }
    ASSERT_TRUE(wal.AppendBatch(batch, &error)) << error;
    ASSERT_GT(wal.rotations(), 3u);
    ExpectTailMatchesReplay(wal, "live");
  }

  // A fresh instance rebuilds every segment's index from its recovery scan.
  WriteAheadLog wal({.dir = dir, .segment_bytes = 512});
  std::string error;
  ASSERT_TRUE(wal.Open(&error)) << error;
  ASSERT_EQ(wal.last_lsn(), 120u);
  ExpectTailMatchesReplay(wal, "reopened");

  // Appends after the reopen extend the rebuilt index.
  for (int i = 120; i < 140; ++i) {
    WalRecord record = MakeRecord("host/x", i);
    ASSERT_TRUE(wal.Append(record, &error)) << error;
  }
  ExpectTailMatchesReplay(wal, "reopened+appended");

  // A checkpoint prunes the covered segments and their indexes.
  ASSERT_TRUE(wal.WriteCheckpoint(70, "state", &error)) << error;
  ASSERT_GT(wal.oldest_lsn(), 1u);
  ASSERT_LE(wal.oldest_lsn(), 71u);
  ExpectTailMatchesReplay(wal, "pruned");
  ExpectSameRecords(Tail(wal, 0), ReplayedTail(wal, 0), "pruned from 0");
}

TEST(WalTailTest, HalfWrittenFinalFrameEndsTheRead) {
  const std::string dir = ScratchDir("tail_torn");
  WriteAheadLog wal({.dir = dir});
  std::string error;
  for (int i = 0; i < 10; ++i) {
    WalRecord record = MakeRecord("host/t", i);
    ASSERT_TRUE(wal.Append(record, &error)) << error;
  }
  const std::string segment =
      (std::filesystem::path(dir) / "wal-00000000.log").string();

  // A writer's half-written frame past the last whole one is not read.
  {
    std::ofstream out(segment, std::ios::binary | std::ios::app);
    out.write("\x40\x00\x00\x00\xde\xad\xbe", 7);
  }
  const auto dirty = std::filesystem::file_size(segment);
  EXPECT_EQ(Tail(wal, 0).size(), 10u);
  EXPECT_EQ(Tail(wal, 4, 3).size(), 3u);
  EXPECT_EQ(std::filesystem::file_size(segment), dirty);

  // Cut the last whole frame in half: the read ends at the last whole
  // record, exactly where recovery's replay ends.
  std::filesystem::resize_file(segment, dirty - 7 - 5);
  const auto tail = Tail(wal, 0);
  ASSERT_EQ(tail.size(), 9u);
  ExpectSameRecords(tail, ReplayedTail(wal, 0), "torn");
}

#if defined(CENSYSIM_FAULT_INJECTION)
TEST(WalTailTest, ReadBitFlipStopsAtTheBadFrame) {
  const std::string dir = ScratchDir("tail_bitflip");
  WriteAheadLog wal({.dir = dir, .segment_bytes = 512});
  std::string error;
  for (int i = 0; i < 40; ++i) {
    WalRecord record = MakeRecord("host/f", i);
    ASSERT_TRUE(wal.Append(record, &error)) << error;
  }
  const auto clean = ReplayedTail(wal, 10);
  ASSERT_EQ(clean.size(), 30u);

  // The read point fires once per frame read, and only the shipped frames
  // are read: the 6th frame of the tail flips a bit, so the first 5 ship.
  std::vector<WalRecord> records;
  {
    fault::ScopedPlan plan(1, {{.point = "storage.wal.read",
                                .mode = fault::Mode::kBitFlip,
                                .skip_hits = 5,
                                .max_fires = 1}});
    records = Tail(wal, 10);
    EXPECT_EQ(fault::Injector::Global().hits("storage.wal.read"), 6u);
  }
  ExpectSameRecords(records,
                    std::vector<WalRecord>(clean.begin(), clean.begin() + 5),
                    "bit flip");

  // The flip was in memory only: the next read ships the whole tail.
  ExpectSameRecords(Tail(wal, 10), clean, "after the flip");
}
#endif  // CENSYSIM_FAULT_INJECTION

// ---------------------------------------------------------- journal + wal

EventJournal::Options WalOptions(const std::string& dir) {
  EventJournal::Options options;
  options.shards = 4;
  options.wal.dir = dir;
  return options;
}

TEST(WalJournalTest, WalDoesNotPerturbJournalContent) {
  EventJournal plain{EventJournal::Options{.shards = 4}};
  RunScript(plain, 0, 200);

  EventJournal durable(WalOptions(ScratchDir("no_perturb")));
  RunScript(durable, 0, 200);

  EXPECT_EQ(JournalDigest(durable), JournalDigest(plain));
  EXPECT_EQ(durable.wal()->appended_records(), durable.event_count());
}

TEST(WalJournalTest, RecoverRebuildsByteIdenticalJournal) {
  const std::string dir = ScratchDir("recover_identical");
  EventJournal original(WalOptions(dir));
  RunScript(original, 0, 200);  // 40 events/entity: snapshots + tiering
  const std::uint64_t digest = JournalDigest(original);
  ASSERT_GT(original.snapshot_count(), 0u);

  EventJournal recovered(WalOptions(dir));
  const RecoveryReport report = recovered.Recover();
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.checkpoint_lsn, 0u);  // no checkpoint: full replay
  EXPECT_EQ(report.replayed_records, 200u);
  EXPECT_EQ(report.recovered_events, 200u);
  EXPECT_EQ(JournalDigest(recovered), digest);
  EXPECT_EQ(recovered.event_count(), original.event_count());
  EXPECT_EQ(recovered.snapshot_count(), original.snapshot_count());
  EXPECT_EQ(recovered.delta_bytes(), original.delta_bytes());
  EXPECT_EQ(recovered.bytes_on(Tier::kHdd), original.bytes_on(Tier::kHdd));
  EXPECT_EQ(recovered.Watermark("host/0"), original.Watermark("host/0"));

  // The recovered journal continues identically.
  RunScript(original, 200, 240);
  RunScript(recovered, 200, 240);
  EXPECT_EQ(JournalDigest(recovered), JournalDigest(original));
}

TEST(WalJournalTest, CheckpointBoundsReplayAndPrunesSegments) {
  const std::string dir = ScratchDir("checkpoint");
  EventJournal::Options options = WalOptions(dir);
  options.wal.segment_bytes = 512;  // force plenty of rotations
  EventJournal original(options);
  RunScript(original, 0, 150);
  std::string error;
  const auto checkpoint_lsn = original.Checkpoint(&error);
  ASSERT_TRUE(checkpoint_lsn.has_value()) << error;
  EXPECT_EQ(*checkpoint_lsn, 150u);
  EXPECT_GT(original.wal()->segments_removed(), 0u);
  RunScript(original, 150, 190);
  const std::uint64_t digest = JournalDigest(original);

  EventJournal recovered(options);
  const RecoveryReport report = recovered.Recover();
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.checkpoint_lsn, 150u);
  EXPECT_EQ(report.replayed_records, 40u);  // only the post-checkpoint tail
  EXPECT_EQ(JournalDigest(recovered), digest);
  EXPECT_EQ(recovered.event_count(), 190u);
}

TEST(WalJournalTest, RecoverFallsBackPastCorruptCheckpoint) {
  const std::string dir = ScratchDir("bad_checkpoint");
  EventJournal original(WalOptions(dir));
  RunScript(original, 0, 60);
  std::string error;
  ASSERT_TRUE(original.Checkpoint(&error).has_value()) << error;
  RunScript(original, 60, 120);
  const auto second = original.Checkpoint(&error);
  ASSERT_TRUE(second.has_value()) << error;
  RunScript(original, 120, 140);
  const std::uint64_t digest = JournalDigest(original);

  // Corrupt the newest checkpoint on disk.
  char name[48];
  std::snprintf(name, sizeof(name), "ckpt-%020llu.snap",
                static_cast<unsigned long long>(*second));
  const std::string path = (std::filesystem::path(dir) / name).string();
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(40);
    file.write("\xff", 1);
  }

  EventJournal recovered(WalOptions(dir));
  const RecoveryReport report = recovered.Recover();
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.checkpoints_rejected, 1u);
  EXPECT_EQ(report.checkpoint_lsn, 60u);  // fell back to the older one
  EXPECT_EQ(JournalDigest(recovered), digest);
}

}  // namespace
}  // namespace censys::storage
