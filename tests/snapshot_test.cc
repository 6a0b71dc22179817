// MVCC snapshot tests (docs/SNAPSHOTS.md): the stratum retention rule
// at the merger level, DB-level pins surviving forced compaction and
// vlog GC, the wire plane (SNAPSHOT / at-snapshot GET and SCAN /
// SNAPSHOTRELEASE, TTL expiry, at-snapshot write rejection), and the
// acceptance case — a sharded cross-shard SCAN at a pinned snapshot is
// one consistent cut while writers race.

#include <arpa/inet.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/db.h"
#include "fault/fail_point.h"
#include "lsm/merger.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/shard_router.h"
#include "pmem/pmem_env.h"
#include "util/coding.h"

namespace cachekv {
namespace {

EnvOptions TestEnv(uint64_t pool_bytes) {
  EnvOptions o;
  o.pmem_capacity = 256ull << 20;
  o.llc_capacity = 16ull << 20;
  o.cat_locked_bytes = pool_bytes;
  o.latency.scale = 0;
  return o;
}

// Small tables and low compaction thresholds so a modest overwrite
// workload seals, flushes, and compacts — the passes that would drop
// superseded versions if the pin were not honoured.
CacheKVOptions TestDb() {
  CacheKVOptions o;
  o.pool_bytes = 1ull << 20;
  o.sub_memtable_bytes = 128ull << 10;
  o.min_sub_memtable_bytes = 64ull << 10;
  o.num_cores = 2;
  o.bg_backoff_base_ms = 1;
  o.bg_backoff_max_ms = 4;
  o.write_stall_timeout_ms = 10'000;
  o.imm_zone_flush_threshold = 96ull << 10;
  o.lsm.l0_compaction_trigger = 2;
  o.lsm.base_level_bytes = 256ull << 10;
  o.lsm.target_file_size = 64ull << 10;
  o.vlog_gc_interval_ms = 20;
  return o;
}

// --- Stratum retention rule (lsm/merger.h) ---------------------------

TEST(SnapshotStratumTest, NoSnapshotsMeansNothingRetained) {
  EXPECT_FALSE(SnapshotInStratum({}, 5, 9));
}

TEST(SnapshotStratumTest, SnapshotBetweenVersionsRetainsTheOlder) {
  // Versions seq=9 (newest) and seq=5 of one key; a pin at 7 must
  // resolve to seq=5, so 5 is retained: 7 lies in [5, 9).
  EXPECT_TRUE(SnapshotInStratum({7}, 5, 9));
  // A pin at 9 resolves to seq=9 itself; seq=5 is invisible to it.
  EXPECT_FALSE(SnapshotInStratum({9}, 5, 9));
  // A pin below the version cannot resolve it.
  EXPECT_FALSE(SnapshotInStratum({4}, 5, 9));
  // A pin at exactly the version's own seq resolves to it.
  EXPECT_TRUE(SnapshotInStratum({5}, 5, 9));
  // prev_seq is exclusive: a pin at the newer version's seq reads the
  // newer version, not this one.
  EXPECT_FALSE(SnapshotInStratum({9}, 5, 9));
}

TEST(SnapshotStratumTest, ManyPinsAnyOneInStratumSuffices) {
  EXPECT_TRUE(SnapshotInStratum({2, 7, 30}, 5, 9));
  EXPECT_FALSE(SnapshotInStratum({2, 30}, 5, 9));
  EXPECT_TRUE(SnapshotInStratum({2, 5, 30}, 5, 9));
}

// --- Protocol round-trips --------------------------------------------

using Result = net::FrameDecoder::Result;

net::Frame DecodeOne(net::FrameDecoder* dec, const std::string& stream) {
  dec->Feed(stream.data(), stream.size());
  net::Frame f;
  EXPECT_EQ(Result::kFrame, dec->Next(&f)) << dec->error();
  return f;
}

TEST(SnapshotProtocolTest, SnapshotOpsRoundTrip) {
  std::string stream;
  net::EncodeSnapshotRequest(&stream, 21, 1500);
  net::FrameDecoder dec;
  net::Frame f = DecodeOne(&dec, stream);
  EXPECT_EQ(net::Op::kSnapshot, f.op);
  EXPECT_FALSE(f.at_snapshot);
  net::SnapshotRequest req;
  ASSERT_TRUE(net::ParseSnapshotRequest(f.payload, &req).ok());
  EXPECT_EQ(1500u, req.ttl_ms);

  stream.clear();
  net::EncodeSnapshotReleaseRequest(&stream, 22, 0xabcdef01ull);
  net::FrameDecoder dec2;
  f = DecodeOne(&dec2, stream);
  EXPECT_EQ(net::Op::kSnapshotRelease, f.op);
  net::SnapshotReleaseRequest rel;
  ASSERT_TRUE(net::ParseSnapshotReleaseRequest(f.payload, &rel).ok());
  EXPECT_EQ(0xabcdef01ull, rel.snapshot_id);

  std::string payload;
  net::SnapshotResponse in;
  in.snapshot_id = 99;
  in.shard_seqs = {11, 22, 33};
  net::EncodeSnapshotPayload(&payload, in);
  net::SnapshotResponse resp;
  ASSERT_TRUE(net::ParseSnapshotPayload(Slice(payload), &resp).ok());
  EXPECT_EQ(99u, resp.snapshot_id);
  ASSERT_EQ(3u, resp.shard_seqs.size());
  EXPECT_EQ(22u, resp.shard_seqs[1]);
  // Truncated seq array is a parse error, not a crash.
  EXPECT_FALSE(net::ParseSnapshotPayload(
                   Slice(payload.data(), payload.size() - 3), &resp)
                   .ok());
}

TEST(SnapshotProtocolTest, AtSnapshotPrefixStrippedFromReads) {
  net::SnapshotRef snap;
  snap.at_snapshot = true;
  snap.id = 0x1122334455667788ull;
  std::string stream;
  net::EncodeGetRequest(&stream, 31, "k", net::TraceContext(), snap);
  net::FrameDecoder dec;
  net::Frame f = DecodeOne(&dec, stream);
  EXPECT_TRUE(f.at_snapshot);
  EXPECT_EQ(snap.id, f.snapshot_id);
  net::GetRequest get;
  ASSERT_TRUE(net::ParseGetRequest(f.payload, &get).ok());
  EXPECT_EQ("k", get.key.ToString());

  stream.clear();
  net::EncodeScanRequest(&stream, 32, "a", 10, net::TraceContext(), snap);
  net::FrameDecoder dec2;
  f = DecodeOne(&dec2, stream);
  EXPECT_TRUE(f.at_snapshot);
  EXPECT_EQ(snap.id, f.snapshot_id);
  net::ScanRequest scan;
  ASSERT_TRUE(net::ParseScanRequest(f.payload, &scan).ok());
  EXPECT_EQ("a", scan.start.ToString());
  EXPECT_EQ(10u, scan.limit);
}

TEST(SnapshotProtocolTest, AtSnapshotFlagOnResponseIsDecodeError) {
  // Hand-build a response frame with the at-snapshot bit set: bit 2 is
  // request-only, so the decoder must latch an error.
  std::string frame;
  PutFixed32(&frame, net::kFrameFixedBody + net::kSnapshotIdBytes);
  frame.push_back(static_cast<char>(net::Op::kGet));
  frame.push_back(
      static_cast<char>(net::kFlagResponse | net::kFlagAtSnapshot));
  frame.append(2, '\0');  // code (u16)
  PutFixed64(&frame, 41);
  PutFixed64(&frame, 7);  // would-be snapshot id
  net::FrameDecoder dec;
  dec.Feed(frame.data(), frame.size());
  net::Frame f;
  EXPECT_EQ(Result::kError, dec.Next(&f));
}

TEST(SnapshotProtocolTest, AtSnapshotBodyTooShortIsDecodeError) {
  std::string frame;
  PutFixed32(&frame, net::kFrameFixedBody + 4);  // < 8-byte id
  frame.push_back(static_cast<char>(net::Op::kGet));
  frame.push_back(static_cast<char>(net::kFlagAtSnapshot));
  frame.append(2, '\0');  // code (u16)
  PutFixed64(&frame, 42);
  PutFixed32(&frame, 0);
  net::FrameDecoder dec;
  dec.Feed(frame.data(), frame.size());
  net::Frame f;
  EXPECT_EQ(Result::kError, dec.Next(&f));
}

// --- DB-level retention through compaction and vlog GC ---------------

class SnapshotDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FailPointRegistry::Global()->DisableAll();
    opts_ = TestDb();
    env_ = std::make_unique<PmemEnv>(TestEnv(opts_.pool_bytes));
    ASSERT_TRUE(DB::Open(env_.get(), opts_, false, &db_).ok());
  }

  void TearDown() override {
    if (db_) db_->WaitIdle();
    fault::FailPointRegistry::Global()->DisableAll();
  }

  CacheKVOptions opts_;
  std::unique_ptr<PmemEnv> env_;
  std::unique_ptr<DB> db_;
};

TEST_F(SnapshotDbTest, PinSurvivesCompactionAndVlogGc) {
  // Baseline: 40 keys; half carry values above the separation
  // threshold so their old versions also live in the value log.
  constexpr int kKeys = 40;
  std::map<std::string, std::string> baseline;
  for (int i = 0; i < kKeys; i++) {
    const std::string key = "snap" + std::to_string(i);
    std::string value = "old" + std::to_string(i);
    if (i % 2 == 0) value += std::string(5000, 'o');  // vlog-separated
    ASSERT_TRUE(db_->Put(key, value).ok());
    baseline[key] = value;
  }
  const DB::Snapshot* snap = db_->GetSnapshot();
  ASSERT_NE(nullptr, snap);
  const SequenceNumber pinned = snap->sequence();
  ASSERT_EQ(1u, db_->PinnedSnapshots().size());

  // Heavy overwrite churn plus deletions: enough to seal, flush,
  // compact into the base level, and let vlog GC run its passes.
  for (int round = 0; round < 200; round++) {
    for (int i = 0; i < kKeys; i++) {
      const std::string key = "snap" + std::to_string(i);
      if (round == 199 && i % 5 == 0) {
        ASSERT_TRUE(db_->Delete(key).ok());
      } else {
        std::string value = "new-r" + std::to_string(round) + "-" +
                            std::to_string(i) + std::string(400, 'n');
        ASSERT_TRUE(db_->Put(key, value).ok());
      }
    }
  }
  ASSERT_TRUE(db_->WaitIdle().ok());
  EXPECT_GT(db_->CounterValue("lsm.compactions"), 0u)
      << "workload never compacted; the test proves nothing";

  // Every baseline version answers at the pin — including keys whose
  // latest state is a tombstone.
  for (const auto& [key, want] : baseline) {
    std::string got;
    ASSERT_TRUE(db_->GetAt(key, pinned, &got).ok()) << key;
    EXPECT_EQ(want, got) << key;
  }
  // And the pinned scan is exactly the baseline.
  std::vector<std::pair<std::string, std::string>> entries;
  ASSERT_TRUE(db_->ScanAt("snap", kKeys + 10, pinned, &entries).ok());
  ASSERT_EQ(baseline.size(), entries.size());
  for (const auto& [key, value] : entries) {
    EXPECT_EQ(baseline.at(key), value) << key;
  }

  // Latest reads see the churned state, not the pin.
  std::string got;
  EXPECT_TRUE(db_->Get("snap0", &got).IsNotFound());  // deleted last
  ASSERT_TRUE(db_->Get("snap1", &got).ok());
  EXPECT_NE(baseline.at("snap1"), got);

  // Release: the pin list empties and the retained versions become
  // reclaimable on later passes.
  db_->ReleaseSnapshot(snap);
  EXPECT_TRUE(db_->PinnedSnapshots().empty());
  EXPECT_EQ(db_->CounterValue("snap.pins"),
            db_->CounterValue("snap.releases"));
}

// GetSnapshot stops no writer: it pins the last reserved sequence and
// waits for the writes below it that are still in flight. A write held in
// flight, waiting for a free table, is therefore inside the pin.
TEST_F(SnapshotDbTest, PinWaitsForWriteInFlight) {
  db_.reset();
  opts_.pool_bytes = 512ull << 10;  // four fixed 128 KiB tables
  opts_.min_sub_memtable_bytes = 128ull << 10;
  env_ = std::make_unique<PmemEnv>(TestEnv(opts_.pool_bytes));
  ASSERT_TRUE(DB::Open(env_.get(), opts_, false, &db_).ok());
  // Slow copy-flushes: the writer fills the pool and then waits in
  // AcquireFor, inside a write that has reserved its sequence.
  ASSERT_TRUE(fault::FailPointRegistry::Global()
                  ->Enable("flush.copy", "always,delay:300000")
                  .ok());
  std::atomic<int> attempting{-1};
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; !stop.load(); i++) {
      attempting.store(i);
      ASSERT_TRUE(
          db_->Put("w" + std::to_string(i), std::string(1000, 'w')).ok());
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (db_->CounterValue("db.acquire_waits") == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  const int stuck = attempting.load();
  const DB::Snapshot* snap = db_->GetSnapshot();
  std::string got;
  const bool seen =
      snap != nullptr &&
      db_->GetAt("w" + std::to_string(stuck), snap->sequence(), &got).ok();
  stop.store(true);
  writer.join();
  fault::FailPointRegistry::Global()->DisableAll();
  ASSERT_GT(db_->CounterValue("db.acquire_waits"), 0u)
      << "the writer never waited for a table; the test proves nothing";
  ASSERT_NE(nullptr, snap);
  EXPECT_TRUE(seen) << "the pin misses write " << stuck
                    << " that was in flight";
  db_->ReleaseSnapshot(snap);
}

// A MultiPut is one sequence block and a pin is always a block end, so at
// every pin a two-key batch is wholly visible or wholly invisible, while
// four writers churn through seals and flushes.
TEST_F(SnapshotDbTest, PinNeverSplitsABatchUnderChurn) {
  constexpr int kWriters = 4;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; t++) {
    writers.emplace_back([&, t] {
      const std::string tag = std::to_string(t);
      for (int gen = 0; !stop.load(); gen++) {
        const std::string value =
            std::to_string(gen) + std::string(200, 'v');
        std::vector<KVStore::BatchOp> batch = {{false, "a" + tag, value},
                                               {false, "b" + tag, value}};
        ASSERT_TRUE(db_->MultiPut(batch).ok());
      }
    });
  }
  for (int pin = 0; pin < 300 && !HasFailure(); pin++) {
    const DB::Snapshot* snap = db_->GetSnapshot();
    EXPECT_NE(nullptr, snap);
    for (int t = 0; snap != nullptr && t < kWriters; t++) {
      const std::string tag = std::to_string(t);
      std::string a, b;
      Status sa = db_->GetAt("a" + tag, snap->sequence(), &a);
      Status sb = db_->GetAt("b" + tag, snap->sequence(), &b);
      EXPECT_EQ(sa.ok(), sb.ok()) << "pin " << pin << " writer " << t;
      EXPECT_EQ(a, b) << "pin " << pin << " split writer " << t
                      << "'s batch";
    }
    db_->ReleaseSnapshot(snap);
  }
  stop.store(true);
  for (auto& w : writers) w.join();
  EXPECT_GT(db_->CounterValue("db.seals"), 0u)
      << "the churn never sealed a table";
}

TEST_F(SnapshotDbTest, PinCapReturnsNullNotCrash) {
  std::vector<const DB::Snapshot*> pins;
  for (uint32_t i = 0; i < opts_.max_pinned_snapshots; i++) {
    const DB::Snapshot* s = db_->GetSnapshot();
    ASSERT_NE(nullptr, s);
    pins.push_back(s);
  }
  EXPECT_EQ(nullptr, db_->GetSnapshot());
  for (const DB::Snapshot* s : pins) db_->ReleaseSnapshot(s);
  EXPECT_TRUE(db_->PinnedSnapshots().empty());
}

// --- Wire plane -------------------------------------------------------

class SnapshotNetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FailPointRegistry::Global()->DisableAll();
    opts_ = TestDb();
    env_ = std::make_unique<PmemEnv>(TestEnv(opts_.pool_bytes));
    ASSERT_TRUE(DB::Open(env_.get(), opts_, false, &db_).ok());
  }

  void TearDown() override {
    if (server_) server_->Stop();
    if (db_) db_->WaitIdle();
    fault::FailPointRegistry::Global()->DisableAll();
  }

  void StartServer(net::ServerOptions srv = net::ServerOptions()) {
    srv.port = 0;
    server_ = std::make_unique<net::Server>(
        std::vector<DB*>{db_.get()}, net::ShardRouter(), srv);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(0, server_->port());
  }

  CacheKVOptions opts_;
  std::unique_ptr<PmemEnv> env_;
  std::unique_ptr<DB> db_;
  std::unique_ptr<net::Server> server_;
};

TEST_F(SnapshotNetTest, PinReadReleaseOverTheWire) {
  StartServer();
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  ASSERT_TRUE(client.Put("wire-a", "v1").ok());
  ASSERT_TRUE(client.Put("wire-b", "v1").ok());

  net::SnapshotResponse snap;
  ASSERT_TRUE(client.CreateSnapshot(0, &snap).ok());
  ASSERT_NE(0u, snap.snapshot_id);
  ASSERT_EQ(1u, snap.shard_seqs.size());

  ASSERT_TRUE(client.Put("wire-a", "v2").ok());
  ASSERT_TRUE(client.Delete("wire-b").ok());
  ASSERT_TRUE(client.Put("wire-c", "v2").ok());

  // At-snapshot reads see the pinned state; plain reads the latest.
  std::string got;
  ASSERT_TRUE(client.GetAt("wire-a", snap.snapshot_id, &got).ok());
  EXPECT_EQ("v1", got);
  ASSERT_TRUE(client.GetAt("wire-b", snap.snapshot_id, &got).ok());
  EXPECT_EQ("v1", got);
  EXPECT_TRUE(
      client.GetAt("wire-c", snap.snapshot_id, &got).IsNotFound());
  ASSERT_TRUE(client.Get("wire-a", &got).ok());
  EXPECT_EQ("v2", got);

  std::vector<std::pair<std::string, std::string>> entries;
  ASSERT_TRUE(
      client.ScanAt("wire", 10, snap.snapshot_id, &entries).ok());
  ASSERT_EQ(2u, entries.size());
  EXPECT_EQ("wire-a", entries[0].first);
  EXPECT_EQ("v1", entries[0].second);
  EXPECT_EQ("wire-b", entries[1].first);

  ASSERT_TRUE(client.ReleaseSnapshot(snap.snapshot_id).ok());
  // The id is gone: further use and double-release both say so.
  EXPECT_TRUE(
      client.GetAt("wire-a", snap.snapshot_id, &got).IsNotFound());
  EXPECT_TRUE(client.ReleaseSnapshot(snap.snapshot_id).IsNotFound());
  EXPECT_TRUE(db_->PinnedSnapshots().empty());
}

TEST_F(SnapshotNetTest, SnapshotReadsBypassHotKeyCache) {
  net::ServerOptions srv;
  srv.hot_key_cache_bytes = 1u << 20;
  srv.hot_key_cache_admit = 1;
  StartServer(srv);
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  ASSERT_TRUE(client.Put("hot", "old").ok());
  net::SnapshotResponse snap;
  ASSERT_TRUE(client.CreateSnapshot(0, &snap).ok());
  ASSERT_TRUE(client.Put("hot", "new").ok());
  // Warm the cache with the latest value...
  std::string got;
  ASSERT_TRUE(client.Get("hot", &got).ok());
  ASSERT_TRUE(client.Get("hot", &got).ok());
  EXPECT_EQ("new", got);
  // ...and the pinned read still answers from the store, not the cache.
  ASSERT_TRUE(client.GetAt("hot", snap.snapshot_id, &got).ok());
  EXPECT_EQ("old", got);
  ASSERT_TRUE(client.ReleaseSnapshot(snap.snapshot_id).ok());
}

TEST_F(SnapshotNetTest, TtlExpiryReleasesThePin) {
  net::ServerOptions srv;
  srv.snapshot_ttl_ms = 100;
  StartServer(srv);
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  ASSERT_TRUE(client.Put("ttl-key", "v1").ok());
  net::SnapshotResponse snap;
  ASSERT_TRUE(client.CreateSnapshot(0, &snap).ok());
  ASSERT_EQ(1u, db_->PinnedSnapshots().size());

  // The sweeper (50 ms cadence) reaps the pin after the deadline.
  std::string got;
  for (int waited = 0; waited < 5000; waited++) {
    if (db_->PinnedSnapshots().empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(db_->PinnedSnapshots().empty()) << "pin never expired";
  EXPECT_TRUE(
      client.GetAt("ttl-key", snap.snapshot_id, &got).IsNotFound());
  EXPECT_GT(db_->CounterValue("snap.expired"), 0u);

  // A request may shorten the TTL but never stretch past the server
  // bound: a 1-hour ask still expires under the 100 ms cap.
  ASSERT_TRUE(client.CreateSnapshot(3'600'000, &snap).ok());
  for (int waited = 0; waited < 5000; waited++) {
    if (db_->PinnedSnapshots().empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(db_->PinnedSnapshots().empty())
      << "request TTL stretched past the server bound";
}

TEST_F(SnapshotNetTest, AtSnapshotWriteRejected) {
  StartServer();
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  net::SnapshotResponse snap;
  ASSERT_TRUE(client.CreateSnapshot(0, &snap).ok());

  // Hand-build a PUT frame carrying the at-snapshot flag (no client
  // API emits one) and push it through a raw socket: the server must
  // answer kInvalidArgument and keep the connection serving.
  std::string frame;
  std::string body;
  body.push_back(static_cast<char>(net::Op::kPut));
  body.push_back(static_cast<char>(net::kFlagAtSnapshot));
  body.append(2, '\0');  // code (u16)
  PutFixed64(&body, 77);               // request id
  PutFixed64(&body, snap.snapshot_id);  // at-snapshot prefix
  PutFixed32(&body, 1);
  body.push_back('k');
  PutFixed32(&body, 1);
  body.push_back('v');
  PutFixed32(&frame, static_cast<uint32_t>(body.size()));
  frame += body;

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
  ASSERT_EQ(1, inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr));
  ASSERT_EQ(0, ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)));
  ASSERT_EQ(static_cast<ssize_t>(frame.size()),
            ::send(fd, frame.data(), frame.size(), 0));

  net::FrameDecoder dec;
  net::Frame resp;
  bool got_frame = false;
  char buf[4096];
  for (int reads = 0; reads < 100 && !got_frame; reads++) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "server closed without replying";
    dec.Feed(buf, static_cast<size_t>(n));
    got_frame = dec.Next(&resp) == Result::kFrame;
  }
  ASSERT_TRUE(got_frame);
  EXPECT_EQ(net::kInvalidArgument, resp.code);
  ::close(fd);

  // The regular client still works and the key was never written.
  std::string got;
  EXPECT_TRUE(client.Get("k", &got).IsNotFound());
  ASSERT_TRUE(client.ReleaseSnapshot(snap.snapshot_id).ok());
}

// --- Sharded consistent cut (acceptance) ------------------------------

class ShardedSnapshotTest : public ::testing::Test {
 protected:
  static constexpr int kShards = 4;

  void SetUp() override {
    fault::FailPointRegistry::Global()->DisableAll();
    opts_ = TestDb();
    net::ShardMap map;
    map.num_shards = kShards;
    ASSERT_TRUE(net::ShardRouter::Build(map, &router_).ok());
    for (int i = 0; i < kShards; i++) {
      envs_.push_back(
          std::make_unique<PmemEnv>(TestEnv(opts_.pool_bytes)));
      std::unique_ptr<DB> db;
      ASSERT_TRUE(DB::Open(envs_.back().get(), opts_, false, &db).ok());
      dbs_.push_back(std::move(db));
    }
    net::ServerOptions srv;
    srv.port = 0;
    std::vector<DB*> ptrs;
    for (auto& db : dbs_) ptrs.push_back(db.get());
    server_ = std::make_unique<net::Server>(ptrs, router_, srv);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_) server_->Stop();
    for (auto& db : dbs_) {
      if (db) db->WaitIdle();
    }
    fault::FailPointRegistry::Global()->DisableAll();
  }

  CacheKVOptions opts_;
  net::ShardRouter router_;
  std::vector<std::unique_ptr<PmemEnv>> envs_;
  std::vector<std::unique_ptr<DB>> dbs_;
  std::unique_ptr<net::Server> server_;
};

TEST_F(ShardedSnapshotTest, CrossShardScanIsOneConsistentCut) {
  net::ShardedClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_EQ(static_cast<uint32_t>(kShards), client.num_shards());

  // Baseline generation 0 across all shards.
  constexpr int kKeys = 120;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(
        client.Put("cut" + std::to_string(i), "gen0-" + std::to_string(i))
            .ok());
  }

  net::ShardedClient::ShardedSnapshot snap;
  ASSERT_TRUE(client.CreateSnapshot(0, &snap).ok());
  ASSERT_EQ(static_cast<size_t>(kShards), snap.shard_seqs.size());
  ASSERT_EQ(1u, snap.server_ids.size());  // one server hosts all shards
  for (uint64_t seq : snap.shard_seqs) EXPECT_NE(0u, seq);

  // Writers churn every key to later generations while we read the cut.
  std::atomic<bool> stop{false};
  std::atomic<int> write_failures{0};
  std::atomic<int> first_passes{0};  // writers done with generation 1
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; t++) {
    writers.emplace_back([&, t] {
      net::ShardedClient w;
      if (!w.Connect("127.0.0.1", server_->port()).ok()) {
        write_failures.fetch_add(1);
        first_passes.fetch_add(1);
        return;
      }
      int gen = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = t; i < kKeys; i += 3) {
          const std::string value =
              "gen" + std::to_string(gen) + "-" + std::to_string(i);
          if (!w.Put("cut" + std::to_string(i), value).ok()) {
            write_failures.fetch_add(1);
          }
        }
        if (gen == 1) first_passes.fetch_add(1);
        gen++;
      }
    });
  }

  // Repeated pinned scans: every row must still read generation 0 —
  // one consistent cut spanning all four shards, despite the churn.
  for (int round = 0; round < 20; round++) {
    std::vector<std::pair<std::string, std::string>> entries;
    ASSERT_TRUE(client.ScanAt("cut", kKeys + 10, snap, &entries).ok());
    ASSERT_EQ(static_cast<size_t>(kKeys), entries.size())
        << "round " << round;
    for (const auto& [key, value] : entries) {
      const std::string idx = key.substr(3);
      ASSERT_EQ("gen0-" + idx, value)
          << "round " << round << ": " << key
          << " leaked a post-snapshot write into the cut";
    }
  }
  // Pinned point reads agree with the cut.
  for (int i = 0; i < kKeys; i += 7) {
    std::string got;
    ASSERT_TRUE(client.GetAt("cut" + std::to_string(i), snap, &got).ok());
    EXPECT_EQ("gen0-" + std::to_string(i), got);
  }

  // Every key must have been overwritten at least once before the
  // writers stop; on a loaded host the scans above can finish first.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (first_passes.load() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& th : writers) th.join();
  EXPECT_EQ(0, write_failures.load());

  // Latest reads have moved past the pin.
  std::string got;
  ASSERT_TRUE(client.Get("cut0", &got).ok());
  EXPECT_NE("gen0-0", got);

  ASSERT_TRUE(client.ReleaseSnapshot(snap).ok());
  for (auto& db : dbs_) EXPECT_TRUE(db->PinnedSnapshots().empty());
}

}  // namespace
}  // namespace cachekv
