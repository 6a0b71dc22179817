// Replication tests (docs/REPLICATION.md): ReplLog bounded-log
// semantics, epoch fencing at the ReplHub handler level, and full
// two-process-shaped integration — a primary and a follower server in
// one process, connected over real TCP. Covers follower catch-up under
// ack=all, manual PROMOTE fencing the deposed primary, snapshot
// bootstrap after log truncation, armed repl.* fail points, writes
// parked for acks without blocking the server (docs/REPLICATION.md
// "Threading"), and the acceptance case: the primary dies mid-load and
// a ShardedClient fails over to the auto-promoted follower with zero
// acked writes lost.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/db.h"
#include "fault/fail_point.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/shard_router.h"
#include "obs/slow_log.h"
#include "pmem/pmem_env.h"
#include "repl/repl_log.h"
#include "repl/replication.h"

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

CacheKVOptions TestDb() {
  CacheKVOptions o;
  o.pool_bytes = 2ull << 20;
  o.sub_memtable_bytes = 128ull << 10;
  o.min_sub_memtable_bytes = 64ull << 10;
  o.num_cores = 2;
  o.bg_backoff_base_ms = 1;
  o.bg_backoff_max_ms = 4;
  o.write_stall_timeout_ms = 2000;
  o.lsm.background_compaction = false;
  return o;
}

/// Reserves a loopback port by binding an ephemeral socket and closing
/// it. Needed because the primary must know the follower's endpoint
/// (its configured replica set) before the follower can exist.
uint16_t PickPort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(0, ::bind(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)));
  socklen_t len = sizeof(addr);
  EXPECT_EQ(0, ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr),
                             &len));
  ::close(fd);
  return ntohs(addr.sin_port);
}

std::string Key(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "repl-key-%06d", i);
  return buf;
}

std::string Value(int i) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "value-%06d-%06d", i, i * 7);
  return buf;
}

/// Writes under --repl-ack=all can answer Busy (REPL_TIMEOUT) when the
/// follower thread is starved past the ack timeout (single-core CI
/// running the whole suite in parallel): the write is durable on the
/// primary but under-replicated, and retrying is the documented,
/// idempotent client response (docs/REPLICATION.md, "Ack policies").
Status PutAcked(net::Client* c, const std::string& k,
                const std::string& v) {
  Status s;
  for (int attempt = 0; attempt < 8; attempt++) {
    s = c->Put(k, v);
    if (!s.IsBusy()) return s;
  }
  return s;
}

Status DeleteAcked(net::Client* c, const std::string& k) {
  Status s;
  for (int attempt = 0; attempt < 8; attempt++) {
    s = c->Delete(k);
    if (!s.IsBusy()) return s;
  }
  return s;
}

/// One replicated server node: env + DB + hub + server, wired the way
/// tools/cachekv_server.cc wires them (hooks attached before serving,
/// hub started after the port is known).
struct Node {
  std::unique_ptr<PmemEnv> env;
  std::unique_ptr<DB> db;
  std::unique_ptr<repl::ReplHub> hub;
  std::unique_ptr<net::Server> server;
  std::string endpoint;

  void Start(const repl::ReplOptions& ropts, uint16_t port,
             int num_workers = 2) {
    CacheKVOptions dbopts = TestDb();
    env = std::make_unique<PmemEnv>(TestEnv(dbopts.pool_bytes));
    ASSERT_TRUE(DB::Open(env.get(), dbopts, false, &db).ok());
    hub = std::make_unique<repl::ReplHub>(ropts,
                                          std::vector<DB*>{db.get()});
    hub->AttachCommitHooks();
    net::ServerOptions sopts;
    sopts.port = port;
    sopts.num_workers = num_workers;
    sopts.repl = hub.get();
    server = std::make_unique<net::Server>(
        std::vector<DB*>{db.get()}, net::ShardRouter(), sopts);
    ASSERT_TRUE(server->Start().ok());
    endpoint = "127.0.0.1:" + std::to_string(server->port());
    hub->SetSelfEndpoint(endpoint);
    hub->Start();
  }

  void Kill() {
    if (server) server->Stop();
    if (hub) hub->Stop();
  }

  ~Node() {
    Kill();
    if (db) db->WaitIdle();
  }
};

/// A replicated node serving two shards, one DB each, behind one server
/// and hub; wired like Node.
struct TwoShardNode {
  std::vector<std::unique_ptr<PmemEnv>> envs;
  std::vector<std::unique_ptr<DB>> dbs;
  std::vector<DB*> ptrs;
  std::unique_ptr<repl::ReplHub> hub;
  std::unique_ptr<net::Server> server;
  std::string endpoint;

  void Start(const net::ShardRouter& router, const repl::ReplOptions& ropts,
             uint16_t port) {
    CacheKVOptions dbopts = TestDb();
    for (uint32_t i = 0; i < router.num_shards(); i++) {
      envs.push_back(std::make_unique<PmemEnv>(TestEnv(dbopts.pool_bytes)));
      std::unique_ptr<DB> db;
      ASSERT_TRUE(DB::Open(envs.back().get(), dbopts, false, &db).ok());
      ptrs.push_back(db.get());
      dbs.push_back(std::move(db));
    }
    hub = std::make_unique<repl::ReplHub>(ropts, ptrs);
    hub->AttachCommitHooks();
    net::ServerOptions sopts;
    sopts.port = port;
    sopts.repl = hub.get();
    server = std::make_unique<net::Server>(ptrs, router, sopts);
    ASSERT_TRUE(server->Start().ok());
    endpoint = "127.0.0.1:" + std::to_string(server->port());
    hub->SetSelfEndpoint(endpoint);
    hub->Start();
  }

  ~TwoShardNode() {
    if (server) server->Stop();
    if (hub) hub->Stop();
    for (DB* db : ptrs) db->WaitIdle();
  }
};

/// A two-shard quorum primary and its follower, over `router`.
/// Declared primary first, so the follower stops first and its pulls
/// end before the primary goes.
struct TwoShardPair {
  net::ShardRouter router;
  TwoShardNode primary;
  TwoShardNode follower;

  void Start() {
    net::ShardMap map;
    map.num_shards = 2;
    ASSERT_TRUE(net::ShardRouter::Build(map, &router).ok());
    const uint16_t follower_port = PickPort();
    repl::ReplOptions popts;
    popts.ack = repl::AckPolicy::kQuorum;
    popts.ack_timeout_ms = 10'000;
    popts.replicas = {"127.0.0.1:" + std::to_string(follower_port)};
    primary.Start(router, popts, 0);
    repl::ReplOptions fopts;
    fopts.primary_endpoint = primary.endpoint;
    follower.Start(router, fopts, follower_port);
  }

  /// Keys `prefix`0, `prefix`1, ... that route to `shard`.
  std::vector<std::string> KeysOn(uint32_t shard, const std::string& prefix,
                                  size_t n) const {
    std::vector<std::string> keys;
    for (int i = 0; keys.size() < n; i++) {
      const std::string key = prefix + std::to_string(i);
      if (router.ShardOf(key) == shard) keys.push_back(key);
    }
    return keys;
  }
};

/// A quorum primary whose one configured replica never connects: every
/// write it commits waits for acks that do not come, parked until
/// `ack_timeout_ms`. One worker, so everything else it serves meanwhile
/// is served by the very event loop the parked write sits on.
void StartUnackedPrimary(Node* primary, int ack_timeout_ms) {
  repl::ReplOptions popts;
  popts.ack = repl::AckPolicy::kQuorum;
  popts.ack_timeout_ms = ack_timeout_ms;
  popts.replicas = {"127.0.0.1:" + std::to_string(PickPort())};
  primary->Start(popts, 0, /*num_workers=*/1);
}

/// Waits (bounded) until `db` committed its first write.
bool WaitForCommit(repl::ReplHub* hub) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (hub->log(0)->head_seq() == 0) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

int64_t MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FailPointRegistry::Global()->DisableAll();
  }
  void TearDown() override {
    fault::FailPointRegistry::Global()->DisableAll();
  }
};

// ReplLog unit tests. -------------------------------------------------

TEST_F(ReplicationTest, ReplLogAppendFetchAck) {
  repl::ReplLog log(1 << 20);
  EXPECT_EQ(0u, log.head_seq());
  EXPECT_EQ(0u, log.start_seq());
  EXPECT_EQ(1u, log.Append("one", 10));
  EXPECT_EQ(2u, log.Append("two", 20));
  EXPECT_EQ(3u, log.Append("three", 30));
  EXPECT_EQ(3u, log.head_seq());
  EXPECT_EQ(1u, log.start_seq());

  std::vector<repl::ReplLog::Record> records;
  uint64_t head = 0;
  ASSERT_TRUE(log.Fetch(2, 100, &records, &head).ok());
  EXPECT_EQ(3u, head);
  ASSERT_EQ(2u, records.size());
  EXPECT_EQ(2u, records[0].log_seq);
  EXPECT_EQ(20u, records[0].last_db_seq);
  EXPECT_EQ("two", records[0].ops_blob);
  EXPECT_EQ("three", records[1].ops_blob);

  // Past the head: OK with nothing (the follower re-polls).
  records.clear();
  ASSERT_TRUE(log.Fetch(4, 100, &records, &head).ok());
  EXPECT_TRUE(records.empty());

  log.Ack("f1", 2);
  log.Ack("f2", 3);
  EXPECT_EQ(2u, log.AckedSeq("f1"));
  EXPECT_EQ(2u, log.AckedCount(2));
  EXPECT_EQ(1u, log.AckedCount(3));
  // Stale acks never move a follower backwards.
  log.Ack("f2", 1);
  EXPECT_EQ(3u, log.AckedSeq("f2"));
}

TEST_F(ReplicationTest, ReplLogTruncationForcesSnapshot) {
  repl::ReplLog log(256);  // tiny byte budget
  const std::string blob(64, 'x');
  for (int i = 0; i < 32; i++) log.Append(blob, i);
  EXPECT_EQ(32u, log.head_seq());
  EXPECT_GT(log.start_seq(), 1u);
  EXPECT_LE(log.resident_bytes(), 256u);

  // A cursor behind the truncated start means snapshot-bootstrap.
  std::vector<repl::ReplLog::Record> records;
  uint64_t head = 0;
  EXPECT_TRUE(log.Fetch(1, 100, &records, &head).IsNotFound());
  EXPECT_EQ(32u, head);
  // The surviving suffix still serves.
  ASSERT_TRUE(log.Fetch(log.start_seq(), 100, &records, &head).ok());
  EXPECT_FALSE(records.empty());
  EXPECT_EQ(32u, records.back().log_seq);
}

TEST_F(ReplicationTest, ReplLogTrimsAckedRecords) {
  repl::ReplLog log(1 << 20);
  log.Ack("f1", 0);  // two registered followers, both at 0
  log.Ack("f2", 0);
  for (uint64_t i = 1; i <= 4; i++) log.Append("rec", i * 10);
  // f2 still at 0 holds every record back.
  log.Ack("f1", 3);
  EXPECT_EQ(1u, log.start_seq());
  EXPECT_EQ(12u, log.resident_bytes());
  // Both past record 2: records 1 and 2 serve nobody and go.
  log.Ack("f2", 2);
  EXPECT_EQ(3u, log.start_seq());
  EXPECT_EQ(6u, log.resident_bytes());

  // A fetch past the trim serves the rest; one behind it must bootstrap.
  std::vector<repl::ReplLog::Record> records;
  uint64_t head = 0;
  ASSERT_TRUE(log.Fetch(3, 100, &records, &head).ok());
  ASSERT_EQ(2u, records.size());
  EXPECT_EQ(3u, records[0].log_seq);
  EXPECT_TRUE(log.Fetch(2, 100, &records, &head).IsNotFound());

  // A wait on a trimmed record stays pinned to it: db seq 20 lives in
  // record 2, which both followers acked. Falling through to the first
  // survivor (record 3, acked by f1 only) would leave it pending.
  const uint64_t run = log.run_id();
  EXPECT_TRUE(log.WaitCommit(20, 2, 0).ok());
  EXPECT_EQ(repl::ReplLog::CommitState::kAcked, log.CheckCommit(20, 2, run));
  EXPECT_EQ(repl::ReplLog::CommitState::kPending,
            log.CheckCommit(30, 2, run));
  EXPECT_EQ(repl::ReplLog::CommitState::kReset,
            log.CheckCommit(30, 2, run ^ 1));

  // Everything acked: nothing stays resident, and a caught-up cursor
  // still fetches (nothing).
  log.Ack("f1", 4);
  log.Ack("f2", 4);
  EXPECT_EQ(0u, log.resident_bytes());
  EXPECT_EQ(5u, log.start_seq());
  EXPECT_TRUE(log.WaitCommit(40, 2, 0).ok());
  ASSERT_TRUE(log.Fetch(5, 100, &records, &head).ok());
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(4u, head);

  // A newly registered follower at 0 blocks trimming again.
  log.Ack("f3", 0);
  log.Append("new", 50);
  log.Ack("f1", 5);
  log.Ack("f2", 5);
  EXPECT_EQ(5u, log.start_seq());
  EXPECT_EQ(3u, log.resident_bytes());
}

TEST_F(ReplicationTest, ReplLogWaitAcked) {
  repl::ReplLog log(1 << 20);
  log.Append("a", 1);
  // needed == 0: immediate OK (AckPolicy::kNone / no replicas).
  EXPECT_TRUE(log.WaitCommit(1, 0, 0).ok());
  // Nobody acks: Busy after the timeout. db seq 0 waits on the newest
  // record, as a caller without its own commit seq does.
  EXPECT_TRUE(log.WaitCommit(0, 1, 50).IsBusy());
  // A concurrent ack wakes the waiter.
  std::thread acker([&log] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    log.Ack("f1", 1);
  });
  EXPECT_TRUE(log.WaitCommit(0, 1, 2000).ok());
  acker.join();
}

TEST_F(ReplicationTest, ReplLogRunIdSurvivesAppendsAndChangesOnReset) {
  repl::ReplLog log(1 << 20);
  const uint64_t run = log.run_id();
  EXPECT_NE(0u, run);
  log.Append("a", 1);
  log.Append("b", 2);
  EXPECT_EQ(run, log.run_id());  // stable across the log's lifetime
  log.Reset();
  // A reset starts a new numbering run: the id must change so a
  // follower holding a cursor into the old run re-syncs instead of
  // applying aliased records.
  EXPECT_NE(run, log.run_id());
  EXPECT_NE(0u, log.run_id());
}

TEST_F(ReplicationTest, ReplLogWaitCommitTargetsOwnWrite) {
  repl::ReplLog log(1 << 20);
  log.Append("a", 10);  // log_seq 1
  log.Append("b", 20);  // log_seq 2
  // Acking record 1 satisfies a waiter on db_seq 10 even though the
  // head (record 2) is unacked: the wait is pinned to the caller's own
  // write, not the log head.
  log.Ack("f1", 1);
  EXPECT_TRUE(log.WaitCommit(10, 1, 50).ok());
  // db_seq 20 lives in record 2, which nobody acked: Busy.
  EXPECT_TRUE(log.WaitCommit(20, 1, 50).IsBusy());
  // A concurrent ack of the covering record wakes the waiter.
  std::thread acker([&log] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    log.Ack("f1", 2);
  });
  EXPECT_TRUE(log.WaitCommit(20, 1, 2000).ok());
  acker.join();
}

TEST_F(ReplicationTest, ReplLogResetWakesWaitersDistinctly) {
  repl::ReplLog log(1 << 20);
  log.Append("a", 10);
  // Reset during an ack wait (promotion racing an in-flight write)
  // answers IOError, not the Busy a plain ack timeout produces: the
  // caller can tell "log is gone" from "replicas are slow".
  std::thread resetter([&log] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    log.Reset();
  });
  Status s = log.WaitCommit(10, 1, 5000);
  resetter.join();
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_FALSE(s.IsBusy());
  Status s2 = log.WaitCommit(0, 1, 50);
  EXPECT_TRUE(s2.IsBusy());  // post-reset waits time out normally
}

TEST_F(ReplicationTest, AckPolicyParsing) {
  repl::AckPolicy p;
  ASSERT_TRUE(repl::ParseAckPolicy("none", &p));
  EXPECT_EQ(repl::AckPolicy::kNone, p);
  ASSERT_TRUE(repl::ParseAckPolicy("quorum", &p));
  EXPECT_EQ(repl::AckPolicy::kQuorum, p);
  ASSERT_TRUE(repl::ParseAckPolicy("all", &p));
  EXPECT_EQ(repl::AckPolicy::kAll, p);
  EXPECT_FALSE(repl::ParseAckPolicy("most", &p));
  EXPECT_STREQ("quorum", repl::AckPolicyName(repl::AckPolicy::kQuorum));
}

// Commit-hook ordering under concurrent writers. ----------------------

TEST_F(ReplicationTest, CommitHooksFireInSequenceOrderAcrossWriters) {
  CacheKVOptions dbopts = TestDb();
  dbopts.num_cores = 4;
  auto env = std::make_unique<PmemEnv>(TestEnv(dbopts.pool_bytes));
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(env.get(), dbopts, false, &db).ok());

  // The replication log replays records in hook-invocation order, so a
  // hook that observes decreasing sequence numbers means concurrent
  // same-key writes could reach followers in reverse commit order.
  std::mutex mu;
  std::vector<SequenceNumber> seen;
  db->SetCommitHook([&](const std::vector<KVStore::BatchOp>& ops,
                        SequenceNumber last_seq) {
    (void)ops;
    std::lock_guard<std::mutex> lock(mu);
    seen.push_back(last_seq);
  });

  constexpr int kThreads = 8;
  constexpr int kWritesPerThread = 200;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; t++) {
    writers.emplace_back([&db, t] {
      for (int i = 0; i < kWritesPerThread; i++) {
        const std::string key =
            "hk-" + std::to_string(t) + "-" + std::to_string(i);
        if (i % 5 == 0) {
          std::vector<KVStore::BatchOp> batch;
          batch.push_back({false, key + "-a", "v"});
          batch.push_back({false, key + "-b", "v"});
          // The commit reports the batch's last sequence: the second
          // record of a block that starts at 1 or later.
          SequenceNumber seq = 0;
          ASSERT_TRUE(db->MultiPut(batch, &seq).ok());
          ASSERT_GE(seq, 2u);
        } else {
          ASSERT_TRUE(db->Put(key, "v").ok());
        }
      }
    });
  }
  for (auto& w : writers) w.join();

  std::lock_guard<std::mutex> lock(mu);
  constexpr size_t kExpected = kThreads * kWritesPerThread;
  ASSERT_EQ(kExpected, seen.size());
  for (size_t i = 1; i < seen.size(); i++) {
    ASSERT_LT(seen[i - 1], seen[i])
        << "commit hooks fired out of sequence order at call " << i;
  }
  db->WaitIdle();
}

TEST_F(ReplicationTest, GcRelocationsFireNoCommitHook) {
  CacheKVOptions dbopts = TestDb();
  dbopts.value_separation_threshold = 256;
  dbopts.vlog_segment_bytes = 64ull << 10;
  dbopts.vlog_gc_dead_ratio = 0;  // every sealed segment is a victim
  dbopts.vlog_gc_interval_ms = 3'600'000;  // passes run only when called
  auto env = std::make_unique<PmemEnv>(TestEnv(dbopts.pool_bytes));
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(env.get(), dbopts, false, &db).ok());
  std::atomic<int> hook_calls{0};
  db->SetCommitHook([&](const std::vector<KVStore::BatchOp>&,
                        SequenceNumber) { hook_calls.fetch_add(1); });

  // Enough separated values to seal the first segments; all stay live,
  // so a GC pass relocates every record it replays.
  constexpr int kWrites = 150;
  for (int i = 0; i < kWrites; i++) {
    ASSERT_TRUE(db->Put("gc" + std::to_string(i),
                        std::string(1000, 'a' + i % 26))
                    .ok());
  }
  ASSERT_EQ(kWrites, hook_calls.load());
  ASSERT_TRUE(db->vlog_gc()->CollectOnce().ok());
  ASSERT_GT(db->CounterValue("vlog.gc_rewrites"), 0u)
      << "the pass relocated nothing; the test proves nothing";

  // A relocation moves a value a follower already holds, and the
  // follower runs its own GC: the hook sees the user writes only.
  EXPECT_EQ(kWrites, hook_calls.load());
  for (int i = 0; i < kWrites; i++) {
    std::string got;
    ASSERT_TRUE(db->Get("gc" + std::to_string(i), &got).ok()) << i;
    EXPECT_EQ(std::string(1000, 'a' + i % 26), got);
  }
  db->SetCommitHook(nullptr);
  db->WaitIdle();
}

// Hub-level epoch fencing. --------------------------------------------

TEST_F(ReplicationTest, StaleEpochFencedAndNewerEpochDemotes) {
  CacheKVOptions dbopts = TestDb();
  auto env = std::make_unique<PmemEnv>(TestEnv(dbopts.pool_bytes));
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(env.get(), dbopts, false, &db).ok());
  repl::ReplHub hub(repl::ReplOptions(), {db.get()});

  EXPECT_TRUE(hub.IsPrimary(0));
  EXPECT_EQ(0u, hub.Epoch(0));

  // A subscribe carrying a newer epoch demotes this primary: somewhere
  // a successor reigns, so it must stop acking client writes.
  net::ReplSubscribeRequest sub;
  sub.shard = 0;
  sub.epoch = 5;
  sub.follower_id = "new-primary";
  std::string payload, error;
  EXPECT_EQ(net::kOk, hub.HandleSubscribe(sub, &payload, &error));
  EXPECT_FALSE(hub.IsPrimary(0));
  EXPECT_EQ(5u, hub.Epoch(0));

  // Requests under an older epoch are rejected with kStaleEpoch.
  net::ReplBatchRequest batch;
  batch.shard = 0;
  batch.epoch = 3;
  batch.from_seq = 1;
  payload.clear();
  error.clear();
  EXPECT_EQ(net::kStaleEpoch, hub.HandleBatch(batch, &payload, &error));
  net::ReplAckRequest ack;
  ack.shard = 0;
  ack.epoch = 4;
  ack.follower_id = "f";
  ack.acked_seq = 1;
  EXPECT_EQ(net::kStaleEpoch, hub.HandleAck(ack, &payload, &error));

  // PROMOTE bumps past the adopted epoch and flips back to primary.
  net::PromoteRequest promote;
  promote.shard = 0;
  payload.clear();
  EXPECT_EQ(net::kOk, hub.HandlePromote(promote, &payload, &error));
  uint64_t new_epoch = 0;
  ASSERT_TRUE(net::ParsePromotePayload(payload, &new_epoch).ok());
  EXPECT_EQ(6u, new_epoch);
  EXPECT_TRUE(hub.IsPrimary(0));

  // Out-of-range shards are invalid, not a crash.
  sub.shard = 9;
  EXPECT_EQ(net::kInvalidArgument,
            hub.HandleSubscribe(sub, &payload, &error));
  db->WaitIdle();
}

TEST_F(ReplicationTest, ReplFailPointsSurfaceAsErrors) {
  CacheKVOptions dbopts = TestDb();
  auto env = std::make_unique<PmemEnv>(TestEnv(dbopts.pool_bytes));
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(env.get(), dbopts, false, &db).ok());
  repl::ReplHub hub(repl::ReplOptions(), {db.get()});

  auto* reg = fault::FailPointRegistry::Global();
  ASSERT_TRUE(reg->Enable("repl.stream.drop", "always,error:io").ok());
  std::string payload, error;
  net::ReplBatchRequest batch;
  batch.shard = 0;
  batch.from_seq = 1;
  EXPECT_EQ(net::kIOError, hub.HandleBatch(batch, &payload, &error));
  reg->DisableAll();
  EXPECT_EQ(net::kOk, hub.HandleBatch(batch, &payload, &error));

  ASSERT_TRUE(reg->Enable("repl.snapshot.torn", "always,error:io").ok());
  net::ReplSnapshotRequest snap;
  snap.shard = 0;
  payload.clear();
  EXPECT_EQ(net::kIOError, hub.HandleSnapshot(snap, &payload, &error));
  reg->DisableAll();
  db->WaitIdle();
}

// Two-node integration over real TCP. ---------------------------------

TEST_F(ReplicationTest, FollowerCatchesUpAndPromoteFencesOldPrimary) {
  const uint16_t follower_port = PickPort();
  Node primary;
  repl::ReplOptions popts;
  popts.ack = repl::AckPolicy::kAll;
  popts.ack_timeout_ms = 5000;
  popts.replicas = {"127.0.0.1:" + std::to_string(follower_port)};
  primary.Start(popts, 0);

  Node follower;
  repl::ReplOptions fopts;
  fopts.primary_endpoint = primary.endpoint;
  follower.Start(fopts, follower_port);

  // Replication state rendered into assertion messages: when an
  // ack=all write stays Busy through every retry, this says which link
  // of the chain (subscribe, stream, apply, ack) made no progress.
  auto diag = [&] {
    auto* pm = primary.db->metrics();
    auto* fm = follower.db->metrics();
    std::string s = " [primary head=";
    s += std::to_string(primary.hub->log(0)->head_seq());
    s += " subs=" + std::to_string(pm->GetCounter("repl.subscribes")->value());
    s += " acks=" + std::to_string(pm->GetCounter("repl.acks")->value());
    s += " timeouts=" +
         std::to_string(pm->GetCounter("repl.ack_timeouts")->value());
    s += " | follower applied=" +
         std::to_string(fm->GetCounter("repl.applied_batches")->value());
    s += " bootstraps=" +
         std::to_string(fm->GetCounter("repl.bootstraps")->value());
    s += " epoch=" + std::to_string(follower.hub->Epoch(0));
    s += " is_primary=" + std::to_string(follower.hub->IsPrimary(0));
    s += "]";
    return s;
  };

  // ack=all: once a Put returns OK the follower has applied it.
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", primary.server->port()).ok());
  const int kKeys = 100;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(PutAcked(&client, Key(i), Value(i)).ok()) << i << diag();
  }
  ASSERT_TRUE(DeleteAcked(&client, Key(0)).ok()) << diag();

  // Writes to the follower are rejected: it is not the primary.
  net::Client fclient;
  ASSERT_TRUE(
      fclient.Connect("127.0.0.1", follower.server->port()).ok());
  EXPECT_FALSE(fclient.Put("nope", "x").ok());
  EXPECT_EQ(net::kNotPrimary, fclient.last_wire_code());

  // Manual PROMOTE: the follower takes over under a higher epoch and
  // synchronously fences the old primary.
  uint64_t new_epoch = 0;
  ASSERT_TRUE(fclient.Promote(0, &new_epoch).ok());
  EXPECT_GE(new_epoch, 1u);
  EXPECT_TRUE(follower.hub->IsPrimary(0));

  // The fence carrying the new epoch to the deposed primary is
  // delivered over TCP (synchronously from PROMOTE, retried from the
  // follower loop) — poll briefly for it to land before asserting.
  const auto fence_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while ((primary.hub->IsPrimary(0) ||
          primary.hub->Epoch(0) < new_epoch) &&
         std::chrono::steady_clock::now() < fence_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }

  // The deposed primary now rejects client writes (stale-primary
  // fencing): it cannot commit after promotion.
  Status stale = client.Put("lost-update", "x");
  EXPECT_FALSE(stale.ok());
  EXPECT_EQ(net::kNotPrimary, client.last_wire_code());
  EXPECT_FALSE(primary.hub->IsPrimary(0));
  EXPECT_GE(primary.hub->Epoch(0), new_epoch);

  // Everything acked pre-promotion serves from the new primary.
  for (int i = 1; i < kKeys; i++) {
    std::string value;
    ASSERT_TRUE(fclient.Get(Key(i), &value).ok()) << i;
    EXPECT_EQ(Value(i), value);
  }
  std::string gone;
  EXPECT_TRUE(fclient.Get(Key(0), &gone).IsNotFound());
  // And it accepts writes under its new reign.
  EXPECT_TRUE(fclient.Put("post-promotion", "y").ok());
}

// A MULTIPUT split across shards commits on every shard before any ack
// wait: a lagging first shard must not keep the second from committing,
// and the reply must say the write committed on both.
TEST_F(ReplicationTest, SplitMultiPutCommitsEveryShardBeforeAckTimeout) {
  constexpr uint32_t kShards = 2;
  CacheKVOptions dbopts = TestDb();
  std::vector<std::unique_ptr<PmemEnv>> envs;
  std::vector<std::unique_ptr<DB>> dbs;
  std::vector<DB*> ptrs;
  for (uint32_t i = 0; i < kShards; i++) {
    envs.push_back(std::make_unique<PmemEnv>(TestEnv(dbopts.pool_bytes)));
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(envs.back().get(), dbopts, false, &db).ok());
    ptrs.push_back(db.get());
    dbs.push_back(std::move(db));
  }
  repl::ReplOptions popts;
  popts.ack = repl::AckPolicy::kAll;
  popts.ack_timeout_ms = 100;
  // A replica endpoint nothing listens on: no ack ever arrives.
  popts.replicas = {"127.0.0.1:" + std::to_string(PickPort())};
  repl::ReplHub hub(popts, ptrs);
  hub.AttachCommitHooks();
  net::ShardMap map;
  map.num_shards = kShards;
  net::ShardRouter router;
  ASSERT_TRUE(net::ShardRouter::Build(map, &router).ok());
  net::ServerOptions sopts;
  sopts.repl = &hub;
  net::Server server(ptrs, router, sopts);
  ASSERT_TRUE(server.Start().ok());
  hub.SetSelfEndpoint("127.0.0.1:" + std::to_string(server.port()));
  hub.Start();

  std::string keys[kShards];
  for (int i = 0; keys[0].empty() || keys[1].empty(); i++) {
    const std::string key = "split-" + std::to_string(i);
    keys[router.ShardOf(key)] = key;
  }
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  Status s = client.MultiPut(
      {{false, keys[0], "value-0"}, {false, keys[1], "value-1"}});
  EXPECT_TRUE(s.IsBusy()) << s.ToString();
  EXPECT_EQ(net::kReplTimeout, client.last_wire_code());
  EXPECT_NE(std::string::npos, s.ToString().find("committed on shards 0,1"))
      << s.ToString();
  for (uint32_t shard = 0; shard < kShards; shard++) {
    std::string got;
    ASSERT_TRUE(client.Get(keys[shard], &got).ok()) << "shard " << shard;
    EXPECT_EQ("value-" + std::to_string(shard), got);
  }

  client.Close();
  server.Stop();
  hub.Stop();
  for (DB* db : ptrs) db->WaitIdle();
}

// The empty-key rule holds on every write path: a primary refuses
// PUT "" instead of acking it and shipping an op its follower can never
// apply, which would wedge the shard's replication for good.
TEST_F(ReplicationTest, EmptyKeyPutIsRejectedAndReplicationKeepsFlowing) {
  const uint16_t follower_port = PickPort();
  Node primary;
  repl::ReplOptions popts;
  popts.ack = repl::AckPolicy::kQuorum;
  popts.ack_timeout_ms = 5000;
  popts.replicas = {"127.0.0.1:" + std::to_string(follower_port)};
  primary.Start(popts, 0);

  Node follower;
  repl::ReplOptions fopts;
  fopts.primary_endpoint = primary.endpoint;
  follower.Start(fopts, follower_port);

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", primary.server->port()).ok());
  ASSERT_TRUE(PutAcked(&client, "before", "1").ok());
  Status s = client.Put("", "x");
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_EQ(net::kInvalidArgument, client.last_wire_code());

  // Quorum acks still arrive for the next write on the same shard.
  ASSERT_TRUE(PutAcked(&client, "after", "2").ok());
  std::string got;
  ASSERT_TRUE(follower.db->Get("after", &got).ok());
  EXPECT_EQ("2", got);
}

TEST_F(ReplicationTest, SnapshotBootstrapAfterLogTruncation) {
  const uint16_t follower_port = PickPort();
  Node primary;
  repl::ReplOptions popts;  // ack=none: load runs ahead of the follower
  popts.log_bytes_per_shard = 2048;  // force truncation
  popts.replicas = {"127.0.0.1:" + std::to_string(follower_port)};
  primary.Start(popts, 0);

  // Load BEFORE the follower exists: by the time it subscribes the log
  // has evicted the oldest records, so Fetch(1) answers kReplLagged and
  // the follower must bootstrap from a paged snapshot.
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", primary.server->port()).ok());
  const int kKeys = 300;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(client.Put(Key(i), Value(i)).ok()) << i;
  }
  ASSERT_GT(primary.hub->log(0)->start_seq(), 1u);

  Node follower;
  repl::ReplOptions fopts;
  fopts.primary_endpoint = primary.endpoint;
  fopts.snapshot_page = 64;  // exercise several snapshot pages
  follower.Start(fopts, follower_port);

  // Keep writing during the bootstrap: the log replay after the
  // snapshot must cover writes racing the scan.
  for (int i = kKeys; i < kKeys + 50; i++) {
    ASSERT_TRUE(client.Put(Key(i), Value(i)).ok()) << i;
  }

  // Poll until the follower has converged on the full key range.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  bool converged = false;
  while (!converged && std::chrono::steady_clock::now() < deadline) {
    converged = true;
    for (int i : {0, kKeys / 2, kKeys - 1, kKeys + 49}) {
      std::string value;
      if (!follower.db->Get(Key(i), &value).ok() ||
          value != Value(i)) {
        converged = false;
        break;
      }
    }
    if (!converged) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  ASSERT_TRUE(converged) << "follower never caught up via snapshot";
  // Spot-check the whole range, not just the probes.
  for (int i = 0; i < kKeys + 50; i += 7) {
    std::string value;
    ASSERT_TRUE(follower.db->Get(Key(i), &value).ok()) << i;
    EXPECT_EQ(Value(i), value);
  }
}

TEST_F(ReplicationTest, KillPrimaryMidLoadLosesNoAckedWrite) {
  const uint16_t follower_port = PickPort();
  Node primary;
  repl::ReplOptions popts;
  popts.ack = repl::AckPolicy::kAll;  // acked => follower has applied it
  popts.ack_timeout_ms = 5000;
  popts.replicas = {"127.0.0.1:" + std::to_string(follower_port)};
  primary.Start(popts, 0);

  Node follower;
  repl::ReplOptions fopts;
  fopts.primary_endpoint = primary.endpoint;
  fopts.auto_promote_ms = 300;  // self-promote after primary silence
  follower.Start(fopts, follower_port);

  net::ClientOptions copts;
  copts.max_retries = 6;
  copts.retry_backoff_base_ms = 25;
  copts.recv_timeout_ms = 5000;
  net::ShardedClient client(copts);
  client.AddSeedEndpoint(follower.endpoint);
  ASSERT_TRUE(
      client.Connect("127.0.0.1", primary.server->port()).ok());

  const int kKeys = 200;
  std::vector<int> acked;
  for (int i = 0; i < kKeys; i++) {
    if (i == kKeys / 2) primary.Kill();  // mid-load primary death
    bool ok = false;
    for (int attempt = 0; attempt < 40 && !ok; attempt++) {
      ok = client.Put(Key(i), Value(i)).ok();
      if (!ok) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        client.RefreshRouting();  // best effort; retried next attempt
      }
    }
    if (ok) acked.push_back(i);
  }
  // The failover window may swallow un-acked attempts, but the client
  // must come out the other side writing again.
  EXPECT_GT(client.failovers(), 0u);
  ASSERT_GT(acked.size(), static_cast<size_t>(kKeys / 2));
  EXPECT_TRUE(follower.hub->IsPrimary(0));
  EXPECT_GE(follower.hub->Epoch(0), 1u);

  // Shadow verification: every acked write must be readable through a
  // fresh client bootstrapped off the survivor. Zero lost.
  net::ShardedClient reader(copts);
  reader.AddSeedEndpoint(follower.endpoint);
  ASSERT_TRUE(
      reader.Connect("127.0.0.1", follower.server->port()).ok());
  int lost = 0;
  for (int i : acked) {
    std::string value;
    Status s = reader.Get(Key(i), &value);
    if (!s.ok() || value != Value(i)) lost++;
  }
  EXPECT_EQ(0, lost) << "acked writes lost after failover";
}

TEST_F(ReplicationTest, BootstrapSweepsKeysTheSnapshotDoesNotCarry) {
  Node primary;
  repl::ReplOptions popts;  // ack=none
  const uint16_t follower_port = PickPort();
  popts.replicas = {"127.0.0.1:" + std::to_string(follower_port)};
  primary.Start(popts, 0);

  // Primary state: keys 0..99 live, every third one deleted again. The
  // snapshot a follower bootstraps from carries only the live set —
  // Scan elides tombstones — so deletions can only reach the follower
  // through the anti-entropy sweep.
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", primary.server->port()).ok());
  const int kKeys = 100;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(client.Put(Key(i), Value(i)).ok()) << i;
  }
  for (int i = 0; i < kKeys; i += 3) {
    ASSERT_TRUE(client.Delete(Key(i)).ok()) << i;
  }

  // Hand-wire the follower so zombie keys exist BEFORE the pull thread
  // starts: they model a divergent unacked suffix on a deposed primary
  // rejoining as a follower. Keys chosen to land before, between, and
  // after the primary's key range.
  Node follower;
  {
    CacheKVOptions dbopts = TestDb();
    follower.env = std::make_unique<PmemEnv>(TestEnv(dbopts.pool_bytes));
    ASSERT_TRUE(
        DB::Open(follower.env.get(), dbopts, false, &follower.db).ok());
    ASSERT_TRUE(follower.db->Put("aaa-zombie", "stale").ok());
    ASSERT_TRUE(follower.db->Put(Key(1) + "-zombie", "stale").ok());
    ASSERT_TRUE(follower.db->Put("zzz-zombie", "stale").ok());
    // A key the primary also has, but with a divergent value.
    ASSERT_TRUE(follower.db->Put(Key(7), "divergent").ok());
    repl::ReplOptions fopts;
    fopts.primary_endpoint = primary.endpoint;
    fopts.snapshot_page = 16;  // sweep across several page boundaries
    follower.hub = std::make_unique<repl::ReplHub>(
        fopts, std::vector<DB*>{follower.db.get()});
    follower.hub->AttachCommitHooks();
    net::ServerOptions sopts;
    sopts.port = follower_port;
    sopts.repl = follower.hub.get();
    follower.server = std::make_unique<net::Server>(
        std::vector<DB*>{follower.db.get()}, net::ShardRouter(), sopts);
    ASSERT_TRUE(follower.server->Start().ok());
    follower.endpoint =
        "127.0.0.1:" + std::to_string(follower.server->port());
    follower.hub->SetSelfEndpoint(follower.endpoint);
    follower.hub->Start();
  }

  // Converged = live keys present AND zombies/deletions gone.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  bool converged = false;
  while (!converged && std::chrono::steady_clock::now() < deadline) {
    converged = true;
    std::string value;
    for (int i : {1, 50, kKeys - 1}) {
      if (i % 3 == 0) continue;
      if (!follower.db->Get(Key(i), &value).ok() || value != Value(i)) {
        converged = false;
      }
    }
    for (const std::string& zombie :
         {std::string("aaa-zombie"), Key(1) + "-zombie",
          std::string("zzz-zombie")}) {
      if (!follower.db->Get(zombie, &value).IsNotFound()) {
        converged = false;
      }
    }
    if (!follower.db->Get(Key(0), &value).IsNotFound()) converged = false;
    if (!converged) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  ASSERT_TRUE(converged) << "bootstrap never swept stale follower keys";

  // Full sweep audit: the follower's live key set must be EXACTLY the
  // primary's — no resurrection candidates left anywhere.
  for (int i = 0; i < kKeys; i++) {
    std::string value;
    Status s = follower.db->Get(Key(i), &value);
    if (i % 3 == 0) {
      EXPECT_TRUE(s.IsNotFound()) << "deleted key survived: " << i;
    } else {
      ASSERT_TRUE(s.ok()) << i;
      EXPECT_EQ(Value(i), value) << "divergent value survived: " << i;
    }
  }
}

TEST_F(ReplicationTest, PrimaryRestartWithFreshLogForcesBootstrap) {
  const uint16_t primary_port = PickPort();
  const uint16_t follower_port = PickPort();
  repl::ReplOptions popts;  // ack=none
  popts.replicas = {"127.0.0.1:" + std::to_string(follower_port)};

  Node follower;
  auto start_follower = [&](Node* node, const std::string& endpoint) {
    repl::ReplOptions fopts;
    fopts.primary_endpoint = endpoint;
    node->Start(fopts, follower_port);
  };

  std::string old_endpoint;
  {
    // First life of the primary: keys 0..49 replicate normally.
    Node primary;
    primary.Start(popts, primary_port);
    old_endpoint = primary.endpoint;
    start_follower(&follower, primary.endpoint);
    net::Client client;
    ASSERT_TRUE(
        client.Connect("127.0.0.1", primary.server->port()).ok());
    for (int i = 0; i < 50; i++) {
      ASSERT_TRUE(client.Put(Key(i), Value(i)).ok()) << i;
    }
    // 60 s, not 20: this test restarts a whole node and re-bootstraps
    // the follower twice over, which crawls under TSan.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    bool caught_up = false;
    while (!caught_up && std::chrono::steady_clock::now() < deadline) {
      std::string value;
      caught_up = follower.db->Get(Key(49), &value).ok();
      if (!caught_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    ASSERT_TRUE(caught_up);
    // Node destructor = abrupt primary death; its in-memory log dies
    // with it while the follower keeps its cursor (applied_seq ~50).
  }

  // Second life: same endpoint, empty DB, FRESH log (head 0, new run
  // id). It writes fewer records than the follower's stale cursor, so
  // without run-id detection every fetch would answer "caught up" —
  // and later, aliased records. The follower must instead notice the
  // run change, bootstrap, and converge to exactly the new state.
  Node reborn;
  reborn.Start(popts, primary_port);
  ASSERT_EQ(old_endpoint, reborn.endpoint);
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", reborn.server->port()).ok());
  for (int i = 1000; i < 1010; i++) {
    ASSERT_TRUE(client.Put(Key(i), Value(i)).ok()) << i;
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  bool converged = false;
  while (!converged && std::chrono::steady_clock::now() < deadline) {
    converged = true;
    std::string value;
    for (int i = 1000; i < 1010; i++) {
      if (!follower.db->Get(Key(i), &value).ok() || value != Value(i)) {
        converged = false;
        break;
      }
    }
    // The first life's keys are not in the reborn primary: the
    // bootstrap sweep must remove them from the follower.
    if (converged &&
        !follower.db->Get(Key(0), &value).IsNotFound()) {
      converged = false;
    }
    if (!converged) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  ASSERT_TRUE(converged)
      << "follower never detected the primary's log reset";
  EXPECT_GE(follower.db->metrics()
                ->GetCounter("repl.log_reset_bootstraps")
                ->value(),
            1u);
  for (int i = 0; i < 50; i++) {
    std::string value;
    EXPECT_TRUE(follower.db->Get(Key(i), &value).IsNotFound())
        << "stale pre-restart key survived: " << i;
  }
}

// Parked writes (docs/REPLICATION.md "Threading"). --------------------

// No server thread blocks on a follower: while a write waits for acks
// that do not come, another connection on the same (only) worker gets
// its PING and GET answered at once.
TEST_F(ReplicationTest, ParkedWriteLeavesOtherConnectionsServed) {
  constexpr int kAckTimeoutMs = 10'000;
  Node primary;
  StartUnackedPrimary(&primary, kAckTimeoutMs);
  net::Client writer;
  ASSERT_TRUE(writer.Connect("127.0.0.1", primary.server->port()).ok());
  Status put;
  std::thread parked([&] { put = writer.Put("parked", "v"); });
  ASSERT_TRUE(WaitForCommit(primary.hub.get()));

  net::Client reader;
  ASSERT_TRUE(reader.Connect("127.0.0.1", primary.server->port()).ok());
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(reader.Ping().ok());
  std::string value;
  EXPECT_TRUE(reader.Get("other", &value).IsNotFound());
  EXPECT_LT(MsSince(t0), kAckTimeoutMs / 10);

  primary.server->Stop();  // answers nothing more: the writer sees EOF
  parked.join();
  EXPECT_FALSE(put.ok());
}

// Parking keeps a connection's order: a pipelined GET behind a parked
// PUT runs only after it, and sees it; responses come in request order.
TEST_F(ReplicationTest, PipelinedRequestsBehindParkedWriteKeepOrder) {
  const uint16_t follower_port = PickPort();
  Node primary;
  repl::ReplOptions popts;
  popts.ack = repl::AckPolicy::kQuorum;
  popts.ack_timeout_ms = 10'000;
  popts.replicas = {"127.0.0.1:" + std::to_string(follower_port)};
  primary.Start(popts, 0);
  Node follower;
  repl::ReplOptions fopts;
  fopts.primary_endpoint = primary.endpoint;
  follower.Start(fopts, follower_port);

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", primary.server->port()).ok());
  ASSERT_TRUE(PutAcked(&client, "warm", "up").ok());  // follower in sync
  const uint64_t put1 = client.SubmitPut("k", "v1");
  const uint64_t get = client.SubmitGet("k");
  const uint64_t put2 = client.SubmitPut("k2", "v2");
  std::vector<net::Client::Result> results;
  ASSERT_TRUE(client.WaitAll(&results).ok());
  ASSERT_EQ(3u, results.size());
  EXPECT_EQ(put1, results[0].id);
  EXPECT_EQ(get, results[1].id);
  EXPECT_EQ(put2, results[2].id);
  EXPECT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  ASSERT_TRUE(results[1].status.ok()) << results[1].status.ToString();
  EXPECT_EQ("v1", results[1].value);
  EXPECT_TRUE(results[2].status.ok()) << results[2].status.ToString();
  // Quorum-acked: the follower applied both writes before the OKs.
  std::string value;
  ASSERT_TRUE(follower.db->Get("k", &value).ok());
  EXPECT_EQ("v1", value);
  ASSERT_TRUE(follower.db->Get("k2", &value).ok());
  EXPECT_EQ("v2", value);
  // Its one registered follower acked every record, so the primary's log
  // holds none; the follower's own outbound log never grew.
  EXPECT_EQ(0u, primary.hub->log(0)->resident_bytes());
  EXPECT_EQ(0u, follower.hub->log(0)->head_seq());
}

// A parked write whose acks never come answers REPL_TIMEOUT at its
// deadline (the event loop's wait is bounded by it), and its slow-log
// entry puts the wait in the req.repl stage, not in req.db.
TEST_F(ReplicationTest, ParkedWriteTimesOutIntoReplStage) {
  constexpr int kAckTimeoutMs = 150;
  Node primary;
  StartUnackedPrimary(&primary, kAckTimeoutMs);
  net::Client writer;
  ASSERT_TRUE(writer.Connect("127.0.0.1", primary.server->port()).ok());
  const auto t0 = std::chrono::steady_clock::now();
  Status put = writer.Put("parked", "v");
  EXPECT_TRUE(put.IsBusy()) << put.ToString();
  EXPECT_EQ(net::kReplTimeout, writer.last_wire_code());
  EXPECT_GE(MsSince(t0), kAckTimeoutMs);
  EXPECT_EQ(1u, primary.db->metrics()->GetCounter("repl.ack_timeouts")->value());

  const std::vector<obs::SlowLogEntry> slow =
      primary.server->slow_log()->Snapshot();
  ASSERT_EQ(1u, slow.size());
  uint64_t repl_us = 0;
  uint64_t db_us = 0;
  for (int i = 0; i < slow[0].num_stages; i++) {
    const std::string name = slow[0].stages[i].name;
    if (name == "req.repl") repl_us = slow[0].stages[i].us;
    if (name == "req.db") db_us = slow[0].stages[i].us;
  }
  EXPECT_GE(repl_us, kAckTimeoutMs * 1000u);
  EXPECT_LT(db_us, repl_us);
}

// A promotion resets the log a parked write waits on: the write is
// answered REPL_TIMEOUT at once (counted in repl.ack_resets), not after
// the ack timeout.
TEST_F(ReplicationTest, PromotionResetAnswersParkedWrite) {
  constexpr int kAckTimeoutMs = 10'000;
  Node primary;
  StartUnackedPrimary(&primary, kAckTimeoutMs);
  net::Client writer;
  ASSERT_TRUE(writer.Connect("127.0.0.1", primary.server->port()).ok());
  Status put;
  std::thread parked([&] { put = writer.Put("parked", "v"); });
  ASSERT_TRUE(WaitForCommit(primary.hub.get()));

  const auto t0 = std::chrono::steady_clock::now();
  net::Client admin;
  ASSERT_TRUE(admin.Connect("127.0.0.1", primary.server->port()).ok());
  uint64_t epoch = 0;
  ASSERT_TRUE(admin.Promote(0, &epoch).ok());
  parked.join();
  EXPECT_LT(MsSince(t0), kAckTimeoutMs / 2);
  EXPECT_TRUE(put.IsBusy()) << put.ToString();
  EXPECT_EQ(net::kReplTimeout, writer.last_wire_code());
  auto* m = primary.db->metrics();
  EXPECT_EQ(1u, m->GetCounter("repl.ack_resets")->value());
  EXPECT_EQ(0u, m->GetCounter("repl.ack_timeouts")->value());
}

// Stopping the server drops a parked write with its connection; Stop()
// does not wait out the ack timeout.
TEST_F(ReplicationTest, StopWithParkedWriteReturnsPromptly) {
  constexpr int kAckTimeoutMs = 30'000;
  Node primary;
  StartUnackedPrimary(&primary, kAckTimeoutMs);
  net::Client writer;
  ASSERT_TRUE(writer.Connect("127.0.0.1", primary.server->port()).ok());
  Status put;
  std::thread parked([&] { put = writer.Put("parked", "v"); });
  ASSERT_TRUE(WaitForCommit(primary.hub.get()));

  const auto t0 = std::chrono::steady_clock::now();
  primary.server->Stop();
  EXPECT_LT(MsSince(t0), kAckTimeoutMs / 10);
  parked.join();
  EXPECT_FALSE(put.ok());
}

// The follower pulls every shard over one connection. With shard 0 idle
// its fetch there is held — but an append to shard 1 releases it, so
// quorum writes to shard 1 never wait out the hold.
TEST_F(ReplicationTest, IdleShardFetchHoldDoesNotDelayOtherShard) {
  TwoShardPair pair;
  ASSERT_NO_FATAL_FAILURE(pair.Start());
  const std::vector<std::string> shard1_keys = pair.KeysOn(1, "idle-", 21);
  net::Client client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", pair.primary.server->port()).ok());
  ASSERT_TRUE(PutAcked(&client, shard1_keys[0], "warm").ok());
  std::vector<int64_t> ms;
  for (size_t i = 1; i < shard1_keys.size(); i++) {
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(client.Put(shard1_keys[i], "v").ok()) << i;
    ms.push_back(MsSince(t0));
  }
  std::sort(ms.begin(), ms.end());
  // Waiting out a hold costs about kFetchHoldMs per write.
  EXPECT_LT(ms[ms.size() / 2], repl::kFetchHoldMs / 2)
      << "median quorum PUT on shard 1 waited out the shard-0 hold";
}

// Mid-failover the shards route to two servers: the follower promoted
// for shard 1, the old primary kept shard 0. No server can answer a
// SCAN for the whole range then (each is primary for only one of the
// shards it hosts), so SCAN and SCAN-at-snapshot fail not_primary —
// and leave every shard connection usable for the keyed calls after.
TEST_F(ReplicationTest, SplitPrimaryScanFailsAndLeavesConnectionsUsable) {
  TwoShardPair pair;
  ASSERT_NO_FATAL_FAILURE(pair.Start());
  const std::string key = pair.KeysOn(1, "split-", 1)[0];
  net::Client client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", pair.primary.server->port()).ok());
  ASSERT_TRUE(PutAcked(&client, key, "before-split").ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::string applied;
  while (!pair.follower.dbs[1]->Get(key, &applied).ok() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ("before-split", applied);

  // PROMOTE shard 1 on the follower; it fences the old primary's shard 1.
  net::Client admin;
  ASSERT_TRUE(
      admin.Connect("127.0.0.1", pair.follower.server->port()).ok());
  uint64_t epoch = 0;
  ASSERT_TRUE(admin.Promote(1, &epoch).ok());
  while (pair.primary.hub->IsPrimary(1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_FALSE(pair.primary.hub->IsPrimary(1));
  ASSERT_TRUE(pair.primary.hub->IsPrimary(0));

  auto connect_split = [&](net::ShardedClient* sc) {
    sc->AddSeedEndpoint(pair.follower.endpoint);
    ASSERT_TRUE(sc->Connect("127.0.0.1", pair.primary.server->port()).ok());
    ASSERT_EQ(2u, sc->num_shards());
  };
  std::vector<std::pair<std::string, std::string>> rows;
  std::string value;
  {
    net::ShardedClient sc;
    ASSERT_NO_FATAL_FAILURE(connect_split(&sc));
    Status s = sc.Scan("", 0, &rows);
    EXPECT_TRUE(s.IsIOError()) << s.ToString();
    EXPECT_NE(std::string::npos, s.ToString().find("not_primary"))
        << s.ToString();
    s = sc.Get(key, &value);
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ("before-split", value);
  }
  {
    net::ShardedClient sc;
    ASSERT_NO_FATAL_FAILURE(connect_split(&sc));
    net::ShardedClient::ShardedSnapshot snap;
    ASSERT_TRUE(sc.CreateSnapshot(0, &snap).ok());
    EXPECT_EQ(2u, snap.server_ids.size());
    Status s = sc.ScanAt("", 0, snap, &rows);
    EXPECT_TRUE(s.IsIOError()) << s.ToString();
    EXPECT_NE(std::string::npos, s.ToString().find("not_primary"))
        << s.ToString();
    s = sc.GetAt(key, snap, &value);
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ("before-split", value);
    EXPECT_TRUE(sc.ReleaseSnapshot(snap).ok());
  }
}

// Concurrent quorum writers on two workers: every ack, append and
// reset wakes the workers with parked writes, whichever thread it runs
// on. A wake lost to a race leaves parked writes waiting for the next
// poll tick (hundreds of ms) instead of the ack.
TEST_F(ReplicationTest, ConcurrentQuorumWritersAreWokenByEveryAck) {
  const uint16_t follower_port = PickPort();
  Node primary;
  repl::ReplOptions popts;
  popts.ack = repl::AckPolicy::kQuorum;
  popts.ack_timeout_ms = 10'000;
  popts.replicas = {"127.0.0.1:" + std::to_string(follower_port)};
  primary.Start(popts, 0);
  Node follower;
  repl::ReplOptions fopts;
  fopts.primary_endpoint = primary.endpoint;
  follower.Start(fopts, follower_port);

  constexpr int kWriters = 4;
  constexpr int kPutsPerWriter = 150;
  std::vector<std::vector<int64_t>> ms(kWriters);
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; t++) {
    writers.emplace_back([&, t] {
      net::Client client;
      ASSERT_TRUE(client.Connect("127.0.0.1", primary.server->port()).ok());
      for (int i = 0; i < kPutsPerWriter; i++) {
        const auto t0 = std::chrono::steady_clock::now();
        ASSERT_TRUE(PutAcked(&client, Key(t * kPutsPerWriter + i), Value(i))
                        .ok());
        ms[t].push_back(MsSince(t0));
      }
    });
  }
  for (auto& w : writers) w.join();
  std::vector<int64_t> all;
  for (const auto& v : ms) all.insert(all.end(), v.begin(), v.end());
  ASSERT_EQ(static_cast<size_t>(kWriters * kPutsPerWriter), all.size());
  std::sort(all.begin(), all.end());
  // A missed wake-up costs up to the event loop's 500 ms idle tick.
  EXPECT_LT(all[all.size() * 9 / 10], 250)
      << "p90 quorum PUT latency: parked writes missed their wake-ups";
}

}  // namespace
}  // namespace cachekv
