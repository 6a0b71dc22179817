// Client <-> server integration tests: an in-process Server on an
// ephemeral port, driven through the real TCP client library.
// Covers the op surface against shadow maps (concurrent clients),
// pipelined write batching, STATS serving the registry dump, armed
// net.* fail points surfacing as clean client errors while the server
// stays up, read-only degradation over the wire, and the acceptance
// case: killing the server mid-load and reopening the store loses no
// acknowledged write.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/db.h"
#include "fault/fail_point.h"
#include "net/client.h"
#include "net/server.h"
#include "net/shard_router.h"
#include "pmem/pmem_env.h"
#include "util/json.h"

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

class NetServerTest : public ::testing::Test {
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
    srv.port = 0;  // ephemeral
    server_ = std::make_unique<net::Server>(
        std::vector<DB*>{db_.get()}, net::ShardRouter(), srv);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(0, server_->port());
  }

  void MakeClient(net::Client* client) {
    ASSERT_TRUE(client->Connect("127.0.0.1", server_->port()).ok());
  }

  CacheKVOptions opts_;
  std::unique_ptr<PmemEnv> env_;
  std::unique_ptr<DB> db_;
  std::unique_ptr<net::Server> server_;
};

TEST_F(NetServerTest, BasicOpsRoundTrip) {
  StartServer();
  net::Client client;
  MakeClient(&client);

  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Put("alpha", "1").ok());
  ASSERT_TRUE(client.Put("beta", "2").ok());
  ASSERT_TRUE(client.Put("gamma", "3").ok());

  std::string value;
  ASSERT_TRUE(client.Get("beta", &value).ok());
  EXPECT_EQ("2", value);
  EXPECT_TRUE(client.Get("missing", &value).IsNotFound());

  ASSERT_TRUE(client.Delete("beta").ok());
  EXPECT_TRUE(client.Get("beta", &value).IsNotFound());

  // MultiPut commits atomically server-side via DB::ApplyBatch.
  ASSERT_TRUE(client
                  .MultiPut({{false, "delta", "4"},
                             {true, "gamma", ""},
                             {false, "epsilon", "5"}})
                  .ok());
  ASSERT_TRUE(client.Get("delta", &value).ok());
  EXPECT_EQ("4", value);
  EXPECT_TRUE(client.Get("gamma", &value).IsNotFound());

  std::vector<std::pair<std::string, std::string>> entries;
  ASSERT_TRUE(client.Scan("", 10, &entries).ok());
  ASSERT_EQ(3u, entries.size());  // alpha, delta, epsilon — in order
  EXPECT_EQ("alpha", entries[0].first);
  EXPECT_EQ("delta", entries[1].first);
  EXPECT_EQ("epsilon", entries[2].first);

  ASSERT_TRUE(client.Scan("b", 1, &entries).ok());
  ASSERT_EQ(1u, entries.size());
  EXPECT_EQ("delta", entries[0].first);
}

TEST_F(NetServerTest, ScanLimitAboveServerMaximumRejected) {
  net::ServerOptions srv;
  srv.max_scan_limit = 4;
  StartServer(srv);
  net::Client client;
  MakeClient(&client);
  std::vector<std::pair<std::string, std::string>> entries;
  ASSERT_TRUE(client.Scan("", 4, &entries).ok());
  Status s = client.Scan("", 5, &entries);
  ASSERT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(std::string::npos, s.ToString().find("too_large"));
  // The rejection is per-request; the connection stays usable.
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(NetServerTest, ConcurrentClientsAgainstShadowMaps) {
  StartServer();
  constexpr int kThreads = 4;
  constexpr int kOps = 400;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      net::Client client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      // Disjoint per-thread key prefixes; every thread maintains its own
      // shadow map and verifies against it at the end.
      std::map<std::string, std::string> shadow;
      const std::string prefix = "t" + std::to_string(t) + "-";
      for (int i = 0; i < kOps; i++) {
        const std::string key = prefix + std::to_string(i % 50);
        if (i % 7 == 3) {
          if (!client.Delete(key).ok()) failures.fetch_add(1);
          shadow.erase(key);
        } else {
          const std::string value =
              "v" + std::to_string(t) + "." + std::to_string(i);
          if (!client.Put(key, value).ok()) failures.fetch_add(1);
          shadow[key] = value;
        }
      }
      for (const auto& [key, want] : shadow) {
        std::string got;
        if (!client.Get(key, &got).ok() || got != want) {
          failures.fetch_add(1);
        }
      }
      // Every key this thread deleted last must stay gone.
      for (int i = 0; i < 50; i++) {
        const std::string key = prefix + std::to_string(i);
        if (shadow.count(key)) continue;
        std::string got;
        if (!client.Get(key, &got).IsNotFound()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(0, failures.load());
}

TEST_F(NetServerTest, PipelinedWritesAreBatchedAndAcknowledged) {
  StartServer();
  net::Client client;
  MakeClient(&client);

  const uint64_t batched_before = db_->CounterValue("net.batched_writes");
  constexpr int kPipelined = 48;
  for (int i = 0; i < kPipelined; i++) {
    client.SubmitPut("pipe" + std::to_string(i),
                     "value" + std::to_string(i));
  }
  std::vector<net::Client::Result> results;
  ASSERT_TRUE(client.WaitAll(&results).ok());
  ASSERT_EQ(static_cast<size_t>(kPipelined), results.size());
  for (const auto& r : results) {
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(net::Op::kPut, r.op);
  }
  // Pipelined consecutive PUTs landed as at least one ApplyBatch commit
  // (the whole flight arrives before the server starts responding).
  EXPECT_GT(db_->CounterValue("net.batched_writes"), batched_before);
  EXPECT_GE(db_->CounterValue("net.batched_ops"), 2u);

  for (int i = 0; i < kPipelined; i++) {
    std::string got;
    ASSERT_TRUE(client.Get("pipe" + std::to_string(i), &got).ok());
    EXPECT_EQ("value" + std::to_string(i), got);
  }

  // Mixed pipelined flight: responses arrive in request order with
  // matching ids, reads interleaved with writes.
  const uint64_t id_put = client.SubmitPut("pipe0", "rewritten");
  const uint64_t id_get = client.SubmitGet("pipe0");
  const uint64_t id_del = client.SubmitDelete("pipe1");
  const uint64_t id_miss = client.SubmitGet("pipe1");
  results.clear();
  ASSERT_TRUE(client.WaitAll(&results).ok());
  ASSERT_EQ(4u, results.size());
  EXPECT_EQ(id_put, results[0].id);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_EQ(id_get, results[1].id);
  ASSERT_TRUE(results[1].status.ok());
  EXPECT_EQ("rewritten", results[1].value);
  EXPECT_EQ(id_del, results[2].id);
  EXPECT_TRUE(results[2].status.ok());
  EXPECT_EQ(id_miss, results[3].id);
  EXPECT_TRUE(results[3].status.IsNotFound());
}

// A synchronous call is a one-request pipeline on an idle connection:
// with pipelined requests outstanding it fails without sending, and the
// queued requests' results are still WaitAll's, in order.
TEST_F(NetServerTest, SyncCallRequiresAnIdleConnection) {
  StartServer();
  net::Client client;
  MakeClient(&client);

  const uint64_t id_a = client.SubmitPut("idle-a", "1");
  const uint64_t id_b = client.SubmitPut("idle-b", "2");
  std::string value;
  Status s = client.Get("idle-a", &value);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_EQ(0, client.last_wire_code());
  EXPECT_EQ(2u, client.outstanding());

  std::vector<net::Client::Result> results;
  ASSERT_TRUE(client.WaitAll(&results).ok());
  ASSERT_EQ(2u, results.size());
  EXPECT_EQ(id_a, results[0].id);
  EXPECT_EQ(id_b, results[1].id);
  for (const auto& r : results) {
    EXPECT_EQ(net::Op::kPut, r.op);
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  }

  ASSERT_TRUE(client.Get("idle-a", &value).ok());
  EXPECT_EQ("1", value);
  EXPECT_EQ(net::kOk, client.last_wire_code());
}

// One bad request in a pipelined write run fails alone: the run's
// combined commit is rejected (empty key), so each request commits its
// own ops and gets its own status.
TEST_F(NetServerTest, WriteRunFallbackAnswersEachRequestOnItsOwn) {
  StartServer();
  net::Client client;
  MakeClient(&client);

  client.SubmitPut("a", "value-a");
  client.SubmitPut("", "value-empty");
  client.SubmitPut("c", "value-c");
  std::vector<net::Client::Result> results;
  ASSERT_TRUE(client.WaitAll(&results).ok());
  ASSERT_EQ(3u, results.size());
  EXPECT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  EXPECT_EQ(net::kInvalidArgument, results[1].wire_code)
      << results[1].status.ToString();
  EXPECT_TRUE(results[2].status.ok()) << results[2].status.ToString();

  std::string got;
  ASSERT_TRUE(client.Get("a", &got).ok());
  EXPECT_EQ("value-a", got);
  ASSERT_TRUE(client.Get("c", &got).ok());
  EXPECT_EQ("value-c", got);
}

TEST_F(NetServerTest, StatsServesTheRegistryDump) {
  StartServer();
  net::Client client;
  MakeClient(&client);
  ASSERT_TRUE(client.Put("k", "v").ok());
  std::string json;
  ASSERT_TRUE(client.Stats(&json).ok());

  // STATS is DB::DumpMetrics verbatim: one parseable document holding
  // both the network-layer and the storage-engine instruments.
  JsonValue doc;
  ASSERT_TRUE(JsonValue::Parse(json, &doc).ok()) << json;
  EXPECT_NE(nullptr, doc.Get("net.requests"));
  EXPECT_NE(nullptr, doc.Get("net.connections"));
  EXPECT_NE(nullptr, doc.Get("db.puts"));
  std::string local;
  db_->DumpMetrics(&local);
  JsonValue local_doc;
  ASSERT_TRUE(JsonValue::Parse(local, &local_doc).ok());
  EXPECT_NE(nullptr, local_doc.Get("net.requests"));
}

TEST_F(NetServerTest, InjectedReadFaultClosesOneConnNotTheServer) {
  StartServer();
  auto* reg = fault::FailPointRegistry::Global();
  net::Client victim;
  MakeClient(&victim);
  ASSERT_TRUE(victim.Ping().ok());

  // Armed net.read: the next socket read on the victim's worker fails,
  // the server closes that connection, and the client surfaces a clean
  // transport error — no hang, no crash.
  ASSERT_TRUE(reg->Enable("net.read", "once,error:io").ok());
  Status s = victim.Put("doomed", "x");
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(victim.connected());
  EXPECT_GE(reg->FireCount("net.read"), 1u);
  reg->DisableAll();

  // The server keeps serving fresh connections.
  net::Client survivor;
  MakeClient(&survivor);
  EXPECT_TRUE(survivor.Ping().ok());
  EXPECT_TRUE(survivor.Put("alive", "yes").ok());
}

TEST_F(NetServerTest, InjectedDecodeFaultIsAPerRequestError) {
  StartServer();
  auto* reg = fault::FailPointRegistry::Global();
  net::Client client;
  MakeClient(&client);
  ASSERT_TRUE(reg->Enable("net.decode", "once,error:io").ok());
  Status s = client.Ping();
  ASSERT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(std::string::npos, s.ToString().find("decode_error"));
  reg->DisableAll();
  // Per-request failure: the same connection keeps working.
  EXPECT_TRUE(client.connected());
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(NetServerTest, ReadOnlyDegradationSurfacesOverTheWire) {
  StartServer();
  auto* reg = fault::FailPointRegistry::Global();
  // Exhaust the flush retry budget: every copy-flush attempt fails, the
  // background-error manager degrades the store to read-only.
  ASSERT_TRUE(reg->Enable("flush.copy", "always,error:io").ok());
  const std::string filler(512, 'f');
  for (int i = 0; i < 20000 && !db_->IsReadOnly(); i++) {
    (void)db_->Put("fill" + std::to_string(i), filler);
  }
  db_->WaitIdle();
  ASSERT_TRUE(db_->IsReadOnly());

  net::Client client;
  MakeClient(&client);
  Status s = client.Put("rejected", "x");
  ASSERT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_NE(std::string::npos, s.ToString().find("read-only"));
  s = client.MultiPut({{false, "also-rejected", "x"}});
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  // Reads keep working while degraded.
  std::string got;
  EXPECT_TRUE(client.Get("fill0", &got).ok());
  EXPECT_TRUE(client.Ping().ok());
  reg->DisableAll();
}

TEST_F(NetServerTest, ServerKillMidLoadLosesNoAcknowledgedWrite) {
  StartServer();
  constexpr int kWriters = 3;
  std::vector<std::map<std::string, std::string>> acked(kWriters);
  std::vector<std::thread> writers;
  std::atomic<bool> stop{false};
  for (int t = 0; t < kWriters; t++) {
    writers.emplace_back([&, t] {
      net::Client client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) return;
      for (int i = 0; !stop.load(std::memory_order_relaxed); i++) {
        const std::string key =
            "crash-t" + std::to_string(t) + "-" + std::to_string(i);
        const std::string value =
            "durable-" + std::to_string(t) + "." + std::to_string(i);
        // Only responses that actually came back count as acknowledged;
        // the write cut off by the shutdown never enters the map.
        if (!client.Put(key, value).ok()) break;
        acked[static_cast<size_t>(t)][key] = value;
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  server_->Stop();  // hard cut: every in-flight connection drops
  stop.store(true);
  for (auto& th : writers) th.join();
  server_.reset();

  size_t total = 0;
  for (const auto& m : acked) total += m.size();
  ASSERT_GT(total, 100u) << "load phase too short to mean anything";

  // Crash the machine under the store and recover from PMem alone.
  db_->WaitIdle();
  db_.reset();
  env_->SimulateCrash();
  std::unique_ptr<DB> reopened;
  ASSERT_TRUE(DB::Open(env_.get(), opts_, true, &reopened).ok());
  for (const auto& m : acked) {
    for (const auto& [key, want] : m) {
      std::string got;
      Status s = reopened->Get(key, &got);
      ASSERT_TRUE(s.ok()) << "acknowledged write lost: " << key << ": "
                          << s.ToString();
      EXPECT_EQ(want, got) << key;
    }
  }
  db_ = std::move(reopened);
}

TEST_F(NetServerTest, BackpressureShedsWithBusyInsteadOfBuffering) {
  net::ServerOptions srv;
  srv.max_conn_write_buffer_bytes = 64ull << 10;
  StartServer(srv);
  net::Client client;
  MakeClient(&client);

  const std::string big(8192, 'b');
  ASSERT_TRUE(client.Put("big", big).ok());

  // Pipeline far more response bytes (~32 MB) than the kernel's socket
  // buffers plus the 64 KB cap can hold, then give the server time to
  // process the whole flight while this thread is NOT reading: the
  // outbound buffer hits the cap and the tail of the flight must be
  // shed with Busy rather than buffered without bound.
  constexpr int kGets = 4000;
  for (int i = 0; i < kGets; i++) {
    client.SubmitGet("big");
  }
  ASSERT_TRUE(client.Flush().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  std::vector<net::Client::Result> results;
  ASSERT_TRUE(client.WaitAll(&results).ok());
  ASSERT_EQ(static_cast<size_t>(kGets), results.size());

  int served = 0, shed = 0;
  for (const auto& r : results) {
    if (r.status.ok()) {
      served++;
      EXPECT_EQ(big, r.value);
    } else {
      ASSERT_TRUE(r.status.IsBusy()) << r.status.ToString();
      shed++;
    }
  }
  EXPECT_GT(served, 0);
  EXPECT_GT(shed, 0);
  EXPECT_GE(db_->CounterValue("net.backpressure_sheds"),
            static_cast<uint64_t>(shed));

  // Shedding is per-request: the connection survives and recovers.
  EXPECT_TRUE(client.connected());
  EXPECT_TRUE(client.Ping().ok());
  std::string got;
  ASSERT_TRUE(client.Get("big", &got).ok());
  EXPECT_EQ(big, got);
}

TEST_F(NetServerTest, StopIsIdempotentAndRestartable) {
  StartServer();
  net::Client client;
  MakeClient(&client);
  ASSERT_TRUE(client.Put("k", "v").ok());
  server_->Stop();
  server_->Stop();  // idempotent
  EXPECT_FALSE(server_->running());

  // A fresh server over the same DB picks the data right up.
  server_ = std::make_unique<net::Server>(
      std::vector<DB*>{db_.get()}, net::ShardRouter(), net::ServerOptions());
  ASSERT_TRUE(server_->Start().ok());
  net::Client again;
  MakeClient(&again);
  std::string got;
  ASSERT_TRUE(again.Get("k", &got).ok());
  EXPECT_EQ("v", got);
}

// Sharded-server integration: four independent stores behind one
// listening socket, a consistent-hash ring shared by server and
// clients, SHARDMAP bootstrap, shard-labelled STATS, and the
// acceptance case — killing the sharded server mid-load and crash-
// recovering every shard loses no acknowledged write.
class ShardedNetServerTest : public ::testing::Test {
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
  }

  void TearDown() override {
    if (server_) server_->Stop();
    for (auto& db : dbs_) {
      if (db) db->WaitIdle();
    }
    fault::FailPointRegistry::Global()->DisableAll();
  }

  void StartServer(net::ServerOptions srv = net::ServerOptions()) {
    srv.port = 0;  // ephemeral
    std::vector<DB*> ptrs;
    for (auto& db : dbs_) ptrs.push_back(db.get());
    server_ = std::make_unique<net::Server>(ptrs, router_, srv);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(0, server_->port());
  }

  CacheKVOptions opts_;
  net::ShardRouter router_;
  std::vector<std::unique_ptr<PmemEnv>> envs_;
  std::vector<std::unique_ptr<DB>> dbs_;
  std::unique_ptr<net::Server> server_;
};

TEST_F(ShardedNetServerTest, OpsRouteAcrossAllShards) {
  StartServer();
  net::ShardedClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_EQ(static_cast<uint32_t>(kShards), client.num_shards());

  std::vector<std::string> keys;
  for (int i = 0; i < 200; i++) {
    const std::string key = "route" + std::to_string(i);
    ASSERT_TRUE(client.Put(key, "v" + std::to_string(i)).ok());
    keys.push_back(key);
  }
  // 200 keys over 4 shards: every store must have received writes.
  for (int s = 0; s < kShards; s++) {
    EXPECT_GT(dbs_[static_cast<size_t>(s)]->CounterValue("db.puts"), 0u)
        << "shard " << s << " never written";
    EXPECT_GT(dbs_[static_cast<size_t>(s)]->CounterValue(
                  "net.shard.requests"),
              0u);
  }
  for (int i = 0; i < 200; i++) {
    std::string got;
    ASSERT_TRUE(client.Get(keys[static_cast<size_t>(i)], &got).ok());
    EXPECT_EQ("v" + std::to_string(i), got);
  }
  // The routing is the fixture ring: each key lives in exactly the
  // shard the router names (verified store-side, bypassing the net).
  for (int i = 0; i < 200; i += 17) {
    const std::string& key = keys[static_cast<size_t>(i)];
    const uint32_t owner = router_.ShardOf(key);
    std::string got;
    EXPECT_TRUE(dbs_[owner]->Get(key, &got).ok()) << key;
  }

  // MULTIPUT splits across shards; SCAN merges back in global order.
  ASSERT_TRUE(client
                  .MultiPut({{false, "m-a", "1"},
                             {false, "m-b", "2"},
                             {false, "m-c", "3"},
                             {false, "m-d", "4"}})
                  .ok());
  // SCAN is `keys >= start` merged across all shards in global order;
  // the four m-* keys sort before the route* bulk.
  std::vector<std::pair<std::string, std::string>> entries;
  ASSERT_TRUE(client.Scan("m-", 4, &entries).ok());
  ASSERT_EQ(4u, entries.size());
  EXPECT_EQ("m-a", entries[0].first);
  EXPECT_EQ("m-b", entries[1].first);
  EXPECT_EQ("m-c", entries[2].first);
  EXPECT_EQ("m-d", entries[3].first);

  ASSERT_TRUE(client.Delete("m-b").ok());
  std::string got;
  EXPECT_TRUE(client.Get("m-b", &got).IsNotFound());

  // A plain (unsharded) client works against the same server: the
  // server routes on its side.
  net::Client plain;
  ASSERT_TRUE(plain.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(plain.Get("route7", &got).ok());
  EXPECT_EQ("v7", got);
  ASSERT_TRUE(plain.Put("plain-key", "plain-value").ok());
  ASSERT_TRUE(client.Get("plain-key", &got).ok());
  EXPECT_EQ("plain-value", got);
  entries.clear();
  ASSERT_TRUE(plain.Scan("m-", 3, &entries).ok());
  ASSERT_EQ(3u, entries.size());  // m-b deleted — globally ordered
  EXPECT_EQ("m-a", entries[0].first);
  EXPECT_EQ("m-c", entries[1].first);
  EXPECT_EQ("m-d", entries[2].first);
}

TEST_F(ShardedNetServerTest, ShardMapFetchMatchesServerRouting) {
  StartServer();
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  net::ShardRouter fetched;
  ASSERT_TRUE(client.FetchShardMap(&fetched).ok());
  EXPECT_EQ(static_cast<uint32_t>(kShards), fetched.num_shards());
  ASSERT_EQ(static_cast<size_t>(kShards),
            fetched.map().endpoints.size());
  const std::string want_endpoint =
      "127.0.0.1:" + std::to_string(server_->port());
  for (const std::string& ep : fetched.map().endpoints) {
    EXPECT_EQ(want_endpoint, ep);
  }
  // The fetched ring assigns every key exactly as the server does.
  for (int i = 0; i < 10'000; i++) {
    const std::string key = "agree" + std::to_string(i);
    ASSERT_EQ(router_.ShardOf(key), fetched.ShardOf(key)) << key;
  }
}

TEST_F(ShardedNetServerTest, StatsAreShardLabelled) {
  StartServer();
  net::ShardedClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(client.Put("stat" + std::to_string(i), "v").ok());
  }
  std::string json;
  ASSERT_TRUE(client.Stats(&json).ok());
  JsonValue doc;
  ASSERT_TRUE(JsonValue::Parse(json, &doc).ok()) << json;
  const JsonValue* shards = doc.Get("shards");
  ASSERT_NE(nullptr, shards);
  EXPECT_EQ(kShards, static_cast<int>(shards->number()));
  for (int s = 0; s < kShards; s++) {
    const JsonValue* shard = doc.Get("shard." + std::to_string(s));
    ASSERT_NE(nullptr, shard) << "missing shard." << s;
    EXPECT_NE(nullptr, shard->Get("net.shard.requests"))
        << "shard." << s;
    EXPECT_NE(nullptr, shard->Get("db.puts")) << "shard." << s;
  }
  // Server-wide net.* instruments live in the primary shard's dump.
  EXPECT_NE(nullptr, doc.Get("shard.0")->Get("net.requests"));
}

TEST_F(ShardedNetServerTest, ConcurrentShardedClientsAgainstShadowMaps) {
  StartServer();
  constexpr int kThreads = 4;
  constexpr int kOps = 400;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      net::ShardedClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      std::map<std::string, std::string> shadow;
      const std::string prefix = "st" + std::to_string(t) + "-";
      for (int i = 0; i < kOps; i++) {
        const std::string key = prefix + std::to_string(i % 50);
        if (i % 7 == 3) {
          if (!client.Delete(key).ok()) failures.fetch_add(1);
          shadow.erase(key);
        } else {
          const std::string value =
              "v" + std::to_string(t) + "." + std::to_string(i);
          if (!client.Put(key, value).ok()) failures.fetch_add(1);
          shadow[key] = value;
        }
      }
      for (const auto& [key, want] : shadow) {
        std::string got;
        if (!client.Get(key, &got).ok() || got != want) {
          failures.fetch_add(1);
        }
      }
      for (int i = 0; i < 50; i++) {
        const std::string key = prefix + std::to_string(i);
        if (shadow.count(key)) continue;
        std::string got;
        if (!client.Get(key, &got).IsNotFound()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(0, failures.load());
}

TEST_F(ShardedNetServerTest, KillMidLoadLosesNoAcknowledgedWrite) {
  StartServer();
  constexpr int kWriters = 3;
  std::vector<std::map<std::string, std::string>> acked(kWriters);
  std::vector<std::thread> writers;
  std::atomic<bool> stop{false};
  for (int t = 0; t < kWriters; t++) {
    writers.emplace_back([&, t] {
      net::ShardedClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) return;
      for (int i = 0; !stop.load(std::memory_order_relaxed); i++) {
        const std::string key =
            "scrash-t" + std::to_string(t) + "-" + std::to_string(i);
        const std::string value =
            "durable-" + std::to_string(t) + "." + std::to_string(i);
        // Only responses that actually came back count as acknowledged.
        if (!client.Put(key, value).ok()) break;
        acked[static_cast<size_t>(t)][key] = value;
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  server_->Stop();  // hard cut: every in-flight connection drops
  stop.store(true);
  for (auto& th : writers) th.join();
  server_.reset();

  size_t total = 0;
  for (const auto& m : acked) total += m.size();
  ASSERT_GT(total, 100u) << "load phase too short to mean anything";

  // Crash every shard's machine and recover each store from its own
  // PMem device alone.
  for (int s = 0; s < kShards; s++) {
    dbs_[static_cast<size_t>(s)]->WaitIdle();
    dbs_[static_cast<size_t>(s)].reset();
    envs_[static_cast<size_t>(s)]->SimulateCrash();
    std::unique_ptr<DB> reopened;
    ASSERT_TRUE(DB::Open(envs_[static_cast<size_t>(s)].get(), opts_,
                         true, &reopened)
                    .ok())
        << "shard " << s;
    dbs_[static_cast<size_t>(s)] = std::move(reopened);
  }

  // Every acknowledged write must be in exactly the shard the ring
  // routes it to.
  for (const auto& m : acked) {
    for (const auto& [key, want] : m) {
      const uint32_t owner = router_.ShardOf(key);
      std::string got;
      Status s = dbs_[owner]->Get(key, &got);
      ASSERT_TRUE(s.ok()) << "acknowledged write lost: " << key
                          << " (shard " << owner << "): "
                          << s.ToString();
      EXPECT_EQ(want, got) << key;
    }
  }
}

}  // namespace
}  // namespace cachekv
