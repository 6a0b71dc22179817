// Hot-key cache coherence under fault injection: the headline property
// of docs/ISSUE 6 — a GET must NEVER return a value older than an
// already-acknowledged overwrite of the same key, no matter how the
// cache's fill/invalidate windows are stretched by armed fail points.
//
// Protocol: every key is owned by exactly one writer thread, which
// writes monotonically increasing sequence numbers and publishes
// acked[key] = seq only AFTER the server acknowledged the PUT. Readers
// snapshot acked[key] BEFORE issuing the GET; whatever comes back must
// decode to a sequence >= that snapshot. Because the server refreshes
// the cache after the DB commit and before the ack, and stale fill
// tokens are rejected (src/cache/hot_key_cache.h), the invariant holds
// even with cache.poison and cache.invalidate delays widening every
// race window. Run single-shard and 4-shard. A separate case gives the
// same keys two writers, whose refreshes must land in commit order.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
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

constexpr int kKeys = 16;       // tiny hot set: maximal overwrite contention
constexpr int kWriters = 2;     // each owns kKeys / kWriters keys
constexpr int kReaders = 4;
constexpr int kReadsPerReader = 3000;  // 12k verified rounds per fixture

std::string KeyName(int k) { return "coh-key-" + std::to_string(k); }

// Arms the chaos that stretches the miss->fill and commit->ack windows:
//  * cache.poison delays half the fills, so invalidations land between
//    Lookup and Insert (exercising fill-token rejection);
//  * cache.invalidate delays half the invalidations, stretching the
//    commit->ack window on the write path.
void ArmChaos() {
  auto* reg = fault::FailPointRegistry::Global();
  ASSERT_TRUE(reg->Enable("cache.poison", "p:0.5,delay:100").ok());
  ASSERT_TRUE(reg->Enable("cache.invalidate", "p:0.5,delay:100").ok());
}

// Drives writers + readers against a started server through the given
// client type (net::Client or net::ShardedClient — same surface).
template <typename ClientT>
void RunCoherenceLoad(uint16_t port) {
  // acked[k]: highest sequence number the owner writer saw acknowledged.
  // next value is picked by the single owner, so commit order == ack
  // order per key and the invariant below is exact, not heuristic.
  std::vector<std::atomic<uint64_t>> acked(kKeys);
  for (auto& a : acked) a.store(0);
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> stale_reads{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; w++) {
    writers.emplace_back([&, w] {
      ClientT client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        failures.fetch_add(1);
        return;
      }
      uint64_t seq = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        seq++;
        for (int k = w; k < kKeys; k += kWriters) {
          const std::string value = std::to_string(seq);
          if (!client.Put(KeyName(k), value).ok()) {
            failures.fetch_add(1);
            return;
          }
          // Published only after the ack came back: from here on, no
          // reader may ever see a sequence below `seq` for this key.
          acked[static_cast<size_t>(k)].store(seq,
                                              std::memory_order_release);
        }
      }
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; r++) {
    readers.emplace_back([&, r] {
      ClientT client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        failures.fetch_add(1);
        return;
      }
      uint64_t rng = 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(r + 1);
      for (int i = 0; i < kReadsPerReader; i++) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const int k = static_cast<int>((rng >> 33) % kKeys);
        // Snapshot BEFORE the GET: the write carrying this sequence was
        // already acknowledged, so the response must not predate it.
        const uint64_t floor_seq =
            acked[static_cast<size_t>(k)].load(std::memory_order_acquire);
        std::string value;
        Status s = client.Get(KeyName(k), &value);
        if (floor_seq == 0) continue;  // key may not exist yet
        if (!s.ok()) {
          failures.fetch_add(1);
          continue;
        }
        const uint64_t got = strtoull(value.c_str(), nullptr, 10);
        if (got < floor_seq) {
          stale_reads.fetch_add(1);
          ADD_FAILURE() << "stale read on " << KeyName(k) << ": got seq "
                        << got << " after seq " << floor_seq
                        << " was acknowledged";
        }
      }
    });
  }

  for (auto& th : readers) th.join();
  stop.store(true);
  for (auto& th : writers) th.join();
  EXPECT_EQ(0, failures.load());
  EXPECT_EQ(0u, stale_reads.load());
}

class CacheCoherenceTest : public ::testing::Test {
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

  CacheKVOptions opts_;
  std::unique_ptr<PmemEnv> env_;
  std::unique_ptr<DB> db_;
  std::unique_ptr<net::Server> server_;
};

TEST_F(CacheCoherenceTest, NoStaleAckedOverwriteSingleShard) {
  net::ServerOptions srv;
  srv.port = 0;
  srv.hot_key_cache_bytes = 1u << 20;
  srv.hot_key_cache_admit = 1;  // fill on first miss: maximal race surface
  server_ = std::make_unique<net::Server>(
      std::vector<DB*>{db_.get()}, net::ShardRouter(), srv);
  ASSERT_TRUE(server_->Start().ok());

  ArmChaos();
  RunCoherenceLoad<net::Client>(server_->port());

  // The run exercised the cache, not just the DB: the hot set must have
  // produced hits and the overwrites must have invalidated entries.
  EXPECT_GT(db_->CounterValue("cache.hits"), 0u);
  EXPECT_GT(db_->CounterValue("cache.invalidations"), 0u);
}

TEST_F(CacheCoherenceTest, PoisonedFillsNeverServeWhileDropped) {
  // error-armed cache.poison drops every fill: the cache contributes
  // nothing, but correctness (served straight from the DB) still holds.
  net::ServerOptions srv;
  srv.port = 0;
  srv.hot_key_cache_bytes = 1u << 20;
  srv.hot_key_cache_admit = 1;
  server_ = std::make_unique<net::Server>(
      std::vector<DB*>{db_.get()}, net::ShardRouter(), srv);
  ASSERT_TRUE(server_->Start().ok());

  auto* reg = fault::FailPointRegistry::Global();
  ASSERT_TRUE(reg->Enable("cache.poison", "always,error:io").ok());

  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  for (int i = 0; i < 200; i++) {
    const std::string key = KeyName(i % kKeys);
    ASSERT_TRUE(client.Put(key, std::to_string(i)).ok());
    std::string got;
    ASSERT_TRUE(client.Get(key, &got).ok());
    EXPECT_EQ(std::to_string(i), got);
  }
  EXPECT_EQ(0u, db_->CounterValue("cache.hits"));
  EXPECT_GT(db_->CounterValue("cache.rejected_fills"), 0u);
}

// The load above gives each key one writer. Here two writers overwrite
// the same keys, so their cache refreshes can arrive out of commit order
// (cache.invalidate delays half of them), while readers keep the keys
// cached. Once both writers stop, every GET through the cache must
// return what the store holds.
TEST_F(CacheCoherenceTest, SameKeyWritersRefreshInCommitOrder) {
  net::ServerOptions srv;
  srv.port = 0;
  srv.hot_key_cache_bytes = 1u << 20;
  srv.hot_key_cache_admit = 1;
  server_ = std::make_unique<net::Server>(
      std::vector<DB*>{db_.get()}, net::ShardRouter(), srv);
  ASSERT_TRUE(server_->Start().ok());
  ASSERT_TRUE(fault::FailPointRegistry::Global()
                  ->Enable("cache.invalidate", "p:0.5,delay:100")
                  .ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; r++) {
    readers.emplace_back([&] {
      net::Client client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      std::string value;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int k = 0; k < kKeys; k++) {
          Status s = client.Get(KeyName(k), &value);
          if (!s.ok() && !s.IsNotFound()) failures.fetch_add(1);
        }
      }
    });
  }
  net::Client writers[2], checker;
  for (net::Client& c : writers) {
    ASSERT_TRUE(c.Connect("127.0.0.1", server_->port()).ok());
  }
  ASSERT_TRUE(checker.Connect("127.0.0.1", server_->port()).ok());
  for (int round = 0; round < 20 && !HasFailure(); round++) {
    std::vector<std::thread> threads;
    for (int w = 0; w < 2; w++) {
      threads.emplace_back([&, w] {
        const std::string value =
            "w" + std::to_string(w) + "-r" + std::to_string(round);
        for (int k = 0; k < kKeys; k++) {
          if (!writers[w].Put(KeyName(k), value).ok()) failures.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();
    for (int k = 0; k < kKeys; k++) {
      std::string served, stored;
      ASSERT_TRUE(checker.Get(KeyName(k), &served).ok());
      ASSERT_TRUE(db_->Get(KeyName(k), &stored).ok());
      EXPECT_EQ(stored, served) << KeyName(k) << " after round " << round;
    }
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(0, failures.load());
  EXPECT_GT(db_->CounterValue("cache.refreshes"), 0u);
}

class ShardedCacheCoherenceTest : public ::testing::Test {
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

  CacheKVOptions opts_;
  net::ShardRouter router_;
  std::vector<std::unique_ptr<PmemEnv>> envs_;
  std::vector<std::unique_ptr<DB>> dbs_;
  std::unique_ptr<net::Server> server_;
};

TEST_F(ShardedCacheCoherenceTest, NoStaleAckedOverwriteAcrossShards) {
  net::ServerOptions srv;
  srv.port = 0;
  srv.hot_key_cache_bytes = 1u << 20;
  srv.hot_key_cache_admit = 1;
  std::vector<DB*> ptrs;
  for (auto& db : dbs_) ptrs.push_back(db.get());
  server_ = std::make_unique<net::Server>(ptrs, router_, srv);
  ASSERT_TRUE(server_->Start().ok());

  ArmChaos();
  // ShardedClient routes each key to its owning shard client-side, so
  // this also proves the per-shard caches never cross keys.
  RunCoherenceLoad<net::ShardedClient>(server_->port());

  uint64_t hits = 0, invalidations = 0;
  for (auto& db : dbs_) {
    hits += db->CounterValue("cache.hits");
    invalidations += db->CounterValue("cache.invalidations");
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(invalidations, 0u);
}

TEST_F(ShardedCacheCoherenceTest, MultiPutInvalidatesEveryTouchedShard) {
  net::ServerOptions srv;
  srv.port = 0;
  srv.hot_key_cache_bytes = 1u << 20;
  srv.hot_key_cache_admit = 1;
  std::vector<DB*> ptrs;
  for (auto& db : dbs_) ptrs.push_back(db.get());
  server_ = std::make_unique<net::Server>(ptrs, router_, srv);
  ASSERT_TRUE(server_->Start().ok());

  net::Client client;  // unsharded: the server splits the batch itself
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  // Warm the caches on keys spread across all shards...
  std::vector<std::string> keys;
  for (int i = 0; i < 64; i++) keys.push_back("mp-key-" + std::to_string(i));
  for (const auto& key : keys) {
    ASSERT_TRUE(client.Put(key, "old").ok());
  }
  std::string got;
  for (const auto& key : keys) {
    ASSERT_TRUE(client.Get(key, &got).ok());   // miss + fill
    ASSERT_TRUE(client.Get(key, &got).ok());   // hit
  }
  // ...then overwrite every one of them in a single MULTIPUT. Once the
  // batch is acknowledged, no cached "old" may survive anywhere.
  std::vector<KVStore::BatchOp> batch;
  for (const auto& key : keys) batch.push_back({false, key, "new"});
  ASSERT_TRUE(client.MultiPut(batch).ok());
  for (const auto& key : keys) {
    ASSERT_TRUE(client.Get(key, &got).ok());
    EXPECT_EQ("new", got) << key;
  }
}

}  // namespace
}  // namespace cachekv
