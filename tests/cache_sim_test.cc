#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache_sim.h"
#include "pmem/pmem_device.h"
#include "util/random.h"

namespace cachekv {
namespace {

LatencyCosts NoLatency() {
  LatencyCosts c;
  c.scale = 0;
  return c;
}

PmemConfig DeviceConfig() {
  PmemConfig c;
  c.capacity = 32ull << 20;
  c.num_dimms = 2;
  c.xpbuffer_slots = 8;
  return c;
}

class CacheSimTest : public ::testing::Test {
 protected:
  CacheSimTest() : latency_(NoLatency()), device_(DeviceConfig(), &latency_) {}

  void MakeCache(uint64_t capacity, int ways, uint64_t locked_size,
                 PersistDomain domain = PersistDomain::kEadr) {
    CacheConfig config;
    config.capacity = capacity;
    config.ways = ways;
    config.locked_base = 0;
    config.locked_size = locked_size;
    config.domain = domain;
    cache_ = std::make_unique<CacheSim>(config, &device_, &latency_);
  }

  LatencyModel latency_;
  PmemDevice device_;
  std::unique_ptr<CacheSim> cache_;
};

TEST_F(CacheSimTest, StoreLoadRoundTrip) {
  MakeCache(1 << 20, 8, 0);
  const std::string data = "persistent cpu caches";
  cache_->Store(1000, data.data(), data.size());
  char out[64] = {0};
  cache_->Load(1000, out, data.size());
  EXPECT_EQ(data, std::string(out, data.size()));
}

TEST_F(CacheSimTest, StoreSpanningManyLines) {
  MakeCache(1 << 20, 8, 0);
  std::string data(1000, '\0');
  for (size_t i = 0; i < data.size(); i++) {
    data[i] = static_cast<char>('a' + (i % 26));
  }
  cache_->Store(777, data.data(), data.size());  // unaligned start
  std::string out(1000, '\0');
  cache_->Load(777, out.data(), out.size());
  EXPECT_EQ(data, out);
}

TEST_F(CacheSimTest, DirtyLineNotVisibleOnMediaUntilWriteback) {
  MakeCache(1 << 20, 8, 0);
  char byte = 'd';
  cache_->Store(0, &byte, 1);
  // Media must still hold zeros (the line is dirty in cache).
  device_.DrainAll();
  EXPECT_EQ(0, device_.raw_media()[0]);
  cache_->Clwb(0, 1);
  device_.DrainAll();
  EXPECT_EQ('d', device_.raw_media()[0]);
}

TEST_F(CacheSimTest, ClwbKeepsLineValid) {
  MakeCache(1 << 20, 8, 0);
  char byte = 'k';
  cache_->Store(64, &byte, 1);
  uint64_t misses_before = cache_->stats().load_misses.load();
  cache_->Clwb(64, 1);
  char out;
  cache_->Load(64, &out, 1);
  EXPECT_EQ('k', out);
  EXPECT_EQ(misses_before, cache_->stats().load_misses.load())
      << "clwb must not invalidate the line";
}

TEST_F(CacheSimTest, ClflushInvalidates) {
  MakeCache(1 << 20, 8, 0);
  char byte = 'f';
  cache_->Store(128, &byte, 1);
  cache_->Clflush(128, 1);
  uint64_t misses_before = cache_->stats().load_misses.load();
  char out;
  cache_->Load(128, &out, 1);
  EXPECT_EQ('f', out);
  EXPECT_EQ(misses_before + 1, cache_->stats().load_misses.load());
}

TEST_F(CacheSimTest, EvictionWritesBackDirtyLines) {
  // Tiny cache: 2 sets x 2 ways. Fill one set beyond associativity.
  MakeCache(4 * kCacheLineSize, 2, 0);
  char buf[kCacheLineSize];
  memset(buf, 'e', sizeof(buf));
  // These addresses all map to set 0 (line_number even).
  for (int i = 0; i < 4; i++) {
    cache_->Store(static_cast<uint64_t>(i) * 2 * kCacheLineSize, buf,
                  kCacheLineSize);
  }
  EXPECT_GE(cache_->stats().dirty_evictions.load(), 2u);
  // The evicted data must be readable through the device.
  char out[kCacheLineSize];
  cache_->Load(0, out, kCacheLineSize);
  EXPECT_EQ('e', out[0]);
}

TEST_F(CacheSimTest, LruEvictsColdestLine) {
  MakeCache(2 * kCacheLineSize, 2, 0);  // 1 set, 2 ways
  char a[kCacheLineSize], b[kCacheLineSize], c[kCacheLineSize];
  memset(a, 'a', sizeof(a));
  memset(b, 'b', sizeof(b));
  memset(c, 'c', sizeof(c));
  cache_->Store(0, a, kCacheLineSize);
  cache_->Store(64, b, kCacheLineSize);
  // Touch line 0 so line 64 becomes LRU.
  char tmp;
  cache_->Load(0, &tmp, 1);
  cache_->Store(128, c, kCacheLineSize);  // evicts line 64
  // Loading line 0 must be a hit; line 64 a miss.
  uint64_t misses = cache_->stats().load_misses.load();
  cache_->Load(0, &tmp, 1);
  EXPECT_EQ(misses, cache_->stats().load_misses.load());
  cache_->Load(64, &tmp, 1);
  EXPECT_EQ(misses + 1, cache_->stats().load_misses.load());
  EXPECT_EQ('b', tmp);
}

TEST_F(CacheSimTest, NtStoreBypassesCache) {
  MakeCache(1 << 20, 8, 0);
  char buf[kXPLineSize];
  memset(buf, 'n', sizeof(buf));
  cache_->NtStore(0, buf, sizeof(buf));
  EXPECT_EQ(4u, cache_->stats().nt_lines.load());
  // Data reached the device (buffered or on media) without dirtying cache.
  char out[kXPLineSize];
  device_.Read(0, out, sizeof(out));
  EXPECT_EQ('n', out[0]);
  EXPECT_EQ('n', out[kXPLineSize - 1]);
}

TEST_F(CacheSimTest, NtStoreInvalidatesCachedCopy) {
  MakeCache(1 << 20, 8, 0);
  char cached = 'o';
  cache_->Store(0, &cached, 1);
  char buf[kCacheLineSize];
  memset(buf, 'w', sizeof(buf));
  cache_->NtStore(0, buf, sizeof(buf));
  char out;
  cache_->Load(0, &out, 1);
  EXPECT_EQ('w', out);
}

TEST_F(CacheSimTest, NtStorePartialLineMergesDirtyCachedBytes) {
  MakeCache(1 << 20, 8, 0);
  // Dirty byte 63 in cache, then nt-store bytes [0, 32) of the same line.
  char cached = 'z';
  cache_->Store(63, &cached, 1);
  char buf[32];
  memset(buf, 'm', sizeof(buf));
  cache_->NtStore(0, buf, sizeof(buf));
  char out[kCacheLineSize];
  cache_->Load(0, out, sizeof(out));
  EXPECT_EQ('m', out[0]);
  EXPECT_EQ('m', out[31]);
  EXPECT_EQ('z', out[63]) << "dirty cached byte must survive the merge";
}

TEST_F(CacheSimTest, SequentialNtStoreGetsHighXPBufferHitRatio) {
  MakeCache(1 << 20, 8, 0);
  std::string big(64 * 1024, 'q');
  cache_->NtStore(0, big.data(), big.size());
  // Sequential 64 B lines: 3 of every 4 combine into an open XPLine.
  EXPECT_GT(device_.counters().WriteHitRatio(), 0.7);
  device_.DrainAll();
  EXPECT_LT(device_.counters().WriteAmplification(), 1.1);
}

TEST_F(CacheSimTest, RandomEvictionAmplifiesWrites) {
  // This is observation Ob1/R1: scattered 64 B dirty evictions miss the
  // XPBuffer and cause RMW on the media.
  MakeCache(64 * kCacheLineSize, 2, 0);  // tiny cache to force evictions
  Random rng(9);
  char buf[kCacheLineSize];
  memset(buf, 'r', sizeof(buf));
  for (int i = 0; i < 4000; i++) {
    uint64_t line = rng.Uniform((16ull << 20) / kCacheLineSize);
    cache_->Store(line * kCacheLineSize, buf, kCacheLineSize);
  }
  cache_->WritebackAll();
  EXPECT_LT(device_.counters().WriteHitRatio(), 0.2);
  EXPECT_GT(device_.counters().WriteAmplification(), 2.0);
}

TEST_F(CacheSimTest, LockedRegionNeverEvictedByOtherTraffic) {
  // 64 KB locked region + tiny normal partition.
  MakeCache((64ull << 10) + 8 * kCacheLineSize, 2, 64ull << 10);
  char buf[kCacheLineSize];
  memset(buf, 'L', sizeof(buf));
  // Populate the locked region.
  for (uint64_t addr = 0; addr < (64ull << 10); addr += kCacheLineSize) {
    cache_->Store(addr, buf, kCacheLineSize);
  }
  EXPECT_EQ((64ull << 10) / kCacheLineSize, cache_->LockedResidentLines());
  // Blast unrelated traffic through the normal partition.
  memset(buf, 'x', sizeof(buf));
  for (uint64_t i = 0; i < 10000; i++) {
    cache_->Store((1ull << 20) + i * kCacheLineSize, buf, kCacheLineSize);
  }
  // Locked lines are all still resident and no locked byte reached media.
  EXPECT_EQ((64ull << 10) / kCacheLineSize, cache_->LockedResidentLines());
  device_.DrainAll();
  EXPECT_NE('L', device_.raw_media()[0]);
}

TEST_F(CacheSimTest, ClflushEvictsEvenLockedLines) {
  MakeCache(1 << 20, 8, 64ull << 10);
  char buf = 'c';
  cache_->Store(0, &buf, 1);
  EXPECT_GE(cache_->LockedResidentLines(), 1u);
  cache_->Clflush(0, 1);
  EXPECT_EQ(0u, cache_->LockedResidentLines());
  device_.DrainAll();
  EXPECT_EQ('c', device_.raw_media()[0]);
}

TEST_F(CacheSimTest, EadrCrashPersistsDirtyLines) {
  MakeCache(1 << 20, 8, 64ull << 10, PersistDomain::kEadr);
  const std::string data = "must survive power failure";
  cache_->Store(100, data.data(), data.size());          // locked region
  cache_->Store(1ull << 19, data.data(), data.size());   // normal region
  cache_->Crash();
  EXPECT_EQ(0, memcmp(device_.raw_media() + 100, data.data(), data.size()));
  EXPECT_EQ(0, memcmp(device_.raw_media() + (1ull << 19), data.data(),
                      data.size()));
  // And the cache is cold afterwards.
  EXPECT_EQ(0u, cache_->LockedResidentLines());
}

TEST_F(CacheSimTest, AdrCrashDropsDirtyLines) {
  MakeCache(1 << 20, 8, 0, PersistDomain::kAdr);
  const std::string data = "will be lost";
  cache_->Store(0, data.data(), data.size());
  cache_->Crash();
  EXPECT_NE(0, memcmp(device_.raw_media(), data.data(), data.size()));
}

TEST_F(CacheSimTest, AdrCrashKeepsFlushedLines) {
  MakeCache(1 << 20, 8, 0, PersistDomain::kAdr);
  const std::string data = "explicitly flushed";
  cache_->Store(0, data.data(), data.size());
  cache_->Clwb(0, data.size());
  cache_->Sfence();
  cache_->Crash();
  EXPECT_EQ(0, memcmp(device_.raw_media(), data.data(), data.size()));
}

TEST_F(CacheSimTest, Atomic64RoundTrip) {
  MakeCache(1 << 20, 8, 64ull << 10);
  cache_->Store64(8, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(0xdeadbeefcafef00dULL, cache_->Load64(8));
}

TEST_F(CacheSimTest, CompareExchangeSuccessAndFailure) {
  MakeCache(1 << 20, 8, 64ull << 10);
  cache_->Store64(16, 42);
  uint64_t expected = 42;
  EXPECT_TRUE(cache_->CompareExchange64(16, &expected, 43));
  EXPECT_EQ(43u, cache_->Load64(16));
  expected = 42;  // stale
  EXPECT_FALSE(cache_->CompareExchange64(16, &expected, 99));
  EXPECT_EQ(43u, expected) << "failed CAS must report the observed value";
  EXPECT_EQ(43u, cache_->Load64(16));
}

TEST_F(CacheSimTest, ConcurrentCasIsLinearizable) {
  MakeCache(1 << 20, 8, 64ull << 10);
  cache_->Store64(0, 0);
  constexpr int kThreads = 8;
  constexpr int kIncrements = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; i++) {
        uint64_t cur = cache_->Load64(0);
        while (!cache_->CompareExchange64(0, &cur, cur + 1)) {
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(static_cast<uint64_t>(kThreads) * kIncrements,
            cache_->Load64(0));
}

TEST_F(CacheSimTest, ConcurrentDisjointStores) {
  MakeCache(1 << 20, 8, 0);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      char buf[kCacheLineSize];
      memset(buf, 'A' + t, sizeof(buf));
      uint64_t base = static_cast<uint64_t>(t) << 18;
      for (int i = 0; i < 1000; i++) {
        cache_->Store(base + static_cast<uint64_t>(i) * kCacheLineSize,
                      buf, kCacheLineSize);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; t++) {
    char out;
    cache_->Load(static_cast<uint64_t>(t) << 18, &out, 1);
    EXPECT_EQ('A' + t, out);
  }
}

// Two NtStores into disjoint halves of one line each merge the other half
// from the cached copy or the device. Unless the line stays locked until
// the device holds the merged line, one store can merge old bytes and
// undo the other. Both the set-associative and the locked region run.
TEST_F(CacheSimTest, ConcurrentHalfLineNtStoresKeepBothHalves) {
  for (uint64_t locked_size : {uint64_t{0}, uint64_t{64} << 10}) {
    MakeCache(1 << 20, 8, locked_size);
    constexpr int kRounds = 20000;
    constexpr size_t kHalf = kCacheLineSize / 2;
    std::barrier round(2);
    int lost = 0;
    auto writer = [&](size_t half) {
      char buf[kHalf];
      for (int r = 0; r < kRounds; r++) {
        memset(buf, 1 + r % 251, kHalf);
        round.arrive_and_wait();
        cache_->NtStore(half * kHalf, buf, kHalf);
        round.arrive_and_wait();
        if (half == 0) {
          char line[kCacheLineSize];
          cache_->Load(0, line, kCacheLineSize);  // refills the cache too
          if (memcmp(line, buf, kHalf) != 0 ||
              memcmp(line + kHalf, buf, kHalf) != 0) {
            lost++;
          }
        }
      }
    };
    std::thread other(writer, 1);
    writer(0);
    other.join();
    EXPECT_EQ(0, lost) << "rounds that lost a half-line update, locked "
                       << locked_size;
  }
}

// A Load racing a full-line NtStore must not refill the cache with the
// line's old bytes after the store invalidated it: the storing thread's
// own Load afterwards has to see what it stored.
TEST_F(CacheSimTest, NtStoreIsNotUndoneByConcurrentLoad) {
  for (uint64_t locked_size : {uint64_t{0}, uint64_t{64} << 10}) {
    MakeCache(1 << 20, 8, locked_size);
    std::atomic<bool> done{false};
    std::thread reader([&] {
      char out[kCacheLineSize];
      while (!done.load(std::memory_order_relaxed)) {
        cache_->Load(0, out, kCacheLineSize);
      }
    });
    int stale = 0;
    char line[kCacheLineSize];
    char out[kCacheLineSize];
    for (int r = 0; r < 20000; r++) {
      memset(line, 1 + r % 251, kCacheLineSize);
      cache_->NtStore(0, line, kCacheLineSize);
      cache_->Load(0, out, kCacheLineSize);
      if (memcmp(line, out, kCacheLineSize) != 0) {
        stale++;
      }
    }
    done.store(true);
    reader.join();
    EXPECT_EQ(0, stale) << "rounds that read stale bytes, locked "
                        << locked_size;
  }
}

}  // namespace
}  // namespace cachekv
