#include "cache/hot_key_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "fault/fail_point.h"
#include "obs/metrics.h"

namespace cachekv {
namespace cache {
namespace {

HotKeyCacheOptions SmallOptions() {
  HotKeyCacheOptions o;
  o.capacity_bytes = 64u << 10;
  o.admit_threshold = 1;  // admit on first miss unless a test overrides
  o.stripes = 4;
  return o;
}

class HotKeyCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FailPointRegistry::Global()->DisableAll();
  }
  void TearDown() override {
    fault::FailPointRegistry::Global()->DisableAll();
  }

  uint64_t Count(const char* name) {
    return registry_.GetCounter(name)->value();
  }

  obs::MetricsRegistry registry_;
};

TEST_F(HotKeyCacheTest, MissThenFillThenHit) {
  HotKeyCache cache(SmallOptions(), &registry_);
  std::string value;
  HotKeyCache::FillToken token;
  EXPECT_FALSE(cache.Lookup("k1", &value, &token));
  EXPECT_TRUE(cache.Insert("k1", "v1", token));
  EXPECT_TRUE(cache.Lookup("k1", &value, nullptr));
  EXPECT_EQ("v1", value);
  EXPECT_EQ(1u, Count("cache.hits"));
  EXPECT_EQ(1u, Count("cache.misses"));
  EXPECT_EQ(1u, Count("cache.admissions"));
  EXPECT_EQ(1u, cache.entries());
}

TEST_F(HotKeyCacheTest, InvalidateErasesAndCounts) {
  HotKeyCache cache(SmallOptions(), &registry_);
  std::string value;
  HotKeyCache::FillToken token;
  ASSERT_FALSE(cache.Lookup("k1", &value, &token));
  ASSERT_TRUE(cache.Insert("k1", "v1", token));
  cache.Invalidate("k1");
  EXPECT_FALSE(cache.Lookup("k1", &value, &token));
  EXPECT_EQ(0u, cache.entries());
  EXPECT_EQ(1u, Count("cache.invalidations"));
}

TEST_F(HotKeyCacheTest, StaleTokenFillIsRejected) {
  // The coherence core: an invalidation between the Lookup miss and the
  // Insert must reject the fill — the value in hand may predate an
  // acked overwrite.
  HotKeyCache cache(SmallOptions(), &registry_);
  std::string value;
  HotKeyCache::FillToken token;
  ASSERT_FALSE(cache.Lookup("k1", &value, &token));
  cache.Invalidate("k1");  // concurrent overwrite commits + invalidates
  EXPECT_FALSE(cache.Insert("k1", "stale", token));
  EXPECT_FALSE(cache.Lookup("k1", &value, nullptr));
  EXPECT_EQ(1u, Count("cache.rejected_fills"));
  EXPECT_EQ(0u, Count("cache.admissions"));
}

TEST_F(HotKeyCacheTest, FreshTokenAfterInvalidationFillsAgain) {
  HotKeyCache cache(SmallOptions(), &registry_);
  std::string value;
  HotKeyCache::FillToken token;
  ASSERT_FALSE(cache.Lookup("k1", &value, &token));
  cache.Invalidate("k1");
  // A new Lookup captures the bumped epoch, so the next fill (of the
  // freshly-read value) is accepted.
  ASSERT_FALSE(cache.Lookup("k1", &value, &token));
  EXPECT_TRUE(cache.Insert("k1", "v2", token));
  EXPECT_TRUE(cache.Lookup("k1", &value, nullptr));
  EXPECT_EQ("v2", value);
}

TEST_F(HotKeyCacheTest, AdmissionFilterRequiresRepeatLookups) {
  HotKeyCacheOptions o = SmallOptions();
  o.admit_threshold = 2;
  HotKeyCache cache(o, &registry_);
  std::string value;
  HotKeyCache::FillToken token;
  // First access: estimated frequency 1 < 2, fill filtered out.
  ASSERT_FALSE(cache.Lookup("one-hit", &value, &token));
  EXPECT_FALSE(cache.Insert("one-hit", "v", token));
  EXPECT_EQ(1u, Count("cache.filtered"));
  EXPECT_EQ(0u, cache.entries());
  // Second access of the same key clears the threshold.
  ASSERT_FALSE(cache.Lookup("one-hit", &value, &token));
  EXPECT_TRUE(cache.Insert("one-hit", "v", token));
  EXPECT_TRUE(cache.Lookup("one-hit", &value, nullptr));
}

TEST_F(HotKeyCacheTest, OversizedValuesAreNeverCached) {
  HotKeyCacheOptions o = SmallOptions();
  o.max_value_bytes = 16;
  HotKeyCache cache(o, &registry_);
  std::string value;
  HotKeyCache::FillToken token;
  ASSERT_FALSE(cache.Lookup("big", &value, &token));
  EXPECT_FALSE(cache.Insert("big", std::string(64, 'x'), token));
  EXPECT_EQ(0u, cache.entries());
}

TEST_F(HotKeyCacheTest, CapacityBoundEvictsLru) {
  HotKeyCacheOptions o;
  o.capacity_bytes = 4096;  // tiny: a handful of entries per stripe
  o.admit_threshold = 1;
  o.stripes = 1;
  HotKeyCache cache(o, &registry_);
  const std::string big_value(400, 'v');
  for (int i = 0; i < 64; i++) {
    std::string key = "key-" + std::to_string(i);
    std::string value;
    HotKeyCache::FillToken token;
    if (!cache.Lookup(key, &value, &token)) {
      cache.Insert(key, big_value, token);
    }
  }
  EXPECT_GT(Count("cache.evictions"), 0u);
  EXPECT_LE(cache.charge_bytes(), o.capacity_bytes + 512);
  EXPECT_GT(cache.entries(), 0u);
}

TEST_F(HotKeyCacheTest, LruKeepsHotEntryUnderEvictionPressure) {
  HotKeyCacheOptions o;
  o.capacity_bytes = 4096;
  o.admit_threshold = 1;
  o.stripes = 1;
  HotKeyCache cache(o, &registry_);
  std::string value;
  HotKeyCache::FillToken token;
  ASSERT_FALSE(cache.Lookup("hot", &value, &token));
  ASSERT_TRUE(cache.Insert("hot", "hot-value", token));
  for (int i = 0; i < 32; i++) {
    // Touch the hot key between cold fills so it stays at the LRU head.
    ASSERT_TRUE(cache.Lookup("hot", &value, nullptr)) << i;
    std::string key = "cold-" + std::to_string(i);
    if (!cache.Lookup(key, &value, &token)) {
      cache.Insert(key, std::string(300, 'c'), token);
    }
  }
  EXPECT_TRUE(cache.Lookup("hot", &value, nullptr));
  EXPECT_EQ("hot-value", value);
}

// Two 100 B entries fill a 1,024 B stripe; growing one to 900 B must
// evict the other, whichever path grows it.
HotKeyCacheOptions TwoEntryOptions() {
  HotKeyCacheOptions o;
  o.capacity_bytes = 1024;
  o.admit_threshold = 1;
  o.stripes = 1;
  return o;
}

TEST_F(HotKeyCacheTest, FillThatGrowsAnEntryEvictsFromLruTail) {
  HotKeyCache cache(TwoEntryOptions(), &registry_);
  std::string value;
  HotKeyCache::FillToken token, racing;
  ASSERT_FALSE(cache.Lookup("a", &value, &token));
  ASSERT_TRUE(cache.Insert("a", std::string(100, 'a'), token));
  // Two readers miss "b"; the second fill carries a newer, larger value.
  ASSERT_FALSE(cache.Lookup("b", &value, &token));
  ASSERT_FALSE(cache.Lookup("b", &value, &racing));
  ASSERT_TRUE(cache.Insert("b", std::string(100, 'b'), token));
  ASSERT_TRUE(cache.Insert("b", std::string(900, 'B'), racing, 2));
  EXPECT_LE(cache.charge_bytes(), 1024u);
  EXPECT_EQ(1u, cache.entries());
  EXPECT_FALSE(cache.Lookup("a", &value, nullptr));
  ASSERT_TRUE(cache.Lookup("b", &value, nullptr));
  EXPECT_EQ(std::string(900, 'B'), value);
  EXPECT_EQ(1u, Count("cache.evictions"));
}

TEST_F(HotKeyCacheTest, RefreshThatGrowsAnEntryEvictsFromLruTail) {
  HotKeyCache cache(TwoEntryOptions(), &registry_);
  std::string value;
  HotKeyCache::FillToken token;
  for (const char* key : {"a", "b"}) {
    ASSERT_FALSE(cache.Lookup(key, &value, &token));
    ASSERT_TRUE(cache.Insert(key, std::string(100, 'v'), token));
  }
  cache.Refresh("a", std::string(900, 'A'), 2);
  EXPECT_LE(cache.charge_bytes(), 1024u);
  EXPECT_EQ(1u, cache.entries());
  EXPECT_FALSE(cache.Lookup("b", &value, nullptr));
  ASSERT_TRUE(cache.Lookup("a", &value, nullptr));
  EXPECT_EQ(std::string(900, 'A'), value);
  EXPECT_EQ(1u, Count("cache.refreshes"));
}

TEST_F(HotKeyCacheTest, RefreshNeverReplacesANewerVersion) {
  // Two writers' refreshes can arrive out of commit order: the entry
  // keeps the higher sequence whichever lands last.
  HotKeyCache cache(SmallOptions(), &registry_);
  std::string value;
  HotKeyCache::FillToken token;
  ASSERT_FALSE(cache.Lookup("k", &value, &token));
  ASSERT_TRUE(cache.Insert("k", "v5", token, 5));
  cache.Refresh("k", "v7", 7);
  cache.Refresh("k", "v6", 6);
  ASSERT_TRUE(cache.Lookup("k", &value, nullptr));
  EXPECT_EQ("v7", value);
  EXPECT_EQ(1u, Count("cache.refreshes"));
  // Both writes bumped the guard, refreshed or not.
  EXPECT_EQ(2u, Count("cache.invalidations"));
}

TEST_F(HotKeyCacheTest, FillNeverReplacesANewerVersion) {
  HotKeyCache cache(SmallOptions(), &registry_);
  std::string value;
  HotKeyCache::FillToken older, newer;
  ASSERT_FALSE(cache.Lookup("k", &value, &older));
  ASSERT_FALSE(cache.Lookup("k", &value, &newer));
  ASSERT_TRUE(cache.Insert("k", "v2", newer, 2));
  EXPECT_TRUE(cache.Insert("k", "v1", older, 1));
  ASSERT_TRUE(cache.Lookup("k", &value, nullptr));
  EXPECT_EQ("v2", value);
}

TEST_F(HotKeyCacheTest, RefreshOfAnUncachedKeyAdmitsNothing) {
  HotKeyCache cache(SmallOptions(), &registry_);
  cache.Refresh("k", "v", 1);
  std::string value;
  EXPECT_FALSE(cache.Lookup("k", &value, nullptr));
  EXPECT_EQ(0u, cache.entries());
  EXPECT_EQ(0u, cache.charge_bytes());
  EXPECT_EQ(0u, Count("cache.refreshes"));
  EXPECT_EQ(1u, Count("cache.invalidations"));
}

TEST_F(HotKeyCacheTest, RefreshBumpsTheGuardSoAStaleFillIsRejected) {
  HotKeyCache cache(SmallOptions(), &registry_);
  std::string value;
  HotKeyCache::FillToken token;
  ASSERT_FALSE(cache.Lookup("k", &value, &token));
  cache.Refresh("k", "v2", 2);  // a write commits between miss and fill
  EXPECT_FALSE(cache.Insert("k", "v1", token));
  EXPECT_FALSE(cache.Lookup("k", &value, nullptr));
  EXPECT_EQ(1u, Count("cache.rejected_fills"));
}

TEST_F(HotKeyCacheTest, OversizedRefreshErasesTheEntry) {
  HotKeyCacheOptions o = SmallOptions();
  o.max_value_bytes = 16;
  HotKeyCache cache(o, &registry_);
  std::string value;
  HotKeyCache::FillToken token;
  ASSERT_FALSE(cache.Lookup("k", &value, &token));
  ASSERT_TRUE(cache.Insert("k", "small", token));
  cache.Refresh("k", std::string(64, 'x'), 2);
  EXPECT_FALSE(cache.Lookup("k", &value, nullptr));
  EXPECT_EQ(0u, cache.entries());
  EXPECT_EQ(0u, cache.charge_bytes());
}

TEST_F(HotKeyCacheTest, ClearDropsEverythingAndGuardsInFlightFills) {
  HotKeyCache cache(SmallOptions(), &registry_);
  std::string value;
  HotKeyCache::FillToken t1, t2;
  ASSERT_FALSE(cache.Lookup("a", &value, &t1));
  ASSERT_TRUE(cache.Insert("a", "va", t1));
  ASSERT_FALSE(cache.Lookup("b", &value, &t2));
  cache.Clear();
  EXPECT_EQ(0u, cache.entries());
  EXPECT_EQ(0u, cache.charge_bytes());
  // The pre-Clear token is stale for every key.
  EXPECT_FALSE(cache.Insert("b", "vb", t2));
}

TEST_F(HotKeyCacheTest, PoisonFailPointDropsFills) {
  HotKeyCache cache(SmallOptions(), &registry_);
  ASSERT_TRUE(fault::FailPointRegistry::Global()
                  ->Enable("cache.poison", "always,error:io")
                  .ok());
  std::string value;
  HotKeyCache::FillToken token;
  ASSERT_FALSE(cache.Lookup("k", &value, &token));
  EXPECT_FALSE(cache.Insert("k", "v", token));
  EXPECT_EQ(0u, cache.entries());
  fault::FailPointRegistry::Global()->DisableAll();
  ASSERT_FALSE(cache.Lookup("k", &value, &token));
  EXPECT_TRUE(cache.Insert("k", "v", token));
}

TEST_F(HotKeyCacheTest, InvalidateFailPointErrorsAreIgnored) {
  HotKeyCache cache(SmallOptions(), &registry_);
  std::string value;
  HotKeyCache::FillToken token;
  ASSERT_FALSE(cache.Lookup("k", &value, &token));
  ASSERT_TRUE(cache.Insert("k", "v", token));
  // Even an error-armed cache.invalidate must not skip the erase: the
  // protocol depends on invalidation being unconditional.
  ASSERT_TRUE(fault::FailPointRegistry::Global()
                  ->Enable("cache.invalidate", "always,error:io")
                  .ok());
  cache.Invalidate("k");
  EXPECT_FALSE(cache.Lookup("k", &value, nullptr));
  EXPECT_EQ(0u, cache.entries());
}

TEST_F(HotKeyCacheTest, ConcurrentFillInvalidateSmoke) {
  HotKeyCacheOptions o = SmallOptions();
  o.capacity_bytes = 16u << 10;
  HotKeyCache cache(o, &registry_);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 4000; i++) {
        const std::string key = "k" + std::to_string((i * 7 + t) % 31);
        if (t == 0 && i % 3 == 0) {
          cache.Invalidate(key);
          continue;
        }
        std::string value;
        HotKeyCache::FillToken token;
        if (!cache.Lookup(key, &value, &token)) {
          cache.Insert(key, "v-" + key, token);
        } else {
          ASSERT_EQ("v-" + key, value);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
}

}  // namespace
}  // namespace cache
}  // namespace cachekv
