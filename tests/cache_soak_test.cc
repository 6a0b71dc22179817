// Seeded multi-thread soak on HotKeyCache itself (no server): N writer
// threads overwrite a shared key set while M reader threads run the
// real serving protocol (Lookup -> shadow-store read -> token fill)
// with zipfian-skewed keys, plus a chaos thread applying Clear() and
// random invalidations. The shadow store is an atomic version array
// standing in for the DB, each version its own sequence number; the
// writer mirrors the server's ordering (commit, refresh, then publish
// the ack) and every reader asserts
// the cache never serves a version below the acked floor it observed
// before its Lookup.
//
// This is the TSan target: the invariant plus the data-race coverage of
// stripes, guard epochs, the count-min sketch, and the aging pass all
// under maximal contention.

#include "cache/hot_key_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "fault/fail_point.h"
#include "obs/metrics.h"
#include "util/zipfian.h"

namespace cachekv {
namespace cache {
namespace {

constexpr int kKeys = 256;
constexpr int kWriters = 3;
constexpr int kReaders = 4;
constexpr int kOpsPerWriter = 20000;
constexpr int kOpsPerReader = 40000;
constexpr uint64_t kSeed = 20240611;

std::string KeyName(int k) { return "soak-" + std::to_string(k); }

TEST(HotKeyCacheSoakTest, ZipfianReadersNeverSeeStaleVersions) {
  fault::FailPointRegistry::Global()->DisableAll();
  HotKeyCacheOptions options;
  options.capacity_bytes = 16u << 10;  // forces constant eviction churn
  options.admit_threshold = 1;
  options.stripes = 4;
  obs::MetricsRegistry registry;
  HotKeyCache cache(options, &registry);

  // The shadow store: db[k] is the committed version, acked[k] the
  // version whose "client ack" has been published. Keys are partitioned
  // across writers so per-key versions are monotone in commit order.
  std::vector<std::atomic<uint64_t>> db(kKeys);
  std::vector<std::atomic<uint64_t>> acked(kKeys);
  for (int k = 0; k < kKeys; k++) {
    db[static_cast<size_t>(k)].store(0);
    acked[static_cast<size_t>(k)].store(0);
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> stale{0};
  std::atomic<uint64_t> hits{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([&, w] {
      Random rng(kSeed + static_cast<uint64_t>(w) * 131);
      for (int i = 0; i < kOpsPerWriter; i++) {
        const int k =
            w + static_cast<int>(rng.Uniform(kKeys / kWriters)) * kWriters;
        const uint64_t v =
            db[static_cast<size_t>(k)].load(std::memory_order_relaxed) + 1;
        // The server's write ordering: commit, refresh, ack.
        db[static_cast<size_t>(k)].store(v, std::memory_order_release);
        cache.Refresh(KeyName(k), std::to_string(v), v);
        acked[static_cast<size_t>(k)].store(v, std::memory_order_release);
      }
    });
  }

  for (int r = 0; r < kReaders; r++) {
    threads.emplace_back([&, r] {
      ZipfianGenerator zipf(kKeys, 0.99, kSeed + static_cast<uint64_t>(r));
      for (int i = 0; i < kOpsPerReader; i++) {
        const int k = static_cast<int>(zipf.Next());
        const std::string key = KeyName(k);
        const uint64_t floor_ver =
            acked[static_cast<size_t>(k)].load(std::memory_order_acquire);
        std::string value;
        HotKeyCache::FillToken token;
        if (cache.Lookup(key, &value, &token)) {
          hits.fetch_add(1, std::memory_order_relaxed);
          const uint64_t got = strtoull(value.c_str(), nullptr, 10);
          if (got < floor_ver) {
            stale.fetch_add(1);
            ADD_FAILURE() << key << ": cache served version " << got
                          << " after version " << floor_ver
                          << " was acknowledged";
          }
        } else {
          // The serving path's miss branch: read the store, then fill
          // under the token. A racing write rejects the fill.
          const uint64_t v =
              db[static_cast<size_t>(k)].load(std::memory_order_acquire);
          cache.Insert(key, std::to_string(v), token, v);
        }
      }
    });
  }

  // Chaos: Clear() wipes everything (bumping every guard epoch) while
  // fills are in flight; scattered invalidations of keys nobody is
  // writing keep the guard arrays busy.
  threads.emplace_back([&] {
    Random rng(kSeed * 31);
    int spins = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      if (++spins % 64 == 0) {
        cache.Clear();
      } else {
        cache.Invalidate(KeyName(static_cast<int>(rng.Uniform(kKeys))));
      }
      std::this_thread::yield();
    }
  });

  for (size_t i = 0; i + 1 < threads.size(); i++) threads[i].join();
  stop.store(true);
  threads.back().join();

  EXPECT_EQ(0u, stale.load());
  // The soak must actually exercise the serving path, not degrade into
  // all-miss: the zipfian head guarantees repeat hits between overwrites.
  EXPECT_GT(hits.load(), 1000u);
  EXPECT_GT(registry.GetCounter("cache.evictions")->value(), 0u);
  EXPECT_GT(registry.GetCounter("cache.invalidations")->value(), 0u);
  EXPECT_GT(registry.GetCounter("cache.refreshes")->value(), 0u);
}

TEST(HotKeyCacheSoakTest, AdmissionSketchSurvivesConcurrentAging) {
  // Hammer the sketch hard enough that the halving pass runs many times
  // concurrently with touches; TSan validates the atomics, the test
  // validates the filter still admits the hot head afterwards.
  HotKeyCacheOptions options;
  options.capacity_bytes = 256u << 10;
  options.admit_threshold = 4;
  options.stripes = 2;
  obs::MetricsRegistry registry;
  HotKeyCache cache(options, &registry);

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&, t] {
      ZipfianGenerator zipf(4096, 0.99, kSeed + static_cast<uint64_t>(t));
      for (int i = 0; i < 100000; i++) {
        const std::string key = "age-" + std::to_string(zipf.Next());
        std::string value;
        HotKeyCache::FillToken token;
        if (!cache.Lookup(key, &value, &token)) {
          cache.Insert(key, "v", token);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // After ~400k touches the hottest ranks must sit in the cache: their
  // sketch estimate stayed above the threshold through every aging pass.
  std::string value;
  EXPECT_TRUE(cache.Lookup("age-0", &value, nullptr));
  EXPECT_GT(registry.GetCounter("cache.admissions")->value(), 0u);
  EXPECT_GT(registry.GetCounter("cache.filtered")->value(), 0u);
}

}  // namespace
}  // namespace cache
}  // namespace cachekv
