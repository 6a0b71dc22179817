// Differential test: the same randomized operation history is applied to
// every KV engine in the repository and to a std::map reference model;
// all engines must agree with the model on every probe. This pins down
// semantic drift between CacheKV and the baselines.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/novelsm.h"
#include "baselines/slmdb.h"
#include "core/db.h"
#include "pmem/pmem_env.h"
#include "util/random.h"

namespace cachekv {
namespace {

struct EngineUnderTest {
  std::string name;
  std::unique_ptr<PmemEnv> env;
  std::unique_ptr<KVStore> store;
};

std::vector<EngineUnderTest> MakeAllEngines() {
  std::vector<EngineUnderTest> engines;

  {
    EngineUnderTest e;
    e.name = "CacheKV";
    EnvOptions eo;
    eo.pmem_capacity = 512ull << 20;
    eo.cat_locked_bytes = 4ull << 20;
    eo.latency.scale = 0;
    e.env = std::make_unique<PmemEnv>(eo);
    CacheKVOptions opts;
    opts.pool_bytes = 4ull << 20;
    opts.sub_memtable_bytes = 512ull << 10;
    opts.min_sub_memtable_bytes = 128ull << 10;
    opts.imm_zone_flush_threshold = 2ull << 20;
    std::unique_ptr<DB> db;
    EXPECT_TRUE(DB::Open(e.env.get(), opts, false, &db).ok());
    e.store = std::move(db);
    engines.push_back(std::move(e));
  }
  {
    EngineUnderTest e;
    e.name = "NoveLSM";
    EnvOptions eo;
    eo.pmem_capacity = 512ull << 20;
    eo.latency.scale = 0;
    e.env = std::make_unique<PmemEnv>(eo);
    NoveLsmOptions opts;
    opts.pmem_memtable_bytes = 2ull << 20;
    std::unique_ptr<NoveLsmStore> s;
    EXPECT_TRUE(NoveLsmStore::Open(e.env.get(), opts, &s).ok());
    e.store = std::move(s);
    engines.push_back(std::move(e));
  }
  {
    EngineUnderTest e;
    e.name = "SLM-DB";
    EnvOptions eo;
    eo.pmem_capacity = 512ull << 20;
    eo.latency.scale = 0;
    e.env = std::make_unique<PmemEnv>(eo);
    SlmDbOptions opts;
    opts.pmem_memtable_bytes = 2ull << 20;
    opts.chunk_bytes = 1ull << 20;
    std::unique_ptr<SlmDbStore> s;
    EXPECT_TRUE(SlmDbStore::Open(e.env.get(), opts, &s).ok());
    e.store = std::move(s);
    engines.push_back(std::move(e));
  }
  return engines;
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

// Runs a bounded forward scan on every engine and compares it entry by
// entry against the same scan over the model.
void CheckScansAgainstModel(std::vector<EngineUnderTest>& engines,
                            const std::map<std::string, std::string>& model,
                            const std::string& start, size_t limit,
                            int op_index) {
  std::vector<std::pair<std::string, std::string>> expected;
  for (auto it = start.empty() ? model.begin() : model.lower_bound(start);
       it != model.end() && expected.size() < limit; ++it) {
    expected.emplace_back(it->first, it->second);
  }
  for (auto& e : engines) {
    std::vector<std::pair<std::string, std::string>> got;
    Status s = e.store->Scan(start, limit, &got);
    ASSERT_TRUE(s.ok()) << e.name << " scan from '" << start << "' op "
                        << op_index << ": " << s.ToString();
    ASSERT_EQ(expected.size(), got.size())
        << e.name << " scan from '" << start << "' op " << op_index;
    for (size_t i = 0; i < expected.size(); i++) {
      ASSERT_EQ(expected[i].first, got[i].first)
          << e.name << " scan entry " << i << " op " << op_index;
      ASSERT_EQ(expected[i].second, got[i].second)
          << e.name << " scan entry " << i << " key " << got[i].first;
    }
  }
}

TEST_P(DifferentialTest, AllEnginesAgreeWithModel) {
  const uint64_t seed = GetParam();
  auto engines = MakeAllEngines();
  ASSERT_EQ(3u, engines.size());

  std::map<std::string, std::string> model;
  Random rng(seed);
  const int kOps = 15000;
  const int kKeySpace = 1200;

  for (int i = 0; i < kOps; i++) {
    std::string k = "key" + std::to_string(rng.Uniform(kKeySpace));
    const uint32_t dice = rng.Uniform(10);
    if (dice < 2) {
      model.erase(k);
      for (auto& e : engines) {
        ASSERT_TRUE(e.store->Delete(k).ok()) << e.name;
      }
    } else if (dice < 9) {
      std::string v = "v" + std::to_string(i) + "-" +
                      std::string(rng.Uniform(100), 'x');
      model[k] = v;
      for (auto& e : engines) {
        ASSERT_TRUE(e.store->Put(k, v).ok()) << e.name;
      }
    } else {
      // Probe while running.
      auto it = model.find(k);
      for (auto& e : engines) {
        std::string got;
        Status s = e.store->Get(k, &got);
        if (it == model.end()) {
          ASSERT_TRUE(s.IsNotFound())
              << e.name << " key " << k << " op " << i << ": "
              << s.ToString();
        } else {
          ASSERT_TRUE(s.ok())
              << e.name << " key " << k << " op " << i << ": "
              << s.ToString();
          ASSERT_EQ(it->second, got) << e.name << " key " << k;
        }
      }
    }

    if (i % 3000 == 2999) {
      // Mixed put/delete batch through the ApplyBatch interface (DB
      // routes it to MultiPut; the baselines use the sequential
      // default) — the model applies the same ops in the same order.
      std::vector<KVStore::BatchOp> batch;
      for (int b = 0; b < 8; b++) {
        KVStore::BatchOp op;
        op.key = "key" + std::to_string(rng.Uniform(kKeySpace));
        op.is_delete = rng.Uniform(4) == 0;
        if (!op.is_delete) {
          op.value = "batch" + std::to_string(i) + "-" +
                     std::to_string(b);
        }
        batch.push_back(std::move(op));
      }
      for (const auto& op : batch) {
        if (op.is_delete) {
          model.erase(op.key);
        } else {
          model[op.key] = op.value;
        }
      }
      for (auto& e : engines) {
        ASSERT_TRUE(e.store->ApplyBatch(batch).ok()) << e.name;
      }
      // Forward scans while the engines still hold unflushed state:
      // from the start of the keyspace and from a random key.
      CheckScansAgainstModel(engines, model, "", 25, i);
      CheckScansAgainstModel(engines, model,
                             "key" + std::to_string(rng.Uniform(kKeySpace)),
                             40, i);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }

  // Final full sweep after quiescing background work.
  for (auto& e : engines) {
    ASSERT_TRUE(e.store->WaitIdle().ok()) << e.name;
  }
  for (int i = 0; i < kKeySpace; i++) {
    std::string k = "key" + std::to_string(i);
    auto it = model.find(k);
    for (auto& e : engines) {
      std::string got;
      Status s = e.store->Get(k, &got);
      if (it == model.end()) {
        ASSERT_TRUE(s.IsNotFound()) << e.name << " key " << k;
      } else {
        ASSERT_TRUE(s.ok()) << e.name << " key " << k << " "
                            << s.ToString();
        ASSERT_EQ(it->second, got) << e.name << " key " << k;
      }
    }
  }

  // Full-range scan over the quiesced stores: every engine must produce
  // exactly the model's live entries, in order.
  CheckScansAgainstModel(engines, model, "", model.size() + 16, kOps);
  CheckScansAgainstModel(engines, model, "key5", model.size() + 16, kOps);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Values(1, 42, 0xbeef, 20260707));

}  // namespace
}  // namespace cachekv
