#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/db.h"
#include "core/flushed_zone.h"
#include "core/sub_memtable.h"
#include "lsm/lsm_engine.h"
#include "lsm/memtable.h"
#include "pmem/meta_layout.h"
#include "pmem/pmem_env.h"
#include "util/random.h"

namespace cachekv {
namespace {

EnvOptions TestEnv(uint64_t cat = 0) {
  EnvOptions o;
  o.pmem_capacity = 256ull << 20;
  o.llc_capacity = 16ull << 20;
  o.cat_locked_bytes = cat;
  o.latency.scale = 0;
  return o;
}

LsmOptions SmallLsm() {
  LsmOptions o;
  o.l0_compaction_trigger = 3;
  o.base_level_bytes = 1 << 20;
  o.target_file_size = 256 << 10;
  o.background_compaction = false;
  return o;
}

// Overwrites `len` bytes at `addr` with junk, through the nt path so the
// damage is durable.
void Clobber(PmemEnv* env, uint64_t addr, size_t len) {
  std::string junk(len, '\x5a');
  env->NtStore(addr, junk.data(), junk.size());
  env->Sfence();
}

TEST(FailureInjectionTest, ManifestSingleSlotCorruptionFallsBack) {
  PmemEnv env(TestEnv());
  {
    LsmEngine engine(&env, SmallLsm(), MetaLayout::ManifestBase(&env));
    ASSERT_TRUE(engine.Open(false).ok());
    MemTable mem;
    SequenceNumber seq = 0;
    for (int batch = 0; batch < 3; batch++) {
      MemTable m;
      for (int i = 0; i < 50; i++) {
        m.Add(++seq, kTypeValue, Slice("key" + std::to_string(i)),
              Slice("b" + std::to_string(batch)));
      }
      std::unique_ptr<Iterator> iter(m.NewIterator());
      ASSERT_TRUE(engine.WriteL0Tables(iter.get()).ok());
    }
  }
  // Corrupt the slot holding the NEWEST manifest epoch. Epochs increment
  // per install; the latest lives at slot (epoch % 2). Clobber both
  // headers' crc bytes in turn and verify open still succeeds using the
  // surviving slot (losing at most the last install).
  env.SimulateCrash();
  Clobber(&env, MetaLayout::ManifestBase(&env) + 4, 4);  // slot 0 crc
  LsmEngine engine(&env, SmallLsm(), MetaLayout::ManifestBase(&env));
  Status s = engine.Open(true);
  ASSERT_TRUE(s.ok()) << s.ToString();
  // The engine recovered *something* consistent: at most one batch lost.
  std::string value;
  bool deleted;
  Status g = engine.Get(Slice("key0"), kMaxSequenceNumber, &value,
                        &deleted);
  EXPECT_TRUE(g.ok()) << g.ToString();
}

TEST(FailureInjectionTest, ManifestBothSlotsCorruptStartsEmpty) {
  PmemEnv env(TestEnv());
  {
    LsmEngine engine(&env, SmallLsm(), MetaLayout::ManifestBase(&env));
    ASSERT_TRUE(engine.Open(false).ok());
    MemTable m;
    m.Add(1, kTypeValue, Slice("k"), Slice("v"));
    std::unique_ptr<Iterator> iter(m.NewIterator());
    ASSERT_TRUE(engine.WriteL0Tables(iter.get()).ok());
  }
  env.SimulateCrash();
  Clobber(&env, MetaLayout::ManifestBase(&env), 64);
  Clobber(&env,
          MetaLayout::ManifestBase(&env) + MetaLayout::kManifestSlotSize,
          64);
  LsmEngine engine(&env, SmallLsm(), MetaLayout::ManifestBase(&env));
  Status s = engine.Open(true);
  ASSERT_TRUE(s.ok()) << s.ToString();
  std::string value;
  bool deleted;
  EXPECT_TRUE(engine.Get(Slice("k"), kMaxSequenceNumber, &value, &deleted)
                  .IsNotFound())
      << "with no valid manifest the engine must come up empty, not crash";
}

TEST(FailureInjectionTest, CorruptSSTableBytesNeverCrash) {
  PmemEnv env(TestEnv());
  LsmEngine engine(&env, SmallLsm(), MetaLayout::ManifestBase(&env));
  ASSERT_TRUE(engine.Open(false).ok());
  MemTable m;
  SequenceNumber seq = 0;
  for (int i = 0; i < 2000; i++) {
    m.Add(++seq, kTypeValue, Slice("key" + std::to_string(i)),
          Slice("value" + std::to_string(i)));
  }
  std::unique_ptr<Iterator> iter(m.NewIterator());
  ASSERT_TRUE(engine.WriteL0Tables(iter.get()).ok());

  // Flip a few bytes inside the first table's data area (not the
  // footer: the reader caches index/filter at open). Every Get must
  // return a Status — never crash — and the per-block checksums must
  // flag the damaged block as Corruption instead of serving bad data.
  VersionRef v = engine.CurrentVersion();
  ASSERT_FALSE(v->levels[0].empty());
  const TableRef& t = v->levels[0][0];
  Random rng(13);
  for (int flips = 0; flips < 3; flips++) {
    uint64_t off = rng.Uniform(t->meta.file_size > 1024
                                   ? t->meta.file_size / 2
                                   : 1);
    Clobber(&env, t->meta.region_offset + off, 1);
  }
  int ok_count = 0, corrupt = 0, not_found = 0;
  for (int i = 0; i < 2000; i++) {
    std::string value;
    bool deleted;
    Status s = engine.Get(Slice("key" + std::to_string(i)),
                          kMaxSequenceNumber, &value, &deleted);
    if (s.ok()) {
      ok_count++;
      EXPECT_EQ("value" + std::to_string(i), value)
          << "a checksummed read must never return wrong bytes";
    } else if (s.IsCorruption()) {
      corrupt++;
    } else {
      not_found++;
    }
  }
  EXPECT_EQ(2000, ok_count + corrupt + not_found);
  EXPECT_GT(corrupt, 0) << "the flipped block must be detected";
  SUCCEED() << ok_count << " ok, " << corrupt << " corrupt, "
            << not_found << " not found";
}

TEST(FailureInjectionTest, ZoneRegistryCorruptionRecoversOtherSlot) {
  PmemEnv env(TestEnv(4ull << 20));
  CacheKVOptions opts;
  opts.pool_bytes = 4ull << 20;
  opts.sub_memtable_bytes = 512ull << 10;
  opts.min_sub_memtable_bytes = 128ull << 10;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(&env, opts, false, &db).ok());
    std::string value(300, 'z');
    for (int i = 0; i < 10000; i++) {
      ASSERT_TRUE(db->Put("key" + std::to_string(i), value).ok());
    }
    ASSERT_TRUE(db->WaitIdle().ok());
  }
  env.SimulateCrash();
  // Corrupt one registry slot; recovery must still come up (using the
  // other slot or, at worst, replaying the epoch before it).
  Clobber(&env, MetaLayout::ZoneRegistryBase(&env) + 4, 4);
  std::unique_ptr<DB> db;
  Status s = DB::Open(&env, opts, true, &db);
  ASSERT_TRUE(s.ok()) << s.ToString();
  std::string got;
  Status g = db->Get("key1", &got);
  EXPECT_TRUE(g.ok() || g.IsNotFound()) << g.ToString();
}

TEST(FailureInjectionTest, RepeatedCrashesDuringLoad) {
  PmemEnv env(TestEnv(4ull << 20));
  CacheKVOptions opts;
  opts.pool_bytes = 4ull << 20;
  opts.sub_memtable_bytes = 512ull << 10;
  opts.min_sub_memtable_bytes = 128ull << 10;
  opts.imm_zone_flush_threshold = 1ull << 20;

  int written = 0;
  for (int round = 0; round < 5; round++) {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(&env, opts, round > 0, &db).ok()) << round;
    for (int i = 0; i < 4000; i++) {
      ASSERT_TRUE(db->Put("key" + std::to_string(written),
                          "v" + std::to_string(written))
                      .ok());
      written++;
    }
    db.reset();
    env.SimulateCrash();
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(&env, opts, true, &db).ok());
  Random rng(3);
  for (int probe = 0; probe < 500; probe++) {
    int i = rng.Uniform(written);
    std::string got;
    ASSERT_TRUE(db->Get("key" + std::to_string(i), &got).ok()) << i;
    EXPECT_EQ("v" + std::to_string(i), got);
  }
}

// --- Crash-point sweep -----------------------------------------------------
//
// The two sweeps below parameterize Clobber over a grid of offsets and
// lengths in (a) the staged-zone table data and (b) the sub-MemTable pool
// headers. The contract under test: after a crash plus arbitrary damage at
// a grid point, reopening the store either restores every committed key or
// fails with a Corruption status — it must never open successfully while
// silently dropping or mangling committed data.

CacheKVOptions SweepOptions() {
  CacheKVOptions opts;
  opts.pool_bytes = 4ull << 20;
  opts.sub_memtable_bytes = 512ull << 10;
  opts.min_sub_memtable_bytes = 128ull << 10;
  // Keep flushed tables staged in the zone so the sweep has zone data to
  // damage (no zone->L0 migration).
  opts.imm_zone_flush_threshold = 256ull << 20;
  return opts;
}

// Reopens with recovery and checks the all-or-clean-error contract.
void ExpectRestoreOrCorruption(
    PmemEnv* env, const CacheKVOptions& opts,
    const std::map<std::string, std::string>& committed) {
  std::unique_ptr<DB> db;
  Status s = DB::Open(env, opts, true, &db);
  if (!s.ok()) {
    EXPECT_TRUE(s.IsCorruption())
        << "damage must surface as Corruption, got: " << s.ToString();
    return;
  }
  for (const auto& [key, value] : committed) {
    std::string got;
    Status g = db->Get(key, &got);
    ASSERT_TRUE(g.ok())
        << "open succeeded but committed key '" << key
        << "' was silently dropped: " << g.ToString();
    ASSERT_EQ(value, got) << "wrong bytes for committed key '" << key
                          << "'";
  }
}

// Param: (position permille within the table's data, clobber length).
class ZoneDataClobberSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ZoneDataClobberSweep, RestoresOrReportsCorruption) {
  const auto [pos_pct, len] = GetParam();
  PmemEnv env(TestEnv(4ull << 20));
  CacheKVOptions opts = SweepOptions();
  std::map<std::string, std::string> committed;
  std::vector<FlushedTable> tables;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(&env, opts, false, &db).ok());
    for (int i = 0; i < 8000; i++) {
      std::string key = "key" + std::to_string(i);
      std::string value =
          "val" + std::to_string(i) + std::string(280, 'a' + (i % 26));
      ASSERT_TRUE(db->Put(key, value).ok()) << i;
      committed[key] = value;
    }
    ASSERT_TRUE(db->WaitIdle().ok());
    tables = db->zone()->SnapshotTables();
  }
  ASSERT_FALSE(tables.empty())
      << "the workload must stage at least one table in the zone";
  env.SimulateCrash();

  const FlushedTable& t = tables[tables.size() / 2];
  ASSERT_GT(t.data_tail, static_cast<uint64_t>(len));
  const uint64_t pos = (t.data_tail - len) * pos_pct / 100;
  Clobber(&env, t.region_offset + SubMemTable::kDataOffset + pos, len);

  ExpectRestoreOrCorruption(&env, opts, committed);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ZoneDataClobberSweep,
    ::testing::Combine(::testing::Values(0, 50, 95),
                       ::testing::Values(1, 64, 300)));

TEST(FailureInjectionTest, ZoneClobberPastDataTailStillRestores) {
  PmemEnv env(TestEnv(4ull << 20));
  CacheKVOptions opts = SweepOptions();
  std::map<std::string, std::string> committed;
  std::vector<FlushedTable> tables;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(&env, opts, false, &db).ok());
    for (int i = 0; i < 8000; i++) {
      std::string key = "key" + std::to_string(i);
      std::string value = "val" + std::to_string(i) + std::string(280, 'p');
      ASSERT_TRUE(db->Put(key, value).ok()) << i;
      committed[key] = value;
    }
    ASSERT_TRUE(db->WaitIdle().ok());
    tables = db->zone()->SnapshotTables();
  }
  ASSERT_FALSE(tables.empty());
  env.SimulateCrash();

  // Damage bytes in a staged region but past the committed data tail:
  // the CRC does not cover them, so recovery must come up with every key.
  bool clobbered = false;
  for (const auto& t : tables) {
    const uint64_t used = SubMemTable::kDataOffset + t.data_tail;
    if (t.region_size >= used + 8) {
      Clobber(&env, t.region_offset + used, 8);
      clobbered = true;
      break;
    }
  }
  ASSERT_TRUE(clobbered) << "no staged region had slack past its tail";

  std::unique_ptr<DB> db;
  Status s = DB::Open(&env, opts, true, &db);
  ASSERT_TRUE(s.ok()) << s.ToString();
  for (const auto& [key, value] : committed) {
    std::string got;
    ASSERT_TRUE(db->Get(key, &got).ok()) << key;
    ASSERT_EQ(value, got) << key;
  }
}

// Param: (pool slot index, byte offset within the header, clobber length).
// Offset 0 holds the packed {counter|state|tail} word (low 3 bytes are the
// tail, bytes 5..7 the counter's high bits), offset 16 the slot-size word
// that the recovery walk uses to parse the pool layout.
class PoolHeaderClobberSweep
    : public ::testing::TestWithParam<std::tuple<int, std::pair<int, int>>> {
};

TEST_P(PoolHeaderClobberSweep, RestoresOrReportsCorruption) {
  const auto [slot_index, point] = GetParam();
  const auto [hdr_off, len] = point;
  PmemEnv env(TestEnv(4ull << 20));
  CacheKVOptions opts = SweepOptions();
  std::map<std::string, std::string> committed;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(&env, opts, false, &db).ok());
    // Few enough writes that they stay in the active sub-MemTable: the
    // clobbered headers guard data that only exists in the pool.
    for (int i = 0; i < 50; i++) {
      std::string key = "hk" + std::to_string(i);
      std::string value = "hv" + std::to_string(i);
      ASSERT_TRUE(db->Put(key, value).ok()) << i;
      committed[key] = value;
    }
  }
  env.SimulateCrash();

  // Walk the slot directory the same way recovery does.
  std::vector<uint64_t> slot_offsets;
  uint64_t off = 0;
  while (off < opts.pool_bytes) {
    const uint64_t size = SubMemTable::ReadSlotSize(&env, off);
    ASSERT_GE(size, opts.min_sub_memtable_bytes);
    ASSERT_LE(size, opts.pool_bytes - off);
    slot_offsets.push_back(off);
    off += size;
  }
  ASSERT_LT(static_cast<size_t>(slot_index), slot_offsets.size());
  Clobber(&env, slot_offsets[slot_index] + hdr_off, len);

  ExpectRestoreOrCorruption(&env, opts, committed);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PoolHeaderClobberSweep,
    ::testing::Combine(
        ::testing::Values(0, 1),
        ::testing::Values(std::make_pair(0, 8),    // whole packed word
                          std::make_pair(0, 3),    // tail bytes only
                          std::make_pair(5, 3),    // counter high bytes
                          std::make_pair(16, 8))   // slot-size word
        ));

}  // namespace
}  // namespace cachekv
