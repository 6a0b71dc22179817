// Value-log subsystem tests: record framing, crash recovery with a torn
// tail, GC liveness accounting, and the DB-level separation threshold
// boundary (docs/ARCHITECTURE.md "Value path").

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/db.h"
#include "fault/fail_point.h"
#include "pmem/meta_layout.h"
#include "pmem/pmem_env.h"
#include "vlog/value_log.h"
#include "vlog/value_pointer.h"

namespace cachekv {
namespace {

EnvOptions VlogEnv() {
  EnvOptions o;
  o.pmem_capacity = 256ull << 20;
  o.llc_capacity = 16ull << 20;
  o.latency.scale = 0;
  return o;
}

std::unique_ptr<ValueLog> MakeLog(PmemEnv* env, obs::MetricsRegistry* metrics,
                                  uint64_t segment_bytes) {
  return std::make_unique<ValueLog>(
      env, metrics, MetaLayout::VlogRegistryBase(env),
      MetaLayout::kVlogRegistrySlotSize, segment_bytes);
}

TEST(ValuePointerTest, EncodeDecodeRoundTrip) {
  ValuePointer in{7, 0xdeadbeefull, 4096};
  std::string buf;
  EncodeValuePointer(&buf, in);
  EXPECT_EQ(kValuePointerSize, buf.size());
  ValuePointer out;
  ASSERT_TRUE(DecodeValuePointer(Slice(buf), &out));
  EXPECT_EQ(in, out);
  EXPECT_FALSE(DecodeValuePointer(Slice(buf.data(), buf.size() - 1), &out));
}

TEST(ValueLogTest, AppendReadRoundTrip) {
  PmemEnv env(VlogEnv());
  obs::MetricsRegistry metrics;
  auto vlog = MakeLog(&env, &metrics, 1ull << 20);
  ASSERT_TRUE(vlog->Format().ok());

  std::vector<ValuePointer> ptrs;
  for (int i = 0; i < 100; i++) {
    ValuePointer ptr;
    std::string value = "value-" + std::to_string(i) + std::string(300, 'v');
    ASSERT_TRUE(
        vlog->Append(100 + i, Slice("key" + std::to_string(i)), Slice(value),
                     &ptr)
            .ok());
    ptrs.push_back(ptr);
  }
  EXPECT_EQ(199u, vlog->MaxSequence());
  for (int i = 0; i < 100; i++) {
    std::string got;
    ASSERT_TRUE(
        vlog->Read(ptrs[i], Slice("key" + std::to_string(i)), &got).ok());
    EXPECT_EQ("value-" + std::to_string(i) + std::string(300, 'v'), got);
  }
  // A pointer with a wrong length must fail loudly, not return bytes.
  ValuePointer bad = ptrs[0];
  bad.len += 1;
  std::string got;
  EXPECT_TRUE(vlog->Read(bad, Slice("key0"), &got).IsCorruption());
  // A valid frame under the wrong key must fail too: on a still-linked
  // segment this is a dangling pointer, and on a recycled region it is
  // another record's frame that happens to decode.
  EXPECT_TRUE(vlog->Read(ptrs[0], Slice("key1"), &got).IsCorruption());
}

TEST(ValueLogTest, RollsOverSegmentsAndReplaysRecords) {
  PmemEnv env(VlogEnv());
  obs::MetricsRegistry metrics;
  auto vlog = MakeLog(&env, &metrics, 16ull << 10);  // tiny segments
  ASSERT_TRUE(vlog->Format().ok());

  const std::string value(1000, 'x');
  std::vector<ValuePointer> ptrs;
  for (int i = 0; i < 64; i++) {
    ValuePointer ptr;
    ASSERT_TRUE(
        vlog->Append(1 + i, Slice("k" + std::to_string(i)), Slice(value), &ptr)
            .ok());
    ptrs.push_back(ptr);
  }
  EXPECT_GT(vlog->NumSegments(), 2u);

  // ForEachRecord on a sealed segment yields records in append order
  // with pointers that resolve to the same bytes.
  int replayed = 0;
  ASSERT_TRUE(vlog
                  ->ForEachRecord(
                      ptrs[0].file_id,
                      [&](SequenceNumber seq, const Slice& key,
                          const Slice& v, const ValuePointer& ptr) {
                        EXPECT_EQ(value, v.ToString());
                        EXPECT_EQ(ptrs[0].file_id, ptr.file_id);
                        EXPECT_EQ(seq, static_cast<SequenceNumber>(replayed + 1));
                        replayed++;
                        return Status::OK();
                      })
                  .ok());
  EXPECT_GT(replayed, 0);
}

TEST(ValueLogTest, RecoveryReplaysTailAndTruncatesTornAppend) {
  PmemEnv env(VlogEnv());
  obs::MetricsRegistry metrics;
  std::vector<ValuePointer> ptrs;
  const std::string value(500, 'y');
  {
    auto vlog = MakeLog(&env, &metrics, 64ull << 10);
    ASSERT_TRUE(vlog->Format().ok());
    for (int i = 0; i < 40; i++) {
      ValuePointer ptr;
      ASSERT_TRUE(vlog->Append(1 + i, Slice("k" + std::to_string(i)),
                               Slice(value), &ptr)
                      .ok());
      ptrs.push_back(ptr);
    }
    // A torn append: the frame is cut mid-record and the head does not
    // advance, exactly as a crash mid-NtStore would leave the tail.
    auto* reg = fault::FailPointRegistry::Global();
    reg->DisableAll();
    reg->SetSeed(12345);
    ASSERT_TRUE(reg->Enable("vlog.append.torn", "once,torn").ok());
    ValuePointer torn_ptr;
    Status ts = vlog->Append(41, Slice("torn-key"), Slice(value), &torn_ptr);
    EXPECT_FALSE(ts.ok()) << "torn append must not ack";
    reg->DisableAll();
  }

  env.SimulateCrash();

  auto recovered = MakeLog(&env, &metrics, 64ull << 10);
  ASSERT_TRUE(recovered->Recover().ok());
  EXPECT_EQ(40u, recovered->MaxSequence());
  for (int i = 0; i < 40; i++) {
    std::string got;
    ASSERT_TRUE(
        recovered->Read(ptrs[i], Slice("k" + std::to_string(i)), &got).ok())
        << "lost record " << i;
    EXPECT_EQ(value, got);
  }
  // The log stays appendable after truncation, reusing the torn tail.
  ValuePointer ptr;
  ASSERT_TRUE(recovered->Append(100, Slice("after"), Slice(value), &ptr).ok());
  std::string got;
  ASSERT_TRUE(recovered->Read(ptr, Slice("after"), &got).ok());
  EXPECT_EQ(value, got);
}

TEST(ValueLogTest, GcLivenessAccountingPicksTheDeadestSegment) {
  PmemEnv env(VlogEnv());
  obs::MetricsRegistry metrics;
  auto vlog = MakeLog(&env, &metrics, 16ull << 10);
  ASSERT_TRUE(vlog->Format().ok());

  const std::string value(1000, 'z');
  std::vector<ValuePointer> ptrs;
  for (int i = 0; i < 48; i++) {
    ValuePointer ptr;
    ASSERT_TRUE(
        vlog->Append(1 + i, Slice("k" + std::to_string(i)), Slice(value), &ptr)
            .ok());
    ptrs.push_back(ptr);
  }
  ASSERT_GT(vlog->NumSegments(), 2u);
  // No dead bytes yet: no victim at any positive threshold.
  EXPECT_EQ(0u, vlog->PickGcVictim(0.1));

  // Kill every record of the first segment; it becomes the victim.
  const uint32_t first = ptrs[0].file_id;
  for (size_t i = 0; i < ptrs.size(); i++) {
    if (ptrs[i].file_id == first) {
      vlog->AddDeadBytes(ptrs[i], std::string("k" + std::to_string(i)).size());
    }
  }
  EXPECT_EQ(first, vlog->PickGcVictim(0.5));
  EXPECT_GT(vlog->DeadBytes(), 0u);

  // Unlink drops the segment; its pointers turn into the retryable
  // "recycled" NotFound, and the victim is gone from the candidate set.
  ASSERT_TRUE(vlog->Unlink(first).ok());
  std::string got;
  Status s = vlog->Read(ptrs[0], Slice("k0"), &got);
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
  EXPECT_NE(vlog->PickGcVictim(0.5), first);
  // AddDeadBytes on an unlinked segment is a harmless no-op.
  vlog->AddDeadBytes(ptrs[0], 2);
}

// ---- DB-level integration ----

CacheKVOptions SepDb() {
  CacheKVOptions o;
  o.pool_bytes = 4ull << 20;
  o.sub_memtable_bytes = 512ull << 10;
  o.min_sub_memtable_bytes = 128ull << 10;
  o.imm_zone_flush_threshold = 1ull << 20;
  o.value_separation_threshold = 256;
  o.vlog_segment_bytes = 64ull << 10;
  o.vlog_gc_dead_ratio = 0.4;
  o.vlog_gc_interval_ms = 5;
  o.lsm.background_compaction = false;
  return o;
}

EnvOptions SepEnv() {
  EnvOptions o;
  o.pmem_capacity = 512ull << 20;
  o.cat_locked_bytes = 4ull << 20;
  o.latency.scale = 0;
  return o;
}

TEST(VlogDbTest, ThresholdBoundarySplitsInlineFromSeparated) {
  PmemEnv env(SepEnv());
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(&env, SepDb(), false, &db).ok());

  const std::string below(255, 'a');  // threshold - 1: stays inline
  const std::string at(256, 'b');     // == threshold: separated
  ASSERT_TRUE(db->Put("below", below).ok());
  ASSERT_TRUE(db->Put("at", at).ok());

  obs::MetricsSnapshot snap = db->metrics()->Snapshot();
  EXPECT_EQ(1u, snap.CounterValue("db.separated_puts"));
  EXPECT_EQ(1u, snap.CounterValue("vlog.appends"));

  std::string got;
  ASSERT_TRUE(db->Get("below", &got).ok());
  EXPECT_EQ(below, got);
  ASSERT_TRUE(db->Get("at", &got).ok());
  EXPECT_EQ(at, got);

  // Scans resolve pointers transparently and in key order.
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(db->Scan(Slice(), 10, &rows).ok());
  ASSERT_EQ(2u, rows.size());
  EXPECT_EQ("at", rows[0].first);
  EXPECT_EQ(at, rows[0].second);
  EXPECT_EQ("below", rows[1].first);
  EXPECT_EQ(below, rows[1].second);
}

TEST(VlogDbTest, SeparatedValuesSurviveCrashRecovery) {
  auto env = std::make_unique<PmemEnv>(SepEnv());
  CacheKVOptions opts = SepDb();
  std::map<std::string, std::string> shadow;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(env.get(), opts, false, &db).ok());
    for (int i = 0; i < 500; i++) {
      std::string key = "key" + std::to_string(i % 200);
      std::string value =
          "v" + std::to_string(i) + std::string(400, 'c');
      ASSERT_TRUE(db->Put(key, value).ok());
      shadow[key] = value;
    }
  }
  env->SimulateCrash();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(env.get(), opts, true, &db).ok());
  for (const auto& [key, value] : shadow) {
    std::string got;
    ASSERT_TRUE(db->Get(key, &got).ok()) << "lost " << key;
    ASSERT_EQ(value, got);
  }
  // New writes after recovery keep separating.
  ASSERT_TRUE(db->Put("fresh", std::string(1000, 'f')).ok());
  std::string got;
  ASSERT_TRUE(db->Get("fresh", &got).ok());
  EXPECT_EQ(std::string(1000, 'f'), got);
}

TEST(VlogDbTest, GcRewritesLiveValuesAndReclaimsSegments) {
  CacheKVOptions opts = SepDb();
  // Pointer records are tiny, so small tables and a low zone threshold
  // are needed for the workload to seal, flush, and compact — the drops
  // there are what feed the GC's liveness accounting.
  opts.pool_bytes = 1ull << 20;
  opts.sub_memtable_bytes = 128ull << 10;
  opts.min_sub_memtable_bytes = 64ull << 10;
  opts.imm_zone_flush_threshold = 96ull << 10;
  opts.lsm.l0_compaction_trigger = 2;
  opts.lsm.base_level_bytes = 256ull << 10;
  opts.lsm.target_file_size = 64ull << 10;
  EnvOptions eo = SepEnv();
  eo.cat_locked_bytes = opts.pool_bytes;
  PmemEnv env(eo);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(&env, opts, false, &db).ok());

  // Overwrite a small key set many times: old versions die in
  // compaction, their vlog footprint is credited back, and GC rewrites
  // the survivors into fresh segments.
  std::map<std::string, std::string> model;
  for (int round = 0; round < 400; round++) {
    for (int i = 0; i < 40; i++) {
      std::string key = "gckey" + std::to_string(i);
      std::string value =
          "r" + std::to_string(round) + std::string(300, 'g');
      ASSERT_TRUE(db->Put(key, value).ok());
      model[key] = value;
    }
  }
  ASSERT_TRUE(db->WaitIdle().ok());
  // Give the GC thread a few ticks to observe the dead bytes.
  for (int waited = 0; waited < 2000; waited++) {
    obs::MetricsSnapshot snap = db->metrics()->Snapshot();
    if (snap.CounterValue("vlog.gc_unlinked") > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  obs::MetricsSnapshot snap = db->metrics()->Snapshot();
  EXPECT_GT(snap.CounterValue("vlog.dead_bytes"), 0u)
      << "compaction never credited dead vlog bytes";
  EXPECT_GT(snap.CounterValue("vlog.gc_unlinked"), 0u)
      << "GC never reclaimed a segment";

  // Every live key still reads its freshest value through GC churn.
  for (const auto& [key, value] : model) {
    std::string got;
    ASSERT_TRUE(db->Get(key, &got).ok()) << key;
    ASSERT_EQ(value, got);
  }
}

// A GC relocation sequences like a write: it waits for every write
// reserved before it, and every write reserved after it shadows it. So a
// relocation racing an overwrite of the same key never wins, even while
// the overwrite is held in flight.
TEST(VlogDbTest, GcRelocationNeverShadowsAnInFlightOverwrite) {
  CacheKVOptions opts = SepDb();
  // Four fixed 128 KiB tables, so a few filled ones exhaust the pool.
  opts.pool_bytes = 512ull << 10;
  opts.sub_memtable_bytes = 128ull << 10;
  opts.min_sub_memtable_bytes = 128ull << 10;
  opts.num_cores = 8;
  opts.imm_zone_flush_threshold = 8ull << 20;
  opts.vlog_gc_dead_ratio = 0;  // every sealed segment is a victim
  opts.vlog_gc_interval_ms = 3'600'000;  // passes run only when called
  EnvOptions eo = SepEnv();
  eo.cat_locked_bytes = opts.pool_bytes;
  PmemEnv env(eo);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(&env, opts, false, &db).ok());
  auto* fail_points = fault::FailPointRegistry::Global();
  fail_points->DisableAll();

  // The key's first version opens a segment that separated fillers seal.
  const std::string old_value(1000, 'o');
  const std::string new_value(1000, 'n');
  ASSERT_TRUE(db->Put("key", old_value).ok());
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db->Put("f" + std::to_string(i), std::string(1000, 'f')).ok());
  }
  // With copy-flushes slowed, inline values seal three tables, so this
  // thread holds the pool's last free table.
  ASSERT_TRUE(fail_points->Enable("flush.copy", "always,delay:300000").ok());
  for (int i = 0; db->CounterValue("db.seals") < 3; i++) {
    ASSERT_TRUE(db->Put("i" + std::to_string(i), std::string(200, 'i')).ok());
  }

  // The overwrite runs on a thread of its own: it reserves its sequence,
  // then waits in AcquireFor for a flush to free a table.
  const uint64_t waits = db->CounterValue("db.acquire_waits");
  Status overwrite;
  std::thread writer([&] { overwrite = db->Put("key", new_value); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (db->CounterValue("db.acquire_waits") == waits &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  const bool held = db->CounterValue("db.acquire_waits") > waits;
  // The GC pass replays the first segment, old version of "key" first,
  // while the overwrite is still in flight.
  Status gc;
  std::thread collector([&] { gc = db->vlog_gc()->CollectOnce(); });
  writer.join();
  std::string got;
  Status read = db->Get("key", &got);  // right after the overwrite's ack
  collector.join();
  fail_points->DisableAll();
  ASSERT_TRUE(held) << "the overwrite never waited; the test proves nothing";
  ASSERT_TRUE(overwrite.ok()) << overwrite.ToString();
  ASSERT_TRUE(read.ok()) << read.ToString();
  EXPECT_TRUE(got == new_value) << "read the old value after the ack";
  ASSERT_TRUE(gc.ok()) << gc.ToString();
  EXPECT_GT(db->CounterValue("vlog.gc_rewrites"), 0u)
      << "the pass relocated nothing; the test proves nothing";
  ASSERT_TRUE(db->Get("key", &got).ok());
  EXPECT_TRUE(got == new_value) << "a relocation shadowed the overwrite";
  ASSERT_TRUE(db->WaitIdle().ok());
  ASSERT_TRUE(db->Get("key", &got).ok());
  EXPECT_TRUE(got == new_value) << "a relocation shadowed the overwrite";
}

}  // namespace
}  // namespace cachekv
