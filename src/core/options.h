#ifndef CACHEKV_CORE_OPTIONS_H_
#define CACHEKV_CORE_OPTIONS_H_

#include <cstdint>

#include "lsm/lsm_engine.h"

namespace cachekv {

/// Configuration of a CacheKV store (§III). The defaults follow the
/// paper's evaluation setup (§IV-A): a 12 MB sub-MemTable pool inside the
/// LLC, 2 MB sub-MemTables, one background flush thread, one background
/// index thread, and one zone thread for the sub-skiplist compaction.
struct CacheKVOptions {
  /// Capacity of the CAT pseudo-locked sub-MemTable pool. Must match the
  /// environment's cat_locked_bytes.
  uint64_t pool_bytes = 12ull << 20;

  /// Initial (maximum) sub-MemTable size class. Elasticity may halve free
  /// tables down to min_sub_memtable_bytes under write bursts (§III-A).
  uint64_t sub_memtable_bytes = 2ull << 20;
  uint64_t min_sub_memtable_bytes = 256ull << 10;

  /// Number of per-core writer slots in the global metadata structure
  /// (the paper's testbed has 24 physical cores per socket).
  int num_cores = 24;

  /// Background copy-based-flush threads (§III-C; Exp#5 sweeps this).
  int num_flush_threads = 1;

  /// Background threads for the lazy index update (§III-B; the paper
  /// uses one). They only replay records into the sub-skiplists: the
  /// sub-skiplist compaction and the zone-to-L0 flush (§III-D) run on a
  /// zone thread of their own, so a long pass never stalls the replays.
  int num_index_threads = 1;

  /// Lazy-index trigger 2: schedule a background sync for a sub-skiplist
  /// once this many writes accumulated since its last synchronization.
  /// Gets scan the records not yet replayed, so a low threshold keeps
  /// that tail short; a writer whose table falls 16 thresholds behind
  /// replays it inline.
  uint32_t sync_write_threshold = 16;

  /// Flush the compacted sub-ImmMemTable zone into the LSM-tree's L0
  /// once its total size reaches this threshold (§III-D).
  uint64_t imm_zone_flush_threshold = 24ull << 20;

  /// Elasticity: consecutive failed sub-MemTable acquisitions (the
  /// paper's miss counter) that trigger halving of free tables.
  uint32_t elasticity_miss_threshold = 8;

  /// Event tracing (docs/OBSERVABILITY.md): when true the store records
  /// begin/end and instant events into per-thread ring buffers and
  /// DB::DumpTrace() exports them as Chrome trace-event JSON. Off by
  /// default; the CACHEKV_TRACE environment variable also enables it at
  /// Open() time. Disabled tracing costs one relaxed load per probe.
  bool trace_enabled = false;

  /// Fixed ring capacity (events) of each emitting thread's trace
  /// shard. Overflow keeps the newest events and counts drops.
  size_t trace_events_per_thread = 1 << 16;

  /// Ablation switches for the paper's breakdown (Exp#1/Exp#2):
  /// lazy_index_update=false gives the PCSM configuration (sub-skiplists
  /// updated synchronously on every write); zone_compaction=false
  /// disables SC (reads search every flushed sub-skiplist instead of a
  /// compacted global skiplist). Both true = full CacheKV.
  bool lazy_index_update = true;
  bool zone_compaction = true;

  /// Background-error handling (docs/ROBUSTNESS.md): transient flush /
  /// index / compaction failures are retried up to max_bg_retries times
  /// with capped exponential backoff before the store degrades to
  /// read-only mode.
  int max_bg_retries = 5;
  uint32_t bg_backoff_base_ms = 1;
  uint32_t bg_backoff_max_ms = 100;

  /// How long a writer waits for the flushers to free a sub-MemTable
  /// before the Put fails with Busy (write stall; the db.write_stalls
  /// counter records every such failure).
  uint32_t write_stall_timeout_ms = 5000;

  /// Key–value separation (src/vlog/, WiscKey-style): values at or above
  /// this many bytes are appended to the value log and the LSM carries a
  /// 16-byte pointer instead, keeping flush and compaction write
  /// amplification flat in the value size. 0 disables separation (every
  /// value stays inline). Values too large for a vlog segment fall back
  /// to the inline path.
  uint64_t value_separation_threshold = 4096;

  /// Size of each append-only value-log segment (the GC reclamation
  /// unit).
  uint64_t vlog_segment_bytes = 4ull << 20;

  /// A sealed segment becomes a GC victim once compaction has reported
  /// at least this fraction of its bytes dead.
  double vlog_gc_dead_ratio = 0.5;

  /// Period of the background vlog GC thread's victim scan.
  uint64_t vlog_gc_interval_ms = 200;

  /// Cap on concurrently pinned snapshots (docs/SNAPSHOTS.md). Each pin
  /// forces flush, compaction, and vlog GC to retain superseded versions
  /// it can still see; GetSnapshot() returns null at the cap.
  uint32_t max_pinned_snapshots = 64;

  /// The LSM storage component underneath.
  LsmOptions lsm;
};

}  // namespace cachekv

#endif  // CACHEKV_CORE_OPTIONS_H_
