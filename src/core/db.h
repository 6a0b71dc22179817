#ifndef CACHEKV_CORE_DB_H_
#define CACHEKV_CORE_DB_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "baselines/kvstore.h"
#include "core/bg_error_manager.h"
#include "core/flushed_zone.h"
#include "core/options.h"
#include "core/sequencer.h"
#include "core/sub_memtable.h"
#include "core/sub_memtable_pool.h"
#include "core/sub_skiplist.h"
#include "lsm/lsm_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pmem/pmem_env.h"
#include "vlog/value_log.h"
#include "vlog/value_pointer.h"
#include "vlog/vlog_gc.h"

namespace cachekv {

/// DB is the CacheKV store (§III): per-core sub-MemTables pinned in the
/// persistent CPU caches, lazily synchronized DRAM sub-skiplists,
/// copy-based flush of sealed sub-ImmMemTables into a PMem staging zone,
/// periodic sub-skiplist compaction into a global skiplist, and an
/// LSM-tree storage component underneath.
///
/// Requirements on the environment: env->locked_size() must equal
/// options.pool_bytes (the pool is the CAT pseudo-locked range), and the
/// platform must be eADR (the design relies on persistent caches for the
/// crash-consistency of unflushed sub-MemTables).
class DB : public KVStore {
 public:
  /// Opens a fresh store, or recovers a crashed one when `recover` is
  /// set (§III-E: rebuild sub-skiplists from the persistent
  /// sub-MemTables, re-adopt the staged zone, recover the LSM manifest).
  static Status Open(PmemEnv* env, const CacheKVOptions& options,
                     bool recover, std::unique_ptr<DB>* db);

  ~DB() override;

  Status Put(const Slice& key, const Slice& value) override;
  Status Get(const Slice& key, std::string* value) override;
  /// Get that also reports, on success, the sequence number of the
  /// version returned (the hot-key cache orders its entries by it).
  Status Get(const Slice& key, std::string* value, SequenceNumber* seq);
  Status Delete(const Slice& key) override;
  std::string Name() const override;
  Status WaitIdle() override;

  /// One operation of a multi-key transaction (shared with the generic
  /// KVStore batch interface).
  using BatchOp = KVStore::BatchOp;

  /// Atomic batch commit: forwards to MultiPut.
  Status ApplyBatch(const std::vector<BatchOp>& batch) override {
    return MultiPut(batch);
  }
  /// ApplyBatch that also reports the committed sequence (see MultiPut).
  Status ApplyBatch(const std::vector<BatchOp>& batch,
                    SequenceNumber* committed_seq) {
    return MultiPut(batch, committed_seq);
  }

  /// Ordered forward scan built on NewScanIterator().
  Status Scan(const Slice& start, size_t limit,
              std::vector<std::pair<std::string, std::string>>* out)
      override;

  /// Multi-key transaction (§III-A discussion): all operations are
  /// appended contiguously to the calling core's sub-MemTable and
  /// published by a single 64-bit header CAS, so a crash either persists
  /// the whole batch or none of it. All records carry one sequence
  /// number block assigned atomically. Fails with InvalidArgument when
  /// the batch cannot fit one sub-MemTable or carries an empty key.
  /// This is the store's only write path: Put and Delete are one-op
  /// batches. On success `*committed_seq` (when non-null) receives the
  /// sequence number of the batch's last record — what a replication
  /// ack wait names (repl::ReplHub::WaitCommitAcked).
  Status MultiPut(const std::vector<BatchOp>& batch,
                  SequenceNumber* committed_seq = nullptr);

  /// Forward iterator over the live user keys (freshest versions,
  /// tombstones elided), merging the sub-MemTables, the staged zone, and
  /// the LSM tree. The iterator pins the memory component: background
  /// copy-flushes and zone-to-L0 flushes stall until it is destroyed, so
  /// keep scans short-lived.
  Iterator* NewScanIterator();

  /// A pinned read view (docs/SNAPSHOTS.md): every read at the snapshot
  /// sees exactly the versions with sequence <= sequence() and nothing
  /// newer, for as long as the pin is held. Obtained from GetSnapshot()
  /// and returned through ReleaseSnapshot(); the DB owns the object.
  class Snapshot {
   public:
    SequenceNumber sequence() const { return sequence_; }

   private:
    friend class DB;
    explicit Snapshot(SequenceNumber seq) : sequence_(seq) {}
    const SequenceNumber sequence_;
  };

  /// Pins the last reserved sequence number, returning once every write
  /// at or below it has settled (no writer is stopped, and a batch is one
  /// sequence block, never split). Flush, compaction, and vlog GC retain
  /// every version the pin can resolve until it is released. Returns null
  /// when max_pinned_snapshots pins are live (back off or release one).
  const Snapshot* GetSnapshot();

  /// Unpins and destroys `snapshot` (null is a no-op). Versions retained
  /// only for this pin become reclaimable on the next flush/compaction/
  /// GC pass.
  void ReleaseSnapshot(const Snapshot* snapshot);

  /// The live pinned sequence numbers, sorted ascending (compaction and
  /// GC capture this at pass start).
  std::vector<SequenceNumber> PinnedSnapshots() const;

  /// Point read at a pinned snapshot: the freshest version with
  /// sequence <= `snapshot` answers. The caller must hold a pin at (or
  /// below) `snapshot` for the duration, or dropped versions may leak
  /// into view.
  Status GetAt(const Slice& key, SequenceNumber snapshot,
               std::string* value);

  /// Ordered forward scan at a pinned snapshot (same pin requirement as
  /// GetAt).
  Status ScanAt(const Slice& start, size_t limit, SequenceNumber snapshot,
                std::vector<std::pair<std::string, std::string>>* out);

  /// NewScanIterator() bounded at a pinned snapshot: versions newer than
  /// `snapshot` are invisible; the freshest visible version per key
  /// wins, tombstones elided (same pin requirement as GetAt).
  Iterator* NewScanIteratorAt(SequenceNumber snapshot);

  /// The store's metrics registry: "db.*" counters, stage-span
  /// histograms (nanoseconds), and — after a snapshot refresh —
  /// "pmem.*" / "cache.*" device gauges. Components may register more.
  /// All runtime counters live here and ONLY here; read one with
  /// CounterValue() or via a snapshot — there is no separate stats
  /// structure.
  obs::MetricsRegistry* metrics() { return &metrics_; }

  /// Convenience read of one registry counter (0 when never touched).
  uint64_t CounterValue(std::string_view name) {
    return metrics_.GetCounter(name)->value();
  }

  /// The store's event tracer (off unless Options::trace_enabled or
  /// CACHEKV_TRACE turned it on at Open time).
  obs::Tracer* trace() { return &trace_; }

  /// Serializes the retained trace events as one Chrome trace-event
  /// JSON array (loadable in Perfetto / chrome://tracing). Empty array
  /// when tracing is disabled. Best called after WaitIdle().
  void DumpTrace(std::string* out) { trace_.Export(out); }

  /// Scrapes the registry after refreshing the PMem device and cache
  /// simulator gauges (pmem.rmw_count, pmem.media_bytes_written,
  /// pmem.bytes_received, pmem.nt_bytes, pmem.write_amplification,
  /// cache.clwb_lines, cache.fences, cache.dirty_evictions).
  obs::MetricsSnapshot GetMetricsSnapshot();

  /// Appends the current snapshot to *out as pretty-printed JSON.
  void DumpMetrics(std::string* out);

  /// The sticky background error: OK while healthy. Set when a flush,
  /// index-sync, or zone-to-L0 stage failed hard (or exhausted its retry
  /// budget) — from then on the DB is read-only and every write returns
  /// this error. Also surfaces the LSM engine's own background error.
  Status BackgroundError();

  /// True once a background failure degraded the store to read-only.
  bool IsReadOnly() const override { return bg_errors_.read_only(); }

  /// Conservative bound on the total encoded bytes one MultiPut /
  /// ApplyBatch call can carry and still commit on the first available
  /// sub-MemTable even under elasticity (front ends batching pipelined
  /// writes size their batches against this; see src/net/server.cc).
  uint64_t ApproxMultiPutCapacityBytes() const;

  /// Observer of every successful write commit, invoked after the
  /// batch is durably published, with the committed ops and the
  /// sequence number of the batch's last record. Single writes surface
  /// as a one-element batch (a Delete as an is_delete op). The
  /// replication layer taps this to append to the per-shard
  /// replication log (src/repl/).
  ///
  /// Invocations fire in sequence order, as the sequencer retires blocks,
  /// so a log built from the hook replays racing same-key writes to the
  /// state the DB converged to. A hook may run on the thread of whichever
  /// writer settled the last earlier block. Hooks must be fast and
  /// non-blocking. Vlog GC relocations fire none: a follower holds the
  /// same value and runs its own GC.
  using CommitHook = Sequencer::Hook;

  /// Installs `hook` (empty disables). Set it before the DB starts
  /// serving: a write settled earlier is not replayed to it.
  void SetCommitHook(CommitHook hook) { sequencer_.SetHook(std::move(hook)); }

  SubMemTablePool* pool() { return pool_.get(); }
  FlushedZone* zone() { return zone_.get(); }
  LsmEngine* engine() { return engine_.get(); }
  ValueLog* vlog() { return vlog_.get(); }
  VlogGc* vlog_gc() { return vlog_gc_.get(); }
  SequenceNumber LastSequence() const { return sequencer_.last(); }

 private:
  /// An acquired sub-MemTable with its DRAM-side attachments.
  struct ActiveTable {
    SubMemTable table;
    std::shared_ptr<SubSkiplist> index;
    /// Serializes appends when more threads than writer slots exist;
    /// uncontended in the per-core regime.
    std::mutex append_mu;
    std::atomic<uint64_t> writes_since_sync{0};
    std::atomic<bool> sync_scheduled{false};

    ActiveTable(PmemEnv* env, const SubMemTable& t)
        : table(t),
          index(std::make_shared<SubSkiplist>(env, t.data_offset())) {}
  };

  DB(PmemEnv* env, const CacheKVOptions& options);

  /// Freshest committed version of `key` across all three components,
  /// with the raw stored bytes (a pointer entry's encoded ValuePointer is
  /// NOT resolved). `count_hit` routes the per-component hit counters;
  /// the GC liveness probe passes false.
  struct RawResult {
    bool found = false;
    SequenceNumber sequence = 0;
    ValueType type = kTypeValue;
    std::string value;  // raw bytes unless type == kTypeDeletion
    /// Which component answered, for the db.get_hit_* attribution.
    enum class Where { kNone, kSubMemTable, kZone, kLsm } where =
        Where::kNone;
  };
  /// `max_sequence` bounds the search to versions with sequence <=
  /// max_sequence (kMaxSequenceNumber = unbounded latest read).
  Status SearchRaw(const Slice& key, RawResult* out,
                   SequenceNumber max_sequence = kMaxSequenceNumber);

  /// Shared body of Get / GetAt: bounded search plus value-pointer
  /// resolution and hit/miss accounting. `seq` (nullable) receives the
  /// answering version's sequence on success.
  Status GetImpl(const Slice& key, SequenceNumber max_sequence,
                 std::string* value, SequenceNumber* seq);

  /// True when a Put of (key, value) goes through the value log.
  bool ShouldSeparate(const Slice& key, const Slice& value) const;

  /// GC relocation of one vlog record, sequenced like a write on the
  /// calling thread's core slot (no commit hook fires): re-appends `value`
  /// under a fresh sequence and commits the new pointer iff the freshest
  /// committed version of `key` is exactly `old_ptr`; otherwise the record
  /// is dead and *relocated stays false. `record_seq` is the record's
  /// original sequence; *snapshot_pinned reports whether a pinned snapshot
  /// still resolves the old pointer (relocated or not), which blocks the
  /// segment's unlink (docs/SNAPSHOTS.md).
  Status RelocateForGc(SequenceNumber record_seq, const Slice& key,
                       const ValuePointer& old_ptr, const Slice& value,
                       bool* relocated, bool* snapshot_pinned);

  /// Appends `count` pre-encoded records to `core`'s sub-MemTable and
  /// publishes them with one header CAS, sealing and replacing the
  /// table when they do not fit. The caller holds the core's lock.
  Status AppendRecords(int core, const Slice& records, uint32_t count);
  // Seals `current`, hands it to the flushers, and acquires a
  // replacement for `core` (waiting on the flushers when the pool is
  // exhausted). Returns the new table via metadata_[core].
  Status SealAndReplace(int core, std::shared_ptr<ActiveTable> current);
  Status AcquireFor(int core);
  int CoreOf();

  // Background machinery.
  void FlushThread();
  void IndexThread();
  void ZoneThread();
  Status CopyFlushOne(std::shared_ptr<ActiveTable> sealed);
  Status FlushZoneToL0();
  void ScheduleSync(const std::shared_ptr<ActiveTable>& table);
  /// Replays `table`'s unindexed records into its sub-skiplist; a pass
  /// that indexed any record counts in db.index_syncs.
  Status Replay(ActiveTable* table);

  /// Lag cap: a writer whose append leaves its table more than this many
  /// sync_write_threshold's unreplayed replays it inline, so a stalled
  /// index thread cannot make every Get scan a whole table.
  static constexpr uint64_t kMaxLagThresholds = 16;

  PmemEnv* env_;
  CacheKVOptions options_;
  InternalKeyComparator scan_icmp_;
  // The registry and tracer must outlive (so precede) every component
  // holding pointers into them: pool_/zone_/engine_, the cached counter
  // pointers below, and the span call sites in background threads.
  obs::MetricsRegistry metrics_;
  obs::Tracer trace_;
  // Background-error policy: classifies failures from the flush and
  // index threads, drives their retry loops, and owns the read-only
  // degradation state checked by every foreground write.
  BackgroundErrorManager bg_errors_;
  std::unique_ptr<SubMemTablePool> pool_;
  std::unique_ptr<FlushedZone> zone_;
  std::unique_ptr<LsmEngine> engine_;
  // Key–value separation (src/vlog/): the log outlives the GC thread,
  // which is stopped first in ~DB.
  std::unique_ptr<ValueLog> vlog_;
  std::unique_ptr<VlogGc> vlog_gc_;
  // Credits dropped pointer entries back to the vlog as dead bytes.
  // Compaction invokes it through the engine; the zone→L0 flush buffers
  // its drops and delivers them here only after the flush commits.
  DroppedEntryFn drop_observer_;

  // Hot-path counters, cached once from the registry (which owns them;
  // DumpMetrics() is the single source of truth for their values).
  obs::Counter* puts_;
  obs::Counter* gets_;
  obs::Counter* seals_;
  obs::Counter* copy_flushes_;
  obs::Counter* zone_flushes_;
  obs::Counter* index_syncs_;
  obs::Counter* acquire_waits_;
  obs::Counter* write_stalls_;
  obs::Counter* get_hit_submemtable_;
  obs::Counter* get_hit_zone_;
  obs::Counter* get_hit_lsm_;
  obs::Counter* get_miss_;
  obs::Counter* ingest_bytes_;
  obs::Counter* separated_puts_;
  obs::Counter* snap_pins_;
  obs::Counter* snap_releases_;
  obs::Counter* snap_retained_bytes_;

  Sequencer sequencer_;  // every write's block; the visible watermark

  // Pinned snapshot sequence numbers (a multiset: concurrent pins can
  // land on the same sequence). Guarded by snapshots_mu_.
  mutable std::mutex snapshots_mu_;
  std::multiset<SequenceNumber> pinned_snapshots_;

  // Per-core assignments (the global metadata structure of Figure 7;
  // kept in DRAM to avoid PMem write amplification). Each slot is
  // guarded by its core mutex, which stands in for per-core exclusivity
  // when more threads than writer slots exist.
  static constexpr int kMaxCoreLocks = 64;
  std::mutex core_mu_[kMaxCoreLocks];
  std::vector<std::shared_ptr<ActiveTable>> metadata_;
  // All tables currently serving reads from the pool (active + sealed
  // but not yet copy-flushed). Guarded by tables_mu_; readers hold it
  // shared across the whole memory-component search so the flusher
  // cannot recycle a slot under them.
  mutable std::shared_mutex tables_mu_;
  std::vector<std::shared_ptr<ActiveTable>> live_tables_;

  // Sequence high-water marks for read pruning: any memory-component
  // answer fresher than flushed_hwm_ is authoritative without consulting
  // the zone; anything fresher than l0_hwm_ skips the LSM.
  std::atomic<uint64_t> flushed_hwm_{0};
  std::atomic<uint64_t> l0_hwm_{0};

  // Flush queue (sealed tables awaiting the copy-based flush).
  std::mutex flush_mu_;
  std::condition_variable flush_cv_;
  std::condition_variable flush_done_cv_;
  std::deque<std::shared_ptr<ActiveTable>> flush_queue_;
  int flushes_in_flight_ = 0;
  std::vector<std::thread> flush_threads_;

  // Background index work, under one mutex: the index threads replay
  // the queued tables (lazy index trigger 2); the zone thread runs the
  // sub-skiplist compaction and the zone-to-L0 flush after a copy-flush,
  // so neither stalls the replays.
  std::mutex index_mu_;
  std::condition_variable index_cv_;
  std::condition_variable zone_cv_;
  std::condition_variable index_done_cv_;
  std::deque<std::shared_ptr<ActiveTable>> sync_queue_;
  bool compaction_requested_ = false;
  int index_work_in_flight_ = 0;
  std::vector<std::thread> index_threads_;
  std::thread zone_thread_;

  std::atomic<bool> shutting_down_{false};
};

}  // namespace cachekv

#endif  // CACHEKV_CORE_DB_H_
