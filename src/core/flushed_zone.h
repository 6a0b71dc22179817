#ifndef CACHEKV_CORE_FLUSHED_ZONE_H_
#define CACHEKV_CORE_FLUSHED_ZONE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/sub_skiplist.h"
#include "index/skiplist.h"
#include "lsm/dbformat.h"
#include "lsm/iterator.h"
#include "lsm/merger.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pmem/pmem_env.h"
#include "util/arena.h"

namespace cachekv {

/// One sub-ImmMemTable that was copy-flushed out of the CPU caches into
/// the PMem staging area (§III-C/§III-D).
struct FlushedTable {
  uint64_t region_offset = 0;  // region start (header + data copied)
  uint64_t region_size = 0;    // allocated size
  uint32_t data_tail = 0;      // bytes of records in the data region
  uint64_t entry_count = 0;
  SequenceNumber max_sequence = 0;
  /// Checksum of the data_tail record bytes, persisted in the zone
  /// registry so recovery can tell clobbered table data from a valid
  /// staged table (the record format itself carries no checksums).
  uint32_t data_crc = 0;
  std::shared_ptr<SubSkiplist> index;  // re-pointed at the copy
  /// Whether the current global skiplist already covers this table;
  /// readers probe uncovered tables individually until the next
  /// compaction pass.
  bool in_global = false;
};

/// GlobalSkiplist is the compacted DRAM index over every flushed
/// sub-ImmMemTable: one entry per live (user key, seq) with invalid
/// (superseded) nodes removed (§III-D, Figure 9). It is immutable once
/// built; the compactor swaps in a fresh one.
class GlobalSkiplist {
 public:
  GlobalSkiplist();

  GlobalSkiplist(const GlobalSkiplist&) = delete;
  GlobalSkiplist& operator=(const GlobalSkiplist&) = delete;

  /// Adds an entry during construction (single-threaded build). `addr`
  /// is the absolute PMem address of the record.
  void Add(const Slice& internal_key, uint64_t addr);

  struct Candidate {
    SequenceNumber sequence = 0;
    ValueType type = kTypeValue;
    uint64_t record_addr = 0;
  };

  /// Freshest entry for user_key.
  bool Get(const Slice& user_key, Candidate* out) const;

  uint64_t NumEntries() const { return num_entries_; }

 private:
  struct KeyComparator {
    InternalKeyComparator comparator;
    int operator()(const char* a, const char* b) const;
  };
  typedef SkipList<const char*, KeyComparator> Index;

  KeyComparator comparator_;
  Arena arena_;
  Index index_;
  uint64_t num_entries_ = 0;
};

/// FlushedZone holds the sub-ImmMemTables staged in PMem between the
/// copy-based flush and the flush to the LSM-tree's L0 level. It offers
/// two read paths, matching the paper's ablation:
///
///   * compacted (SC on): a global skiplist over all live entries;
///   * uncompacted (SC off / PCSM+LIU): probe every table's sub-skiplist.
///
/// The zone's membership is persisted in a small A/B registry in the
/// fixed metadata area so crash recovery can re-adopt staged tables.
///
/// Thread-safe. Readers must call Get/ReadValue while holding the lock
/// from LockShared() so the L0 flush cannot free a region under them.
class FlushedZone {
 public:
  /// `metrics` and `trace` are optional observability sinks (the zone
  /// records its compaction passes there); both must outlive the zone
  /// when given.
  FlushedZone(PmemEnv* env, uint64_t registry_base,
              uint64_t registry_slot_size, bool compaction_enabled,
              obs::MetricsRegistry* metrics = nullptr,
              obs::Tracer* trace = nullptr);

  FlushedZone(const FlushedZone&) = delete;
  FlushedZone& operator=(const FlushedZone&) = delete;

  /// Checksum over a staged table's record bytes, as stored in
  /// FlushedTable::data_crc. Producers call this right after copying the
  /// table into its zone region; Recover() recomputes and compares.
  static uint32_t ComputeDataCrc(PmemEnv* env, uint64_t region_offset,
                                 uint32_t data_tail);

  /// Adds a freshly copy-flushed table and persists the registry.
  Status AddTable(FlushedTable table);

  /// Rebuilds the compacted global skiplist from the current tables
  /// (invoked by the background index thread; §III-D). No-op when
  /// compaction is disabled.
  void Compact();

  struct LookupResult {
    bool found = false;
    SequenceNumber sequence = 0;
    ValueType type = kTypeValue;
    std::string value;  // filled when type == kTypeValue
  };

  /// Looks up the freshest zone entry for user_key with sequence <=
  /// max_sequence; reads the value bytes from PMem. Caller holds
  /// LockShared(). Bounded lookups (snapshot reads) bypass the global
  /// skiplist — it indexes only the freshest version per key — and
  /// probe every table's sub-skiplist, which indexes all versions.
  Status Get(const Slice& user_key, LookupResult* out,
             SequenceNumber max_sequence = kMaxSequenceNumber);

  /// Total staged bytes (drives the flush-to-L0 trigger).
  uint64_t TotalBytes() const {
    return total_bytes_.load(std::memory_order_acquire);
  }
  SequenceNumber MaxSequence() const {
    return max_sequence_.load(std::memory_order_acquire);
  }
  int NumTables() const;
  uint64_t GlobalIndexEntries() const;

  /// Copy of the current membership, used to run a flush-to-L0 cycle
  /// against a stable set while new copy-flushes keep arriving.
  std::vector<FlushedTable> SnapshotTables() const;

  /// Sorted stream over a snapshot's entries with superseded versions
  /// removed (freshest per user key survives, tombstones included): the
  /// deferred space reclamation of §III-D. Feed this to the LSM's L0
  /// builder. The snapshot's tables must stay in the zone until the
  /// returned iterator is destroyed. When `dropped` is non-null it
  /// collects a copy of every superseded entry the stream discards;
  /// `dropped` must outlive the iterator. The caller delivers the buffer
  /// to its dead-entry observer only after the flush commits, so a
  /// retried flush cannot double-count the same drops.
  ///
  /// `snapshots` (sorted ascending) lists the pinned snapshot sequence
  /// numbers at pass start; superseded versions a pinned snapshot still
  /// resolves survive the dedup (docs/SNAPSHOTS.md), and `on_retain`
  /// observes each such extra version kept.
  Iterator* NewL0Stream(const std::vector<FlushedTable>& snapshot,
                        DroppedEntryLog* dropped = nullptr,
                        std::vector<SequenceNumber> snapshots = {},
                        DroppedEntryFn on_retain = nullptr);

  /// Removes and frees exactly the snapshot's tables (after they were
  /// written to L0) and persists the registry. Takes the exclusive lock
  /// internally.
  Status DropTables(const std::vector<FlushedTable>& snapshot);

  /// Restores zone membership from the persistent registry after a
  /// crash: reserves regions, rebuilds each table's sub-skiplist from its
  /// records, and recompacts.
  Status Recover();

  std::shared_lock<std::shared_mutex> LockShared() {
    return std::shared_lock<std::shared_mutex>(mu_);
  }

 private:
  Status PersistRegistryLocked();

  PmemEnv* env_;
  uint64_t registry_base_;
  uint64_t registry_slot_size_;
  bool compaction_enabled_;
  obs::MetricsRegistry* metrics_;  // may be null
  obs::Tracer* trace_;             // may be null
  InternalKeyComparator icmp_;

  mutable std::shared_mutex mu_;
  std::vector<FlushedTable> tables_;
  std::shared_ptr<const GlobalSkiplist> global_;
  uint64_t registry_epoch_ = 0;
  std::atomic<uint64_t> total_bytes_{0};
  std::atomic<uint64_t> max_sequence_{0};
};

}  // namespace cachekv

#endif  // CACHEKV_CORE_FLUSHED_ZONE_H_
