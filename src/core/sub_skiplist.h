#ifndef CACHEKV_CORE_SUB_SKIPLIST_H_
#define CACHEKV_CORE_SUB_SKIPLIST_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/sub_memtable.h"
#include "index/skiplist.h"
#include "lsm/dbformat.h"
#include "lsm/iterator.h"
#include "pmem/pmem_env.h"
#include "util/arena.h"

namespace cachekv {

/// SubSkiplist is the DRAM-resident index of one sub-MemTable (§III-B).
/// Nodes hold a copy of the internal key plus the record's offset inside
/// the sub-MemTable's data region; values stay in the (persistent-cache
/// resident) sub-MemTable and are fetched on demand. Keeping the index in
/// DRAM shortens update latency, avoids PMem write amplification for the
/// small index writes, and saves cache footprint for KV data — the three
/// advantages §III-B lists.
///
/// A `list_counter` / `list_tail` pair mirrors the sub-MemTable's
/// table_counter/tail; syncing means replaying records in
/// [list_tail, tail) until the counters match.
///
/// Thread-safety: Sync* calls serialize on an internal mutex (they are
/// issued by the background index threads, a writer past the lag cap,
/// scans, and the flusher); Get/GetLive/iteration may run concurrently
/// with a sync (LevelDB skiplist reader guarantees).
class SubSkiplist {
 public:
  /// `data_base` is the PMem address of the table's data region; it is
  /// re-pointed by the copy-based flush when the data moves to the
  /// sub-ImmMemTable area.
  SubSkiplist(PmemEnv* env, uint64_t data_base);

  SubSkiplist(const SubSkiplist&) = delete;
  SubSkiplist& operator=(const SubSkiplist&) = delete;

  /// Catches up with the live table until list_counter == table_counter.
  /// Cheap when already in sync: one header read.
  Status SyncWithTable(const SubMemTable& table);

  /// Catches up to an explicit (counter, tail) target; used by the
  /// flusher's final sync and by crash recovery over relocated data.
  Status SyncTo(uint64_t target_counter, uint32_t target_tail);

  /// Freshest indexed entry for user_key.
  struct Candidate {
    SequenceNumber sequence = 0;
    ValueType type = kTypeValue;
    uint32_t record_offset = 0;
  };

  /// Returns true and fills *out when an entry for user_key exists.
  /// `max_sequence` bounds the read: the freshest version with
  /// sequence <= max_sequence answers (snapshot reads pass their
  /// pinned sequence; the default is the unbounded latest read).
  bool Get(const Slice& user_key, Candidate* out,
           SequenceNumber max_sequence = kMaxSequenceNumber) const;

  /// Get over the live `table` this index belongs to, replaying
  /// nothing: reads list_tail, then the table header, searches the
  /// index, and scans the records in [list_tail, header tail) read-only
  /// for the freshest version of user_key with sequence <= max_sequence.
  /// Every record below that list_tail is already linked, so nothing
  /// published before the header read is missed. *found reports a hit.
  /// The caller keeps the table's pool slot from being released (DB
  /// holds tables_mu_ shared).
  Status GetLive(const SubMemTable& table, const Slice& user_key,
                 SequenceNumber max_sequence, Candidate* out,
                 bool* found) const;

  /// Loads the value of a candidate from the table data.
  Status ReadValue(const Candidate& candidate, std::string* value) const;

  /// Marks the index final once its table's pool slot is about to be
  /// released: later Sync* calls return OK without reading the slot,
  /// whose next occupant has nothing to do with this index.
  void Retire() {
    std::lock_guard<std::mutex> lock(sync_mu_);
    retired_.store(true, std::memory_order_release);
  }

  /// Re-points the data region (copy-based flush relocation).
  void SetDataBase(uint64_t base) {
    data_base_.store(base, std::memory_order_release);
  }
  uint64_t data_base() const {
    return data_base_.load(std::memory_order_acquire);
  }

  uint64_t list_counter() const {
    return list_counter_.load(std::memory_order_acquire);
  }
  uint32_t list_tail() const {
    return list_tail_.load(std::memory_order_acquire);
  }

  /// Highest sequence number indexed so far.
  SequenceNumber max_sequence() const {
    return max_sequence_.load(std::memory_order_acquire);
  }

  /// Number of writes appended to the table but not yet indexed, based
  /// on the given table counter (trigger-2 bookkeeping).
  uint64_t Lag(uint64_t table_counter) const {
    uint64_t lc = list_counter();
    return table_counter > lc ? table_counter - lc : 0;
  }

  /// Iterator over indexed entries in internal-key order; value() loads
  /// record bytes from PMem lazily. The SubSkiplist must outlive it and
  /// keep its data region mapped.
  Iterator* NewIterator() const;

  /// Low-level ordered cursor over (internal key, record offset) pairs,
  /// used by the zone compactor's k-way merge.
  class RawCursor {
   public:
    virtual ~RawCursor() = default;
    virtual bool Valid() const = 0;
    virtual void SeekToFirst() = 0;
    virtual void Next() = 0;
    virtual Slice internal_key() const = 0;
    virtual uint32_t record_offset() const = 0;
  };

  /// Returns a cursor positioned before the first entry.
  std::unique_ptr<RawCursor> NewRawCursor() const;

  size_t ApproximateMemoryUsage() const { return arena_.MemoryUsage(); }

 private:
  friend class SubSkiplistRawCursor;

  struct KeyComparator {
    InternalKeyComparator comparator;
    int operator()(const char* a, const char* b) const;
  };
  typedef SkipList<const char*, KeyComparator> Index;

  class Iter;

  PmemEnv* env_;
  std::atomic<uint64_t> data_base_;
  KeyComparator comparator_;
  Arena arena_;
  Index index_;
  std::mutex sync_mu_;
  std::atomic<uint64_t> list_counter_{0};
  std::atomic<uint32_t> list_tail_{0};
  std::atomic<uint64_t> max_sequence_{0};
  std::atomic<bool> retired_{false};
};

}  // namespace cachekv

#endif  // CACHEKV_CORE_SUB_SKIPLIST_H_
