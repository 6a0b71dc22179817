#ifndef CACHEKV_LSM_MEMTABLE_H_
#define CACHEKV_LSM_MEMTABLE_H_

#include <atomic>
#include <memory>
#include <string>

#include "index/skiplist.h"
#include "lsm/dbformat.h"
#include "lsm/iterator.h"
#include "util/arena.h"
#include "util/slice.h"
#include "util/status.h"

namespace cachekv {

/// DRAM-resident MemTable in the LevelDB style: an arena-backed skiplist
/// of encoded entries. Only tests use it, to build tables for the LSM
/// engine, the merger, and the failure-injection cases.
///
/// Thread-safety: one writer at a time (external synchronization), any
/// number of concurrent readers.
class MemTable {
 public:
  MemTable();

  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  /// Inserts an entry tagged (seq, type).
  void Add(SequenceNumber seq, ValueType type, const Slice& user_key,
           const Slice& value);

  /// Result of a point lookup against a memory component.
  enum class GetResult {
    kFound,     // *value filled
    kDeleted,   // freshest visible entry is a tombstone
    kNotFound,  // no visible entry
  };

  /// Looks up the freshest entry for user_key with sequence <= snapshot.
  GetResult Get(const Slice& user_key, SequenceNumber snapshot,
                std::string* value) const;

  /// Returns an iterator over the memtable (internal keys). The memtable
  /// must outlive the iterator.
  Iterator* NewIterator() const;

  size_t ApproximateMemoryUsage() const { return arena_.MemoryUsage(); }

  uint64_t NumEntries() const {
    return num_entries_.load(std::memory_order_acquire);
  }

 private:
  struct KeyComparator {
    InternalKeyComparator comparator;
    // Entries are length-prefixed internal keys followed by
    // length-prefixed values.
    int operator()(const char* a, const char* b) const;
  };

  typedef SkipList<const char*, KeyComparator> Table;

  class MemTableIterator;

  KeyComparator comparator_;
  Arena arena_;
  Table table_;
  std::atomic<uint64_t> num_entries_;
};

}  // namespace cachekv

#endif  // CACHEKV_LSM_MEMTABLE_H_
