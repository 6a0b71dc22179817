#include "core/sub_skiplist.h"

#include <cassert>

#include "util/coding.h"

namespace cachekv {

namespace {

// Node entry layout in the arena:
//   varint32 internal_key_len
//   internal key bytes (user key + fixed64 tag)
//   fixed32 record_offset (within the table's data region)
Slice EntryKey(const char* entry) {
  uint32_t len;
  const char* p = GetVarint32Ptr(entry, entry + 5, &len);
  return Slice(p, len);
}

uint32_t EntryOffset(const char* entry) {
  Slice key = EntryKey(entry);
  return DecodeFixed32(key.data() + key.size());
}

const char* EncodeSeekEntry(std::string* scratch,
                            const Slice& internal_key) {
  scratch->clear();
  PutVarint32(scratch, static_cast<uint32_t>(internal_key.size()));
  scratch->append(internal_key.data(), internal_key.size());
  return scratch->data();
}

}  // namespace

int SubSkiplist::KeyComparator::operator()(const char* a,
                                           const char* b) const {
  return comparator.Compare(EntryKey(a), EntryKey(b));
}

SubSkiplist::SubSkiplist(PmemEnv* env, uint64_t data_base)
    : env_(env), data_base_(data_base), index_(comparator_, &arena_) {}

Status SubSkiplist::SyncWithTable(const SubMemTable& table) {
  // Fast path: compare the counters without taking the mutex.
  SubMemTable::Header h = table.ReadHeader();
  if (h.counter == list_counter()) {
    return Status::OK();
  }
  // Repeat the catch-up until the counters agree: the table may keep
  // absorbing writes while we sync (§III-B).
  for (;;) {
    if (retired_.load(std::memory_order_acquire) ||
        h.counter < list_counter()) {
      // The slot was flushed, released, and recycled beneath a stale
      // sync request: this index is already final. Nothing to do.
      return Status::OK();
    }
    Status s = SyncTo(h.counter, h.tail);
    if (!s.ok()) {
      return s;
    }
    h = table.ReadHeader();
    if (h.counter == list_counter()) {
      return Status::OK();
    }
  }
}

Status SubSkiplist::SyncTo(uint64_t target_counter, uint32_t target_tail) {
  std::lock_guard<std::mutex> lock(sync_mu_);
  uint64_t counter = list_counter_.load(std::memory_order_relaxed);
  uint32_t tail = list_tail_.load(std::memory_order_relaxed);
  if (retired_.load(std::memory_order_relaxed) || counter >= target_counter) {
    return Status::OK();
  }
  const uint64_t base = data_base();
  std::string key;
  while (counter < target_counter && tail < target_tail) {
    RecordHeader record;
    if (!DecodeRecordHeaderAt(env_, base + tail, &record)) {
      return Status::Corruption("bad record during sub-skiplist sync");
    }
    LoadRecordKey(env_, base + tail, record, &key);

    // Build the index node: the internal key plus the record offset.
    std::string ikey;
    AppendInternalKey(&ikey, Slice(key), record.sequence, record.type);
    const size_t encoded_len =
        VarintLength(ikey.size()) + ikey.size() + sizeof(uint32_t);
    char* buf = arena_.Allocate(encoded_len);
    char* p = EncodeVarint32(buf, static_cast<uint32_t>(ikey.size()));
    memcpy(p, ikey.data(), ikey.size());
    p += ikey.size();
    EncodeFixed32(p, tail);
    index_.Insert(buf);

    uint64_t seen = max_sequence_.load(std::memory_order_relaxed);
    if (record.sequence > seen) {
      max_sequence_.store(record.sequence, std::memory_order_release);
    }
    tail += static_cast<uint32_t>(record.TotalSize());
    counter++;
    list_tail_.store(tail, std::memory_order_release);
    list_counter_.store(counter, std::memory_order_release);
  }
  if (counter < target_counter) {
    return Status::Corruption(
        "sub-memtable tail exhausted before counter target");
  }
  return Status::OK();
}

bool SubSkiplist::Get(const Slice& user_key, Candidate* out,
                      SequenceNumber max_sequence) const {
  // Internal keys order by sequence descending within a user key, so
  // seeking at max_sequence lands on the freshest version visible at
  // that bound (kMaxSequenceNumber = the unbounded latest read).
  std::string target_ikey;
  AppendInternalKey(&target_ikey, user_key, max_sequence,
                    kValueTypeForSeek);
  std::string scratch;
  Index::Iterator iter(&index_);
  iter.Seek(EncodeSeekEntry(&scratch, Slice(target_ikey)));
  if (!iter.Valid()) {
    return false;
  }
  Slice found = EntryKey(iter.key());
  ParsedInternalKey parsed;
  if (!ParseInternalKey(found, &parsed) || parsed.user_key != user_key) {
    return false;
  }
  out->sequence = parsed.sequence;
  out->type = parsed.type;
  out->record_offset = EntryOffset(iter.key());
  return true;
}

Status SubSkiplist::GetLive(const SubMemTable& table, const Slice& user_key,
                            SequenceNumber max_sequence, Candidate* out,
                            bool* found) const {
  uint32_t offset = list_tail();
  const uint32_t tail = table.ReadHeader().tail;
  *found = Get(user_key, out, max_sequence);
  const uint64_t base = table.data_offset();
  std::string key;
  while (offset < tail) {
    RecordHeader record;
    if (!DecodeRecordHeaderAt(env_, base + offset, &record)) {
      return Status::Corruption("bad record in unreplayed sub-memtable tail");
    }
    // Records of one table are in sequence order, but the index may have
    // linked past `offset` meanwhile: compare sequences, not positions.
    if (record.sequence <= max_sequence && record.key_len == user_key.size() &&
        (!*found || record.sequence > out->sequence)) {
      LoadRecordKey(env_, base + offset, record, &key);
      if (Slice(key) == user_key) {
        *found = true;
        out->sequence = record.sequence;
        out->type = record.type;
        out->record_offset = offset;
      }
    }
    offset += static_cast<uint32_t>(record.TotalSize());
  }
  return Status::OK();
}

Status SubSkiplist::ReadValue(const Candidate& candidate,
                              std::string* value) const {
  const uint64_t addr = data_base() + candidate.record_offset;
  RecordHeader record;
  if (!DecodeRecordHeaderAt(env_, addr, &record)) {
    return Status::Corruption("bad record under sub-skiplist candidate");
  }
  LoadRecordValue(env_, addr, record, value);
  return Status::OK();
}

class SubSkiplist::Iter : public Iterator {
 public:
  explicit Iter(const SubSkiplist* list)
      : list_(list), iter_(&list->index_) {}

  bool Valid() const override { return iter_.Valid(); }

  void SeekToFirst() override {
    iter_.SeekToFirst();
    loaded_ = false;
  }

  void Seek(const Slice& internal_key) override {
    iter_.Seek(EncodeSeekEntry(&scratch_, internal_key));
    loaded_ = false;
  }

  void Next() override {
    iter_.Next();
    loaded_ = false;
  }

  Slice key() const override { return EntryKey(iter_.key()); }

  Slice value() const override {
    if (!loaded_) {
      const uint64_t addr =
          list_->data_base() + EntryOffset(iter_.key());
      RecordHeader record;
      if (DecodeRecordHeaderAt(list_->env_, addr, &record)) {
        LoadRecordValue(list_->env_, addr, record, &value_);
      } else {
        value_.clear();
      }
      loaded_ = true;
    }
    return Slice(value_);
  }

  Status status() const override { return Status::OK(); }

 private:
  const SubSkiplist* list_;
  Index::Iterator iter_;
  std::string scratch_;
  mutable std::string value_;
  mutable bool loaded_ = false;
};

Iterator* SubSkiplist::NewIterator() const { return new Iter(this); }

class SubSkiplistRawCursor : public SubSkiplist::RawCursor {
 public:
  explicit SubSkiplistRawCursor(
      const SkipList<const char*, SubSkiplist::KeyComparator>* index)
      : iter_(index) {}

  bool Valid() const override { return iter_.Valid(); }
  void SeekToFirst() override { iter_.SeekToFirst(); }
  void Next() override { iter_.Next(); }
  Slice internal_key() const override { return EntryKey(iter_.key()); }
  uint32_t record_offset() const override {
    return EntryOffset(iter_.key());
  }

 private:
  SkipList<const char*, SubSkiplist::KeyComparator>::Iterator iter_;
};

std::unique_ptr<SubSkiplist::RawCursor> SubSkiplist::NewRawCursor() const {
  return std::make_unique<SubSkiplistRawCursor>(&index_);
}

}  // namespace cachekv
