#include "core/flushed_zone.h"

#include <algorithm>

#include "core/record_format.h"
#include "fault/fail_point.h"
#include "lsm/merger.h"
#include "lsm/wal.h"
#include "util/coding.h"

namespace cachekv {

namespace {

Slice GlobalEntryKey(const char* entry) {
  uint32_t len;
  const char* p = GetVarint32Ptr(entry, entry + 5, &len);
  return Slice(p, len);
}

uint64_t GlobalEntryAddr(const char* entry) {
  Slice key = GlobalEntryKey(entry);
  return DecodeFixed64(key.data() + key.size());
}

const char* EncodeSeekEntry(std::string* scratch,
                            const Slice& internal_key) {
  scratch->clear();
  PutVarint32(scratch, static_cast<uint32_t>(internal_key.size()));
  scratch->append(internal_key.data(), internal_key.size());
  return scratch->data();
}

}  // namespace

int GlobalSkiplist::KeyComparator::operator()(const char* a,
                                              const char* b) const {
  return comparator.Compare(GlobalEntryKey(a), GlobalEntryKey(b));
}

GlobalSkiplist::GlobalSkiplist() : index_(comparator_, &arena_) {}

void GlobalSkiplist::Add(const Slice& internal_key, uint64_t addr) {
  const size_t encoded_len = VarintLength(internal_key.size()) +
                             internal_key.size() + sizeof(uint64_t);
  char* buf = arena_.Allocate(encoded_len);
  char* p = EncodeVarint32(buf,
                           static_cast<uint32_t>(internal_key.size()));
  memcpy(p, internal_key.data(), internal_key.size());
  p += internal_key.size();
  EncodeFixed64(p, addr);
  index_.Insert(buf);
  num_entries_++;
}

bool GlobalSkiplist::Get(const Slice& user_key, Candidate* out) const {
  std::string target_ikey;
  AppendInternalKey(&target_ikey, user_key, kMaxSequenceNumber,
                    kValueTypeForSeek);
  std::string scratch;
  Index::Iterator iter(&index_);
  iter.Seek(EncodeSeekEntry(&scratch, Slice(target_ikey)));
  if (!iter.Valid()) {
    return false;
  }
  Slice found = GlobalEntryKey(iter.key());
  ParsedInternalKey parsed;
  if (!ParseInternalKey(found, &parsed) || parsed.user_key != user_key) {
    return false;
  }
  out->sequence = parsed.sequence;
  out->type = parsed.type;
  out->record_addr = GlobalEntryAddr(iter.key());
  return true;
}

FlushedZone::FlushedZone(PmemEnv* env, uint64_t registry_base,
                         uint64_t registry_slot_size,
                         bool compaction_enabled,
                         obs::MetricsRegistry* metrics,
                         obs::Tracer* trace)
    : env_(env),
      registry_base_(registry_base),
      registry_slot_size_(registry_slot_size),
      compaction_enabled_(compaction_enabled),
      metrics_(metrics),
      trace_(trace),
      global_(std::make_shared<GlobalSkiplist>()) {}

uint32_t FlushedZone::ComputeDataCrc(PmemEnv* env, uint64_t region_offset,
                                     uint32_t data_tail) {
  std::string data(data_tail, '\0');
  env->Load(region_offset + SubMemTable::kDataOffset, data.data(),
            data_tail);
  return WalCrc(data.data(), data.size());
}

Status FlushedZone::PersistRegistryLocked() {
  std::string body;
  PutFixed64(&body, registry_epoch_ + 1);
  PutFixed32(&body, static_cast<uint32_t>(tables_.size()));
  for (const FlushedTable& t : tables_) {
    PutFixed64(&body, t.region_offset);
    PutFixed64(&body, t.region_size);
    PutFixed32(&body, t.data_tail);
    PutFixed64(&body, t.entry_count);
    PutFixed64(&body, t.max_sequence);
    PutFixed32(&body, t.data_crc);
  }
  std::string encoded;
  PutFixed32(&encoded, static_cast<uint32_t>(body.size()));
  PutFixed32(&encoded, WalCrc(body.data(), body.size()));
  encoded.append(body);
  if (encoded.size() > registry_slot_size_) {
    return Status::OutOfSpace("zone registry exceeds its slot");
  }
  const uint64_t slot =
      registry_base_ + ((registry_epoch_ + 1) % 2) * registry_slot_size_;
  if (fault::AnyActive()) {
    fault::InjectResult inj = fault::Evaluate("zone.persist");
    if (inj.torn) {
      // Torn A/B slot write: persist only an XPLine-aligned prefix of the
      // encoded registry. The epoch is not consumed, so a retry rewrites
      // this same (partially written) slot and never overwrites the last
      // fully-written one; recovery falls back to the surviving slot.
      uint64_t keep = (encoded.size() * (inj.rand % fault::kTearDenom)) /
                      fault::kTearDenom;
      keep -= keep % kXPLineSize;
      if (keep > 0) {
        env_->NtStore(slot, encoded.data(), keep);
        env_->Sfence();
      }
      return inj.status;
    }
    if (!inj.status.ok()) {
      return inj.status;
    }
  }
  env_->NtStore(slot, encoded.data(), encoded.size());
  env_->Sfence();
  registry_epoch_++;
  return Status::OK();
}

Status FlushedZone::AddTable(FlushedTable table) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  total_bytes_.fetch_add(table.data_tail, std::memory_order_release);
  uint64_t seen = max_sequence_.load(std::memory_order_relaxed);
  while (table.max_sequence > seen &&
         !max_sequence_.compare_exchange_weak(seen, table.max_sequence)) {
  }
  table.in_global = false;
  const uint32_t data_tail = table.data_tail;
  tables_.push_back(std::move(table));
  Status s = PersistRegistryLocked();
  if (!s.ok()) {
    // Roll back the in-memory add so a retried flush re-adds the table
    // exactly once. The monotonic max_sequence_ bump is harmless.
    tables_.pop_back();
    total_bytes_.fetch_sub(data_tail, std::memory_order_release);
  }
  return s;
}

void FlushedZone::Compact() {
  if (!compaction_enabled_) {
    return;
  }
  obs::SpanTimer span(metrics_, "zone.compact");
  obs::TraceScope trace(trace_, "zone.compact");
  // Snapshot the member tables.
  std::vector<std::shared_ptr<SubSkiplist>> indexes;
  std::vector<uint64_t> bases;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    indexes.reserve(tables_.size());
    for (const FlushedTable& t : tables_) {
      indexes.push_back(t.index);
      bases.push_back(t.index->data_base());
    }
  }

  // K-way merge of the sub-skiplists; only the first (freshest) entry
  // per user key survives -- the "invalid node" removal of Figure 9.
  // Tombstones are kept: they must mask older LSM data until the zone is
  // flushed to L0.
  auto rebuilt = std::make_shared<GlobalSkiplist>();
  struct MergeSource {
    std::unique_ptr<SubSkiplist::RawCursor> cursor;
    uint64_t base;
  };
  std::vector<MergeSource> sources;
  for (size_t i = 0; i < indexes.size(); i++) {
    MergeSource src;
    src.cursor = indexes[i]->NewRawCursor();
    src.base = bases[i];
    src.cursor->SeekToFirst();
    if (src.cursor->Valid()) {
      sources.push_back(std::move(src));
    }
  }
  std::string last_user_key;
  bool has_last = false;
  while (!sources.empty()) {
    size_t best = 0;
    for (size_t i = 1; i < sources.size(); i++) {
      if (icmp_.Compare(sources[i].cursor->internal_key(),
                        sources[best].cursor->internal_key()) < 0) {
        best = i;
      }
    }
    Slice ikey = sources[best].cursor->internal_key();
    Slice user_key = ExtractUserKey(ikey);
    if (!has_last || Slice(last_user_key) != user_key) {
      rebuilt->Add(ikey,
                   sources[best].base +
                       sources[best].cursor->record_offset());
      has_last = true;
      last_user_key.assign(user_key.data(), user_key.size());
    }
    sources[best].cursor->Next();
    if (!sources[best].cursor->Valid()) {
      sources.erase(sources.begin() + best);
    }
  }

  trace.AddArg("tables", indexes.size());
  trace.AddArg("entries", rebuilt->NumEntries());

  std::unique_lock<std::shared_mutex> lock(mu_);
  size_t still_present = 0;
  for (FlushedTable& t : tables_) {
    // Only tables included in this rebuild are covered; anything added
    // while we merged stays individually probed until the next pass.
    bool included = false;
    for (const auto& index : indexes) {
      if (index == t.index) {
        included = true;
        break;
      }
    }
    t.in_global = included;
    if (included) {
      still_present++;
    }
  }
  if (still_present != indexes.size()) {
    // A snapshot table left the zone while we merged (flushed to L0):
    // the rebuilt index would hold dangling addresses. Skip the swap.
    return;
  }
  global_ = rebuilt;
}

Status FlushedZone::Get(const Slice& user_key, LookupResult* out,
                        SequenceNumber max_sequence) {
  out->found = false;
  // The caller holds the shared lock; take a consistent view.
  std::shared_ptr<const GlobalSkiplist> global = global_;
  const bool bounded = max_sequence != kMaxSequenceNumber;

  SequenceNumber best_seq = 0;
  ValueType best_type = kTypeValue;
  uint64_t best_addr = 0;
  const SubSkiplist* best_table_index = nullptr;
  SubSkiplist::Candidate best_table_candidate;

  if (compaction_enabled_ && !bounded) {
    GlobalSkiplist::Candidate c;
    if (global->Get(user_key, &c)) {
      out->found = true;
      best_seq = c.sequence;
      best_type = c.type;
      best_addr = c.record_addr;
    }
  }
  // Probe tables not yet covered by the global skiplist (or all tables
  // when compaction is off). A bounded read probes every table: the
  // global skiplist dropped the superseded versions a snapshot may need.
  for (const FlushedTable& t : tables_) {
    if (compaction_enabled_ && !bounded && t.in_global) {
      continue;
    }
    SubSkiplist::Candidate c;
    if (t.index->Get(user_key, &c, max_sequence) &&
        (!out->found || c.sequence > best_seq)) {
      out->found = true;
      best_seq = c.sequence;
      best_type = c.type;
      best_addr = 0;
      best_table_index = t.index.get();
      best_table_candidate = c;
    }
  }
  if (!out->found) {
    return Status::OK();
  }
  out->sequence = best_seq;
  out->type = best_type;
  if (best_type == kTypeDeletion) {
    return Status::OK();
  }
  if (best_table_index != nullptr) {
    return best_table_index->ReadValue(best_table_candidate, &out->value);
  }
  RecordHeader record;
  if (!DecodeRecordHeaderAt(env_, best_addr, &record)) {
    return Status::Corruption("bad record under global skiplist node");
  }
  LoadRecordValue(env_, best_addr, record, &out->value);
  return Status::OK();
}

std::vector<FlushedTable> FlushedZone::SnapshotTables() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return tables_;
}

Iterator* FlushedZone::NewL0Stream(
    const std::vector<FlushedTable>& snapshot, DroppedEntryLog* dropped,
    std::vector<SequenceNumber> snapshots, DroppedEntryFn on_retain) {
  std::vector<Iterator*> children;
  children.reserve(snapshot.size());
  for (const FlushedTable& t : snapshot) {
    children.push_back(t.index->NewIterator());
  }
  DroppedEntryFn on_drop;
  if (dropped != nullptr) {
    on_drop = [dropped](const Slice& internal_key, const Slice& value) {
      dropped->emplace_back(internal_key.ToString(), value.ToString());
    };
  }
  return NewDedupingIterator(
      NewMergingIterator(&icmp_, std::move(children)), std::move(on_drop),
      std::move(snapshots), std::move(on_retain));
}

Status FlushedZone::DropTables(const std::vector<FlushedTable>& snapshot) {
  CACHEKV_FAIL_POINT("zone.drop");
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (const FlushedTable& dropped : snapshot) {
    for (size_t i = 0; i < tables_.size(); i++) {
      if (tables_[i].index == dropped.index) {
        total_bytes_.fetch_sub(tables_[i].data_tail,
                               std::memory_order_release);
        Status s = env_->allocator()->Free(tables_[i].region_offset,
                                           tables_[i].region_size);
        if (!s.ok()) {
          return s;
        }
        tables_.erase(tables_.begin() + i);
        break;
      }
    }
  }
  // The global skiplist may reference freed regions: replace it with an
  // empty one; remaining tables fall back to per-table probing until the
  // next compaction pass.
  global_ = std::make_shared<GlobalSkiplist>();
  for (FlushedTable& t : tables_) {
    t.in_global = false;
  }
  return PersistRegistryLocked();
}

Status FlushedZone::Recover() {
  CACHEKV_FAIL_POINT("zone.recover");
  // Read both registry slots; adopt the valid one with the higher epoch.
  auto read_slot = [&](int slot, uint64_t* epoch,
                       std::vector<FlushedTable>* out) -> Status {
    const uint64_t base = registry_base_ +
                          static_cast<uint64_t>(slot) *
                              registry_slot_size_;
    char header[8];
    env_->Load(base, header, sizeof(header));
    const uint32_t body_len = DecodeFixed32(header);
    const uint32_t crc = DecodeFixed32(header + 4);
    if (body_len == 0 || body_len > registry_slot_size_ - 8) {
      return Status::NotFound("empty zone registry slot");
    }
    std::string body(body_len, '\0');
    env_->Load(base + 8, body.data(), body_len);
    if (WalCrc(body.data(), body.size()) != crc) {
      return Status::Corruption("zone registry crc mismatch");
    }
    Slice in(body);
    if (in.size() < 12) {
      return Status::Corruption("zone registry too short");
    }
    *epoch = DecodeFixed64(in.data());
    uint32_t count = DecodeFixed32(in.data() + 8);
    in.remove_prefix(12);
    for (uint32_t i = 0; i < count; i++) {
      if (in.size() < 40) {
        return Status::Corruption("zone registry truncated");
      }
      FlushedTable t;
      t.region_offset = DecodeFixed64(in.data());
      t.region_size = DecodeFixed64(in.data() + 8);
      t.data_tail = DecodeFixed32(in.data() + 16);
      t.entry_count = DecodeFixed64(in.data() + 20);
      t.max_sequence = DecodeFixed64(in.data() + 28);
      t.data_crc = DecodeFixed32(in.data() + 36);
      in.remove_prefix(40);
      out->push_back(std::move(t));
    }
    return Status::OK();
  };

  uint64_t epoch_a = 0, epoch_b = 0;
  std::vector<FlushedTable> tables_a, tables_b;
  Status sa = read_slot(0, &epoch_a, &tables_a);
  Status sb = read_slot(1, &epoch_b, &tables_b);
  std::vector<FlushedTable>* chosen = nullptr;
  uint64_t chosen_epoch = 0;
  if (sa.ok() && (!sb.ok() || epoch_a > epoch_b)) {
    chosen = &tables_a;
    chosen_epoch = epoch_a;
  } else if (sb.ok()) {
    chosen = &tables_b;
    chosen_epoch = epoch_b;
  }

  std::unique_lock<std::shared_mutex> lock(mu_);
  tables_.clear();
  total_bytes_.store(0, std::memory_order_release);
  if (chosen == nullptr) {
    registry_epoch_ = 0;
    return Status::OK();  // fresh zone
  }
  registry_epoch_ = chosen_epoch;
  for (FlushedTable& t : *chosen) {
    Status s = env_->allocator()->Reserve(t.region_offset, t.region_size);
    if (!s.ok()) {
      return s;
    }
    // The registry named this table, but the staged bytes themselves may
    // have been damaged (torn copy, media corruption): verify the data
    // checksum before trusting a single record header.
    if (ComputeDataCrc(env_, t.region_offset, t.data_tail) != t.data_crc) {
      return Status::Corruption("zone table data crc mismatch");
    }
    t.index = std::make_shared<SubSkiplist>(
        env_, t.region_offset + SubMemTable::kDataOffset);
    s = t.index->SyncTo(t.entry_count, t.data_tail);
    if (!s.ok()) {
      return s;
    }
    total_bytes_.fetch_add(t.data_tail, std::memory_order_release);
    uint64_t seen = max_sequence_.load(std::memory_order_relaxed);
    if (t.max_sequence > seen) {
      max_sequence_.store(t.max_sequence, std::memory_order_release);
    }
    t.in_global = false;
    tables_.push_back(std::move(t));
  }
  lock.unlock();
  Compact();
  return Status::OK();
}

int FlushedZone::NumTables() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return static_cast<int>(tables_.size());
}

uint64_t FlushedZone::GlobalIndexEntries() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return global_->NumEntries();
}

}  // namespace cachekv
