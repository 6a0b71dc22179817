#include "core/db.h"

#include <algorithm>
#include <thread>

#include "core/record_format.h"
#include "fault/fail_point.h"
#include "lsm/merger.h"
#include "pmem/meta_layout.h"
#include "util/json.h"

namespace cachekv {

DB::DB(PmemEnv* env, const CacheKVOptions& options)
    : env_(env),
      options_(options),
      trace_(options.trace_events_per_thread),
      bg_errors_(BackgroundErrorManager::Policy{options.max_bg_retries,
                                                options.bg_backoff_base_ms,
                                                options.bg_backoff_max_ms},
                 &metrics_, &trace_),
      pool_(std::make_unique<SubMemTablePool>(env, options)),
      zone_(std::make_unique<FlushedZone>(
          env, MetaLayout::ZoneRegistryBase(env),
          MetaLayout::kZoneRegistrySlotSize, options.zone_compaction,
          &metrics_, &trace_)),
      engine_(std::make_unique<LsmEngine>(env, options.lsm,
                                          MetaLayout::ManifestBase(env),
                                          &metrics_, &trace_)),
      vlog_(std::make_unique<ValueLog>(
          env, &metrics_, MetaLayout::VlogRegistryBase(env),
          MetaLayout::kVlogRegistrySlotSize, options.vlog_segment_bytes)),
      puts_(metrics_.GetCounter("db.puts")),
      gets_(metrics_.GetCounter("db.gets")),
      seals_(metrics_.GetCounter("db.seals")),
      copy_flushes_(metrics_.GetCounter("db.copy_flushes")),
      zone_flushes_(metrics_.GetCounter("db.zone_flushes")),
      index_syncs_(metrics_.GetCounter("db.index_syncs")),
      acquire_waits_(metrics_.GetCounter("db.acquire_waits")),
      write_stalls_(metrics_.GetCounter("db.write_stalls")),
      get_hit_submemtable_(
          metrics_.GetCounter("db.get_hit_submemtable")),
      get_hit_zone_(metrics_.GetCounter("db.get_hit_zone")),
      get_hit_lsm_(metrics_.GetCounter("db.get_hit_lsm")),
      get_miss_(metrics_.GetCounter("db.get_miss")),
      ingest_bytes_(metrics_.GetCounter("db.ingest_bytes")),
      separated_puts_(metrics_.GetCounter("db.separated_puts")),
      snap_pins_(metrics_.GetCounter("snap.pins")),
      snap_releases_(metrics_.GetCounter("snap.releases")),
      snap_retained_bytes_(metrics_.GetCounter("snap.retained_bytes")) {
  trace_.set_enabled(options_.trace_enabled ||
                     obs::TraceEnabledFromEnv());
  metadata_.resize(options_.num_cores);
  // Flush and compaction report every superseded pointer entry they drop
  // back to the value log as dead bytes (the GC's liveness signal). Each
  // internal-key version is dropped exactly once across the two sites:
  // both buffer their drops and deliver them only after the pass
  // commits, so the background-error retry machinery cannot replay the
  // same drops and inflate dead ratios.
  drop_observer_ = [this](const Slice& internal_key, const Slice& value) {
    ParsedInternalKey parsed;
    if (!ParseInternalKey(internal_key, &parsed) ||
        parsed.type != kTypeValuePointer) {
      return;
    }
    ValuePointer ptr;
    if (DecodeValuePointer(value, &ptr)) {
      vlog_->AddDeadBytes(ptr, parsed.user_key.size());
    }
  };
  engine_->SetDroppedEntryObserver(drop_observer_);
  // Compaction passes capture the pinned snapshots at pass start and
  // retain every version a pin still resolves (docs/SNAPSHOTS.md).
  engine_->SetSnapshotProvider([this] { return PinnedSnapshots(); });
}

Status DB::Open(PmemEnv* env, const CacheKVOptions& options, bool recover,
                std::unique_ptr<DB>* db) {
  if (env->locked_size() != options.pool_bytes) {
    return Status::InvalidArgument(
        "env cat_locked_bytes must equal the sub-MemTable pool size");
  }
  if (env->options().domain != PersistDomain::kEadr) {
    return Status::InvalidArgument(
        "CacheKV requires persistent CPU caches (eADR)");
  }
  // Validate before constructing: the pool is built in the DB
  // constructor, which clamps rather than checks.
  Status s = SubMemTablePool::ValidateOptions(options);
  if (!s.ok()) {
    return s;
  }
  std::unique_ptr<DB> d(new DB(env, options));
  s = d->engine_->Open(recover);
  if (!s.ok()) {
    return s;
  }
  if (recover) {
    // §III-E: recover the staged zone, then evacuate any sub-MemTable
    // that survived in the persistent caches into the zone, rebuilding
    // its sub-skiplist from the data first.
    s = d->zone_->Recover();
    if (!s.ok()) {
      return s;
    }
    // Re-adopt the value-log segments (reserving their regions) before
    // the pool scan so every persistent region is accounted for.
    s = d->vlog_->Recover();
    if (!s.ok()) {
      return s;
    }
    uint64_t max_seq = std::max<uint64_t>(d->engine_->LastSequence(),
                                          d->zone_->MaxSequence());
    // Cross-check against the vlog heads: torn-off appends may have
    // consumed sequence numbers whose pointers never committed; starting
    // below them would let a future write collide with an orphan record.
    max_seq = std::max<uint64_t>(max_seq, d->vlog_->MaxSequence());
    s = d->pool_->RecoverScan([&](const SubMemTable& table) -> Status {
      SubMemTable::Header h = table.ReadHeader();
      auto index =
          std::make_shared<SubSkiplist>(env, table.data_offset());
      Status rs = index->SyncTo(h.counter, h.tail);
      if (!rs.ok()) {
        return rs;
      }
      if (index->max_sequence() > max_seq) {
        max_seq = index->max_sequence();
      }
      // Copy the recovered table into the sub-ImmMemTable area so the
      // pool slot can be reused.
      const uint64_t copy_len = SubMemTable::kDataOffset + h.tail;
      const uint64_t region_size = AlignUp(copy_len, kXPLineSize);
      uint64_t region = 0;
      rs = env->allocator()->Allocate(region_size, &region);
      if (!rs.ok()) {
        return rs;
      }
      char buf[4096];
      for (uint64_t off = 0; off < copy_len; off += sizeof(buf)) {
        const size_t chunk = static_cast<size_t>(
            std::min<uint64_t>(sizeof(buf), copy_len - off));
        env->Load(table.slot_offset() + off, buf, chunk);
        env->NtStore(region + off, buf, chunk);
      }
      env->Sfence();
      index->SetDataBase(region + SubMemTable::kDataOffset);
      FlushedTable ft;
      ft.region_offset = region;
      ft.region_size = region_size;
      ft.data_tail = h.tail;
      ft.entry_count = h.counter;
      ft.max_sequence = index->max_sequence();
      ft.data_crc = FlushedZone::ComputeDataCrc(env, region, h.tail);
      ft.index = std::move(index);
      return d->zone_->AddTable(std::move(ft));
    });
    if (!s.ok()) {
      return s;
    }
    d->zone_->Compact();
    d->sequencer_.Reset(max_seq);
    d->flushed_hwm_.store(d->zone_->MaxSequence(),
                          std::memory_order_release);
    d->l0_hwm_.store(d->engine_->LastSequence(),
                     std::memory_order_release);
  } else {
    d->pool_->Format();
    s = d->vlog_->Format();
    if (!s.ok()) {
      return s;
    }
  }

  for (int i = 0; i < options.num_flush_threads; i++) {
    d->flush_threads_.emplace_back(&DB::FlushThread, d.get());
  }
  for (int i = 0; i < options.num_index_threads; i++) {
    d->index_threads_.emplace_back(&DB::IndexThread, d.get());
  }
  d->zone_thread_ = std::thread(&DB::ZoneThread, d.get());
  DB* raw = d.get();
  d->vlog_gc_ = std::make_unique<VlogGc>(
      d->vlog_.get(), &d->metrics_,
      [raw](SequenceNumber seq, const Slice& key,
            const ValuePointer& old_ptr, const Slice& value,
            bool* relocated, bool* snapshot_pinned) {
        return raw->RelocateForGc(seq, key, old_ptr, value, relocated,
                                  snapshot_pinned);
      },
      options.vlog_gc_dead_ratio, options.vlog_gc_interval_ms);
  d->vlog_gc_->Start();
  *db = std::move(d);
  return Status::OK();
}

DB::~DB() {
  // Stop the GC first: its relocation writes go through the normal write
  // path and must not race the teardown of the background threads.
  if (vlog_gc_ != nullptr) {
    vlog_gc_->Stop();
  }
  shutting_down_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(flush_mu_);
    flush_cv_.notify_all();
    flush_done_cv_.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(index_mu_);
    index_cv_.notify_all();
    zone_cv_.notify_all();
  }
  for (auto& t : flush_threads_) {
    if (t.joinable()) t.join();
  }
  for (auto& t : index_threads_) {
    if (t.joinable()) t.join();
  }
  if (zone_thread_.joinable()) zone_thread_.join();
}

std::string DB::Name() const {
  if (!options_.lazy_index_update && !options_.zone_compaction) {
    return "CacheKV-PCSM";
  }
  if (!options_.zone_compaction) {
    return "CacheKV-PCSM+LIU";
  }
  if (!options_.lazy_index_update) {
    return "CacheKV-PCSM+SC";
  }
  return "CacheKV";
}

int DB::CoreOf() {
  static std::atomic<int> next_thread_slot{0};
  thread_local int thread_slot = -1;
  if (thread_slot < 0) {
    thread_slot = next_thread_slot.fetch_add(1, std::memory_order_relaxed);
  }
  // Map threads onto at most min(num_cores, pool slots) writer slots so
  // progress is guaranteed even when the pool currently has fewer tables
  // than cores (the pool capacity is fixed; see §III-A).
  int slots = std::min(options_.num_cores, pool_->ApproxNumSlots());
  if (slots < 1) slots = 1;
  return thread_slot % slots;
}

Status DB::AcquireFor(int core) {
  OBS_SPAN(&metrics_, "put.acquire");
  SubMemTable table(env_, 0, SubMemTable::kDataOffset + kCacheLineSize);
  // Write-stall deadline: if the flushers cannot recycle a slot within
  // the budget (e.g. they are stuck in retry backoff), fail the write
  // instead of blocking the caller forever.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.write_stall_timeout_ms);
  for (;;) {
    Status s = pool_->Acquire(&table);
    if (s.ok()) {
      break;
    }
    if (!s.IsBusy()) {
      return s;
    }
    acquire_waits_->Increment();
    trace_.Instant("acquire.wait");
    // Wait for the copy-based flush to free a table.
    std::unique_lock<std::mutex> lock(flush_mu_);
    Status gate = bg_errors_.CheckWritable();
    if (!gate.ok()) {
      return gate;
    }
    if (shutting_down_.load(std::memory_order_acquire)) {
      return Status::Busy("shutting down");
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      write_stalls_->Increment();
      trace_.Instant("write.stall");
      return Status::Busy(
          "write stalled: sealed-table queue is not draining");
    }
    flush_done_cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
  auto active = std::make_shared<ActiveTable>(env_, table);
  {
    std::unique_lock<std::shared_mutex> lock(tables_mu_);
    live_tables_.push_back(active);
  }
  metadata_[core] = std::move(active);
  return Status::OK();
}

Status DB::SealAndReplace(int core,
                          std::shared_ptr<ActiveTable> current) {
  SubMemTable::Header h = current->table.ReadHeader();
  if (!current->table.Seal()) {
    return Status::Corruption("seal failed: unexpected table state");
  }
  seals_->Increment();
  trace_.Instant("seal", "bytes", h.tail);
  metadata_[core] = nullptr;
  if (h.counter == 0) {
    // Nothing to flush: recycle the empty table immediately (it was too
    // small for the record being appended).
    {
      std::unique_lock<std::shared_mutex> lock(tables_mu_);
      live_tables_.erase(
          std::remove(live_tables_.begin(), live_tables_.end(), current),
          live_tables_.end());
    }
    Status rs = pool_->Release(current->table);
    if (!rs.ok()) {
      // A release mismatch means the pool directory no longer describes
      // the slot: corruption, not a retryable condition.
      bg_errors_.RaiseHardError("pool.release", rs);
      return rs;
    }
  } else {
    std::lock_guard<std::mutex> lock(flush_mu_);
    flush_queue_.push_back(std::move(current));
    flush_cv_.notify_one();
  }
  return AcquireFor(core);
}

Status DB::AppendRecords(int core, const Slice& records, uint32_t count) {
  for (int attempt = 0; attempt < 16; attempt++) {
    std::shared_ptr<ActiveTable> t = metadata_[core];
    if (t == nullptr) {
      Status s = AcquireFor(core);
      if (!s.ok()) {
        return s;
      }
      t = metadata_[core];
    }
    Status s;
    {
      OBS_SPAN(&metrics_, "put.append");
      s = t->table.AppendEncoded(records, count);
    }
    if (s.IsOutOfSpace()) {
      s = SealAndReplace(core, std::move(t));
      if (!s.ok()) {
        return s;
      }
      continue;  // retry on the fresh table
    }
    if (!s.ok()) {
      return s;
    }
    if (!options_.lazy_index_update) {
      // PCSM mode: diligently update the sub-skiplist on every write.
      OBS_SPAN(&metrics_, "put.index_sync");
      return Replay(t.get());
    }
    uint64_t pending = t->writes_since_sync.fetch_add(
                           count, std::memory_order_relaxed) +
                       count;
    if (pending >= options_.sync_write_threshold) {
      t->writes_since_sync.store(0, std::memory_order_relaxed);
      if (t->index->Lag(t->table.ReadHeader().counter) >
          kMaxLagThresholds * options_.sync_write_threshold) {
        // The index threads fell behind (stalled, or backing off after
        // an error): this writer replays its table itself. A failure is
        // left to the queued request, whose retries own error handling.
        OBS_SPAN(&metrics_, "put.index_sync");
        if (Replay(t.get()).ok()) {
          return s;
        }
      }
      ScheduleSync(t);
    }
    return s;
  }
  return Status::OutOfSpace(
      "records do not fit any available sub-memtable");
}

bool DB::ShouldSeparate(const Slice& key, const Slice& value) const {
  return options_.value_separation_threshold > 0 &&
         value.size() >= options_.value_separation_threshold &&
         vlog_->Fits(key.size(), value.size());
}

namespace {

/// Settles a reserved sequence block on every exit path, as committed with
/// `ops` (for the hook; null for a GC relocation) once `committed` is set.
/// Vlog records of a failed write are orphans, credited back as dead.
struct SettleBlock {
  Sequencer* sequencer;
  ValueLog* vlog;
  Sequencer::Block* block;
  const std::vector<KVStore::BatchOp>* ops = nullptr;
  bool committed = false;
  std::vector<std::pair<ValuePointer, size_t>> appended = {};  // + key len
  ~SettleBlock() {
    if (!committed) {
      for (const auto& [ptr, key_len] : appended) {
        vlog->AddDeadBytes(ptr, key_len);
      }
    }
    sequencer->Settle(block, committed ? ops : nullptr);
  }
};

/// A single-key write as a one-op batch. The batch is per thread and
/// reused, so a steady stream of Puts allocates nothing here; nothing
/// keeps a reference past the MultiPut call (a deferred commit hook
/// copies its ops).
const std::vector<KVStore::BatchOp>& OneOpBatch(bool is_delete,
                                                const Slice& key,
                                                const Slice& value) {
  thread_local std::vector<KVStore::BatchOp> batch(1);
  batch[0].is_delete = is_delete;
  batch[0].key.assign(key.data(), key.size());
  batch[0].value.assign(value.data(), value.size());
  return batch;
}

}  // namespace

Status DB::Put(const Slice& key, const Slice& value) {
  return MultiPut(OneOpBatch(false, key, value));
}

Status DB::Delete(const Slice& key) {
  return MultiPut(OneOpBatch(true, key, Slice()));
}

Status DB::MultiPut(const std::vector<BatchOp>& batch,
                    SequenceNumber* committed_seq) {
  OBS_SPAN(&metrics_, "put");
  // Background-error propagation: once a flush/index/compaction stage
  // failed hard, acknowledge no further writes.
  Status gate = bg_errors_.CheckWritable();
  if (!gate.ok()) {
    return gate;
  }
  if (batch.empty()) {
    return Status::OK();
  }
  // Key–value separation: a large value goes to the value log and the
  // memory component carries a 16-byte pointer (values too large for a
  // vlog segment stay inline and face the size check below).
  auto separate = [this](const BatchOp& op) {
    return !op.is_delete && ShouldSeparate(Slice(op.key), Slice(op.value));
  };
  size_t encoded_bound = 0;
  uint64_t ingest_bytes = 0;
  for (const BatchOp& op : batch) {
    if (op.key.empty()) {
      return Status::InvalidArgument("empty key in batch");
    }
    encoded_bound += MaxRecordSize(
        op.key.size(), separate(op) ? kValuePointerSize : op.value.size());
    ingest_bytes += op.key.size() + op.value.size();
  }
  if (encoded_bound >
      options_.sub_memtable_bytes - SubMemTable::kDataOffset) {
    return Status::InvalidArgument(
        "batch larger than a full-size sub-memtable");
  }
  puts_->Increment(batch.size());
  // A single-key write is a one-op batch; only real batches are traced.
  obs::TraceScope trace(batch.size() > 1 ? &trace_ : nullptr, "multiput");
  trace.AddArg("keys", batch.size());
  const int core = CoreOf();
  std::lock_guard<std::mutex> core_lock(core_mu_[core % kMaxCoreLocks]);
  // Reserved under the core lock, so the records of one sub-MemTable stay
  // in sequence order, and settled before it is released.
  SettleBlock settle{&sequencer_, vlog_.get(),
                     sequencer_.Reserve(batch.size()), &batch};
  std::string records;
  records.reserve(encoded_bound);
  SequenceNumber seq = settle.block->first;
  for (const BatchOp& op : batch) {
    if (separate(op)) {
      // The value must be durable in the log before the batch's
      // single-CAS publish: recovery replays a pointer only if its
      // record frame checks out, so an acked key never dangles.
      ValuePointer ptr;
      Status vs = vlog_->Append(seq, Slice(op.key), Slice(op.value), &ptr);
      if (!vs.ok()) {
        return vs;
      }
      settle.appended.emplace_back(ptr, op.key.size());
      std::string encoded_ptr;
      EncodeValuePointer(&encoded_ptr, ptr);
      EncodeRecord(&records, seq++, kTypeValuePointer, Slice(op.key),
                   Slice(encoded_ptr));
    } else {
      EncodeRecord(&records, seq++,
                   op.is_delete ? kTypeDeletion : kTypeValue,
                   Slice(op.key), Slice(op.value));
    }
  }
  Status s = AppendRecords(core, Slice(records),
                           static_cast<uint32_t>(batch.size()));
  if (!s.ok()) {
    return s;
  }
  settle.committed = true;
  ingest_bytes_->fetch_add(ingest_bytes);
  if (!settle.appended.empty()) {
    separated_puts_->Increment(settle.appended.size());
  }
  if (committed_seq != nullptr) {
    *committed_seq = settle.block->last;
  }
  return s;
}

uint64_t DB::ApproxMultiPutCapacityBytes() const {
  // Elasticity (§III-A) can hand out tables shrunk to the minimum size
  // class, so a batch bounded by that class commits after at most one
  // seal-and-replace; halving leaves headroom for per-record framing.
  const uint64_t slot = options_.min_sub_memtable_bytes;
  if (slot <= SubMemTable::kDataOffset) {
    return 0;
  }
  return (slot - SubMemTable::kDataOffset) / 2;
}

const DB::Snapshot* DB::GetSnapshot() {
  // Pin the last reserved sequence (not the watermark, which a later
  // write can outrun into a flushed table), read with the insert under
  // one lock: a flush or compaction pass sees the pin or took only inputs
  // at or below it. RelocateForGc takes this lock mid-block: wait outside.
  std::unique_lock<std::mutex> lock(snapshots_mu_);
  if (pinned_snapshots_.size() >= options_.max_pinned_snapshots) {
    return nullptr;
  }
  const SequenceNumber seq = LastSequence();
  pinned_snapshots_.insert(seq);
  lock.unlock();
  sequencer_.WaitVisible(seq);
  snap_pins_->Increment();
  trace_.Instant("snapshot.pin", "seq", seq);
  return new Snapshot(seq);
}

void DB::ReleaseSnapshot(const Snapshot* snapshot) {
  if (snapshot == nullptr) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(snapshots_mu_);
    auto it = pinned_snapshots_.find(snapshot->sequence());
    if (it != pinned_snapshots_.end()) {
      pinned_snapshots_.erase(it);
    }
  }
  snap_releases_->Increment();
  trace_.Instant("snapshot.release", "seq", snapshot->sequence());
  delete snapshot;
}

std::vector<SequenceNumber> DB::PinnedSnapshots() const {
  std::lock_guard<std::mutex> lock(snapshots_mu_);
  return std::vector<SequenceNumber>(pinned_snapshots_.begin(),
                                     pinned_snapshots_.end());
}

Iterator* DB::NewScanIterator() {
  return NewScanIteratorAt(kMaxSequenceNumber);
}

Iterator* DB::NewScanIteratorAt(SequenceNumber snapshot) {
  // The scan pins the memory component for its lifetime: the locks are
  // owned by the returned iterator.
  class ScanIterator : public Iterator {
   public:
    ScanIterator(DB* db, SequenceNumber snapshot)
        : tables_lock_(db->tables_mu_),
          zone_lock_(db->zone_->LockShared()),
          vlog_pin_(db->vlog_->PinSegments()) {
      std::vector<Iterator*> children;
      for (const auto& t : db->live_tables_) {
        // Read trigger: the iterator walks the index alone, so it must
        // hold every record published so far.
        Status s = db->Replay(t.get());
        if (!s.ok()) {
          status_ = s;
        }
        children.push_back(t->index->NewIterator());
        pinned_.push_back(t);
      }
      zone_tables_ = db->zone_->SnapshotTables();
      for (const FlushedTable& zt : zone_tables_) {
        children.push_back(zt.index->NewIterator());
      }
      children.push_back(db->engine_->NewIterator());
      // The pin blocks vlog GC from unlinking segments for the scan's
      // lifetime, so pointer resolution below can never hit a recycled
      // segment.
      ValueLog* vlog = db->vlog_.get();
      // A bounded scan filters out versions newer than the snapshot
      // BEFORE the dedup, so the freshest *visible* version per key
      // wins (a fresher invisible one must not shadow it).
      Iterator* merged =
          NewMergingIterator(&db->scan_icmp_, std::move(children));
      if (snapshot != kMaxSequenceNumber) {
        merged = NewSnapshotFilterIterator(merged, snapshot);
      }
      impl_.reset(NewUserKeyIterator(
          NewDedupingIterator(merged),
          [vlog](const Slice& internal_key, const Slice& raw_value,
                 std::string* value) -> Status {
            ParsedInternalKey parsed;
            if (!ParseInternalKey(internal_key, &parsed) ||
                parsed.type != kTypeValuePointer) {
              return Status::Corruption("resolver on a non-pointer entry");
            }
            ValuePointer ptr;
            if (!DecodeValuePointer(raw_value, &ptr)) {
              return Status::Corruption("bad value pointer");
            }
            return vlog->Read(ptr, parsed.user_key, value);
          }));
    }

    bool Valid() const override { return impl_->Valid(); }
    void SeekToFirst() override { impl_->SeekToFirst(); }
    void Seek(const Slice& user_key) override { impl_->Seek(user_key); }
    void Next() override { impl_->Next(); }
    Slice key() const override { return impl_->key(); }
    Slice value() const override { return impl_->value(); }
    Status status() const override {
      return status_.ok() ? impl_->status() : status_;
    }

   private:
    std::shared_lock<std::shared_mutex> tables_lock_;
    std::shared_lock<std::shared_mutex> zone_lock_;
    std::shared_lock<std::shared_mutex> vlog_pin_;
    std::vector<std::shared_ptr<ActiveTable>> pinned_;
    std::vector<FlushedTable> zone_tables_;
    std::unique_ptr<Iterator> impl_;
    Status status_;
  };
  return new ScanIterator(this, snapshot);
}

Status DB::Scan(const Slice& start, size_t limit,
                std::vector<std::pair<std::string, std::string>>* out) {
  return ScanAt(start, limit, kMaxSequenceNumber, out);
}

Status DB::ScanAt(const Slice& start, size_t limit,
                  SequenceNumber snapshot,
                  std::vector<std::pair<std::string, std::string>>* out) {
  OBS_SPAN(&metrics_, "scan");
  obs::TraceScope trace(&trace_, "scan");
  out->clear();
  std::unique_ptr<Iterator> it(NewScanIteratorAt(snapshot));
  if (start.empty()) {
    it->SeekToFirst();
  } else {
    it->Seek(start);
  }
  while (it->Valid() && out->size() < limit) {
    out->emplace_back(it->key().ToString(), it->value().ToString());
    it->Next();
  }
  trace.AddArg("rows", out->size());
  return it->status();
}

Status DB::SearchRaw(const Slice& key, RawResult* out,
                     SequenceNumber max_sequence) {
  out->found = false;
  out->sequence = 0;
  out->type = kTypeValue;
  out->value.clear();
  out->where = RawResult::Where::kNone;

  // 1) Memory component: every live sub-MemTable. Strict consistency
  //    (§III-B) without the read trigger: each table's index answers for
  //    the records it has linked, and the unreplayed tail is scanned
  //    read-only, so a Get never does the index threads' work.
  {
    OBS_SPAN(&metrics_, "get.memtable");
    std::shared_lock<std::shared_mutex> lock(tables_mu_);
    const SubSkiplist* best_index = nullptr;
    SubSkiplist::Candidate best_candidate;
    for (const auto& t : live_tables_) {
      SubSkiplist::Candidate c;
      bool hit = false;
      Status s = t->index->GetLive(t->table, key, max_sequence, &c, &hit);
      if (!s.ok()) {
        return s;
      }
      if (hit && (!out->found || c.sequence > out->sequence)) {
        out->found = true;
        out->sequence = c.sequence;
        out->type = c.type;
        best_index = t->index.get();
        best_candidate = c;
      }
    }
    if (out->found && out->type != kTypeDeletion) {
      Status s = best_index->ReadValue(best_candidate, &out->value);
      if (!s.ok()) {
        return s;
      }
    }
  }
  if (out->found) {
    out->where = RawResult::Where::kSubMemTable;
    if (out->sequence > flushed_hwm_.load(std::memory_order_acquire)) {
      // Nothing outside the live tables can be fresher. Valid for
      // bounded reads too: the zone and LSM hold only sequences below
      // this answer's, so none can beat it under the same bound.
      return Status::OK();
    }
  }

  // 2) Sub-ImmMemTable zone (global skiplist / per-table probes).
  {
    OBS_SPAN(&metrics_, "get.zone");
    auto zone_lock = zone_->LockShared();
    FlushedZone::LookupResult zr;
    Status s = zone_->Get(key, &zr, max_sequence);
    if (!s.ok()) {
      return s;
    }
    if (zr.found && (!out->found || zr.sequence > out->sequence)) {
      out->found = true;
      out->sequence = zr.sequence;
      out->type = zr.type;
      out->where = RawResult::Where::kZone;
      if (zr.type != kTypeDeletion) {
        out->value = std::move(zr.value);
      }
    }
  }
  if (out->found && out->sequence > l0_hwm_.load(std::memory_order_acquire)) {
    return Status::OK();
  }

  // 3) LSM storage component.
  {
    OBS_SPAN(&metrics_, "get.lsm");
    std::string lsm_value;
    bool lsm_deleted = false;
    SequenceNumber lsm_seq = 0;
    ValueType lsm_type = kTypeValue;
    Status s = engine_->Get(key, max_sequence, &lsm_value,
                            &lsm_deleted, &lsm_seq, &lsm_type);
    if (s.ok() || (s.IsNotFound() && lsm_deleted)) {
      if (!out->found || lsm_seq > out->sequence) {
        out->found = true;
        out->sequence = lsm_seq;
        out->type = lsm_deleted ? kTypeDeletion : lsm_type;
        out->where = RawResult::Where::kLsm;
        if (!lsm_deleted) {
          out->value = std::move(lsm_value);
        }
      }
    } else if (!s.IsNotFound()) {
      return s;
    }
  }
  return Status::OK();
}

Status DB::Get(const Slice& key, std::string* value) {
  return GetImpl(key, kMaxSequenceNumber, value, nullptr);
}

Status DB::Get(const Slice& key, std::string* value, SequenceNumber* seq) {
  return GetImpl(key, kMaxSequenceNumber, value, seq);
}

Status DB::GetAt(const Slice& key, SequenceNumber snapshot,
                 std::string* value) {
  return GetImpl(key, snapshot, value, nullptr);
}

Status DB::GetImpl(const Slice& key, SequenceNumber max_sequence,
                   std::string* value, SequenceNumber* seq) {
  OBS_SPAN(&metrics_, "get");
  obs::TraceScope trace(&trace_, "get");
  gets_->Increment();

  // A pointer read can lose a race with GC: the victim segment is
  // unlinked after the relocated pointer committed, so a stale pointer
  // resolved from a pre-relocation search turns into a retryable
  // NotFound("vlog segment recycled"). The relocated pointer is
  // committed before Unlink, so one re-search converges; the bound only
  // guards against pathological churn. (A snapshot read under a live pin
  // cannot lose its pointer at all: GC defers the unlink while any pin
  // resolves a record in the victim segment.)
  Status s;
  RawResult r;
  for (int attempt = 0; attempt < 16; attempt++) {
    s = SearchRaw(key, &r, max_sequence);
    if (!s.ok()) {
      return s;  // component error: bypass hit/miss accounting
    }
    if (r.found && r.type == kTypeValuePointer) {
      ValuePointer ptr;
      if (!DecodeValuePointer(Slice(r.value), &ptr)) {
        return Status::Corruption("bad value pointer");
      }
      s = vlog_->Read(ptr, key, value);
      if (s.IsNotFound()) {
        continue;  // segment recycled mid-read: retry the search
      }
      if (!s.ok()) {
        return s;
      }
    } else if (r.found && r.type != kTypeDeletion) {
      *value = std::move(r.value);
    }
    break;
  }
  if (s.IsNotFound()) {
    return Status::Corruption("value pointer kept racing GC");
  }

  // Which component held the freshest entry (the one that answered the
  // Get, whether with a value or a tombstone). Error returns bypass the
  // accounting, so on clean runs the four db.get_hit_*/db.get_miss
  // counters sum to db.gets.
  switch (r.where) {
    case RawResult::Where::kNone:
      get_miss_->Increment();
      break;
    case RawResult::Where::kSubMemTable:
      get_hit_submemtable_->Increment();
      break;
    case RawResult::Where::kZone:
      get_hit_zone_->Increment();
      break;
    case RawResult::Where::kLsm:
      get_hit_lsm_->Increment();
      break;
  }
  if (!r.found || r.type == kTypeDeletion) {
    return Status::NotFound(r.where == RawResult::Where::kNone
                                ? "no visible entry"
                                : "deleted");
  }
  if (seq != nullptr) {
    *seq = r.sequence;
  }
  return Status::OK();
}

Status DB::RelocateForGc(SequenceNumber record_seq, const Slice& key,
                         const ValuePointer& old_ptr, const Slice& value,
                         bool* relocated, bool* snapshot_pinned) {
  *relocated = false;
  *snapshot_pinned = false;
  Status gate = bg_errors_.CheckWritable();
  if (!gate.ok()) {
    return gate;
  }
  // Sequenced like a write on this thread's core slot: the probe sees
  // every write below `seq`, and every later one shadows the relocation.
  // The wait cannot deadlock: an unsettled block below `seq` belongs to
  // another slot, whose writer never needs this slot's lock.
  const int core = CoreOf();
  std::lock_guard<std::mutex> core_lock(core_mu_[core % kMaxCoreLocks]);
  SettleBlock settle{&sequencer_, vlog_.get(), sequencer_.Reserve(1)};
  const SequenceNumber seq = settle.block->first;
  sequencer_.WaitVisible(seq - 1);
  RawResult r;
  Status s = SearchRaw(key, &r);
  if (!s.ok()) {
    return s;
  }
  ValuePointer current;
  const bool live_at_latest =
      r.found && r.type == kTypeValuePointer &&
      DecodeValuePointer(Slice(r.value), &current) && current == old_ptr;
  if (!live_at_latest) {
    // Dead at latest (superseded, deleted, or relocated already) — but a
    // pinned snapshot may still resolve this exact pointer. Probe each
    // pin at or above the record's sequence with a bounded search; a
    // pointer-equal answer means the segment cannot be unlinked yet.
    for (SequenceNumber pin : PinnedSnapshots()) {
      if (pin < record_seq) {
        continue;
      }
      RawResult pr;
      Status ps = SearchRaw(key, &pr, pin);
      if (!ps.ok()) {
        return ps;
      }
      ValuePointer pinned_ptr;
      if (pr.found && pr.type == kTypeValuePointer &&
          DecodeValuePointer(Slice(pr.value), &pinned_ptr) &&
          pinned_ptr == old_ptr) {
        *snapshot_pinned = true;
        break;
      }
    }
    return Status::OK();
  }
  ValuePointer new_ptr;
  s = vlog_->Append(seq, key, value, &new_ptr);
  if (!s.ok()) {
    return s;
  }
  settle.appended.emplace_back(new_ptr, key.size());
  std::string encoded_ptr;
  EncodeValuePointer(&encoded_ptr, new_ptr);
  std::string record;
  EncodeRecord(&record, seq, kTypeValuePointer, key, Slice(encoded_ptr));
  s = AppendRecords(core, Slice(record), 1);
  if (!s.ok()) {
    return s;
  }
  settle.committed = true;
  *relocated = true;
  // Pins in [record_seq, seq) still resolve the OLD pointer (the record
  // was the freshest version of the key until this relocation committed
  // at `seq`): the victim segment must survive until they release. A pin
  // missing from the set read LastSequence() after this block was
  // reserved, so it sits at or above `seq` and, its GetSnapshot having
  // waited for this block, sees the new pointer.
  std::lock_guard<std::mutex> snap_lock(snapshots_mu_);
  auto it = pinned_snapshots_.lower_bound(record_seq);
  *snapshot_pinned = it != pinned_snapshots_.end() && *it < seq;
  return Status::OK();
}

Status DB::Replay(ActiveTable* table) {
  const uint64_t before = table->index->list_counter();
  Status s = table->index->SyncWithTable(table->table);
  if (table->index->list_counter() != before) {
    index_syncs_->Increment();
  }
  return s;
}

void DB::ScheduleSync(const std::shared_ptr<ActiveTable>& table) {
  if (table->sync_scheduled.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  std::lock_guard<std::mutex> lock(index_mu_);
  sync_queue_.push_back(table);
  index_cv_.notify_one();
}

Status DB::CopyFlushOne(std::shared_ptr<ActiveTable> sealed) {
  CACHEKV_FAIL_POINT("flush.copy");
  OBS_SPAN(&metrics_, "flush.copy");
  obs::TraceScope trace(&trace_, "flush.copy");
  // Final synchronization of the sub-skiplist (lazy trigger 3).
  Status s = Replay(sealed.get());
  if (!s.ok()) {
    return s;
  }
  SubMemTable::Header h = sealed->table.ReadHeader();
  if (h.state != SubState::kImmutable) {
    return Status::Corruption("flush of a table that is not sealed");
  }

  // Copy-based flush (§III-C): stream the whole sub-ImmMemTable out of
  // the persistent cache with non-temporal stores ("modified memory
  // copy"), so the write-back is large, sequential, and immune to the
  // cacheline eviction policy.
  const uint64_t copy_len = SubMemTable::kDataOffset + h.tail;
  const uint64_t region_size = AlignUp(copy_len, kXPLineSize);
  uint64_t region = 0;
  s = env_->allocator()->Allocate(region_size, &region);
  if (!s.ok()) {
    return s;
  }
  char buf[4096];
  for (uint64_t off = 0; off < copy_len; off += sizeof(buf)) {
    const size_t chunk = static_cast<size_t>(
        std::min<uint64_t>(sizeof(buf), copy_len - off));
    env_->Load(sealed->table.slot_offset() + off, buf, chunk);
    env_->NtStore(region + off, buf, chunk);
  }
  env_->Sfence();
  copy_flushes_->Increment();
  metrics_.GetCounter("flush.copy_bytes")->fetch_add(copy_len);
  trace.AddArg("bytes", copy_len);
  trace.AddArg("keys", h.counter);

  // Re-point the index at the copy, publish the table in the zone, then
  // recycle the pool slot. Any failure between here and the zone publish
  // must undo both steps — re-point the index back at the (identical)
  // pool-slot bytes and free the staged region — so a retried flush
  // starts from the same clean state.
  sealed->index->SetDataBase(region + SubMemTable::kDataOffset);
  auto unpublish = [&]() {
    sealed->index->SetDataBase(sealed->table.data_offset());
    env_->allocator()->Free(region, region_size);
  };
  if (fault::AnyActive()) {
    Status inj = fault::Inject("flush.copy.publish");
    if (!inj.ok()) {
      unpublish();
      return inj;
    }
  }
  FlushedTable ft;
  ft.region_offset = region;
  ft.region_size = region_size;
  ft.data_tail = h.tail;
  ft.entry_count = h.counter;
  ft.max_sequence = sealed->index->max_sequence();
  ft.data_crc = FlushedZone::ComputeDataCrc(env_, region, h.tail);
  ft.index = sealed->index;
  s = zone_->AddTable(std::move(ft));
  if (!s.ok()) {
    unpublish();
    return s;
  }
  uint64_t seen = flushed_hwm_.load(std::memory_order_relaxed);
  uint64_t table_max = sealed->index->max_sequence();
  while (table_max > seen &&
         !flushed_hwm_.compare_exchange_weak(seen, table_max)) {
  }
  {
    std::unique_lock<std::shared_mutex> lock(tables_mu_);
    live_tables_.erase(
        std::remove(live_tables_.begin(), live_tables_.end(), sealed),
        live_tables_.end());
  }
  // A sync request still queued for this table must not replay the
  // slot's next occupant against the zone copy.
  sealed->index->Retire();
  s = pool_->Release(sealed->table);
  if (!s.ok()) {
    // The data is already safe in the zone; a directory mismatch here
    // only loses the slot. Record it as a hard error (corruption).
    bg_errors_.RaiseHardError("pool.release", s);
    return s;
  }

  // Ask the zone thread to fold the new table into the global skiplist
  // and to check the zone-to-L0 threshold.
  {
    std::lock_guard<std::mutex> lock(index_mu_);
    compaction_requested_ = true;
    zone_cv_.notify_one();
  }
  return Status::OK();
}

void DB::FlushThread() {
  trace_.SetThreadName("flush");
  std::unique_lock<std::mutex> lock(flush_mu_);
  while (true) {
    while (flush_queue_.empty() &&
           !shutting_down_.load(std::memory_order_acquire)) {
      flush_cv_.wait(lock);
    }
    if (flush_queue_.empty() &&
        shutting_down_.load(std::memory_order_acquire)) {
      return;
    }
    auto sealed = std::move(flush_queue_.front());
    flush_queue_.pop_front();
    flushes_in_flight_++;
    // Retry loop: transient failures back off and re-run the flush
    // (CopyFlushOne un-publishes on failure, so a retry is idempotent);
    // hard failures or an exhausted budget flip the DB to read-only. The
    // sealed table then stays in live_tables_, still serving reads from
    // its pool slot.
    int attempt = 0;
    for (;;) {
      lock.unlock();
      Status s = CopyFlushOne(sealed);
      lock.lock();
      if (s.ok() || shutting_down_.load(std::memory_order_acquire)) {
        break;
      }
      std::chrono::milliseconds backoff(0);
      if (bg_errors_.OnError("flush.copy", s, attempt, &backoff) ==
          BackgroundErrorManager::Decision::kFail) {
        break;
      }
      attempt++;
      flush_cv_.wait_for(lock, backoff, [this] {
        return shutting_down_.load(std::memory_order_acquire);
      });
    }
    flushes_in_flight_--;
    flush_done_cv_.notify_all();
  }
}

Status DB::FlushZoneToL0() {
  CACHEKV_FAIL_POINT("flush.zone_to_l0");
  OBS_SPAN(&metrics_, "flush.zone");
  std::vector<FlushedTable> snapshot = zone_->SnapshotTables();
  if (snapshot.empty()) {
    return Status::OK();
  }
  obs::TraceScope trace(&trace_, "flush.zone");
  trace.AddArg("tables", snapshot.size());
  trace.AddArg("bytes", zone_->TotalBytes());
  uint64_t snapshot_max_seq = 0;
  for (const FlushedTable& t : snapshot) {
    snapshot_max_seq = std::max(snapshot_max_seq, t.max_sequence);
  }
  DroppedEntryLog dropped;
  // Pinned snapshots, captured at pass start (a pin created later
  // sequences above every entry in this stable table set, so it sees the
  // freshest versions — which the dedup keeps unconditionally).
  std::vector<SequenceNumber> pins = PinnedSnapshots();
  DroppedEntryFn on_retain;
  if (!pins.empty()) {
    on_retain = [this](const Slice& internal_key, const Slice& value) {
      snap_retained_bytes_->fetch_add(internal_key.size() + value.size());
    };
  }
  std::unique_ptr<Iterator> stream(zone_->NewL0Stream(
      snapshot, &dropped, std::move(pins), std::move(on_retain)));
  // Publish the high-water mark before the data becomes invisible in the
  // zone, so readers never skip the LSM for entries that moved there.
  uint64_t seen = l0_hwm_.load(std::memory_order_relaxed);
  while (snapshot_max_seq > seen &&
         !l0_hwm_.compare_exchange_weak(seen, snapshot_max_seq)) {
  }
  Status s = engine_->WriteL0Tables(stream.get());
  if (!s.ok()) {
    return s;  // buffered drops discarded: the retry re-collects them
  }
  stream.reset();
  zone_flushes_->Increment();
  s = zone_->DropTables(snapshot);
  if (!s.ok()) {
    return s;
  }
  // The flush committed end to end: only now do the dedup drops become
  // dead vlog bytes, so a retried flush never double-credits them.
  for (const auto& [internal_key, value] : dropped) {
    drop_observer_(Slice(internal_key), Slice(value));
  }
  return Status::OK();
}

void DB::IndexThread() {
  trace_.SetThreadName("index");
  std::unique_lock<std::mutex> lock(index_mu_);
  while (true) {
    while (sync_queue_.empty() &&
           !shutting_down_.load(std::memory_order_acquire)) {
      index_cv_.wait(lock);
    }
    if (sync_queue_.empty()) {
      return;  // shutting down
    }
    auto table = std::move(sync_queue_.front());
    sync_queue_.pop_front();
    index_work_in_flight_++;
    lock.unlock();
    table->sync_scheduled.store(false, std::memory_order_release);
    // Lazy index update (trigger 2), §III-B: batch-replay the appended
    // records into the sub-skiplist without blocking writers. Sync is
    // idempotent (replays from the last synced offset), so transient
    // failures simply back off and run it again.
    int attempt = 0;
    for (;;) {
      Status s;
      {
        OBS_SPAN(&metrics_, "index.sync");
        obs::TraceScope sync_trace(&trace_, "index.sync");
        s = [&]() -> Status {
          CACHEKV_FAIL_POINT("index.sync");
          return Replay(table.get());
        }();
      }
      if (s.ok() || shutting_down_.load(std::memory_order_acquire)) {
        break;
      }
      std::chrono::milliseconds backoff(0);
      if (bg_errors_.OnError("index.sync", s, attempt, &backoff) ==
          BackgroundErrorManager::Decision::kFail) {
        break;
      }
      attempt++;
      std::this_thread::sleep_for(backoff);
    }
    lock.lock();
    index_work_in_flight_--;
    index_done_cv_.notify_all();
  }
}

void DB::ZoneThread() {
  trace_.SetThreadName("zone");
  std::unique_lock<std::mutex> lock(index_mu_);
  while (true) {
    while (!compaction_requested_ &&
           !shutting_down_.load(std::memory_order_acquire)) {
      zone_cv_.wait(lock);
    }
    if (!compaction_requested_) {
      return;  // shutting down
    }
    // Zone work: compaction of the sub-skiplists (§III-D) and the flush
    // to L0 once the staged bytes cross the threshold.
    compaction_requested_ = false;
    index_work_in_flight_++;
    lock.unlock();
    // The "zone.compact" span and trace event are emitted inside
    // FlushedZone::Compact(), which owns that stage.
    zone_->Compact();
    // Retry-safe: the zone keeps its tables until DropTables succeeds,
    // and the L0 high-water mark is published before the LSM write, so
    // re-running the flush after a failure never loses visibility.
    int attempt = 0;
    while (zone_->TotalBytes() >= options_.imm_zone_flush_threshold) {
      Status s = FlushZoneToL0();
      if (s.ok() || shutting_down_.load(std::memory_order_acquire)) {
        break;
      }
      std::chrono::milliseconds backoff(0);
      if (bg_errors_.OnError("flush.zone", s, attempt, &backoff) ==
          BackgroundErrorManager::Decision::kFail) {
        break;
      }
      attempt++;
      std::this_thread::sleep_for(backoff);
    }
    lock.lock();
    index_work_in_flight_--;
    index_done_cv_.notify_all();
  }
}

obs::MetricsSnapshot DB::GetMetricsSnapshot() {
  // Mirror the device- and cache-level hardware counters into gauges so
  // one scrape carries the whole stack (engine spans + PMem media +
  // LLC). Gauges, not counters: the device owns the source of truth and
  // we overwrite with its current value on every snapshot.
  const PmemCounters& pc = env_->device()->counters();
  metrics_.GetGauge("pmem.rmw_count")
      ->Set(static_cast<double>(pc.rmw_count.load()));
  metrics_.GetGauge("pmem.media_bytes_written")
      ->Set(static_cast<double>(pc.media_bytes_written.load()));
  metrics_.GetGauge("pmem.bytes_received")
      ->Set(static_cast<double>(pc.bytes_received.load()));
  metrics_.GetGauge("pmem.nt_bytes")
      ->Set(static_cast<double>(pc.nt_bytes_received.load()));
  metrics_.GetGauge("pmem.write_amplification")
      ->Set(pc.WriteAmplification());
  metrics_.GetGauge("pmem.write_hit_ratio")->Set(pc.WriteHitRatio());
  const CacheStats& cs = env_->cache()->stats();
  metrics_.GetGauge("cache.clwb_lines")
      ->Set(static_cast<double>(cs.clwb_lines.load()));
  metrics_.GetGauge("cache.fences")
      ->Set(static_cast<double>(cs.fences.load()));
  metrics_.GetGauge("cache.dirty_evictions")
      ->Set(static_cast<double>(cs.dirty_evictions.load()));
  return metrics_.Snapshot();
}

void DB::DumpMetrics(std::string* out) {
  JsonValue json;
  GetMetricsSnapshot().ToJson(&json);
  json.Write(out);
}

Status DB::WaitIdle() {
  // Timed waits throughout: the workers do not signal while sleeping in
  // a retry backoff, and the predicate must also observe a background
  // error raised by the other thread.
  {
    std::unique_lock<std::mutex> lock(flush_mu_);
    while ((!flush_queue_.empty() || flushes_in_flight_ > 0) &&
           !bg_errors_.read_only()) {
      flush_done_cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
  }
  Status s = bg_errors_.background_error();
  if (!s.ok()) {
    return s;
  }
  {
    std::unique_lock<std::mutex> lock(index_mu_);
    while ((!sync_queue_.empty() || compaction_requested_ ||
            index_work_in_flight_ > 0) &&
           !bg_errors_.read_only()) {
      index_done_cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
  }
  s = bg_errors_.background_error();
  if (!s.ok()) {
    return s;
  }
  return engine_->WaitForCompactions();
}

Status DB::BackgroundError() {
  Status s = bg_errors_.background_error();
  if (!s.ok()) {
    return s;
  }
  return engine_->BackgroundError();
}

}  // namespace cachekv
