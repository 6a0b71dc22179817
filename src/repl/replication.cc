#include "repl/replication.h"

#include <algorithm>
#include <chrono>

#include "fault/fail_point.h"
#include "net/client.h"
#include "obs/metrics.h"

namespace cachekv {
namespace repl {

namespace {

/// Hard cap on records served per REPLBATCH, independent of what the
/// follower asks for.
constexpr uint32_t kMaxBatchesPerPull = 4096;
constexpr uint32_t kMaxSnapshotPage = 1u << 16;

bool SplitEndpoint(const std::string& endpoint, std::string* host,
                   uint16_t* port) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= endpoint.size()) {
    return false;
  }
  unsigned long p = 0;
  for (size_t i = colon + 1; i < endpoint.size(); i++) {
    if (endpoint[i] < '0' || endpoint[i] > '9') return false;
    p = p * 10 + static_cast<unsigned long>(endpoint[i] - '0');
    if (p > 65535) return false;
  }
  if (p == 0) return false;
  *host = endpoint.substr(0, colon);
  *port = static_cast<uint16_t>(p);
  return true;
}

bool ReplTrace() {
  static const bool on = ::getenv("CACHEKV_NET_TRACE") != nullptr;
  return on;
}

long ReplTraceMs() {
  return (long)(std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count() %
                1000000);
}

}  // namespace

const char* AckPolicyName(AckPolicy policy) {
  switch (policy) {
    case AckPolicy::kNone: return "none";
    case AckPolicy::kQuorum: return "quorum";
    case AckPolicy::kAll: return "all";
  }
  return "?";
}

bool ParseAckPolicy(const std::string& name, AckPolicy* out) {
  if (name == "none") {
    *out = AckPolicy::kNone;
  } else if (name == "quorum") {
    *out = AckPolicy::kQuorum;
  } else if (name == "all") {
    *out = AckPolicy::kAll;
  } else {
    return false;
  }
  return true;
}

ReplHub::ReplHub(const ReplOptions& options, std::vector<DB*> dbs)
    : options_(options), dbs_(std::move(dbs)) {
  const bool follower = !options_.primary_endpoint.empty();
  shards_.reserve(dbs_.size());
  for (size_t s = 0; s < dbs_.size(); s++) {
    auto shard = std::make_unique<Shard>();
    shard->log = std::make_unique<ReplLog>(options_.log_bytes_per_shard);
    shard->is_primary.store(!follower, std::memory_order_relaxed);
    shards_.push_back(std::move(shard));
    PublishShardGauges(static_cast<uint32_t>(s));
  }
}

ReplHub::~ReplHub() { Stop(); }

void ReplHub::SetSelfEndpoint(const std::string& endpoint) {
  self_endpoint_ = endpoint;
}

void ReplHub::AttachCommitHooks() {
  for (uint32_t s = 0; s < dbs_.size(); s++) {
    dbs_[s]->SetCommitHook(
        [this, s](const std::vector<KVStore::BatchOp>& ops,
                  SequenceNumber last_seq) { OnCommit(s, ops, last_seq); });
  }
}

void ReplHub::Start() {
  if (options_.primary_endpoint.empty()) return;
  if (started_.exchange(true)) return;
  stop_.store(false);
  follower_thread_ = std::thread([this] { FollowerLoop(); });
}

void ReplHub::Stop() {
  stop_.store(true);
  if (follower_thread_.joinable()) follower_thread_.join();
  started_.store(false);
}

bool ReplHub::IsPrimary(uint32_t shard) const {
  return shards_[shard]->is_primary.load(std::memory_order_acquire);
}

uint64_t ReplHub::Epoch(uint32_t shard) const {
  return shards_[shard]->epoch.load(std::memory_order_acquire);
}

void ReplHub::PublishShardGauges(uint32_t shard) {
  obs::MetricsRegistry* m = dbs_[shard]->metrics();
  Shard* st = shards_[shard].get();
  m->GetGauge("repl.epoch")
      ->Set(static_cast<double>(st->epoch.load(std::memory_order_relaxed)));
  m->GetGauge("repl.is_primary")
      ->Set(st->is_primary.load(std::memory_order_relaxed) ? 1 : 0);
  m->GetGauge("repl.log_start")
      ->Set(static_cast<double>(st->log->start_seq()));
  m->GetGauge("repl.log_head")
      ->Set(static_cast<double>(st->log->head_seq()));
}

void ReplHub::UpdateLagGauge(uint32_t shard) {
  Shard* st = shards_[shard].get();
  const uint64_t head = st->log->head_seq();
  uint64_t lag = 0;
  if (st->is_primary.load(std::memory_order_relaxed)) {
    // Primary: how far the slowest configured replica trails the head.
    uint64_t min_acked = head;
    for (const std::string& replica : options_.replicas) {
      min_acked = std::min(min_acked, st->log->AckedSeq(replica));
    }
    if (!options_.replicas.empty()) lag = head - min_acked;
  } else {
    // Follower: distance between the primary head we last saw and what
    // we have applied (applied_seq counts primary log records).
    const uint64_t applied =
        st->applied_seq.load(std::memory_order_relaxed);
    const uint64_t seen =
        st->primary_head.load(std::memory_order_relaxed);
    lag = seen > applied ? seen - applied : 0;
  }
  dbs_[shard]->metrics()->GetGauge("repl.lag_batches")
      ->Set(static_cast<double>(lag));
}

void ReplHub::OnCommit(uint32_t shard,
                       const std::vector<KVStore::BatchOp>& ops,
                       uint64_t last_db_seq) {
  Shard* st = shards_[shard].get();
  // A following shard's outbound log would serve nobody: promotion
  // resets it before any subscriber could read it.
  if (!st->is_primary.load(std::memory_order_acquire)) return;
  std::string blob;
  net::EncodeReplOps(&blob, ops);
  const uint64_t head = st->log->Append(std::move(blob), last_db_seq);
  dbs_[shard]->metrics()->GetGauge("repl.log_head")
      ->Set(static_cast<double>(head));
}

uint32_t ReplHub::AcksNeeded() const {
  const uint32_t replicas =
      static_cast<uint32_t>(options_.replicas.size());
  switch (options_.ack) {
    case AckPolicy::kNone: return 0;
    case AckPolicy::kQuorum: return (replicas + 1) / 2;
    case AckPolicy::kAll: return replicas;
  }
  return 0;
}

Status ReplHub::CountAckWait(uint32_t shard, Status s) {
  if (!s.ok()) {
    dbs_[shard]->metrics()
        ->GetCounter(s.IsIOError() ? "repl.ack_resets"
                                   : "repl.ack_timeouts")
        ->Increment();
  }
  return s;
}

Status ReplHub::WaitCommitAcked(uint32_t shard, uint64_t db_seq) {
  const uint32_t needed = AcksNeeded();
  if (needed == 0) return Status::OK();
  return CountAckWait(shard, shards_[shard]->log->WaitCommit(
                                 db_seq, needed, options_.ack_timeout_ms));
}

ReplHub::CommitWait ReplHub::BeginCommitWait(uint32_t shard,
                                             uint64_t db_seq) const {
  CommitWait wait;
  wait.shard = shard;
  wait.db_seq = db_seq;
  wait.run_id = shards_[shard]->log->run_id();
  return wait;
}

bool ReplHub::PollCommitWait(CommitWait* wait, bool expired) {
  if (wait->settled) return true;
  const ReplLog::CommitState state =
      shards_[wait->shard]->log->CheckCommit(wait->db_seq, AcksNeeded(),
                                             wait->run_id);
  if (state == ReplLog::CommitState::kPending && !expired) return false;
  wait->status = CountAckWait(wait->shard, ReplLog::CommitStatus(state));
  wait->settled = true;
  return true;
}

void ReplHub::SetWaker(std::function<void()> wake) {
  for (auto& st : shards_) st->log->SetListener(wake);
}

bool ReplHub::MayHoldFetch(const net::ReplBatchRequest& req,
                           const std::string& follower_id) const {
  if (req.shard >= shards_.size() || !IsPrimary(req.shard) ||
      req.epoch != Epoch(req.shard) ||
      req.from_seq <= shards_[req.shard]->log->head_seq()) {
    return false;  // answer now: fencing, or records to send
  }
  for (uint32_t s = 0; s < shards_.size(); s++) {
    if (IsPrimary(s) && !shards_[s]->log->CaughtUp(follower_id)) {
      return false;
    }
  }
  return true;
}

bool ReplHub::FenceEpoch(uint32_t shard, uint64_t req_epoch) {
  Shard* st = shards_[shard].get();
  uint64_t cur = st->epoch.load(std::memory_order_acquire);
  while (req_epoch > cur) {
    if (st->epoch.compare_exchange_weak(cur, req_epoch,
                                        std::memory_order_acq_rel)) {
      // A newer epoch exists somewhere: if this server believed itself
      // primary it has been superseded — step down so every subsequent
      // client write is rejected with kNotPrimary (stale-primary
      // fencing; docs/REPLICATION.md "Epoch rules").
      if (st->is_primary.exchange(false, std::memory_order_acq_rel)) {
        dbs_[shard]->metrics()->GetCounter("repl.demotions")->Increment();
      }
      PublishShardGauges(shard);
      return true;
    }
  }
  return req_epoch >= cur;
}

uint64_t ReplHub::PromoteShard(uint32_t shard, uint64_t min_epoch) {
  Shard* st = shards_[shard].get();
  uint64_t cur = st->epoch.load(std::memory_order_acquire);
  uint64_t next;
  do {
    next = std::max(cur, min_epoch) + 1;
  } while (!st->epoch.compare_exchange_weak(cur, next,
                                            std::memory_order_acq_rel));
  // The outbound log restarts under the new reign: a promoted follower
  // serves subscribers from scratch (its DB is the source of truth),
  // and the deposed primary must bootstrap anyway.
  st->log->Reset();
  st->applied_seq.store(0, std::memory_order_release);
  st->primary_head.store(0, std::memory_order_release);
  st->primary_run_id.store(0, std::memory_order_release);
  st->is_primary.store(true, std::memory_order_release);
  dbs_[shard]->metrics()->GetCounter("repl.failovers")->Increment();
  PublishShardGauges(shard);
  UpdateLagGauge(shard);
  return next;
}

// Wire-op handlers. ---------------------------------------------------

uint16_t ReplHub::HandleSubscribe(const net::ReplSubscribeRequest& req,
                                  std::string* payload,
                                  std::string* error) {
  if (req.shard >= shards_.size()) {
    *error = "shard out of range";
    return net::kInvalidArgument;
  }
  if (req.follower_id.empty()) {
    *error = "empty follower id";
    return net::kInvalidArgument;
  }
  if (!FenceEpoch(req.shard, req.epoch)) {
    *error = "subscribe epoch behind server";
    return net::kStaleEpoch;
  }
  Shard* st = shards_[req.shard].get();
  // Register the follower (ack position 0) so ack policies and the lag
  // gauge see it before its first REPLACK.
  st->log->Ack(req.follower_id.ToString(), 0);
  net::ReplSubscribeResponse resp;
  resp.epoch = st->epoch.load(std::memory_order_acquire);
  resp.log_start = st->log->start_seq();
  resp.log_head = st->log->head_seq();
  resp.log_run_id = st->log->run_id();
  net::EncodeReplSubscribePayload(payload, resp);
  dbs_[req.shard]->metrics()->GetCounter("repl.subscribes")->Increment();
  return net::kOk;
}

uint16_t ReplHub::HandleBatch(const net::ReplBatchRequest& req,
                              std::string* payload, std::string* error) {
  if (req.shard >= shards_.size()) {
    *error = "shard out of range";
    return net::kInvalidArgument;
  }
  if (fault::AnyActive()) {
    Status injected = fault::Inject("repl.stream.drop");
    if (!injected.ok()) {
      *error = injected.ToString();
      return net::kIOError;
    }
  }
  if (!FenceEpoch(req.shard, req.epoch)) {
    *error = "fetch epoch behind server";
    return net::kStaleEpoch;
  }
  Shard* st = shards_[req.shard].get();
  net::ReplBatchResponse resp;
  std::vector<ReplLog::Record> records;
  const uint32_t max =
      std::min(req.max_batches == 0 ? kMaxBatchesPerPull : req.max_batches,
               kMaxBatchesPerPull);
  Status s = st->log->Fetch(req.from_seq, max, &records, &resp.log_head);
  if (s.IsNotFound()) {
    *error = "cursor behind truncated log; snapshot required";
    return net::kReplLagged;
  }
  // Read the run id AFTER Fetch: if a Reset races in between, the
  // response pairs old-run records with the NEW run id, which the
  // follower rejects (spurious bootstrap — safe). The opposite pairing
  // would let it apply new-run records against a stale cursor.
  resp.log_run_id = st->log->run_id();
  resp.epoch = st->epoch.load(std::memory_order_acquire);
  uint64_t bytes = 0;
  resp.records.reserve(records.size());
  for (ReplLog::Record& rec : records) {
    bytes += rec.ops_blob.size();
    net::ReplRecord wire;
    wire.log_seq = rec.log_seq;
    wire.last_db_seq = rec.last_db_seq;
    wire.ops_blob = std::move(rec.ops_blob);
    resp.records.push_back(std::move(wire));
  }
  net::EncodeReplBatchPayload(payload, resp);
  obs::MetricsRegistry* m = dbs_[req.shard]->metrics();
  m->GetCounter("repl.bytes_streamed")->Increment(bytes);
  m->GetCounter("repl.batches_streamed")->Increment(resp.records.size());
  return net::kOk;
}

uint16_t ReplHub::HandleAck(const net::ReplAckRequest& req,
                            std::string* payload, std::string* error) {
  (void)payload;  // REPLACK success responses are empty.
  if (req.shard >= shards_.size()) {
    *error = "shard out of range";
    return net::kInvalidArgument;
  }
  if (fault::AnyActive()) {
    Status injected = fault::Inject("repl.ack.delay");
    if (!injected.ok()) {
      *error = injected.ToString();
      return net::kIOError;
    }
  }
  if (!FenceEpoch(req.shard, req.epoch)) {
    *error = "ack epoch behind server";
    return net::kStaleEpoch;
  }
  shards_[req.shard]->log->Ack(req.follower_id.ToString(), req.acked_seq);
  dbs_[req.shard]->metrics()->GetCounter("repl.acks")->Increment();
  UpdateLagGauge(req.shard);
  return net::kOk;
}

uint16_t ReplHub::HandleSnapshot(const net::ReplSnapshotRequest& req,
                                 std::string* payload,
                                 std::string* error) {
  if (req.shard >= shards_.size()) {
    *error = "shard out of range";
    return net::kInvalidArgument;
  }
  if (fault::AnyActive()) {
    Status injected = fault::Inject("repl.snapshot.torn");
    if (!injected.ok()) {
      *error = injected.ToString();
      return net::kIOError;
    }
  }
  if (!FenceEpoch(req.shard, req.epoch)) {
    *error = "snapshot epoch behind server";
    return net::kStaleEpoch;
  }
  Shard* st = shards_[req.shard].get();
  net::ReplSnapshotResponse resp;
  // Read the run id BEFORE the log position: the follower adopts this
  // (run, pos) pair, and if a Reset races in between the pairing is
  // old-run/new-pos — the next fetch sees a different run id and
  // re-bootstraps (safe). Reading pos first could pair the new run id
  // with a stale (large) position, silently skipping records.
  resp.log_run_id = st->log->run_id();
  // Capture the log position BEFORE scanning: any write the scan then
  // misses commits after this point, so its record lands at a log_seq
  // > log_pos and the follower's log replay (from the first page's
  // log_pos) reapplies it. Replay converges because records apply in
  // log order.
  resp.log_pos = st->log->head_seq();
  resp.epoch = st->epoch.load(std::memory_order_acquire);
  const uint32_t page = std::min(
      req.max_entries == 0 ? kMaxSnapshotPage : req.max_entries,
      kMaxSnapshotPage);
  // Resume strictly after the cursor: the successor of cursor under
  // bytewise order is cursor + 0x00.
  std::string start;
  if (!req.cursor.empty()) {
    start = req.cursor.ToString();
    start.push_back('\0');
  }
  Status s = dbs_[req.shard]->Scan(start, page, &resp.entries);
  if (!s.ok()) {
    *error = s.ToString();
    return net::WireCodeOf(s);
  }
  resp.done = resp.entries.size() < page;
  net::EncodeReplSnapshotPayload(payload, resp);
  dbs_[req.shard]->metrics()->GetCounter("repl.snapshot_entries")
      ->Increment(resp.entries.size());
  return net::kOk;
}

uint16_t ReplHub::HandlePromote(const net::PromoteRequest& req,
                                std::string* payload, std::string* error) {
  if (req.shard >= shards_.size()) {
    *error = "shard out of range";
    return net::kInvalidArgument;
  }
  const bool was_follower = !IsPrimary(req.shard);
  const uint64_t new_epoch = PromoteShard(req.shard, Epoch(req.shard));
  if (was_follower && !options_.primary_endpoint.empty()) {
    // Best-effort synchronous fence: tell the deposed primary about the
    // new epoch so it demotes itself immediately instead of on its next
    // contact. A dead primary fails the connect fast; it learns the
    // epoch when it rejoins.
    std::string host;
    uint16_t port = 0;
    if (SplitEndpoint(options_.primary_endpoint, &host, &port)) {
      net::ClientOptions copts;
      copts.connect_timeout_ms = 1'000;
      copts.recv_timeout_ms = 2'000;
      net::Client fence(copts);
      if (fence.Connect(host, port).ok()) {
        net::ReplSubscribeRequest sub;
        sub.shard = req.shard;
        sub.epoch = new_epoch;
        const std::string id =
            self_endpoint_.empty() ? "promoted" : self_endpoint_;
        sub.follower_id = id;
        net::ReplSubscribeResponse ignored;
        fence.ReplSubscribe(sub, &ignored);
      }
    }
  }
  net::EncodePromotePayload(payload, new_epoch);
  return net::kOk;
}

void ReplHub::FillShardMapState(
    std::vector<uint64_t>* epochs, std::vector<uint8_t>* primaries,
    std::vector<std::vector<std::string>>* replicas) const {
  epochs->clear();
  primaries->clear();
  replicas->clear();
  for (uint32_t s = 0; s < shards_.size(); s++) {
    epochs->push_back(Epoch(s));
    primaries->push_back(IsPrimary(s) ? 1 : 0);
    // Failover candidates for clients: the configured replica set, and
    // (on a follower) the primary we stream from.
    std::vector<std::string> reps = options_.replicas;
    if (!IsPrimary(s) && !options_.primary_endpoint.empty()) {
      reps.push_back(options_.primary_endpoint);
    }
    replicas->push_back(std::move(reps));
  }
}

// Follower machinery. -------------------------------------------------

bool ReplHub::BootstrapShard(net::Client* client, uint32_t shard) {
  Shard* st = shards_[shard].get();
  st->bootstrapping.store(true, std::memory_order_release);
  dbs_[shard]->metrics()->GetCounter("repl.bootstraps")->Increment();
  uint64_t log_pos = 0;
  uint64_t run_id = 0;
  bool first = true;
  std::string cursor;
  std::string swept_upto;  // local keys <= this are reconciled
  bool ok = false;
  while (!stop_.load(std::memory_order_relaxed)) {
    net::ReplSnapshotRequest req;
    req.shard = shard;
    req.epoch = Epoch(shard);
    req.cursor = cursor;
    req.max_entries = options_.snapshot_page;
    net::ReplSnapshotResponse resp;
    Status s = client->ReplSnapshot(req, &resp);
    if (!s.ok()) break;  // reconnect / restart the bootstrap
    if (resp.epoch > Epoch(shard)) FenceEpoch(shard, resp.epoch);
    if (first) {
      // Later pages capture later log positions; replay must start at
      // the FIRST page's position to cover writes racing the scan.
      log_pos = resp.log_pos;
      run_id = resp.log_run_id;
      first = false;
    } else if (resp.log_run_id != run_id) {
      // The primary's log restarted mid-bootstrap (process restart or
      // promotion): the captured log_pos addresses nothing in the new
      // numbering. Abandon and restart from scratch.
      break;
    }
    if (!resp.entries.empty()) {
      std::vector<KVStore::BatchOp> ops;
      std::vector<std::string> page_keys;
      ops.reserve(resp.entries.size());
      page_keys.reserve(resp.entries.size());
      for (auto& [key, value] : resp.entries) {
        page_keys.push_back(key);
        KVStore::BatchOp op;
        op.key = std::move(key);
        op.value = std::move(value);
        ops.push_back(std::move(op));
      }
      const std::string page_last = ops.back().key;
      if (!dbs_[shard]->ApplyBatch(ops).ok()) break;
      // Anti-entropy: the snapshot is the whole truth of the primary's
      // key space up to page_last, so any local key in that range the
      // page did NOT carry was deleted on the primary — or is a
      // divergent unacked suffix of a deposed primary rejoining as a
      // follower — and must go, or it resurrects after failover.
      if (!SweepLocalGap(shard, swept_upto, page_last, &page_keys)) break;
      swept_upto = page_last;
      cursor = page_last;
    }
    if (resp.done) {
      // Local keys past the last snapshot key are equally dead.
      if (!SweepLocalGap(shard, swept_upto, std::string(), nullptr)) break;
      st->applied_seq.store(log_pos, std::memory_order_release);
      st->primary_run_id.store(run_id, std::memory_order_release);
      // Report the adopted position: until the first streamed record
      // this follower would otherwise sit at acked 0, stalling ack=all
      // writes on the primary for the full ack timeout.
      net::ReplAckRequest ack;
      ack.shard = shard;
      ack.epoch = Epoch(shard);
      ack.follower_id = self_endpoint_;
      ack.acked_seq = log_pos;
      client->ReplAck(ack);  // best effort; the next pull re-acks
      ok = true;
      break;
    }
  }
  st->bootstrapping.store(false, std::memory_order_release);
  return ok;
}

bool ReplHub::SweepLocalGap(uint32_t shard, const std::string& after,
                            const std::string& upto,
                            const std::vector<std::string>* keep) {
  constexpr size_t kSweepPage = 512;
  std::string start = after;
  if (!start.empty()) start.push_back('\0');  // resume strictly after
  uint64_t deleted = 0;
  for (;;) {
    if (stop_.load(std::memory_order_relaxed)) return false;
    std::vector<std::pair<std::string, std::string>> local;
    if (!dbs_[shard]->Scan(start, kSweepPage, &local).ok()) return false;
    bool past_end = local.size() < kSweepPage;
    for (const auto& [key, value] : local) {
      (void)value;
      if (!upto.empty() && key > upto) {
        past_end = true;
        break;
      }
      if (keep != nullptr &&
          std::binary_search(keep->begin(), keep->end(), key)) {
        continue;
      }
      if (!dbs_[shard]->Delete(key).ok()) return false;
      deleted++;
    }
    if (past_end) break;
    start = local.back().first;
    start.push_back('\0');
  }
  if (deleted > 0) {
    dbs_[shard]->metrics()->GetCounter("repl.sweep_deletes")
        ->Increment(deleted);
  }
  return true;
}

bool ReplHub::PullShard(net::Client* client, uint32_t shard) {
  Shard* st = shards_[shard].get();
  net::ReplBatchRequest req;
  req.shard = shard;
  req.epoch = Epoch(shard);
  req.from_seq = st->applied_seq.load(std::memory_order_acquire) + 1;
  req.max_batches = options_.pull_batch_max;
  net::ReplBatchResponse resp;
  Status s = client->ReplFetch(req, &resp);
  if (ReplTrace())
    fprintf(stderr, "[%ld fol] fetch shard=%u from=%llu -> %s recs=%zu\n",
            ReplTraceMs(), shard, (unsigned long long)req.from_seq,
            s.ToString().c_str(), resp.records.size());
  if (s.IsNotFound()) {
    // kReplLagged: the primary truncated past our cursor.
    return BootstrapShard(client, shard) || client->connected();
  }
  if (s.IsInvalidArgument()) {
    if (client->last_wire_code() != net::kStaleEpoch) {
      // Not an epoch race: the peer rejected the request itself
      // (replication disabled there, shard out of range — a
      // misconfiguration). Surface it and take the reconnect backoff
      // instead of spinning subscribe attempts forever.
      dbs_[shard]->metrics()->GetCounter("repl.config_errors")
          ->Increment();
      fprintf(stderr,
              "cachekv: replication fetch for shard %u rejected by %s: "
              "%s\n",
              shard, options_.primary_endpoint.c_str(),
              s.ToString().c_str());
      return false;
    }
    // kStaleEpoch: re-learn the primary's epoch via a subscribe.
    net::ReplSubscribeRequest sub;
    sub.shard = shard;
    sub.epoch = Epoch(shard);
    sub.follower_id = self_endpoint_;
    net::ReplSubscribeResponse subresp;
    if (!client->ReplSubscribe(sub, &subresp).ok()) {
      return client->connected();
    }
    if (subresp.epoch > Epoch(shard)) FenceEpoch(shard, subresp.epoch);
    return true;
  }
  if (!s.ok()) return false;  // transport error: reconnect
  if (resp.epoch > Epoch(shard)) FenceEpoch(shard, resp.epoch);
  st->primary_head.store(resp.log_head, std::memory_order_release);
  uint64_t applied = st->applied_seq.load(std::memory_order_acquire);
  const uint64_t known_run =
      st->primary_run_id.load(std::memory_order_acquire);
  if (resp.log_run_id != known_run || resp.log_head < applied) {
    // The primary's log is not the one our cursor indexes: a different
    // run id means its numbering restarted (process restart, epoch
    // promotion) and the same log_seqs now name unrelated records; a
    // head behind our cursor is the same restart seen before any new
    // writes. Either way the cursor is meaningless — a fetch would
    // report "caught up" until the head passes it and then silently
    // apply aliased records. Re-sync from a snapshot. This also covers
    // first contact (stored run id 0), closing the recovered-DB/fresh-
    // log gap: an empty fetch window proves nothing about DB equality.
    if (known_run != 0) {
      dbs_[shard]->metrics()->GetCounter("repl.log_reset_bootstraps")
          ->Increment();
    }
    return BootstrapShard(client, shard) || client->connected();
  }
  for (const net::ReplRecord& rec : resp.records) {
    if (rec.log_seq <= applied) continue;  // duplicate delivery
    if (rec.log_seq != applied + 1) {
      // A gap means the log was truncated between fetch rounds.
      return BootstrapShard(client, shard) || client->connected();
    }
    std::vector<KVStore::BatchOp> ops;
    Status parsed = net::ParseReplOps(rec.ops_blob, &ops);
    if (!parsed.ok() || !dbs_[shard]->ApplyBatch(ops).ok()) {
      // Local failure: retry the same record next round, after a pause
      // (the primary never holds a fetch that has records to send).
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.reconnect_backoff_ms));
      return true;
    }
    applied = rec.log_seq;
    st->applied_seq.store(applied, std::memory_order_release);
    dbs_[shard]->metrics()->GetCounter("repl.applied_batches")
        ->Increment();
  }
  if (!resp.records.empty()) {
    net::ReplAckRequest ack;
    ack.shard = shard;
    ack.epoch = Epoch(shard);
    ack.follower_id = self_endpoint_;
    ack.acked_seq = applied;
    if (!client->ReplAck(ack).ok()) return client->connected();
  }
  UpdateLagGauge(shard);
  return true;
}

void ReplHub::FenceOldPrimary() {
  std::string host;
  uint16_t port = 0;
  if (!SplitEndpoint(options_.primary_endpoint, &host, &port)) return;
  net::ClientOptions copts;
  copts.connect_timeout_ms = 1'000;
  copts.recv_timeout_ms = 2'000;
  // One delivery attempt is not enough: a deposed primary that is alive
  // but briefly unresponsive (CPU-starved, mid-GC of connections) would
  // keep accepting writes until some other contact happened to carry
  // the new epoch. Retry per shard until the fence is acknowledged; a
  // dead primary fails the connect fast and learns the epoch when it
  // rejoins.
  std::vector<bool> fenced(shards_.size(), false);
  for (int attempt = 0; attempt < 5; attempt++) {
    if (stop_.load(std::memory_order_relaxed)) return;
    net::Client fence(copts);
    if (fence.Connect(host, port).ok()) {
      // Named: the request's follower_id is a Slice into it.
      const std::string id =
          self_endpoint_.empty() ? "promoted" : self_endpoint_;
      for (uint32_t s = 0; s < shards_.size(); s++) {
        if (fenced[s] || !IsPrimary(s)) continue;
        net::ReplSubscribeRequest sub;
        sub.shard = s;
        sub.epoch = Epoch(s);
        sub.follower_id = id;
        net::ReplSubscribeResponse ignored;
        if (fence.ReplSubscribe(sub, &ignored).ok()) fenced[s] = true;
      }
    }
    bool pending = false;
    for (uint32_t s = 0; s < shards_.size(); s++) {
      if (!fenced[s] && IsPrimary(s)) pending = true;
    }
    if (!pending) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
  }
}

void ReplHub::FollowerLoop() {
  std::string host;
  uint16_t port = 0;
  if (!SplitEndpoint(options_.primary_endpoint, &host, &port)) return;
  net::ClientOptions copts;
  copts.connect_timeout_ms = 2'000;
  copts.recv_timeout_ms = 10'000;
  net::Client client(copts);
  bool subscribed = false;
  auto last_contact = std::chrono::steady_clock::now();
  auto following = [this] {
    for (uint32_t s = 0; s < shards_.size(); s++) {
      if (!IsPrimary(s)) return true;
    }
    return false;
  };
  while (!stop_.load(std::memory_order_relaxed)) {
    if (!following()) {
      // Every shard promoted (PROMOTE op or auto-promote below): this
      // server is now a primary; stop pulling and fence the old one.
      FenceOldPrimary();
      return;
    }
    const auto now = std::chrono::steady_clock::now();
    auto since_contact =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            now - last_contact)
            .count();
    if (options_.auto_promote_ms > 0 &&
        since_contact > options_.auto_promote_ms) {
      bool bootstrapping = false;
      for (auto& st : shards_) {
        if (st->bootstrapping.load(std::memory_order_acquire)) {
          bootstrapping = true;
        }
      }
      // Never self-promote a shard whose bootstrap is incomplete: its
      // DB is missing keys the dead primary acked.
      if (!bootstrapping) {
        for (uint32_t s = 0; s < shards_.size(); s++) {
          if (!IsPrimary(s)) PromoteShard(s, Epoch(s));
        }
        continue;  // next iteration exits via following() == false
      }
    }
    if (!client.connected()) {
      subscribed = false;
      if (!client.Connect(host, port).ok()) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options_.reconnect_backoff_ms));
        continue;
      }
    }
    if (!subscribed) {
      bool all_ok = true;
      for (uint32_t s = 0; s < shards_.size(); s++) {
        if (IsPrimary(s)) continue;
        net::ReplSubscribeRequest sub;
        sub.shard = s;
        sub.epoch = Epoch(s);
        sub.follower_id = self_endpoint_;
        net::ReplSubscribeResponse resp;
        Status st = client.ReplSubscribe(sub, &resp);
        if (ReplTrace())
          fprintf(stderr, "[%ld fol] subscribe shard=%u -> %s\n",
                  ReplTraceMs(), s, st.ToString().c_str());
        if (!st.ok()) {
          all_ok = false;
          if (!client.connected()) break;
          continue;
        }
        if (resp.epoch > Epoch(s)) FenceEpoch(s, resp.epoch);
      }
      if (!client.connected()) continue;
      subscribed = all_ok;
      if (all_ok) last_contact = std::chrono::steady_clock::now();
    }
    // No idle sleep: a caught-up follower's fetch is held by the
    // primary until its log moves (ReplHub::MayHoldFetch).
    bool transport_ok = true;
    for (uint32_t s = 0;
         s < shards_.size() && !stop_.load(std::memory_order_relaxed);
         s++) {
      if (IsPrimary(s)) continue;
      if (!PullShard(&client, s)) {
        transport_ok = false;
        break;
      }
      // Every answered fetch is contact: a round of held fetches takes
      // up to kFetchHoldMs per shard and must not read as silence.
      last_contact = std::chrono::steady_clock::now();
    }
    if (!transport_ok || !client.connected()) {
      client.Close();
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.reconnect_backoff_ms));
      continue;
    }
  }
}

}  // namespace repl
}  // namespace cachekv
