#include "net/protocol.h"

#include "util/coding.h"

namespace cachekv {
namespace net {

namespace {

/// Bounds-checked cursor primitives over a payload slice.
bool GetU8(Slice* in, uint8_t* out) {
  if (in->size() < 1) return false;
  *out = static_cast<uint8_t>(in->data()[0]);
  in->remove_prefix(1);
  return true;
}

bool GetU32(Slice* in, uint32_t* out) {
  if (in->size() < 4) return false;
  *out = DecodeFixed32(in->data());
  in->remove_prefix(4);
  return true;
}

bool GetU64(Slice* in, uint64_t* out) {
  if (in->size() < 8) return false;
  *out = DecodeFixed64(in->data());
  in->remove_prefix(8);
  return true;
}

bool GetBytes(Slice* in, uint32_t len, Slice* out) {
  if (in->size() < len) return false;
  *out = Slice(in->data(), len);
  in->remove_prefix(len);
  return true;
}

Status DecodeError(const char* what) {
  return Status::InvalidArgument("decode", what);
}

void AppendFrame(std::string* out, Op op, bool response, uint16_t code,
                 uint64_t id, const Slice& payload,
                 const TraceContext& tc = TraceContext(),
                 const SnapshotRef& snap = SnapshotRef()) {
  size_t body = kFrameFixedBody + payload.size() +
                (tc.traced ? kTraceContextBytes : 0) +
                (snap.at_snapshot ? kSnapshotIdBytes : 0);
  PutFixed32(out, static_cast<uint32_t>(body));
  out->push_back(static_cast<char>(op));
  uint8_t flags = (response ? kFlagResponse : 0) |
                  (tc.traced ? kFlagTraced : 0) |
                  (snap.at_snapshot ? kFlagAtSnapshot : 0);
  out->push_back(static_cast<char>(flags));
  char code_buf[2];
  code_buf[0] = static_cast<char>(code & 0xff);
  code_buf[1] = static_cast<char>(code >> 8);
  out->append(code_buf, 2);
  PutFixed64(out, id);
  if (tc.traced) {
    PutFixed64(out, tc.trace_id);
    PutFixed64(out, tc.server_ns);
  }
  if (snap.at_snapshot) {
    PutFixed64(out, snap.id);
  }
  out->append(payload.data(), payload.size());
}

void AppendKey(std::string* out, const Slice& key) {
  PutFixed32(out, static_cast<uint32_t>(key.size()));
  out->append(key.data(), key.size());
}

}  // namespace

bool ValidOp(uint8_t raw) {
  return raw >= static_cast<uint8_t>(Op::kGet) &&
         raw <= static_cast<uint8_t>(Op::kSnapshotRelease);
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kGet: return "get";
    case Op::kPut: return "put";
    case Op::kDelete: return "del";
    case Op::kMultiPut: return "multiput";
    case Op::kScan: return "scan";
    case Op::kStats: return "stats";
    case Op::kPing: return "ping";
    case Op::kShardMap: return "shardmap";
    case Op::kSlowLog: return "slowlog";
    case Op::kMetricsProm: return "metricsprom";
    case Op::kReplSubscribe: return "replsubscribe";
    case Op::kReplBatch: return "replbatch";
    case Op::kReplAck: return "replack";
    case Op::kReplSnapshot: return "replsnapshot";
    case Op::kPromote: return "promote";
    case Op::kSnapshot: return "snapshot";
    case Op::kSnapshotRelease: return "snapshotrelease";
  }
  return "?";
}

const char* WireCodeName(uint16_t code) {
  switch (code) {
    case kOk: return "ok";
    case kNotFound: return "not_found";
    case kCorruption: return "corruption";
    case kNotSupported: return "not_supported";
    case kInvalidArgument: return "invalid_argument";
    case kIOError: return "io_error";
    case kBusy: return "busy";
    case kOutOfSpace: return "out_of_space";
    case kReadOnly: return "read_only";
    case kDecodeError: return "decode_error";
    case kTooLarge: return "too_large";
    case kUnknownOp: return "unknown_op";
    case kNotPrimary: return "not_primary";
    case kStaleEpoch: return "stale_epoch";
    case kReplLagged: return "repl_lagged";
    case kReplTimeout: return "repl_timeout";
    case kSnapshotUnknown: return "snapshot_unknown";
  }
  return "unknown_code";
}

uint16_t WireCodeOf(const Status& s) {
  if (s.ok()) return kOk;
  if (s.IsNotFound()) return kNotFound;
  if (s.IsCorruption()) return kCorruption;
  if (s.IsNotSupported()) return kNotSupported;
  if (s.IsInvalidArgument()) return kInvalidArgument;
  if (s.IsBusy()) return kBusy;
  if (s.IsOutOfSpace()) return kOutOfSpace;
  return kIOError;
}

Status StatusFromWire(uint16_t code, const Slice& message) {
  switch (code) {
    case kOk: return Status::OK();
    case kNotFound: return Status::NotFound(message);
    case kCorruption: return Status::Corruption(message);
    case kNotSupported: return Status::NotSupported(message);
    case kInvalidArgument: return Status::InvalidArgument(message);
    case kBusy: return Status::Busy(message);
    case kOutOfSpace: return Status::OutOfSpace(message);
    case kReadOnly:
      // Matches the local DB behavior: degraded writes surface as the
      // sticky background IOError with "read-only" in the message.
      return Status::IOError("read-only", message);
    case kDecodeError:
    case kTooLarge:
    case kUnknownOp:
      return Status::InvalidArgument(WireCodeName(code), message);
    case kNotPrimary:
      // Routed away from the primary; ShardedClient re-fetches the map
      // and retries. The context string lets callers distinguish it.
      return Status::IOError("not_primary", message);
    case kStaleEpoch: return Status::InvalidArgument("stale_epoch", message);
    case kReplLagged:
      // from_seq fell behind the truncated log — resync via snapshot.
      return Status::NotFound(message.empty() ? Slice("repl_lagged")
                                              : message);
    case kReplTimeout:
      // Committed on the primary; the ack policy was not met in time.
      return Status::Busy(message.empty() ? Slice("repl_timeout") : message);
    case kSnapshotUnknown:
      // The pin was never taken, was released, or expired past its TTL;
      // the caller re-pins and retries.
      return Status::NotFound(message.empty() ? Slice("snapshot_unknown")
                                              : message);
    default: return Status::IOError(WireCodeName(code), message);
  }
}

FrameDecoder::FrameDecoder(size_t max_frame_body)
    : max_frame_body_(max_frame_body) {}

void FrameDecoder::Feed(const char* data, size_t len) {
  if (failed_) return;
  // Drop the consumed prefix before it grows unbounded.
  if (pos_ > 0 && (pos_ == buf_.size() || pos_ >= (64u << 10))) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, len);
}

FrameDecoder::Result FrameDecoder::Next(Frame* out) {
  if (failed_) return Result::kError;
  const size_t avail = buf_.size() - pos_;
  if (avail < 4) return Result::kNeedMore;
  const char* base = buf_.data() + pos_;
  const uint32_t body_len = DecodeFixed32(base);
  if (body_len < kFrameFixedBody) {
    failed_ = true;
    error_ = "frame body shorter than fixed header";
    return Result::kError;
  }
  if (body_len > max_frame_body_) {
    failed_ = true;
    error_ = "frame exceeds the maximum frame size";
    return Result::kError;
  }
  // Opcode and flags are validated as soon as they are present, so a
  // garbage stream fails fast instead of stalling on a bogus length.
  if (avail >= 6) {
    const uint8_t raw_op = static_cast<uint8_t>(base[4]);
    const uint8_t flags = static_cast<uint8_t>(base[5]);
    if (!ValidOp(raw_op)) {
      failed_ = true;
      error_ = "unknown opcode";
      return Result::kError;
    }
    if ((flags & ~(kFlagResponse | kFlagTraced | kFlagAtSnapshot)) != 0) {
      failed_ = true;
      error_ = "reserved flag bits set";
      return Result::kError;
    }
    if ((flags & kFlagAtSnapshot) != 0 && (flags & kFlagResponse) != 0) {
      failed_ = true;
      error_ = "at-snapshot flag set on a response";
      return Result::kError;
    }
    const size_t prefix_bytes =
        ((flags & kFlagTraced) != 0 ? kTraceContextBytes : 0) +
        ((flags & kFlagAtSnapshot) != 0 ? kSnapshotIdBytes : 0);
    if (body_len < kFrameFixedBody + prefix_bytes) {
      failed_ = true;
      error_ = "frame too short for its payload prefixes";
      return Result::kError;
    }
  }
  if (avail < 4u + body_len) return Result::kNeedMore;
  const uint8_t flags = static_cast<uint8_t>(base[5]);
  out->op = static_cast<Op>(static_cast<uint8_t>(base[4]));
  out->response = (flags & kFlagResponse) != 0;
  out->traced = (flags & kFlagTraced) != 0;
  out->at_snapshot = (flags & kFlagAtSnapshot) != 0;
  out->code = static_cast<uint16_t>(
      static_cast<uint8_t>(base[6]) |
      (static_cast<uint16_t>(static_cast<uint8_t>(base[7])) << 8));
  out->request_id = DecodeFixed64(base + 8);
  const char* payload = base + kFrameHeaderBytes;
  size_t payload_len = body_len - kFrameFixedBody;
  if (out->traced) {
    out->trace_id = DecodeFixed64(payload);
    out->server_ns = DecodeFixed64(payload + 8);
    payload += kTraceContextBytes;
    payload_len -= kTraceContextBytes;
  } else {
    out->trace_id = 0;
    out->server_ns = 0;
  }
  if (out->at_snapshot) {
    out->snapshot_id = DecodeFixed64(payload);
    payload += kSnapshotIdBytes;
    payload_len -= kSnapshotIdBytes;
  } else {
    out->snapshot_id = 0;
  }
  out->payload = Slice(payload, payload_len);
  pos_ += 4u + body_len;
  return Result::kFrame;
}

// Request encoders. ---------------------------------------------------

void EncodeGetRequest(std::string* out, uint64_t id, const Slice& key,
                      const TraceContext& tc, const SnapshotRef& snap) {
  std::string payload;
  AppendKey(&payload, key);
  AppendFrame(out, Op::kGet, false, kOk, id, payload, tc, snap);
}

void EncodePutRequest(std::string* out, uint64_t id, const Slice& key,
                      const Slice& value, const TraceContext& tc) {
  std::string payload;
  AppendKey(&payload, key);
  PutFixed32(&payload, static_cast<uint32_t>(value.size()));
  payload.append(value.data(), value.size());
  AppendFrame(out, Op::kPut, false, kOk, id, payload, tc);
}

void EncodeDeleteRequest(std::string* out, uint64_t id, const Slice& key,
                         const TraceContext& tc) {
  std::string payload;
  AppendKey(&payload, key);
  AppendFrame(out, Op::kDelete, false, kOk, id, payload, tc);
}

void EncodeMultiPutRequest(std::string* out, uint64_t id,
                           const std::vector<KVStore::BatchOp>& batch,
                           const TraceContext& tc) {
  std::string payload;
  PutFixed32(&payload, static_cast<uint32_t>(batch.size()));
  for (const KVStore::BatchOp& op : batch) {
    payload.push_back(op.is_delete ? 1 : 0);
    AppendKey(&payload, op.key);
    PutFixed32(&payload, static_cast<uint32_t>(op.value.size()));
    payload.append(op.value);
  }
  AppendFrame(out, Op::kMultiPut, false, kOk, id, payload, tc);
}

void EncodeScanRequest(std::string* out, uint64_t id, const Slice& start,
                       uint32_t limit, const TraceContext& tc,
                       const SnapshotRef& snap) {
  std::string payload;
  AppendKey(&payload, start);
  PutFixed32(&payload, limit);
  AppendFrame(out, Op::kScan, false, kOk, id, payload, tc, snap);
}

void EncodeStatsRequest(std::string* out, uint64_t id) {
  AppendFrame(out, Op::kStats, false, kOk, id, Slice());
}

void EncodePingRequest(std::string* out, uint64_t id) {
  AppendFrame(out, Op::kPing, false, kOk, id, Slice());
}

void EncodeShardMapRequest(std::string* out, uint64_t id) {
  AppendFrame(out, Op::kShardMap, false, kOk, id, Slice());
}

void EncodeSlowLogRequest(std::string* out, uint64_t id, uint32_t limit) {
  std::string payload;
  PutFixed32(&payload, limit);
  AppendFrame(out, Op::kSlowLog, false, kOk, id, payload);
}

void EncodeMetricsPromRequest(std::string* out, uint64_t id) {
  AppendFrame(out, Op::kMetricsProm, false, kOk, id, Slice());
}

void EncodeSnapshotRequest(std::string* out, uint64_t id, uint32_t ttl_ms) {
  std::string payload;
  PutFixed32(&payload, ttl_ms);
  AppendFrame(out, Op::kSnapshot, false, kOk, id, payload);
}

void EncodeSnapshotReleaseRequest(std::string* out, uint64_t id,
                                  uint64_t snapshot_id) {
  std::string payload;
  PutFixed64(&payload, snapshot_id);
  AppendFrame(out, Op::kSnapshotRelease, false, kOk, id, payload);
}

// Response encoders. --------------------------------------------------

void EncodeOkResponse(std::string* out, Op op, uint64_t id,
                      const Slice& payload, const TraceContext& tc) {
  AppendFrame(out, op, true, kOk, id, payload, tc);
}

void EncodeErrorResponse(std::string* out, Op op, uint64_t id,
                         uint16_t code, const Slice& message,
                         const TraceContext& tc) {
  AppendFrame(out, op, true, code, id, message, tc);
}

void EncodeScanPayload(
    std::string* out,
    const std::vector<std::pair<std::string, std::string>>& entries) {
  PutFixed32(out, static_cast<uint32_t>(entries.size()));
  for (const auto& [key, value] : entries) {
    PutFixed32(out, static_cast<uint32_t>(key.size()));
    out->append(key);
    PutFixed32(out, static_cast<uint32_t>(value.size()));
    out->append(value);
  }
}

// Payload parsers. ----------------------------------------------------

namespace {

Status ParseKey(Slice* in, Slice* key) {
  uint32_t klen = 0;
  if (!GetU32(in, &klen)) return DecodeError("truncated key length");
  if (klen > kMaxKeyBytes) return DecodeError("key too large");
  if (!GetBytes(in, klen, key)) return DecodeError("truncated key");
  return Status::OK();
}

Status ParseValue(Slice* in, Slice* value) {
  uint32_t vlen = 0;
  if (!GetU32(in, &vlen)) return DecodeError("truncated value length");
  if (!GetBytes(in, vlen, value)) return DecodeError("truncated value");
  return Status::OK();
}

Status ExpectEmpty(const Slice& in) {
  if (!in.empty()) return DecodeError("trailing bytes in payload");
  return Status::OK();
}

}  // namespace

Status ParseGetRequest(const Slice& payload, GetRequest* out) {
  Slice in = payload;
  Status s = ParseKey(&in, &out->key);
  if (!s.ok()) return s;
  return ExpectEmpty(in);
}

Status ParsePutRequest(const Slice& payload, PutRequest* out) {
  Slice in = payload;
  Status s = ParseKey(&in, &out->key);
  if (!s.ok()) return s;
  s = ParseValue(&in, &out->value);
  if (!s.ok()) return s;
  return ExpectEmpty(in);
}

Status ParseDeleteRequest(const Slice& payload, DeleteRequest* out) {
  Slice in = payload;
  Status s = ParseKey(&in, &out->key);
  if (!s.ok()) return s;
  return ExpectEmpty(in);
}

Status ParseMultiPutRequest(const Slice& payload, MultiPutRequest* out) {
  Slice in = payload;
  uint32_t count = 0;
  if (!GetU32(&in, &count)) return DecodeError("truncated batch count");
  if (count > kMaxBatchCount) return DecodeError("batch count too large");
  // Each op costs at least 10 bytes on the wire; a count announcing
  // more ops than the payload could hold is rejected before reserving.
  if (static_cast<uint64_t>(count) * 10 > in.size()) {
    return DecodeError("batch count exceeds payload");
  }
  out->ops.clear();
  out->ops.reserve(count);
  for (uint32_t i = 0; i < count; i++) {
    KVStore::BatchOp op;
    uint8_t is_delete = 0;
    if (!GetU8(&in, &is_delete)) return DecodeError("truncated batch op");
    if (is_delete > 1) return DecodeError("bad is_delete flag");
    op.is_delete = is_delete != 0;
    Slice key, value;
    Status s = ParseKey(&in, &key);
    if (!s.ok()) return s;
    s = ParseValue(&in, &value);
    if (!s.ok()) return s;
    if (op.is_delete && !value.empty()) {
      return DecodeError("delete op carries a value");
    }
    op.key = key.ToString();
    op.value = value.ToString();
    out->ops.push_back(std::move(op));
  }
  return ExpectEmpty(in);
}

Status ParseScanRequest(const Slice& payload, ScanRequest* out) {
  Slice in = payload;
  Status s = ParseKey(&in, &out->start);
  if (!s.ok()) return s;
  if (!GetU32(&in, &out->limit)) return DecodeError("truncated scan limit");
  return ExpectEmpty(in);
}

Status ParseSlowLogRequest(const Slice& payload, SlowLogRequest* out) {
  Slice in = payload;
  if (!GetU32(&in, &out->limit)) {
    return DecodeError("truncated slowlog limit");
  }
  return ExpectEmpty(in);
}

Status ParseSnapshotRequest(const Slice& payload, SnapshotRequest* out) {
  Slice in = payload;
  if (!GetU32(&in, &out->ttl_ms)) {
    return DecodeError("truncated snapshot ttl");
  }
  return ExpectEmpty(in);
}

Status ParseSnapshotReleaseRequest(const Slice& payload,
                                   SnapshotReleaseRequest* out) {
  Slice in = payload;
  if (!GetU64(&in, &out->snapshot_id)) {
    return DecodeError("truncated snapshot id");
  }
  return ExpectEmpty(in);
}

void EncodeSnapshotPayload(std::string* out, const SnapshotResponse& resp) {
  PutFixed64(out, resp.snapshot_id);
  PutFixed32(out, static_cast<uint32_t>(resp.shard_seqs.size()));
  for (uint64_t seq : resp.shard_seqs) {
    PutFixed64(out, seq);
  }
}

Status ParseSnapshotPayload(const Slice& payload, SnapshotResponse* out) {
  Slice in = payload;
  if (!GetU64(&in, &out->snapshot_id)) {
    return DecodeError("truncated snapshot id");
  }
  uint32_t count = 0;
  if (!GetU32(&in, &count)) return DecodeError("truncated shard count");
  if (static_cast<uint64_t>(count) * 8 > in.size()) {
    return DecodeError("shard count exceeds payload");
  }
  out->shard_seqs.clear();
  out->shard_seqs.reserve(count);
  for (uint32_t i = 0; i < count; i++) {
    uint64_t seq = 0;
    if (!GetU64(&in, &seq)) return DecodeError("truncated shard sequence");
    out->shard_seqs.push_back(seq);
  }
  return ExpectEmpty(in);
}

// Replication ops. ----------------------------------------------------

void EncodeReplOps(std::string* out,
                   const std::vector<KVStore::BatchOp>& ops) {
  PutFixed32(out, static_cast<uint32_t>(ops.size()));
  for (const KVStore::BatchOp& op : ops) {
    out->push_back(op.is_delete ? 1 : 0);
    AppendKey(out, op.key);
    PutFixed32(out, static_cast<uint32_t>(op.value.size()));
    out->append(op.value);
  }
}

Status ParseReplOps(const Slice& blob,
                    std::vector<KVStore::BatchOp>* out) {
  // Same body format as MULTIPUT, same validation rules.
  MultiPutRequest req;
  Status s = ParseMultiPutRequest(blob, &req);
  if (!s.ok()) return s;
  *out = std::move(req.ops);
  return Status::OK();
}

void EncodeReplSubscribeRequest(std::string* out, uint64_t id,
                                const ReplSubscribeRequest& req) {
  std::string payload;
  PutFixed32(&payload, req.shard);
  PutFixed64(&payload, req.epoch);
  AppendKey(&payload, req.follower_id);
  AppendFrame(out, Op::kReplSubscribe, false, kOk, id, payload);
}

void EncodeReplBatchRequest(std::string* out, uint64_t id,
                            const ReplBatchRequest& req) {
  std::string payload;
  PutFixed32(&payload, req.shard);
  PutFixed64(&payload, req.epoch);
  PutFixed64(&payload, req.from_seq);
  PutFixed32(&payload, req.max_batches);
  AppendFrame(out, Op::kReplBatch, false, kOk, id, payload);
}

void EncodeReplAckRequest(std::string* out, uint64_t id,
                          const ReplAckRequest& req) {
  std::string payload;
  PutFixed32(&payload, req.shard);
  PutFixed64(&payload, req.epoch);
  AppendKey(&payload, req.follower_id);
  PutFixed64(&payload, req.acked_seq);
  AppendFrame(out, Op::kReplAck, false, kOk, id, payload);
}

void EncodeReplSnapshotRequest(std::string* out, uint64_t id,
                               const ReplSnapshotRequest& req) {
  std::string payload;
  PutFixed32(&payload, req.shard);
  PutFixed64(&payload, req.epoch);
  AppendKey(&payload, req.cursor);
  PutFixed32(&payload, req.max_entries);
  AppendFrame(out, Op::kReplSnapshot, false, kOk, id, payload);
}

void EncodePromoteRequest(std::string* out, uint64_t id, uint32_t shard) {
  std::string payload;
  PutFixed32(&payload, shard);
  AppendFrame(out, Op::kPromote, false, kOk, id, payload);
}

void EncodeReplSubscribePayload(std::string* out,
                                const ReplSubscribeResponse& resp) {
  PutFixed64(out, resp.epoch);
  PutFixed64(out, resp.log_start);
  PutFixed64(out, resp.log_head);
  PutFixed64(out, resp.log_run_id);
}

void EncodeReplBatchPayload(std::string* out,
                            const ReplBatchResponse& resp) {
  PutFixed64(out, resp.epoch);
  PutFixed64(out, resp.log_head);
  PutFixed64(out, resp.log_run_id);
  PutFixed32(out, static_cast<uint32_t>(resp.records.size()));
  for (const ReplRecord& rec : resp.records) {
    PutFixed64(out, rec.log_seq);
    PutFixed64(out, rec.last_db_seq);
    PutFixed32(out, static_cast<uint32_t>(rec.ops_blob.size()));
    out->append(rec.ops_blob);
  }
}

void EncodeReplSnapshotPayload(std::string* out,
                               const ReplSnapshotResponse& resp) {
  PutFixed64(out, resp.epoch);
  PutFixed64(out, resp.log_pos);
  PutFixed64(out, resp.log_run_id);
  out->push_back(resp.done ? 1 : 0);
  EncodeScanPayload(out, resp.entries);
}

void EncodePromotePayload(std::string* out, uint64_t new_epoch) {
  PutFixed64(out, new_epoch);
}

Status ParseReplSubscribeRequest(const Slice& payload,
                                 ReplSubscribeRequest* out) {
  Slice in = payload;
  if (!GetU32(&in, &out->shard)) return DecodeError("truncated shard");
  if (!GetU64(&in, &out->epoch)) return DecodeError("truncated epoch");
  Status s = ParseKey(&in, &out->follower_id);
  if (!s.ok()) return s;
  return ExpectEmpty(in);
}

Status ParseReplBatchRequest(const Slice& payload, ReplBatchRequest* out) {
  Slice in = payload;
  if (!GetU32(&in, &out->shard)) return DecodeError("truncated shard");
  if (!GetU64(&in, &out->epoch)) return DecodeError("truncated epoch");
  if (!GetU64(&in, &out->from_seq)) {
    return DecodeError("truncated from_seq");
  }
  if (!GetU32(&in, &out->max_batches)) {
    return DecodeError("truncated max_batches");
  }
  return ExpectEmpty(in);
}

Status ParseReplAckRequest(const Slice& payload, ReplAckRequest* out) {
  Slice in = payload;
  if (!GetU32(&in, &out->shard)) return DecodeError("truncated shard");
  if (!GetU64(&in, &out->epoch)) return DecodeError("truncated epoch");
  Status s = ParseKey(&in, &out->follower_id);
  if (!s.ok()) return s;
  if (!GetU64(&in, &out->acked_seq)) {
    return DecodeError("truncated acked_seq");
  }
  return ExpectEmpty(in);
}

Status ParseReplSnapshotRequest(const Slice& payload,
                                ReplSnapshotRequest* out) {
  Slice in = payload;
  if (!GetU32(&in, &out->shard)) return DecodeError("truncated shard");
  if (!GetU64(&in, &out->epoch)) return DecodeError("truncated epoch");
  Status s = ParseKey(&in, &out->cursor);
  if (!s.ok()) return s;
  if (!GetU32(&in, &out->max_entries)) {
    return DecodeError("truncated max_entries");
  }
  return ExpectEmpty(in);
}

Status ParsePromoteRequest(const Slice& payload, PromoteRequest* out) {
  Slice in = payload;
  if (!GetU32(&in, &out->shard)) return DecodeError("truncated shard");
  return ExpectEmpty(in);
}

Status ParseReplSubscribePayload(const Slice& payload,
                                 ReplSubscribeResponse* out) {
  Slice in = payload;
  if (!GetU64(&in, &out->epoch)) return DecodeError("truncated epoch");
  if (!GetU64(&in, &out->log_start)) {
    return DecodeError("truncated log_start");
  }
  if (!GetU64(&in, &out->log_head)) {
    return DecodeError("truncated log_head");
  }
  if (!GetU64(&in, &out->log_run_id)) {
    return DecodeError("truncated log_run_id");
  }
  return ExpectEmpty(in);
}

Status ParseReplBatchPayload(const Slice& payload,
                             ReplBatchResponse* out) {
  Slice in = payload;
  if (!GetU64(&in, &out->epoch)) return DecodeError("truncated epoch");
  if (!GetU64(&in, &out->log_head)) {
    return DecodeError("truncated log_head");
  }
  if (!GetU64(&in, &out->log_run_id)) {
    return DecodeError("truncated log_run_id");
  }
  uint32_t count = 0;
  if (!GetU32(&in, &count)) return DecodeError("truncated record count");
  // Each record costs at least 20 bytes on the wire.
  if (static_cast<uint64_t>(count) * 20 > in.size()) {
    return DecodeError("record count exceeds payload");
  }
  out->records.clear();
  out->records.reserve(count);
  for (uint32_t i = 0; i < count; i++) {
    ReplRecord rec;
    if (!GetU64(&in, &rec.log_seq)) {
      return DecodeError("truncated log_seq");
    }
    if (!GetU64(&in, &rec.last_db_seq)) {
      return DecodeError("truncated last_db_seq");
    }
    uint32_t blob_len = 0;
    if (!GetU32(&in, &blob_len)) return DecodeError("truncated blob length");
    Slice blob;
    if (!GetBytes(&in, blob_len, &blob)) {
      return DecodeError("truncated ops blob");
    }
    // Validate the blob eagerly so a garbage record fails at the wire
    // boundary, not during apply.
    std::vector<KVStore::BatchOp> ops;
    Status s = ParseReplOps(blob, &ops);
    if (!s.ok()) return s;
    rec.ops_blob = blob.ToString();
    out->records.push_back(std::move(rec));
  }
  return ExpectEmpty(in);
}

Status ParseReplSnapshotPayload(const Slice& payload,
                                ReplSnapshotResponse* out) {
  Slice in = payload;
  if (!GetU64(&in, &out->epoch)) return DecodeError("truncated epoch");
  if (!GetU64(&in, &out->log_pos)) return DecodeError("truncated log_pos");
  if (!GetU64(&in, &out->log_run_id)) {
    return DecodeError("truncated log_run_id");
  }
  uint8_t done = 0;
  if (!GetU8(&in, &done)) return DecodeError("truncated done flag");
  if (done > 1) return DecodeError("bad done flag");
  out->done = done != 0;
  return ParseScanPayload(in, &out->entries);
}

Status ParsePromotePayload(const Slice& payload, uint64_t* new_epoch) {
  Slice in = payload;
  if (!GetU64(&in, new_epoch)) return DecodeError("truncated epoch");
  return ExpectEmpty(in);
}

Status ParseScanPayload(
    const Slice& payload,
    std::vector<std::pair<std::string, std::string>>* out) {
  Slice in = payload;
  uint32_t count = 0;
  if (!GetU32(&in, &count)) return DecodeError("truncated scan count");
  if (static_cast<uint64_t>(count) * 8 > in.size()) {
    return DecodeError("scan count exceeds payload");
  }
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; i++) {
    Slice key, value;
    Status s = ParseKey(&in, &key);
    if (!s.ok()) return s;
    s = ParseValue(&in, &value);
    if (!s.ok()) return s;
    out->emplace_back(key.ToString(), value.ToString());
  }
  return ExpectEmpty(in);
}

}  // namespace net
}  // namespace cachekv
