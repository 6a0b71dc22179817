#ifndef CACHEKV_NET_PROTOCOL_H_
#define CACHEKV_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/kvstore.h"
#include "util/slice.h"
#include "util/status.h"

namespace cachekv {
namespace net {

/// Wire protocol of the CacheKV network service (docs/SERVER.md).
///
/// Every message — request or response — is one length-prefixed frame:
///
///   offset  size  field
///   0       4     body_len   (u32 LE; bytes after this field, >= 12)
///   4       1     opcode     (Op below)
///   5       1     flags      (bit 0: response; bit 1: traced;
///                             bit 2: at-snapshot, requests only)
///   6       2     code       (u16 LE; WireCode; 0 in requests)
///   8       8     request_id (u64 LE; echoed verbatim in the response)
///   16      ...   payload    (body_len - 12 bytes, op-specific)
///
/// All integers are little-endian fixed width. Requests on one
/// connection may be pipelined: the server replies to every request,
/// in request order, carrying the request's id.
///
/// Traced frames (docs/OBSERVABILITY.md "Trace-context propagation"):
/// when flags bit 1 is set, the payload begins with a 16-byte trace
/// context — u64 trace_id, then u64 aux — and the op-specific payload
/// follows. `aux` is 0 in requests; in responses it carries the
/// server-side service time of the request in nanoseconds, so clients
/// can split client-observed latency into server time + network/queue
/// time. FrameDecoder strips the context into Frame::trace_id /
/// Frame::server_ns, so payload parsers see the same bytes either way
/// and traced frames pipeline like any other. A traced frame whose
/// body cannot hold the context is a decode error.
///
/// Payload layouts (after the optional trace context):
///
/// At-snapshot frames (docs/SNAPSHOTS.md): when flags bit 2 is set on a
/// request, the payload begins with a u64 snapshot id — AFTER the trace
/// context when bit 1 is also set — and the op-specific payload
/// follows. The id names a server-side pinned snapshot (SNAPSHOT op
/// below); GET and SCAN then read at the pinned sequence numbers
/// instead of the latest committed state. FrameDecoder strips the id
/// into Frame::snapshot_id, so payload parsers see the same bytes
/// either way. Bit 2 on a response is a decode error (responses never
/// carry the prefix), as is a body too short to hold it; flag bits
/// above bit 2 remain reserved (decode error when set).
///
/// Payload layouts (after the optional trace context / snapshot id):
///
///   GET  req:  u32 klen, key            resp: value bytes
///   PUT  req:  u32 klen, key, u32 vlen, value
///   DEL  req:  u32 klen, key
///   MPUT req:  u32 count, count * { u8 is_delete, u32 klen, key,
///                                   u32 vlen, value }
///   SCAN req:  u32 start_klen, start key, u32 limit
///        resp: u32 count, count * { u32 klen, key, u32 vlen, value }
///   STATS req: empty                    resp: metrics JSON (UTF-8)
///   PING req:  empty                    resp: empty
///   SHARDMAP req: empty                 resp: ShardRouter::Encode image
///        (net/shard_router.h; single-DB servers answer a 1-shard map)
///   SLOWLOG req: u32 limit (0 = all)    resp: slow-log JSON (UTF-8)
///   METRICSPROM req: empty              resp: Prometheus text (UTF-8)
///   SNAPSHOT req: u32 ttl_ms (0 = server default)
///        resp: u64 snapshot_id, u32 shard_count,
///              shard_count * u64 pinned sequence (by shard index)
///   SNAPSHOTRELEASE req: u64 snapshot_id   resp: empty
///
/// Replication ops (docs/REPLICATION.md). All repl requests flow from
/// the follower (or an admin client, for PROMOTE) to the server; the
/// stream is follower-initiated pull, so the pipelined request/response
/// discipline above is preserved. Every repl request carries the
/// sender's (shard, epoch) pair for fencing:
///
///   REPLSUBSCRIBE req: u32 shard, u64 epoch, u32 idlen, follower id
///        resp: u64 epoch, u64 log_start, u64 log_head, u64 log_run_id
///   REPLBATCH req:  u32 shard, u64 epoch, u64 from_seq, u32 max_batches
///        resp: u64 epoch, u64 log_head, u64 log_run_id, u32 count,
///              count * {
///              u64 log_seq, u64 last_db_seq, u32 blob_len,
///              blob = { u32 op_count, op_count * { u8 is_delete,
///                       u32 klen, key, u32 vlen, value } } }
///   REPLACK req:  u32 shard, u64 epoch, u32 idlen, follower id,
///                 u64 acked_seq           resp: empty
///   REPLSNAPSHOT req: u32 shard, u64 epoch, u32 cursor_klen, cursor,
///                     u32 max_entries
///        resp: u64 epoch, u64 log_pos, u64 log_run_id, u8 done,
///              u32 count, count * { u32 klen, key, u32 vlen, value }
///   PROMOTE req:  u32 shard              resp: u64 new_epoch
///
/// `log_run_id` identifies one lifetime of the serving log's numbering
/// (redrawn on restart and on promotion): a follower holding a cursor
/// from a different run id must snapshot-bootstrap, because the seqs it
/// remembers address records that no longer exist.
///
/// Error responses (code != kOk) carry a human-readable message as the
/// payload regardless of opcode.

enum class Op : uint8_t {
  kGet = 1,
  kPut = 2,
  kDelete = 3,
  kMultiPut = 4,
  kScan = 5,
  kStats = 6,
  kPing = 7,
  kShardMap = 8,
  kSlowLog = 9,
  kMetricsProm = 10,
  kReplSubscribe = 11,
  kReplBatch = 12,
  kReplAck = 13,
  kReplSnapshot = 14,
  kPromote = 15,
  kSnapshot = 16,
  kSnapshotRelease = 17,
};

/// Frame flag bits. Anything else is reserved and rejected.
constexpr uint8_t kFlagResponse = 0x01;
constexpr uint8_t kFlagTraced = 0x02;
/// Request-only: the payload carries a u64 snapshot-id prefix (after
/// the trace context, when both flags are set) and the read executes
/// at that pinned snapshot (docs/SNAPSHOTS.md).
constexpr uint8_t kFlagAtSnapshot = 0x04;

/// True when `raw` is a defined opcode.
bool ValidOp(uint8_t raw);
const char* OpName(Op op);

/// Response status codes. 0-7 mirror Status codes so either side can
/// translate losslessly; 100+ are protocol-level conditions with no
/// Status equivalent.
enum WireCode : uint16_t {
  kOk = 0,
  kNotFound = 1,
  kCorruption = 2,
  kNotSupported = 3,
  kInvalidArgument = 4,
  kIOError = 5,
  kBusy = 6,
  kOutOfSpace = 7,
  /// The store degraded to read-only after a background failure
  /// (docs/ROBUSTNESS.md); writes are rejected until the DB reopens.
  kReadOnly = 100,
  /// The request frame or payload failed to parse; the server closes
  /// the connection after sending this.
  kDecodeError = 101,
  /// The request exceeded a server limit (frame size, scan limit).
  kTooLarge = 102,
  /// Valid frame, unknown opcode (client newer than server).
  kUnknownOp = 103,
  /// The shard this keyed request routed to is served by a follower
  /// (docs/REPLICATION.md); clients re-fetch the SHARDMAP and retry
  /// against the shard's current primary.
  kNotPrimary = 104,
  /// A replication request carried an epoch older than the receiver's:
  /// the sender was deposed by a promotion it has not observed yet.
  kStaleEpoch = 105,
  /// The follower's requested log position fell behind the primary's
  /// truncated replication log; it must bootstrap via REPLSNAPSHOT.
  kReplLagged = 106,
  /// The write committed locally but the acknowledgement policy
  /// (--repl-ack) was not satisfied within the timeout; the client must
  /// treat the write's durability as unknown and may retry.
  kReplTimeout = 107,
  /// An at-snapshot read (or a SNAPSHOTRELEASE) named a snapshot id the
  /// server does not hold — never pinned, already released, or expired
  /// past its TTL. Clients re-pin and retry (docs/SNAPSHOTS.md).
  kSnapshotUnknown = 108,
};

const char* WireCodeName(uint16_t code);

/// Response code for `s` (OK => kOk, NotFound => kNotFound, ...).
uint16_t WireCodeOf(const Status& s);

/// Reconstructs a Status from a response code + message. kReadOnly maps
/// to IOError (matching what DB::Put returns locally when degraded);
/// kDecodeError/kTooLarge/kUnknownOp map to InvalidArgument.
Status StatusFromWire(uint16_t code, const Slice& message);

/// Fixed sizes of the frame layout above.
constexpr size_t kFrameHeaderBytes = 16;  // length field + fixed body
constexpr size_t kFrameFixedBody = 12;    // opcode..request_id
/// Bytes of the trace context prefixed to a traced frame's payload.
constexpr size_t kTraceContextBytes = 16;  // trace_id + aux
/// Bytes of the snapshot-id prefix on an at-snapshot request.
constexpr size_t kSnapshotIdBytes = 8;
/// Default cap on body_len; a peer announcing more is a decode error
/// (rejected before any allocation).
constexpr size_t kDefaultMaxFrameBody = 16u << 20;
/// Individual field caps, enforced by the payload parsers.
constexpr size_t kMaxKeyBytes = 64u << 10;
constexpr uint32_t kMaxBatchCount = 1u << 20;
constexpr uint32_t kMaxScanLimit = 1u << 20;

/// One decoded frame. `payload` points into the decoder's buffer and is
/// valid until the next Feed call. For traced frames the trace context
/// has already been stripped: `payload` is the op-specific bytes and
/// trace_id/server_ns hold the context fields. Likewise for at-snapshot
/// requests the u64 snapshot id has been stripped into snapshot_id.
struct Frame {
  Op op = Op::kPing;
  bool response = false;
  bool traced = false;
  bool at_snapshot = false;
  uint16_t code = kOk;
  uint64_t request_id = 0;
  uint64_t trace_id = 0;     // valid when traced
  uint64_t server_ns = 0;    // aux field; service time in responses
  uint64_t snapshot_id = 0;  // valid when at_snapshot
  Slice payload;
};

/// Trace context attached to an encoded frame. Inert by default so
/// existing call sites encode untraced frames unchanged.
struct TraceContext {
  bool traced = false;
  uint64_t trace_id = 0;
  /// Response aux: server-side service time in nanoseconds (0 in
  /// requests).
  uint64_t server_ns = 0;
};

/// Snapshot reference attached to an encoded GET/SCAN request
/// (docs/SNAPSHOTS.md). Inert by default so existing call sites encode
/// latest-reads unchanged.
struct SnapshotRef {
  bool at_snapshot = false;
  /// Server-issued snapshot id (SNAPSHOT response).
  uint64_t id = 0;
};

/// Incremental frame decoder: feed bytes in arbitrary chunks (a single
/// byte at a time is fine), pull complete frames out. Malformed input —
/// undersized/oversized body_len, unknown opcode — latches a permanent
/// error; the caller should close the connection. The decoder never
/// reads past the bytes it was fed and never allocates proportionally
/// to a hostile length announcement.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_frame_body = kDefaultMaxFrameBody);

  /// Appends raw bytes from the peer.
  void Feed(const char* data, size_t len);
  void Feed(const Slice& data) { Feed(data.data(), data.size()); }

  enum class Result { kFrame, kNeedMore, kError };

  /// Extracts the next complete frame. kFrame: *out stays valid until
  /// the next Feed call (Next never moves the buffer, so a batch of
  /// frames can be pulled and processed together). kNeedMore: feed
  /// more bytes. kError: the stream is corrupt (error() says why);
  /// every later call returns kError too.
  Result Next(Frame* out);

  const std::string& error() const { return error_; }
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  size_t max_frame_body_;  // non-const so decoders are re-assignable
  std::string buf_;
  size_t pos_ = 0;
  bool failed_ = false;
  std::string error_;
};

// Request encoding (client side). Keyed ops accept an optional trace
// context (sampled requests). -----------------------------------------

void EncodeGetRequest(std::string* out, uint64_t id, const Slice& key,
                      const TraceContext& tc = TraceContext(),
                      const SnapshotRef& snap = SnapshotRef());
void EncodePutRequest(std::string* out, uint64_t id, const Slice& key,
                      const Slice& value,
                      const TraceContext& tc = TraceContext());
void EncodeDeleteRequest(std::string* out, uint64_t id, const Slice& key,
                         const TraceContext& tc = TraceContext());
void EncodeMultiPutRequest(std::string* out, uint64_t id,
                           const std::vector<KVStore::BatchOp>& batch,
                           const TraceContext& tc = TraceContext());
void EncodeScanRequest(std::string* out, uint64_t id, const Slice& start,
                       uint32_t limit,
                       const TraceContext& tc = TraceContext(),
                       const SnapshotRef& snap = SnapshotRef());
void EncodeStatsRequest(std::string* out, uint64_t id);
void EncodePingRequest(std::string* out, uint64_t id);
void EncodeShardMapRequest(std::string* out, uint64_t id);
/// SLOWLOG request; `limit` caps the returned entries (0 = all).
void EncodeSlowLogRequest(std::string* out, uint64_t id, uint32_t limit);
void EncodeMetricsPromRequest(std::string* out, uint64_t id);
/// SNAPSHOT request; `ttl_ms` bounds the pin's lifetime on the server
/// (0 = server default).
void EncodeSnapshotRequest(std::string* out, uint64_t id, uint32_t ttl_ms);
void EncodeSnapshotReleaseRequest(std::string* out, uint64_t id,
                                  uint64_t snapshot_id);

// Replication wire structures (docs/REPLICATION.md). -----------------

/// One replication-log record as it travels on the wire (and as the
/// ReplLog stores it): the log position, the DB sequence number of the
/// last op in the batch, and the batch itself as an EncodeReplOps blob.
struct ReplRecord {
  uint64_t log_seq = 0;
  uint64_t last_db_seq = 0;
  std::string ops_blob;
};

/// Encodes a committed batch as a replication blob (u32 op_count, then
/// per op: u8 is_delete, u32 klen, key, u32 vlen, value — the MULTIPUT
/// body format).
void EncodeReplOps(std::string* out,
                   const std::vector<KVStore::BatchOp>& ops);
/// Decodes an EncodeReplOps blob; rejects truncation, trailing bytes,
/// oversized counts, and deletes carrying values.
Status ParseReplOps(const Slice& blob,
                    std::vector<KVStore::BatchOp>* out);

struct ReplSubscribeRequest {
  uint32_t shard = 0;
  uint64_t epoch = 0;
  Slice follower_id;
};
struct ReplSubscribeResponse {
  uint64_t epoch = 0;
  uint64_t log_start = 0;
  uint64_t log_head = 0;
  /// Lifetime token of the serving log (ReplLog::run_id).
  uint64_t log_run_id = 0;
};
struct ReplBatchRequest {
  uint32_t shard = 0;
  uint64_t epoch = 0;
  /// First log_seq wanted (exclusive fetches use last_applied + 1).
  uint64_t from_seq = 0;
  uint32_t max_batches = 0;
};
struct ReplBatchResponse {
  uint64_t epoch = 0;
  uint64_t log_head = 0;
  /// Lifetime token of the serving log: a change since the last fetch
  /// (or log_head behind the follower's cursor) means the numbering
  /// restarted and the follower must snapshot-bootstrap.
  uint64_t log_run_id = 0;
  std::vector<ReplRecord> records;
};
struct ReplAckRequest {
  uint32_t shard = 0;
  uint64_t epoch = 0;
  Slice follower_id;
  uint64_t acked_seq = 0;
};
struct ReplSnapshotRequest {
  uint32_t shard = 0;
  uint64_t epoch = 0;
  /// Resume strictly after this key; empty starts the snapshot.
  Slice cursor;
  uint32_t max_entries = 0;
};
struct ReplSnapshotResponse {
  uint64_t epoch = 0;
  /// Replication-log position captured before this page's scan began;
  /// the follower replays the log from the FIRST page's log_pos + 1.
  uint64_t log_pos = 0;
  /// Lifetime token of the log `log_pos` addresses: a bootstrap whose
  /// pages span a run-id change must restart (its captured log_pos is
  /// meaningless in the new numbering).
  uint64_t log_run_id = 0;
  bool done = false;
  std::vector<std::pair<std::string, std::string>> entries;
};
struct PromoteRequest {
  uint32_t shard = 0;
};

void EncodeReplSubscribeRequest(std::string* out, uint64_t id,
                                const ReplSubscribeRequest& req);
void EncodeReplBatchRequest(std::string* out, uint64_t id,
                            const ReplBatchRequest& req);
void EncodeReplAckRequest(std::string* out, uint64_t id,
                          const ReplAckRequest& req);
void EncodeReplSnapshotRequest(std::string* out, uint64_t id,
                               const ReplSnapshotRequest& req);
void EncodePromoteRequest(std::string* out, uint64_t id, uint32_t shard);

/// Success-response payload builders (server side).
void EncodeReplSubscribePayload(std::string* out,
                                const ReplSubscribeResponse& resp);
void EncodeReplBatchPayload(std::string* out,
                            const ReplBatchResponse& resp);
void EncodeReplSnapshotPayload(std::string* out,
                               const ReplSnapshotResponse& resp);
void EncodePromotePayload(std::string* out, uint64_t new_epoch);

Status ParseReplSubscribeRequest(const Slice& payload,
                                 ReplSubscribeRequest* out);
Status ParseReplBatchRequest(const Slice& payload, ReplBatchRequest* out);
Status ParseReplAckRequest(const Slice& payload, ReplAckRequest* out);
Status ParseReplSnapshotRequest(const Slice& payload,
                                ReplSnapshotRequest* out);
Status ParsePromoteRequest(const Slice& payload, PromoteRequest* out);

/// Success-response payload parsers (follower / admin side).
Status ParseReplSubscribePayload(const Slice& payload,
                                 ReplSubscribeResponse* out);
Status ParseReplBatchPayload(const Slice& payload,
                             ReplBatchResponse* out);
Status ParseReplSnapshotPayload(const Slice& payload,
                                ReplSnapshotResponse* out);
Status ParsePromotePayload(const Slice& payload, uint64_t* new_epoch);

// Response encoding (server side). -----------------------------------

/// Success response with an op-specific payload (empty for writes).
/// Responses to traced requests echo the trace context with the
/// service time in `tc.server_ns`.
void EncodeOkResponse(std::string* out, Op op, uint64_t id,
                      const Slice& payload = Slice(),
                      const TraceContext& tc = TraceContext());
/// Error response; `message` becomes the payload.
void EncodeErrorResponse(std::string* out, Op op, uint64_t id,
                         uint16_t code, const Slice& message,
                         const TraceContext& tc = TraceContext());
/// Encodes the SCAN success payload.
void EncodeScanPayload(
    std::string* out,
    const std::vector<std::pair<std::string, std::string>>& entries);

// Request payload parsing (server side). All parsers are bounds-checked
// against the payload slice; they never read outside it. -------------

struct GetRequest {
  Slice key;
};
struct PutRequest {
  Slice key;
  Slice value;
};
struct DeleteRequest {
  Slice key;
};
struct MultiPutRequest {
  std::vector<KVStore::BatchOp> ops;
};
struct ScanRequest {
  Slice start;
  uint32_t limit = 0;
};
struct SlowLogRequest {
  uint32_t limit = 0;  // 0 = all retained entries
};
struct SnapshotRequest {
  uint32_t ttl_ms = 0;  // 0 = server default TTL
};
struct SnapshotReleaseRequest {
  uint64_t snapshot_id = 0;
};
/// SNAPSHOT success response: the server-issued id plus the sequence
/// number pinned on each shard (indexed by shard number).
struct SnapshotResponse {
  uint64_t snapshot_id = 0;
  std::vector<uint64_t> shard_seqs;
};

Status ParseGetRequest(const Slice& payload, GetRequest* out);
Status ParsePutRequest(const Slice& payload, PutRequest* out);
Status ParseDeleteRequest(const Slice& payload, DeleteRequest* out);
Status ParseMultiPutRequest(const Slice& payload, MultiPutRequest* out);
Status ParseScanRequest(const Slice& payload, ScanRequest* out);
Status ParseSlowLogRequest(const Slice& payload, SlowLogRequest* out);
Status ParseSnapshotRequest(const Slice& payload, SnapshotRequest* out);
Status ParseSnapshotReleaseRequest(const Slice& payload,
                                   SnapshotReleaseRequest* out);

/// Encodes / parses the SNAPSHOT success payload.
void EncodeSnapshotPayload(std::string* out, const SnapshotResponse& resp);
Status ParseSnapshotPayload(const Slice& payload, SnapshotResponse* out);

/// Parses a SCAN success payload (client side).
Status ParseScanPayload(
    const Slice& payload,
    std::vector<std::pair<std::string, std::string>>* out);

}  // namespace net
}  // namespace cachekv

#endif  // CACHEKV_NET_PROTOCOL_H_
