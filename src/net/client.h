#ifndef CACHEKV_NET_CLIENT_H_
#define CACHEKV_NET_CLIENT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/protocol.h"
#include "net/shard_router.h"
#include "obs/trace.h"
#include "util/slice.h"
#include "util/status.h"

namespace cachekv {
namespace net {

struct ClientOptions {
  /// recv timeout on the socket; 0 disables (blocks forever).
  uint32_t recv_timeout_ms = 60'000;
  uint32_t connect_timeout_ms = 10'000;
  size_t max_frame_bytes = kDefaultMaxFrameBody;
  /// Trace sampling (docs/OBSERVABILITY.md "Trace-context propagation"):
  /// when > 0, every Nth keyed request (GET/PUT/DEL/MULTIPUT/SCAN) on
  /// the connection is sent as a traced frame carrying a deterministic
  /// 48-bit trace id derived from `trace_seed` and the request ordinal,
  /// so a run is reproducible end to end. 0 disables sampling.
  uint32_t trace_sample_every = 0;
  uint64_t trace_seed = 0;
  /// Optional tracer receiving one "client.<op>" span per sampled
  /// request (tagged with the trace id), so the client-side dump merges
  /// with the server's via tools/trace_merge.py. May be null: traced
  /// frames are still sent and Result::server_ns still fills in.
  obs::Tracer* tracer = nullptr;
  /// ShardedClient failover (docs/REPLICATION.md "Client failover"):
  /// keyed operations that fail on a broken connection or a kNotPrimary
  /// rejection are retried up to this many times, re-fetching the
  /// SHARDMAP from every known endpoint between attempts, with capped
  /// exponential backoff. 0 disables (errors surface immediately).
  /// Plain Client never retries.
  uint32_t max_retries = 2;
  uint32_t retry_backoff_base_ms = 10;
  uint32_t retry_backoff_max_ms = 500;
};

/// Client speaks the CacheKV wire protocol over one TCP connection
/// (docs/SERVER.md).
///
/// Every request takes one path: Submit*() queues it, Flush() pushes the
/// queue out, and WaitAll() collects every response, checking, tracing
/// and timing each one. The server executes pipelined requests in order
/// and may batch consecutive writes into one atomic commit. The
/// synchronous calls (Put/Get/...) are one-request pipelines: each
/// checks that nothing is outstanding, queues its request, and collects
/// its one response with WaitAll().
///
/// A Client is NOT thread-safe: one connection, one thread (open one
/// Client per thread for concurrency — connections are cheap). Any
/// socket-level failure closes the connection; calls after that return
/// IOError("not connected") until Connect() succeeds again.
class Client {
 public:
  Client() : Client(ClientOptions()) {}
  explicit Client(const ClientOptions& options);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Status Connect(const std::string& host, uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  // Synchronous API. These fail with InvalidArgument while pipelined
  // requests are outstanding (collect them first). ------------------

  Status Put(const Slice& key, const Slice& value);
  Status Get(const Slice& key, std::string* value);
  Status Delete(const Slice& key);
  Status MultiPut(const std::vector<KVStore::BatchOp>& batch);
  Status Scan(const Slice& start, uint32_t limit,
              std::vector<std::pair<std::string, std::string>>* out);
  /// Server-side metrics dump (the registry JSON; see docs/SERVER.md).
  Status Stats(std::string* json);
  /// Server-side slow-request log as JSON, newest first; `limit` caps
  /// the entries (0 = all retained).
  Status SlowLog(uint32_t limit, std::string* json);
  /// Server metrics in Prometheus text exposition format.
  Status MetricsProm(std::string* text);
  Status Ping();
  /// Fetches and decodes the server's SHARDMAP (a 1-shard identity map
  /// from unsharded servers). ShardedClient uses this to bootstrap.
  Status FetchShardMap(ShardRouter* out);

  // Snapshot API (docs/SNAPSHOTS.md). -------------------------------

  /// Pins a snapshot on the server: *resp receives the server-issued
  /// id and the sequence pinned on each shard the server hosts.
  /// `ttl_ms` bounds the pin's lifetime (0 = server default); the
  /// server may shorten but never extend the requested TTL.
  Status CreateSnapshot(uint32_t ttl_ms, SnapshotResponse* resp);
  /// Unpins `snapshot_id` on the server. NotFound("snapshot_unknown")
  /// when the id was never pinned, already released, or TTL-expired.
  Status ReleaseSnapshot(uint64_t snapshot_id);
  /// GET at a pinned snapshot: sees exactly the versions the pin
  /// froze, bypassing the server's hot-key cache.
  Status GetAt(const Slice& key, uint64_t snapshot_id,
               std::string* value);
  /// SCAN at a pinned snapshot (one consistent cut across the server's
  /// shards).
  Status ScanAt(const Slice& start, uint32_t limit, uint64_t snapshot_id,
                std::vector<std::pair<std::string, std::string>>* out);

  // Replication API (docs/REPLICATION.md): follower-side pull calls
  // used by repl::ReplHub, plus the admin PROMOTE. ------------------

  Status ReplSubscribe(const ReplSubscribeRequest& req,
                       ReplSubscribeResponse* resp);
  Status ReplFetch(const ReplBatchRequest& req, ReplBatchResponse* resp);
  Status ReplAck(const ReplAckRequest& req);
  Status ReplSnapshot(const ReplSnapshotRequest& req,
                      ReplSnapshotResponse* resp);
  /// Bumps the shard's epoch on the receiving server and flips it to
  /// primary; `*new_epoch` receives the epoch it now reigns under.
  Status Promote(uint32_t shard, uint64_t* new_epoch);

  /// Wire code of the last synchronous response (kOk on success, 0
  /// when the call failed before a response arrived). Lets callers
  /// distinguish kNotPrimary / kReplTimeout / ... without parsing
  /// Status text; ShardedClient keys its failover on it.
  uint16_t last_wire_code() const { return last_wire_code_; }

  // Pipelined API. --------------------------------------------------

  /// Queues a request and returns its id (unique per connection).
  /// Nothing is sent until Flush(); WaitAll() returns the responses.
  uint64_t SubmitGet(const Slice& key);
  uint64_t SubmitPut(const Slice& key, const Slice& value);
  uint64_t SubmitDelete(const Slice& key);
  uint64_t SubmitMultiPut(const std::vector<KVStore::BatchOp>& batch);
  uint64_t SubmitScan(const Slice& start, uint32_t limit);
  uint64_t SubmitScanAt(const Slice& start, uint32_t limit,
                        uint64_t snapshot_id);
  uint64_t SubmitPing();

  /// Writes every queued request to the socket.
  Status Flush();

  /// One pipelined response.
  struct Result {
    uint64_t id = 0;
    Op op = Op::kPing;
    Status status;
    /// Wire code of the response frame (kOk on success); failover
    /// logic keys on kNotPrimary without parsing the Status.
    uint16_t wire_code = 0;
    /// The payload of an OK response (GET: the value), except SCAN's.
    std::string value;
    /// SCAN results (filled only for kScan).
    std::vector<std::pair<std::string, std::string>> entries;
    /// Trace sampling results: set when the request went out traced.
    /// client_ns is the client-observed latency (flush → response);
    /// server_ns the server-reported service time from the response
    /// frame, so client_ns - server_ns bounds network + queue time.
    bool traced = false;
    uint64_t trace_id = 0;
    uint64_t client_ns = 0;
    uint64_t server_ns = 0;
  };

  /// Flushes, then reads responses until every outstanding request is
  /// answered. Responses are appended to *results in arrival (= request)
  /// order. A transport error fails the call and closes the connection;
  /// per-request errors land in each Result::status instead.
  Status WaitAll(std::vector<Result>* results);

  size_t outstanding() const { return outstanding_.size(); }

 private:
  struct PendingOp {
    uint64_t id;
    Op op;
    bool traced = false;
    uint64_t trace_id = 0;
    uint64_t start_ns = 0;  // stamped at Flush (0 until sent)
  };

  /// Records the request whose frame the caller just appended to
  /// sendbuf_ under id next_id_, and returns that id.
  uint64_t Enqueue(Op op, const TraceContext& tc = TraceContext());
  /// Runs one synchronous call as a one-request pipeline: on an idle
  /// connection, `submit` queues the request through Enqueue, and
  /// WaitAll collects its response into *result (may be null).
  template <typename Submit>
  Status Call(const Submit& submit, Result* result = nullptr);
  /// Call() for an unsampled request: its frame is
  /// `encode(&sendbuf_, id, args...)`. On OK, *payload (may be null)
  /// receives the response payload.
  template <typename Encode, typename... Args>
  Status Request(Op op, std::string* payload, Encode encode,
                 const Args&... args);
  /// Decides whether the next keyed request is sampled and derives its
  /// trace id.
  TraceContext NextTrace();
  uint64_t NowNs() const;
  Status SendAll(const char* data, size_t len);
  /// Reads until one complete frame is decoded into *frame.
  Status ReadFrame(Frame* frame);
  void FailConnection();

  ClientOptions options_;
  int fd_ = -1;
  uint16_t last_wire_code_ = 0;
  uint64_t next_id_ = 1;
  uint64_t keyed_seq_ = 0;  // keyed requests sent; drives sampling
  std::string sendbuf_;
  FrameDecoder decoder_;
  std::deque<PendingOp> outstanding_;
};

/// ShardedClient routes every keyed operation to its owning shard on
/// the client side: Connect() bootstraps off one address, fetches the
/// server's SHARDMAP, and opens one connection per shard (to each
/// shard's advertised endpoint: a server advertises its own address for
/// every shard it hosts — see net/shard_router.h). GET/PUT/DEL go
/// straight to the owning shard's connection; MULTIPUT is split per
/// shard (atomic per shard, not across shards). SCAN goes to the one
/// server every shard routes to, which merges across its shards; when
/// the shards route to more than one server (mid-failover), no server
/// can answer for the whole range, so SCAN fails with not_primary
/// without sending. Against an unsharded server this degenerates to a
/// plain single-connection client.
///
/// Failover (docs/REPLICATION.md): when a keyed operation fails on a
/// broken connection or a kNotPrimary rejection, the client re-fetches
/// the SHARDMAP from every endpoint it has ever learned (bootstrap
/// address, advertised endpoints, replica sets, AddSeedEndpoint), picks
/// per shard the server claiming primary under the highest epoch,
/// reconnects, and retries — up to ClientOptions::max_retries times
/// with capped exponential backoff. Transient errors that are neither
/// (Busy, NotFound, validation errors) surface immediately.
///
/// Like Client, a ShardedClient is NOT thread-safe — one instance per
/// thread.
class ShardedClient {
 public:
  ShardedClient() : ShardedClient(ClientOptions()) {}
  explicit ShardedClient(const ClientOptions& options);

  ShardedClient(const ShardedClient&) = delete;
  ShardedClient& operator=(const ShardedClient&) = delete;

  Status Connect(const std::string& host, uint16_t port);
  void Close();
  bool connected() const { return !conns_.empty(); }

  /// Adds a failover candidate ("host:port") to the known-endpoint set
  /// before or after Connect; RefreshRouting also asks it for the map.
  /// Benchmarks seed the follower here so a dead bootstrap primary
  /// does not strand them (bench/netbench.cc --fallback).
  void AddSeedEndpoint(const std::string& endpoint);

  /// Re-fetches the SHARDMAP from every known endpoint and reconnects
  /// each shard to its best advertised server (primary claim under the
  /// highest epoch wins). Called automatically by the retry path; also
  /// public so tests and tools can force a refresh.
  Status RefreshRouting();

  /// Retry attempts that found a new route (metric for tests/benches).
  uint64_t failovers() const { return failovers_; }

  Status Put(const Slice& key, const Slice& value);
  Status Get(const Slice& key, std::string* value);
  Status Delete(const Slice& key);
  /// Splits the batch per shard; the first failing shard's status is
  /// returned but every shard's sub-batch is attempted.
  Status MultiPut(const std::vector<KVStore::BatchOp>& batch);
  /// Scans `limit` entries (0 = no limit) from the one server every
  /// shard routes to. Fails with not_primary without sending while the
  /// shards route to more than one server; like a keyed op, it then
  /// refreshes the routing and retries.
  Status Scan(const Slice& start, uint32_t limit,
              std::vector<std::pair<std::string, std::string>>* out);
  // Snapshot API (docs/SNAPSHOTS.md). -------------------------------

  /// One cross-shard pinned snapshot: a server-issued id per distinct
  /// endpoint plus the per-shard sequence vector — the consistent cut
  /// every ScanAt/GetAt against it observes. Shards are independent
  /// key spaces, so the cut carries no cross-shard write atomicity
  /// (a multi-shard MULTIPUT may be split by it).
  struct ShardedSnapshot {
    /// (endpoint, server snapshot id) per distinct server.
    std::vector<std::pair<std::string, uint64_t>> server_ids;
    /// Pinned sequence per shard (indexed by shard number).
    std::vector<uint64_t> shard_seqs;
  };

  /// Pins every shard: one SNAPSHOT per distinct server endpoint. On
  /// any failure the shards already pinned are released (best effort)
  /// and the error surfaces. Snapshot operations never fail over — a
  /// pin lives on the specific server that took it.
  Status CreateSnapshot(uint32_t ttl_ms, ShardedSnapshot* out);
  /// Releases every per-server pin; the first error surfaces but every
  /// server is attempted.
  Status ReleaseSnapshot(const ShardedSnapshot& snap);
  /// GET at the snapshot, routed to the owning shard.
  Status GetAt(const Slice& key, const ShardedSnapshot& snap,
               std::string* value);
  /// SCAN at the snapshot, sent with the pin of the one server every
  /// shard routes to — one consistent cut even while writers race.
  /// Fails with not_primary without sending while the shards route to
  /// more than one server; never retries, since a refresh could route
  /// a shard to a server without the pin.
  Status ScanAt(const Slice& start, uint32_t limit,
                const ShardedSnapshot& snap,
                std::vector<std::pair<std::string, std::string>>* out);

  /// The server's STATS document (shard-labelled when sharded).
  Status Stats(std::string* json);
  /// The server's slow-request log (all shards; one server process).
  Status SlowLog(uint32_t limit, std::string* json);
  /// The server's Prometheus exposition (per-shard labels).
  Status MetricsProm(std::string* text);
  /// Pings every shard connection.
  Status Ping();

  const ShardRouter& router() const { return router_; }
  uint32_t num_shards() const { return router_.num_shards(); }
  uint32_t ShardOf(const Slice& key) const { return router_.ShardOf(key); }
  /// The connection serving shard `shard`; benchmarks pipeline on it
  /// directly (Submit*/Flush/WaitAll) after routing with ShardOf().
  Client* shard_client(uint32_t shard) { return conns_[shard].get(); }

 private:
  Status RequireConnected() const;
  /// Remembers an endpoint (and its failover candidates) learned from
  /// a fetched map.
  void LearnEndpoints(const ShardMap& map, const std::string& source);
  void RememberEndpoint(const std::string& endpoint);
  /// Opens one connection per shard, shard i to `endpoints[i]`
  /// (resolved against the bootstrap address), and swaps them in only
  /// once every shard connected.
  Status OpenShardConns(const std::vector<std::string>& endpoints);
  /// RetryShardOp's shard for an op over the whole key range.
  static constexpr uint32_t kAllShards = UINT32_MAX;
  /// The connection serving `shard`; for kAllShards, the connection to
  /// the one server every shard routes to, or null when they route to
  /// more than one.
  Client* ConnFor(uint32_t shard) const;
  /// True when `s`, returned by `conn` (null: the shards route to more
  /// than one server), warrants a map refresh and retry: no single
  /// server, the connection died, or the server answered kNotPrimary.
  static bool ShouldFailover(const Client* conn, const Status& s);
  /// Runs `op` against ConnFor(shard) with the retry/refresh loop.
  Status RetryShardOp(uint32_t shard,
                      const std::function<Status(Client*)>& op);
  void Backoff(uint32_t attempt);
  /// The per-server snapshot id pinned for `endpoint` (false when the
  /// snapshot holds no pin there — routing moved since the pin).
  static bool SnapshotIdFor(const ShardedSnapshot& snap,
                            const std::string& endpoint, uint64_t* id);

  ClientOptions options_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Client>> conns_;  // one per shard
  // Resolved "host:port" per connection; shards co-hosted by one
  // server share the string (SCAN and the snapshot calls key on it).
  std::vector<std::string> resolved_endpoints_;
  // Every "host:port" ever learned (bootstrap, map endpoints, replica
  // sets, seeds) — the candidate list RefreshRouting polls.
  std::vector<std::string> known_endpoints_;
  std::string bootstrap_host_;
  uint16_t bootstrap_port_ = 0;
  uint64_t failovers_ = 0;
};

}  // namespace net
}  // namespace cachekv

#endif  // CACHEKV_NET_CLIENT_H_
