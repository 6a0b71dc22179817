#ifndef CACHEKV_NET_SERVER_H_
#define CACHEKV_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cache/hot_key_cache.h"
#include "net/protocol.h"
#include "net/shard_router.h"
#include "obs/metrics.h"
#include "obs/slow_log.h"
#include "util/status.h"

namespace cachekv {

class DB;

namespace repl {
class ReplHub;
}  // namespace repl

namespace net {

/// Tuning knobs of one Server instance (docs/SERVER.md).
struct ServerOptions {
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back with port()).
  uint16_t port = 0;
  /// Worker event-loop threads; each connection is owned by exactly one
  /// worker, so per-connection state needs no locking.
  int num_workers = 2;
  int listen_backlog = 128;
  /// Frames whose announced body exceeds this are decode errors.
  size_t max_frame_bytes = kDefaultMaxFrameBody;
  /// Server-side cap on one SCAN response.
  uint32_t max_scan_limit = 65536;
  /// Backpressure: when a connection's outbound buffer holds more than
  /// this many unsent bytes (after trying the socket once), further
  /// requests on it are shed with a Busy response instead of buffering
  /// unboundedly. PING still passes so clients can probe liveness.
  /// Counted in net.backpressure_sheds. 0 disables shedding.
  size_t max_conn_write_buffer_bytes = 4u << 20;
  /// Per-shard hot-key read cache in front of DB::Get
  /// (src/cache/hot_key_cache.h); 0 disables caching. Served entries
  /// skip the full memtable->zone->LSM descent; every committed write
  /// refreshes (PUT) or invalidates (DEL) its key before the write is
  /// acked, so the cache can never shadow an acked overwrite.
  size_t hot_key_cache_bytes = 8u << 20;
  /// Count-Min-sketch admission: estimated lookup frequency a key needs
  /// before a read fill is cached (--cache-admit on the daemon).
  uint32_t hot_key_cache_admit = 2;
  /// Slow-request log (docs/OBSERVABILITY.md): any request whose
  /// service time exceeds this threshold is captured in the SlowLog
  /// ring with its stage breakdown (--slow-us on the daemon). 0
  /// disables capture; SLOWLOG then answers an empty log.
  uint32_t slow_request_us = 10'000;
  /// Entries retained in the slow-request ring (--slow-log-cap).
  size_t slow_log_capacity = 128;
  /// Default lifetime of a wire-pinned snapshot (docs/SNAPSHOTS.md);
  /// a SNAPSHOT request may ask for a shorter TTL but never a longer
  /// one. A sweeper releases expired pins so an abandoned client can
  /// only hold back compaction/GC reclamation for this long.
  uint32_t snapshot_ttl_ms = 60'000;
  /// Replication hub (docs/REPLICATION.md); borrowed, may be null.
  /// When set the server rejects keyed ops on follower shards with
  /// kNotPrimary, serves the REPL* wire ops by delegating to the hub,
  /// and rebuilds the SHARDMAP image per request (epochs move). A write
  /// run that needs follower acks (per the hub's ack policy) parks its
  /// connection after committing and is answered when the acks arrive
  /// (kReplTimeout on expiry); a caught-up follower's empty REPLBATCH
  /// is held until the log moves. No worker ever blocks on a follower,
  /// so every worker serves clients and followers alike.
  repl::ReplHub* repl = nullptr;
};

/// Server exposes N sharded DB instances over TCP, speaking the
/// length-prefixed frame protocol of net/protocol.h.
///
/// Sharding: the server serves N independent DB instances behind one
/// listening socket; an unsharded store is N = 1 (`{db}` and a default
/// ShardRouter, the 1-shard identity ring). Every keyed request is
/// routed through a consistent-hash ShardRouter (net/shard_router.h),
/// so plain clients work unchanged; SHARDMAP hands the encoded ring to
/// sharded clients that want to route on their side. MULTIPUT batches
/// are split per shard (atomic per shard, not across shards) and SCAN
/// is answered as an ordered k-way merge of the per-shard scans. Shard
/// 0 is the "primary": server-wide net.* instruments and trace spans
/// live in its registry; each shard additionally counts the requests
/// routed to it as net.shard.requests in its own registry. STATS
/// returns the primary's dump as is when N = 1, and otherwise one JSON
/// document with every shard's dump under a "shard.<i>" label.
///
/// Threading: one acceptor thread multiplexes the listening socket; N
/// worker threads each run an event loop (epoll on Linux, poll(2)
/// elsewhere) over the connections assigned to them round-robin.
/// Requests on a connection may be pipelined; responses are sent in
/// request order. Every write takes one path (HandleWrites): a MULTIPUT,
/// or a run of consecutive single-key PUT/DEL requests, is grouped by
/// shard, committed as one atomic DB::ApplyBatch per shard, and then
/// acknowledged request by request. With replication, a connection
/// can be parked — on a write run waiting for follower acks, or on a
/// held follower fetch — until the hub's log wakes its worker or a
/// deadline passes; while parked it reads nothing and runs none of its
/// later frames, and its worker serves every other connection.
///
/// Integration: counters and per-op latency histograms go to the
/// primary DB's MetricsRegistry under "net.*" (so STATS serves one
/// unified dump), request spans to its Tracer — both timed by one
/// RequestTimeline per request or write run — and the
/// accept/read/write/decode paths carry "net.*" fail points
/// (src/fault). When a shard has degraded to read-only, write requests
/// routed to it are rejected with the kReadOnly wire code carrying that
/// shard's DB::BackgroundError().
///
/// Telemetry plane (docs/OBSERVABILITY.md): requests arriving as traced
/// frames (flags bit 1; sampled by the client) are tagged stage by
/// stage — net.recv, req.decode, req.route, req.cache, req.db,
/// req.encode, net.send — as spans in the primary's Tracer carrying the
/// request's trace id, and their responses echo the trace context with
/// the measured service time. Independently, any request slower than
/// slow_request_us lands in the SlowLog ring with the same stage
/// breakdown (SLOWLOG op; net.slowlog.* counters), and METRICSPROM
/// serves every shard's registry in Prometheus text format.
///
/// Hot-key cache: with hot_key_cache_bytes > 0 each shard owns a
/// read-through HotKeyCache (src/cache/hot_key_cache.h) consulted by
/// GET before DB::Get; its cache.* instruments live in that shard's
/// registry, so STATS reports per-shard hit ratios. The write path
/// (CommitShard) refreshes each PUT key at its commit sequence and
/// invalidates each deleted key, after the DB commit and before the
/// response is appended — the ordering the cache's coherence protocol
/// requires.
///
/// Snapshot plane (docs/SNAPSHOTS.md): SNAPSHOT pins every shard with
/// DB::GetSnapshot and registers the handle vector under a server-issued
/// id with a TTL deadline; GET/SCAN requests carrying the at-snapshot
/// flag resolve the id and read at each shard's own pinned sequence
/// (bypassing the hot-key cache, which only reflects latest state), so
/// a sharded SCAN merges one consistent per-shard cut. RELEASE — or the
/// TTL sweeper, counting snap.expired — unpins; an unknown or expired
/// id answers kSnapshotUnknown.
///
/// Shutdown ordering: Stop() (or the destructor) quiesces the network
/// layer — stops accepting, closes every connection, joins all threads
/// — and must complete before any DB is destroyed; the DBs never learn
/// about the server, they only see plain concurrent callers.
class Server {
 public:
  /// `shards` and `router.num_shards()` must agree, and every pointer
  /// must outlive the server. The router is copied.
  Server(std::vector<DB*> shards, const ShardRouter& router,
         const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the acceptor + worker threads.
  Status Start();

  /// Graceful shutdown; idempotent. Safe to call from a signal-driven
  /// main loop. After Stop() returns no thread of this server touches
  /// any DB again.
  void Stop();

  /// The bound TCP port (the actual one when options.port was 0).
  /// Valid after a successful Start().
  uint16_t port() const { return port_; }

  bool running() const {
    return running_.load(std::memory_order_acquire);
  }

  uint32_t num_shards() const { return router_.num_shards(); }
  const ShardRouter& router() const { return router_; }

  /// The slow-request ring (null when slow_log_capacity == 0). Served
  /// over the wire via SLOWLOG; exposed for tests.
  const obs::SlowLog* slow_log() const { return slow_log_.get(); }

 private:
  struct Conn;
  struct Worker;
  /// Per-request stage clock for the slow log + trace propagation;
  /// defined in server.cc.
  class RequestTimeline;
  /// One write run from decode to response; a run waiting for follower
  /// acks lives on the heap, owned by its parked connection. Defined in
  /// server.cc.
  struct WriteRun;
  /// One wire-pinned snapshot (docs/SNAPSHOTS.md): a DB::GetSnapshot
  /// handle per shard plus its expiry deadline. Held by shared_ptr so
  /// a release or TTL sweep concurrent with an in-flight at-snapshot
  /// read only drops the registry entry; the DB pins stay live until
  /// the last reader finishes. Defined in server.cc.
  struct SnapshotEntry;

  DB* primary() const { return dbs_[0]; }
  /// The shard owning `key`; counts the routing decision in the target
  /// shard's net.shard.requests.
  DB* Route(const Slice& key, uint32_t* shard_out = nullptr);

  void AcceptLoop();
  void WorkerLoop(Worker* worker);
  /// Handles the connection's frames in order: pulls every complete
  /// frame out of its decoder, or — resuming a parked connection — goes
  /// on with the frames already pulled, until they are done or the
  /// connection parks again; then writes the responses. Returns false
  /// when the connection must close (decode error, write failure).
  bool ProcessFrames(Worker* worker, Conn* conn);
  /// The one write path. Handles the run starting at conn->frames[begin]:
  /// a MULTIPUT alone, or consecutive PUT/DEL requests up to the run
  /// caps. Parses every request, groups the ops by shard and commits
  /// each shard once (CommitShard). A run that needs follower acks then
  /// parks the connection (answered from ResumeParked); any other is
  /// answered at once, each request with the worst outcome among its
  /// own shards. Returns the first index past the run. `queue_depth` is
  /// the number of frames decoded behind frames[begin] in its round.
  size_t HandleWrites(Worker* worker, Conn* conn, size_t begin,
                      uint32_t queue_depth);
  /// Decodes, routes and commits a run's requests.
  void CommitWrites(WriteRun* run);
  /// Encodes a committed run's responses.
  void RespondWrites(Conn* conn, WriteRun* run);
  /// Commits `ops` to `shard` with one DB::ApplyBatch, then refreshes
  /// each PUT's key in the shard's hot-key cache at the op's sequence
  /// and invalidates the rest (after the commit, before any ack). On
  /// success *seq receives the commit's last sequence.
  Status CommitShard(uint32_t shard,
                     const std::vector<KVStore::BatchOp>& ops,
                     uint64_t* seq);
  /// Parks the connection on `frame`, a REPLBATCH, when the hub says it
  /// would find nothing and may be held (ReplHub::MayHoldFetch).
  bool HoldFetch(Worker* worker, Conn* conn, const Frame& frame);
  void Park(Worker* worker, Conn* conn);
  /// Moves the connection on if it can: a parked write run whose ack
  /// waits all settled (or whose deadline passed) is answered; a held
  /// fetch is answered once the hub no longer lets it be held or its
  /// hold expired. True when the connection is no longer parked.
  bool TryResume(Conn* conn, std::chrono::steady_clock::time_point now);
  /// Tries every parked connection of the worker, and goes on with the
  /// frames of those that resume, until a pass resumes none.
  void ResumeParked(Worker* worker);
  /// The hub's log listener: writes one wake byte to each worker that
  /// has a parked connection and no wake pending.
  void WakeParked();
  /// epoll/poll timeout: the default tick, or less when a parked
  /// connection's deadline comes sooner.
  int PollTimeoutMs(const Worker* worker) const;
  /// Points the poller at what the connection can use next: reads unless
  /// it is parked, writes while output is backlogged.
  void UpdateInterest(Worker* worker, Conn* conn);
  void HandleRequest(Conn* conn, const Frame& frame,
                     uint32_t queue_depth);
  /// The checks every request passes before its op runs: no response
  /// frames, the at-snapshot flag only on reads, and the net.decode
  /// fail point. Returns kOk, or the wire code to answer with and the
  /// message in *error.
  uint16_t Admit(const Frame& frame, std::string* error);
  /// The METRICSPROM payload: the Prometheus exposition over every
  /// shard's registry snapshot (per-shard labels).
  void BuildPromPayload(std::string* out);
  /// Backpressure: true when the connection's outbound backlog exceeds
  /// the cap even after offering it to the socket once — the request
  /// was answered with Busy and must not execute.
  bool ShedForBackpressure(Conn* conn, Op op, uint64_t id);
  /// The STATS payload: the primary's DumpMetrics verbatim for a
  /// single store, or the shard-labelled combined document.
  void BuildStatsPayload(std::string* out);
  /// The SHARDMAP payload with the hub's live epoch/primary/replica
  /// state folded in (v2 image; see net/shard_router.h).
  void BuildShardMapImage(std::string* out);
  /// Resolves a wire snapshot id to its live entry (null when never
  /// pinned, released, or expired — the kSnapshotUnknown cases).
  std::shared_ptr<SnapshotEntry> FindSnapshot(uint64_t id);
  /// Releases every TTL-expired snapshot; runs on the sweeper thread.
  void SweepSnapshots();
  void SnapshotSweeperLoop();
  /// True when the hub says `shard` must not serve keyed requests
  /// (this server follows another primary for it).
  bool ShardNotPrimary(uint32_t shard) const;
  /// Flushes the connection's write buffer as far as the socket
  /// accepts; false on a fatal socket error.
  bool FlushOut(Conn* conn);
  void CloseConn(Worker* worker, int fd);

  std::vector<DB*> dbs_;
  ShardRouter router_;
  const ServerOptions options_;
  repl::ReplHub* repl_ = nullptr;  // borrowed; null = no replication
  /// One hot-key cache per shard; empty when caching is disabled.
  std::vector<std::unique_ptr<cache::HotKeyCache>> caches_;
  /// Slow-request ring, shared by all workers (lock-free writers).
  std::unique_ptr<obs::SlowLog> slow_log_;
  /// Wire-pinned snapshot registry (docs/SNAPSHOTS.md) + TTL sweeper.
  std::mutex snapshots_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<SnapshotEntry>> snapshots_;
  uint64_t next_snapshot_id_ = 1;
  std::condition_variable snapshot_sweeper_cv_;
  std::thread snapshot_sweeper_;
  /// Byte cap on one write run: every op of a run could land on one
  /// shard, so it is the smallest shard's ApproxMultiPutCapacityBytes().
  size_t batch_bytes_cap_ = 0;
  /// SHARDMAP response payload, finalized at Start() (endpoints carry
  /// the bound address).
  std::string shard_map_image_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  int accept_wake_[2] = {-1, -1};
  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<uint64_t> next_worker_{0};

  // Cached "net.*" instruments (owned by the primary DB's registry).
  obs::Counter* accepts_ = nullptr;
  obs::Counter* requests_ = nullptr;
  obs::Counter* bytes_in_ = nullptr;
  obs::Counter* bytes_out_ = nullptr;
  obs::Counter* decode_errors_ = nullptr;
  obs::Counter* batched_writes_ = nullptr;
  obs::Counter* batched_ops_ = nullptr;
  obs::Counter* backpressure_sheds_ = nullptr;
  obs::Counter* slowlog_captured_ = nullptr;
  obs::Counter* slowlog_dropped_ = nullptr;
  obs::Counter* slowlog_queries_ = nullptr;
  obs::Counter* traced_requests_ = nullptr;
  obs::Counter* snap_expired_ = nullptr;
  obs::Gauge* connections_ = nullptr;
  obs::Gauge* snap_active_ = nullptr;
  // Per-shard routing counters, one in each shard's own registry.
  std::vector<obs::Counter*> shard_requests_;
};

}  // namespace net
}  // namespace cachekv

#endif  // CACHEKV_NET_SERVER_H_
