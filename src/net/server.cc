#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#if defined(__linux__)
#include <sys/epoll.h>
#define CACHEKV_NET_EPOLL 1
#endif

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>

#include "core/db.h"
#include "fault/fail_point.h"
#include "obs/prom.h"
#include "obs/trace.h"
#include "repl/replication.h"
#include "util/json.h"

namespace cachekv {
namespace net {

namespace {

Status Errno(const char* what) {
  return Status::IOError(what, std::strerror(errno));
}

bool NetTrace() {
  static const bool on = ::getenv("CACHEKV_NET_TRACE") != nullptr;
  return on;
}

long TraceMs() {
  return (long)(std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count() %
                1000000);
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl O_NONBLOCK");
  }
  return Status::OK();
}

void DrainPipe(int fd) {
  char buf[256];
  while (::read(fd, buf, sizeof(buf)) > 0) {
  }
}

void WakeByte(int fd) {
  char b = 1;
  ssize_t ignored = ::write(fd, &b, 1);
  (void)ignored;
}

/// Span histogram name for one op's service latency (string literals:
/// both the registry and the tracer only store the pointer).
const char* OpHistogramName(Op op) {
  switch (op) {
    case Op::kGet: return "net.op.get";
    case Op::kPut: return "net.op.put";
    case Op::kDelete: return "net.op.del";
    case Op::kMultiPut: return "net.op.multiput";
    case Op::kScan: return "net.op.scan";
    case Op::kStats: return "net.op.stats";
    case Op::kPing: return "net.op.ping";
    case Op::kShardMap: return "net.op.shardmap";
    case Op::kSlowLog: return "net.op.slowlog";
    case Op::kMetricsProm: return "net.op.metricsprom";
    case Op::kReplSubscribe: return "net.op.replsubscribe";
    case Op::kReplBatch: return "net.op.replbatch";
    case Op::kReplAck: return "net.op.replack";
    case Op::kReplSnapshot: return "net.op.replsnapshot";
    case Op::kPromote: return "net.op.promote";
    case Op::kSnapshot: return "net.op.snapshot";
    case Op::kSnapshotRelease: return "net.op.snapshotrelease";
  }
  return "net.op.other";
}

const char* OpTraceName(Op op) {
  switch (op) {
    case Op::kGet: return "net.get";
    case Op::kPut: return "net.put";
    case Op::kDelete: return "net.del";
    case Op::kMultiPut: return "net.multiput";
    case Op::kScan: return "net.scan";
    case Op::kStats: return "net.stats";
    case Op::kPing: return "net.ping";
    case Op::kShardMap: return "net.shardmap";
    case Op::kSlowLog: return "net.slowlog";
    case Op::kMetricsProm: return "net.metricsprom";
    case Op::kReplSubscribe: return "net.replsubscribe";
    case Op::kReplBatch: return "net.replbatch";
    case Op::kReplAck: return "net.replack";
    case Op::kReplSnapshot: return "net.replsnapshot";
    case Op::kPromote: return "net.promote";
    case Op::kSnapshot: return "net.snapshot";
    case Op::kSnapshotRelease: return "net.snapshotrelease";
  }
  return "net.other";
}

bool IsWriteOp(Op op) {
  return op == Op::kPut || op == Op::kDelete || op == Op::kMultiPut;
}

/// A write run folds at most this many PUT/DEL requests.
constexpr size_t kMaxRunRequests = 64;
/// Per-record framing allowance when sizing a run against its byte cap.
constexpr size_t kRecordOverhead = 64;

}  // namespace

/// The one clock of a request: it times the request into its
/// net.op.<op> histogram (ns, every request), emits its net.<op> trace
/// span (when the tracer is on, with up to two args), and feeds both
/// halves of the telemetry plane: each Stage() call closes the window
/// since the previous mark, emitting a tracer span tagged with the trace
/// id of every traced request it covers and accumulating the stage into
/// a SlowLogEntry. Finish() — called from the destructor — records all
/// three. A write run is timed as one unit: its members share every
/// stage, and its slow-log entry carries op 255 ("batch"). Stages are
/// inert (no clock reads) when no request is traced and the slow log is
/// off.
class Server::RequestTimeline {
 public:
  /// Times the `count` requests frames[0..count).
  RequestTimeline(Server* server, const Frame* frames, size_t count,
                  uint32_t queue_depth)
      : server_(server),
        tracer_(server->primary()->trace()),
        histogram_(server->primary()->metrics()->GetHistogram(
            OpHistogramName(frames[0].op))),
        span_(tracer_->enabled() ? OpTraceName(frames[0].op) : nullptr),
        frames_(frames),
        count_(count),
        start_ns_(tracer_->NowNs()) {
    for (size_t i = 0; i < count_ && !traced_; i++) {
      traced_ = frames_[i].traced;
      entry_.trace_id = frames_[i].trace_id;
    }
    slow_ns_ = server_->slow_log_ != nullptr
                   ? static_cast<uint64_t>(server_->options_.slow_request_us) *
                         1000
                   : 0;
    active_ = traced_ || slow_ns_ > 0;
    if (!active_) return;
    last_ns_ = start_ns_;
    entry_.op = count_ > 1 ? 255 : static_cast<uint8_t>(frames_[0].op);
    entry_.queue_depth = queue_depth;
  }

  ~RequestTimeline() { Finish(); }

  RequestTimeline(const RequestTimeline&) = delete;
  RequestTimeline& operator=(const RequestTimeline&) = delete;

  /// Closes the stage window [previous mark, now) under `name` (a
  /// string literal).
  void Stage(const char* name) {
    if (!active_) return;
    const uint64_t now = tracer_->NowNs();
    for (size_t i = 0; traced_ && i < count_; i++) {
      if (frames_[i].traced) {
        tracer_->Complete(name, last_ns_, now - last_ns_, "trace",
                          frames_[i].trace_id);
      }
    }
    entry_.AddStage(name, (now - last_ns_) / 1000);
    last_ns_ = now;
  }

  void SetShard(uint32_t shard) { entry_.shard = shard; }
  void SetKey(const Slice& key) {
    if (active_) entry_.SetKey(key.data(), key.size());
  }

  /// Attaches an integer arg to the net.<op> span; the first two stick.
  /// `name` must be a string literal.
  void AddArg(const char* name, uint64_t value) {
    if (span_ == nullptr) return;
    if (arg1_name_ == nullptr) {
      arg1_name_ = name;
      arg1_ = value;
    } else if (arg2_name_ == nullptr) {
      arg2_name_ = name;
      arg2_ = value;
    }
  }

  /// The trace context for the response to frames[member]: echoes its
  /// trace id and reports the service time measured so far.
  TraceContext ResponseContext(size_t member = 0) const {
    TraceContext tc;
    if (frames_[member].traced) {
      tc.traced = true;
      tc.trace_id = frames_[member].trace_id;
      tc.server_ns = tracer_->NowNs() - start_ns_;
    }
    return tc;
  }

  void Finish() {
    if (finished_) return;
    finished_ = true;
    const uint64_t now = tracer_->NowNs();
    const uint64_t total = now - start_ns_;
    histogram_->Record(static_cast<double>(total));
    if (span_ != nullptr) {
      tracer_->Complete(span_, start_ns_, total, arg1_name_, arg1_,
                        arg2_name_, arg2_);
    }
    if (slow_ns_ == 0 || total < slow_ns_) return;
    entry_.ts_ns = now;
    entry_.total_us = total / 1000;
    obs::SlowLog* log = server_->slow_log_.get();
    log->Record(entry_);
    server_->slowlog_captured_->Increment();
    if (log->Captured() > log->capacity()) {
      server_->slowlog_dropped_->Increment();
    }
  }

 private:
  Server* server_;
  obs::Tracer* tracer_;
  obs::ShardedHistogram* histogram_;
  const char* span_;  // the net.<op> span name; null: tracer off
  const char* arg1_name_ = nullptr;
  uint64_t arg1_ = 0;
  const char* arg2_name_ = nullptr;
  uint64_t arg2_ = 0;
  const Frame* frames_;
  size_t count_;
  bool traced_ = false;  // any covered request is traced
  uint64_t slow_ns_ = 0;
  bool active_ = false;
  bool finished_ = false;
  uint64_t start_ns_ = 0;
  uint64_t last_ns_ = 0;
  obs::SlowLogEntry entry_;
};

/// One wire-pinned snapshot: the DB::GetSnapshot handle pinned on each
/// shard, the pinned sequences (the wire-visible cut), and the TTL
/// deadline. Destruction — last shared_ptr dropped, after the registry
/// entry is erased and any in-flight at-snapshot read finished —
/// releases every pin.
struct Server::SnapshotEntry {
  SnapshotEntry(std::vector<DB*>* dbs) : dbs(dbs) {}
  ~SnapshotEntry() {
    for (size_t i = 0; i < handles.size(); i++) {
      (*dbs)[i]->ReleaseSnapshot(handles[i]);
    }
  }
  SnapshotEntry(const SnapshotEntry&) = delete;
  SnapshotEntry& operator=(const SnapshotEntry&) = delete;

  std::vector<DB*>* dbs;
  std::vector<const DB::Snapshot*> handles;  // one per shard
  std::vector<uint64_t> seqs;                // handles[i]->sequence()
  std::chrono::steady_clock::time_point deadline;
};

/// One write run from decode to response: the requests' outcomes, the
/// run's timeline, and — when follower acks are needed — one ack wait
/// per committed shard. Inline runs live on the stack and read their
/// frames in place. A run that waits for acks lives on the heap, owned
/// by its parked connection, and keeps header copies of its frames
/// (request ids and trace contexts); their payloads, which point into
/// the decoder, are cleared once committed.
struct Server::WriteRun {
  WriteRun(Server* server, const Frame* run, size_t n,
           uint32_t queue_depth, bool parkable)
      : copies(parkable ? std::vector<Frame>(run, run + n)
                        : std::vector<Frame>()),
        frames(parkable ? copies.data() : run),
        count(n),
        timeline(server, frames, n, queue_depth),
        reqs(n) {}

  WriteRun(const WriteRun&) = delete;
  WriteRun& operator=(const WriteRun&) = delete;

  /// One request of the run: its ops, each op's shard, and the commit
  /// outcome per touched shard. A nonzero `code` rejects the request
  /// before any of its ops commit.
  struct Request {
    std::vector<KVStore::BatchOp> ops;
    std::vector<uint32_t> shards;
    uint16_t code = kOk;
    std::string error;
    std::vector<std::pair<uint32_t, Status>> outcomes;
  };

  std::vector<Frame> copies;  // parkable runs only
  const Frame* frames;
  size_t count;
  RequestTimeline timeline;
  std::vector<Request> reqs;
  /// Each shard's latest commit in this run (0 = nothing committed).
  std::vector<uint64_t> shard_seq;
  /// One per committed shard while follower acks are needed.
  std::vector<repl::ReplHub::CommitWait> acks;
};

/// One TCP connection; owned by exactly one worker thread.
struct Server::Conn {
  explicit Conn(int fd_in, size_t max_frame)
      : fd(fd_in), decoder(max_frame) {}

  bool parked() const { return parked_run != nullptr || fetch_held; }

  int fd;
  FrameDecoder decoder;
  std::string out;
  size_t out_pos = 0;
  /// What the poller watches (UpdateInterest).
  bool want_read = true;
  bool want_write = false;
  /// Frames pulled from `decoder` in the current round, handled up to
  /// `next_frame`; those from `unsent_from` on have no response flushed
  /// yet. Frames outlive a round only while the connection is parked,
  /// and their payloads point into the decoder's buffer, so nothing is
  /// fed to the decoder until they are all handled.
  std::vector<Frame> frames;
  size_t next_frame = 0;
  size_t unsent_from = 0;
  /// Follower id of the connection's last REPLSUBSCRIBE: its REPLBATCHes
  /// may be held (ReplHub::MayHoldFetch).
  std::string follower_id;
  /// Parked on a write run waiting for follower acks, or on a held
  /// REPLBATCH: frames[next_frame], parsed into `fetch`.
  std::unique_ptr<WriteRun> parked_run;
  bool fetch_held = false;
  ReplBatchRequest fetch;
  /// When the parked run times out or the held fetch is answered anyway.
  std::chrono::steady_clock::time_point deadline;
};

struct Server::Worker {
  int index = 0;
#if CACHEKV_NET_EPOLL
  int epfd = -1;
#endif
  int wake_rd = -1;
  int wake_wr = -1;
  std::mutex mu;
  std::deque<int> pending_fds;  // accepted, not yet adopted
  std::unordered_map<int, std::unique_ptr<Conn>> conns;
  /// This worker's parked connections. `num_parked` mirrors their count
  /// for the hub's log listener (WakeParked), which runs on other
  /// threads; `wake_pending` is set while a wake byte it wrote is still
  /// in the pipe, so a burst of log events writes one byte.
  std::vector<Conn*> parked;
  std::atomic<size_t> num_parked{0};
  std::atomic<bool> wake_pending{false};
  std::thread thread;
};

Server::Server(std::vector<DB*> shards, const ShardRouter& router,
               const ServerOptions& options)
    : dbs_(std::move(shards)),
      router_(router),
      options_(options),
      repl_(options.repl) {
  assert(!dbs_.empty());
  assert(dbs_.size() == router_.num_shards());
  assert(repl_ == nullptr || repl_->num_shards() == dbs_.size());

  obs::MetricsRegistry* reg = primary()->metrics();
  accepts_ = reg->GetCounter("net.accepts");
  requests_ = reg->GetCounter("net.requests");
  bytes_in_ = reg->GetCounter("net.bytes_in");
  bytes_out_ = reg->GetCounter("net.bytes_out");
  decode_errors_ = reg->GetCounter("net.decode_errors");
  batched_writes_ = reg->GetCounter("net.batched_writes");
  batched_ops_ = reg->GetCounter("net.batched_ops");
  backpressure_sheds_ = reg->GetCounter("net.backpressure_sheds");
  slowlog_captured_ = reg->GetCounter("net.slowlog.captured");
  slowlog_dropped_ = reg->GetCounter("net.slowlog.dropped");
  slowlog_queries_ = reg->GetCounter("net.slowlog.queries");
  traced_requests_ = reg->GetCounter("net.traced_requests");
  snap_expired_ = reg->GetCounter("snap.expired");
  connections_ = reg->GetGauge("net.connections");
  snap_active_ = reg->GetGauge("snap.active");
  if (options_.slow_log_capacity > 0 && options_.slow_request_us > 0) {
    slow_log_ =
        std::make_unique<obs::SlowLog>(options_.slow_log_capacity);
  }
  shard_requests_.reserve(dbs_.size());
  for (DB* db : dbs_) {
    shard_requests_.push_back(
        db->metrics()->GetCounter("net.shard.requests"));
  }

  if (options_.hot_key_cache_bytes > 0) {
    cache::HotKeyCacheOptions cache_opts;
    cache_opts.capacity_bytes = options_.hot_key_cache_bytes;
    cache_opts.admit_threshold = options_.hot_key_cache_admit;
    caches_.reserve(dbs_.size());
    for (DB* db : dbs_) {
      caches_.push_back(std::make_unique<cache::HotKeyCache>(
          cache_opts, db->metrics()));
    }
  }

  for (DB* db : dbs_) {
    const size_t cap = db->ApproxMultiPutCapacityBytes();
    if (batch_bytes_cap_ == 0 || cap < batch_bytes_cap_) {
      batch_bytes_cap_ = cap;
    }
  }
}

Server::~Server() { Stop(); }

DB* Server::Route(const Slice& key, uint32_t* shard_out) {
  const uint32_t shard =
      dbs_.size() == 1 ? 0 : router_.ShardOf(key);
  shard_requests_[shard]->Increment();
  if (shard_out != nullptr) {
    *shard_out = shard;
  }
  return dbs_[shard];
}

bool Server::ShardNotPrimary(uint32_t shard) const {
  return repl_ != nullptr && !repl_->IsPrimary(shard);
}

void Server::BuildShardMapImage(std::string* out) {
  // Epochs and roles move at runtime (promotion, fencing), so a
  // replicated server encodes the map fresh per request instead of
  // serving the Start()-time image.
  std::vector<uint64_t> epochs;
  std::vector<uint8_t> primaries;
  std::vector<std::vector<std::string>> replicas;
  repl_->FillShardMapState(&epochs, &primaries, &replicas);
  ShardRouter router = router_;
  Status s = router.SetReplication(std::move(epochs), std::move(primaries),
                                   std::move(replicas));
  out->clear();
  if (s.ok()) {
    router.Encode(out);
  } else {
    *out = shard_map_image_;  // unreachable unless the hub misbehaves
  }
}

Status Server::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server already started");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Errno("socket");
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen host", options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    Status s = Errno("bind");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, options_.listen_backlog) != 0) {
    Status s = Errno("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) != 0) {
    Status s = Errno("getsockname");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  port_ = ntohs(addr.sin_port);

  // The SHARDMAP image can only be finalized now that the port is
  // known: every shard of this process is served at the bound address.
  {
    std::vector<std::string> endpoints(
        router_.num_shards(),
        options_.host + ":" + std::to_string(port_));
    router_.SetEndpoints(std::move(endpoints));
    shard_map_image_.clear();
    router_.Encode(&shard_map_image_);
  }

  Status s = SetNonBlocking(listen_fd_);
  if (!s.ok()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::pipe(accept_wake_) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Errno("pipe");
  }
  SetNonBlocking(accept_wake_[0]);

  const int num_workers =
      options_.num_workers > 0 ? options_.num_workers : 1;
  workers_.clear();
  for (int i = 0; i < num_workers; i++) {
    auto w = std::make_unique<Worker>();
    w->index = i;
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      s = Errno("pipe");
      break;
    }
    // Both ends: the hub's log listener writes under the log's lock and
    // must never block on a full pipe (a full pipe already wakes).
    SetNonBlocking(pipe_fds[0]);
    SetNonBlocking(pipe_fds[1]);
    w->wake_rd = pipe_fds[0];
    w->wake_wr = pipe_fds[1];
#if CACHEKV_NET_EPOLL
    w->epfd = ::epoll_create1(0);
    if (w->epfd < 0) {
      s = Errno("epoll_create1");
      ::close(w->wake_rd);
      ::close(w->wake_wr);
      break;
    }
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.fd = w->wake_rd;
    ::epoll_ctl(w->epfd, EPOLL_CTL_ADD, w->wake_rd, &ev);
#endif
    workers_.push_back(std::move(w));
  }
  if (!s.ok()) {
    for (auto& w : workers_) {
#if CACHEKV_NET_EPOLL
      if (w->epfd >= 0) ::close(w->epfd);
#endif
      ::close(w->wake_rd);
      ::close(w->wake_wr);
    }
    workers_.clear();
    ::close(accept_wake_[0]);
    ::close(accept_wake_[1]);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }

  if (repl_ != nullptr) {
    repl_->SetWaker([this] { WakeParked(); });
  }
  running_.store(true, std::memory_order_release);
  for (auto& w : workers_) {
    w->thread = std::thread(&Server::WorkerLoop, this, w.get());
  }
  accept_thread_ = std::thread(&Server::AcceptLoop, this);
  snapshot_sweeper_ = std::thread(&Server::SnapshotSweeperLoop, this);
  return Status::OK();
}

void Server::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    return;
  }
  // First, so no log listener touches a worker being torn down. Parked
  // connections are closed with the rest; their runs never wait out
  // the ack timeout.
  if (repl_ != nullptr) {
    repl_->SetWaker(nullptr);
  }
  snapshot_sweeper_cv_.notify_all();
  if (snapshot_sweeper_.joinable()) {
    snapshot_sweeper_.join();
  }
  WakeByte(accept_wake_[1]);
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  for (auto& w : workers_) {
    WakeByte(w->wake_wr);
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) {
      w->thread.join();
    }
    // The worker closed its connections on exit; release the plumbing.
    for (auto& [fd, conn] : w->conns) {
      (void)conn;
      ::close(fd);
      connections_->Add(-1);
    }
    w->conns.clear();
    {
      std::lock_guard<std::mutex> lock(w->mu);
      for (int fd : w->pending_fds) {
        ::close(fd);
      }
      w->pending_fds.clear();
    }
#if CACHEKV_NET_EPOLL
    if (w->epfd >= 0) ::close(w->epfd);
#endif
    ::close(w->wake_rd);
    ::close(w->wake_wr);
  }
  workers_.clear();
  ::close(accept_wake_[0]);
  ::close(accept_wake_[1]);
  accept_wake_[0] = accept_wake_[1] = -1;
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Every worker is joined, so no at-snapshot read holds an entry;
  // drop the remaining wire pins before the caller destroys the DBs.
  {
    std::lock_guard<std::mutex> lock(snapshots_mu_);
    for (const auto& [id, entry] : snapshots_) {
      (void)id;
      (void)entry;
      snap_active_->Add(-1);
    }
    snapshots_.clear();
  }
}

std::shared_ptr<Server::SnapshotEntry> Server::FindSnapshot(uint64_t id) {
  std::lock_guard<std::mutex> lock(snapshots_mu_);
  auto it = snapshots_.find(id);
  return it == snapshots_.end() ? nullptr : it->second;
}

void Server::SweepSnapshots() {
  const auto now = std::chrono::steady_clock::now();
  // Erase under the lock, destroy (release the DB pins) outside it, so
  // the registry mutex a request handler is about to take is never held
  // across the stores' pin bookkeeping.
  std::vector<std::shared_ptr<SnapshotEntry>> expired;
  {
    std::lock_guard<std::mutex> lock(snapshots_mu_);
    for (auto it = snapshots_.begin(); it != snapshots_.end();) {
      if (it->second->deadline <= now) {
        expired.push_back(std::move(it->second));
        it = snapshots_.erase(it);
        snap_expired_->Increment();
        snap_active_->Add(-1);
      } else {
        ++it;
      }
    }
  }
  expired.clear();
}

void Server::SnapshotSweeperLoop() {
  primary()->trace()->SetThreadName("net-snap-sweeper");
  std::unique_lock<std::mutex> lock(snapshots_mu_);
  while (running_.load(std::memory_order_acquire)) {
    snapshot_sweeper_cv_.wait_for(lock, std::chrono::milliseconds(50));
    if (!running_.load(std::memory_order_acquire)) break;
    lock.unlock();
    SweepSnapshots();
    lock.lock();
  }
}

void Server::AcceptLoop() {
  primary()->trace()->SetThreadName("net-accept");
  pollfd fds[2];
  fds[0].fd = listen_fd_;
  fds[0].events = POLLIN;
  fds[1].fd = accept_wake_[0];
  fds[1].events = POLLIN;
  while (running_.load(std::memory_order_acquire)) {
    fds[0].revents = fds[1].revents = 0;
    int n = ::poll(fds, 2, 500);
    if (n < 0 && errno != EINTR) {
      break;
    }
    if (fds[1].revents != 0) {
      DrainPipe(accept_wake_[0]);
      continue;  // re-check running_
    }
    if ((fds[0].revents & POLLIN) == 0) {
      continue;
    }
    while (true) {
      int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        break;  // EAGAIN or transient error; poll again
      }
      if (fault::AnyActive() && !fault::Inject("net.accept").ok()) {
        // Injected accept failure: the connection is dropped before it
        // ever reaches a worker; the server itself stays healthy.
        ::close(fd);
        continue;
      }
      SetNonBlocking(fd);
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      accepts_->Increment();
      connections_->Add(1);
      primary()->trace()->Instant("net.accept");
      Worker* w =
          workers_[next_worker_.fetch_add(1, std::memory_order_relaxed) %
                   workers_.size()]
              .get();
      {
        std::lock_guard<std::mutex> lock(w->mu);
        w->pending_fds.push_back(fd);
      }
      WakeByte(w->wake_wr);
    }
  }
}

void Server::CloseConn(Worker* worker, int fd) {
#if CACHEKV_NET_EPOLL
  ::epoll_ctl(worker->epfd, EPOLL_CTL_DEL, fd, nullptr);
#endif
  auto it = worker->conns.find(fd);
  if (it != worker->conns.end() && it->second->parked()) {
    auto& parked = worker->parked;
    auto pos = std::find(parked.begin(), parked.end(), it->second.get());
    if (pos != parked.end()) parked.erase(pos);
    worker->num_parked.fetch_sub(1);
  }
  if (NetTrace())
    fprintf(stderr, "[%ld srv %d w%d] close fd=%d\n", TraceMs(), (int)port_,
            worker->index, fd);
  worker->conns.erase(fd);
  ::close(fd);
  connections_->Add(-1);
  primary()->trace()->Instant("net.close");
}

void Server::WorkerLoop(Worker* worker) {
  char name[32];
  std::snprintf(name, sizeof(name), "net-worker-%d", worker->index);
  primary()->trace()->SetThreadName(name);

  char rbuf[64 << 10];
  while (running_.load(std::memory_order_acquire)) {
    // Collect the fds that are ready this round.
    std::vector<std::pair<int, uint32_t>> ready;  // fd, POLLIN|POLLOUT
    bool woke = false;
    const int timeout_ms = PollTimeoutMs(worker);
#if CACHEKV_NET_EPOLL
    epoll_event events[64];
    int n = ::epoll_wait(worker->epfd, events, 64, timeout_ms);
    if (n < 0 && errno != EINTR) {
      break;
    }
    for (int i = 0; i < n; i++) {
      if (events[i].data.fd == worker->wake_rd) {
        woke = true;
        continue;
      }
      uint32_t mask = 0;
      if (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
        mask |= POLLIN;
      }
      if (events[i].events & EPOLLOUT) {
        mask |= POLLOUT;
      }
      ready.emplace_back(static_cast<int>(events[i].data.fd), mask);
    }
#else
    std::vector<pollfd> fds;
    fds.reserve(worker->conns.size() + 1);
    fds.push_back({worker->wake_rd, POLLIN, 0});
    for (const auto& [fd, conn] : worker->conns) {
      short ev = 0;
      if (conn->want_read) ev |= POLLIN;
      if (conn->want_write) ev |= POLLOUT;
      fds.push_back({fd, ev, 0});
    }
    int n = ::poll(fds.data(), fds.size(), timeout_ms);
    if (n < 0 && errno != EINTR) {
      break;
    }
    if (fds[0].revents != 0) {
      woke = true;
    }
    for (size_t i = 1; i < fds.size(); i++) {
      if (fds[i].revents != 0) {
        uint32_t mask = 0;
        if (fds[i].revents & (POLLIN | POLLERR | POLLHUP)) mask |= POLLIN;
        if (fds[i].revents & POLLOUT) mask |= POLLOUT;
        ready.emplace_back(fds[i].fd, mask);
      }
    }
#endif
    if (woke) {
      // Drain, then clear: cleared first, a wake byte written in between
      // would be drained with `wake_pending` left set, and every later
      // log event would skip writing one.
      DrainPipe(worker->wake_rd);
      worker->wake_pending.store(false);
      // Adopt connections handed over by the acceptor.
      std::deque<int> adopted;
      {
        std::lock_guard<std::mutex> lock(worker->mu);
        adopted.swap(worker->pending_fds);
      }
      for (int fd : adopted) {
        worker->conns.emplace(
            fd, std::make_unique<Conn>(fd, options_.max_frame_bytes));
#if CACHEKV_NET_EPOLL
        epoll_event ev;
        std::memset(&ev, 0, sizeof(ev));
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        ::epoll_ctl(worker->epfd, EPOLL_CTL_ADD, fd, &ev);
#endif
      }
    }

    for (const auto& [fd, mask] : ready) {
      auto it = worker->conns.find(fd);
      if (it == worker->conns.end()) {
        continue;  // closed earlier this round
      }
      Conn* conn = it->second.get();
      // A parked connection watches no reads, so a read event on it is
      // an error or hangup: the peer is gone.
      bool alive = !((mask & POLLIN) && conn->parked());
      if (alive && (mask & POLLIN)) {
        while (alive) {
          if (fault::AnyActive() && !fault::Inject("net.read").ok()) {
            alive = false;  // injected read failure closes the conn
            break;
          }
          ssize_t got = ::recv(fd, rbuf, sizeof(rbuf), 0);
          if (got > 0) {
            bytes_in_->Increment(static_cast<uint64_t>(got));
            conn->decoder.Feed(rbuf, static_cast<size_t>(got));
            alive = ProcessFrames(worker, conn);
            if (conn->parked()) {
              break;  // the rest waits in the socket (see Conn::frames)
            }
            if (got < static_cast<ssize_t>(sizeof(rbuf))) {
              break;  // drained the socket
            }
          } else if (got == 0) {
            alive = false;  // orderly peer close
            break;
          } else {
            if (errno != EAGAIN && errno != EWOULDBLOCK &&
                errno != EINTR) {
              alive = false;
            }
            break;
          }
        }
      }
      if (alive && (mask & POLLOUT)) {
        alive = FlushOut(conn);
      }
      if (!alive) {
        CloseConn(worker, fd);
        continue;
      }
      UpdateInterest(worker, conn);
    }
    ResumeParked(worker);
  }

  // Shutdown: close every connection this worker owns.
  for (auto& [fd, conn] : worker->conns) {
    (void)conn;
#if CACHEKV_NET_EPOLL
    ::epoll_ctl(worker->epfd, EPOLL_CTL_DEL, fd, nullptr);
#endif
    ::close(fd);
    connections_->Add(-1);
  }
  worker->conns.clear();
  worker->parked.clear();
  worker->num_parked.store(0);
}

void Server::UpdateInterest(Worker* worker, Conn* conn) {
  const bool want_read = !conn->parked();
  const bool want_write = conn->out_pos < conn->out.size();
  if (want_read == conn->want_read && want_write == conn->want_write) {
    return;
  }
  conn->want_read = want_read;
  conn->want_write = want_write;
#if CACHEKV_NET_EPOLL
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = (want_read ? static_cast<uint32_t>(EPOLLIN) : 0u) |
              (want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  ev.data.fd = conn->fd;
  ::epoll_ctl(worker->epfd, EPOLL_CTL_MOD, conn->fd, &ev);
#else
  (void)worker;  // the poll() path rebuilds interest per round
#endif
}

int Server::PollTimeoutMs(const Worker* worker) const {
  using std::chrono::milliseconds;
  milliseconds timeout(500);
  if (worker->parked.empty()) return static_cast<int>(timeout.count());
  const auto now = std::chrono::steady_clock::now();
  for (const Conn* conn : worker->parked) {
    // Rounded up: waking before the deadline would only spin.
    timeout = std::min(timeout, std::max(milliseconds(0),
                                         std::chrono::ceil<milliseconds>(
                                             conn->deadline - now)));
  }
  return static_cast<int>(timeout.count());
}

void Server::WakeParked() {
  for (const auto& w : workers_) {
    if (w->num_parked.load() > 0 && !w->wake_pending.exchange(true)) {
      WakeByte(w->wake_wr);
    }
  }
}

void Server::Park(Worker* worker, Conn* conn) {
  // Counted before anything checks whether the wait is over: an ack
  // landing after that check then finds num_parked > 0 and wakes us.
  worker->num_parked.fetch_add(1);
  worker->parked.push_back(conn);
}

bool Server::TryResume(Conn* conn,
                       std::chrono::steady_clock::time_point now) {
  const bool expired = now >= conn->deadline;
  if (conn->fetch_held) {
    if (!expired && repl_->MayHoldFetch(conn->fetch, conn->follower_id)) {
      return false;
    }
    conn->fetch_held = false;
    const size_t i = conn->next_frame++;
    HandleRequest(conn, conn->frames[i],
                  static_cast<uint32_t>(conn->frames.size() - 1 - i));
    return true;
  }
  WriteRun* run = conn->parked_run.get();
  bool settled = true;
  for (repl::ReplHub::CommitWait& wait : run->acks) {
    settled = repl_->PollCommitWait(&wait, expired) && settled;
  }
  if (!settled) return false;
  run->timeline.Stage("req.repl");
  RespondWrites(conn, run);
  conn->parked_run.reset();  // closes the run's timeline
  return true;
}

void Server::ResumeParked(Worker* worker) {
  // A resumed connection goes on with its frames and may park again on
  // the next write run; every pass checks each park once more, so no
  // parked connection sleeps without a check after its last park.
  bool resumed = true;
  while (resumed && !worker->parked.empty()) {
    resumed = false;
    const auto now = std::chrono::steady_clock::now();
    std::vector<Conn*> parked;
    parked.swap(worker->parked);
    for (Conn* conn : parked) {
      if (!TryResume(conn, now)) {
        worker->parked.push_back(conn);
        continue;
      }
      worker->num_parked.fetch_sub(1);
      resumed = true;
      if (!ProcessFrames(worker, conn)) {
        CloseConn(worker, conn->fd);
        continue;
      }
      UpdateInterest(worker, conn);
    }
  }
}

bool Server::ProcessFrames(Worker* worker, Conn* conn) {
  obs::Tracer* tracer = primary()->trace();
  const bool tracing = tracer->enabled();
  std::vector<Frame>& frames = conn->frames;
  if (conn->next_frame == frames.size()) {
    // Pull every complete frame first: the span between "bytes arrived"
    // and "responses written" is where pipelined writes batch.
    frames.clear();
    conn->next_frame = conn->unsent_from = 0;
    Frame frame;
    while (conn->decoder.Next(&frame) == FrameDecoder::Result::kFrame) {
      frames.push_back(frame);
      if (tracing && frame.traced) {
        // The receive-side marker of the merged timeline: when the
        // request became visible to the server.
        tracer->Instant("net.recv", "trace", frame.trace_id);
      }
    }
  }
  while (conn->next_frame < frames.size() && !conn->parked()) {
    const size_t i = conn->next_frame;
    const Frame& frame = frames[i];
    // Frames decoded behind this one in the same round = the queueing
    // the request observed on its own connection.
    const uint32_t depth = static_cast<uint32_t>(frames.size() - 1 - i);
    if (ShedForBackpressure(conn, frame.op, frame.request_id)) {
      conn->next_frame++;
      continue;
    }
    if (NetTrace() && frame.op >= Op::kReplSubscribe)
      fprintf(stderr, "[%ld srv %d w%d] handle op=%d fd=%d\n", TraceMs(),
              (int)port_, worker->index, (int)frame.op, conn->fd);
    if (IsWriteOp(frame.op)) {
      conn->next_frame = HandleWrites(worker, conn, i, depth);
    } else if (frame.op != Op::kReplBatch ||
               !HoldFetch(worker, conn, frame)) {
      HandleRequest(conn, frame, depth);
      conn->next_frame++;
    }
  }
  bool alive = true;
  if (!conn->parked() && !conn->decoder.error().empty()) {
    // The stream is unrecoverable: report once, then close. The id is 0
    // because the broken frame's id cannot be trusted.
    decode_errors_->Increment();
    EncodeErrorResponse(&conn->out, Op::kPing, 0, kDecodeError,
                        conn->decoder.error());
    alive = false;
  }
  const bool flushed = FlushOut(conn);
  // A parked run's responses are not written yet.
  const size_t answered = conn->parked_run != nullptr
                              ? conn->next_frame - conn->parked_run->count
                              : conn->next_frame;
  if (flushed && tracing) {
    for (size_t i = conn->unsent_from; i < answered; i++) {
      if (frames[i].traced) {
        tracer->Instant("net.send", "trace", frames[i].trace_id);
      }
    }
  }
  conn->unsent_from = answered;
  return flushed && alive;
}

bool Server::HoldFetch(Worker* worker, Conn* conn, const Frame& frame) {
  if (repl_ == nullptr || conn->follower_id.empty() ||
      !ParseReplBatchRequest(frame.payload, &conn->fetch).ok() ||
      !repl_->MayHoldFetch(conn->fetch, conn->follower_id)) {
    return false;
  }
  conn->fetch_held = true;
  conn->deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(repl::kFetchHoldMs);
  Park(worker, conn);
  return true;
}

bool Server::ShedForBackpressure(Conn* conn, Op op, uint64_t id) {
  const size_t cap = options_.max_conn_write_buffer_bytes;
  if (cap == 0 || op == Op::kPing) {
    return false;  // disabled, or a liveness probe that must pass
  }
  if (conn->out.size() - conn->out_pos <= cap) {
    return false;
  }
  // Offer the backlog to the socket once before giving up; a fatal
  // write error here surfaces on the next FlushOut and closes the conn.
  FlushOut(conn);
  if (conn->out.size() - conn->out_pos <= cap) {
    return false;
  }
  backpressure_sheds_->Increment();
  EncodeErrorResponse(&conn->out, op, id, kBusy,
                      "connection write buffer full; request shed");
  return true;
}

uint16_t Server::Admit(const Frame& frame, std::string* error) {
  if (frame.response) {
    // A client must never send response frames; treat as decode error.
    decode_errors_->Increment();
    *error = "response frame sent to server";
    return kDecodeError;
  }
  if (frame.at_snapshot && frame.op != Op::kGet && frame.op != Op::kScan) {
    *error = "at-snapshot flag on a non-read request";
    return kInvalidArgument;
  }
  if (fault::AnyActive()) {
    // An armed delay action here lands inside the req.decode stage
    // window, so the slow log attributes it to decode.
    Status injected = fault::Inject("net.decode");
    if (!injected.ok()) {
      decode_errors_->Increment();
      *error = injected.ToString();
      return kDecodeError;
    }
  }
  return kOk;
}

Status Server::CommitShard(uint32_t shard,
                           const std::vector<KVStore::BatchOp>& ops,
                           uint64_t* seq) {
  Status s = dbs_[shard]->ApplyBatch(ops, seq);
  if (caches_.empty()) {
    return s;
  }
  // A batch is one sequence block ending at *seq, so op i committed at
  // the block's first sequence plus i: each PUT refreshes its key at its
  // own sequence, and the cache keeps whichever racing write committed
  // last. Deletes invalidate, and so does every op of a failed commit: a
  // spurious invalidation costs one cache miss, a missed one could
  // shadow an acked write.
  cache::HotKeyCache* hot = caches_[shard].get();
  const uint64_t first = s.ok() ? *seq + 1 - ops.size() : 0;
  for (size_t i = 0; i < ops.size(); i++) {
    if (s.ok() && !ops[i].is_delete) {
      hot->Refresh(ops[i].key, ops[i].value, first + i);
    } else {
      hot->Invalidate(ops[i].key);
    }
  }
  return s;
}

size_t Server::HandleWrites(Worker* worker, Conn* conn, size_t begin,
                            uint32_t queue_depth) {
  // The run: a MULTIPUT alone, or consecutive PUT/DEL requests under the
  // request and byte caps (a request's payload bounds its key + value).
  const std::vector<Frame>& frames = conn->frames;
  size_t end = begin + 1;
  if (frames[begin].op != Op::kMultiPut) {
    size_t bytes = frames[begin].payload.size() + kRecordOverhead;
    while (end < frames.size() && end - begin < kMaxRunRequests &&
           (frames[end].op == Op::kPut || frames[end].op == Op::kDelete)) {
      bytes += frames[end].payload.size() + kRecordOverhead;
      if (batch_bytes_cap_ != 0 && bytes > batch_bytes_cap_) break;
      end++;
    }
  }
  const size_t count = end - begin;
  requests_->Increment(count);
  if (repl_ == nullptr || repl_->AcksNeeded() == 0) {
    WriteRun run(this, &frames[begin], count, queue_depth, false);
    CommitWrites(&run);
    RespondWrites(conn, &run);
    return end;
  }

  // Follower acks are needed: the run waits for them parked, so the
  // worker goes on serving other connections meanwhile.
  auto run = std::make_unique<WriteRun>(this, &frames[begin], count,
                                        queue_depth, true);
  CommitWrites(run.get());
  for (Frame& f : run->copies) f.payload = Slice();
  for (uint32_t shard = 0; shard < dbs_.size(); shard++) {
    if (run->shard_seq[shard] != 0) {
      run->acks.push_back(
          repl_->BeginCommitWait(shard, run->shard_seq[shard]));
    }
  }
  if (run->acks.empty()) {  // nothing committed: nothing to replicate
    RespondWrites(conn, run.get());
    return end;
  }
  conn->parked_run = std::move(run);
  conn->deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(repl_->options().ack_timeout_ms);
  Park(worker, conn);
  return end;
}

void Server::CommitWrites(WriteRun* run) {
  const size_t count = run->count;
  run->timeline.AddArg("requests", count);
  for (size_t i = 0; i < count; i++) {
    const Frame& f = run->frames[i];
    WriteRun::Request& r = run->reqs[i];
    if (f.traced) {
      traced_requests_->Increment();
      run->timeline.AddArg("trace", f.trace_id);
    }
    r.code = Admit(f, &r.error);
    if (r.code != kOk) continue;
    Status s;
    if (f.op == Op::kMultiPut) {
      MultiPutRequest req;
      s = ParseMultiPutRequest(f.payload, &req);
      r.ops = std::move(req.ops);
    } else if (f.op == Op::kPut) {
      PutRequest req;
      s = ParsePutRequest(f.payload, &req);
      if (s.ok()) {
        r.ops.push_back({false, req.key.ToString(), req.value.ToString()});
      }
    } else {
      DeleteRequest req;
      s = ParseDeleteRequest(f.payload, &req);
      if (s.ok()) {
        r.ops.push_back({true, req.key.ToString(), std::string()});
      }
    }
    if (!s.ok()) {
      decode_errors_->Increment();
      r.ops.clear();
      r.code = kDecodeError;
      r.error = s.ToString();
    }
  }
  if (!run->reqs[0].ops.empty()) {
    run->timeline.SetKey(run->reqs[0].ops[0].key);
  }
  run->timeline.Stage("req.decode");

  // Route every op, then check each request's shards before any of it
  // commits: a follower or read-only shard rejects the whole request.
  for (WriteRun::Request& r : run->reqs) {
    for (const KVStore::BatchOp& op : r.ops) {
      uint32_t shard = 0;
      Route(op.key, &shard);
      r.shards.push_back(shard);
    }
    for (size_t j = 0; j < r.shards.size() && r.code == kOk; j++) {
      const uint32_t shard = r.shards[j];
      if (ShardNotPrimary(shard)) {
        r.code = kNotPrimary;
        r.error = "shard is a replication follower";
      } else if (dbs_[shard]->IsReadOnly()) {
        r.code = kReadOnly;
        r.error = dbs_[shard]->BackgroundError().ToString();
      }
    }
  }
  if (!run->reqs[0].shards.empty()) {
    run->timeline.SetShard(run->reqs[0].shards[0]);
  }
  run->timeline.Stage("req.route");

  // Group the admitted ops by shard; `parts` records, in request order,
  // where each request's share of the shard's batch begins.
  struct ShardBatch {
    std::vector<KVStore::BatchOp> ops;
    std::vector<std::pair<size_t, size_t>> parts;  // (request, first op)
  };
  std::vector<ShardBatch> batches(dbs_.size());
  for (size_t i = 0; i < count; i++) {
    WriteRun::Request& r = run->reqs[i];
    if (r.code != kOk) continue;
    for (size_t j = 0; j < r.ops.size(); j++) {
      ShardBatch& b = batches[r.shards[j]];
      if (b.parts.empty() || b.parts.back().first != i) {
        b.parts.emplace_back(i, b.ops.size());
      }
      b.ops.push_back(std::move(r.ops[j]));
    }
  }

  // One commit per shard; `shard_seq` keeps each shard's latest commit
  // for the ack waits. Those start only once every shard has committed,
  // so a lagging shard can never keep a later shard's writes from
  // committing.
  run->shard_seq.assign(dbs_.size(), 0);
  for (uint32_t shard = 0; shard < dbs_.size(); shard++) {
    ShardBatch& b = batches[shard];
    if (b.parts.empty()) continue;
    uint64_t seq = 0;
    Status s = CommitShard(shard, b.ops, &seq);
    if ((s.IsInvalidArgument() || s.IsOutOfSpace()) && b.parts.size() > 1) {
      // A bad request, or a combined batch that outgrew a sub-MemTable
      // (the run caps are estimates): nothing committed, so commit each
      // request's share on its own. Clients never asked for
      // cross-request atomicity, and one bad request must not fail the
      // others.
      for (size_t k = 0; k < b.parts.size(); k++) {
        const size_t first = b.parts[k].second;
        const size_t last =
            k + 1 < b.parts.size() ? b.parts[k + 1].second : b.ops.size();
        const std::vector<KVStore::BatchOp> own(b.ops.begin() + first,
                                                b.ops.begin() + last);
        Status own_status = CommitShard(shard, own, &seq);
        if (own_status.ok()) run->shard_seq[shard] = seq;
        run->reqs[b.parts[k].first].outcomes.emplace_back(shard, own_status);
      }
      continue;
    }
    if (s.ok()) {
      run->shard_seq[shard] = seq;
      if (count > 1) {
        batched_writes_->Increment();
        batched_ops_->Increment(b.ops.size());
      }
    }
    for (const auto& part : b.parts) {
      run->reqs[part.first].outcomes.emplace_back(shard, s);
    }
  }
  run->timeline.Stage("req.db");
}

void Server::RespondWrites(Conn* conn, WriteRun* run) {
  // Each request answers with the worst outcome among its own shards: a
  // failed commit outranks an under-replicated one (REPL_TIMEOUT), which
  // outranks OK. A partial commit names the shards that committed.
  for (size_t i = 0; i < run->count; i++) {
    const WriteRun::Request& r = run->reqs[i];
    uint16_t code = r.code;
    std::string message = r.error;
    std::string committed;
    for (const auto& [shard, s] : r.outcomes) {
      if (s.ok()) {
        committed += (committed.empty() ? "" : ",") + std::to_string(shard);
        for (const repl::ReplHub::CommitWait& wait : run->acks) {
          if (wait.shard == shard && !wait.status.ok() && code == kOk) {
            code = kReplTimeout;
            message = wait.status.ToString();
          }
        }
      } else if (code == kOk || code == kReplTimeout) {
        // A write refused because of background degradation surfaces as
        // kReadOnly so clients can tell it from an ordinary IO error.
        code = dbs_[shard]->IsReadOnly() ? static_cast<uint16_t>(kReadOnly)
                                         : WireCodeOf(s);
        message = s.ToString();
      }
    }
    const Frame& f = run->frames[i];
    const TraceContext tc = run->timeline.ResponseContext(i);
    if (code == kOk) {
      EncodeOkResponse(&conn->out, f.op, f.request_id, Slice(), tc);
      continue;
    }
    if (r.outcomes.size() > 1 && !committed.empty()) {
      message += "; committed on shards " + committed;
    }
    EncodeErrorResponse(&conn->out, f.op, f.request_id, code, message, tc);
  }
  run->timeline.Stage("req.encode");
}

void Server::BuildStatsPayload(std::string* out) {
  if (dbs_.size() == 1) {
    // Reuses the registry's canonical JSON dump (src/obs); the server
    // adds no formatting of its own, so STATS and DB::DumpMetrics can
    // never drift apart.
    primary()->DumpMetrics(out);
    return;
  }
  // Sharded: one document, every shard's dump under a "shard.<i>"
  // label (the per-shard objects are the same shape as the single-DB
  // dump, so existing consumers work per shard).
  JsonValue root = JsonValue::Object();
  root.Set("shards", JsonValue::Number(static_cast<double>(dbs_.size())));
  for (size_t i = 0; i < dbs_.size(); i++) {
    JsonValue snap;
    dbs_[i]->GetMetricsSnapshot().ToJson(&snap);
    root.Set("shard." + std::to_string(i), std::move(snap));
  }
  out->append(root.ToString());
}

void Server::HandleRequest(Conn* conn, const Frame& frame,
                           uint32_t queue_depth) {
  requests_->Increment();
  const Op op = frame.op;
  const uint64_t id = frame.request_id;
  RequestTimeline timeline(this, &frame, 1, queue_depth);
  if (frame.traced) {
    traced_requests_->Increment();
    timeline.AddArg("trace", frame.trace_id);
  }

  // Every response echoes the trace context of a traced request (with
  // the service time measured at encode) and closes the encode stage.
  auto respond_ok = [&](const Slice& payload) {
    EncodeOkResponse(&conn->out, op, id, payload,
                     timeline.ResponseContext());
    timeline.Stage("req.encode");
  };
  auto respond_error = [&](uint16_t code, const std::string& message) {
    EncodeErrorResponse(&conn->out, op, id, code, message,
                        timeline.ResponseContext());
    timeline.Stage("req.encode");
  };

  // The REPL* ops and PROMOTE: parsed and checked here, served by the
  // hub. True when the hub answered OK.
  auto serve_repl = [&]<typename Request>(
                        Request* req,
                        Status (*parse)(const Slice&, Request*),
                        uint16_t (repl::ReplHub::*handle)(
                            const Request&, std::string*, std::string*)) {
    Status s = parse(frame.payload, req);
    if (!s.ok()) {
      decode_errors_->Increment();
      respond_error(kDecodeError, s.ToString());
      return false;
    }
    if (repl_ == nullptr) {
      respond_error(kInvalidArgument, "replication not enabled");
      return false;
    }
    if (req->shard >= num_shards()) {
      respond_error(kInvalidArgument, "shard out of range");
      return false;
    }
    std::string payload;
    std::string error;
    const uint16_t code = (repl_->*handle)(*req, &payload, &error);
    timeline.Stage("req.db");
    if (code != kOk) {
      respond_error(code, error);
      return false;
    }
    respond_ok(payload);
    return true;
  };

  std::string rejection;
  const uint16_t rejected = Admit(frame, &rejection);
  if (rejected != kOk) {
    respond_error(rejected, rejection);
    return;
  }

  switch (op) {
    case Op::kGet: {
      GetRequest req;
      Status s = ParseGetRequest(frame.payload, &req);
      if (!s.ok()) {
        decode_errors_->Increment();
        respond_error(kDecodeError, s.ToString());
        return;
      }
      timeline.SetKey(req.key);
      timeline.Stage("req.decode");
      uint32_t shard = 0;
      DB* db = Route(req.key, &shard);
      timeline.SetShard(shard);
      timeline.Stage("req.route");
      if (ShardNotPrimary(shard)) {
        // Followers reject reads too: an acked write may not have
        // streamed here yet, and serving it stale would break
        // read-your-writes for clients that failed over.
        respond_error(kNotPrimary, "shard is a replication follower");
        return;
      }
      if (frame.at_snapshot) {
        // Snapshot reads bypass the hot-key cache entirely: the cache
        // holds latest-state values, which may be newer than the pin.
        std::shared_ptr<SnapshotEntry> snap =
            FindSnapshot(frame.snapshot_id);
        if (snap == nullptr) {
          respond_error(kSnapshotUnknown,
                        "snapshot id not held (released or expired)");
          return;
        }
        std::string value;
        s = db->GetAt(req.key, snap->seqs[shard], &value);
        timeline.Stage("req.db");
        if (s.ok()) {
          respond_ok(value);
        } else {
          respond_error(WireCodeOf(s), s.ToString());
        }
        return;
      }
      std::string value;
      cache::HotKeyCache* hot =
          caches_.empty() ? nullptr : caches_[shard].get();
      cache::HotKeyCache::FillToken token;
      if (hot != nullptr && hot->Lookup(req.key, &value, &token)) {
        timeline.Stage("req.cache");
        respond_ok(value);
        return;
      }
      if (hot != nullptr) {
        timeline.Stage("req.cache");
      }
      SequenceNumber seq = 0;
      s = db->Get(req.key, &value, &seq);
      timeline.Stage("req.db");
      if (s.ok()) {
        if (hot != nullptr) {
          // Read-through fill, guarded by the token: if a write touched
          // this key since the Lookup miss, the fill is dropped rather
          // than shadowing the acked overwrite.
          hot->Insert(req.key, value, token, seq);
          // Separate stage so a poisoned/delayed fill (cache.poison)
          // shows up under its own name in the slow log.
          timeline.Stage("req.cache.fill");
        }
        respond_ok(value);
      } else {
        respond_error(WireCodeOf(s), s.ToString());
      }
      return;
    }
    case Op::kPut:
    case Op::kDelete:
    case Op::kMultiPut:
      break;  // ProcessFrames hands every write to HandleWrites
    case Op::kScan: {
      ScanRequest req;
      Status s = ParseScanRequest(frame.payload, &req);
      if (!s.ok()) {
        decode_errors_->Increment();
        respond_error(kDecodeError, s.ToString());
        return;
      }
      if (req.limit > options_.max_scan_limit) {
        respond_error(kTooLarge, "scan limit exceeds server maximum");
        return;
      }
      timeline.SetKey(req.start);
      timeline.Stage("req.decode");
      // A scan touches every shard; one follower shard poisons the
      // whole merge with potentially-stale entries, so reject.
      for (uint32_t shard = 0; shard < dbs_.size(); shard++) {
        if (ShardNotPrimary(shard)) {
          respond_error(kNotPrimary, "shard is a replication follower");
          return;
        }
      }
      std::shared_ptr<SnapshotEntry> snap;
      if (frame.at_snapshot) {
        snap = FindSnapshot(frame.snapshot_id);
        if (snap == nullptr) {
          respond_error(kSnapshotUnknown,
                        "snapshot id not held (released or expired)");
          return;
        }
      }
      // Each shard holds an arbitrary slice of the range, so every
      // shard scans up to the full limit and the ordered k-way merge
      // trims the union back down. At a snapshot, each shard scans at
      // its own pinned sequence — together the per-shard cut the
      // SNAPSHOT op froze.
      std::vector<std::vector<std::pair<std::string, std::string>>>
          per_shard(dbs_.size());
      for (uint32_t shard = 0; s.ok() && shard < dbs_.size(); shard++) {
        shard_requests_[shard]->Increment();
        s = snap != nullptr
                ? dbs_[shard]->ScanAt(req.start, req.limit,
                                      snap->seqs[shard], &per_shard[shard])
                : dbs_[shard]->Scan(req.start, req.limit, &per_shard[shard]);
      }
      std::vector<std::pair<std::string, std::string>> entries;
      if (s.ok()) {
        MergeShardScans(std::move(per_shard), req.limit, &entries);
      }
      timeline.Stage("req.db");
      if (!s.ok()) {
        respond_error(WireCodeOf(s), s.ToString());
        return;
      }
      timeline.AddArg("entries", entries.size());
      std::string payload;
      EncodeScanPayload(&payload, entries);
      respond_ok(payload);
      return;
    }
    case Op::kStats: {
      std::string json;
      BuildStatsPayload(&json);
      timeline.Stage("req.db");
      respond_ok(json);
      return;
    }
    case Op::kPing: {
      respond_ok(Slice());
      return;
    }
    case Op::kShardMap: {
      // The image is immutable after Start() — unless replication is
      // on, where epochs/roles move and the image is rebuilt per
      // request; single-DB servers answer a 1-shard identity map.
      if (repl_ != nullptr) {
        std::string image;
        BuildShardMapImage(&image);
        respond_ok(image);
        return;
      }
      respond_ok(shard_map_image_);
      return;
    }
    case Op::kSlowLog: {
      SlowLogRequest req;
      Status s = ParseSlowLogRequest(frame.payload, &req);
      if (!s.ok()) {
        decode_errors_->Increment();
        respond_error(kDecodeError, s.ToString());
        return;
      }
      slowlog_queries_->Increment();
      JsonValue entries;
      if (slow_log_ != nullptr) {
        slow_log_->ToJson(&entries, req.limit);
      } else {
        entries = JsonValue::Array();  // capture disabled: empty log
      }
      respond_ok(entries.ToString());
      return;
    }
    case Op::kMetricsProm: {
      std::string text;
      BuildPromPayload(&text);
      timeline.Stage("req.db");
      respond_ok(text);
      return;
    }
    case Op::kReplSubscribe: {
      ReplSubscribeRequest req;
      if (serve_repl(&req, &ParseReplSubscribeRequest,
                     &repl::ReplHub::HandleSubscribe)) {
        // This connection's fetches may now be held for that follower.
        conn->follower_id = req.follower_id.ToString();
      }
      return;
    }
    case Op::kReplBatch: {
      ReplBatchRequest req;
      serve_repl(&req, &ParseReplBatchRequest, &repl::ReplHub::HandleBatch);
      return;
    }
    case Op::kReplAck: {
      ReplAckRequest req;
      serve_repl(&req, &ParseReplAckRequest, &repl::ReplHub::HandleAck);
      return;
    }
    case Op::kReplSnapshot: {
      ReplSnapshotRequest req;
      serve_repl(&req, &ParseReplSnapshotRequest,
                 &repl::ReplHub::HandleSnapshot);
      return;
    }
    case Op::kPromote: {
      PromoteRequest req;
      serve_repl(&req, &ParsePromoteRequest, &repl::ReplHub::HandlePromote);
      return;
    }
    case Op::kSnapshot: {
      SnapshotRequest req;
      Status s = ParseSnapshotRequest(frame.payload, &req);
      if (!s.ok()) {
        decode_errors_->Increment();
        respond_error(kDecodeError, s.ToString());
        return;
      }
      timeline.Stage("req.decode");
      // A request may shorten the pin's life but never outlive the
      // server's bound.
      uint32_t ttl_ms = options_.snapshot_ttl_ms;
      if (req.ttl_ms != 0 && req.ttl_ms < ttl_ms) {
        ttl_ms = req.ttl_ms;
      }
      auto entry = std::make_shared<SnapshotEntry>(&dbs_);
      entry->handles.reserve(dbs_.size());
      entry->seqs.reserve(dbs_.size());
      for (DB* db : dbs_) {
        const DB::Snapshot* handle = db->GetSnapshot();
        if (handle == nullptr) {
          // One shard is at its pin cap: the entry's destructor
          // releases the shards pinned so far.
          timeline.Stage("req.db");
          respond_error(kBusy, "snapshot pin cap reached");
          return;
        }
        entry->handles.push_back(handle);
        entry->seqs.push_back(handle->sequence());
      }
      entry->deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(ttl_ms);
      SnapshotResponse resp;
      resp.shard_seqs = entry->seqs;
      {
        std::lock_guard<std::mutex> lock(snapshots_mu_);
        resp.snapshot_id = next_snapshot_id_++;
        snapshots_.emplace(resp.snapshot_id, std::move(entry));
      }
      snap_active_->Add(1);
      timeline.Stage("req.db");
      std::string payload;
      EncodeSnapshotPayload(&payload, resp);
      respond_ok(payload);
      return;
    }
    case Op::kSnapshotRelease: {
      SnapshotReleaseRequest req;
      Status s = ParseSnapshotReleaseRequest(frame.payload, &req);
      if (!s.ok()) {
        decode_errors_->Increment();
        respond_error(kDecodeError, s.ToString());
        return;
      }
      timeline.Stage("req.decode");
      std::shared_ptr<SnapshotEntry> released;
      {
        std::lock_guard<std::mutex> lock(snapshots_mu_);
        auto it = snapshots_.find(req.snapshot_id);
        if (it != snapshots_.end()) {
          released = std::move(it->second);
          snapshots_.erase(it);
        }
      }
      if (released == nullptr) {
        respond_error(kSnapshotUnknown,
                      "snapshot id not held (released or expired)");
        return;
      }
      snap_active_->Add(-1);
      released.reset();  // unpin outside snapshots_mu_
      timeline.Stage("req.db");
      respond_ok(Slice());
      return;
    }
  }
  respond_error(kUnknownOp, "unknown opcode");
}

void Server::BuildPromPayload(std::string* out) {
  // Per-shard labels come from position: snapshot i renders with
  // shard="i", matching the STATS "shard.<i>" sections.
  std::vector<obs::MetricsSnapshot> snapshots;
  snapshots.reserve(dbs_.size());
  for (DB* db : dbs_) {
    snapshots.push_back(db->GetMetricsSnapshot());
  }
  *out = obs::RenderPrometheus(snapshots);
}

bool Server::FlushOut(Conn* conn) {
  while (conn->out_pos < conn->out.size()) {
    if (fault::AnyActive() && !fault::Inject("net.write").ok()) {
      return false;  // injected write failure closes the conn
    }
    ssize_t sent =
        ::send(conn->fd, conn->out.data() + conn->out_pos,
               conn->out.size() - conn->out_pos, MSG_NOSIGNAL);
    if (sent > 0) {
      bytes_out_->Increment(static_cast<uint64_t>(sent));
      conn->out_pos += static_cast<size_t>(sent);
    } else if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;  // poller will signal writability
    } else if (sent < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  conn->out.clear();
  conn->out_pos = 0;
  return true;
}

}  // namespace net
}  // namespace cachekv
