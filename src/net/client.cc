#include "net/client.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace cachekv {
namespace net {

namespace {

Status Errno(const char* what) {
  return Status::IOError(what, std::strerror(errno));
}

Status NotConnected() { return Status::IOError("not connected"); }

/// A whole-range op finds no single server to ask: the shards route to
/// more than one (mid-failover), and a server answers for the whole
/// range only while it is primary for every shard it hosts.
Status SplitRouting() {
  return StatusFromWire(kNotPrimary, "shards route to more than one server");
}

/// SplitMix64: trace ids must be well-mixed (they key merged
/// timelines) yet reproducible from (seed, ordinal).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Client-side span name for a sampled op (string literal: the tracer
/// stores the pointer).
const char* ClientSpanName(Op op) {
  switch (op) {
    case Op::kGet: return "client.get";
    case Op::kPut: return "client.put";
    case Op::kDelete: return "client.del";
    case Op::kMultiPut: return "client.multiput";
    case Op::kScan: return "client.scan";
    default: return "client.op";
  }
}

}  // namespace

Client::Client(const ClientOptions& options)
    : options_(options), decoder_(options.max_frame_bytes) {}

Client::~Client() { Close(); }

Status Client::Connect(const std::string& host, uint16_t port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Errno("socket");
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    // Not a literal address: resolve the name.
    addrinfo hints;
    std::memset(&hints, 0, sizeof(hints));
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* result = nullptr;
    if (::getaddrinfo(host.c_str(), nullptr, &hints, &result) != 0 ||
        result == nullptr) {
      Close();
      return Status::IOError("cannot resolve host", host);
    }
    addr.sin_addr =
        reinterpret_cast<sockaddr_in*>(result->ai_addr)->sin_addr;
    ::freeaddrinfo(result);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    Status s = Errno("connect");
    Close();
    return s;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (options_.recv_timeout_ms > 0) {
    timeval tv;
    tv.tv_sec = options_.recv_timeout_ms / 1000;
    tv.tv_usec = (options_.recv_timeout_ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  next_id_ = 1;
  keyed_seq_ = 0;
  sendbuf_.clear();
  outstanding_.clear();
  decoder_ = FrameDecoder(options_.max_frame_bytes);
  return Status::OK();
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  sendbuf_.clear();
  outstanding_.clear();
}

void Client::FailConnection() { Close(); }

TraceContext Client::NextTrace() {
  TraceContext tc;
  const uint64_t seq = keyed_seq_++;
  if (options_.trace_sample_every == 0 ||
      seq % options_.trace_sample_every != 0) {
    return tc;
  }
  tc.traced = true;
  // Mask to 48 bits: trace ids round-trip through JSON doubles (both
  // in trace dumps and the slow log), so they must stay below 2^53.
  tc.trace_id = Mix64(options_.trace_seed ^ seq) & ((1ULL << 48) - 1);
  if (tc.trace_id == 0) tc.trace_id = 1;
  return tc;
}

uint64_t Client::NowNs() const {
  // Span timestamps must live on the tracer's epoch so client spans
  // align with other events in the same dump; without a tracer only
  // durations are consumed and any steady epoch works.
  if (options_.tracer != nullptr) return options_.tracer->NowNs();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Status Client::SendAll(const char* data, size_t len) {
  size_t sent = 0;
  while (sent < len) {
    ssize_t n = ::send(fd_, data + sent, len - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      Status s = Errno("send");
      FailConnection();
      return s;
    }
  }
  return Status::OK();
}

Status Client::ReadFrame(Frame* frame) {
  char buf[64 << 10];
  while (true) {
    FrameDecoder::Result r = decoder_.Next(frame);
    if (r == FrameDecoder::Result::kFrame) {
      return Status::OK();
    }
    if (r == FrameDecoder::Result::kError) {
      Status s = Status::Corruption("protocol", decoder_.error());
      FailConnection();
      return s;
    }
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      decoder_.Feed(buf, static_cast<size_t>(n));
    } else if (n == 0) {
      FailConnection();
      return Status::IOError("connection closed by server");
    } else if (errno == EINTR) {
      continue;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      FailConnection();
      return Status::IOError("recv timeout");
    } else {
      Status s = Errno("recv");
      FailConnection();
      return s;
    }
  }
}

// Pipelined API. ------------------------------------------------------

uint64_t Client::Enqueue(Op op, const TraceContext& tc) {
  PendingOp pending;
  pending.id = next_id_++;
  pending.op = op;
  pending.traced = tc.traced;
  pending.trace_id = tc.trace_id;
  outstanding_.push_back(pending);
  return pending.id;
}

uint64_t Client::SubmitGet(const Slice& key) {
  const TraceContext tc = NextTrace();
  EncodeGetRequest(&sendbuf_, next_id_, key, tc);
  return Enqueue(Op::kGet, tc);
}

uint64_t Client::SubmitPut(const Slice& key, const Slice& value) {
  const TraceContext tc = NextTrace();
  EncodePutRequest(&sendbuf_, next_id_, key, value, tc);
  return Enqueue(Op::kPut, tc);
}

uint64_t Client::SubmitDelete(const Slice& key) {
  const TraceContext tc = NextTrace();
  EncodeDeleteRequest(&sendbuf_, next_id_, key, tc);
  return Enqueue(Op::kDelete, tc);
}

uint64_t Client::SubmitMultiPut(
    const std::vector<KVStore::BatchOp>& batch) {
  const TraceContext tc = NextTrace();
  EncodeMultiPutRequest(&sendbuf_, next_id_, batch, tc);
  return Enqueue(Op::kMultiPut, tc);
}

uint64_t Client::SubmitScan(const Slice& start, uint32_t limit) {
  const TraceContext tc = NextTrace();
  EncodeScanRequest(&sendbuf_, next_id_, start, limit, tc);
  return Enqueue(Op::kScan, tc);
}

uint64_t Client::SubmitScanAt(const Slice& start, uint32_t limit,
                              uint64_t snapshot_id) {
  SnapshotRef snap;
  snap.at_snapshot = true;
  snap.id = snapshot_id;
  EncodeScanRequest(&sendbuf_, next_id_, start, limit, TraceContext(),
                    snap);
  return Enqueue(Op::kScan);
}

uint64_t Client::SubmitPing() {
  EncodePingRequest(&sendbuf_, next_id_);
  return Enqueue(Op::kPing);
}

Status Client::Flush() {
  if (fd_ < 0) return NotConnected();
  if (sendbuf_.empty()) return Status::OK();
  // Stamp the send time of every not-yet-sent traced request: the
  // client-observed latency window is flush → response, which excludes
  // local queueing in sendbuf_ (the sampled measurement should cover
  // network + server only).
  bool have_now = false;
  uint64_t now = 0;
  for (PendingOp& pending : outstanding_) {
    if (pending.traced && pending.start_ns == 0) {
      if (!have_now) {
        now = NowNs();
        have_now = true;
      }
      pending.start_ns = now;
    }
  }
  Status s = SendAll(sendbuf_.data(), sendbuf_.size());
  sendbuf_.clear();  // keeps its capacity for the next flight
  return s;
}

Status Client::WaitAll(std::vector<Result>* results) {
  Status s = Flush();
  if (!s.ok()) return s;
  while (!outstanding_.empty()) {
    Frame frame;
    s = ReadFrame(&frame);
    if (!s.ok()) {
      outstanding_.clear();
      return s;
    }
    if (!frame.response) {
      FailConnection();
      return Status::Corruption("protocol", "request frame from server");
    }
    // The server answers in request order; tolerate reordering anyway
    // by searching the outstanding window for the id.
    size_t idx = 0;
    bool found = false;
    for (size_t i = 0; i < outstanding_.size(); i++) {
      if (outstanding_[i].id == frame.request_id) {
        idx = i;
        found = true;
        break;
      }
    }
    if (!found) {
      FailConnection();
      return Status::Corruption("protocol", "response for unknown id");
    }
    Result result;
    result.id = frame.request_id;
    result.wire_code = frame.code;
    result.op = outstanding_[idx].op;
    if (frame.op != result.op) {
      FailConnection();
      return Status::Corruption("protocol", "response opcode mismatch");
    }
    if (frame.code != kOk) {
      result.status = StatusFromWire(frame.code, frame.payload);
    } else if (result.op == Op::kScan) {
      result.status = ParseScanPayload(frame.payload, &result.entries);
    } else {
      result.value = frame.payload.ToString();
    }
    const PendingOp& pending = outstanding_[idx];
    if (pending.traced) {
      const uint64_t end = NowNs();
      result.traced = true;
      result.trace_id = pending.trace_id;
      result.server_ns = frame.traced ? frame.server_ns : 0;
      if (pending.start_ns != 0 && end > pending.start_ns) {
        result.client_ns = end - pending.start_ns;
      }
      if (options_.tracer != nullptr && options_.tracer->enabled()) {
        options_.tracer->Complete(ClientSpanName(result.op),
                                  pending.start_ns, end - pending.start_ns,
                                  "trace", pending.trace_id);
      }
    }
    outstanding_.erase(outstanding_.begin() + idx);
    results->push_back(std::move(result));
  }
  return Status::OK();
}

// Synchronous API: every call is a one-request pipeline. -------------

template <typename Submit>
Status Client::Call(const Submit& submit, Result* result) {
  last_wire_code_ = 0;  // 0 = no response arrived
  if (fd_ < 0) return NotConnected();
  if (!outstanding_.empty()) {
    return Status::InvalidArgument(
        "pipelined requests outstanding; WaitAll() first");
  }
  submit();
  std::vector<Result> results;
  Status s = WaitAll(&results);
  if (!s.ok()) return s;
  last_wire_code_ = results[0].wire_code;
  s = results[0].status;
  if (result != nullptr) *result = std::move(results[0]);
  return s;
}

Status Client::Put(const Slice& key, const Slice& value) {
  return Call([&] { SubmitPut(key, value); });
}

Status Client::Get(const Slice& key, std::string* value) {
  Result r;
  Status s = Call([&] { SubmitGet(key); }, &r);
  if (s.ok()) value->swap(r.value);
  return s;
}

Status Client::Delete(const Slice& key) {
  return Call([&] { SubmitDelete(key); });
}

Status Client::MultiPut(const std::vector<KVStore::BatchOp>& batch) {
  return Call([&] { SubmitMultiPut(batch); });
}

Status Client::Scan(
    const Slice& start, uint32_t limit,
    std::vector<std::pair<std::string, std::string>>* out) {
  Result r;
  Status s = Call([&] { SubmitScan(start, limit); }, &r);
  if (s.ok()) out->swap(r.entries);
  return s;
}

template <typename Encode, typename... Args>
Status Client::Request(Op op, std::string* payload, Encode encode,
                       const Args&... args) {
  Result r;
  Status s = Call(
      [&] {
        encode(&sendbuf_, next_id_, args...);
        Enqueue(op);
      },
      &r);
  if (s.ok() && payload != nullptr) payload->swap(r.value);
  return s;
}

Status Client::Stats(std::string* json) {
  return Request(Op::kStats, json, EncodeStatsRequest);
}

Status Client::SlowLog(uint32_t limit, std::string* json) {
  return Request(Op::kSlowLog, json, EncodeSlowLogRequest, limit);
}

Status Client::MetricsProm(std::string* text) {
  return Request(Op::kMetricsProm, text, EncodeMetricsPromRequest);
}

Status Client::Ping() {
  return Call([&] { SubmitPing(); });
}

Status Client::FetchShardMap(ShardRouter* out) {
  std::string payload;
  Status s = Request(Op::kShardMap, &payload, EncodeShardMapRequest);
  return s.ok() ? ShardRouter::Decode(payload, out) : s;
}

Status Client::CreateSnapshot(uint32_t ttl_ms, SnapshotResponse* resp) {
  std::string payload;
  Status s = Request(Op::kSnapshot, &payload, EncodeSnapshotRequest, ttl_ms);
  return s.ok() ? ParseSnapshotPayload(payload, resp) : s;
}

Status Client::ReleaseSnapshot(uint64_t snapshot_id) {
  return Request(Op::kSnapshotRelease, nullptr, EncodeSnapshotReleaseRequest,
                 snapshot_id);
}

Status Client::GetAt(const Slice& key, uint64_t snapshot_id,
                     std::string* value) {
  SnapshotRef snap;
  snap.at_snapshot = true;
  snap.id = snapshot_id;
  return Request(Op::kGet, value, EncodeGetRequest, key, TraceContext(),
                 snap);
}

Status Client::ScanAt(
    const Slice& start, uint32_t limit, uint64_t snapshot_id,
    std::vector<std::pair<std::string, std::string>>* out) {
  Result r;
  Status s = Call([&] { SubmitScanAt(start, limit, snapshot_id); }, &r);
  if (s.ok()) out->swap(r.entries);
  return s;
}

Status Client::ReplSubscribe(const ReplSubscribeRequest& request,
                             ReplSubscribeResponse* resp) {
  std::string payload;
  Status s = Request(Op::kReplSubscribe, &payload,
                     EncodeReplSubscribeRequest, request);
  return s.ok() ? ParseReplSubscribePayload(payload, resp) : s;
}

Status Client::ReplFetch(const ReplBatchRequest& request,
                         ReplBatchResponse* resp) {
  std::string payload;
  Status s =
      Request(Op::kReplBatch, &payload, EncodeReplBatchRequest, request);
  return s.ok() ? ParseReplBatchPayload(payload, resp) : s;
}

Status Client::ReplAck(const ReplAckRequest& request) {
  return Request(Op::kReplAck, nullptr, EncodeReplAckRequest, request);
}

Status Client::ReplSnapshot(const ReplSnapshotRequest& request,
                            ReplSnapshotResponse* resp) {
  std::string payload;
  Status s = Request(Op::kReplSnapshot, &payload, EncodeReplSnapshotRequest,
                     request);
  return s.ok() ? ParseReplSnapshotPayload(payload, resp) : s;
}

Status Client::Promote(uint32_t shard, uint64_t* new_epoch) {
  std::string payload;
  Status s = Request(Op::kPromote, &payload, EncodePromoteRequest, shard);
  return s.ok() ? ParsePromotePayload(payload, new_epoch) : s;
}

// ShardedClient. ------------------------------------------------------

namespace {

/// Splits an advertised "host:port" endpoint. Falls back to the
/// bootstrap address on anything unusable (empty, malformed, or a
/// wildcard bind address that is not routable from a client).
void ResolveEndpoint(const std::string& endpoint,
                     const std::string& bootstrap_host,
                     uint16_t bootstrap_port, std::string* host,
                     uint16_t* port) {
  *host = bootstrap_host;
  *port = bootstrap_port;
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= endpoint.size()) {
    return;
  }
  const std::string ep_host = endpoint.substr(0, colon);
  if (ep_host == "0.0.0.0") {
    return;
  }
  unsigned long ep_port = 0;
  for (size_t i = colon + 1; i < endpoint.size(); i++) {
    if (endpoint[i] < '0' || endpoint[i] > '9') return;
    ep_port = ep_port * 10 + static_cast<unsigned long>(endpoint[i] - '0');
    if (ep_port > 65535) return;
  }
  if (ep_port == 0) return;
  *host = ep_host;
  *port = static_cast<uint16_t>(ep_port);
}

}  // namespace

ShardedClient::ShardedClient(const ClientOptions& options)
    : options_(options) {}

Status ShardedClient::RequireConnected() const {
  if (conns_.empty()) return NotConnected();
  return Status::OK();
}

void ShardedClient::RememberEndpoint(const std::string& endpoint) {
  if (endpoint.empty()) return;
  for (const std::string& known : known_endpoints_) {
    if (known == endpoint) return;
  }
  known_endpoints_.push_back(endpoint);
}

void ShardedClient::AddSeedEndpoint(const std::string& endpoint) {
  std::string host;
  uint16_t port = 0;
  ResolveEndpoint(endpoint, "", 0, &host, &port);
  if (host.empty() || port == 0) return;
  RememberEndpoint(host + ":" + std::to_string(port));
}

void ShardedClient::LearnEndpoints(const ShardMap& map,
                                   const std::string& source) {
  std::string src_host;
  uint16_t src_port = 0;
  ResolveEndpoint(source, "", 0, &src_host, &src_port);
  for (const std::string& ep : map.endpoints) {
    std::string host = src_host;
    uint16_t port = src_port;
    ResolveEndpoint(ep, src_host, src_port, &host, &port);
    if (!host.empty() && port != 0) {
      RememberEndpoint(host + ":" + std::to_string(port));
    }
  }
  for (const auto& shard_replicas : map.replicas) {
    for (const std::string& ep : shard_replicas) {
      std::string host;
      uint16_t port = 0;
      ResolveEndpoint(ep, "", 0, &host, &port);
      if (!host.empty() && port != 0) {
        RememberEndpoint(host + ":" + std::to_string(port));
      }
    }
  }
}

Status ShardedClient::Connect(const std::string& host, uint16_t port) {
  const std::vector<std::string> seeds = known_endpoints_;
  Close();
  known_endpoints_ = seeds;  // AddSeedEndpoint survives reconnects
  bootstrap_host_ = host;
  bootstrap_port_ = port;
  RememberEndpoint(host + ":" + std::to_string(port));
  // Bootstrap: one throwaway connection fetches the ring.
  {
    Client bootstrap(options_);
    Status s = bootstrap.Connect(host, port);
    if (!s.ok()) return s;
    s = bootstrap.FetchShardMap(&router_);
    if (!s.ok()) return s;
    LearnEndpoints(router_.map(),
                   host + ":" + std::to_string(port));
  }
  // When the bootstrap server is not primary for some shard (it is a
  // replication follower), polling the full endpoint set finds the
  // primaries; otherwise connect straight to the advertised endpoints.
  bool bootstrap_serves_all = true;
  for (uint8_t p : router_.map().primaries) {
    if (p == 0) bootstrap_serves_all = false;
  }
  Status s;
  if (bootstrap_serves_all) {
    std::vector<std::string> endpoints = router_.map().endpoints;
    endpoints.resize(router_.num_shards());
    s = OpenShardConns(endpoints);
  } else {
    s = RefreshRouting();
  }
  if (!s.ok()) Close();
  return s;
}

Status ShardedClient::OpenShardConns(
    const std::vector<std::string>& endpoints) {
  std::vector<std::unique_ptr<Client>> conns;
  std::vector<std::string> resolved;
  conns.reserve(endpoints.size());
  for (uint32_t shard = 0; shard < endpoints.size(); shard++) {
    std::string host;
    uint16_t port = 0;
    ResolveEndpoint(endpoints[shard], bootstrap_host_, bootstrap_port_,
                    &host, &port);
    // Each shard connection samples independently; perturb the seed so
    // two connections never derive the same trace id for the same
    // request ordinal.
    ClientOptions conn_options = options_;
    if (conn_options.trace_sample_every > 0) {
      conn_options.trace_seed =
          options_.trace_seed ^ (0x9e3779b97f4a7c15ULL * (shard + 1));
    }
    auto conn = std::make_unique<Client>(conn_options);
    Status s = conn->Connect(host, port);
    if (!s.ok()) return s;
    conns.push_back(std::move(conn));
    resolved.push_back(host + ":" + std::to_string(port));
  }
  conns_ = std::move(conns);
  resolved_endpoints_ = std::move(resolved);
  return Status::OK();
}

Status ShardedClient::RefreshRouting() {
  // Poll every known endpoint for its current view; dead ones are
  // skipped. Endpoints learned from fetched maps extend the poll list
  // (but are only contacted on the next refresh).
  struct View {
    ShardRouter router;
    std::string endpoint;
  };
  std::vector<View> views;
  const std::vector<std::string> candidates = known_endpoints_;
  for (const std::string& endpoint : candidates) {
    std::string host;
    uint16_t port = 0;
    ResolveEndpoint(endpoint, "", 0, &host, &port);
    if (host.empty() || port == 0) continue;
    Client probe(options_);
    if (!probe.Connect(host, port).ok()) continue;
    View view;
    if (!probe.FetchShardMap(&view.router).ok()) continue;
    view.endpoint = endpoint;
    LearnEndpoints(view.router.map(), endpoint);
    views.push_back(std::move(view));
  }
  if (views.empty()) {
    return Status::IOError("shard map refresh",
                           "no reachable endpoint");
  }
  const uint32_t num_shards = views[0].router.num_shards();
  // Per shard, the server claiming primary under the highest epoch
  // wins; with no primary claim, fall back to the highest-epoch view.
  std::vector<std::string> chosen(num_shards);
  for (uint32_t shard = 0; shard < num_shards; shard++) {
    const View* best_primary = nullptr;
    uint64_t best_primary_epoch = 0;
    const View* best_any = nullptr;
    uint64_t best_any_epoch = 0;
    for (const View& view : views) {
      if (view.router.num_shards() != num_shards) continue;
      const ShardMap& map = view.router.map();
      const uint64_t epoch =
          shard < map.epochs.size() ? map.epochs[shard] : 0;
      const bool primary =
          map.primaries.empty() || map.primaries[shard] != 0;
      if (primary &&
          (best_primary == nullptr || epoch > best_primary_epoch)) {
        best_primary = &view;
        best_primary_epoch = epoch;
      }
      if (best_any == nullptr || epoch > best_any_epoch) {
        best_any = &view;
        best_any_epoch = epoch;
      }
    }
    const View* pick = best_primary != nullptr ? best_primary : best_any;
    if (pick == nullptr) {
      return Status::IOError("shard map refresh", "no view for shard");
    }
    chosen[shard] = pick->endpoint;
  }
  Status s = OpenShardConns(chosen);
  if (!s.ok()) return s;
  router_ = std::move(views[0].router);
  return Status::OK();
}

void ShardedClient::Close() {
  conns_.clear();
  resolved_endpoints_.clear();
  known_endpoints_.clear();
  router_ = ShardRouter();
  bootstrap_host_.clear();
  bootstrap_port_ = 0;
}

void ShardedClient::Backoff(uint32_t attempt) {
  uint64_t ms = options_.retry_backoff_base_ms;
  for (uint32_t i = 0; i < attempt && ms < options_.retry_backoff_max_ms;
       i++) {
    ms *= 2;
  }
  ms = std::min<uint64_t>(ms, options_.retry_backoff_max_ms);
  if (ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
}

Client* ShardedClient::ConnFor(uint32_t shard) const {
  if (shard != kAllShards) return conns_[shard].get();
  for (const std::string& endpoint : resolved_endpoints_) {
    if (endpoint != resolved_endpoints_[0]) return nullptr;
  }
  return conns_[0].get();
}

bool ShardedClient::ShouldFailover(const Client* conn, const Status& s) {
  if (s.ok()) return false;
  // No single server, or transport loss (the conn closed itself) — a
  // refresh may find one route again; kNotPrimary — the map moved under
  // us. Anything else (NotFound, Busy backpressure, validation) is the
  // caller's to see.
  return conn == nullptr || !conn->connected() ||
         conn->last_wire_code() == kNotPrimary;
}

Status ShardedClient::RetryShardOp(
    uint32_t shard, const std::function<Status(Client*)>& op) {
  Status s = RequireConnected();
  if (!s.ok()) return s;
  Client* conn = nullptr;
  auto attempt_op = [&] {
    conn = ConnFor(shard);
    return conn != nullptr ? op(conn) : SplitRouting();
  };
  s = attempt_op();
  for (uint32_t attempt = 0;
       attempt < options_.max_retries && ShouldFailover(conn, s);
       attempt++) {
    Backoff(attempt);
    if (!RefreshRouting().ok()) continue;  // endpoints may come back
    failovers_++;
    s = attempt_op();
  }
  return s;
}

Status ShardedClient::Put(const Slice& key, const Slice& value) {
  return RetryShardOp(
      router_.ShardOf(key),
      [&](Client* conn) { return conn->Put(key, value); });
}

Status ShardedClient::Get(const Slice& key, std::string* value) {
  return RetryShardOp(
      router_.ShardOf(key),
      [&](Client* conn) { return conn->Get(key, value); });
}

Status ShardedClient::Delete(const Slice& key) {
  return RetryShardOp(router_.ShardOf(key),
                      [&](Client* conn) { return conn->Delete(key); });
}

Status ShardedClient::MultiPut(
    const std::vector<KVStore::BatchOp>& batch) {
  Status s = RequireConnected();
  if (!s.ok()) return s;
  if (conns_.size() == 1) {
    return RetryShardOp(
        0, [&](Client* conn) { return conn->MultiPut(batch); });
  }
  std::vector<std::vector<KVStore::BatchOp>> split(conns_.size());
  for (const KVStore::BatchOp& op : batch) {
    split[router_.ShardOf(op.key)].push_back(op);
  }
  Status first_error;
  for (uint32_t shard = 0; shard < split.size(); shard++) {
    if (split[shard].empty()) continue;
    Status st = RetryShardOp(shard, [&](Client* conn) {
      return conn->MultiPut(split[shard]);
    });
    if (!st.ok() && first_error.ok()) first_error = st;
  }
  return first_error;
}

Status ShardedClient::Scan(
    const Slice& start, uint32_t limit,
    std::vector<std::pair<std::string, std::string>>* out) {
  return RetryShardOp(kAllShards, [&](Client* conn) {
    return conn->Scan(start, limit, out);
  });
}

// Snapshot API. -------------------------------------------------------

bool ShardedClient::SnapshotIdFor(const ShardedSnapshot& snap,
                                  const std::string& endpoint,
                                  uint64_t* id) {
  for (const auto& [ep, server_id] : snap.server_ids) {
    if (ep == endpoint) {
      *id = server_id;
      return true;
    }
  }
  return false;
}

Status ShardedClient::CreateSnapshot(uint32_t ttl_ms,
                                     ShardedSnapshot* out) {
  Status s = RequireConnected();
  if (!s.ok()) return s;
  out->server_ids.clear();
  out->shard_seqs.assign(conns_.size(), 0);
  // One SNAPSHOT per distinct server endpoint: a server pins every
  // shard it hosts under one id and reports their sequences.
  for (uint32_t shard = 0; shard < conns_.size(); shard++) {
    uint64_t ignored;
    if (SnapshotIdFor(*out, resolved_endpoints_[shard], &ignored)) {
      continue;  // this server is already pinned
    }
    SnapshotResponse resp;
    s = conns_[shard]->CreateSnapshot(ttl_ms, &resp);
    if (!s.ok()) {
      ReleaseSnapshot(*out);  // best-effort unwind of partial pins
      out->server_ids.clear();
      return s;
    }
    out->server_ids.emplace_back(resolved_endpoints_[shard],
                                 resp.snapshot_id);
    // Adopt the pinned sequence for every shard this server serves.
    for (uint32_t other = 0; other < conns_.size(); other++) {
      if (resolved_endpoints_[other] == resolved_endpoints_[shard] &&
          other < resp.shard_seqs.size()) {
        out->shard_seqs[other] = resp.shard_seqs[other];
      }
    }
  }
  return Status::OK();
}

Status ShardedClient::ReleaseSnapshot(const ShardedSnapshot& snap) {
  Status s = RequireConnected();
  if (!s.ok()) return s;
  Status first_error;
  for (const auto& [endpoint, id] : snap.server_ids) {
    // Any connection resolved to that server can carry the release.
    Client* conn = nullptr;
    for (uint32_t shard = 0; shard < conns_.size(); shard++) {
      if (resolved_endpoints_[shard] == endpoint) {
        conn = conns_[shard].get();
        break;
      }
    }
    if (conn == nullptr) {
      if (first_error.ok()) {
        first_error = Status::NotFound("snapshot endpoint unroutable",
                                       endpoint);
      }
      continue;
    }
    Status st = conn->ReleaseSnapshot(id);
    if (!st.ok() && first_error.ok()) first_error = st;
  }
  return first_error;
}

Status ShardedClient::GetAt(const Slice& key, const ShardedSnapshot& snap,
                            std::string* value) {
  Status s = RequireConnected();
  if (!s.ok()) return s;
  const uint32_t shard = router_.ShardOf(key);
  uint64_t id = 0;
  if (!SnapshotIdFor(snap, resolved_endpoints_[shard], &id)) {
    // Routing moved since the pin (failover reconnected the shard to a
    // server that holds no pin for this snapshot); the caller re-pins.
    return Status::NotFound("snapshot_unknown",
                            "shard routed away from its pinned server");
  }
  return conns_[shard]->GetAt(key, id, value);
}

Status ShardedClient::ScanAt(
    const Slice& start, uint32_t limit, const ShardedSnapshot& snap,
    std::vector<std::pair<std::string, std::string>>* out) {
  Status s = RequireConnected();
  if (!s.ok()) return s;
  Client* conn = ConnFor(kAllShards);
  if (conn == nullptr) return SplitRouting();
  uint64_t id = 0;
  if (!SnapshotIdFor(snap, resolved_endpoints_[0], &id)) {
    return Status::NotFound("snapshot_unknown",
                            "shard routed away from its pinned server");
  }
  return conn->ScanAt(start, limit, id, out);
}

Status ShardedClient::Stats(std::string* json) {
  Status s = RequireConnected();
  if (!s.ok()) return s;
  return conns_[0]->Stats(json);
}

Status ShardedClient::SlowLog(uint32_t limit, std::string* json) {
  Status s = RequireConnected();
  if (!s.ok()) return s;
  return conns_[0]->SlowLog(limit, json);
}

Status ShardedClient::MetricsProm(std::string* text) {
  Status s = RequireConnected();
  if (!s.ok()) return s;
  return conns_[0]->MetricsProm(text);
}

Status ShardedClient::Ping() {
  Status s = RequireConnected();
  if (!s.ok()) return s;
  for (auto& conn : conns_) {
    Status st = conn->Ping();
    if (!st.ok()) return st;
  }
  return Status::OK();
}

}  // namespace net
}  // namespace cachekv
