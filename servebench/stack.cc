#include "stack.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>

namespace servebench {

using cachekv::CacheKVOptions;
using cachekv::DB;
using cachekv::EnvOptions;
using cachekv::PmemEnv;
using cachekv::Status;

namespace {

constexpr uint64_t kPmemBytesPerShard = 1ull << 30;
/// Without value-log GC the log keeps every PUT. A run of kvsep-16k
/// appends about 0.5 GiB per shard at the seed's throughput, so this
/// leaves room for a store several times faster. The media mapping is
/// committed only where written.
constexpr uint64_t kPmemBytesPerShardNoGc = 4ull << 30;
constexpr uint64_t kPoolBytesPerShard = 12ull << 20;
constexpr int kFollowerSubscribeTimeoutMs = 10'000;

/// Finds a free loopback port for the follower: the primary's hub must
/// name its follower's endpoint before the follower's server exists.
/// Ports are probed below Linux's ephemeral range (32768 up), so no
/// outgoing connection can take the port before the follower binds it.
Status ReservePort(uint16_t* port) {
  constexpr uint16_t kFirst = 20000, kCount = 12000;
  const uint16_t start = static_cast<uint16_t>(
      (static_cast<uint64_t>(::getpid()) * 7919 +
       std::chrono::steady_clock::now().time_since_epoch().count()) %
      kCount);
  for (uint16_t i = 0; i < 200; i++) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Status::IOError("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(kFirst + (start + i) % kCount);
    const bool ok =
        ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    ::close(fd);
    if (ok) {
      *port = ntohs(addr.sin_port);
      return Status::OK();
    }
  }
  return Status::IOError("no free port for the follower");
}

std::string Endpoint(uint16_t port) {
  return "127.0.0.1:" + std::to_string(port);
}

cachekv::net::ServerOptions ServerOptionsFor(uint16_t port,
                                             cachekv::repl::ReplHub* hub) {
  cachekv::net::ServerOptions o;
  o.port = port;
  o.num_workers = kServerWorkers;
  o.hot_key_cache_bytes = kHotKeyCacheBytes;
  o.hot_key_cache_admit = kHotKeyCacheAdmit;
  o.repl = hub;
  return o;
}

void AddEnvTotals(PmemEnv* env, Scrape* out) {
  const cachekv::PmemCounters& c = env->device()->counters();
  (*out)["env.injected_ns"] +=
      static_cast<double>(env->latency()->total_injected_ns());
  (*out)["env.lines_received"] += static_cast<double>(c.lines_received);
  (*out)["env.bytes_received"] += static_cast<double>(c.bytes_received);
  (*out)["env.xpbuffer_hits"] += static_cast<double>(c.xpbuffer_hits);
  (*out)["env.media_bytes_written"] +=
      static_cast<double>(c.media_bytes_written);
  (*out)["env.rmw_count"] += static_cast<double>(c.rmw_count);
}

}  // namespace

Scrape Delta(const Scrape& after, const Scrape& before) {
  Scrape d = after;
  for (const auto& [name, value] : before) d[name] -= value;
  return d;
}

double Get(const Scrape& s, const std::string& name) {
  auto it = s.find(name);
  return it == s.end() ? 0 : it->second;
}

Status ServingStack::OpenReplica(const Workload& w, Replica* out) {
  EnvOptions env_opts;
  env_opts.pmem_capacity =
      w.no_vlog_gc ? kPmemBytesPerShardNoGc : kPmemBytesPerShard;
  env_opts.cat_locked_bytes = kPoolBytesPerShard;
  env_opts.latency.scale = 1.0;
  CacheKVOptions db_opts;
  db_opts.pool_bytes = kPoolBytesPerShard;
  db_opts.num_cores = 8;
  if (w.sub_memtable_kb > 0) {
    db_opts.sub_memtable_bytes = w.sub_memtable_kb << 10;
    db_opts.min_sub_memtable_bytes =
        std::min(db_opts.min_sub_memtable_bytes, db_opts.sub_memtable_bytes);
  }
  if (w.zone_flush_kb > 0) {
    db_opts.imm_zone_flush_threshold = w.zone_flush_kb << 10;
  }
  // A dead share no segment can reach: GC never picks a victim.
  if (w.no_vlog_gc) db_opts.vlog_gc_dead_ratio = 2.0;
  for (int s = 0; s < kShards; s++) {
    out->envs.push_back(std::make_unique<PmemEnv>(env_opts));
    std::unique_ptr<DB> db;
    Status st = DB::Open(out->envs.back().get(), db_opts, false, &db);
    if (!st.ok()) return st;
    out->db_ptrs.push_back(db.get());
    out->dbs.push_back(std::move(db));
  }
  return Status::OK();
}

Status ServingStack::Open(const Workload& w,
                          std::unique_ptr<ServingStack>* out) {
  std::unique_ptr<ServingStack> stack(new ServingStack());
  cachekv::net::ShardMap map;
  map.num_shards = kShards;
  Status s = cachekv::net::ShardRouter::Build(map, &stack->router_);
  if (s.ok()) s = OpenReplica(w, &stack->primary_);
  if (!s.ok()) return s;

  uint16_t follower_port = 0;
  if (w.follower) {
    s = ReservePort(&follower_port);
    if (!s.ok()) return s;
    cachekv::repl::ReplOptions ropts;
    ropts.ack = cachekv::repl::AckPolicy::kQuorum;
    ropts.replicas = {Endpoint(follower_port)};
    stack->hub_ = std::make_unique<cachekv::repl::ReplHub>(
        ropts, stack->primary_.db_ptrs);
    stack->hub_->AttachCommitHooks();
  }
  stack->server_ = std::make_unique<cachekv::net::Server>(
      stack->primary_.db_ptrs, stack->router_,
      ServerOptionsFor(0, stack->hub_.get()));
  s = stack->server_->Start();
  if (!s.ok()) return s;
  if (stack->hub_ == nullptr) {
    *out = std::move(stack);
    return Status::OK();
  }
  stack->hub_->SetSelfEndpoint(Endpoint(stack->server_->port()));
  stack->hub_->Start();

  s = OpenReplica(w, &stack->follower_);
  if (!s.ok()) return s;
  cachekv::repl::ReplOptions fopts;
  fopts.primary_endpoint = Endpoint(stack->server_->port());
  stack->follower_hub_ = std::make_unique<cachekv::repl::ReplHub>(
      fopts, stack->follower_.db_ptrs);
  stack->follower_hub_->AttachCommitHooks();
  stack->follower_server_ = std::make_unique<cachekv::net::Server>(
      stack->follower_.db_ptrs, stack->router_,
      ServerOptionsFor(follower_port, stack->follower_hub_.get()));
  s = stack->follower_server_->Start();
  if (!s.ok()) return s;
  stack->follower_hub_->SetSelfEndpoint(Endpoint(follower_port));
  stack->follower_hub_->Start();

  // Writes acked before the follower subscribed would not wait for it.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kFollowerSubscribeTimeoutMs);
  for (DB* db : stack->primary_.db_ptrs) {
    while (db->CounterValue("repl.subscribes") == 0) {
      if (std::chrono::steady_clock::now() > deadline) {
        return Status::IOError("follower did not subscribe");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  *out = std::move(stack);
  return Status::OK();
}

ServingStack::~ServingStack() {
  if (follower_hub_ != nullptr) follower_hub_->Stop();
  if (follower_server_ != nullptr) follower_server_->Stop();
  if (server_ != nullptr) server_->Stop();
  if (hub_ != nullptr) hub_->Stop();
  WaitIdle();
  // The hubs go before the DBs; nothing may call into them after this.
  for (Replica* r : {&primary_, &follower_}) {
    for (DB* db : r->db_ptrs) db->SetCommitHook(nullptr);
  }
}

Status ServingStack::WaitIdle() {
  Status first;
  for (Replica* r : {&primary_, &follower_}) {
    for (DB* db : r->db_ptrs) {
      Status s = db->WaitIdle();
      if (first.ok()) first = s;
    }
  }
  return first;
}

Status ServingStack::CheckHealth() {
  for (Replica* r : {&primary_, &follower_}) {
    for (size_t i = 0; i < r->db_ptrs.size(); i++) {
      DB* db = r->db_ptrs[i];
      if (!db->IsReadOnly() && db->CounterValue("bg.hard_errors") == 0) {
        continue;
      }
      const std::string shard = (r == &primary_ ? "primary shard "
                                                : "follower shard ") +
                                std::to_string(i);
      return Status::Corruption(
          shard + ": read_only=" + std::to_string(db->IsReadOnly()) +
              " bg.hard_errors=" +
              std::to_string(db->CounterValue("bg.hard_errors")),
          db->BackgroundError().ToString());
    }
  }
  return Status::OK();
}

Scrape ServingStack::ScrapeReplica(Replica* r) {
  Scrape out;
  for (DB* db : r->db_ptrs) {
    const cachekv::obs::MetricsSnapshot snap = db->GetMetricsSnapshot();
    for (const auto& [name, v] : snap.metrics) {
      switch (v.kind) {
        case cachekv::obs::MetricKind::kCounter:
          out[name] += static_cast<double>(v.counter);
          break;
        case cachekv::obs::MetricKind::kGauge:
          out[name] += v.gauge;
          break;
        case cachekv::obs::MetricKind::kHistogram:
          out[name + ".sum"] += v.histogram.sum();
          out[name + ".count"] += static_cast<double>(v.histogram.count());
          break;
      }
    }
  }
  for (const auto& env : r->envs) AddEnvTotals(env.get(), &out);
  return out;
}

Scrape ServingStack::ScrapePrimaries() { return ScrapeReplica(&primary_); }

Scrape ServingStack::ScrapeFollowers() { return ScrapeReplica(&follower_); }

uint64_t ServingStack::MediaResidentBytes() const {
  const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> resident;
  uint64_t total = 0;
  for (const Replica* r : {&primary_, &follower_}) {
    for (const auto& env : r->envs) {
      const cachekv::PmemDevice* device = env->device();
      resident.resize((device->capacity() + page - 1) / page);
      // The media is one private anonymous mapping (PmemDevice), so it
      // is page aligned.
      if (::mincore(const_cast<char*>(device->raw_media()),
                    device->capacity(), resident.data()) != 0) {
        continue;
      }
      for (unsigned char pg : resident) total += (pg & 1) * page;
    }
  }
  return total;
}

uint64_t ServingStack::AllocatedBytes() const {
  uint64_t total = 0;
  for (const Replica* r : {&primary_, &follower_}) {
    for (const auto& env : r->envs) {
      total += env->allocator()->AllocatedBytes();
    }
  }
  return total;
}

}  // namespace servebench
