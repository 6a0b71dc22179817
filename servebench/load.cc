#include "load.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "net/client.h"

namespace servebench {

using cachekv::Status;
using cachekv::net::Client;
using cachekv::net::ShardedClient;

namespace {

constexpr uint64_t kPreloadFlight = 256;

/// Sends every queued request on every shard connection, then collects
/// all responses: the shards of one flight are served concurrently.
bool FlushAndWait(ShardedClient* client,
                  std::vector<std::vector<Client::Result>>* results) {
  bool ok = true;
  for (uint32_t s = 0; s < client->num_shards(); s++) {
    Client* conn = client->shard_client(s);
    if (conn->outstanding() > 0) ok = conn->Flush().ok() && ok;
  }
  for (uint32_t s = 0; s < client->num_shards(); s++) {
    (*results)[s].clear();
    Client* conn = client->shard_client(s);
    if (conn->outstanding() > 0) ok = conn->WaitAll(&(*results)[s]).ok() && ok;
  }
  return ok;
}

struct Pending {
  uint64_t id;
  Op op;
};

class LoadThread {
 public:
  LoadThread(const LoadSpec& spec, int tid, uint64_t budget,
             LoadResult* out)
      : spec_(spec),
        budget_(budget),
        out_(out),
        client_(Options(spec, tid)),
        stream_(*spec.workload, spec.seed, spec.stream_base + tid) {}

  Status Connect() { return client_.Connect("127.0.0.1", spec_.port); }

  void Run(const std::atomic<bool>& stop) {
    const uint32_t shards = client_.num_shards();
    std::vector<std::vector<Pending>> pending(shards);
    std::vector<std::vector<Client::Result>> results(shards);
    std::string value;
    uint64_t done = 0;
    while (!stop.load(std::memory_order_relaxed) &&
           (budget_ == 0 || done < budget_)) {
      const uint64_t depth =
          budget_ == 0 ? kPipeline
                       : std::min<uint64_t>(kPipeline, budget_ - done);
      for (auto& p : pending) p.clear();
      for (uint64_t i = 0; i < depth; i++) {
        const Op op = stream_.Next();
        const std::string key = KeyOf(op.index);
        const uint32_t shard = client_.ShardOf(key);
        Client* conn = client_.shard_client(shard);
        uint64_t id;
        if (op.get) {
          id = conn->SubmitGet(key);
        } else {
          spec_.values->Fill(op.index, &value);
          id = conn->SubmitPut(key, value);
        }
        pending[shard].push_back({id, op});
      }
      const uint64_t t0 = NowNs();
      const bool transport_ok = FlushAndWait(&client_, &results);
      const uint64_t t1 = NowNs();
      done += depth;
      out_->attempted += depth;
      if (!transport_ok) {
        Fail(depth, "transport failure");
        // A failed connection is closed; rebuild every shard connection.
        // If that fails too, an op budget's remainder fails with it.
        if (!Connect().ok()) {
          out_->attempted += budget_ - std::min(budget_, done);
          Fail(budget_ - std::min(budget_, done), "reconnect failed");
          return;
        }
        continue;
      }
      const uint64_t ok_before = out_->ok;
      for (uint32_t s = 0; s < shards; s++) {
        if (results[s].size() != pending[s].size()) {
          Fail(pending[s].size(), "response count mismatch");
          continue;
        }
        for (size_t j = 0; j < results[s].size(); j++) {
          Check(pending[s][j], results[s][j]);
        }
      }
      out_->flights.push_back({t1, t1 - t0, out_->ok - ok_before});
    }
  }

 private:
  static cachekv::net::ClientOptions Options(const LoadSpec& spec, int tid) {
    cachekv::net::ClientOptions o;
    o.trace_sample_every = spec.trace_sample;
    o.trace_seed = spec.seed * 0x9e3779b97f4a7c15ULL + spec.stream_base +
                   static_cast<uint64_t>(tid) + 1;
    return o;
  }

  void Fail(uint64_t n, const std::string& why) {
    out_->failed += n;
    if (out_->first_error.empty()) out_->first_error = why;
  }

  void Check(const Pending& p, const Client::Result& r) {
    if (r.id != p.id) {
      Fail(1, "response out of order");
      return;
    }
    if (r.traced && r.server_ns > 0) {
      (p.op.get ? out_->traced_get_ns : out_->traced_put_ns)
          .push_back(r.client_ns);
      if (r.client_ns > r.server_ns) {
        out_->queue_ns.push_back(r.client_ns - r.server_ns);
      }
    }
    if (!p.op.get) {
      out_->puts++;
      if (r.status.ok()) {
        out_->ok++;
      } else {
        Fail(1, "PUT " + KeyOf(p.op.index) + ": " + r.status.ToString());
      }
      return;
    }
    out_->gets++;
    if (r.status.ok() && spec_.values->Matches(p.op.index, r.value)) {
      out_->ok++;
    } else if (r.status.ok() || r.status.IsNotFound()) {
      // Every key was preloaded and no op deletes: both are wrong.
      out_->wrong++;
      Fail(1, "GET " + KeyOf(p.op.index) + ": wrong payload or NotFound");
    } else {
      Fail(1, "GET " + KeyOf(p.op.index) + ": " + r.status.ToString());
    }
  }

  const LoadSpec& spec_;
  const uint64_t budget_;
  LoadResult* out_;
  ShardedClient client_;
  OpStream stream_;
};

}  // namespace

void LoadResult::Merge(LoadResult&& o) {
  attempted += o.attempted;
  ok += o.ok;
  gets += o.gets;
  puts += o.puts;
  failed += o.failed;
  wrong += o.wrong;
  if (first_error.empty()) first_error = std::move(o.first_error);
  auto append = [](auto* to, auto* from) {
    to->insert(to->end(), from->begin(), from->end());
  };
  append(&flights, &o.flights);
  append(&traced_get_ns, &o.traced_get_ns);
  append(&traced_put_ns, &o.traced_put_ns);
  append(&queue_ns, &o.queue_ns);
}

LoadResult RunLoad(const LoadSpec& spec) {
  std::vector<LoadResult> per(kConnections);
  std::vector<std::unique_ptr<LoadThread>> load;
  LoadResult total;
  for (int t = 0; t < kConnections; t++) {
    uint64_t budget = spec.op_budget / kConnections;
    if (t == 0) budget += spec.op_budget % kConnections;
    load.push_back(std::make_unique<LoadThread>(spec, t, budget, &per[t]));
    Status s = load.back()->Connect();
    if (!s.ok()) {
      total.attempted = total.failed = 1;
      total.first_error = "connect: " + s.ToString();
      return total;
    }
  }
  std::atomic<bool> stop{false};
  std::atomic<int> running{kConnections};
  std::vector<std::thread> threads;
  total.start_ns = NowNs();
  for (int t = 0; t < kConnections; t++) {
    threads.emplace_back([&, t] {
      load[t]->Run(stop);
      running.fetch_sub(1);
    });
  }
  if (spec.seconds > 0) {
    const uint64_t deadline =
        total.start_ns + static_cast<uint64_t>(spec.seconds * 1e9);
    while (running.load() > 0 && NowNs() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop.store(true);
  }
  for (auto& th : threads) th.join();
  total.seconds = static_cast<double>(NowNs() - total.start_ns) / 1e9;
  for (LoadResult& r : per) total.Merge(std::move(r));
  return total;
}

Status Preload(const Workload& w, const ValueBook& values, uint16_t port) {
  std::vector<Status> status(kConnections);
  std::vector<std::thread> threads;
  for (int t = 0; t < kConnections; t++) {
    threads.emplace_back([&, t] {
      ShardedClient client;
      Status s = client.Connect("127.0.0.1", port);
      std::vector<std::vector<Client::Result>> results(client.num_shards());
      std::string value;
      uint64_t queued = 0;
      for (uint64_t i = t; s.ok() && i < w.key_space; i += kConnections) {
        const std::string key = KeyOf(i);
        values.Fill(i, &value);
        client.shard_client(client.ShardOf(key))->SubmitPut(key, value);
        if (++queued % kPreloadFlight != 0 && i + kConnections < w.key_space) {
          continue;
        }
        if (!FlushAndWait(&client, &results)) {
          s = Status::IOError("preload transport failure");
        }
        for (const auto& shard_results : results) {
          for (const Client::Result& r : shard_results) {
            if (s.ok() && !r.status.ok()) s = r.status;
          }
        }
      }
      status[t] = s;
    });
  }
  for (auto& th : threads) th.join();
  for (const Status& s : status) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Percentile(std::vector<uint64_t>* v, double p) {
  if (v->empty()) return 0;
  const size_t n = v->size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, n) - 1;
  std::nth_element(v->begin(), v->begin() + rank, v->end());
  return static_cast<double>((*v)[rank]);
}

}  // namespace servebench
