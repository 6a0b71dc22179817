#include "probe.h"

#include <memory>
#include <thread>
#include <vector>

#include "cache/hot_key_cache.h"
#include "load.h"
#include "net/protocol.h"
#include "obs/metrics.h"

namespace servebench {

using cachekv::DB;
using cachekv::Slice;
using cachekv::Status;

namespace {

constexpr int kProbeThreads = 2;
// Op-stream ids of the probe threads, apart from the load's streams.
constexpr uint64_t kProbeStreamBase = 1000;

/// Per-call timings of one probe section, merged over its threads.
struct Timings {
  std::map<std::string, std::vector<uint64_t>> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  std::string first_error;

  void Fail(const std::string& why, bool wrong_output = false) {
    failed++;
    if (wrong_output) wrong++;
    if (first_error.empty()) first_error = why;
  }
  double Sum(const std::string& name) const {
    auto it = samples.find(name);
    double sum = 0;
    if (it != samples.end()) {
      for (uint64_t v : it->second) sum += static_cast<double>(v);
    }
    return sum;
  }
  double Mean(const std::string& name) {
    return samples[name].empty() ? 0 : Sum(name) / samples[name].size();
  }
  double Pct(const std::string& name, double p) {
    return Percentile(&samples[name], p);
  }
};

/// Runs body(op, &timings) over the op stream on kProbeThreads threads,
/// each with its own stream, until `deadline_ns`; merges the timings.
/// Each section gets fresh threads, so a body's thread_local state
/// lives for one section.
template <typename Body>
Timings OnProbeThreads(const Workload& w, uint64_t seed, uint64_t deadline_ns,
                       Body body) {
  std::vector<Timings> per(kProbeThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kProbeThreads; t++) {
    threads.emplace_back([&, t] {
      OpStream stream(w, seed, kProbeStreamBase + t);
      while (NowNs() < deadline_ns) {
        per[t].attempted++;
        body(stream.Next(), &per[t]);
      }
    });
  }
  for (auto& th : threads) th.join();
  Timings total;
  for (Timings& p : per) {
    total.attempted += p.attempted;
    total.failed += p.failed;
    total.wrong += p.wrong;
    if (total.first_error.empty()) total.first_error = p.first_error;
    for (auto& [name, v] : p.samples) {
      auto& to = total.samples[name];
      to.insert(to.end(), v.begin(), v.end());
    }
  }
  return total;
}

void Absorb(const Timings& t, ProbeResult* out) {
  out->attempted += t.attempted;
  out->failed += t.failed;
  out->wrong += t.wrong;
  if (out->first_error.empty()) out->first_error = t.first_error;
}

}  // namespace

ProbeResult RunProbe(ServingStack* stack, const Workload& w,
                     const ValueBook& values, uint64_t seed, double seconds,
                     size_t batch_ops) {
  ProbeResult out;
  const uint64_t budget_ns = static_cast<uint64_t>(seconds * 1e9);
  auto deadline = [budget_ns](double share) {
    return NowNs() + static_cast<uint64_t>(share * budget_ns);
  };

  // net: request decode (FrameDecoder + payload parse) and routing.
  Timings net = OnProbeThreads(
      w, seed, deadline(0.1), [&](const Op& op, Timings* t) {
        thread_local cachekv::net::FrameDecoder decoder;
        thread_local std::string frame, value;
        frame.clear();
        const std::string key = KeyOf(op.index);
        if (op.get) {
          cachekv::net::EncodeGetRequest(&frame, 1, key);
        } else {
          values.Fill(op.index, &value);
          cachekv::net::EncodePutRequest(&frame, 1, key, value);
        }
        cachekv::net::Frame f;
        const uint64_t t0 = NowNs();
        decoder.Feed(frame);
        bool ok =
            decoder.Next(&f) == cachekv::net::FrameDecoder::Result::kFrame;
        if (ok && op.get) {
          cachekv::net::GetRequest req;
          ok = cachekv::net::ParseGetRequest(f.payload, &req).ok();
        } else if (ok) {
          cachekv::net::PutRequest req;
          ok = cachekv::net::ParsePutRequest(f.payload, &req).ok();
        }
        const uint64_t t1 = NowNs();
        const uint32_t shard = stack->router().ShardOf(key);
        const uint64_t t2 = NowNs();
        t->samples["decode"].push_back(t1 - t0);
        t->samples["route"].push_back(t2 - t1);
        if (!ok || shard >= kShards) t->Fail("decode or route failed");
      });
  out.metrics["net.decode_ns"] = net.Mean("decode");
  out.metrics["net.route_ns"] = net.Mean("route");
  Absorb(net, &out);

  // cache: one HotKeyCache per shard, configured as the server's.
  cachekv::obs::MetricsRegistry cache_registry;
  std::vector<std::unique_ptr<cachekv::cache::HotKeyCache>> caches;
  for (int s = 0; s < kShards; s++) {
    cachekv::cache::HotKeyCacheOptions o;
    o.capacity_bytes = kHotKeyCacheBytes;
    o.admit_threshold = kHotKeyCacheAdmit;
    caches.push_back(
        std::make_unique<cachekv::cache::HotKeyCache>(o, &cache_registry));
  }
  Timings cache = OnProbeThreads(
      w, seed, deadline(0.2), [&](const Op& op, Timings* t) {
        thread_local std::string value;
        const std::string key = KeyOf(op.index);
        cachekv::cache::HotKeyCache* c =
            caches[stack->router().ShardOf(key)].get();
        if (!op.get) {
          const uint64_t t0 = NowNs();
          c->Invalidate(key);
          t->samples["invalidate"].push_back(NowNs() - t0);
          return;
        }
        cachekv::cache::HotKeyCache::FillToken token;
        uint64_t t0 = NowNs();
        const bool hit = c->Lookup(key, &value, &token);
        t->samples["lookup"].push_back(NowNs() - t0);
        if (hit) {
          if (!values.Matches(op.index, value)) {
            t->Fail("cache served a wrong payload", true);
          }
          return;
        }
        values.Fill(op.index, &value);
        t0 = NowNs();
        c->Insert(key, value, token);
        t->samples["insert"].push_back(NowNs() - t0);
      });
  out.metrics["cache.lookup_ns"] = cache.Mean("lookup");
  out.metrics["cache.insert_ns"] = cache.Mean("insert");
  out.metrics["cache.invalidate_ns"] = cache.Mean("invalidate");
  Absorb(cache, &out);

  // core + repl: DB::Get, DB::ApplyBatch at the server's write-run size,
  // then the replication ack wait for that commit.
  const std::vector<DB*>& dbs = stack->primaries();
  cachekv::repl::ReplHub* hub = stack->hub();
  if (batch_ops < 1) batch_ops = 1;
  const double injected_before =
      Get(stack->ScrapePrimaries(), "env.injected_ns");
  Timings store = OnProbeThreads(
      w, seed, deadline(0.7), [&](const Op& op, Timings* t) {
        thread_local std::vector<std::vector<DB::BatchOp>> batches(kShards);
        thread_local std::string value;
        const std::string key = KeyOf(op.index);
        const uint32_t shard = stack->router().ShardOf(key);
        if (op.get) {
          const uint64_t t0 = NowNs();
          Status s = dbs[shard]->Get(key, &value);
          t->samples["get"].push_back(NowNs() - t0);
          if (s.ok() && values.Matches(op.index, value)) return;
          if (s.ok() || s.IsNotFound()) {
            t->Fail("DB::Get " + key + ": wrong payload or NotFound", true);
          } else {
            t->Fail("DB::Get " + key + ": " + s.ToString());
          }
          return;
        }
        std::vector<DB::BatchOp>& batch = batches[shard];
        batch.push_back(DB::BatchOp{});
        batch.back().key = key;
        values.Fill(op.index, &batch.back().value);
        if (batch.size() < batch_ops) return;
        const uint64_t t0 = NowNs();
        Status s = dbs[shard]->ApplyBatch(batch);
        const uint64_t t1 = NowNs();
        t->samples["put"].push_back(t1 - t0);
        if (s.ok() && hub != nullptr) {
          s = hub->WaitCommitAcked(shard);
          t->samples["ack_wait"].push_back(NowNs() - t1);
        }
        if (!s.ok()) t->Fail("DB::ApplyBatch: " + s.ToString());
        batch.clear();
      });
  const double injected =
      Get(stack->ScrapePrimaries(), "env.injected_ns") - injected_before;
  out.metrics["core.get_ns_p50"] = store.Pct("get", 50);
  out.metrics["core.get_ns_p99"] = store.Pct("get", 99);
  out.metrics["core.put_ns_p50"] = store.Pct("put", 50);
  out.metrics["core.put_ns_p99"] = store.Pct("put", 99);
  out.metrics["repl.ack_wait_us_p50"] = store.Pct("ack_wait", 50) / 1e3;
  out.metrics["repl.ack_wait_us_p99"] = store.Pct("ack_wait", 99) / 1e3;
  const double db_ns = store.Sum("get") + store.Sum("put");
  out.metrics["device.share"] = db_ns > 0 ? injected / db_ns : 0;
  Absorb(store, &out);
  return out;
}

}  // namespace servebench
