// netbench — closed-loop load generator for cachekv_server, the
// network-layer counterpart of the fig* harnesses. Drives N client
// connections (each its own thread + TCP connection) with a mixed
// read/write workload at a configurable pipeline depth, then emits
// BENCH_netbench.json (throughput + latency percentiles per op class)
// in the standard report schema, so tools/bench_diff.py can track
// server performance across commits.
//
//   # against an already-running server:
//   $ ./build/tools/cachekv_server --port 7070 &
//   $ ./build/bench/netbench --connect 127.0.0.1:7070 --ops 100000
//
//   # self-contained (spawns an in-process server on an ephemeral port):
//   $ ./build/bench/netbench
//
//   # sharded: 4 in-process shards, client-side routing, per-shard
//   # throughput rows (net-shard-0..3) in the report:
//   $ ./build/bench/netbench --shards 4
//
// Every thread uses a ShardedClient: each op is routed to its owning
// shard's connection (the server's ring; one connection against an
// unsharded server) and the whole flight is awaited together. Reads
// are verified against the deterministic ValueFor() payloads; a
// mismatched value, transport failure, or unexpected error status all
// count into "errors" (the CI smoke asserts the count stays zero).
//
// Chaos mode (docs/REPLICATION.md): --kill-pid P --kill-at-ms T sends
// SIGKILL to the server process P at T ms into the load phase while
// write threads keep going through the ShardedClient failover path.
// Every acked write's key is remembered (threads own disjoint key
// stripes with deterministic values); with --verify the run ends with
// a read-back of every acked key through a fresh client seeded with
// --fallback (the surviving follower), and exits non-zero if any acked
// write is lost — the replicated-durability win condition.
//
//   $ ./build/bench/netbench --connect 127.0.0.1:7070
//       --fallback 127.0.0.1:7071 --kill-pid $PRIMARY_PID
//       --kill-at-ms 500 --verify --ops 4000   (one command line)

#include <csignal>
#include <sys/types.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/db.h"
#include "harness.h"
#include "net/client.h"
#include "obs/trace.h"
#include "net/server.h"
#include "net/shard_router.h"
#include "pmem/pmem_env.h"
#include "report.h"
#include "util/histogram.h"
#include "util/random.h"
#include "workload.h"

using namespace cachekv;
using namespace cachekv::bench;

namespace {

struct Config {
  std::string connect_host;  // empty => spawn in-process server
  uint16_t connect_port = 0;
  int connections = 4;
  uint64_t total_ops = 0;  // 0 => BenchOps(100'000)
  int read_pct = 50;
  int pipeline = 8;
  size_t key_size = 16;
  size_t value_size = 100;
  /// Value-size distribution: "fixed" (every value exactly --value-size
  /// bytes) or "uniform" (deterministic per key in [1, --value-size]).
  /// Part of the run identity — a 16 KiB sweep only compares against
  /// other 16 KiB runs in bench_diff.
  std::string value_dist = "fixed";
  uint64_t key_space = 20'000;
  bool preload = true;
  double latency_scale = 1.0;
  int workers = 2;
  /// Shards of the self-contained in-process server. Connect mode
  /// ignores it: the real shard count comes from the fetched ring.
  int shards = 1;
  uint64_t seed = 42;
  /// Key distribution: uniform | zipfian | hotspot | latest, or one of
  /// the YCSB core mixes via --ycsb (which overrides dist + read_pct).
  std::string dist = "uniform";
  double theta = 0.99;
  double hot_keys = 0.1;  // --hot-keys: hot fraction of the keyspace
  double hot_ops = 0.9;   // --hot-ops: op fraction aimed at the hot set
  std::string ycsb;       // "", or A|B|C|D
  /// In-process server's per-shard hot-key cache (0 disables).
  uint64_t cache_mb = 8;
  uint32_t cache_admit = 2;
  /// In-process store tuning (0 keeps the CacheKVOptions default).
  /// Small sub-MemTables + small vlog segments make seal → flush →
  /// compaction → vlog GC observable within a short smoke run.
  uint64_t sub_memtable_kb = 0;
  uint64_t zone_flush_kb = 0;
  uint64_t vlog_segment_kb = 0;
  double vlog_gc_ratio = 0;
  /// Separation threshold override in bytes; -1 keeps the default,
  /// 0 disables separation (the inline baseline for write-amp sweeps).
  int64_t sep_threshold = -1;
  /// Trace sampling (docs/OBSERVABILITY.md): every Nth request per
  /// connection goes out as a traced frame; 0 disables. Sampled results
  /// carry both the client-observed and the server-reported latency,
  /// which feeds the queueing_us report section.
  uint32_t trace_sample = 0;
  /// Chrome-trace dump of the client-side spans (--trace-out), and of
  /// the in-process server's tracer (--trace-server-out; merged views
  /// come from tools/trace_merge.py).
  std::string trace_out;
  std::string trace_server_out;
  /// Client-span tracer, owned by main() (null when not sampling).
  obs::Tracer* tracer = nullptr;
  /// Chaos mode (docs/REPLICATION.md): SIGKILL this pid this long into
  /// the load phase; --verify reads every acked key back through
  /// --fallback afterwards and fails the run on any loss.
  pid_t kill_pid = 0;
  int kill_at_ms = 500;
  std::string fallback;
  bool verify = false;
  /// Snapshot-consistency mode (docs/SNAPSHOTS.md): pin one snapshot,
  /// scan at it under concurrent overwrites, fail on any leak.
  bool snapshot_scan = false;
  /// Resolved from the fields above after flag parsing.
  WorkloadSpec spec;
};

struct ThreadStats {
  uint64_t gets = 0;
  uint64_t puts = 0;
  uint64_t found = 0;
  uint64_t not_found = 0;
  uint64_t errors = 0;
  uint64_t traced = 0;  // responses that came back with trace context
  std::vector<uint64_t> shard_ops;  // ops routed per shard
  Histogram get_ns;
  Histogram put_ns;
  /// Per-sampled-request client_ns - server_ns: network + queue time.
  Histogram queue_ns;
  double seconds = 0;
};

/// Per-key value size. "fixed" returns --value-size exactly; "uniform"
/// hashes the key index into [1, --value-size], so a read-back can
/// recompute the expected payload from the key index alone.
size_t ValueSizeFor(const Config& cfg, uint64_t key_index) {
  if (cfg.value_dist != "uniform") return cfg.value_size;
  uint64_t h = (key_index + 1) * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 29;
  return 1 + static_cast<size_t>(h % cfg.value_size);
}

std::string BenchValue(const Config& cfg, uint64_t key_index) {
  return ValueFor(key_index, ValueSizeFor(cfg, key_index));
}

/// Client options for one bench connection: thread-distinct trace seeds
/// keep sampled ids unique across connections while staying
/// reproducible for a fixed --seed.
net::ClientOptions BenchClientOptions(const Config& cfg, int tid) {
  net::ClientOptions opts;
  opts.trace_sample_every = cfg.trace_sample;
  opts.trace_seed =
      cfg.seed + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(tid + 1);
  opts.tracer = cfg.tracer;
  return opts;
}

/// Folds one pipelined result's trace context into the stats.
void RecordTraced(const net::Client::Result& r, ThreadStats* stats) {
  if (!r.traced) return;
  stats->traced++;
  if (r.server_ns > 0 && r.client_ns > r.server_ns) {
    stats->queue_ns.Add(static_cast<double>(r.client_ns - r.server_ns));
  }
}

bool SplitHostPort(const std::string& arg, std::string* host,
                   uint16_t* port) {
  const size_t colon = arg.rfind(':');
  if (colon == std::string::npos || colon + 1 >= arg.size()) {
    return false;
  }
  *host = arg.substr(0, colon);
  *port = static_cast<uint16_t>(std::atoi(arg.c_str() + colon + 1));
  return *port != 0;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Collects every outstanding pipelined response on every shard
/// connection; false on any transport or per-request failure.
bool DrainAllShards(net::ShardedClient* client) {
  for (uint32_t s = 0; s < client->num_shards(); s++) {
    net::Client* conn = client->shard_client(s);
    if (conn->outstanding() == 0) continue;
    std::vector<net::Client::Result> results;
    if (!conn->WaitAll(&results).ok()) return false;
    for (const auto& r : results) {
      if (!r.status.ok()) return false;
    }
  }
  return true;
}

/// Preloads this thread's stripe of the keyspace: each put pipelines on
/// its owning shard's connection.
bool PreloadStripe(net::ShardedClient* client, const Config& cfg, int tid) {
  uint64_t submitted = 0;
  for (uint64_t i = tid; i < cfg.key_space;
       i += static_cast<uint64_t>(cfg.connections)) {
    const std::string key = KeyFor(i, cfg.key_size);
    client->shard_client(client->ShardOf(key))
        ->SubmitPut(key, BenchValue(cfg, i));
    if (++submitted % 256 == 0 && !DrainAllShards(client)) {
      return false;
    }
  }
  return DrainAllShards(client);
}

/// One load thread: routes each op in the flight to its owning shard's
/// connection, flushes all of them, then awaits every shard. Every
/// request in the flight observes (approximately) the flight's
/// round-trip time, which is the service latency a closed-loop client
/// at this depth experiences.
void RunThread(const Config& cfg, int tid, uint64_t ops,
               ThreadStats* stats) {
  net::ShardedClient client(BenchClientOptions(cfg, tid));
  if (!client.Connect(cfg.connect_host, cfg.connect_port).ok()) {
    stats->errors += ops;
    return;
  }
  const uint32_t num_shards = client.num_shards();
  stats->shard_ops.assign(num_shards, 0);
  OpGenerator gen(cfg.spec, tid, cfg.connections, cfg.seed);

  struct FlightOp {
    uint64_t key_index;
    bool is_get;
  };

  const auto start = std::chrono::steady_clock::now();
  uint64_t done = 0;
  std::vector<std::unordered_map<uint64_t, FlightOp>> pending(num_shards);
  while (done < ops) {
    const int depth = static_cast<int>(
        std::min<uint64_t>(static_cast<uint64_t>(cfg.pipeline),
                           ops - done));
    for (auto& m : pending) m.clear();
    for (int i = 0; i < depth; i++) {
      const Op wop = gen.Next();
      const uint64_t key_index = wop.key_index;
      const bool is_get = wop.type == OpType::kGet;
      const std::string key = KeyFor(key_index, cfg.key_size);
      const uint32_t shard = client.ShardOf(key);
      net::Client* conn = client.shard_client(shard);
      const uint64_t id =
          is_get ? conn->SubmitGet(key)
                 : conn->SubmitPut(key, BenchValue(cfg, key_index));
      pending[shard].emplace(id, FlightOp{key_index, is_get});
      stats->shard_ops[shard]++;
    }
    const uint64_t t0 = NowNs();
    bool failed = false;
    for (uint32_t s = 0; s < num_shards && !failed; s++) {
      failed = !client.shard_client(s)->Flush().ok();
    }
    std::vector<std::vector<net::Client::Result>> responses(num_shards);
    for (uint32_t s = 0; s < num_shards && !failed; s++) {
      net::Client* conn = client.shard_client(s);
      if (conn->outstanding() == 0 && pending[s].empty()) continue;
      if (!conn->WaitAll(&responses[s]).ok() ||
          responses[s].size() != pending[s].size()) {
        failed = true;
      }
    }
    const double flight_ns = static_cast<double>(NowNs() - t0);
    if (failed) {
      stats->errors += static_cast<uint64_t>(depth);
      done += static_cast<uint64_t>(depth);
      // A failed WaitAll closed that shard's connection; rebuild the
      // whole sharded client (re-fetches the map, reopens every conn).
      if (!client.Connect(cfg.connect_host, cfg.connect_port).ok()) {
        stats->errors += ops - done;
        break;
      }
      continue;
    }
    for (uint32_t s = 0; s < num_shards; s++) {
      for (const auto& r : responses[s]) {
        RecordTraced(r, stats);
        auto it = pending[s].find(r.id);
        if (it == pending[s].end()) {
          stats->errors++;
          continue;
        }
        const FlightOp& op = it->second;
        if (op.is_get) {
          stats->gets++;
          stats->get_ns.Add(flight_ns);
          if (r.status.ok()) {
            if (r.value != BenchValue(cfg, op.key_index)) {
              stats->errors++;  // wrong payload: a correctness failure
            } else {
              stats->found++;
            }
          } else if (r.status.IsNotFound()) {
            stats->not_found++;
          } else {
            stats->errors++;
          }
        } else {
          stats->puts++;
          stats->put_ns.Add(flight_ns);
          if (!r.status.ok()) {
            stats->errors++;
          }
        }
      }
    }
    done += static_cast<uint64_t>(depth);
  }
  stats->seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start)
          .count();
}

JsonValue& AttachRunFields(JsonValue& run, const Config& cfg,
                           uint32_t shards) {
  run.Set("connections",
          JsonValue::Number(static_cast<double>(cfg.connections)));
  run.Set("pipeline",
          JsonValue::Number(static_cast<double>(cfg.pipeline)));
  run.Set("value_size",
          JsonValue::Number(static_cast<double>(cfg.value_size)));
  run.Set("value_dist", JsonValue::Str(cfg.value_dist));
  run.Set("read_pct",
          JsonValue::Number(static_cast<double>(cfg.read_pct)));
  run.Set("shards", JsonValue::Number(static_cast<double>(shards)));
  // Workload identity: these are scalar fields, so bench_diff matches
  // zipfian runs only against zipfian runs, etc.
  run.Set("dist", JsonValue::Str(cfg.dist));
  if (cfg.spec.dist == KeyDist::kZipfian ||
      cfg.spec.dist == KeyDist::kLatest) {
    run.Set("theta", JsonValue::Number(cfg.theta));
  } else if (cfg.spec.dist == KeyDist::kHotSpot) {
    run.Set("hot_keys", JsonValue::Number(cfg.hot_keys));
    run.Set("hot_ops", JsonValue::Number(cfg.hot_ops));
  }
  if (!cfg.ycsb.empty()) {
    run.Set("ycsb", JsonValue::Str(cfg.ycsb));
  }
  return run;
}

/// Reads the server's STATS document (in-process or remote); on
/// failure (server unreachable, payload unparseable) *doc is left null,
/// so every StatSum over it reads 0.
void ScrapeStats(const Config& cfg, JsonValue* doc) {
  net::Client client;
  std::string json;
  if (!client.Connect(cfg.connect_host, cfg.connect_port).ok() ||
      !client.Stats(&json).ok() || !JsonValue::Parse(json, doc).ok()) {
    *doc = JsonValue();
  }
}

/// Sums counter `name` over every shard document of a STATS dump (the
/// dump itself when the server has one shard); a missing counter is 0.
double StatSum(const JsonValue& doc, const char* name) {
  auto num = [name](const JsonValue& reg) {
    const JsonValue* v = reg.Get(name);
    return (v != nullptr && v->is_number()) ? v->number() : 0.0;
  };
  if (doc.Get("shard.0") == nullptr) return num(doc);
  double sum = 0;
  for (size_t i = 0;; i++) {
    const JsonValue* shard = doc.Get("shard." + std::to_string(i));
    if (shard == nullptr || !shard->is_object()) break;
    sum += num(*shard);
  }
  return sum;
}

/// Server-side hot-key cache counters, summed across shards.
struct HotCacheStats {
  explicit HotCacheStats(const JsonValue& stats)
      : hits(StatSum(stats, "cache.hits")),
        misses(StatSum(stats, "cache.misses")),
        admissions(StatSum(stats, "cache.admissions")),
        evictions(StatSum(stats, "cache.evictions")),
        invalidations(StatSum(stats, "cache.invalidations")) {}

  double hits;
  double misses;
  double admissions;
  double evictions;
  double invalidations;

  bool active() const { return hits + misses > 0; }
  double HitRatio() const {
    const double lookups = hits + misses;
    return lookups == 0 ? 0.0 : hits / lookups;
  }
};

/// Persistence-path byte counters, summed across shards, for the
/// write-amplification section. With key-value separation on, large
/// values flow through the log exactly once and the flush/compaction
/// byte counts stay flat as --value-size grows.
struct WriteAmpStats {
  explicit WriteAmpStats(const JsonValue& stats)
      : ingest(StatSum(stats, "db.ingest_bytes")),
        separated(StatSum(stats, "db.separated_puts")),
        flush_copy(StatSum(stats, "flush.copy_bytes")),
        l0(StatSum(stats, "lsm.l0_bytes_written")),
        compact(StatSum(stats, "lsm.compact_bytes_written")),
        vlog_append(StatSum(stats, "vlog.append_bytes")),
        vlog_appends(StatSum(stats, "vlog.appends")),
        vlog_gc_passes(StatSum(stats, "vlog.gc_passes")),
        vlog_gc_unlinked(StatSum(stats, "vlog.gc_unlinked")),
        vlog_gc_rewrite(StatSum(stats, "vlog.gc_rewrite_bytes")) {}

  double ingest;       // acked user key+value bytes
  double separated;
  double flush_copy;   // memtable -> zone copies
  double l0;
  double compact;
  double vlog_append;  // user writes + GC
  double vlog_appends;
  double vlog_gc_passes;
  double vlog_gc_unlinked;
  double vlog_gc_rewrite;

  bool active() const { return ingest > 0; }
  /// The headline figure: LSM bytes written per ingested byte.
  double CompactionAmp() const { return (l0 + compact) / ingest; }
  /// Everything the persistence paths wrote per ingested byte.
  double TotalAmp() const {
    return (flush_copy + l0 + compact + vlog_append) / ingest;
  }
};

JsonValue WriteAmpJson(const WriteAmpStats& w) {
  JsonValue v = JsonValue::Object();
  v.Set("ingest_bytes", JsonValue::Number(w.ingest));
  v.Set("separated_puts", JsonValue::Number(w.separated));
  v.Set("flush_copy_bytes", JsonValue::Number(w.flush_copy));
  v.Set("l0_bytes", JsonValue::Number(w.l0));
  v.Set("compact_bytes", JsonValue::Number(w.compact));
  v.Set("vlog_append_bytes", JsonValue::Number(w.vlog_append));
  v.Set("vlog_appends", JsonValue::Number(w.vlog_appends));
  v.Set("vlog_gc_passes", JsonValue::Number(w.vlog_gc_passes));
  v.Set("vlog_gc_unlinked", JsonValue::Number(w.vlog_gc_unlinked));
  v.Set("vlog_gc_rewrite_bytes", JsonValue::Number(w.vlog_gc_rewrite));
  v.Set("compaction_write_amp", JsonValue::Number(w.CompactionAmp()));
  v.Set("total_write_amp", JsonValue::Number(w.TotalAmp()));
  return v;
}

JsonValue CacheJson(const HotCacheStats& c) {
  JsonValue v = JsonValue::Object();
  v.Set("hits", JsonValue::Number(c.hits));
  v.Set("misses", JsonValue::Number(c.misses));
  v.Set("admissions", JsonValue::Number(c.admissions));
  v.Set("evictions", JsonValue::Number(c.evictions));
  v.Set("invalidations", JsonValue::Number(c.invalidations));
  v.Set("hit_ratio", JsonValue::Number(c.HitRatio()));
  return v;
}

// ------------------------------------------------------------- chaos

struct ChaosThreadStats {
  uint64_t attempts = 0;
  uint64_t acked = 0;
  uint64_t write_failures = 0;
  uint64_t failovers = 0;
  /// Key indices this thread got an OK for (its own disjoint stripe,
  /// possibly with repeats from keyspace wrap-around).
  std::vector<uint64_t> acked_keys;
};

/// Failover-friendly client options: generous internal retry budget so
/// one Put can ride out a routing refresh on its own.
net::ClientOptions ChaosClientOptions(const Config& cfg, int tid) {
  net::ClientOptions opts = BenchClientOptions(cfg, tid);
  opts.max_retries = 6;
  opts.retry_backoff_base_ms = 25;
  opts.retry_backoff_max_ms = 500;
  opts.recv_timeout_ms = 10'000;
  return opts;
}

/// Chaos write thread: synchronous puts over its key stripe through the
/// ShardedClient failover path, recording which writes were acked. The
/// outer retry loop rides out the promotion window (primary killed →
/// follower silence timeout → epoch bump) that exceeds what one call's
/// internal retries cover. Values are deterministic per key, so a retry
/// after an ambiguous failure is idempotent.
void RunThreadChaosWrites(const Config& cfg, int tid, uint64_t ops,
                          ChaosThreadStats* st) {
  net::ShardedClient client(ChaosClientOptions(cfg, tid));
  if (!cfg.fallback.empty()) client.AddSeedEndpoint(cfg.fallback);
  if (!client.Connect(cfg.connect_host, cfg.connect_port).ok()) {
    st->write_failures += ops;
    return;
  }
  for (uint64_t i = 0; i < ops; i++) {
    const uint64_t idx =
        (static_cast<uint64_t>(tid) +
         i * static_cast<uint64_t>(cfg.connections)) %
        cfg.key_space;
    const std::string key = KeyFor(idx, cfg.key_size);
    const std::string value = BenchValue(cfg, idx);
    st->attempts++;
    bool ok = false;
    for (int attempt = 0; attempt < 10 && !ok; attempt++) {
      ok = client.Put(key, value).ok();
      if (!ok) {
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
        client.RefreshRouting();  // best effort; Put retries internally
      }
    }
    if (ok) {
      st->acked++;
      st->acked_keys.push_back(idx);
    } else {
      st->write_failures++;
    }
  }
  st->failovers = client.failovers();
}

/// Chaos mode driver: load + kill + (optionally) verify. Returns the
/// process exit code — non-zero when verification finds a lost acked
/// write, the replicated-durability failure this mode exists to catch.
int RunChaos(const Config& cfg) {
  if (cfg.connect_host.empty()) {
    std::fprintf(stderr,
                 "chaos mode (--kill-pid/--verify/--fallback) needs "
                 "--connect\n");
    return 2;
  }
  std::printf(
      "netbench chaos: %d connections, %llu writes, keyspace %llu%s%s\n",
      cfg.connections, static_cast<unsigned long long>(cfg.total_ops),
      static_cast<unsigned long long>(cfg.key_space),
      cfg.kill_pid > 0 ? ", kill armed" : "",
      cfg.verify ? ", verify" : "");
  std::fflush(stdout);

  std::vector<ChaosThreadStats> stats(
      static_cast<size_t>(cfg.connections));
  std::vector<std::thread> threads;
  const uint64_t per_thread =
      cfg.total_ops / static_cast<uint64_t>(cfg.connections);
  const auto wall_start = std::chrono::steady_clock::now();
  std::thread killer;
  std::atomic<bool> killed{false};
  if (cfg.kill_pid > 0) {
    killer = std::thread([&cfg, &killed] {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(cfg.kill_at_ms));
      if (::kill(cfg.kill_pid, SIGKILL) == 0) {
        killed.store(true);
        std::printf("chaos: SIGKILL pid %d at +%d ms\n",
                    static_cast<int>(cfg.kill_pid), cfg.kill_at_ms);
        std::fflush(stdout);
      } else {
        std::fprintf(stderr, "chaos: kill pid %d failed\n",
                     static_cast<int>(cfg.kill_pid));
      }
    });
  }
  for (int t = 0; t < cfg.connections; t++) {
    uint64_t ops = per_thread;
    if (t == 0) {
      ops += cfg.total_ops % static_cast<uint64_t>(cfg.connections);
    }
    threads.emplace_back(RunThreadChaosWrites, std::cref(cfg), t, ops,
                         &stats[static_cast<size_t>(t)]);
  }
  for (auto& th : threads) th.join();
  if (killer.joinable()) killer.join();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  uint64_t attempts = 0, acked = 0, write_failures = 0, failovers = 0;
  std::vector<uint64_t> acked_union;
  for (const ChaosThreadStats& s : stats) {
    attempts += s.attempts;
    acked += s.acked;
    write_failures += s.write_failures;
    failovers += s.failovers;
    acked_union.insert(acked_union.end(), s.acked_keys.begin(),
                       s.acked_keys.end());
  }
  // Stripes are disjoint across threads but one thread can wrap its
  // stripe; dedup so each key is read back once.
  std::sort(acked_union.begin(), acked_union.end());
  acked_union.erase(
      std::unique(acked_union.begin(), acked_union.end()),
      acked_union.end());

  uint64_t lost = 0, read_errors = 0, verified = 0;
  if (cfg.verify) {
    // Fresh client seeded with the surviving follower: the bootstrap
    // primary may be gone, so connect through --fallback when given.
    net::ShardedClient reader(ChaosClientOptions(cfg, -1));
    std::string host = cfg.connect_host;
    uint16_t port = cfg.connect_port;
    if (!cfg.fallback.empty()) {
      reader.AddSeedEndpoint(cfg.fallback);
      SplitHostPort(cfg.fallback, &host, &port);
    }
    Status cs = reader.Connect(host, port);
    if (!cs.ok() && !cfg.fallback.empty()) {
      cs = reader.Connect(cfg.connect_host, cfg.connect_port);
    }
    if (!cs.ok()) {
      std::fprintf(stderr, "verify connect: %s\n",
                   cs.ToString().c_str());
      read_errors = acked_union.size();
    } else {
      for (uint64_t idx : acked_union) {
        std::string value;
        Status gs = reader.Get(KeyFor(idx, cfg.key_size), &value);
        if (gs.ok() && value == BenchValue(cfg, idx)) {
          verified++;
        } else if (gs.ok() || gs.IsNotFound()) {
          lost++;  // missing or wrong payload: an acked write vanished
        } else {
          read_errors++;
        }
      }
    }
  }

  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%9llu attempts  %llu acked  %llu failed  %llu "
                "failovers  %.1f s",
                static_cast<unsigned long long>(attempts),
                static_cast<unsigned long long>(acked),
                static_cast<unsigned long long>(write_failures),
                static_cast<unsigned long long>(failovers),
                wall_seconds);
  PrintRow("net-chaos", buf);
  if (cfg.verify) {
    std::snprintf(buf, sizeof(buf),
                  "%9llu keys  %llu verified  %llu lost  %llu "
                  "unreadable",
                  static_cast<unsigned long long>(acked_union.size()),
                  static_cast<unsigned long long>(verified),
                  static_cast<unsigned long long>(lost),
                  static_cast<unsigned long long>(read_errors));
    PrintRow("net-chaos-verify", buf);
  }

  BenchReport report("netbench");
  RunResult chaos_result;
  chaos_result.ops = attempts;
  chaos_result.seconds = wall_seconds;
  JsonValue& run = report.AddRun("net-chaos", chaos_result);
  run.Set("connections",
          JsonValue::Number(static_cast<double>(cfg.connections)));
  run.Set("acked_writes",
          JsonValue::Number(static_cast<double>(acked)));
  run.Set("write_failures",
          JsonValue::Number(static_cast<double>(write_failures)));
  run.Set("failovers",
          JsonValue::Number(static_cast<double>(failovers)));
  run.Set("killed", JsonValue::Number(killed.load() ? 1 : 0));
  run.Set("verified_keys",
          JsonValue::Number(static_cast<double>(verified)));
  run.Set("lost_acked", JsonValue::Number(static_cast<double>(lost)));
  run.Set("read_errors",
          JsonValue::Number(static_cast<double>(read_errors)));
  Status ws = report.Write();
  if (!ws.ok()) {
    std::fprintf(stderr, "report: %s\n", ws.ToString().c_str());
    return 1;
  }
  if (cfg.verify && (lost > 0 || read_errors > 0)) {
    std::fprintf(stderr,
                 "VERIFY FAILED: %llu acked writes lost, %llu "
                 "unreadable\n",
                 static_cast<unsigned long long>(lost),
                 static_cast<unsigned long long>(read_errors));
    return 1;
  }
  return 0;
}

// --------------------------------------------------- snapshot scan

/// One generation of a key's value: a self-describing header padded to
/// --value-size, so a scan row verifies from the key index alone.
std::string SnapGenValue(const Config& cfg, uint64_t idx, int gen) {
  std::string v =
      "g" + std::to_string(gen) + "|" + std::to_string(idx) + "|";
  if (v.size() < cfg.value_size) v.append(cfg.value_size - v.size(), 's');
  return v;
}

/// Snapshot-consistency driver (--snapshot-scan, docs/SNAPSHOTS.md):
/// writes a generation-0 baseline, pins one snapshot across every
/// shard, then scans at the pin while writer threads churn the same
/// keys to later generations. Every pinned scan must return exactly
/// the baseline — one consistent cut — and the run reports what the
/// pin cost in retained bytes. Exits non-zero when any post-snapshot
/// write leaks into the cut.
int RunSnapshotScan(const Config& cfg) {
  const uint64_t keys = std::min<uint64_t>(cfg.key_space, 4096);
  const int rounds = 20;
  net::ShardedClient client(BenchClientOptions(cfg, 0));
  Status s = client.Connect(cfg.connect_host, cfg.connect_port);
  if (!s.ok()) {
    std::fprintf(stderr, "connect: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("snapshot-scan: %llu keys, %d shards, %d writers\n",
              static_cast<unsigned long long>(keys),
              client.num_shards(), cfg.connections);

  // Generation-0 baseline.
  for (uint64_t i = 0; i < keys; i++) {
    if (!client.Put(KeyFor(i, cfg.key_size), SnapGenValue(cfg, i, 0))
             .ok()) {
      std::fprintf(stderr, "baseline put %llu failed\n",
                   static_cast<unsigned long long>(i));
      return 1;
    }
  }
  JsonValue stats;
  ScrapeStats(cfg, &stats);
  const double retained_before = StatSum(stats, "snap.retained_bytes");

  net::ShardedClient::ShardedSnapshot snap;
  s = client.CreateSnapshot(0, &snap);
  if (!s.ok()) {
    std::fprintf(stderr, "snapshot: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("pinned snapshot: %zu server id%s, per-shard seqs [",
              snap.server_ids.size(),
              snap.server_ids.size() == 1 ? "" : "s");
  for (size_t i = 0; i < snap.shard_seqs.size(); i++) {
    std::printf("%s%llu", i == 0 ? "" : " ",
                static_cast<unsigned long long>(snap.shard_seqs[i]));
  }
  std::printf("]\n");

  // Writers churn every key to later generations while we read the cut.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> churn_writes{0}, write_failures{0};
  std::vector<std::thread> writers;
  const int nwriters = std::max(1, cfg.connections);
  for (int t = 0; t < nwriters; t++) {
    writers.emplace_back([&, t] {
      net::ShardedClient w(BenchClientOptions(cfg, t + 1));
      if (!w.Connect(cfg.connect_host, cfg.connect_port).ok()) {
        write_failures.fetch_add(1);
        return;
      }
      int gen = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        for (uint64_t i = static_cast<uint64_t>(t); i < keys;
             i += static_cast<uint64_t>(nwriters)) {
          if (w.Put(KeyFor(i, cfg.key_size), SnapGenValue(cfg, i, gen))
                  .ok()) {
            churn_writes.fetch_add(1);
          } else {
            write_failures.fetch_add(1);
          }
        }
        gen++;
      }
    });
  }

  // The acceptance loop: every pinned scan is exactly the baseline.
  // Runs at least `rounds` scans AND until the writers have pushed
  // several generations past the pin, so flush/compaction actually
  // fire and the retained-bytes cost below measures something real.
  const uint64_t churn_target = keys * 6;
  uint64_t scan_errors = 0, leaked_rows = 0, rows_checked = 0;
  int round = 0;
  for (; round < rounds ||
         (round < 400 && churn_writes.load() < churn_target);
       round++) {
    std::vector<std::pair<std::string, std::string>> entries;
    Status ss = client.ScanAt("", static_cast<uint32_t>(keys + 16),
                              snap, &entries);
    if (!ss.ok()) {
      std::fprintf(stderr, "scan-at round %d: %s\n", round,
                   ss.ToString().c_str());
      scan_errors++;
      continue;
    }
    if (entries.size() != keys) {
      std::fprintf(stderr,
                   "scan-at round %d: %zu rows, want %llu — the cut "
                   "gained or lost keys\n",
                   round, entries.size(),
                   static_cast<unsigned long long>(keys));
      leaked_rows++;
    }
    for (uint64_t i = 0; i < entries.size() && i < keys; i++) {
      rows_checked++;
      if (entries[i].second != SnapGenValue(cfg, i, 0)) {
        leaked_rows++;
        if (leaked_rows <= 5) {
          std::fprintf(stderr,
                       "round %d key %s: post-snapshot write leaked "
                       "into the cut\n",
                       round, entries[i].first.c_str());
        }
      }
    }
  }
  stop.store(true);
  for (auto& th : writers) th.join();

  // The live view must have moved on past the pin.
  std::vector<std::pair<std::string, std::string>> live;
  uint64_t moved = 0;
  if (client.Scan("", static_cast<uint32_t>(keys + 16), &live).ok()) {
    for (uint64_t i = 0; i < live.size() && i < keys; i++) {
      if (live[i].second != SnapGenValue(cfg, i, 0)) moved++;
    }
  }

  ScrapeStats(cfg, &stats);
  const double retained =
      StatSum(stats, "snap.retained_bytes") - retained_before;
  const double gc_deferrals = StatSum(stats, "vlog.gc_deferrals");
  s = client.ReleaseSnapshot(snap);

  std::printf(
      "snapshot-scan: %d rounds, %llu rows checked, %llu leaked, "
      "%llu scan errors\n",
      round, static_cast<unsigned long long>(rows_checked),
      static_cast<unsigned long long>(leaked_rows),
      static_cast<unsigned long long>(scan_errors));
  std::printf(
      "churn: %llu concurrent writes (%llu failed), %llu/%llu live "
      "rows past the pin\n",
      static_cast<unsigned long long>(churn_writes.load()),
      static_cast<unsigned long long>(write_failures.load()),
      static_cast<unsigned long long>(moved),
      static_cast<unsigned long long>(keys));
  std::printf(
      "space-amp of the pin: snap.retained_bytes +%.0f B, "
      "vlog.gc_deferrals %.0f, release %s\n",
      retained, gc_deferrals, s.ToString().c_str());

  const bool failed = leaked_rows > 0 || scan_errors > 0 ||
                      write_failures.load() > 0 || !s.ok();
  if (failed) {
    std::fprintf(stderr, "SNAPSHOT-SCAN FAILED\n");
    return 1;
  }
  std::printf("snapshot-scan: consistent cut held\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; i++) {
    auto next = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", name);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--connect") == 0) {
      if (!SplitHostPort(next("--connect"), &cfg.connect_host,
                         &cfg.connect_port)) {
        std::fprintf(stderr, "bad --connect, want host:port\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--connections") == 0) {
      cfg.connections = std::atoi(next("--connections"));
    } else if (std::strcmp(argv[i], "--ops") == 0) {
      cfg.total_ops = std::strtoull(next("--ops"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--read-pct") == 0) {
      cfg.read_pct = std::atoi(next("--read-pct"));
    } else if (std::strcmp(argv[i], "--pipeline") == 0) {
      cfg.pipeline = std::atoi(next("--pipeline"));
    } else if (std::strcmp(argv[i], "--value-size") == 0) {
      cfg.value_size = std::strtoull(next("--value-size"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--value-dist") == 0) {
      cfg.value_dist = next("--value-dist");
    } else if (std::strcmp(argv[i], "--key-space") == 0) {
      cfg.key_space = std::strtoull(next("--key-space"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--no-preload") == 0) {
      cfg.preload = false;
    } else if (std::strcmp(argv[i], "--latency-scale") == 0) {
      cfg.latency_scale = std::atof(next("--latency-scale"));
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      cfg.workers = std::atoi(next("--workers"));
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      cfg.shards = std::atoi(next("--shards"));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      cfg.seed = std::strtoull(next("--seed"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--dist") == 0) {
      cfg.dist = next("--dist");
    } else if (std::strcmp(argv[i], "--theta") == 0) {
      cfg.theta = std::atof(next("--theta"));
    } else if (std::strcmp(argv[i], "--hot-keys") == 0) {
      cfg.hot_keys = std::atof(next("--hot-keys"));
    } else if (std::strcmp(argv[i], "--hot-ops") == 0) {
      cfg.hot_ops = std::atof(next("--hot-ops"));
    } else if (std::strcmp(argv[i], "--ycsb") == 0) {
      cfg.ycsb = next("--ycsb");
    } else if (std::strcmp(argv[i], "--cache-mb") == 0) {
      cfg.cache_mb = std::strtoull(next("--cache-mb"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--cache-admit") == 0) {
      cfg.cache_admit = static_cast<uint32_t>(
          std::strtoul(next("--cache-admit"), nullptr, 10));
    } else if (std::strcmp(argv[i], "--sub-memtable-kb") == 0) {
      cfg.sub_memtable_kb =
          std::strtoull(next("--sub-memtable-kb"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--zone-flush-kb") == 0) {
      cfg.zone_flush_kb =
          std::strtoull(next("--zone-flush-kb"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--vlog-segment-kb") == 0) {
      cfg.vlog_segment_kb =
          std::strtoull(next("--vlog-segment-kb"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--vlog-gc-ratio") == 0) {
      cfg.vlog_gc_ratio = std::atof(next("--vlog-gc-ratio"));
    } else if (std::strcmp(argv[i], "--sep-threshold") == 0) {
      cfg.sep_threshold = std::strtoll(next("--sep-threshold"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--trace-sample") == 0) {
      cfg.trace_sample = static_cast<uint32_t>(
          std::strtoul(next("--trace-sample"), nullptr, 10));
    } else if (std::strcmp(argv[i], "--trace-out") == 0) {
      cfg.trace_out = next("--trace-out");
    } else if (std::strcmp(argv[i], "--trace-server-out") == 0) {
      cfg.trace_server_out = next("--trace-server-out");
    } else if (std::strcmp(argv[i], "--kill-pid") == 0) {
      cfg.kill_pid = static_cast<pid_t>(std::atoi(next("--kill-pid")));
    } else if (std::strcmp(argv[i], "--kill-at-ms") == 0) {
      cfg.kill_at_ms = std::atoi(next("--kill-at-ms"));
    } else if (std::strcmp(argv[i], "--fallback") == 0) {
      cfg.fallback = next("--fallback");
    } else if (std::strcmp(argv[i], "--verify") == 0) {
      cfg.verify = true;
    } else if (std::strcmp(argv[i], "--snapshot-scan") == 0) {
      cfg.snapshot_scan = true;
    } else {
      std::fprintf(
          stderr,
          "usage: %s [--connect host:port] [--connections N] [--ops N]\n"
          "          [--read-pct P] [--pipeline D] [--value-size B]\n"
          "          [--value-dist fixed|uniform]\n"
          "          [--key-space N] [--no-preload] [--latency-scale X]\n"
          "          [--workers N] [--shards N] [--seed S]\n"
          "          [--dist uniform|zipfian|hotspot|latest]\n"
          "          [--theta X] [--hot-keys F] [--hot-ops F]\n"
          "          [--ycsb A|B|C|D] [--cache-mb N] [--cache-admit N]\n"
          "          [--sub-memtable-kb N] [--zone-flush-kb N]\n"
          "          [--vlog-segment-kb N] [--vlog-gc-ratio F]\n"
          "          [--sep-threshold B]\n"
          "          [--trace-sample N] [--trace-out PATH]\n"
          "          [--trace-server-out PATH]\n"
          "          [--kill-pid PID] [--kill-at-ms N]\n"
          "          [--fallback host:port] [--verify]\n"
          "          [--snapshot-scan]\n",
          argv[0]);
      return 2;
    }
  }
  if (cfg.total_ops == 0) {
    cfg.total_ops = BenchOps(100'000);
  }
  if (cfg.connections < 1) cfg.connections = 1;
  if (cfg.pipeline < 1) cfg.pipeline = 1;
  if (cfg.shards < 1) cfg.shards = 1;
  if (cfg.value_size < 1) cfg.value_size = 1;
  if (cfg.value_dist != "fixed" && cfg.value_dist != "uniform") {
    std::fprintf(stderr, "bad --value-dist %s, want fixed|uniform\n",
                 cfg.value_dist.c_str());
    return 2;
  }

  // Replication chaos mode is a separate drive path: writes-only load
  // against an external primary/follower pair, optional SIGKILL of the
  // primary mid-run, acked-write verification through the survivor.
  if (cfg.kill_pid > 0 || cfg.verify || !cfg.fallback.empty()) {
    return RunChaos(cfg);
  }

  // Resolve the workload spec. --ycsb overrides --dist and --read-pct
  // with the named YCSB core mix; plain --dist keeps the read mix of
  // --read-pct.
  if (!cfg.ycsb.empty()) {
    switch (cfg.ycsb[0]) {
      case 'A': case 'a':
        cfg.spec = WorkloadSpec::YcsbA(cfg.key_space);
        break;
      case 'B': case 'b':
        cfg.spec = WorkloadSpec::YcsbB(cfg.key_space);
        break;
      case 'C': case 'c':
        cfg.spec = WorkloadSpec::YcsbC(cfg.key_space);
        break;
      case 'D': case 'd':
        cfg.spec = WorkloadSpec::YcsbD(cfg.key_space);
        break;
      default:
        std::fprintf(stderr, "bad --ycsb %s, want A..D\n",
                     cfg.ycsb.c_str());
        return 2;
    }
    cfg.ycsb = static_cast<char>(
        cfg.ycsb[0] >= 'a' ? cfg.ycsb[0] - ('a' - 'A') : cfg.ycsb[0]);
    cfg.spec.zipf_theta = cfg.theta;
    cfg.read_pct =
        static_cast<int>(cfg.spec.read_fraction * 100.0 + 0.5);
    cfg.dist =
        cfg.spec.dist == KeyDist::kLatest ? "latest" : "zipfian";
  } else {
    cfg.spec.read_fraction = static_cast<double>(cfg.read_pct) / 100.0;
    cfg.spec.key_space = cfg.key_space;
    cfg.spec.zipf_theta = cfg.theta;
    cfg.spec.hot_key_fraction = cfg.hot_keys;
    cfg.spec.hot_op_fraction = cfg.hot_ops;
    if (cfg.dist == "uniform") {
      cfg.spec.dist = KeyDist::kUniform;
    } else if (cfg.dist == "zipfian") {
      cfg.spec.dist = KeyDist::kZipfian;
    } else if (cfg.dist == "hotspot") {
      cfg.spec.dist = KeyDist::kHotSpot;
    } else if (cfg.dist == "latest") {
      cfg.spec.dist = KeyDist::kLatest;
    } else {
      std::fprintf(stderr,
                   "bad --dist %s, want uniform|zipfian|hotspot|latest\n",
                   cfg.dist.c_str());
      return 2;
    }
  }

  // The client-span tracer: one tracer shared by every connection
  // thread (each claims its own lock-free shard).
  std::unique_ptr<obs::Tracer> client_tracer;
  if (cfg.trace_sample > 0) {
    client_tracer = std::make_unique<obs::Tracer>();
    client_tracer->set_enabled(true);
    cfg.tracer = client_tracer.get();
  }

  // Self-contained mode: spawn a server in-process on an ephemeral
  // port — one simulated PMem platform + DB per shard.
  std::vector<std::unique_ptr<PmemEnv>> envs;
  std::vector<std::unique_ptr<DB>> dbs;
  std::unique_ptr<net::Server> server;
  if (cfg.connect_host.empty()) {
    EnvOptions env_opts;
    env_opts.pmem_capacity = 1ull << 30;
    env_opts.cat_locked_bytes = 12ull << 20;
    env_opts.latency.scale = BenchScale(cfg.latency_scale);
    CacheKVOptions db_opts;
    db_opts.pool_bytes = 12ull << 20;
    db_opts.num_cores = 8;
    if (cfg.sub_memtable_kb > 0) {
      db_opts.sub_memtable_bytes = cfg.sub_memtable_kb << 10;
      db_opts.min_sub_memtable_bytes = std::min(
          db_opts.min_sub_memtable_bytes, db_opts.sub_memtable_bytes);
    }
    if (cfg.zone_flush_kb > 0) {
      db_opts.imm_zone_flush_threshold = cfg.zone_flush_kb << 10;
    }
    if (cfg.vlog_segment_kb > 0) {
      db_opts.vlog_segment_bytes = cfg.vlog_segment_kb << 10;
    }
    if (cfg.vlog_gc_ratio > 0) {
      db_opts.vlog_gc_dead_ratio = cfg.vlog_gc_ratio;
    }
    if (cfg.sep_threshold >= 0) {
      db_opts.value_separation_threshold =
          static_cast<uint64_t>(cfg.sep_threshold);
    }
    // The in-process server's spans land in the primary DB's tracer;
    // turn it on when a server-side dump was requested.
    db_opts.trace_enabled = !cfg.trace_server_out.empty();
    std::vector<DB*> db_ptrs;
    for (int s = 0; s < cfg.shards; s++) {
      envs.push_back(std::make_unique<PmemEnv>(env_opts));
      std::unique_ptr<DB> db;
      Status st = DB::Open(envs.back().get(), db_opts, false, &db);
      if (!st.ok()) {
        std::fprintf(stderr, "open shard %d: %s\n", s,
                     st.ToString().c_str());
        return 1;
      }
      db_ptrs.push_back(db.get());
      dbs.push_back(std::move(db));
    }
    net::ShardRouter router;  // the 1-shard identity ring by default
    if (cfg.shards > 1) {
      net::ShardMap map;
      map.num_shards = static_cast<uint32_t>(cfg.shards);
      Status rs = net::ShardRouter::Build(map, &router);
      if (!rs.ok()) {
        std::fprintf(stderr, "shard map: %s\n", rs.ToString().c_str());
        return 1;
      }
    }
    net::ServerOptions srv_opts;
    srv_opts.port = 0;
    srv_opts.num_workers = cfg.workers;
    srv_opts.hot_key_cache_bytes = cfg.cache_mb << 20;
    srv_opts.hot_key_cache_admit = cfg.cache_admit;
    server = std::make_unique<net::Server>(db_ptrs, router, srv_opts);
    Status st = server->Start();
    if (!st.ok()) {
      std::fprintf(stderr, "server start: %s\n", st.ToString().c_str());
      return 1;
    }
    cfg.connect_host = "127.0.0.1";
    cfg.connect_port = server->port();
    if (cfg.shards > 1) {
      std::printf("in-process server on 127.0.0.1:%u (%d shards)\n",
                  server->port(), cfg.shards);
    } else {
      std::printf("in-process server on 127.0.0.1:%u\n", server->port());
    }
  }

  // Snapshot-consistency mode runs its own drive loop against the
  // (in-process or remote) server and exits with its verdict.
  if (cfg.snapshot_scan) {
    return RunSnapshotScan(cfg);
  }

  // The real shard count is whatever the server's ring says, not the
  // flag (which only sizes the in-process server).
  uint32_t actual_shards = 1;
  {
    net::ShardedClient probe;
    Status st = probe.Connect(cfg.connect_host, cfg.connect_port);
    if (!st.ok()) {
      std::fprintf(stderr, "connect: %s\n", st.ToString().c_str());
      return 1;
    }
    actual_shards = probe.num_shards();
  }
  const bool sharded = actual_shards > 1;

  std::printf(
      "netbench: %d connections, %llu ops, %d%% reads, pipeline %d, "
      "value %zu B, keyspace %llu, dist %s%s%s\n",
      cfg.connections, static_cast<unsigned long long>(cfg.total_ops),
      cfg.read_pct, cfg.pipeline, cfg.value_size,
      static_cast<unsigned long long>(cfg.key_space), cfg.dist.c_str(),
      cfg.ycsb.empty() ? "" : (" (YCSB-" + cfg.ycsb + ")").c_str(),
      sharded ? (", shards " + std::to_string(actual_shards)).c_str()
              : "");

  if (cfg.preload) {
    std::vector<std::thread> loaders;
    std::atomic<bool> preload_ok{true};
    for (int t = 0; t < cfg.connections; t++) {
      loaders.emplace_back([&, t] {
        net::ShardedClient client;
        if (!client.Connect(cfg.connect_host, cfg.connect_port).ok() ||
            !PreloadStripe(&client, cfg, t)) {
          preload_ok.store(false);
        }
      });
    }
    for (auto& th : loaders) th.join();
    if (!preload_ok.load()) {
      std::fprintf(stderr, "preload failed\n");
      return 1;
    }
    std::printf("preloaded %llu keys\n",
                static_cast<unsigned long long>(cfg.key_space));
  }

  std::vector<ThreadStats> stats(
      static_cast<size_t>(cfg.connections));
  std::vector<std::thread> threads;
  const uint64_t per_thread =
      cfg.total_ops / static_cast<uint64_t>(cfg.connections);
  const auto wall_start = std::chrono::steady_clock::now();
  for (int t = 0; t < cfg.connections; t++) {
    uint64_t ops = per_thread;
    if (t == 0) {
      ops += cfg.total_ops % static_cast<uint64_t>(cfg.connections);
    }
    threads.emplace_back(RunThread, std::cref(cfg), t, ops,
                         &stats[static_cast<size_t>(t)]);
  }
  for (auto& th : threads) th.join();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  // Aggregate per-op-class results.
  RunResult get_result, put_result, all_result;
  get_result.seconds = put_result.seconds = all_result.seconds =
      wall_seconds;
  std::vector<uint64_t> shard_totals(actual_shards, 0);
  uint64_t traced_total = 0;
  Histogram queue_ns;
  for (ThreadStats& s : stats) {
    get_result.ops += s.gets;
    get_result.found += s.found;
    get_result.not_found += s.not_found;
    put_result.ops += s.puts;
    all_result.errors += s.errors;
    get_result.latency_ns.Merge(s.get_ns);
    put_result.latency_ns.Merge(s.put_ns);
    traced_total += s.traced;
    queue_ns.Merge(s.queue_ns);
    for (size_t i = 0; i < s.shard_ops.size() && i < shard_totals.size();
         i++) {
      shard_totals[i] += s.shard_ops[i];
    }
  }
  all_result.ops = get_result.ops + put_result.ops;
  all_result.found = get_result.found;
  all_result.not_found = get_result.not_found;
  all_result.latency_ns.Merge(get_result.latency_ns);
  all_result.latency_ns.Merge(put_result.latency_ns);
  // Protocol/transport errors are not attributable to one class after
  // aggregation; the per-class entries carry zero and the mixed entry
  // carries the total.

  // Hot-key cache effectiveness, scraped from the server's STATS while
  // it is still up; attached to the net-mixed run as an informational
  // object (bench_diff ignores dict-valued fields for matching).
  JsonValue server_stats;
  ScrapeStats(cfg, &server_stats);
  const HotCacheStats cache_stats(server_stats);
  const bool have_cache_stats = cache_stats.active();
  const WriteAmpStats wamp(server_stats);
  const bool have_wamp = wamp.active();

  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%9.1f kops  p50 %8.0f ns  p99 %8.0f ns",
                all_result.Kops(), all_result.latency_ns.Median(),
                all_result.latency_ns.Percentile(99));
  PrintRow("net-mixed", buf);
  if (queue_ns.count() > 0) {
    // Client-observed minus server-reported latency over the sampled
    // requests: what the wire + server queue added.
    std::snprintf(buf, sizeof(buf),
                  "%9llu sampled  queueing p50 %6.0f us  p99 %6.0f us",
                  static_cast<unsigned long long>(traced_total),
                  queue_ns.Percentile(50) / 1000.0,
                  queue_ns.Percentile(99) / 1000.0);
    PrintRow("net-queueing", buf);
  }
  if (have_wamp) {
    std::snprintf(buf, sizeof(buf),
                  "compaction %5.2fx  total %5.2fx  (%.0f MB ingested, "
                  "%.0f vlog appends, %.0f GC reclaims)",
                  wamp.CompactionAmp(), wamp.TotalAmp(),
                  wamp.ingest / (1 << 20), wamp.vlog_appends,
                  wamp.vlog_gc_unlinked);
    PrintRow("net-write-amp", buf);
  }
  if (have_cache_stats) {
    std::snprintf(
        buf, sizeof(buf),
        "hit %5.1f%%  (%.0f hits, %.0f misses, %.0f invalidations)",
        cache_stats.HitRatio() * 100.0, cache_stats.hits,
        cache_stats.misses, cache_stats.invalidations);
    PrintRow("net-cache", buf);
  }
  std::snprintf(buf, sizeof(buf),
                "%9.1f kops  p50 %8.0f ns  p99 %8.0f ns",
                get_result.Kops(), get_result.latency_ns.Median(),
                get_result.latency_ns.Percentile(99));
  PrintRow("net-get", buf);
  std::snprintf(buf, sizeof(buf),
                "%9.1f kops  p50 %8.0f ns  p99 %8.0f ns",
                put_result.Kops(), put_result.latency_ns.Median(),
                put_result.latency_ns.Percentile(99));
  PrintRow("net-put", buf);

  BenchReport report("netbench");
  {
    JsonValue& mixed =
        AttachRunFields(report.AddRun("net-mixed", all_result), cfg,
                        actual_shards);
    if (have_cache_stats) {
      mixed.Set("cache", CacheJson(cache_stats));
    }
    if (have_wamp) {
      // Informational (dict-valued fields are ignored by bench_diff
      // matching): server-side persistence bytes per ingested byte.
      mixed.Set("write_amp", WriteAmpJson(wamp));
    }
    if (traced_total > 0) {
      // Informational (dict-valued fields are ignored by bench_diff
      // matching): client-observed minus server-reported latency for
      // the sampled requests.
      JsonValue q = JsonValue::Object();
      q.Set("sampled",
            JsonValue::Number(static_cast<double>(traced_total)));
      q.Set("sample_every",
            JsonValue::Number(static_cast<double>(cfg.trace_sample)));
      q.Set("measured",
            JsonValue::Number(static_cast<double>(queue_ns.count())));
      q.Set("mean_us", JsonValue::Number(queue_ns.Average() / 1000.0));
      q.Set("p50_us",
            JsonValue::Number(queue_ns.Percentile(50) / 1000.0));
      q.Set("p99_us",
            JsonValue::Number(queue_ns.Percentile(99) / 1000.0));
      mixed.Set("queueing_us", std::move(q));
    }
  }
  AttachRunFields(report.AddRun("net-get", get_result), cfg,
                  actual_shards);
  AttachRunFields(report.AddRun("net-put", put_result), cfg,
                  actual_shards);
  if (sharded) {
    // Per-shard throughput: how evenly the ring spread the routed load.
    for (uint32_t s = 0; s < actual_shards; s++) {
      RunResult shard_result;
      shard_result.ops = shard_totals[s];
      shard_result.seconds = wall_seconds;
      const std::string name = "net-shard-" + std::to_string(s);
      std::snprintf(buf, sizeof(buf), "%9.1f kops  (%llu ops routed)",
                    shard_result.Kops(),
                    static_cast<unsigned long long>(shard_totals[s]));
      PrintRow(name.c_str(), buf);
      AttachRunFields(report.AddRun(name, shard_result), cfg,
                      actual_shards);
    }
  }
  Status ws = report.Write();
  if (!ws.ok()) {
    std::fprintf(stderr, "report: %s\n", ws.ToString().c_str());
    return 1;
  }

  if (server != nullptr) {
    server->Stop();
    for (auto& db : dbs) db->WaitIdle();
  }

  // Chrome-trace dumps, written after the run quiesced. The client and
  // server dumps share trace ids on sampled requests, so
  // tools/trace_merge.py joins them into one timeline.
  auto write_file = [](const std::string& path,
                       const std::string& content) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fwrite(content.data(), 1, content.size(), f);
    std::fclose(f);
    return true;
  };
  if (!cfg.trace_out.empty() && cfg.tracer != nullptr) {
    std::string json;
    cfg.tracer->Export(&json);
    if (write_file(cfg.trace_out, json)) {
      std::printf("client trace: %s (%llu events)\n",
                  cfg.trace_out.c_str(),
                  static_cast<unsigned long long>(
                      cfg.tracer->RetainedEvents()));
    }
  }
  if (!cfg.trace_server_out.empty()) {
    if (dbs.empty()) {
      std::fprintf(stderr,
                   "--trace-server-out needs the in-process server\n");
    } else {
      std::string json;
      dbs[0]->DumpTrace(&json);
      if (write_file(cfg.trace_server_out, json)) {
        std::printf("server trace: %s\n", cfg.trace_server_out.c_str());
      }
    }
  }

  if (all_result.errors != 0) {
    std::fprintf(stderr, "%llu errors\n",
                 static_cast<unsigned long long>(all_result.errors));
    return 1;
  }
  return 0;
}
