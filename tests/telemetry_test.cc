// Telemetry-plane integration tests (docs/OBSERVABILITY.md): trace
// context propagating client -> wire -> server stage spans and back
// (the sampled-GET acceptance case: one merged timeline, client span +
// >= 4 server/DB stage spans sharing the trace id), the slow-request
// log capturing an artificially delayed request over the wire with the
// delayed stage identified, and METRICSPROM serving a well-formed
// Prometheus exposition with per-shard labels.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/db.h"
#include "fault/fail_point.h"
#include "net/client.h"
#include "net/server.h"
#include "net/shard_router.h"
#include "obs/trace.h"
#include "pmem/pmem_env.h"
#include "util/json.h"

namespace cachekv {
namespace {

EnvOptions TestEnv(uint64_t pool_bytes) {
  EnvOptions o;
  o.pmem_capacity = 256ull << 20;
  o.llc_capacity = 16ull << 20;
  o.cat_locked_bytes = pool_bytes;
  o.latency.scale = 0;
  return o;
}

CacheKVOptions TestDb() {
  CacheKVOptions o;
  o.pool_bytes = 2ull << 20;
  o.sub_memtable_bytes = 128ull << 10;
  o.min_sub_memtable_bytes = 64ull << 10;
  o.num_cores = 2;
  o.bg_backoff_base_ms = 1;
  o.bg_backoff_max_ms = 4;
  o.write_stall_timeout_ms = 2000;
  o.lsm.background_compaction = false;
  return o;
}

/// Events in a parsed Chrome trace carrying args.trace == `trace_id`.
std::vector<std::string> SpanNamesForTrace(const JsonValue& events,
                                           uint64_t trace_id) {
  std::vector<std::string> names;
  if (!events.is_array()) return names;
  for (const JsonValue& ev : events.items()) {
    const JsonValue* args = ev.Get("args");
    if (args == nullptr || !args->is_object()) continue;
    const JsonValue* trace = args->Get("trace");
    if (trace == nullptr || !trace->is_number()) continue;
    if (static_cast<uint64_t>(trace->number()) != trace_id) continue;
    const JsonValue* name = ev.Get("name");
    if (name != nullptr && name->is_string()) {
      names.push_back(name->str());
    }
  }
  return names;
}

std::set<uint64_t> TraceIds(const JsonValue& events) {
  std::set<uint64_t> ids;
  if (!events.is_array()) return ids;
  for (const JsonValue& ev : events.items()) {
    const JsonValue* args = ev.Get("args");
    if (args == nullptr || !args->is_object()) continue;
    const JsonValue* trace = args->Get("trace");
    if (trace != nullptr && trace->is_number()) {
      ids.insert(static_cast<uint64_t>(trace->number()));
    }
  }
  return ids;
}

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FailPointRegistry::Global()->DisableAll();
    opts_ = TestDb();
    opts_.trace_enabled = true;  // server stage spans need the tracer
    env_ = std::make_unique<PmemEnv>(TestEnv(opts_.pool_bytes));
    ASSERT_TRUE(DB::Open(env_.get(), opts_, false, &db_).ok());
  }

  void TearDown() override {
    if (server_) server_->Stop();
    if (db_) db_->WaitIdle();
    fault::FailPointRegistry::Global()->DisableAll();
  }

  void StartServer(net::ServerOptions srv = net::ServerOptions()) {
    srv.port = 0;  // ephemeral
    server_ = std::make_unique<net::Server>(
        std::vector<DB*>{db_.get()}, net::ShardRouter(), srv);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(0, server_->port());
  }

  CacheKVOptions opts_;
  std::unique_ptr<PmemEnv> env_;
  std::unique_ptr<DB> db_;
  std::unique_ptr<net::Server> server_;
};

// Tentpole acceptance: a sampled GET yields one merged timeline — the
// client span plus >= 4 server/DB stage spans all share its trace id.
TEST_F(TelemetryTest, SampledGetProducesJoinedClientServerTimeline) {
  StartServer();
  obs::Tracer client_tracer;
  client_tracer.set_enabled(true);
  net::ClientOptions copts;
  copts.trace_sample_every = 1;  // sample every keyed request
  copts.trace_seed = 7;
  copts.tracer = &client_tracer;
  net::Client client(copts);
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  ASSERT_TRUE(client.Put("traced-key", "traced-value").ok());
  std::string value;
  ASSERT_TRUE(client.Get("traced-key", &value).ok());
  EXPECT_EQ("traced-value", value);
  client.Close();
  server_->Stop();

  // Both sides export Chrome-trace JSON (what tools/trace_merge.py
  // merges); the join key is the "trace" arg.
  std::string client_json;
  client_tracer.Export(&client_json);
  std::string server_json;
  db_->DumpTrace(&server_json);
  JsonValue client_events, server_events;
  ASSERT_TRUE(JsonValue::Parse(client_json, &client_events).ok());
  ASSERT_TRUE(JsonValue::Parse(server_json, &server_events).ok());

  const std::set<uint64_t> client_ids = TraceIds(client_events);
  const std::set<uint64_t> server_ids = TraceIds(server_events);
  ASSERT_GE(client_ids.size(), 2u);  // the PUT and the GET
  // Every sampled request's id must appear on BOTH sides.
  for (uint64_t id : client_ids) {
    EXPECT_EQ(1u, server_ids.count(id)) << "trace id " << id
                                        << " missing server-side";
  }

  // Find the GET's id via its client span, then check the server
  // emitted >= 4 stage spans under the same id.
  uint64_t get_id = 0;
  for (uint64_t id : client_ids) {
    for (const std::string& name : SpanNamesForTrace(client_events, id)) {
      if (name == "client.get") get_id = id;
    }
  }
  ASSERT_NE(0u, get_id) << "no client.get span in the client trace";
  const std::vector<std::string> server_spans =
      SpanNamesForTrace(server_events, get_id);
  EXPECT_GE(server_spans.size(), 4u)
      << "server emitted only " << server_spans.size() << " stage spans";
  auto has = [&server_spans](const char* name) {
    for (const std::string& s : server_spans) {
      if (s == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("req.decode"));
  EXPECT_TRUE(has("req.route"));
  EXPECT_TRUE(has("req.db"));
  EXPECT_TRUE(has("req.encode"));
  EXPECT_TRUE(has("net.recv"));
  EXPECT_TRUE(has("net.send"));

  // The wire told the client how long the server took; the counters
  // saw the traced frames.
  EXPECT_GE(db_->CounterValue("net.traced_requests"), 2u);
}

// Traced pipelined requests: every sampled result carries its trace id,
// the client-observed latency, and the server-reported service time
// (client_ns >= server_ns is what makes queueing_us derivable).
TEST_F(TelemetryTest, PipelinedTracedResultsCarryBothClocks) {
  StartServer();
  obs::Tracer client_tracer;
  client_tracer.set_enabled(true);
  net::ClientOptions copts;
  copts.trace_sample_every = 2;  // every other request
  copts.trace_seed = 11;
  copts.tracer = &client_tracer;
  net::Client client(copts);
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  for (int i = 0; i < 20; i++) {
    client.SubmitPut("pipe" + std::to_string(i), "v");
  }
  std::vector<net::Client::Result> results;
  ASSERT_TRUE(client.WaitAll(&results).ok());
  ASSERT_EQ(20u, results.size());
  int traced = 0;
  std::set<uint64_t> ids;
  for (const auto& r : results) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    if (!r.traced) continue;
    traced++;
    EXPECT_NE(0u, r.trace_id);
    ids.insert(r.trace_id);
    EXPECT_GT(r.client_ns, 0u);
    EXPECT_GT(r.server_ns, 0u);
    EXPECT_GE(r.client_ns, r.server_ns)
        << "client-observed latency cannot undercut server service time";
  }
  EXPECT_EQ(10, traced) << "sample_every=2 over 20 requests";
  EXPECT_EQ(10u, ids.size()) << "trace ids must be distinct";
}

// Satellite (d): the slow-request acceptance case. An artificially
// delayed request (armed net.decode delay) appears in SLOWLOG over the
// wire with a stage breakdown identifying the delayed stage.
TEST_F(TelemetryTest, DelayedRequestLandsInSlowLogWithGuiltyStage) {
  net::ServerOptions srv;
  srv.slow_request_us = 2'000;  // 2 ms threshold
  StartServer(srv);
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  // Fast requests stay out of the log.
  ASSERT_TRUE(client.Put("fast", "1").ok());
  std::string json;
  ASSERT_TRUE(client.SlowLog(0, &json).ok());
  JsonValue doc;
  ASSERT_TRUE(JsonValue::Parse(json, &doc).ok());
  ASSERT_TRUE(doc.is_array());
  EXPECT_TRUE(doc.items().empty()) << json;

  // One 30 ms injected decode-path delay: the next request must land in
  // the slow log with req.decode dominating its stage breakdown.
  auto* reg = fault::FailPointRegistry::Global();
  ASSERT_TRUE(reg->Enable("net.decode", "once,delay:30000").ok());
  std::string value;
  ASSERT_TRUE(client.Get("fast", &value).ok());
  reg->DisableAll();

  ASSERT_TRUE(client.SlowLog(0, &json).ok());
  ASSERT_TRUE(JsonValue::Parse(json, &doc).ok());
  ASSERT_TRUE(doc.is_array());
  ASSERT_EQ(1u, doc.items().size()) << json;
  const JsonValue& entry = doc.items()[0];
  ASSERT_NE(nullptr, entry.Get("op"));
  EXPECT_EQ("get", entry.Get("op")->str());
  ASSERT_NE(nullptr, entry.Get("key"));
  EXPECT_EQ("fast", entry.Get("key")->str());
  ASSERT_NE(nullptr, entry.Get("total_us"));
  EXPECT_GE(entry.Get("total_us")->number(), 25'000.0);
  const JsonValue* stages = entry.Get("stages");
  ASSERT_NE(nullptr, stages);
  const JsonValue* decode = stages->Get("req.decode");
  ASSERT_NE(nullptr, decode) << json;
  // The guilty stage: decode holds (almost) the whole delay; every
  // other stage is orders of magnitude smaller.
  EXPECT_GE(decode->number(), 25'000.0) << json;
  for (const auto& [name, us] : stages->members()) {
    if (name != "req.decode") {
      EXPECT_LT(us.number(), decode->number()) << name;
    }
  }

  EXPECT_GE(db_->CounterValue("net.slowlog.captured"), 1u);
  EXPECT_GE(db_->CounterValue("net.slowlog.queries"), 2u);
}

// A pipelined write run is timed as one unit: every traced member gets
// the run's stage spans under its own trace id, and the slow log holds
// one "batch" entry for the run — next to the MULTIPUT's own entry.
TEST_F(TelemetryTest, WriteRunStagesReachEveryTracedMember) {
  net::ServerOptions srv;
  srv.slow_request_us = 1;  // capture everything
  StartServer(srv);
  obs::Tracer client_tracer;
  client_tracer.set_enabled(true);
  net::ClientOptions copts;
  copts.trace_sample_every = 1;
  copts.trace_seed = 3;
  copts.tracer = &client_tracer;
  net::Client client(copts);
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  for (int i = 0; i < 3; i++) {
    client.SubmitPut("run" + std::to_string(i), "v");
  }
  std::vector<net::Client::Result> results;
  ASSERT_TRUE(client.WaitAll(&results).ok());
  ASSERT_EQ(3u, results.size());
  std::vector<uint64_t> ids;
  for (const auto& r : results) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    ASSERT_TRUE(r.traced);
    ids.push_back(r.trace_id);
  }
  ASSERT_TRUE(client.MultiPut({{false, "mp-a", "1"}, {false, "mp-b", "2"}})
                  .ok());

  std::string json;
  ASSERT_TRUE(client.SlowLog(0, &json).ok());
  JsonValue doc;
  ASSERT_TRUE(JsonValue::Parse(json, &doc).ok());
  ASSERT_TRUE(doc.is_array());
  int batches = 0;
  int multiputs = 0;
  for (const JsonValue& entry : doc.items()) {
    ASSERT_NE(nullptr, entry.Get("op"));
    const std::string op = entry.Get("op")->str();
    if (op == "batch") {
      batches++;
      const JsonValue* stages = entry.Get("stages");
      ASSERT_NE(nullptr, stages) << json;
      EXPECT_NE(nullptr, stages->Get("req.decode")) << json;
      EXPECT_NE(nullptr, stages->Get("req.db")) << json;
      EXPECT_NE(nullptr, stages->Get("req.encode")) << json;
      EXPECT_EQ("run0", entry.Get("key")->str());
    } else if (op == "multiput") {
      multiputs++;
    } else {
      ADD_FAILURE() << "unexpected slow-log entry " << op << ": " << json;
    }
  }
  EXPECT_EQ(1, batches) << json;
  EXPECT_EQ(1, multiputs) << json;
  client.Close();
  server_->Stop();

  std::string server_json;
  db_->DumpTrace(&server_json);
  JsonValue server_events;
  ASSERT_TRUE(JsonValue::Parse(server_json, &server_events).ok());
  for (uint64_t id : ids) {
    const std::vector<std::string> spans =
        SpanNamesForTrace(server_events, id);
    for (const char* stage : {"req.decode", "req.db", "req.encode"}) {
      EXPECT_EQ(1, std::count(spans.begin(), spans.end(), stage))
          << "trace id " << id << " stage " << stage;
    }
  }
}

TEST_F(TelemetryTest, SlowLogDisabledAnswersEmptyArray) {
  net::ServerOptions srv;
  srv.slow_request_us = 0;  // capture disabled
  StartServer(srv);
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  auto* reg = fault::FailPointRegistry::Global();
  ASSERT_TRUE(reg->Enable("net.decode", "once,delay:15000").ok());
  ASSERT_TRUE(client.Ping().ok());
  reg->DisableAll();
  std::string json;
  ASSERT_TRUE(client.SlowLog(0, &json).ok());
  JsonValue doc;
  ASSERT_TRUE(JsonValue::Parse(json, &doc).ok());
  ASSERT_TRUE(doc.is_array());
  EXPECT_TRUE(doc.items().empty());
}

TEST_F(TelemetryTest, SlowLogLimitCapsEntries) {
  net::ServerOptions srv;
  srv.slow_request_us = 1'000;
  StartServer(srv);
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  auto* reg = fault::FailPointRegistry::Global();
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(reg->Enable("net.decode", "once,delay:5000").ok());
    ASSERT_TRUE(client.Put("slow" + std::to_string(i), "v").ok());
  }
  reg->DisableAll();
  std::string json;
  ASSERT_TRUE(client.SlowLog(2, &json).ok());
  JsonValue doc;
  ASSERT_TRUE(JsonValue::Parse(json, &doc).ok());
  ASSERT_TRUE(doc.is_array());
  EXPECT_EQ(2u, doc.items().size());
  // Newest first: the latest slow key leads.
  ASSERT_NE(nullptr, doc.items()[0].Get("key"));
  EXPECT_EQ("slow4", doc.items()[0].Get("key")->str());
}

TEST_F(TelemetryTest, MetricsPromServesWellFormedExposition) {
  StartServer();
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(client.Put("prom-key", "v").ok());
  std::string value;
  ASSERT_TRUE(client.Get("prom-key", &value).ok());

  std::string text;
  ASSERT_TRUE(client.MetricsProm(&text).ok());
  EXPECT_NE(std::string::npos,
            text.find("# TYPE cachekv_net_requests counter"));
  EXPECT_NE(std::string::npos,
            text.find("cachekv_net_requests{shard=\"0\"}"));
  // Histograms render as summaries: quantile series + _sum + _count.
  EXPECT_NE(std::string::npos,
            text.find("# TYPE cachekv_net_op_get summary"));
  EXPECT_NE(std::string::npos,
            text.find("cachekv_net_op_get{shard=\"0\",quantile=\"0.5\"}"));
  EXPECT_NE(std::string::npos,
            text.find("cachekv_net_op_get_count{shard=\"0\"}"));
  // Exactly one TYPE line per family.
  EXPECT_EQ(text.find("# TYPE cachekv_net_requests "),
            text.rfind("# TYPE cachekv_net_requests "));
  // Every non-comment line carries a shard label.
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    EXPECT_NE(std::string::npos, line.find("shard=\"")) << line;
  }
}

// Sharded telemetry: METRICSPROM labels every shard, SLOWLOG sees
// requests routed to any shard.
class ShardedTelemetryTest : public ::testing::Test {
 protected:
  static constexpr int kShards = 2;

  void SetUp() override {
    fault::FailPointRegistry::Global()->DisableAll();
    opts_ = TestDb();
    net::ShardMap map;
    map.num_shards = kShards;
    ASSERT_TRUE(net::ShardRouter::Build(map, &router_).ok());
    for (int i = 0; i < kShards; i++) {
      envs_.push_back(
          std::make_unique<PmemEnv>(TestEnv(opts_.pool_bytes)));
      std::unique_ptr<DB> db;
      ASSERT_TRUE(DB::Open(envs_.back().get(), opts_, false, &db).ok());
      dbs_.push_back(std::move(db));
    }
  }

  void TearDown() override {
    if (server_) server_->Stop();
    for (auto& db : dbs_) {
      if (db) db->WaitIdle();
    }
    fault::FailPointRegistry::Global()->DisableAll();
  }

  CacheKVOptions opts_;
  net::ShardRouter router_;
  std::vector<std::unique_ptr<PmemEnv>> envs_;
  std::vector<std::unique_ptr<DB>> dbs_;
  std::unique_ptr<net::Server> server_;
};

TEST_F(ShardedTelemetryTest, PromExposesEveryShardLabel) {
  net::ServerOptions srv;
  srv.port = 0;
  std::vector<DB*> ptrs;
  for (auto& db : dbs_) ptrs.push_back(db.get());
  server_ = std::make_unique<net::Server>(ptrs, router_, srv);
  ASSERT_TRUE(server_->Start().ok());

  net::ShardedClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(client.Put("spread" + std::to_string(i), "v").ok());
  }
  std::string text;
  ASSERT_TRUE(client.MetricsProm(&text).ok());
  for (int s = 0; s < kShards; s++) {
    const std::string label =
        "shard=\"" + std::to_string(s) + "\"";
    EXPECT_NE(std::string::npos, text.find(label)) << label;
  }
  // Per-shard routing counters show up as one series per shard.
  EXPECT_NE(std::string::npos,
            text.find("cachekv_net_shard_requests{shard=\"1\"}"));
}

}  // namespace
}  // namespace cachekv
