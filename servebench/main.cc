// servebench: one run of one named workload against the in-process
// serving stack (sharded net::Server over CacheKV DBs, optionally with
// an in-process quorum follower), driven over loopback TCP by a
// closed-loop client in the same process.
//
//   servebench --workload uniform-rw --seed 42 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics: the stack is set up three
// times (open, preload, warmup, settle) and the median set-up time and
// settled space are reported; the last stack then serves the measured
// window. --trace 1
// measures the per-layer metrics instead: alternating untraced and
// traced windows (every 16th request a traced frame) with registry
// deltas taken across them, then the layer probe.
//
// The last stdout line is one JSON object: correct, attempted, failed
// and the metrics by name. servebench/suite.py attaches the units from
// BENCHMARK.json. A store that degraded (read-only, or a hard
// background error) fails the health gate: the run prints the shard's
// background error, reports no metrics and exits 1.
//
// --key-space and --read-pct override the workload's values; they exist
// to reproduce store defects (servebench/README.md), not for
// measurement.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "load.h"
#include "probe.h"
#include "stack.h"
#include "workload.h"

using namespace servebench;
using cachekv::Status;

namespace {

constexpr int kSetupRepeats = 3;
constexpr uint32_t kTraceSampleEvery = 16;

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 20;
  int trace = 0;
  int64_t key_space = -1;
  int read_pct = -1;
};

/// Everything a run reports: the result line's fields.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;

  void Count(uint64_t a, uint64_t f, uint64_t wrong) {
    attempted += a;
    failed += f;
    if (wrong > 0) correct = false;
  }

  void Print() const {
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    const char* sep = "";
    for (const auto& [name, value] : metrics) {
      std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
      sep = ", ";
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Resident set of this process, in bytes.
double ResidentBytes() {
  std::ifstream in("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  in >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// CPU time the hypervisor gave to other guests while this machine's
/// CPUs were runnable (the steal column of /proc/stat), in clock ticks
/// summed over CPUs.
uint64_t StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t fields[8] = {};
  in >> cpu;
  for (uint64_t& f : fields) in >> f;
  return fields[7];
}

/// Taken every 100 ms through the measured window.
struct WindowSample {
  uint64_t t_ns;
  /// Resident memory outside the simulated PMem media.
  double dram_bytes;
  uint64_t steal_ticks;
};

/// One second of the measured window, by flight completion time.
struct Slice {
  uint64_t ok = 0;
  uint64_t steal_ticks = 0;
  std::vector<uint64_t> flight_ns;
};

/// Cuts the window into whole 1 s slices (a partial last one is dropped)
/// and charges each sampled steal increment to the slice it ended in.
std::vector<Slice> SliceWindow(const LoadResult& load,
                               const std::vector<WindowSample>& samples) {
  constexpr uint64_t kSliceNs = 1'000'000'000;
  std::vector<Slice> slices(static_cast<size_t>(load.seconds));
  auto slice_of = [&](uint64_t t_ns) -> Slice* {
    const uint64_t i = (t_ns - load.start_ns) / kSliceNs;
    return t_ns >= load.start_ns && i < slices.size() ? &slices[i] : nullptr;
  };
  for (const LoadResult::Flight& f : load.flights) {
    if (Slice* s = slice_of(f.end_ns)) {
      s->ok += f.ok;
      s->flight_ns.push_back(f.ns);
    }
  }
  for (size_t i = 1; i < samples.size(); i++) {
    if (Slice* s = slice_of(samples[i].t_ns)) {
      s->steal_ticks += samples[i].steal_ticks - samples[i - 1].steal_ticks;
    }
  }
  return slices;
}

/// Calls `fn` every 100 ms on its own thread until destroyed.
class Sampler {
 public:
  explicit Sampler(std::function<void()> fn)
      : fn_(std::move(fn)), thread_([this] { Loop(); }) {}
  ~Sampler() { Stop(); }

  /// Stops sampling; no call of `fn` runs after this returns.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(100),
                         [this] { return stop_; })) {
      lock.unlock();
      fn_();
      lock.lock();
    }
  }

  std::function<void()> fn_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// Fails the run: the reason goes to stderr, the result line carries no
/// metrics.
int Fail(Report* report, const std::string& why) {
  std::fprintf(stderr, "servebench: %s\n", why.c_str());
  report->correct = false;
  report->metrics.clear();
  report->Print();
  return 1;
}

/// Open + preload + warmup + settle: the work the set-up time covers.
Status SetUp(const Workload& w, const ValueBook& values, uint64_t seed,
             uint64_t stream_base, std::unique_ptr<ServingStack>* stack,
             Report* report) {
  Status s = ServingStack::Open(w, stack);
  if (s.ok()) s = Preload(w, values, (*stack)->port());
  if (!s.ok()) return s;
  LoadSpec warm;
  warm.workload = &w;
  warm.values = &values;
  warm.port = (*stack)->port();
  warm.seed = seed;
  warm.stream_base = stream_base;
  warm.op_budget = w.warmup_ops;
  const LoadResult r = RunLoad(warm);
  report->Count(r.attempted, r.failed, r.wrong);
  if (r.failed > 0) {
    std::fprintf(stderr, "warmup: %" PRIu64 " failed ops, first: %s\n",
                 r.failed, r.first_error.c_str());
  }
  (*stack)->WaitIdle();
  return (*stack)->CheckHealth();
}

int RunEndToEnd(const Workload& w, const Args& args) {
  Report report;
  const ValueBook values(args.seed, w.value_bytes);
  std::unique_ptr<ServingStack> stack;
  // Space is read once a set-up has settled: after a fixed number of ops,
  // not of seconds, so a faster store does not show more garbage for
  // having written more in the window.
  std::vector<double> setup_s, allocated;
  for (int i = 0; i < kSetupRepeats; i++) {
    stack.reset();
    const uint64_t t0 = NowNs();
    Status s = SetUp(w, values, args.seed, 100 * (i + 1), &stack, &report);
    if (!s.ok()) return Fail(&report, "set-up: " + s.ToString());
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    allocated.push_back(static_cast<double>(stack->AllocatedBytes()));
  }

  const Scrape before_p = stack->ScrapePrimaries();
  const Scrape before_f = stack->ScrapeFollowers();
  LoadSpec spec;
  spec.workload = &w;
  spec.values = &values;
  spec.port = stack->port();
  spec.seed = args.seed;
  spec.seconds = args.seconds;
  // Memory is sampled through the window, without the DRAM that
  // simulates the PMem media: on the paper's hardware those bytes live
  // on the DIMMs.
  std::vector<WindowSample> samples;
  auto sample = [&] {
    samples.push_back(
        {NowNs(),
         ResidentBytes() - static_cast<double>(stack->MediaResidentBytes()),
         StealTicks()});
  };
  LoadResult load;
  sample();
  {
    Sampler sampler(sample);
    load = RunLoad(spec);
  }
  report.Count(load.attempted, load.failed, load.wrong);
  stack->WaitIdle();
  Status health = stack->CheckHealth();
  if (!health.ok()) return Fail(&report, "health gate: " + health.ToString());
  if (load.failed > 0) {
    std::fprintf(stderr, "%" PRIu64 " failed ops, first: %s\n", load.failed,
                 load.first_error.c_str());
  }
  const Scrape d = Delta(stack->ScrapePrimaries(), before_p);
  const Scrape fd = Delta(stack->ScrapeFollowers(), before_f);

  // Every byte the persistence paths wrote, on every replica, per byte
  // of user data the primaries accepted.
  double written = 0;
  for (const char* name : {"flush.copy_bytes", "lsm.l0_bytes_written",
                           "lsm.compact_bytes_written", "vlog.append_bytes"}) {
    written += Get(d, name) + Get(fd, name);
  }
  const double live_bytes =
      static_cast<double>(w.key_space * (kKeyBytes + w.value_bytes));

  // Throughput and latency come from the slices in which the hypervisor
  // stole at most 2% of the CPUs: time other guests took is no property
  // of the store, and on a shared host it otherwise dominates the
  // run-to-run spread. When fewer than half the slices are clean, all
  // of them count.
  const std::vector<Slice> slices = SliceWindow(load, samples);
  const double max_steal = 0.02 * static_cast<double>(sysconf(_SC_CLK_TCK)) *
                           std::thread::hardware_concurrency();
  std::vector<const Slice*> used;
  for (const Slice& s : slices) {
    if (static_cast<double>(s.steal_ticks) <= max_steal) used.push_back(&s);
  }
  if (used.size() * 2 < slices.size()) {
    std::fprintf(stderr, "host steal above 2%% in %zu of %zu slices\n",
                 slices.size() - used.size(), slices.size());
    used.clear();
    for (const Slice& s : slices) used.push_back(&s);
  }
  std::vector<double> slice_kops;
  std::vector<uint64_t> flight_ns;
  for (const Slice* s : used) {
    slice_kops.push_back(static_cast<double>(s->ok) / 1e3);
    flight_ns.insert(flight_ns.end(), s->flight_ns.begin(),
                     s->flight_ns.end());
  }
  double peak_dram = 0;
  for (const WindowSample& s : samples) {
    peak_dram = std::max(peak_dram, s.dram_bytes);
  }

  report.metrics["kops"] = Median(slice_kops);
  report.metrics["p50_us"] = Percentile(&flight_ns, 50) / 1e3;
  report.metrics["p99_us"] = Percentile(&flight_ns, 99) / 1e3;
  report.metrics["setup_s"] = Median(setup_s);
  report.metrics["rss_mb"] = peak_dram / (1 << 20);
  report.metrics["write_amp"] = Ratio(written, Get(d, "db.ingest_bytes"));
  report.metrics["space_amp"] = Ratio(Median(allocated), live_bytes);
  std::fprintf(stderr,
               "%" PRIu64 " ops in %.3f s; %zu of %zu slices used, %zu "
               "flights\n",
               load.ok, load.seconds, used.size(), slices.size(),
               flight_ns.size());
  report.Print();
  return 0;
}

int RunLayers(const Workload& w, const Args& args) {
  Report report;
  const ValueBook values(args.seed, w.value_bytes);
  std::unique_ptr<ServingStack> stack;
  Status s = SetUp(w, values, args.seed, 100, &stack, &report);
  if (!s.ok()) return Fail(&report, "set-up: " + s.ToString());

  // Two thirds of the run serve load in alternating untraced and traced
  // windows, in ABBA order so drift cancels; the last third probes.
  const int pairs = std::max(1, static_cast<int>(args.seconds / 3));
  const double window_s = args.seconds * 2 / 3 / (2 * pairs);
  const Scrape before = stack->ScrapePrimaries();
  const Scrape before_f = stack->ScrapeFollowers();
  LoadResult traced;
  uint64_t untraced_ok = 0, traced_ok = 0;
  double untraced_s = 0, traced_s = 0;
  uint64_t gets = 0, puts = 0, ops = 0;
  // The lag gauge moves with every commit and ack: average it over the
  // windows rather than read it once after they drained.
  std::vector<double> lag;
  Sampler lag_sampler([&] {
    double sum = 0;
    for (cachekv::DB* db : stack->primaries()) {
      sum += db->metrics()->GetGauge("repl.lag_batches")->Value();
    }
    lag.push_back(sum);
  });
  for (int k = 0; k < 2 * pairs; k++) {
    const bool trace_this = (k % 4 == 1 || k % 4 == 2);
    LoadSpec spec;
    spec.workload = &w;
    spec.values = &values;
    spec.port = stack->port();
    spec.seed = args.seed;
    spec.stream_base = static_cast<uint64_t>(k) * kConnections;
    spec.seconds = window_s;
    spec.trace_sample = trace_this ? kTraceSampleEvery : 0;
    LoadResult r = RunLoad(spec);
    report.Count(r.attempted, r.failed, r.wrong);
    gets += r.gets;
    puts += r.puts;
    ops += r.attempted;
    (trace_this ? traced_ok : untraced_ok) += r.ok;
    (trace_this ? traced_s : untraced_s) += r.seconds;
    if (trace_this) traced.Merge(std::move(r));
  }
  lag_sampler.Stop();
  stack->WaitIdle();
  Status health = stack->CheckHealth();
  if (!health.ok()) return Fail(&report, "health gate: " + health.ToString());
  const Scrape after = stack->ScrapePrimaries();
  const Scrape d = Delta(after, before);
  const Scrape fd = Delta(stack->ScrapeFollowers(), before_f);

  std::map<std::string, double>& m = report.metrics;
  auto mean_of = [&d](const std::string& hist) {
    return Ratio(Get(d, hist + ".sum"), Get(d, hist + ".count"));
  };
  const double db_puts = Get(d, "db.puts");
  const double db_gets = Get(d, "db.gets");

  // net
  m["net.service_us.get"] = mean_of("net.op.get") / 1e3;
  m["net.service_us.put"] = mean_of("net.op.put") / 1e3;
  m["net.queue_us_p50"] = Percentile(&traced.queue_ns, 50) / 1e3;
  m["net.queue_us_p99"] = Percentile(&traced.queue_ns, 99) / 1e3;
  m["net.client_us_p50.get"] = Percentile(&traced.traced_get_ns, 50) / 1e3;
  m["net.client_us_p99.get"] = Percentile(&traced.traced_get_ns, 99) / 1e3;
  m["net.client_us_p50.put"] = Percentile(&traced.traced_put_ns, 50) / 1e3;
  m["net.client_us_p99.put"] = Percentile(&traced.traced_put_ns, 99) / 1e3;
  // Write commits: batched write runs plus the PUTs served alone.
  const double commits = Get(d, "net.batched_writes") + db_puts -
                         Get(d, "net.batched_ops");
  m["net.ops_per_batch"] = Ratio(db_puts, commits);
  // cache
  const double hits = Get(d, "cache.hits");
  m["cache.hit_ratio"] = Ratio(hits, hits + Get(d, "cache.misses"));
  m["cache.invalidations_per_put"] =
      Ratio(Get(d, "cache.invalidations"), static_cast<double>(puts));
  m["cache.rejected_fills_per_kget"] =
      Ratio(1e3 * Get(d, "cache.rejected_fills"), static_cast<double>(gets));
  m["cache.evictions_per_kget"] =
      Ratio(1e3 * Get(d, "cache.evictions"), static_cast<double>(gets));
  // core
  m["core.append_ns"] = mean_of("put.append");
  m["core.acquire_ns"] = mean_of("put.acquire");
  m["core.index_sync_ns"] = mean_of("index.sync");
  m["core.acquire_waits_per_kput"] =
      Ratio(1e3 * Get(d, "db.acquire_waits"), db_puts);
  m["core.seals_per_kput"] = Ratio(1e3 * Get(d, "db.seals"), db_puts);
  m["core.write_stalls"] = Get(d, "db.write_stalls");
  m["core.get_hit.memtable"] = Ratio(Get(d, "db.get_hit_submemtable"), db_gets);
  m["core.get_hit.zone"] = Ratio(Get(d, "db.get_hit_zone"), db_gets);
  m["core.get_hit.lsm"] = Ratio(Get(d, "db.get_hit_lsm"), db_gets);
  m["core.get_hit.miss"] = Ratio(Get(d, "db.get_miss"), db_gets);
  m["core.flush_copy_ms"] = Get(d, "flush.copy.sum") / 1e6;
  m["core.zone_compact_ms"] = Get(d, "zone.compact.sum") / 1e6;
  // lsm
  m["lsm.compaction_write_amp"] = Ratio(
      Get(d, "lsm.l0_bytes_written") + Get(d, "lsm.compact_bytes_written"),
      Get(d, "db.ingest_bytes"));
  m["lsm.compactions"] = Get(d, "lsm.compactions");
  m["lsm.compact_ms"] = Get(d, "lsm.compact.sum") / 1e6;
  const double bloom_checks = Get(d, "lsm.bloom_checks");
  m["lsm.bloom_negative_ratio"] =
      Ratio(Get(d, "lsm.bloom_negatives"), bloom_checks);
  m["lsm.bloom_fp_ratio"] =
      Ratio(Get(d, "lsm.bloom_false_positives"), bloom_checks);
  // vlog
  m["vlog.append_bytes_per_put"] = Ratio(Get(d, "vlog.append_bytes"), db_puts);
  m["vlog.dead_bytes"] = Get(d, "vlog.dead_bytes");
  m["vlog.gc_passes"] = Get(d, "vlog.gc_passes");
  m["vlog.gc_unlinked"] = Get(d, "vlog.gc_unlinked");
  m["vlog.gc_rewrite_bytes"] = Get(d, "vlog.gc_rewrite_bytes");
  m["vlog.read_races"] = Get(d, "vlog.read_races");
  // The gauge reads 1 for an empty log; a bypassed layer reports 0.
  m["vlog.space_amp"] = Get(after, "vlog.appends") > 0
                            ? Get(after, "vlog.space_amp") / kShards
                            : 0;
  // repl
  m["repl.lag_batches"] = Mean(lag);
  m["repl.ack_timeouts"] = Get(d, "repl.ack_timeouts");
  // device
  m["device.injected_ns_per_op"] =
      Ratio(Get(d, "env.injected_ns") + Get(fd, "env.injected_ns"),
            static_cast<double>(ops));
  m["pmem.media_write_amp"] =
      Ratio(Get(d, "env.media_bytes_written"), Get(d, "env.bytes_received"));
  m["pmem.xpbuffer_hit_ratio"] =
      Ratio(Get(d, "env.xpbuffer_hits"), Get(d, "env.lines_received"));
  m["pmem.rmw_per_kput"] = Ratio(1e3 * Get(d, "env.rmw_count"), db_puts);
  // obs
  const double untraced_kops = Ratio(untraced_ok, untraced_s);
  m["trace.overhead_pct"] =
      100 * Ratio(untraced_kops - Ratio(traced_ok, traced_s), untraced_kops);

  const size_t batch_ops = static_cast<size_t>(m["net.ops_per_batch"] + 0.5);
  ProbeResult probe =
      RunProbe(stack.get(), w, values, args.seed, args.seconds / 3, batch_ops);
  report.Count(probe.attempted, probe.failed, probe.wrong);
  if (probe.failed > 0) {
    std::fprintf(stderr, "probe: %" PRIu64 " failed calls, first: %s\n",
                 probe.failed, probe.first_error.c_str());
  }
  m.insert(probe.metrics.begin(), probe.metrics.end());
  stack->WaitIdle();
  health = stack->CheckHealth();
  if (!health.ok()) return Fail(&report, "health gate: " + health.ToString());
  report.Print();
  return 0;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME [--seed S] [--seconds N] "
               "[--trace 0|1] [--key-space N] [--read-pct P]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return Usage(argv[0]);
    const char* flag = argv[i];
    const char* v = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = v;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::atof(v);
    } else if (std::strcmp(flag, "--trace") == 0) {
      args.trace = std::atoi(v);
    } else if (std::strcmp(flag, "--key-space") == 0) {
      args.key_space = std::strtoll(v, nullptr, 10);
    } else if (std::strcmp(flag, "--read-pct") == 0) {
      args.read_pct = std::atoi(v);
    } else {
      return Usage(argv[0]);
    }
  }
  const Workload* named = FindWorkload(args.workload);
  if (named == nullptr || args.seconds <= 0 ||
      (args.trace != 0 && args.trace != 1)) {
    return Usage(argv[0]);
  }
  Workload w = *named;
  if (args.key_space > 0) w.key_space = static_cast<uint64_t>(args.key_space);
  if (args.read_pct >= 0) w.read_pct = std::min(args.read_pct, 100);
  return args.trace == 0 ? RunEndToEnd(w, args) : RunLayers(w, args);
}
