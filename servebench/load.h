// Closed-loop client load against the stack's server: kConnections
// threads, each with its own ShardedClient, each sending flights of
// kPipeline requests and waiting for the whole flight before the next.

#ifndef SERVEBENCH_LOAD_H_
#define SERVEBENCH_LOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"
#include "workload.h"

namespace servebench {

struct LoadSpec {
  const Workload* workload = nullptr;
  const ValueBook* values = nullptr;
  uint16_t port = 0;
  uint64_t seed = 0;
  /// Names the op streams: each phase of a run draws fresh streams.
  uint64_t stream_base = 0;
  /// The load stops after this many ops in all (0: no op budget) ...
  uint64_t op_budget = 0;
  /// ... or after this long (0: no deadline), whichever comes first.
  double seconds = 0;
  /// Every Nth request per connection goes out as a traced frame (0:
  /// none).
  uint32_t trace_sample = 0;
};

struct LoadResult {
  double seconds = 0;
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t gets = 0;
  uint64_t puts = 0;
  /// Error statuses, transport failures and wrong payloads.
  uint64_t failed = 0;
  /// GETs answered with a payload other than the key's value, or with
  /// NotFound for a preloaded key: incorrect outputs.
  uint64_t wrong = 0;
  std::string first_error;
  /// Steady-clock start of the load, in ns.
  uint64_t start_ns = 0;
  /// One record per flight: when it completed, its latency (flush of the
  /// first request to the last response) and its successful ops.
  struct Flight {
    uint64_t end_ns;
    uint64_t ns;
    uint64_t ok;
  };
  std::vector<Flight> flights;
  /// Traced requests: client-observed latency per op class, and client
  /// minus server-reported time (network + queueing).
  std::vector<uint64_t> traced_get_ns;
  std::vector<uint64_t> traced_put_ns;
  std::vector<uint64_t> queue_ns;

  /// Adds `other`'s counts and samples (not its timing) to this one.
  void Merge(LoadResult&& other);
};

LoadResult RunLoad(const LoadSpec& spec);

/// Writes every key of the workload once, pipelined, from kConnections
/// threads.
cachekv::Status Preload(const Workload& w, const ValueBook& values,
                        uint16_t port);

/// steady_clock now, in ns.
uint64_t NowNs();

/// The p-th percentile (0..100) of `v` by nearest rank; 0 when empty.
/// Reorders `v`.
double Percentile(std::vector<uint64_t>* v, double p);

}  // namespace servebench

#endif  // SERVEBENCH_LOAD_H_
