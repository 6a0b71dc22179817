// The layer probe: replays the workload's op stream from kProbeThreads
// threads directly against each layer's public functions, in process,
// and times every call. It attributes time to the decoder, the router,
// the hot-key cache, the DB and replication without instrumenting them.

#ifndef SERVEBENCH_PROBE_H_
#define SERVEBENCH_PROBE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "stack.h"
#include "workload.h"

namespace servebench {

struct ProbeResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Reads that returned a wrong payload or NotFound.
  uint64_t wrong = 0;
  std::string first_error;
  /// net.decode_ns, net.route_ns, cache.{lookup,insert,invalidate}_ns,
  /// core.{put,get}_ns_{p50,p99}, repl.ack_wait_us_{p50,p99},
  /// device.share.
  std::map<std::string, double> metrics;
};

/// Probes the live stack's primaries (the server stays up, idle) for
/// about `seconds`. Writes go through DB::ApplyBatch in batches of
/// `batch_ops`, the server's observed write-run size.
ProbeResult RunProbe(ServingStack* stack, const Workload& w,
                     const ValueBook& values, uint64_t seed, double seconds,
                     size_t batch_ops);

}  // namespace servebench

#endif  // SERVEBENCH_PROBE_H_
