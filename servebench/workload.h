// Workload definitions and input generation for the serving benchmark.
//
// Inputs are generated here, not by the store's own helpers, so a change
// to the system under test can never change what the benchmark sends.
// Everything is a pure function of (workload, seed, stream id).

#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/slice.h"

namespace servebench {

/// Fixed client shape of every workload: one process, 4 closed-loop
/// client threads (one ShardedClient each), 8 requests per flight.
constexpr int kConnections = 4;
constexpr int kPipeline = 8;
constexpr size_t kKeyBytes = 16;

/// One named traffic mix plus the store tuning it runs against.
struct Workload {
  const char* name = "";
  uint64_t key_space = 0;
  size_t value_bytes = 0;
  int read_pct = 0;
  /// 0 = uniform keys; otherwise the zipfian skew.
  double zipf_theta = 0;
  /// Unmeasured ops run after the preload, as part of set-up.
  uint64_t warmup_ops = 0;
  /// Store tuning; 0 keeps the CacheKVOptions default.
  uint64_t sub_memtable_kb = 0;
  uint64_t zone_flush_kb = 0;
  /// Holds value-log GC off: no segment is ever reclaimed, so the log
  /// only grows (servebench/README.md, defect d).
  bool no_vlog_gc = false;
  /// Adds an in-process follower; every write waits for its ack (a
  /// quorum of one).
  bool follower = false;
};

/// The named workload, or nullptr.
const Workload* FindWorkload(const std::string& name);

/// "user" + the zero-padded index: kKeyBytes bytes.
std::string KeyOf(uint64_t index);

/// Deterministic value payloads: the key itself followed by a window of
/// seeded noise, so a GET answered with another key's value, a torn
/// value, or a value from another seed is caught by Matches().
class ValueBook {
 public:
  ValueBook(uint64_t seed, size_t value_bytes);

  /// Writes the value of key `index` into *out.
  void Fill(uint64_t index, std::string* out) const;
  bool Matches(uint64_t index, const cachekv::Slice& value) const;

 private:
  size_t Offset(uint64_t index) const;

  uint64_t seed_;
  size_t value_bytes_;
  std::string noise_;
};

struct Op {
  bool get = true;
  uint64_t index = 0;
};

/// One client's op stream: read/write mix and key choice of the
/// workload. Distinct stream ids give independent streams.
class OpStream {
 public:
  OpStream(const Workload& w, uint64_t seed, uint64_t stream_id);

  Op Next();

 private:
  uint64_t NextRandom();
  double NextUnit();
  uint64_t NextIndex();

  const Workload& w_;
  uint64_t state_;
  // Zipfian constants (Gray et al., "Quickly generating billion-record
  // synthetic databases"), as in YCSB's generator.
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
  double half_pow_theta_ = 0;
};

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
