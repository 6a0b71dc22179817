#ifndef CACHEKV_BENCH_STORES_H_
#define CACHEKV_BENCH_STORES_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/kvstore.h"
#include "core/db.h"
#include "pmem/pmem_env.h"

namespace cachekv {
namespace bench {

/// Systems under test in the paper's evaluation (§IV-A plus the CacheKV
/// technique breakdown of §IV-B).
enum class SystemKind {
  kCacheKV,
  kCacheKVPcsm,     // per-core sub-MemTables only
  kCacheKVPcsmLiu,  // + lazy index update, no sub-skiplist compaction
  kNoveLsm,
  kNoveLsmNoFlush,
  kNoveLsmCache,
  kSlmDb,
  kSlmDbNoFlush,
  kSlmDbCache,
};

std::string SystemName(SystemKind kind);

/// Knobs the figure harnesses tweak per experiment.
struct StoreConfig {
  double latency_scale = 1.0;
  /// CacheKV pool geometry (Exp#6/Exp#7 sweep these).
  uint64_t pool_bytes = 12ull << 20;
  uint64_t sub_memtable_bytes = 2ull << 20;
  int num_flush_threads = 1;
  int num_index_threads = 1;
  int num_cores = 24;
  /// Simulated PMem capacity (all SSTables live there, as in the paper).
  uint64_t pmem_capacity = 4ull << 30;
  uint64_t llc_capacity = 36ull << 20;
  /// CAT segment used by the -cache baseline variants (paper: 12 MB).
  /// Figure harnesses that scale the LLC down scale this with it.
  uint64_t baseline_segment_bytes = 12ull << 20;
  /// Persistent MemTable size of the baselines (paper: 4 GB, scaled).
  uint64_t baseline_memtable_bytes = 64ull << 20;
};

/// One system under test together with the environment it runs on (each
/// bundle gets a private environment so hardware counters are not
/// shared).
struct StoreBundle {
  std::unique_ptr<PmemEnv> env;
  std::unique_ptr<KVStore> store;
  /// Non-null when `store` is a CacheKV DB (any ablation): the same
  /// object downcast, for metrics/trace access. Owned by `store`.
  DB* cachekv = nullptr;
};

/// Builds a ready-to-use store of the given kind.
Status MakeStore(SystemKind kind, const StoreConfig& config,
                 StoreBundle* bundle);

/// The six-system comparison set of Exp#1-#4.
std::vector<SystemKind> ComparisonSet();

/// The CacheKV technique-breakdown set (PCSM, PCSM+LIU, CacheKV).
std::vector<SystemKind> BreakdownSet();

}  // namespace bench
}  // namespace cachekv

#endif  // CACHEKV_BENCH_STORES_H_
