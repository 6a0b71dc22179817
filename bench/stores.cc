#include "stores.h"

#include "baselines/novelsm.h"
#include "baselines/slmdb.h"
#include "core/options.h"

namespace cachekv {
namespace bench {

std::string SystemName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kCacheKV:
      return "CacheKV";
    case SystemKind::kCacheKVPcsm:
      return "PCSM";
    case SystemKind::kCacheKVPcsmLiu:
      return "PCSM+LIU";
    case SystemKind::kNoveLsm:
      return "NoveLSM";
    case SystemKind::kNoveLsmNoFlush:
      return "NoveLSM-w/o-flush";
    case SystemKind::kNoveLsmCache:
      return "NoveLSM-cache";
    case SystemKind::kSlmDb:
      return "SLM-DB";
    case SystemKind::kSlmDbNoFlush:
      return "SLM-DB-w/o-flush";
    case SystemKind::kSlmDbCache:
      return "SLM-DB-cache";
  }
  return "unknown";
}

std::vector<SystemKind> ComparisonSet() {
  return {SystemKind::kCacheKV,        SystemKind::kNoveLsm,
          SystemKind::kNoveLsmCache,   SystemKind::kSlmDb,
          SystemKind::kSlmDbCache};
}

std::vector<SystemKind> BreakdownSet() {
  return {SystemKind::kCacheKVPcsm, SystemKind::kCacheKVPcsmLiu,
          SystemKind::kCacheKV};
}

namespace {

bool IsCacheKV(SystemKind kind) {
  return kind == SystemKind::kCacheKV ||
         kind == SystemKind::kCacheKVPcsm ||
         kind == SystemKind::kCacheKVPcsmLiu;
}

bool IsCachePinned(SystemKind kind) {
  return kind == SystemKind::kNoveLsmCache ||
         kind == SystemKind::kSlmDbCache;
}

BaselineVariant VariantOf(SystemKind kind) {
  switch (kind) {
    case SystemKind::kNoveLsmNoFlush:
    case SystemKind::kSlmDbNoFlush:
      return BaselineVariant::kNoFlush;
    case SystemKind::kNoveLsmCache:
    case SystemKind::kSlmDbCache:
      return BaselineVariant::kCachePinned;
    default:
      return BaselineVariant::kRaw;
  }
}

}  // namespace

Status MakeStore(SystemKind kind, const StoreConfig& config,
                 StoreBundle* bundle) {
  EnvOptions env_opts;
  env_opts.pmem_capacity = config.pmem_capacity;
  env_opts.llc_capacity = config.llc_capacity;
  env_opts.latency.scale = config.latency_scale;
  env_opts.domain = PersistDomain::kEadr;
  if (IsCacheKV(kind)) {
    env_opts.cat_locked_bytes = config.pool_bytes;
  } else if (IsCachePinned(kind)) {
    env_opts.cat_locked_bytes = config.baseline_segment_bytes;
  }
  bundle->env = std::make_unique<PmemEnv>(env_opts);

  switch (kind) {
    case SystemKind::kCacheKV:
    case SystemKind::kCacheKVPcsm:
    case SystemKind::kCacheKVPcsmLiu: {
      CacheKVOptions opts;
      opts.pool_bytes = config.pool_bytes;
      opts.sub_memtable_bytes = config.sub_memtable_bytes;
      opts.num_cores = config.num_cores;
      opts.num_flush_threads = config.num_flush_threads;
      opts.num_index_threads = config.num_index_threads;
      opts.lazy_index_update = (kind != SystemKind::kCacheKVPcsm);
      opts.zone_compaction = (kind == SystemKind::kCacheKV);
      std::unique_ptr<DB> db;
      Status s = DB::Open(bundle->env.get(), opts, false, &db);
      if (!s.ok()) return s;
      bundle->cachekv = db.get();
      bundle->store = std::move(db);
      return Status::OK();
    }
    case SystemKind::kNoveLsm:
    case SystemKind::kNoveLsmNoFlush:
    case SystemKind::kNoveLsmCache: {
      NoveLsmOptions opts;
      opts.variant = VariantOf(kind);
      opts.pmem_memtable_bytes = config.baseline_memtable_bytes;
      opts.segment_bytes = config.baseline_segment_bytes;
      std::unique_ptr<NoveLsmStore> store;
      Status s = NoveLsmStore::Open(bundle->env.get(), opts, &store);
      if (!s.ok()) return s;
      bundle->store = std::move(store);
      return Status::OK();
    }
    case SystemKind::kSlmDb:
    case SystemKind::kSlmDbNoFlush:
    case SystemKind::kSlmDbCache: {
      SlmDbOptions opts;
      opts.variant = VariantOf(kind);
      opts.pmem_memtable_bytes = config.baseline_memtable_bytes;
      opts.segment_bytes = config.baseline_segment_bytes;
      opts.bptree_bytes = 512ull << 20;
      std::unique_ptr<SlmDbStore> store;
      Status s = SlmDbStore::Open(bundle->env.get(), opts, &store);
      if (!s.ok()) return s;
      bundle->store = std::move(store);
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown system kind");
}

}  // namespace bench
}  // namespace cachekv
