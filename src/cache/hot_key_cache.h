#ifndef CACHEKV_CACHE_HOT_KEY_CACHE_H_
#define CACHEKV_CACHE_HOT_KEY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "util/slice.h"

namespace cachekv {
namespace cache {

/// Tuning knobs of one HotKeyCache instance.
struct HotKeyCacheOptions {
  /// Total byte budget (keys + values + per-entry overhead), split
  /// evenly across the stripes.
  size_t capacity_bytes = 8u << 20;
  /// A fill is admitted only once the key's estimated access frequency
  /// (Count-Min sketch, incremented per lookup) reaches this. 2 keeps
  /// one-hit wonders out; 1 admits every miss; 0 behaves like 1.
  uint32_t admit_threshold = 2;
  /// Values larger than this are never cached (they would evict a whole
  /// working set of hot entries for one cold read).
  size_t max_value_bytes = 64u << 10;
  /// Lock stripes; rounded up to a power of two.
  int stripes = 8;
  /// Invalidation-guard epoch slots per stripe; power of two.
  size_t guard_slots = 512;
};

/// Read-through hot-key cache: a striped, byte-bounded LRU map with a
/// Count-Min-sketch frequency admission filter, sitting in front of
/// DB::Get on the server's read path (docs/ARCHITECTURE.md).
///
/// Coherence protocol. The cache itself cannot know when the store
/// changes, so the caller must, after every committed write of `key`
/// and before acknowledging it, either Refresh(key, value, seq) the
/// entry to the committed version (a PUT) or Invalidate(key) it (a
/// delete, or a commit that failed). Every entry carries the sequence
/// number of the version it holds, and neither Refresh nor Insert ever
/// replaces an entry with a lower-sequence version, so two writers'
/// updates of one key land in commit order whatever order they arrive
/// in. The remaining hazard is the read-side fill race:
///
///   reader: Lookup(k) -> miss          writer: DB commits k=v2
///   reader: DB::Get(k) -> v1 (stale)   writer: Refresh(k, v2); ack v2
///   reader: Insert(k, v1)              <- must NOT be published!
///
/// Lookup therefore hands the reader a FillToken carrying the epoch of
/// the key's guard slot, and Insert republishes only while that epoch
/// is unchanged. Refresh and Invalidate both bump the guard slot.
/// All of them touch the guard under the stripe mutex, so for any
/// reader/writer pair only three interleavings exist, each safe:
///  - the write's bump before Lookup: the mutex orders the writer's
///    commit before the reader's DB::Get, which then sees v2 or newer;
///  - the bump between Lookup and Insert: the token is stale and the
///    fill is rejected (counted in cache.rejected_fills);
///  - the bump after Insert: the entry exists, so Refresh replaces it
///    with v2 (unless it already holds a newer version) and Invalidate
///    erases it, before the writer acks.
/// Hence once a write is acked the cache holds nothing for its key, or
/// a version whose sequence is at least the write's — an acked
/// overwrite can never be shadowed. Refresh never admits an uncached
/// key (admission stays read-driven). Guard slots are hashed
/// (guard_slots per stripe), so collisions only over-reject fills; they
/// never admit a stale one.
///
/// Fail points (runtime-registered, not part of the crash-sweep builtin
/// list — see src/fault/fail_point.cc):
///  - "cache.poison": evaluated at the top of Insert. A delay action
///    widens the miss->overwrite->fill race window so the token guard
///    is exercised; an error action drops the fill entirely.
///  - "cache.invalidate": evaluated at the top of Refresh and
///    Invalidate. Only the delay action is honored — error statuses are
///    deliberately ignored because skipping a write's guard bump would
///    break the protocol above.
///
/// Metrics (registered in `registry`): cache.hits, cache.misses,
/// cache.admissions, cache.evictions, cache.invalidations (one per
/// written key, Refresh or Invalidate), cache.refreshes (entries a
/// Refresh replaced in place), cache.rejected_fills (token-guard
/// rejections), cache.filtered (admission-filter rejections), and
/// gauges cache.entries/cache.bytes.
///
/// Thread safety: fully thread-safe; every public call takes exactly
/// one stripe mutex (Clear takes them one at a time).
class HotKeyCache {
 public:
  /// `registry` must outlive the cache and must not be null.
  HotKeyCache(const HotKeyCacheOptions& options,
              obs::MetricsRegistry* registry);
  ~HotKeyCache();

  HotKeyCache(const HotKeyCache&) = delete;
  HotKeyCache& operator=(const HotKeyCache&) = delete;

  /// Capability to publish a value read from the store no earlier than
  /// the Lookup miss that produced the token.
  struct FillToken {
    uint32_t stripe = 0;
    uint32_t slot = 0;
    uint64_t epoch = 0;
  };

  /// On hit: copies the cached value into *value, refreshes LRU order
  /// and returns true. On miss: fills *token (when non-null) for a
  /// subsequent Insert and returns false.
  bool Lookup(const Slice& key, std::string* value, FillToken* token);

  /// Publishes a value the caller read from the store after the Lookup
  /// miss that produced `token`; `seq` is the sequence of the version
  /// read (DB::Get reports it; 0 = unknown, which never replaces a
  /// cached entry). Dropped (returns false) when the token's guard epoch
  /// has moved (a write touched the key in the meantime), when the
  /// admission filter rejects the key, when the value exceeds
  /// max_value_bytes, or when "cache.poison" fires with an error action.
  /// An entry already holding a version at or above `seq` is kept
  /// (returns true).
  bool Insert(const Slice& key, const Slice& value, const FillToken& token,
              uint64_t seq = 0);

  /// A committed PUT of `key` = `value` at sequence `seq`: bumps the
  /// key's guard slot so in-flight fills of older values are rejected,
  /// and replaces a cached entry holding a lower sequence. Never admits
  /// an uncached key; erases the entry when `value` exceeds
  /// max_value_bytes. Callers must invoke this after the store commit
  /// and before acking the write.
  void Refresh(const Slice& key, const Slice& value, uint64_t seq);

  /// Erases any cached entry for `key` and bumps its guard slot so
  /// in-flight fills of the old value are rejected. Callers must invoke
  /// this after a delete or a failed commit and before acking it.
  void Invalidate(const Slice& key);

  /// Drops every entry and bumps every guard slot.
  void Clear();

  size_t entries() const;
  size_t charge_bytes() const;
  const HotKeyCacheOptions& options() const { return options_; }

 private:
  struct Entry {
    std::string key;
    std::string value;
    uint64_t seq = 0;
    size_t charge = 0;
  };
  struct Stripe;

  Stripe* StripeFor(uint64_t hash) const;
  /// The write half of the protocol, shared by Refresh and Invalidate:
  /// evaluates "cache.invalidate", locks the key's stripe, bumps the
  /// key's guard slot and counts an invalidation.
  std::unique_lock<std::mutex> LockForWrite(const Slice& key,
                                            Stripe** stripe);
  /// Replaces `entry`'s value in place and moves it to the LRU front,
  /// then evicts from the LRU tail until the stripe fits its budget.
  void Replace(Stripe* stripe, std::list<Entry>::iterator entry,
               const Slice& value, uint64_t seq);
  /// Evicts LRU-tail entries while the stripe is over its budget.
  void EvictOverBudget(Stripe* stripe);
  /// Unlinks `entry` from the stripe's map, LRU list and byte counts.
  void Erase(Stripe* stripe, std::list<Entry>::iterator entry);
  void PublishGauges();
  /// Count-Min estimate after counting this access.
  uint32_t SketchTouch(uint64_t hash);
  void SketchAgeIfDue();

  const HotKeyCacheOptions options_;
  size_t per_stripe_capacity_;
  uint32_t stripe_mask_;
  uint32_t slot_mask_;
  std::vector<std::unique_ptr<Stripe>> stripes_;

  // Count-Min sketch: kSketchRows rows of width_ relaxed counters.
  // Increments race benignly (it is an estimator); aging halves every
  // cell once the touch budget is spent so old hotness decays.
  static constexpr int kSketchRows = 4;
  uint32_t sketch_width_mask_;
  std::vector<std::atomic<uint32_t>> sketch_;
  std::atomic<uint64_t> sketch_touches_{0};
  std::atomic<bool> sketch_aging_{false};

  std::atomic<size_t> total_entries_{0};
  std::atomic<size_t> total_charge_{0};

  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* admissions_;
  obs::Counter* evictions_;
  obs::Counter* invalidations_;
  obs::Counter* refreshes_;
  obs::Counter* rejected_fills_;
  obs::Counter* filtered_;
  obs::Gauge* entries_gauge_;
  obs::Gauge* bytes_gauge_;
};

}  // namespace cache
}  // namespace cachekv

#endif  // CACHEKV_CACHE_HOT_KEY_CACHE_H_
