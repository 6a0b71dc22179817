#include "cache/hot_key_cache.h"

#include <algorithm>

#include "fault/fail_point.h"
#include "util/hash.h"

namespace cachekv {
namespace cache {

namespace {

/// 64 bytes models the map node + list node + bookkeeping per entry so
/// the byte budget tracks real memory, not just payload.
constexpr size_t kEntryOverhead = 64;

uint32_t RoundUpPow2(uint32_t v) {
  uint32_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

struct HotKeyCache::Stripe {
  std::mutex mu;
  /// Front = most recently used.
  std::list<Entry> lru;
  /// Keyed by views of the entries' own keys, so each key is stored once
  /// (list nodes never move) and a probe allocates nothing.
  std::unordered_map<std::string_view, std::list<Entry>::iterator> index;
  size_t charge = 0;
  /// Invalidation guard epochs, hashed per key. Only ever touched under
  /// `mu`, which is what makes the fill-token protocol airtight (see
  /// the header's interleaving analysis).
  std::vector<uint64_t> guard;
};

HotKeyCache::HotKeyCache(const HotKeyCacheOptions& options,
                         obs::MetricsRegistry* registry)
    : options_(options) {
  const uint32_t num_stripes =
      RoundUpPow2(options_.stripes < 1 ? 1u
                                       : static_cast<uint32_t>(
                                             options_.stripes));
  stripe_mask_ = num_stripes - 1;
  per_stripe_capacity_ =
      std::max<size_t>(1, options_.capacity_bytes / num_stripes);
  const uint32_t slots = RoundUpPow2(std::max<uint32_t>(
      1, static_cast<uint32_t>(options_.guard_slots)));
  slot_mask_ = slots - 1;
  stripes_.reserve(num_stripes);
  for (uint32_t i = 0; i < num_stripes; i++) {
    auto s = std::make_unique<Stripe>();
    s->guard.assign(slots, 0);
    stripes_.push_back(std::move(s));
  }

  // Sketch width scales with how many entries the budget could hold
  // (≈1 KiB apiece is a fine guess — only the estimate quality moves).
  const uint32_t width = RoundUpPow2(static_cast<uint32_t>(std::min<size_t>(
      1u << 20,
      std::max<size_t>(1024, options_.capacity_bytes / 1024))));
  sketch_width_mask_ = width - 1;
  sketch_ = std::vector<std::atomic<uint32_t>>(
      static_cast<size_t>(kSketchRows) * width);

  hits_ = registry->GetCounter("cache.hits");
  misses_ = registry->GetCounter("cache.misses");
  admissions_ = registry->GetCounter("cache.admissions");
  evictions_ = registry->GetCounter("cache.evictions");
  invalidations_ = registry->GetCounter("cache.invalidations");
  refreshes_ = registry->GetCounter("cache.refreshes");
  rejected_fills_ = registry->GetCounter("cache.rejected_fills");
  filtered_ = registry->GetCounter("cache.filtered");
  entries_gauge_ = registry->GetGauge("cache.entries");
  bytes_gauge_ = registry->GetGauge("cache.bytes");
}

HotKeyCache::~HotKeyCache() = default;

HotKeyCache::Stripe* HotKeyCache::StripeFor(uint64_t hash) const {
  return stripes_[hash & stripe_mask_].get();
}

uint32_t HotKeyCache::SketchTouch(uint64_t hash) {
  SketchAgeIfDue();
  uint32_t estimate = UINT32_MAX;
  uint64_t h = hash;
  const size_t width = static_cast<size_t>(sketch_width_mask_) + 1;
  for (int row = 0; row < kSketchRows; row++) {
    h = Mix64(h + static_cast<uint64_t>(row) * 0x9e3779b97f4a7c15ULL);
    std::atomic<uint32_t>& cell =
        sketch_[static_cast<size_t>(row) * width +
                (h & sketch_width_mask_)];
    const uint32_t after =
        cell.fetch_add(1, std::memory_order_relaxed) + 1;
    estimate = std::min(estimate, after);
  }
  return estimate;
}

void HotKeyCache::SketchAgeIfDue() {
  // Halve every cell once the touch budget (8x the width) is spent, so
  // yesterday's hot set cannot pin the admission filter forever. One
  // thread ages at a time; concurrent increments racing the halving
  // only blur an estimator that is approximate by design.
  const uint64_t budget =
      (static_cast<uint64_t>(sketch_width_mask_) + 1) * 8;
  if (sketch_touches_.fetch_add(1, std::memory_order_relaxed) < budget) {
    return;
  }
  bool expected = false;
  if (!sketch_aging_.compare_exchange_strong(expected, true,
                                             std::memory_order_acq_rel)) {
    return;
  }
  for (std::atomic<uint32_t>& cell : sketch_) {
    cell.store(cell.load(std::memory_order_relaxed) / 2,
               std::memory_order_relaxed);
  }
  sketch_touches_.store(0, std::memory_order_relaxed);
  sketch_aging_.store(false, std::memory_order_release);
}

bool HotKeyCache::Lookup(const Slice& key, std::string* value,
                         FillToken* token) {
  const uint64_t hash = Hash64(key.data(), key.size(), 0xcafe);
  SketchTouch(hash);
  Stripe* stripe = StripeFor(hash);
  const uint32_t slot = static_cast<uint32_t>(hash >> 32) & slot_mask_;
  std::lock_guard<std::mutex> lock(stripe->mu);
  auto it = stripe->index.find(key.ToStringView());
  if (it != stripe->index.end()) {
    *value = it->second->value;
    stripe->lru.splice(stripe->lru.begin(), stripe->lru, it->second);
    hits_->Increment();
    return true;
  }
  if (token != nullptr) {
    token->stripe = static_cast<uint32_t>(hash & stripe_mask_);
    token->slot = slot;
    token->epoch = stripe->guard[slot];
  }
  misses_->Increment();
  return false;
}

bool HotKeyCache::Insert(const Slice& key, const Slice& value,
                         const FillToken& token, uint64_t seq) {
  if (fault::AnyActive()) {
    // "cache.poison": a delay here widens the classic miss -> overwrite
    // -> stale-fill window the token guard exists for; an error drops
    // the fill outright.
    if (!fault::Inject("cache.poison").ok()) {
      rejected_fills_->Increment();
      return false;
    }
  }
  if (value.size() > options_.max_value_bytes) {
    filtered_->Increment();
    return false;
  }
  const uint64_t hash = Hash64(key.data(), key.size(), 0xcafe);
  // Admission: the sketch already counted this access in the Lookup
  // miss, so a read-only estimate (no extra touch) is compared here.
  uint32_t estimate = UINT32_MAX;
  uint64_t h = hash;
  const size_t width = static_cast<size_t>(sketch_width_mask_) + 1;
  for (int row = 0; row < kSketchRows; row++) {
    h = Mix64(h + static_cast<uint64_t>(row) * 0x9e3779b97f4a7c15ULL);
    estimate = std::min(
        estimate, sketch_[static_cast<size_t>(row) * width +
                          (h & sketch_width_mask_)]
                      .load(std::memory_order_relaxed));
  }
  if (estimate < std::max<uint32_t>(1, options_.admit_threshold)) {
    filtered_->Increment();
    return false;
  }

  Stripe* stripe = StripeFor(hash);
  const uint32_t slot = static_cast<uint32_t>(hash >> 32) & slot_mask_;
  std::lock_guard<std::mutex> lock(stripe->mu);
  if (stripe->guard[slot] != token.epoch) {
    // A write touched this key (or a guard-slot neighbor) after our
    // Lookup miss: the value in hand may predate an acked overwrite.
    rejected_fills_->Increment();
    return false;
  }
  auto it = stripe->index.find(key.ToStringView());
  if (it != stripe->index.end()) {
    // Another reader filled it first: keep whichever version is newer.
    if (it->second->seq >= seq) {
      stripe->lru.splice(stripe->lru.begin(), stripe->lru, it->second);
    } else {
      Replace(stripe, it->second, value, seq);
    }
  } else {
    const size_t charge = key.size() + value.size() + kEntryOverhead;
    stripe->lru.push_front(Entry{key.ToString(), value.ToString(), seq,
                                 charge});
    stripe->index.emplace(stripe->lru.front().key, stripe->lru.begin());
    stripe->charge += charge;
    total_charge_.fetch_add(charge, std::memory_order_relaxed);
    total_entries_.fetch_add(1, std::memory_order_relaxed);
    admissions_->Increment();
    EvictOverBudget(stripe);
  }
  PublishGauges();
  return true;
}

std::unique_lock<std::mutex> HotKeyCache::LockForWrite(const Slice& key,
                                                       Stripe** stripe) {
  if (fault::AnyActive()) {
    // "cache.invalidate": only the delay action matters (it models a
    // slow write path between commit and ack). Error statuses are
    // ignored on purpose — a write's guard bump must never be skipped,
    // or an acked overwrite could stay shadowed forever.
    (void)fault::Inject("cache.invalidate");
  }
  const uint64_t hash = Hash64(key.data(), key.size(), 0xcafe);
  *stripe = StripeFor(hash);
  const uint32_t slot = static_cast<uint32_t>(hash >> 32) & slot_mask_;
  std::unique_lock<std::mutex> lock((*stripe)->mu);
  (*stripe)->guard[slot]++;
  invalidations_->Increment();
  return lock;
}

void HotKeyCache::Refresh(const Slice& key, const Slice& value,
                          uint64_t seq) {
  Stripe* stripe = nullptr;
  std::unique_lock<std::mutex> lock = LockForWrite(key, &stripe);
  auto it = stripe->index.find(key.ToStringView());
  if (it == stripe->index.end() || it->second->seq >= seq) {
    return;  // not cached, or a newer version already is
  }
  if (value.size() > options_.max_value_bytes) {
    Erase(stripe, it->second);
  } else {
    Replace(stripe, it->second, value, seq);
    refreshes_->Increment();
  }
  PublishGauges();
}

void HotKeyCache::Invalidate(const Slice& key) {
  Stripe* stripe = nullptr;
  std::unique_lock<std::mutex> lock = LockForWrite(key, &stripe);
  auto it = stripe->index.find(key.ToStringView());
  if (it != stripe->index.end()) {
    Erase(stripe, it->second);
  }
}

void HotKeyCache::Replace(Stripe* stripe, std::list<Entry>::iterator entry,
                          const Slice& value, uint64_t seq) {
  const size_t charge = entry->key.size() + value.size() + kEntryOverhead;
  stripe->charge = stripe->charge - entry->charge + charge;
  total_charge_.fetch_add(charge, std::memory_order_relaxed);
  total_charge_.fetch_sub(entry->charge, std::memory_order_relaxed);
  entry->value.assign(value.data(), value.size());
  entry->seq = seq;
  entry->charge = charge;
  stripe->lru.splice(stripe->lru.begin(), stripe->lru, entry);
  // A grown entry counts against the budget like a new one.
  EvictOverBudget(stripe);
}

void HotKeyCache::EvictOverBudget(Stripe* stripe) {
  while (stripe->charge > per_stripe_capacity_ && stripe->lru.size() > 1) {
    Erase(stripe, std::prev(stripe->lru.end()));
    evictions_->Increment();
  }
}

void HotKeyCache::Erase(Stripe* stripe, std::list<Entry>::iterator entry) {
  stripe->charge -= entry->charge;
  total_charge_.fetch_sub(entry->charge, std::memory_order_relaxed);
  total_entries_.fetch_sub(1, std::memory_order_relaxed);
  stripe->index.erase(entry->key);
  stripe->lru.erase(entry);
}

void HotKeyCache::PublishGauges() {
  entries_gauge_->Set(
      static_cast<double>(total_entries_.load(std::memory_order_relaxed)));
  bytes_gauge_->Set(
      static_cast<double>(total_charge_.load(std::memory_order_relaxed)));
}

void HotKeyCache::Clear() {
  for (auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    for (uint64_t& epoch : stripe->guard) epoch++;
    total_charge_.fetch_sub(stripe->charge, std::memory_order_relaxed);
    total_entries_.fetch_sub(stripe->lru.size(),
                             std::memory_order_relaxed);
    stripe->charge = 0;
    stripe->index.clear();
    stripe->lru.clear();
  }
  PublishGauges();
}

size_t HotKeyCache::entries() const {
  return total_entries_.load(std::memory_order_relaxed);
}

size_t HotKeyCache::charge_bytes() const {
  return total_charge_.load(std::memory_order_relaxed);
}

}  // namespace cache
}  // namespace cachekv
