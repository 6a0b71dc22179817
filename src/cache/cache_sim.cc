#include "cache/cache_sim.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace cachekv {

CacheSim::CacheSim(const CacheConfig& config, PmemDevice* device,
                   LatencyModel* latency)
    : config_(config), device_(device), latency_(latency) {
  locked_base_.store(config_.locked_base, std::memory_order_release);
  assert(config_.ways >= 1);
  assert(IsAligned(config_.locked_base, kCacheLineSize));
  assert(IsAligned(config_.locked_size, kCacheLineSize));
  assert(config_.locked_size <= config_.capacity);
  uint64_t normal_capacity = config_.capacity - config_.locked_size;
  num_sets_ = static_cast<size_t>(
      normal_capacity / (kCacheLineSize * config_.ways));
  if (num_sets_ == 0) {
    num_sets_ = 1;
  }
  ways_.resize(num_sets_ * config_.ways);
  set_tick_.assign(num_sets_, 0);
  locked_.resize(config_.locked_size / kCacheLineSize);
  shard_mu_ = std::make_unique<std::mutex[]>(kNumShards);
  locked_mu_ = std::make_unique<std::mutex[]>(kNumShards);
}

CacheSim::Way* CacheSim::EvictFor(size_t set, uint64_t line_addr) {
  Way* base = &ways_[set * config_.ways];
  Way* victim = nullptr;
  for (int i = 0; i < config_.ways; i++) {
    Way& w = base[i];
    if (!w.valid) {
      victim = &w;
      break;
    }
    if (victim == nullptr || w.lru < victim->lru) {
      victim = &w;
    }
  }
  if (victim->valid) {
    stats_.evictions.fetch_add(1, std::memory_order_relaxed);
    if (victim->dirty) {
      stats_.dirty_evictions.fetch_add(1, std::memory_order_relaxed);
      device_->ReceiveLine(victim->addr, victim->data);
    }
  }
  victim->addr = line_addr;
  victim->valid = true;
  victim->dirty = false;
  return victim;
}

template <typename Fn>
void CacheSim::WithLine(uint64_t line_addr, bool fill_on_miss,
                        bool is_store, Fn&& fn) {
  const uint64_t locked_base = locked_window_base();
  if (config_.locked_size > 0 && line_addr >= locked_base &&
      line_addr < locked_base + config_.locked_size) {
    size_t idx =
        static_cast<size_t>((line_addr - locked_base) / kCacheLineSize);
    std::lock_guard<std::mutex> lock(LockedMutex(idx));
    LockedLine& l = locked_[idx];
    if (l.valid && l.addr != line_addr) {
      // The window moved under a racing access: this slot caches a line
      // from the previous window. Evict it safely.
      if (l.dirty) {
        device_->ReceiveLine(l.addr, l.data);
      }
      l.valid = false;
      l.dirty = false;
    }
    if (!l.valid) {
      if (fill_on_miss) {
        device_->Read(line_addr, l.data, kCacheLineSize);
      }
      l.addr = line_addr;
      l.valid = true;
      l.dirty = false;
      if (is_store) {
        stats_.store_misses.fetch_add(1, std::memory_order_relaxed);
      } else {
        stats_.load_misses.fetch_add(1, std::memory_order_relaxed);
        if (latency_ != nullptr) latency_->ChargeCacheMissLoad();
      }
    } else {
      if (is_store) {
        stats_.store_hits.fetch_add(1, std::memory_order_relaxed);
      } else {
        stats_.load_hits.fetch_add(1, std::memory_order_relaxed);
      }
    }
    fn(l.data, &l.dirty);
    return;
  }

  size_t set = SetOf(line_addr);
  std::lock_guard<std::mutex> lock(SetMutex(set));
  Way* base = &ways_[set * config_.ways];
  Way* way = nullptr;
  for (int i = 0; i < config_.ways; i++) {
    if (base[i].valid && base[i].addr == line_addr) {
      way = &base[i];
      break;
    }
  }
  if (way != nullptr) {
    if (is_store) {
      stats_.store_hits.fetch_add(1, std::memory_order_relaxed);
    } else {
      stats_.load_hits.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    if (is_store) {
      stats_.store_misses.fetch_add(1, std::memory_order_relaxed);
    } else {
      stats_.load_misses.fetch_add(1, std::memory_order_relaxed);
      if (latency_ != nullptr) latency_->ChargeCacheMissLoad();
    }
    way = EvictFor(set, line_addr);
    if (fill_on_miss) {
      device_->Read(line_addr, way->data, kCacheLineSize);
    }
  }
  way->lru = ++set_tick_[set];
  fn(way->data, &way->dirty);
}

void CacheSim::Store(uint64_t addr, const void* src, size_t len) {
  const char* in = static_cast<const char*>(src);
  uint64_t pos = addr;
  size_t remaining = len;
  while (remaining > 0) {
    const uint64_t line = AlignDown(pos, kCacheLineSize);
    const size_t off = static_cast<size_t>(pos - line);
    const size_t chunk = std::min(remaining, kCacheLineSize - off);
    const bool full_line = (chunk == kCacheLineSize);
    WithLine(line, /*fill_on_miss=*/!full_line, /*is_store=*/true,
             [&](char* data, bool* dirty) {
               memcpy(data + off, in, chunk);
               *dirty = true;
             });
    in += chunk;
    pos += chunk;
    remaining -= chunk;
  }
}

void CacheSim::Load(uint64_t addr, void* dst, size_t len) {
  char* out = static_cast<char*>(dst);
  uint64_t pos = addr;
  size_t remaining = len;
  while (remaining > 0) {
    const uint64_t line = AlignDown(pos, kCacheLineSize);
    const size_t off = static_cast<size_t>(pos - line);
    const size_t chunk = std::min(remaining, kCacheLineSize - off);
    WithLine(line, /*fill_on_miss=*/true, /*is_store=*/false,
             [&](char* data, bool*) { memcpy(out, data + off, chunk); });
    out += chunk;
    pos += chunk;
    remaining -= chunk;
  }
}

void CacheSim::Clwb(uint64_t addr, size_t len) {
  uint64_t first = AlignDown(addr, kCacheLineSize);
  uint64_t last = AlignDown(addr + (len == 0 ? 0 : len - 1), kCacheLineSize);
  for (uint64_t line = first; line <= last; line += kCacheLineSize) {
    stats_.clwb_lines.fetch_add(1, std::memory_order_relaxed);
    if (latency_ != nullptr) latency_->ChargeClwb();
    if (InLocked(line)) {
      size_t idx = static_cast<size_t>(
          ((line - locked_window_base()) / kCacheLineSize) %
          locked_.size());
      std::lock_guard<std::mutex> lock(LockedMutex(idx));
      LockedLine& l = locked_[idx];
      if (l.valid && l.addr == line && l.dirty) {
        device_->ReceiveLine(line, l.data);
        l.dirty = false;
      }
      continue;
    }
    size_t set = SetOf(line);
    std::lock_guard<std::mutex> lock(SetMutex(set));
    Way* base = &ways_[set * config_.ways];
    for (int i = 0; i < config_.ways; i++) {
      Way& w = base[i];
      if (w.valid && w.addr == line) {
        if (w.dirty) {
          device_->ReceiveLine(line, w.data);
          w.dirty = false;
        }
        break;
      }
    }
  }
}

void CacheSim::Clflush(uint64_t addr, size_t len) {
  uint64_t first = AlignDown(addr, kCacheLineSize);
  uint64_t last = AlignDown(addr + (len == 0 ? 0 : len - 1), kCacheLineSize);
  for (uint64_t line = first; line <= last; line += kCacheLineSize) {
    stats_.clwb_lines.fetch_add(1, std::memory_order_relaxed);
    if (latency_ != nullptr) latency_->ChargeClwb();
    if (InLocked(line)) {
      // Per the paper's footnote: clflush evicts even CAT pseudo-locked
      // lines.
      size_t idx = static_cast<size_t>(
          ((line - locked_window_base()) / kCacheLineSize) %
          locked_.size());
      std::lock_guard<std::mutex> lock(LockedMutex(idx));
      LockedLine& l = locked_[idx];
      if (l.valid && l.addr == line) {
        if (l.dirty) {
          device_->ReceiveLine(line, l.data);
        }
        l.valid = false;
        l.dirty = false;
      }
      continue;
    }
    size_t set = SetOf(line);
    std::lock_guard<std::mutex> lock(SetMutex(set));
    Way* base = &ways_[set * config_.ways];
    for (int i = 0; i < config_.ways; i++) {
      Way& w = base[i];
      if (w.valid && w.addr == line) {
        if (w.dirty) {
          device_->ReceiveLine(line, w.data);
        }
        w.valid = false;
        w.dirty = false;
        break;
      }
    }
  }
}

void CacheSim::Sfence() {
  stats_.fences.fetch_add(1, std::memory_order_relaxed);
  if (latency_ != nullptr) latency_->ChargeSfence();
}

void CacheSim::NtStore(uint64_t addr, const void* src, size_t len) {
  const char* in = static_cast<const char*>(src);
  uint64_t pos = addr;
  size_t remaining = len;
  while (remaining > 0) {
    const uint64_t line = AlignDown(pos, kCacheLineSize);
    const size_t off = static_cast<size_t>(pos - line);
    const size_t chunk = std::min(remaining, kCacheLineSize - off);
    // The device latency is charged outside the line's lock.
    stats_.nt_lines.fetch_add(1, std::memory_order_relaxed);
    if (latency_ != nullptr) latency_->ChargeNtStore(1);
    // Fold in (and invalidate) any cached copy so coherence is preserved.
    // The line's lock is held until the device has the merged line:
    // released earlier, a concurrent Load could refill the stale line, or
    // a concurrent partial NtStore could merge into the old bytes and
    // undo this one. WithLine calls the device under the same lock.
    auto write_line = [&](const char* cached) {
      char merged[kCacheLineSize];
      if (cached != nullptr) {
        memcpy(merged, cached, kCacheLineSize);
      } else if (chunk < kCacheLineSize) {
        device_->Read(line, merged, kCacheLineSize);
      }
      memcpy(merged + off, in, chunk);
      device_->ReceiveLine(line, merged, /*non_temporal=*/true);
    };
    if (InLocked(line)) {
      size_t idx = static_cast<size_t>(
          ((line - locked_window_base()) / kCacheLineSize) %
          locked_.size());
      std::lock_guard<std::mutex> lock(LockedMutex(idx));
      LockedLine& l = locked_[idx];
      const bool cached = l.valid && l.addr == line;
      write_line(cached ? l.data : nullptr);
      if (cached) {
        l.valid = false;
        l.dirty = false;
      }
    } else {
      size_t set = SetOf(line);
      std::lock_guard<std::mutex> lock(SetMutex(set));
      Way* base = &ways_[set * config_.ways];
      Way* way = nullptr;
      for (int i = 0; i < config_.ways && way == nullptr; i++) {
        if (base[i].valid && base[i].addr == line) {
          way = &base[i];
        }
      }
      write_line(way != nullptr ? way->data : nullptr);
      if (way != nullptr) {
        way->valid = false;
        way->dirty = false;
      }
    }

    in += chunk;
    pos += chunk;
    remaining -= chunk;
  }
}

uint64_t CacheSim::Load64(uint64_t addr) {
  assert(IsAligned(addr, 8));
  uint64_t value = 0;
  const uint64_t line = AlignDown(addr, kCacheLineSize);
  const size_t off = static_cast<size_t>(addr - line);
  WithLine(line, /*fill_on_miss=*/true, /*is_store=*/false,
           [&](char* data, bool*) { memcpy(&value, data + off, 8); });
  return value;
}

void CacheSim::Store64(uint64_t addr, uint64_t value) {
  assert(IsAligned(addr, 8));
  const uint64_t line = AlignDown(addr, kCacheLineSize);
  const size_t off = static_cast<size_t>(addr - line);
  WithLine(line, /*fill_on_miss=*/true, /*is_store=*/true,
           [&](char* data, bool* dirty) {
             memcpy(data + off, &value, 8);
             *dirty = true;
           });
}

bool CacheSim::CompareExchange64(uint64_t addr, uint64_t* expected,
                                 uint64_t desired) {
  assert(IsAligned(addr, 8));
  const uint64_t line = AlignDown(addr, kCacheLineSize);
  const size_t off = static_cast<size_t>(addr - line);
  bool success = false;
  WithLine(line, /*fill_on_miss=*/true, /*is_store=*/true,
           [&](char* data, bool* dirty) {
             uint64_t current;
             memcpy(&current, data + off, 8);
             if (current == *expected) {
               memcpy(data + off, &desired, 8);
               *dirty = true;
               success = true;
             } else {
               *expected = current;
             }
           });
  return success;
}

void CacheSim::Crash() {
  const bool eadr = (config_.domain == PersistDomain::kEadr);
  for (size_t set = 0; set < num_sets_; set++) {
    std::lock_guard<std::mutex> lock(SetMutex(set));
    Way* base = &ways_[set * config_.ways];
    for (int i = 0; i < config_.ways; i++) {
      Way& w = base[i];
      if (w.valid && w.dirty && eadr) {
        device_->ReceiveLine(w.addr, w.data);
      }
      w.valid = false;
      w.dirty = false;
    }
    set_tick_[set] = 0;
  }
  for (size_t idx = 0; idx < locked_.size(); idx++) {
    std::lock_guard<std::mutex> lock(LockedMutex(idx));
    LockedLine& l = locked_[idx];
    if (l.valid && l.dirty && eadr) {
      device_->ReceiveLine(l.addr, l.data);
    }
    l.valid = false;
    l.dirty = false;
  }
  device_->DrainAll();
}

void CacheSim::WritebackAll() {
  for (size_t set = 0; set < num_sets_; set++) {
    std::lock_guard<std::mutex> lock(SetMutex(set));
    Way* base = &ways_[set * config_.ways];
    for (int i = 0; i < config_.ways; i++) {
      Way& w = base[i];
      if (w.valid && w.dirty) {
        device_->ReceiveLine(w.addr, w.data);
        w.dirty = false;
      }
    }
  }
  for (size_t idx = 0; idx < locked_.size(); idx++) {
    std::lock_guard<std::mutex> lock(LockedMutex(idx));
    LockedLine& l = locked_[idx];
    if (l.valid && l.dirty) {
      device_->ReceiveLine(l.addr, l.data);
      l.dirty = false;
    }
  }
  device_->DrainAll();
}

uint64_t CacheSim::LockedResidentLines() const {
  uint64_t count = 0;
  for (const auto& l : locked_) {
    if (l.valid) count++;
  }
  return count;
}

void CacheSim::SetLockedWindow(uint64_t new_base) {
  assert(IsAligned(new_base, kCacheLineSize));
  for (size_t idx = 0; idx < locked_.size(); idx++) {
    std::lock_guard<std::mutex> lock(LockedMutex(idx));
    LockedLine& l = locked_[idx];
    if (l.valid && l.dirty) {
      device_->ReceiveLine(l.addr, l.data);
    }
    l.valid = false;
    l.dirty = false;
  }
  // Lines of the NEW window may be cached (possibly dirty) in the normal
  // partition from before the re-lock; push them out so locked-path
  // fills observe the freshest bytes.
  for (uint64_t line = new_base; line < new_base + config_.locked_size;
       line += kCacheLineSize) {
    size_t set = SetOf(line);
    std::lock_guard<std::mutex> lock(SetMutex(set));
    Way* base = &ways_[set * config_.ways];
    for (int i = 0; i < config_.ways; i++) {
      Way& w = base[i];
      if (w.valid && w.addr == line) {
        if (w.dirty) {
          device_->ReceiveLine(line, w.data);
        }
        w.valid = false;
        w.dirty = false;
        break;
      }
    }
  }
  locked_base_.store(new_base, std::memory_order_release);
}

}  // namespace cachekv
