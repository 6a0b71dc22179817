#include "workload.h"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace servebench {

namespace {

// Sizes are chosen relative to each shard's 12 MB sub-MemTable pool and
// 8 MB hot-key cache; servebench/README.md gives the reason for each.
const Workload kWorkloads[] = {
    // 100k x 116 B = 11.6 MB: fits each shard's pool and cache.
    {.name = "uniform-rw",
     .key_space = 100'000,
     .value_bytes = 100,
     .read_pct = 50,
     .warmup_ops = 200'000},
    // 40k x 1040 B = 41.6 MB: larger than each shard's pool and cache.
    // A 4 MB zone pushes the cold keys on into the LSM, where reads go
    // through its bloom filters.
    {.name = "zipf-read-1k",
     .key_space = 40'000,
     .value_bytes = 1024,
     .read_pct = 95,
     .zipf_theta = 0.99,
     .warmup_ops = 200'000,
     .zone_flush_kb = 4096},
    // Small tables so flush and compaction cycle many times inside one
    // run. Value-log GC is off: with it, GETs fail now and then because
    // the LSM can answer with a superseded pointer whose segment GC has
    // already unlinked (README, defect d). 16,351 B values make each
    // value-log frame exactly 16 KiB, so frames never share a cache
    // line; with 16,384 B values reads of the newest frame fail (README,
    // defect c).
    {.name = "kvsep-16k",
     .key_space = 2'000,
     .value_bytes = 16351,
     .read_pct = 90,
     .warmup_ops = 20'000,
     .sub_memtable_kb = 64,
     .zone_flush_kb = 128,
     .no_vlog_gc = true},
    // Quorum acks cap this mix at a few kops, too few bytes to fill a
    // default 2 MB sub-MemTable in a run; small tables keep seal, flush
    // and compaction cycling so write and space amplification are
    // measured rather than zero.
    {.name = "repl-quorum",
     .key_space = 20'000,
     .value_bytes = 100,
     .read_pct = 50,
     .warmup_ops = 10'000,
     .sub_memtable_kb = 256,
     .zone_flush_kb = 2048,
     .follower = true},
};

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

constexpr size_t kNoiseBytes = 64 << 10;
// A prime larger than any key space: rank -> rank * p mod n is a
// bijection, so it scatters the zipfian hot ranks over the key space
// without merging any two of them.
constexpr uint64_t kScramblePrime = 2654435761ULL;

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string KeyOf(uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user%012llu",
                static_cast<unsigned long long>(index));
  return std::string(buf, kKeyBytes);
}

ValueBook::ValueBook(uint64_t seed, size_t value_bytes)
    : seed_(seed), value_bytes_(value_bytes) {
  noise_.resize(kNoiseBytes + value_bytes_);
  uint64_t state = Mix64(seed ^ 0x5eed5eed5eedULL);
  for (char& c : noise_) {
    state = Mix64(state + 0x9e3779b97f4a7c15ULL);
    c = static_cast<char>('!' + state % 94);
  }
}

size_t ValueBook::Offset(uint64_t index) const {
  return Mix64(seed_ + index * 0x9e3779b97f4a7c15ULL) % kNoiseBytes;
}

void ValueBook::Fill(uint64_t index, std::string* out) const {
  out->assign(KeyOf(index));
  out->append(noise_, Offset(index), value_bytes_ - kKeyBytes);
}

bool ValueBook::Matches(uint64_t index, const cachekv::Slice& value) const {
  if (value.size() != value_bytes_) return false;
  return std::memcmp(value.data(), KeyOf(index).data(), kKeyBytes) == 0 &&
         std::memcmp(value.data() + kKeyBytes,
                     noise_.data() + Offset(index),
                     value_bytes_ - kKeyBytes) == 0;
}

OpStream::OpStream(const Workload& w, uint64_t seed, uint64_t stream_id)
    : w_(w), state_(Mix64(seed) ^ Mix64(stream_id + 0x51ed)) {
  if (w_.zipf_theta > 0) {
    const double theta = w_.zipf_theta;
    const double n = static_cast<double>(w_.key_space);
    for (uint64_t i = 1; i <= w_.key_space; i++) {
      zetan_ += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / n, 1.0 - theta)) / (1.0 - zeta2 / zetan_);
    half_pow_theta_ = std::pow(0.5, theta);
  }
}

uint64_t OpStream::NextRandom() {
  state_ += 0x9e3779b97f4a7c15ULL;
  return Mix64(state_);
}

double OpStream::NextUnit() {
  return static_cast<double>(NextRandom() >> 11) * 0x1.0p-53;
}

uint64_t OpStream::NextIndex() {
  if (w_.zipf_theta <= 0) return NextRandom() % w_.key_space;
  const double u = NextUnit();
  const double uz = u * zetan_;
  uint64_t rank;
  if (uz < 1.0) {
    rank = 0;
  } else if (uz < 1.0 + half_pow_theta_) {
    rank = 1;
  } else {
    rank = static_cast<uint64_t>(static_cast<double>(w_.key_space) *
                                 std::pow(eta_ * u - eta_ + 1.0, alpha_));
    if (rank >= w_.key_space) rank = w_.key_space - 1;
  }
  return rank * kScramblePrime % w_.key_space;
}

Op OpStream::Next() {
  Op op;
  op.get = NextRandom() % 100 < static_cast<uint64_t>(w_.read_pct);
  op.index = NextIndex();
  return op;
}

}  // namespace servebench
