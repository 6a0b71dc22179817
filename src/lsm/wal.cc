#include "lsm/wal.h"

#include "util/hash.h"

namespace cachekv {

namespace {
constexpr uint32_t kCrcSeed = 0xdb97531;
}  // namespace

uint32_t WalCrc(const char* data, size_t len) {
  return Hash(data, len, kCrcSeed);
}

}  // namespace cachekv
