#ifndef CACHEKV_LSM_WAL_H_
#define CACHEKV_LSM_WAL_H_

#include <cstddef>
#include <cstdint>

namespace cachekv {

/// Seeded checksum of the store's CRC-framed records: the value-log
/// frames, the manifest blocks, and the SSTable blocks and filters. The
/// store keeps no write-ahead log; the name predates that.
uint32_t WalCrc(const char* data, size_t len);

}  // namespace cachekv

#endif  // CACHEKV_LSM_WAL_H_
