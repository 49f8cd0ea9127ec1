// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over byte buffers.
//
// Guards every durability artifact: checkpoint payloads and journal records
// carry a CRC so restore can distinguish a clean prefix from a torn or
// corrupted write (src/durability/). A checkpoint checksums its whole
// payload (hundreds of KB) while the stream's shard waits, so on x86 hosts
// with PCLMULQDQ the bulk of a buffer is folded 64 bytes per step with
// carry-less multiplies (~30 bytes/ns); the tail, generic-tier processes
// (SNS_FORCE_GENERIC_KERNELS) and other targets run the byte-at-a-time table
// loop. Both paths compute the same checksum.

#ifndef SLICENSTITCH_COMMON_CRC32_H_
#define SLICENSTITCH_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace sns {

/// CRC-32 of `size` bytes at `data`, continuing from a previous result
/// (`crc` = the prior return value; 0 starts a fresh checksum). Matches the
/// standard IEEE/zlib definition: reflected, init and xorout 0xFFFFFFFF.
uint32_t Crc32(const void* data, size_t size, uint32_t crc = 0);

}  // namespace sns

#endif  // SLICENSTITCH_COMMON_CRC32_H_
