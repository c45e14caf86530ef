/// \file crc32c.h
/// \brief CRC32C (Castagnoli) integrity words for wire payloads and
/// checkpoint sections.
///
/// The fault-tolerance layer attaches a CRC32C word to every
/// codec-compressed transition payload row and to every checkpoint section,
/// so corruption (bit rot, torn writes, injected faults) is *detected* and
/// routed through the recovery paths instead of silently perturbing
/// training. CRC32C is the standard storage/networking checksum (iSCSI,
/// ext4, RocksDB): strong burst-error detection at a few bytes/cycle.
///
/// The implementation uses the SSE4.2 crc32 instruction when the build
/// targets it (HONGTU_NATIVE_ARCH on any modern x86) and a slice-by-8 table
/// fallback otherwise; both produce identical words, so checkpoints and
/// fault-matrix fixtures are portable across the two.

#pragma once

#include <cstddef>
#include <cstdint>

namespace hongtu {

/// CRC32C of `n` bytes, continuing from `seed` (pass 0 to start a new
/// stream; chain calls by passing the previous return value).
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

namespace internal {

/// The slice-by-8 table path with Crc32c's interface. Crc32c calls it when
/// the build does not target SSE4.2; it is declared here so native builds
/// can test it against the hardware instruction.
uint32_t Crc32cSoftware(const void* data, size_t n, uint32_t seed = 0);

}  // namespace internal

}  // namespace hongtu
