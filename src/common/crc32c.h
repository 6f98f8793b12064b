#ifndef EOS_COMMON_CRC32C_H_
#define EOS_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace eos {

// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78), the
// checksum storage engines use for page and record integrity.
//
// Two kernels, selected once at process start:
//   * hardware: the dedicated CRC32C instructions — SSE4.2 `crc32` on
//     x86-64 in three interleaved streams joined by GF(2) shift tables
//     (~200 ns per 4 KiB page), ARMv8 `crc32c*` in one stream;
//   * software slice-by-8 fallback: eight table lookups per 8 input bytes,
//     no special instructions required, ~1 byte/cycle.
// Both compute the identical function; Crc32cBackend() names the one in
// use and the software kernel stays callable for cross-checking.
//
// The value is the "plain" CRC32C (init 0xFFFFFFFF, final xor), matching
// the common test vector Crc32c("123456789") == 0xE3069283.

// One-shot checksum of `n` bytes.
uint32_t Crc32c(const void* data, size_t n);

// Incremental form: Extend(Init(), a, na) then Extend(crc, b, nb) equals
// a one-shot pass over the concatenation; Finalize() produces the value.
inline uint32_t Crc32cInit() { return 0xFFFFFFFFu; }
uint32_t Crc32cExtend(uint32_t state, const void* data, size_t n);
inline uint32_t Crc32cFinalize(uint32_t state) { return state ^ 0xFFFFFFFFu; }

// The portable slice-by-8 kernel, always available; tests cross-check the
// dispatched kernel against it.
uint32_t Crc32cExtendSoftware(uint32_t state, const void* data, size_t n);

// Name of the kernel runtime dispatch selected: "sse4.2", "armv8-crc",
// or "slice-by-8".
const char* Crc32cBackend();

}  // namespace eos

#endif  // EOS_COMMON_CRC32C_H_
