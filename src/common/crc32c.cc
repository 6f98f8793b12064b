#include "common/crc32c.h"

#include <cstdlib>
#include <cstring>

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define EOS_CRC32C_HW_X86 1
#include <nmmintrin.h>
#elif defined(__aarch64__) && defined(__GNUC__)
#define EOS_CRC32C_HW_ARM 1
#pragma GCC push_options
#pragma GCC target("+crc")
#include <arm_acle.h>
#pragma GCC pop_options
#if defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_CRC32
#define HWCAP_CRC32 (1 << 7)
#endif
#endif
#endif

namespace eos {

namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

struct Tables {
  uint32_t t[8][256];

  constexpr Tables() : t{} {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int s = 1; s < 8; ++s) {
        t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFF];
      }
    }
  }
};

constexpr Tables kTables{};

inline uint32_t LoadLE32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap32(v);
#endif
  return v;
}

}  // namespace

uint32_t Crc32cExtendSoftware(uint32_t state, const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = state;
  // Byte-at-a-time until 4-byte alignment, so the word loads below are
  // aligned on strict targets (memcpy makes them safe everywhere anyway).
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 3) != 0) {
    crc = (crc >> 8) ^ kTables.t[0][(crc ^ *p++) & 0xFF];
    --n;
  }
  // Slice-by-8: consume two 32-bit words per iteration with eight
  // independent table lookups.
  while (n >= 8) {
    uint32_t lo = LoadLE32(p) ^ crc;
    uint32_t hi = LoadLE32(p + 4);
    crc = kTables.t[7][lo & 0xFF] ^ kTables.t[6][(lo >> 8) & 0xFF] ^
          kTables.t[5][(lo >> 16) & 0xFF] ^ kTables.t[4][lo >> 24] ^
          kTables.t[3][hi & 0xFF] ^ kTables.t[2][(hi >> 8) & 0xFF] ^
          kTables.t[1][(hi >> 16) & 0xFF] ^ kTables.t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = (crc >> 8) ^ kTables.t[0][(crc ^ *p++) & 0xFF];
    --n;
  }
  return crc;
}

// ---- hardware kernels -------------------------------------------------------

#if defined(EOS_CRC32C_HW_X86)

namespace {

#if defined(__x86_64__)
// GF(2)-linear map on the 32-bit CRC register, stored by columns: col[i]
// is the image of the register value 1 << i.
struct Gf2Map {
  uint32_t col[32];
};

constexpr uint32_t Apply(const Gf2Map& m, uint32_t v) {
  uint32_t out = 0;
  for (int i = 0; v != 0; ++i, v >>= 1) {
    if (v & 1) out ^= m.col[i];
  }
  return out;
}

// The map that feeds `bytes` zero bytes (a power of two) through the
// register: the one-byte step, squared log2(bytes) times.
constexpr Gf2Map ZeroBytes(size_t bytes) {
  Gf2Map m{};
  for (int i = 0; i < 32; ++i) {
    uint32_t r = uint32_t{1} << i;
    m.col[i] = (r >> 8) ^ kTables.t[0][r & 0xFF];
  }
  for (; bytes > 1; bytes >>= 1) {
    Gf2Map sq{};
    for (int i = 0; i < 32; ++i) sq.col[i] = Apply(m, m.col[i]);
    m = sq;
  }
  return m;
}

// ZeroBytes(bytes) as four byte-indexed tables, so shifting a register
// past a block costs four lookups. CRC is linear, so the register after A
// then B is Shift|B|(register after A) xor (B's register started from 0).
struct ShiftTable {
  uint32_t t[4][256];

  constexpr explicit ShiftTable(size_t bytes) : t{} {
    Gf2Map m = ZeroBytes(bytes);
    for (uint32_t n = 0; n < 256; ++n) {
      for (int j = 0; j < 4; ++j) t[j][n] = Apply(m, n << (8 * j));
    }
  }

  uint32_t operator()(uint32_t crc) const {
    return t[0][crc & 0xFF] ^ t[1][(crc >> 8) & 0xFF] ^
           t[2][(crc >> 16) & 0xFF] ^ t[3][crc >> 24];
  }
};

// Stream lengths of the two 3-way passes: long buffers run 3 x 1 KiB
// rounds, then 3 x 256 B rounds take most of what is left, so a 4080-byte
// page payload is one long round, one short round and a 240-byte tail.
constexpr size_t kLongBlock = 1024;
constexpr size_t kShortBlock = 256;
constexpr ShiftTable kShiftLong(kLongBlock);
constexpr ShiftTable kShiftShort(kShortBlock);

inline uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// Consumes whole 3 x kBlock rounds of [p, p + n): three independent crc32
// streams, one per kBlock-byte third, joined by shifting. The instruction
// has 3-cycle latency and 1-cycle throughput, so three streams keep it
// busy where one would leave it idle two cycles in three.
template <size_t kBlock>
__attribute__((target("sse4.2"))) inline uint64_t ThreeWay(
    uint64_t crc0, const ShiftTable& shift, const uint8_t** p, size_t* n) {
  while (*n >= 3 * kBlock) {
    const uint8_t* a = *p;
    uint64_t crc1 = 0;
    uint64_t crc2 = 0;
    for (size_t i = 0; i < kBlock; i += 8) {
      crc0 = _mm_crc32_u64(crc0, Load64(a + i));
      crc1 = _mm_crc32_u64(crc1, Load64(a + kBlock + i));
      crc2 = _mm_crc32_u64(crc2, Load64(a + 2 * kBlock + i));
    }
    crc0 = shift(static_cast<uint32_t>(crc0)) ^ crc1;
    crc0 = shift(static_cast<uint32_t>(crc0)) ^ crc2;
    *p += 3 * kBlock;
    *n -= 3 * kBlock;
  }
  return crc0;
}
#endif

// SSE4.2 CRC32 instruction, 8 bytes per issue, in three interleaved
// streams over long enough inputs (ThreeWay), one stream for the tail.
__attribute__((target("sse4.2"))) uint32_t ExtendHw(uint32_t state,
                                                    const void* data,
                                                    size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
#if defined(__x86_64__)
  uint64_t crc = state;
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *p++);
    --n;
  }
  crc = ThreeWay<kLongBlock>(crc, kShiftLong, &p, &n);
  crc = ThreeWay<kShortBlock>(crc, kShiftShort, &p, &n);
  while (n >= 8) {
    crc = _mm_crc32_u64(crc, Load64(p));
    p += 8;
    n -= 8;
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
#else
  uint32_t crc32 = state;
  while (n >= 4) {
    uint32_t v;
    std::memcpy(&v, p, 4);
    crc32 = _mm_crc32_u32(crc32, v);
    p += 4;
    n -= 4;
  }
#endif
  while (n > 0) {
    crc32 = _mm_crc32_u8(crc32, *p++);
    --n;
  }
  return crc32;
}

bool HwAvailable() { return __builtin_cpu_supports("sse4.2") != 0; }
constexpr const char* kHwName = "sse4.2";

}  // namespace

#elif defined(EOS_CRC32C_HW_ARM)

namespace {

__attribute__((target("+crc"))) uint32_t ExtendHw(uint32_t state,
                                                  const void* data,
                                                  size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = state;
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = __crc32cb(crc, *p++);
    --n;
  }
  while (n >= 8) {
    uint64_t v;
    std::memcpy(&v, p, 8);
    crc = __crc32cd(crc, v);
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = __crc32cb(crc, *p++);
    --n;
  }
  return crc;
}

bool HwAvailable() {
#if defined(__linux__)
  return (getauxval(AT_HWCAP) & HWCAP_CRC32) != 0;
#else
  return false;
#endif
}
constexpr const char* kHwName = "armv8-crc";

}  // namespace

#endif  // hardware kernels

// ---- runtime dispatch -------------------------------------------------------

namespace {

using ExtendFn = uint32_t (*)(uint32_t, const void*, size_t);

struct Dispatch {
  ExtendFn fn;
  const char* name;
};

Dispatch Resolve() {
  // EOS_CRC32C=software pins the portable kernel even when hardware CRC is
  // available — used by benchmarks to A/B the two paths end to end, and as
  // an escape hatch should a platform's instruction prove unreliable.
  const char* force = std::getenv("EOS_CRC32C");
  if (force != nullptr && std::strcmp(force, "software") == 0) {
    return {&Crc32cExtendSoftware, "slice-by-8 (forced)"};
  }
#if defined(EOS_CRC32C_HW_X86) || defined(EOS_CRC32C_HW_ARM)
  if (HwAvailable()) return {&ExtendHw, kHwName};
#endif
  return {&Crc32cExtendSoftware, "slice-by-8"};
}

// Resolved during static initialization: a plain load on every call, no
// atomics or branches beyond the indirect jump.
const Dispatch kDispatch = Resolve();

}  // namespace

uint32_t Crc32cExtend(uint32_t state, const void* data, size_t n) {
  return kDispatch.fn(state, data, n);
}

const char* Crc32cBackend() { return kDispatch.name; }

uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cFinalize(Crc32cExtend(Crc32cInit(), data, n));
}

}  // namespace eos
