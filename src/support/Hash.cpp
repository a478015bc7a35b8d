//===- support/Hash.cpp - CRC32C and XXH64 --------------------------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "support/Hash.h"

#include <bit>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <nmmintrin.h>
#define TRACEBACK_CRC32C_SSE42 1
#endif

using namespace traceback;

namespace {

uint32_t load32(const uint8_t *P) {
  uint32_t V;
  std::memcpy(&V, P, 4);
  return V;
}

uint64_t load64(const uint8_t *P) {
  uint64_t V;
  std::memcpy(&V, P, 8);
  return V;
}

//===----------------------------------------------------------------------===//
// CRC32C
//===----------------------------------------------------------------------===//

/// Slicing-by-8 tables for the reflected Castagnoli polynomial: T[0] is
/// the classic byte table, and T[K][B] advances T[K-1][B] by one more
/// zero byte, so eight lookups fold eight input bytes at once.
struct Crc32cTables {
  uint32_t T[8][256];
};

constexpr Crc32cTables makeCrc32cTables() {
  Crc32cTables Tb{};
  for (uint32_t I = 0; I < 256; ++I) {
    uint32_t C = I;
    for (int K = 0; K < 8; ++K)
      C = (C >> 1) ^ (0x82F63B78u & (0u - (C & 1)));
    Tb.T[0][I] = C;
  }
  for (int K = 1; K < 8; ++K)
    for (uint32_t I = 0; I < 256; ++I)
      Tb.T[K][I] = (Tb.T[K - 1][I] >> 8) ^ Tb.T[0][Tb.T[K - 1][I] & 0xff];
  return Tb;
}

constexpr Crc32cTables Crc32cTable = makeCrc32cTables();

#ifdef TRACEBACK_CRC32C_SSE42
__attribute__((target("sse4.2"))) uint32_t
crc32cSse42(uint32_t Crc, const void *Data, size_t Len) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  uint64_t C = ~Crc;
  for (; Len >= 8; P += 8, Len -= 8)
    C = _mm_crc32_u64(C, load64(P));
  uint32_t C32 = static_cast<uint32_t>(C);
  for (; Len; --Len)
    C32 = _mm_crc32_u8(C32, *P++);
  return ~C32;
}
#endif

using Crc32cFn = uint32_t (*)(uint32_t, const void *, size_t);

/// Runs once, from crc32c's function-local static: by then the CPU-model
/// data __builtin_cpu_supports reads is set up, even for a caller that
/// runs during static initialization.
Crc32cFn pickCrc32c() {
#ifdef TRACEBACK_CRC32C_SSE42
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2"))
    return crc32cSse42;
#endif
  return crc32cPortable;
}

//===----------------------------------------------------------------------===//
// XXH64
//===----------------------------------------------------------------------===//

constexpr uint64_t XxhP1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t XxhP2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t XxhP3 = 0x165667B19E3779F9ull;
constexpr uint64_t XxhP4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t XxhP5 = 0x27D4EB2F165667C5ull;

uint64_t xxhRound(uint64_t Acc, uint64_t In) {
  return std::rotl(Acc + In * XxhP2, 31) * XxhP1;
}

uint64_t xxhMerge(uint64_t H, uint64_t V) {
  return (H ^ xxhRound(0, V)) * XxhP1 + XxhP4;
}

} // namespace

uint32_t traceback::crc32cPortable(uint32_t Crc, const void *Data,
                                   size_t Len) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  const auto &T = Crc32cTable.T;
  uint32_t C = ~Crc;
  for (; Len >= 8; P += 8, Len -= 8) {
    uint32_t Lo = load32(P) ^ C, Hi = load32(P + 4);
    C = T[7][Lo & 0xff] ^ T[6][(Lo >> 8) & 0xff] ^ T[5][(Lo >> 16) & 0xff] ^
        T[4][Lo >> 24] ^ T[3][Hi & 0xff] ^ T[2][(Hi >> 8) & 0xff] ^
        T[1][(Hi >> 16) & 0xff] ^ T[0][Hi >> 24];
  }
  for (; Len; --Len)
    C = (C >> 8) ^ T[0][(C ^ *P++) & 0xff];
  return ~C;
}

uint32_t traceback::crc32c(uint32_t Crc, const void *Data, size_t Len) {
  static const Crc32cFn Fn = pickCrc32c();
  return Fn(Crc, Data, Len);
}

uint64_t traceback::hash64(const void *Data, size_t Len, uint64_t Seed) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  size_t Left = Len;
  uint64_t H;
  if (Left >= 32) {
    uint64_t V1 = Seed + XxhP1 + XxhP2, V2 = Seed + XxhP2, V3 = Seed,
             V4 = Seed - XxhP1;
    for (; Left >= 32; P += 32, Left -= 32) {
      V1 = xxhRound(V1, load64(P));
      V2 = xxhRound(V2, load64(P + 8));
      V3 = xxhRound(V3, load64(P + 16));
      V4 = xxhRound(V4, load64(P + 24));
    }
    H = std::rotl(V1, 1) + std::rotl(V2, 7) + std::rotl(V3, 12) +
        std::rotl(V4, 18);
    H = xxhMerge(H, V1);
    H = xxhMerge(H, V2);
    H = xxhMerge(H, V3);
    H = xxhMerge(H, V4);
  } else {
    H = Seed + XxhP5;
  }
  H += Len;
  for (; Left >= 8; P += 8, Left -= 8)
    H = std::rotl(H ^ xxhRound(0, load64(P)), 27) * XxhP1 + XxhP4;
  if (Left >= 4) {
    H = std::rotl(H ^ load32(P) * XxhP1, 23) * XxhP2 + XxhP3;
    P += 4;
    Left -= 4;
  }
  for (; Left; --Left)
    H = std::rotl(H ^ *P++ * XxhP5, 11) * XxhP1;
  H ^= H >> 33;
  H *= XxhP2;
  H ^= H >> 29;
  H *= XxhP3;
  return H ^ (H >> 32);
}
