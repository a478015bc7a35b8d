//===- support/Hash.h - FNV-1a 64, CRC32C and XXH64 -------------*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The project's non-cryptographic hashes, one of each:
///
///  - fnv1a64: triage fingerprints, the TBX2 checkpoint's header, page-sum
///    table and journal windows, and the execution log's END checksum.
///    Their values are pinned by the triage goldens, the checkpoint
///    format and the recorded-run digest, so the byte-serial hash stays.
///    It is inline because the .tblog checksum runs over every recorded
///    log.
///  - crc32c: the TBNF frame checksum (distributed/Wire). It uses the
///    SSE4.2 crc32 instruction where the CPU has it, chosen once at run
///    time, and a slicing-by-8 table otherwise; both give the same value.
///  - hash64: XXH64, the collector's payload dedup key and shard choice.
///
/// crc32c and hash64 read their input a word at a time. Every pushed
/// snap pays a crc32c at each end of the wire and a hash64 in the store;
/// FNV-1a's serial multiply per byte cost ~1.6 ns/byte there.
///
/// Each caller keeps its own seed, since the seed is part of what the
/// hash pins on disk. std::hash is neither stable across runs nor across
/// platforms, so nothing on disk uses it.
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_SUPPORT_HASH_H
#define TRACEBACK_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>

namespace traceback {

/// The standard FNV-1a 64 offset basis (the .tblog END checksum).
constexpr uint64_t Fnv1a64Basis = 0xcbf29ce484222325ull;

/// The collector and triage seed: the standard basis with its last
/// decimal digit dropped. Fingerprints and checkpoint hashes are
/// computed with it, so it stays.
constexpr uint64_t Fnv1a64ShortBasis = 1469598103934665603ull;

/// FNV-1a 64 over \p Len bytes at \p Data, starting from \p Seed.
inline uint64_t fnv1a64(const void *Data, size_t Len, uint64_t Seed) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  uint64_t H = Seed;
  for (size_t I = 0; I < Len; ++I) {
    H ^= P[I];
    H *= 1099511628211ull;
  }
  return H;
}

/// CRC32C (Castagnoli) of \p Len bytes at \p Data, continuing from \p Crc,
/// a previous result (0 to start): crc32c(crc32c(0, A), B) is the CRC of
/// A followed by B. crc32c(0, "123456789") is 0xE3069283.
uint32_t crc32c(uint32_t Crc, const void *Data, size_t Len);

/// crc32c's slicing-by-8 table path. crc32c runs it on hosts without
/// SSE4.2; the tests hold the hardware path to it.
uint32_t crc32cPortable(uint32_t Crc, const void *Data, size_t Len);

/// XXH64 of \p Len bytes at \p Data with \p Seed, bit-exact with the
/// reference implementation on little-endian hosts.
uint64_t hash64(const void *Data, size_t Len, uint64_t Seed);

} // namespace traceback

#endif // TRACEBACK_SUPPORT_HASH_H
