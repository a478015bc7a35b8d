//===- support/Fnv.h - FNV-1a 64 --------------------------------*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The project's one FNV-1a 64: triage fingerprints, the collector's
/// payload hash and checkpoint hashes, and the execution log's END
/// checksum. It is inline because the .tblog checksum runs over every
/// recorded log.
///
/// Each caller keeps its own seed, since the seed is part of what the
/// hash pins on disk: fingerprints, payload hashes, TBX2 checkpoints and
/// .tblog bytes. std::hash is neither stable across runs nor across
/// platforms, so nothing on disk uses it.
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_SUPPORT_FNV_H
#define TRACEBACK_SUPPORT_FNV_H

#include <cstddef>
#include <cstdint>

namespace traceback {

/// The standard FNV-1a 64 offset basis (the .tblog END checksum).
constexpr uint64_t Fnv1a64Basis = 0xcbf29ce484222325ull;

/// The collector and triage seed: the standard basis with its last
/// decimal digit dropped. Fingerprints and payload hashes are computed
/// with it, so it stays.
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

} // namespace traceback

#endif // TRACEBACK_SUPPORT_FNV_H
