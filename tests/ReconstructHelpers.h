//===- tests/ReconstructHelpers.h - Hand-built ring buffers -----*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds snap ring images word by word, for reconstruction tests that
/// need record streams SynthWorkload does not produce (exceptions,
/// thread lifetimes, torn records).
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_TESTS_RECONSTRUCTHELPERS_H
#define TRACEBACK_TESTS_RECONSTRUCTHELPERS_H

#include "runtime/Snap.h"
#include "runtime/TraceRecord.h"

#include <cstdint>
#include <vector>

namespace traceback {
namespace testing_helpers {

/// Address of a built buffer's first record word.
constexpr uint64_t RingRecordsBase = 0x1000;

/// Builds a raw buffer image from a word list with sub-buffer sentinels.
inline SnapBufferImage makeBuffer(const std::vector<uint32_t> &DataWords,
                                  uint32_t SubWords, uint32_t SubCount,
                                  uint32_t Committed, uint64_t Owner) {
  SnapBufferImage B;
  B.SubBufferWords = SubWords;
  B.SubBufferCount = SubCount;
  B.CommittedSubBuffer = Committed;
  B.OwnerThread = Owner;
  B.RecordsBase = RingRecordsBase;
  std::vector<uint32_t> Words(static_cast<size_t>(SubWords) * SubCount, 0);
  for (uint32_t S = 0; S < SubCount; ++S)
    Words[(S + 1ull) * SubWords - 1] = SentinelRecord;
  // Fill data skipping sentinel slots.
  size_t Pos = 0;
  for (uint32_t W : DataWords) {
    while (Pos < Words.size() && Words[Pos] == SentinelRecord)
      ++Pos;
    if (Pos >= Words.size())
      break;
    Words[Pos++] = W;
  }
  B.Raw.resize(Words.size() * 4);
  for (size_t I = 0; I < Words.size(); ++I)
    for (int J = 0; J < 4; ++J)
      B.Raw[I * 4 + J] = static_cast<uint8_t>(Words[I] >> (J * 8));
  return B;
}

inline std::vector<uint32_t> threadStart(uint64_t Tid, uint64_t Ts = 5) {
  return encodeExtRecord({ExtType::ThreadStart, 0, {Tid, Ts}});
}
inline std::vector<uint32_t> threadEnd(uint64_t Tid, uint64_t Ts = 9) {
  return encodeExtRecord({ExtType::ThreadEnd, 0, {Tid, Ts}});
}

inline void append(std::vector<uint32_t> &Out,
                   const std::vector<uint32_t> &In) {
  Out.insert(Out.end(), In.begin(), In.end());
}

} // namespace testing_helpers
} // namespace traceback

#endif // TRACEBACK_TESTS_RECONSTRUCTHELPERS_H
