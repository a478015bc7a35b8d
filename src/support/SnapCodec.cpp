//===- support/SnapCodec.cpp - Trace-aware snap compression ---------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "support/SnapCodec.h"

#include "runtime/TraceRecord.h"

#include <algorithm>
#include <cstring>

using namespace traceback;

namespace {

// Word-op opcodes (low 3 bits of the tag byte). The high 5 bits carry the
// op count when it fits in [1, 31]; a count field of 0 means a varint
// count follows the tag.
enum Op : uint8_t {
  OpZeros = 0,     ///< count zero words
  OpSentinels = 1, ///< count 0xFFFFFFFF words
  OpRepeat = 2,    ///< count copies of the previous output word
  OpDagRun = 3,    ///< count DAG records, each a varint (see below)
  OpLiteral = 4,   ///< count raw 32-bit words
  OpRawTail = 5,   ///< count raw bytes (the non-word-aligned input tail)
  OpDict = 6,      ///< one DAG word from the dictionary (slot index in the
                   ///< tag's count field — a hot record costs one byte)
};

/// Direct-mapped dictionary of recently seen DAG words. Traces are
/// dominated by a small working set of (DAG id, path bits) pairs that
/// recur non-adjacently (hot loops interleaved across call sites), which
/// delta coding alone cannot exploit: the id gaps between hot pairs are
/// large, so each recurrence still costs a multi-byte varint. A word's
/// slot is a hash of its value, so lookup and insertion are O(1) — this
/// runs once per DAG word, squarely on the serialization fast path.
/// Encoder and decoder maintain the table in lockstep, updated once per
/// DAG word in stream order, so a dictionary hit is a single tag byte.
struct DagDict {
  static constexpr unsigned Cap = 32; // Index must fit the 5-bit tag field.
  uint32_t Words[Cap];
  uint32_t Valid = 0; ///< Bitmask of occupied slots.

  static unsigned slotOf(uint32_t W) {
    return (W * 0x9E3779B1u) >> 27; // Fibonacci hash, top 5 bits.
  }

  /// Returns \p W's slot when present, or -1 after installing it there
  /// (collisions evict; both sides evict identically).
  int referenceWord(uint32_t W) {
    unsigned S = slotOf(W);
    if ((Valid >> S & 1) && Words[S] == W)
      return static_cast<int>(S);
    Words[S] = W;
    Valid |= 1u << S;
    return -1;
  }

  /// Decoder-side hit: fetch by slot index.
  bool fetch(unsigned Index, uint32_t &W) {
    if (Index >= Cap || !(Valid >> Index & 1))
      return false;
    W = Words[Index];
    return true;
  }
};

constexpr uint8_t ModeWordOps = 0;
constexpr uint8_t ModeRaw = 1;

void putVar(std::vector<uint8_t> &Out, uint64_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<uint8_t>(V) | 0x80);
    V >>= 7;
  }
  Out.push_back(static_cast<uint8_t>(V));
}

bool getVar(const uint8_t *Data, size_t Size, size_t &Pos, uint64_t &V) {
  V = 0;
  int Shift = 0;
  for (;;) {
    if (Pos >= Size || Shift > 63)
      return false;
    uint8_t B = Data[Pos++];
    V |= static_cast<uint64_t>(B & 0x7F) << Shift;
    if (!(B & 0x80))
      return true;
    Shift += 7;
  }
}

void putOp(std::vector<uint8_t> &Out, Op O, uint64_t Count) {
  if (Count >= 1 && Count <= 31) {
    Out.push_back(static_cast<uint8_t>(O | (Count << 3)));
  } else {
    Out.push_back(static_cast<uint8_t>(O));
    putVar(Out, Count);
  }
}

constexpr uint64_t zigzag(int64_t V) {
  return (static_cast<uint64_t>(V) << 1) ^
         static_cast<uint64_t>(V >> 63);
}

constexpr int64_t unzigzag(uint64_t V) {
  return static_cast<int64_t>(V >> 1) ^ -static_cast<int64_t>(V & 1);
}

/// Run length at which runOfWord switches to block compares. A power of
/// two, so extendRun's block sizes stay powers of two.
constexpr size_t LongRunWords = 16;
/// Largest block extendRun compares in one memcmp (4 KiB).
constexpr size_t MaxRunBlockWords = 1024;

/// Finishes a run whose first \p N words (N >= LongRunWords) are equal.
/// The verified prefix is itself a block of the pattern, so the library
/// memcmp (vectorized) checks each next block against it: blocks double
/// up to MaxRunBlockWords while they match, then halve to pin the run's
/// end. Out of line, so the inlined copies of runOfWord stay small.
[[gnu::noinline]] size_t extendRun(const uint8_t *P, size_t N,
                                   size_t MaxWords) {
  // Invariant: Block <= N, so the reference P[0, Block) is all pattern.
  size_t Block = N;
  while (Block <= MaxWords - N && std::memcmp(P + N * 4, P, Block * 4) == 0) {
    N += Block;
    Block = std::min(2 * Block, MaxRunBlockWords);
  }
  // The run ends within the next Block words (a power of two): take each
  // smaller power that still matches.
  for (Block /= 2; Block != 0; Block /= 2)
    if (Block <= MaxWords - N && std::memcmp(P + N * 4, P, Block * 4) == 0)
      N += Block;
  return N;
}

/// Length of the run of words equal to \p W at \p P. Short runs compare
/// eight bytes at a time; a run reaching LongRunWords continues in
/// extendRun, since uncommitted buffer regions are long stretches of zeros
/// that a per-word scan would spend most of the encode time on. Forced
/// inline: dense rings call it once per word, GCC stops inlining it once
/// it can reach extendRun, and the call costs dense rings ~9% of encode
/// throughput.
[[gnu::always_inline]] inline size_t runOfWord(const uint8_t *P,
                                               size_t MaxWords, uint32_t W) {
  uint8_t Pat[8];
  for (int J = 0; J < 4; ++J)
    Pat[J] = Pat[J + 4] = static_cast<uint8_t>(W >> (J * 8));
  size_t N = 0;
  while (N + 2 <= MaxWords && std::memcmp(P + N * 4, Pat, 8) == 0)
    if ((N += 2) == LongRunWords)
      return extendRun(P, N, MaxWords);
  while (N < MaxWords && std::memcmp(P + N * 4, Pat, 4) == 0)
    ++N;
  return N;
}

/// The caller's known-zero ranges, walked alongside the encoder. The
/// encoder only moves forward and meets every zero word first at the top
/// of its loop (every other op stops at a zero), so each range is visited
/// once, in order.
class ZeroHints {
public:
  ZeroHints(std::span<const ZeroRange> Ranges, size_t NumWords)
      : Ranges(Ranges), NumWords(NumWords) {}

  /// Length of the run of zero words at word \p I, which is zero. Hinted
  /// ranges are stepped over whole; only the words between them are
  /// compared. With no hints this is runOfWord.
  size_t runFrom(const uint8_t *Data, size_t I) {
    size_t J = I;
    for (;;) {
      // Step over every range that starts at or before J (a range's
      // ragged edges round inward to whole words).
      for (; Next < Ranges.size() && firstWord(Next) <= J; ++Next)
        J = std::max(J, std::min(Ranges[Next].End / 4, NumWords));
      size_t Limit =
          Next < Ranges.size() ? std::min(firstWord(Next), NumWords)
                               : NumWords;
      J += runOfWord(Data + J * 4, Limit - J, InvalidRecord);
      if (J < Limit || Limit == NumWords)
        return J - I;
    }
  }

private:
  size_t firstWord(size_t R) const { return (Ranges[R].Begin + 3) / 4; }

  std::span<const ZeroRange> Ranges;
  size_t NumWords;
  size_t Next = 0;
};

uint32_t loadWord(const uint8_t *P) {
  return static_cast<uint32_t>(P[0]) | (static_cast<uint32_t>(P[1]) << 8) |
         (static_cast<uint32_t>(P[2]) << 16) |
         (static_cast<uint32_t>(P[3]) << 24);
}

void storeWord(std::vector<uint8_t> &Out, uint32_t W) {
  Out.push_back(static_cast<uint8_t>(W));
  Out.push_back(static_cast<uint8_t>(W >> 8));
  Out.push_back(static_cast<uint8_t>(W >> 16));
  Out.push_back(static_cast<uint8_t>(W >> 24));
}

/// One DAG record as the delta-varint the DagRun op carries.
void putDagWord(std::vector<uint8_t> &Out, uint32_t Word, uint32_t &PrevDag) {
  uint32_t DagId = dagIdOfRecord(Word);
  uint32_t Path = pathBitsOfRecord(Word);
  int64_t Delta =
      static_cast<int64_t>(DagId) - static_cast<int64_t>(PrevDag);
  putVar(Out, (zigzag(Delta) << PathBitCount) | Path);
  PrevDag = DagId;
}

} // namespace

size_t traceback::snapEncodeTo(const uint8_t *Data, size_t Size,
                               std::vector<uint8_t> &Out,
                               std::span<const ZeroRange> Zeros) {
  const size_t Start = Out.size();
  putVar(Out, Size);
  Out.push_back(ModeWordOps);

  const size_t NumWords = Size / 4;
  const size_t TailBytes = Size % 4;
  uint32_t PrevDag = 0;
  DagDict Dict;
  ZeroHints Hints(Zeros, NumWords);

  size_t I = 0;
  while (I < NumWords) {
    uint32_t W = loadWord(Data + I * 4);
    if (W == InvalidRecord) {
      size_t Run = Hints.runFrom(Data, I);
      putOp(Out, OpZeros, Run);
      I += Run;
      continue;
    }
    // Length of the run of identical words starting here.
    size_t Run = runOfWord(Data + I * 4, NumWords - I, W);

    if (W == SentinelRecord) {
      putOp(Out, OpSentinels, Run);
      I += Run;
      continue;
    }
    if (Run >= 3) {
      // Emit the word once, then a repeat run. (Below 3 the op framing
      // costs as much as just re-encoding the word.)
      if (isDagRecord(W)) {
        int Idx = Dict.referenceWord(W);
        if (Idx >= 0) {
          Out.push_back(static_cast<uint8_t>(
              OpDict | (static_cast<unsigned>(Idx) << 3)));
        } else {
          putOp(Out, OpDagRun, 1);
          putDagWord(Out, W, PrevDag);
        }
        PrevDag = dagIdOfRecord(W);
      } else {
        putOp(Out, OpLiteral, 1);
        storeWord(Out, W);
      }
      putOp(Out, OpRepeat, Run - 1);
      I += Run;
      continue;
    }
    if (isDagRecord(W)) {
      // Gather a maximal stretch of DAG records, stopping where a long
      // run of one word (handled better by OpRepeat) or a different word
      // class begins.
      size_t End = I;
      while (End < NumWords) {
        uint32_t V = loadWord(Data + End * 4);
        if (!isDagRecord(V) || V == InvalidRecord)
          break;
        size_t R = runOfWord(Data + End * 4, NumWords - End, V);
        if (R >= 3)
          break;
        End += R;
      }
      // Emit the stretch: dictionary hits as one-byte ops, the misses
      // between them batched into delta-coded DagRun segments. The
      // dictionary advances once per word in stream order, exactly as
      // the decoder will replay it.
      size_t SegStart = I;
      auto flushSeg = [&](size_t SegEnd) {
        if (SegEnd == SegStart)
          return;
        putOp(Out, OpDagRun, SegEnd - SegStart);
        for (size_t K = SegStart; K < SegEnd; ++K)
          putDagWord(Out, loadWord(Data + K * 4), PrevDag);
      };
      for (size_t K = I; K < End; ++K) {
        uint32_t V = loadWord(Data + K * 4);
        int Idx = Dict.referenceWord(V);
        if (Idx < 0)
          continue; // Miss: joins the pending DagRun segment.
        flushSeg(K);
        Out.push_back(static_cast<uint8_t>(
            OpDict | (static_cast<unsigned>(Idx) << 3)));
        PrevDag = dagIdOfRecord(V);
        SegStart = K + 1;
      }
      flushSeg(End);
      I = End;
      continue;
    }
    // Literal stretch: everything that is not a zero, sentinel, DAG
    // record or long run.
    size_t End = I;
    while (End < NumWords) {
      uint32_t V = loadWord(Data + End * 4);
      if (V == InvalidRecord || V == SentinelRecord || isDagRecord(V))
        break;
      size_t R = runOfWord(Data + End * 4, NumWords - End, V);
      if (R >= 3)
        break;
      End += R;
    }
    putOp(Out, OpLiteral, End - I);
    Out.insert(Out.end(), Data + I * 4, Data + End * 4);
    I = End;
  }

  if (TailBytes) {
    putOp(Out, OpRawTail, TailBytes);
    Out.insert(Out.end(), Data + NumWords * 4, Data + Size);
  }

  // Incompressible input: fall back to a raw block so the worst case is a
  // few framing bytes, never an expansion proportional to the input.
  size_t Encoded = Out.size() - Start;
  size_t RawFramed = 0;
  {
    // varint(Size) + mode byte + Size.
    uint64_t V = Size;
    do {
      ++RawFramed;
      V >>= 7;
    } while (V);
    RawFramed += 1 + Size;
  }
  if (Encoded > RawFramed) {
    Out.resize(Start);
    putVar(Out, Size);
    Out.push_back(ModeRaw);
    Out.insert(Out.end(), Data, Data + Size);
  }
  return Out.size() - Start;
}

std::vector<uint8_t> traceback::snapEncode(const std::vector<uint8_t> &Input) {
  std::vector<uint8_t> Out;
  snapEncodeTo(Input.data(), Input.size(), Out);
  return Out;
}

bool traceback::snapEncodedRawSize(const uint8_t *Data, size_t Size,
                                   uint64_t &RawSize) {
  size_t Pos = 0;
  if (!getVar(Data, Size, Pos, RawSize))
    return false;
  return RawSize <= SnapCodecMaxRawSize;
}

bool traceback::snapDecodeTo(const uint8_t *Data, size_t Size,
                             std::vector<uint8_t> &Out) {
  size_t Pos = 0;
  uint64_t RawSize = 0;
  if (!getVar(Data, Size, Pos, RawSize) || RawSize > SnapCodecMaxRawSize)
    return false;
  if (Pos >= Size && RawSize != 0)
    return false;
  if (RawSize == 0)
    return Pos + 1 == Size; // Mode byte present, nothing else.
  uint8_t Mode = Data[Pos++];

  if (Mode == ModeRaw) {
    if (Size - Pos != RawSize)
      return false;
    Out.insert(Out.end(), Data + Pos, Data + Size);
    return true;
  }
  if (Mode != ModeWordOps)
    return false;

  const size_t OutStart = Out.size();
  const uint64_t TotalWords = RawSize / 4;
  const uint64_t TailBytes = RawSize % 4;
  // Reserve conservatively: enough for the claimed output, but never let
  // a fuzzed header force a giant up-front allocation on its own.
  Out.reserve(OutStart + static_cast<size_t>(
                             RawSize < (1u << 22) ? RawSize : (1u << 22)));

  uint64_t WordsOut = 0;
  bool TailSeen = false;
  uint32_t PrevDag = 0;
  uint32_t PrevWord = 0;
  bool HavePrevWord = false;
  DagDict Dict;

  while (Pos < Size) {
    uint8_t Tag = Data[Pos++];
    Op O = static_cast<Op>(Tag & 7);
    if (TailSeen)
      return false; // The tail must be the final op.
    if (O == OpDict) {
      // The count field is a dictionary index, not a count.
      uint32_t W;
      if (!Dict.fetch(Tag >> 3, W) || WordsOut >= TotalWords)
        return false;
      storeWord(Out, W);
      PrevWord = W;
      HavePrevWord = true;
      PrevDag = dagIdOfRecord(W);
      ++WordsOut;
      continue;
    }
    uint64_t Count = Tag >> 3;
    if (Count == 0 && !getVar(Data, Size, Pos, Count))
      return false;
    if (Count == 0)
      return false;

    if (O == OpRawTail) {
      if (Count != TailBytes || Size - Pos < Count ||
          WordsOut != TotalWords)
        return false;
      Out.insert(Out.end(), Data + Pos, Data + Pos + Count);
      Pos += static_cast<size_t>(Count);
      TailSeen = true;
      continue;
    }

    if (Count > TotalWords - WordsOut)
      return false;
    switch (O) {
    case OpZeros:
      Out.insert(Out.end(), static_cast<size_t>(Count) * 4, 0);
      PrevWord = InvalidRecord;
      HavePrevWord = true;
      break;
    case OpSentinels:
      Out.insert(Out.end(), static_cast<size_t>(Count) * 4, 0xFF);
      PrevWord = SentinelRecord;
      HavePrevWord = true;
      break;
    case OpRepeat: {
      if (!HavePrevWord)
        return false;
      for (uint64_t K = 0; K < Count; ++K)
        storeWord(Out, PrevWord);
      break;
    }
    case OpDagRun: {
      for (uint64_t K = 0; K < Count; ++K) {
        uint64_t V;
        if (!getVar(Data, Size, Pos, V))
          return false;
        uint32_t Path = static_cast<uint32_t>(V) &
                        ((1u << PathBitCount) - 1);
        int64_t Delta = unzigzag(V >> PathBitCount);
        int64_t DagId = static_cast<int64_t>(PrevDag) + Delta;
        if (DagId < 0 || DagId > static_cast<int64_t>(BadDagId))
          return false;
        PrevDag = static_cast<uint32_t>(DagId);
        uint32_t W = makeDagRecord(PrevDag) | Path;
        if (W == SentinelRecord)
          return false; // A sentinel can never be framed as a DAG record.
        Dict.referenceWord(W); // Mirror the encoder's dictionary state.
        storeWord(Out, W);
        PrevWord = W;
        HavePrevWord = true;
      }
      break;
    }
    case OpLiteral: {
      if (Size - Pos < Count * 4)
        return false;
      Out.insert(Out.end(), Data + Pos, Data + Pos + Count * 4);
      Pos += static_cast<size_t>(Count) * 4;
      PrevWord = loadWord(Out.data() + Out.size() - 4);
      HavePrevWord = true;
      break;
    }
    default:
      return false;
    }
    WordsOut += Count;
  }

  return Pos == Size && WordsOut == TotalWords &&
         (TailBytes == 0 || TailSeen) &&
         Out.size() - OutStart == RawSize;
}

bool traceback::snapDecode(const std::vector<uint8_t> &Input,
                           std::vector<uint8_t> &Output) {
  Output.clear();
  return snapDecodeTo(Input.data(), Input.size(), Output);
}
