//===- runtime/Snap.cpp - Snap file format --------------------------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "runtime/Snap.h"

#include "runtime/TraceRecord.h"
#include "support/ByteStream.h"
#include "support/SnapCodec.h"

#include <algorithm>

using namespace traceback;

SnapSink::~SnapSink() = default;

std::string traceback::snapReasonName(SnapReason R) {
  switch (R) {
  case SnapReason::Exception:
    return "exception";
  case SnapReason::Signal:
    return "signal";
  case SnapReason::Api:
    return "api";
  case SnapReason::Hang:
    return "hang";
  case SnapReason::External:
    return "external";
  case SnapReason::ProcessExit:
    return "process-exit";
  case SnapReason::GroupPeer:
    return "group-peer";
  case SnapReason::Unhandled:
    return "unhandled-exception";
  case SnapReason::MissingPeer:
    return "missing-peer";
  }
  return "unknown";
}

static const uint32_t SnapMagic = 0x50534254; // "TBSP"
// Version 4 is sectioned (size-prefixed sections; buffer/memory/telemetry
// payloads compressed with support/SnapCodec) and the only one written.
// Version 3 is monolithic with a trailing TELEMETRY stream; version 2 is
// monolithic without one. All three deserialize.
static const uint32_t SnapVersion = 4;
static const uint32_t SnapVersionMonolithic = 3;
static const uint32_t SnapVersionNoTelemetry = 2;

namespace {

/// v4 section ids. Unknown ids are skipped on read (forward compat).
enum SnapSection : uint8_t {
  SecHeader = 1,
  SecModules = 2,
  SecBuffers = 3,
  SecThreads = 4,
  SecMemory = 5,
  SecTelemetry = 6,
  SecExecLog = 7,
};

const char *sectionName(uint8_t Id) {
  switch (Id) {
  case SecHeader:
    return "header";
  case SecModules:
    return "modules";
  case SecBuffers:
    return "buffers";
  case SecThreads:
    return "threads";
  case SecMemory:
    return "memory";
  case SecTelemetry:
    return "telemetry";
  case SecExecLog:
    return "execlog";
  }
  return "unknown";
}

void patchU32(std::vector<uint8_t> &Out, size_t Offset, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out[Offset + I] = static_cast<uint8_t>(V >> (I * 8));
}

/// Begins a v4 section: writes the id and two u32 size placeholders.
/// Returns the offset of the placeholders for endSection to patch.
size_t beginSection(std::vector<uint8_t> &Out, uint8_t Id) {
  Out.push_back(Id);
  size_t At = Out.size();
  Out.insert(Out.end(), 8, 0);
  return At;
}

/// Ends a section: patches the encoded size from the bytes actually
/// written and the raw size from \p CompressionSavings (logical bytes
/// minus wire bytes of every codec stream inside the section).
void endSection(std::vector<uint8_t> &Out, size_t SizeAt,
                uint64_t CompressionSavings) {
  uint64_t Encoded = Out.size() - (SizeAt + 8);
  patchU32(Out, SizeAt, static_cast<uint32_t>(Encoded));
  patchU32(Out, SizeAt + 4,
           static_cast<uint32_t>(Encoded + CompressionSavings));
}

/// Appends a codec stream for [Data, Data+Size) prefixed by a patched
/// u32 byte count. Returns the wire size of the stream.
uint64_t writeCodecBlob(std::vector<uint8_t> &Out, const uint8_t *Data,
                        size_t Size) {
  size_t LenAt = Out.size();
  Out.insert(Out.end(), 4, 0);
  size_t Enc = snapEncodeTo(Data, Size, Out);
  patchU32(Out, LenAt, static_cast<uint32_t>(Enc));
  return Enc;
}

/// Like writeCodecBlob, but reuses \p Cached (a precomputed stream for
/// the same bytes) when it is present and its header round-trips to the
/// payload size — the length cross-check guards against a stale cache.
uint64_t writeCodecBlobCached(std::vector<uint8_t> &Out,
                              const std::vector<uint8_t> &Cached,
                              const uint8_t *Data, size_t Size) {
  uint64_t CachedRaw;
  if (!Cached.empty() &&
      snapEncodedRawSize(Cached.data(), Cached.size(), CachedRaw) &&
      CachedRaw == Size) {
    size_t LenAt = Out.size();
    Out.insert(Out.end(), 4, 0);
    Out.insert(Out.end(), Cached.begin(), Cached.end());
    patchU32(Out, LenAt, static_cast<uint32_t>(Cached.size()));
    return Cached.size();
  }
  return writeCodecBlob(Out, Data, Size);
}

/// Reads a u32-length-prefixed codec stream from \p R, appending the
/// decoded bytes to \p Bytes. Fails (returns false) on truncation, codec
/// damage or a decoded size different from \p ExpectRaw.
bool readCodecBlob(ByteReader &R, const uint8_t *Base, uint64_t ExpectRaw,
                   std::vector<uint8_t> &Bytes,
                   std::vector<uint8_t> *KeepStream = nullptr) {
  uint32_t Enc = R.readU32();
  if (R.failed() || R.remaining() < Enc)
    return false;
  size_t At = R.position();
  size_t Before = Bytes.size();
  if (!snapDecodeTo(Base + At, Enc, Bytes))
    return false;
  if (Bytes.size() - Before != ExpectRaw)
    return false;
  if (KeepStream)
    KeepStream->assign(Base + At, Base + At + Enc);
  // Advance past the stream.
  for (uint32_t I = 0; I < Enc; ++I)
    R.readU8();
  return !R.failed();
}

} // namespace

//===----------------------------------------------------------------------===//
// Field groups shared by the monolithic (v2/v3) and sectioned (v4) formats
//===----------------------------------------------------------------------===//

static void writeScalarFields(ByteWriter &W, const SnapFile &S) {
  W.writeU16(static_cast<uint16_t>(S.Reason));
  W.writeU16(S.ReasonDetail);
  W.writeString(S.ProcessName);
  W.writeU64(S.Pid);
  W.writeString(S.MachineName);
  W.writeString(S.OsName);
  W.writeU64(S.RuntimeId);
  W.writeU8(static_cast<uint8_t>(S.Tech));
  W.writeU64(S.Timestamp);
  W.writeU64(S.FaultThread);
  W.writeU64(S.FaultModuleKey);
  W.writeU32(S.FaultOffset);
  W.writeU16(S.FaultCodeValue);
  W.writeU64(S.BufferRegionBase);
}

static void readScalarFields(ByteReader &R, SnapFile &Out) {
  Out.Reason = static_cast<SnapReason>(R.readU16());
  Out.ReasonDetail = R.readU16();
  Out.ProcessName = R.readString();
  Out.Pid = R.readU64();
  Out.MachineName = R.readString();
  Out.OsName = R.readString();
  Out.RuntimeId = R.readU64();
  Out.Tech = static_cast<Technology>(R.readU8());
  Out.Timestamp = R.readU64();
  Out.FaultThread = R.readU64();
  Out.FaultModuleKey = R.readU64();
  Out.FaultOffset = R.readU32();
  Out.FaultCodeValue = R.readU16();
  Out.BufferRegionBase = R.readU64();
}

static void writeModuleList(ByteWriter &W, const SnapFile &S) {
  W.writeVarU64(S.Modules.size());
  for (const SnapModuleInfo &M : S.Modules) {
    W.writeString(M.Name);
    W.writeBytes(M.Checksum.Bytes.data(), M.Checksum.Bytes.size());
    W.writeU32(M.DagIdBase);
    W.writeU32(M.DagIdCount);
    W.writeU8(static_cast<uint8_t>(M.Tech));
    W.writeU8(static_cast<uint8_t>((M.Instrumented ? 1 : 0) |
                                   (M.Unloaded ? 2 : 0)));
    W.writeU64(M.CodeBase);
  }
}

static bool readModuleList(ByteReader &R, SnapFile &Out) {
  uint64_t NumModules = R.readVarU64();
  for (uint64_t I = 0; I < NumModules && !R.failed(); ++I) {
    SnapModuleInfo M;
    M.Name = R.readString();
    R.readBytes(M.Checksum.Bytes.data(), M.Checksum.Bytes.size());
    M.DagIdBase = R.readU32();
    M.DagIdCount = R.readU32();
    M.Tech = static_cast<Technology>(R.readU8());
    uint8_t Flags = R.readU8();
    M.Instrumented = Flags & 1;
    M.Unloaded = Flags & 2;
    M.CodeBase = R.readU64();
    Out.Modules.push_back(std::move(M));
  }
  return !R.failed();
}

static void writeThreadList(ByteWriter &W, const SnapFile &S) {
  W.writeVarU64(S.Threads.size());
  for (const SnapThreadInfo &T : S.Threads) {
    W.writeU64(T.ThreadId);
    W.writeU64(T.Cursor);
    W.writeU8(static_cast<uint8_t>((T.Alive ? 1 : 0) |
                                   (T.ExitedAbruptly ? 2 : 0)));
  }
}

static bool readThreadList(ByteReader &R, SnapFile &Out) {
  uint64_t NumThreads = R.readVarU64();
  for (uint64_t I = 0; I < NumThreads && !R.failed(); ++I) {
    SnapThreadInfo T;
    T.ThreadId = R.readU64();
    T.Cursor = R.readU64();
    uint8_t Flags = R.readU8();
    T.Alive = Flags & 1;
    T.ExitedAbruptly = Flags & 2;
    Out.Threads.push_back(T);
  }
  return !R.failed();
}

//===----------------------------------------------------------------------===//
// Monolithic format (v2/v3) — read only; tests/golden/golden.tbsnap pins v2
//===----------------------------------------------------------------------===//

/// Parses the post-version remainder of a v2/v3 image. \p R is positioned
/// just past the version word.
static bool deserializeMonolithic(ByteReader &R, uint32_t Version,
                                  SnapFile &Out) {
  readScalarFields(R, Out);
  if (!readModuleList(R, Out))
    return false;

  uint64_t NumBuffers = R.readVarU64();
  for (uint64_t I = 0; I < NumBuffers && !R.failed(); ++I) {
    SnapBufferImage B;
    B.Index = R.readU32();
    B.SubBufferWords = R.readU32();
    B.SubBufferCount = R.readU32();
    B.CommittedSubBuffer = R.readU32();
    B.OwnerThread = R.readU64();
    B.Desperation = R.readU8() != 0;
    B.RecordsBase = R.readU64();
    B.Raw = R.readBlob();
    Out.Buffers.push_back(std::move(B));
  }

  if (!readThreadList(R, Out))
    return false;

  uint64_t NumRegions = R.readVarU64();
  for (uint64_t I = 0; I < NumRegions && !R.failed(); ++I) {
    SnapMemoryRegion Region;
    Region.Base = R.readU64();
    Region.Label = R.readString();
    Region.Bytes = R.readBlob();
    Out.Memory.push_back(std::move(Region));
  }

  if (Version >= SnapVersionMonolithic) {
    uint64_t NumWords = R.readVarU64();
    if (R.remaining() < NumWords * 4)
      return false;
    Out.Telemetry.reserve(static_cast<size_t>(NumWords));
    for (uint64_t I = 0; I < NumWords && !R.failed(); ++I)
      Out.Telemetry.push_back(R.readU32());
  }
  return !R.failed();
}

//===----------------------------------------------------------------------===//
// Sectioned format (v4)
//===----------------------------------------------------------------------===//

static bool readBufferSection(ByteReader &SR, const uint8_t *Sec,
                              SnapFile &Out) {
  uint64_t N = SR.readVarU64();
  for (uint64_t I = 0; I < N && !SR.failed(); ++I) {
    SnapBufferImage B;
    B.Index = SR.readU32();
    B.SubBufferWords = SR.readU32();
    B.SubBufferCount = SR.readU32();
    B.CommittedSubBuffer = SR.readU32();
    B.OwnerThread = SR.readU64();
    B.Desperation = SR.readU8() != 0;
    B.RecordsBase = SR.readU64();
    uint64_t RawLen = SR.readVarU64();
    if (SR.failed() || RawLen > SnapCodecMaxRawSize)
      return false;
    // Keep the wire stream as the image's encode cache: re-serializing a
    // just-deserialized snap is then an append, and provably
    // byte-identical.
    if (!readCodecBlob(SR, Sec, RawLen, B.Raw, &B.Encoded))
      return false;
    Out.Buffers.push_back(std::move(B));
  }
  return !SR.failed();
}

static bool readMemorySection(ByteReader &SR, const uint8_t *Sec,
                              SnapFile &Out) {
  uint64_t N = SR.readVarU64();
  for (uint64_t I = 0; I < N && !SR.failed(); ++I) {
    SnapMemoryRegion Region;
    Region.Base = SR.readU64();
    Region.Label = SR.readString();
    uint64_t RawLen = SR.readVarU64();
    if (SR.failed() || RawLen > SnapCodecMaxRawSize)
      return false;
    if (!readCodecBlob(SR, Sec, RawLen, Region.Bytes))
      return false;
    Out.Memory.push_back(std::move(Region));
  }
  return !SR.failed();
}

static bool readTelemetrySection(ByteReader &SR, SnapFile &Out) {
  uint64_t NumWords = SR.readVarU64();
  if (SR.failed() || SR.remaining() < NumWords * 4)
    return false;
  Out.Telemetry.reserve(static_cast<size_t>(NumWords));
  for (uint64_t I = 0; I < NumWords && !SR.failed(); ++I)
    Out.Telemetry.push_back(SR.readU32());
  return !SR.failed();
}

/// Walks the v4 section table. With \p HeaderOnly the payload sections
/// (buffers/memory/telemetry) are skipped via their size prefix — their
/// bytes are never decoded — and their summed raw sizes land in
/// \p PayloadBytes. Unknown section ids are always skipped (forward
/// compat). \p R is positioned just past the version word.
static bool parseSections(const std::vector<uint8_t> &Bytes, ByteReader &R,
                          SnapFile &Out, bool HeaderOnly,
                          uint64_t *PayloadBytes) {
  uint8_t Count = R.readU8();
  bool SawHeader = false;
  uint64_t Payload = 0;
  for (unsigned I = 0; I < Count; ++I) {
    uint8_t Id = R.readU8();
    uint32_t Enc = R.readU32();
    uint32_t Raw = R.readU32();
    if (R.failed() || R.remaining() < Enc)
      return false;
    const uint8_t *Sec = Bytes.data() + R.position();
    bool Skip = HeaderOnly && (Id == SecBuffers || Id == SecMemory ||
                               Id == SecTelemetry || Id == SecExecLog);
    if (Skip) {
      Payload += Raw;
    } else {
      ByteReader SR(Sec, Enc);
      bool Parsed = true;
      switch (Id) {
      case SecHeader:
        readScalarFields(SR, Out);
        SawHeader = true;
        break;
      case SecModules:
        if (!readModuleList(SR, Out))
          return false;
        break;
      case SecThreads:
        if (!readThreadList(SR, Out))
          return false;
        break;
      case SecBuffers:
        if (!readBufferSection(SR, Sec, Out))
          return false;
        break;
      case SecMemory:
        if (!readMemorySection(SR, Sec, Out))
          return false;
        break;
      case SecTelemetry:
        if (!readTelemetrySection(SR, Out))
          return false;
        break;
      case SecExecLog:
        Out.ExecLog = SR.readBlob();
        break;
      default:
        Parsed = false; // Unknown section: skip its payload.
        break;
      }
      // A parsed section must consume exactly its declared bytes —
      // anything else is corruption, not slack.
      if (Parsed && (SR.failed() || !SR.atEnd()))
        return false;
    }
    R.skip(Enc);
  }
  if (!SawHeader || R.failed() || !R.atEnd())
    return false;
  if (PayloadBytes)
    *PayloadBytes = Payload;
  return true;
}

size_t SnapFile::serializeTo(std::vector<uint8_t> &Out) const {
  const size_t Start = Out.size();
  // Reserve for the expected compressed size, not the codec's raw-block
  // worst case: trace payloads compress far below an eighth of raw, so a
  // worst-case reserve would allocate ~30x the bytes actually written —
  // and that allocation is pure overhead on the group-snap fan-out path.
  // Incompressible payloads fall back to amortized vector growth.
  size_t Guess = 256 + ProcessName.size() + MachineName.size() +
                 OsName.size();
  for (const SnapModuleInfo &M : Modules)
    Guess += M.Name.size() + 48;
  for (const SnapBufferImage &B : Buffers)
    Guess += B.Raw.size() / 8 + 64;
  for (const SnapMemoryRegion &Region : Memory)
    Guess += Region.Bytes.size() / 8 + Region.Label.size() + 48;
  Guess += Threads.size() * 24 + Telemetry.size() * 4 + 64;
  Out.reserve(Start + Guess);

  ByteWriter W(Out);
  W.writeU32(SnapMagic);
  W.writeU32(SnapVersion);
  // Section count. The execlog section exists only when a log was
  // embedded, so recording-off snaps stay byte-identical to older builds.
  W.writeU8(ExecLog.empty() ? 6 : 7);

  size_t At = beginSection(Out, SecHeader);
  writeScalarFields(W, *this);
  endSection(Out, At, 0);

  At = beginSection(Out, SecModules);
  writeModuleList(W, *this);
  endSection(Out, At, 0);

  At = beginSection(Out, SecBuffers);
  uint64_t Savings = 0;
  W.writeVarU64(Buffers.size());
  for (const SnapBufferImage &B : Buffers) {
    W.writeU32(B.Index);
    W.writeU32(B.SubBufferWords);
    W.writeU32(B.SubBufferCount);
    W.writeU32(B.CommittedSubBuffer);
    W.writeU64(B.OwnerThread);
    W.writeU8(B.Desperation ? 1 : 0);
    W.writeU64(B.RecordsBase);
    W.writeVarU64(B.Raw.size());
    uint64_t Enc =
        writeCodecBlobCached(Out, B.Encoded, B.Raw.data(), B.Raw.size());
    Savings += B.Raw.size() > Enc ? B.Raw.size() - Enc : 0;
  }
  endSection(Out, At, Savings);

  At = beginSection(Out, SecThreads);
  writeThreadList(W, *this);
  endSection(Out, At, 0);

  At = beginSection(Out, SecMemory);
  Savings = 0;
  W.writeVarU64(Memory.size());
  for (const SnapMemoryRegion &Region : Memory) {
    W.writeU64(Region.Base);
    W.writeString(Region.Label);
    W.writeVarU64(Region.Bytes.size());
    uint64_t Enc =
        writeCodecBlob(Out, Region.Bytes.data(), Region.Bytes.size());
    Savings += Region.Bytes.size() > Enc ? Region.Bytes.size() - Enc : 0;
  }
  endSection(Out, At, Savings);

  // Telemetry is packed JSON text — high-entropy for a word codec — so it
  // is stored as raw words rather than paying codec framing for nothing.
  At = beginSection(Out, SecTelemetry);
  W.writeVarU64(Telemetry.size());
  for (uint32_t Word : Telemetry)
    W.writeU32(Word);
  endSection(Out, At, 0);

  // The embedded execution log is already a self-framed .tblog image —
  // store its bytes verbatim.
  if (!ExecLog.empty()) {
    At = beginSection(Out, SecExecLog);
    W.writeVarU64(ExecLog.size());
    Out.insert(Out.end(), ExecLog.begin(), ExecLog.end());
    endSection(Out, At, 0);
  }

  return Out.size() - Start;
}

std::vector<uint8_t> SnapFile::serialize() const {
  std::vector<uint8_t> Out;
  serializeTo(Out);
  return Out;
}

bool SnapFile::deserialize(const std::vector<uint8_t> &Bytes, SnapFile &Out) {
  ByteReader R(Bytes);
  if (R.readU32() != SnapMagic)
    return false;
  uint32_t Version = R.readU32();
  if (R.failed())
    return false;
  Out = SnapFile();
  if (Version == SnapVersion)
    return parseSections(Bytes, R, Out, /*HeaderOnly=*/false, nullptr);
  if (Version == SnapVersionMonolithic || Version == SnapVersionNoTelemetry)
    return deserializeMonolithic(R, Version, Out);
  return false;
}

bool SnapFile::deserializeHeader(const std::vector<uint8_t> &Bytes,
                                 SnapFile &Out, uint64_t *PayloadBytes) {
  ByteReader R(Bytes);
  if (R.readU32() != SnapMagic)
    return false;
  uint32_t Version = R.readU32();
  if (R.failed())
    return false;
  Out = SnapFile();
  if (Version == SnapVersion)
    return parseSections(Bytes, R, Out, /*HeaderOnly=*/true, PayloadBytes);
  if (Version != SnapVersionMonolithic && Version != SnapVersionNoTelemetry)
    return false;
  // Monolithic images have no section table to skip over: fall back to a
  // full parse and report the payload cost after the fact.
  if (!deserializeMonolithic(R, Version, Out))
    return false;
  if (PayloadBytes) {
    uint64_t P = 0;
    for (const SnapBufferImage &B : Out.Buffers)
      P += B.Raw.size();
    for (const SnapMemoryRegion &Region : Out.Memory)
      P += Region.Bytes.size();
    P += Out.Telemetry.size() * 4;
    *PayloadBytes = P;
  }
  return true;
}

bool traceback::snapSectionStats(const std::vector<uint8_t> &Bytes,
                                 uint32_t &Version,
                                 std::vector<SnapSectionStat> &Out) {
  Out.clear();
  ByteReader R(Bytes);
  if (R.readU32() != SnapMagic)
    return false;
  Version = R.readU32();
  if (R.failed())
    return false;
  if (Version == SnapVersionMonolithic || Version == SnapVersionNoTelemetry) {
    SnapSectionStat S;
    S.Name = "monolithic";
    S.EncodedBytes = S.RawBytes = Bytes.size();
    Out.push_back(std::move(S));
    return true;
  }
  if (Version != SnapVersion)
    return false;
  uint8_t Count = R.readU8();
  for (unsigned I = 0; I < Count; ++I) {
    SnapSectionStat S;
    uint8_t Id = R.readU8();
    S.EncodedBytes = R.readU32();
    S.RawBytes = R.readU32();
    S.Name = sectionName(Id);
    if (R.failed() || !R.skip(S.EncodedBytes))
      return false;
    Out.push_back(std::move(S));
  }
  return R.atEnd();
}

//===----------------------------------------------------------------------===//
// TELEMETRY record stream
//===----------------------------------------------------------------------===//

/// Bytes of JSON carried per TELEMETRY record. Each payload u64 after the
/// leading byte-count word packs eight bytes little-endian; 83 data words
/// plus the count word is 84 u64s = 252 continuation words, under the
/// 255-word limit of the 8-bit continuation-count field.
static constexpr size_t TelemetryChunkBytes = 83 * 8;

std::vector<uint32_t> traceback::encodeTelemetryRecords(const std::string &Json) {
  const size_t Chunks =
      Json.empty() ? 1 : (Json.size() + TelemetryChunkBytes - 1) /
                             TelemetryChunkBytes;
  std::vector<uint32_t> Out;
  // Per chunk: a header word, the byte count, and the bytes eight per
  // payload u64 (the last one partial).
  Out.reserve(Chunks + extContinuationWords(static_cast<unsigned>(
                           2 * Chunks + Json.size() / 8)));
  size_t Offset = 0;
  uint16_t Ordinal = 0;
  // Emit at least one record even for an empty document so the stream is
  // distinguishable from "no telemetry".
  do {
    size_t N = std::min(TelemetryChunkBytes, Json.size() - Offset);
    appendExtHeader(Out, ExtType::Telemetry, Ordinal++,
                    static_cast<unsigned>(1 + (N + 7) / 8));
    appendExtPayload(Out, N);
    for (size_t I = 0; I < N; I += 8) {
      uint64_t W = 0;
      for (size_t B = 0; B < 8 && I + B < N; ++B)
        W |= static_cast<uint64_t>(
                 static_cast<uint8_t>(Json[Offset + I + B]))
             << (B * 8);
      appendExtPayload(Out, W);
    }
    Offset += N;
  } while (Offset < Json.size());
  return Out;
}

bool traceback::decodeTelemetryRecords(const std::vector<uint32_t> &Words,
                                       std::string &JsonOut) {
  JsonOut.clear();
  size_t Pos = 0;
  uint16_t Expected = 0;
  while (Pos < Words.size()) {
    // The stream may come straight from a damaged .tbsnap: check the word
    // tag here — decodeExtRecord treats "at a header" as a precondition.
    if (!isExtHeader(Words[Pos]))
      return false;
    ExtRecord R;
    if (!decodeExtRecord(Words.data(), Words.size(), Pos, R))
      return false;
    if (R.Type != ExtType::Telemetry || R.Inline != Expected++ ||
        R.Payload.empty())
      return false;
    size_t N = static_cast<size_t>(R.Payload[0]);
    if (N > (R.Payload.size() - 1) * 8)
      return false;
    for (size_t I = 0; I < N; ++I)
      JsonOut.push_back(static_cast<char>(
          (R.Payload[1 + I / 8] >> ((I % 8) * 8)) & 0xFF));
  }
  return true;
}

void SnapFile::setTelemetry(const MetricsRegistry &Registry) {
  Telemetry = encodeTelemetryRecords(Registry.toJson());
}

bool SnapFile::telemetry(MetricsSnapshot &Out) const {
  if (Telemetry.empty())
    return false;
  std::string Json;
  if (!decodeTelemetryRecords(Telemetry, Json))
    return false;
  return MetricsSnapshot::fromJson(Json, Out);
}
