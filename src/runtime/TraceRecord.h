//===- runtime/TraceRecord.h - Trace record format --------------*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The 32-bit trace record format (paper Figure 1).
///
/// Records, one machine word each:
///  - `0x00000000`          invalid — zeroed sub-buffer space (section 3.2)
///  - `0xFFFFFFFF`          buffer-end sentinel checked by heavyweight probes
///  - bit 31 set            DAG record: 21-bit DAG ID (bits 30..10) written
///                          by the heavyweight probe, 10 path bits
///                          (bits 9..0) OR-ed in by lightweight probes
///  - bits 31..30 == 00     extended record header: 6-bit subtype, 8-bit
///                          payload word count, 16-bit inline datum
///  - bits 31..30 == 01     extended record continuation word (30 payload
///                          bits each)
///
/// The reserved DAG ID of all ones is the "bad DAG" ID used when the
/// runtime exhausts the ID space (section 2.3); bad-DAG rebasing also
/// clears every lightweight mask in the module, so a bad-DAG record can
/// never alias the all-ones sentinel.
///
/// Extended records carry SYNC data, timestamps, exception boundaries and
/// thread lifetime events. Payload words have their top bits fixed to 01,
/// so no payload byte pattern can forge a sentinel, an invalid word or a
/// DAG record — which is what makes back-to-front recovery of a torn ring
/// buffer possible (section 4.1).
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_RUNTIME_TRACERECORD_H
#define TRACEBACK_RUNTIME_TRACERECORD_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace traceback {

constexpr uint32_t InvalidRecord = 0x00000000u;
constexpr uint32_t SentinelRecord = 0xFFFFFFFFu;

constexpr unsigned DagIdBitCount = 21;
constexpr unsigned PathBitCount = 10;
/// Reserved: modules that lose DAG-ID arbitration write this ID.
constexpr uint32_t BadDagId = (1u << DagIdBitCount) - 1;
/// Usable DAG IDs are [1, MaxDagId]; 0 is reserved as invalid.
constexpr uint32_t MaxDagId = BadDagId - 1;

/// Builds the 32-bit record template a heavyweight probe stores.
constexpr uint32_t makeDagRecord(uint32_t DagId) {
  return 0x80000000u | (DagId << PathBitCount);
}

constexpr bool isDagRecord(uint32_t Word) {
  return (Word & 0x80000000u) != 0 && Word != SentinelRecord;
}

constexpr uint32_t dagIdOfRecord(uint32_t Word) {
  return (Word >> PathBitCount) & BadDagId;
}

constexpr uint32_t pathBitsOfRecord(uint32_t Word) {
  return Word & ((1u << PathBitCount) - 1);
}

/// Extended record subtypes. Subtype 0 is reserved so a header word can
/// never encode as 0 (the invalid record).
enum class ExtType : uint8_t {
  Timestamp = 1,    ///< payload: [timestamp]
  Sync = 2,         ///< inline: SyncKind; payload: [runtime id, logical
                    ///  thread id, sequence number, timestamp]
  Exception = 3,    ///< inline: fault code; payload: [module key,
                    ///  code offset, timestamp]
  ExceptionEnd = 4, ///< inline: fault code; payload: [timestamp]
  ThreadStart = 5,  ///< payload: [thread id, timestamp]
  ThreadEnd = 6,    ///< payload: [thread id, timestamp]
  SnapMark = 7,     ///< inline: snap reason; payload: [timestamp]
  /// Trailer appended after every runtime-written record: its inline
  /// field is don't-care (the "X" bits of Figure 1), so a lightweight
  /// probe that fires before the next heavyweight probe ORs its path bits
  /// harmlessly into the pad instead of corrupting real record content.
  Pad = 8,
  /// A chunk of the runtime's own metrics snapshot (JSON bytes packed
  /// little-endian, eight per payload u64; payload[0] is the chunk's byte
  /// count, inline is the chunk ordinal). Telemetry records never enter
  /// thread ring buffers — they live in the snap's dedicated telemetry
  /// stream so embedding them cannot perturb recovered traces.
  Telemetry = 9,
  /// A batch of timestamps accumulated host-side under
  /// RtPolicy::TimestampBatch (payload: absolute timestamps, oldest
  /// first). One record amortizes the ext-record framing across N
  /// samples; the reconstructor applies them as N sequential Timestamp
  /// records. Tradeoff: samples surface at flush points (batch full,
  /// thread/process end, snap), so attribution is coarser than the
  /// unbatched every-Nth-syscall placement.
  TimestampBatch = 10,
};

/// Positions of the four SYNC records an RPC generates (section 5.1).
enum class SyncKind : uint16_t {
  CallSend = 0,  ///< caller, before the request leaves
  CallRecv = 1,  ///< callee, request arrived
  ReplySend = 2, ///< callee, before the reply leaves
  ReplyRecv = 3, ///< caller, reply arrived
};

/// A decoded extended record.
struct ExtRecord {
  ExtType Type = ExtType::Timestamp;
  uint16_t Inline = 0;
  std::vector<uint64_t> Payload;
};

constexpr bool isExtHeader(uint32_t Word) {
  return Word != InvalidRecord && (Word >> 30) == 0;
}

constexpr bool isExtContinuation(uint32_t Word) { return (Word >> 30) == 1; }

/// Encodes \p R into trace words (header + continuations). Each payload
/// u64 occupies three 30/30/4-bit continuation words.
std::vector<uint32_t> encodeExtRecord(const ExtRecord &R);

/// Appends the header word of a record of \p Type whose payload is
/// \p PayloadU64s u64s; the caller appends each with appendExtPayload.
/// encodeExtRecord is these two, for a record already in an ExtRecord.
void appendExtHeader(std::vector<uint32_t> &Out, ExtType Type,
                     uint16_t Inline, unsigned PayloadU64s);

/// Appends one payload u64 as its three continuation words.
inline void appendExtPayload(std::vector<uint32_t> &Out, uint64_t V) {
  // 30 + 30 + 4 bits, low bits first; every word tagged 01 in bits 31..30.
  Out.push_back(0x40000000u | static_cast<uint32_t>(V & 0x3FFFFFFF));
  Out.push_back(0x40000000u | static_cast<uint32_t>((V >> 30) & 0x3FFFFFFF));
  Out.push_back(0x40000000u | static_cast<uint32_t>((V >> 60) & 0xF));
}

/// Decodes an extended record starting at Words[Pos] (which must be a
/// header). On success advances \p Pos past the record and returns true;
/// on a torn/truncated record returns false and leaves \p Pos at the
/// header.
bool decodeExtRecord(const uint32_t *Words, size_t Count, size_t &Pos,
                     ExtRecord &Out);

/// Number of continuation words a payload of \p PayloadU64s occupies.
constexpr unsigned extContinuationWords(unsigned PayloadU64s) {
  return PayloadU64s * 3;
}

} // namespace traceback

#endif // TRACEBACK_RUNTIME_TRACERECORD_H
