//===- runtime/Snap.h - Snap file format ------------------------*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The snap file (paper section 3.6): raw trace buffers plus the metadata
/// reconstruction needs — process identity, host description, the loaded
/// module list with checksums and actual (post-rebase) DAG ranges, the
/// reason the snap was produced, and per-thread cursor state for clean
/// snaps.
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_RUNTIME_SNAP_H
#define TRACEBACK_RUNTIME_SNAP_H

#include "isa/Module.h"
#include "support/MD5.h"
#include "support/Metrics.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace traceback {

/// Why a snap was produced (section 3.6's trigger taxonomy).
enum class SnapReason : uint16_t {
  Exception = 1,
  Signal = 2,
  Api = 3,       ///< Programmatic snap call.
  Hang = 4,      ///< Heartbeat timeout from the service process.
  External = 5,  ///< External snap utility.
  ProcessExit = 6,
  GroupPeer = 7, ///< Snapped because a process-group peer snapped.
  Unhandled = 8, ///< Last-chance handler (crash).
  /// Not a real snap: the degradation record of a PARTIAL group snap. A
  /// peer machine was unreachable (network partition) when a group snap
  /// fanned out, so this marker stands in for its contribution —
  /// MachineName names the missing peer, ProcessName the process group,
  /// ReasonDetail the peer's machine id. Carries no buffers.
  MissingPeer = 9,
};

std::string snapReasonName(SnapReason R);

/// One module's metadata in a snap.
struct SnapModuleInfo {
  std::string Name;
  MD5Digest Checksum;
  uint32_t DagIdBase = 0;  ///< Actual, post-rebase base.
  uint32_t DagIdCount = 0;
  Technology Tech = Technology::Native;
  bool Instrumented = false;
  bool Unloaded = false;
  uint64_t CodeBase = 0;
};

/// One raw trace buffer image.
struct SnapBufferImage {
  uint32_t Index = 0;
  uint32_t SubBufferWords = 0; ///< Including the trailing sentinel word.
  uint32_t SubBufferCount = 0;
  uint32_t CommittedSubBuffer = UINT32_MAX;
  uint64_t OwnerThread = 0;
  bool Desperation = false;
  /// Guest address of Raw[0] — lets thread cursor addresses be translated
  /// to offsets within this image.
  uint64_t RecordsBase = 0;
  std::vector<uint8_t> Raw; ///< The record words, little endian.
  /// Raw's codec stream, precomputed at capture while the copy was still
  /// cache-hot, or retained from the v4 wire image at deserialize.
  /// serializeTo appends it verbatim instead of re-reading Raw through
  /// the codec — the group-snap archival path touches each buffer's
  /// bytes once, at capture. Empty = encode on demand. Invariant:
  /// anything that mutates Raw must clear this (the serializer
  /// cross-checks the stream's decoded size as a backstop).
  std::vector<uint8_t> Encoded;
};

/// A captured slice of guest memory (section 3.6's memory dump).
struct SnapMemoryRegion {
  uint64_t Base = 0;
  /// What the region is ("stack t3", "fault addr").
  std::string Label;
  std::vector<uint8_t> Bytes;
};

/// Per-thread state at snap time.
struct SnapThreadInfo {
  uint64_t ThreadId = 0;
  /// Guest address of the thread's last-written record (its TLS cursor),
  /// or 0 when unknown (abrupt termination lost it — reconstruction falls
  /// back to sub-buffer commit state, section 3.2).
  uint64_t Cursor = 0;
  bool Alive = true;
  bool ExitedAbruptly = false;
};

/// A complete snap.
struct SnapFile {
  SnapReason Reason = SnapReason::Api;
  uint16_t ReasonDetail = 0; ///< Fault code / signal number / API code.
  std::string ProcessName;
  uint64_t Pid = 0;
  std::string MachineName;
  std::string OsName;
  uint64_t RuntimeId = 0;
  Technology Tech = Technology::Native;
  uint64_t Timestamp = 0;

  /// Fault context when Reason is Exception/Unhandled/Signal.
  uint64_t FaultThread = 0;
  uint64_t FaultModuleKey = 0;
  uint32_t FaultOffset = 0;
  uint16_t FaultCodeValue = 0;

  /// Guest base address of the buffer region (so record-internal cursor
  /// addresses can be translated to buffer offsets).
  uint64_t BufferRegionBase = 0;
  std::vector<SnapModuleInfo> Modules;
  std::vector<SnapBufferImage> Buffers;
  std::vector<SnapThreadInfo> Threads;
  std::vector<SnapMemoryRegion> Memory;

  /// The runtime's self-telemetry, encoded as TELEMETRY extended records
  /// (format version 3; empty in snaps written before telemetry existed).
  /// This is a dedicated stream, deliberately NOT part of any thread ring
  /// buffer: embedding metrics must never perturb recovered trace bytes.
  std::vector<uint32_t> Telemetry;

  /// Embeds \p Registry's current values as this snap's Telemetry stream,
  /// rendered straight from its instruments; reads them back.
  void setTelemetry(const MetricsRegistry &Registry);
  bool telemetry(MetricsSnapshot &Out) const;

  /// A serialized ExecutionLog (replay/ExecutionLog.h) captured at this
  /// snap's anchor point when RtPolicy::RecordExecution is on — the
  /// nondeterministic inputs needed to re-execute the world to this exact
  /// snap (`tbtool replay`). Empty when recording was off; the section is
  /// only written when non-empty, so recording-off snaps are byte-
  /// identical to pre-replay builds.
  std::vector<uint8_t> ExecLog;

  /// Serializes in the current format (v4: size-prefixed sections whose
  /// buffer/memory/telemetry payloads are compressed by support/SnapCodec),
  /// appending to \p Out — the zero-copy streaming writer. \p Out is
  /// pre-reserved to a worst-case bound, so a fresh sink sees at most one
  /// allocation and no intermediate per-section vectors exist. Returns the
  /// number of bytes appended.
  size_t serializeTo(std::vector<uint8_t> &Out) const;

  /// serializeTo into a fresh vector.
  std::vector<uint8_t> serialize() const;

  /// Accepts v2, v3 and v4 images (only v4 is ever written).
  static bool deserialize(const std::vector<uint8_t> &Bytes, SnapFile &Out);

  /// Header-only load: fills every scalar field plus Modules and Threads,
  /// but skips the (compressed) buffer, memory and telemetry payloads —
  /// on v4 images this touches only the section table, never inflating
  /// record bytes. \p PayloadBytes, when non-null, receives the total
  /// uncompressed payload size of the skipped sections (the scheduling
  /// cost estimate batch mode sorts by). v2/v3 images fall back to a full
  /// parse. Returns false on malformed input.
  static bool deserializeHeader(const std::vector<uint8_t> &Bytes,
                                SnapFile &Out,
                                uint64_t *PayloadBytes = nullptr);
};

/// Per-section size breakdown of a serialized snap (`tbtool info`).
struct SnapSectionStat {
  std::string Name;
  uint64_t EncodedBytes = 0; ///< Bytes on the wire.
  uint64_t RawBytes = 0;     ///< Logical bytes before compression.
};

/// Lists the sections of a serialized snap with raw-vs-encoded sizes.
/// v2/v3 images report one monolithic pseudo-section. Returns false on
/// malformed input.
bool snapSectionStats(const std::vector<uint8_t> &Bytes, uint32_t &Version,
                      std::vector<SnapSectionStat> &Out);

/// Encodes a metrics-snapshot JSON document as a sequence of TELEMETRY
/// extended records (chunked; each record carries at most ~660 bytes).
std::vector<uint32_t> encodeTelemetryRecords(const std::string &Json);

/// Decodes a TELEMETRY record stream back to the JSON document. Returns
/// false on torn/out-of-order chunks; an empty stream yields an empty
/// string and true.
bool decodeTelemetryRecords(const std::vector<uint32_t> &Words,
                            std::string &JsonOut);

/// Receives snaps as the runtime produces them (the transport to the
/// service process / archive in a real deployment). A snap is handed over
/// as one immutable shared instance, so a group snap fanned out to many
/// sinks never copies its buffers; the producer's telemetry travels
/// inside it (SnapFile::Telemetry).
class SnapSink {
public:
  virtual ~SnapSink();
  virtual void onSnap(const std::shared_ptr<const SnapFile> &Snap) = 0;
};

} // namespace traceback

#endif // TRACEBACK_RUNTIME_SNAP_H
