//===- replay/ExecutionLog.h - Recorded nondeterminism (.tblog) -*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution log: everything needed to re-execute a recorded world to
/// the fault. Because the VM is deterministic, that is (a) how the world
/// was built — machines, processes, deployed modules, registered services,
/// initial threads — and (b) the stream of decisions that were not a pure
/// function of guest state: scheduler picks, SysRand draws, RPC
/// wire-delivery counts, network fault actions, fault firings and snap
/// captures (the anchors replay stops and verifies at).
///
/// On-disk format (".tblog"): magic 'TBLG', version, then sections of
/// [u8 id][u32 size] — META, GENESIS, EVENTS, END. The EVENTS section is a
/// single chronological stream of self-delimiting entries, so byte-level
/// truncation (a kill -9 mid-write) loses exactly a chronological suffix:
/// `deserialize` recovers every complete entry and marks the log
/// `Truncated`, and replay of the surviving prefix reports its one
/// divergence precisely at `truncatedAt()`. The END section carries a
/// checksum over everything before it; only a log that reaches a valid END
/// is considered intact.
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_REPLAY_EXECUTIONLOG_H
#define TRACEBACK_REPLAY_EXECUTIONLOG_H

#include "support/ByteStream.h"

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace traceback {

/// The decision classes in the chronological event stream.
enum class LogEntryKind : uint8_t {
  Sched = 1,  ///< Scheduler pick at a slice boundary.
  Rand = 2,   ///< SysRand draw observed by a guest thread.
  Wire = 3,   ///< RPC wire-delivery count (0 dropped / 2 duplicated).
  Net = 4,    ///< Network fault action applied to one datagram.
  Anchor = 5, ///< A snap was captured (replay stop / verify point).
  Fired = 6,  ///< A fault-plan event fired.
};

const char *logEntryKindName(LogEntryKind K);

/// One recorded decision. Field meaning by kind:
///  - Sched:  A=slice, B=(candCount<<32)|pickIndex, C=picked pid,
///            D=picked tid, E=FNV hash of the candidate set.
///  - Rand:   A=pid, B=tid, C=value delivered to the guest.
///  - Wire:   A=delivery count.
///  - Net:    A=src machine, B=dst machine, C=copies, D=extra delay,
///            E=reordered flag.
///  - Anchor: A=pid, B=SnapReason, C=detail, D=slice, E=snap timestamp.
///  - Fired:  A=plan event index; Note=the injector's firing record.
struct LogEntry {
  LogEntryKind Kind = LogEntryKind::Sched;
  /// Per-kind call ordinal (0-based). Lets a ring-windowed log tell
  /// replay where enforcement of each kind begins.
  uint64_t Ordinal = 0;
  uint64_t A = 0, B = 0, C = 0, D = 0, E = 0;
  std::string Note;
};

/// An entry's EVENTS encoding is its head, its tail, then its note's
/// bytes. The head is the kind byte, then the ordinal and A as varints;
/// the tail is B-E and the note's length as varints. Consecutive entries
/// that repeat B-E and the note differ only in their heads, so a writer
/// may reuse a tail's bytes.
constexpr size_t MaxLogEntryHeadBytes = 1 + 2 * MaxVarU64Bytes;
constexpr size_t MaxLogEntryTailBytes = 5 * MaxVarU64Bytes;

/// Writes an entry's head at \p P and returns the end.
inline uint8_t *putLogEntryHead(uint8_t *P, LogEntryKind Kind,
                                uint64_t Ordinal, uint64_t A) {
  *P++ = static_cast<uint8_t>(Kind);
  P = putVarU64(P, Ordinal);
  return putVarU64(P, A);
}

/// Writes an entry's tail at \p P and returns the end; the note's
/// \p NoteSize bytes follow it.
inline uint8_t *putLogEntryTail(uint8_t *P, uint64_t B, uint64_t C,
                                uint64_t D, uint64_t E, uint64_t NoteSize) {
  P = putVarU64(P, B);
  P = putVarU64(P, C);
  P = putVarU64(P, D);
  P = putVarU64(P, E);
  return putVarU64(P, NoteSize);
}

/// Most bytes an entry with a \p NoteSize-byte note takes.
constexpr size_t maxLogEntrySize(size_t NoteSize) {
  return MaxLogEntryHeadBytes + MaxLogEntryTailBytes + NoteSize;
}

/// Writes a whole entry at \p P and returns the end.
inline uint8_t *putLogEntry(uint8_t *P, LogEntryKind Kind, uint64_t Ordinal,
                            uint64_t A, uint64_t B, uint64_t C, uint64_t D,
                            uint64_t E, std::string_view Note) {
  P = putLogEntryTail(putLogEntryHead(P, Kind, Ordinal, A), B, C, D, E,
                      Note.size());
  if (!Note.empty())
    std::memcpy(P, Note.data(), Note.size());
  return P + Note.size();
}

/// A machine of the recorded topology, in creation (id) order.
struct LogMachine {
  std::string Name;
  std::string OsName;
  int64_t ClockOffset = 0;
  uint64_t RateNum = 1;
  uint64_t RateDen = 1;
  /// Created by Deployment::enableNetworkTransport — replay re-creates it
  /// through the same call so endpoints and ids line up.
  bool IsCollector = false;
};

/// A process, in creation (pid) order.
struct LogProcess {
  uint32_t MachineIndex = 0; ///< Index into ExecutionLog::Machines.
  std::string Name;
  uint64_t Pid = 0;
};

/// A pre-execution thread: replay re-spawns it at the recorded entry.
struct LogThread {
  uint64_t Pid = 0;
  uint64_t Tid = 0;
  uint64_t EntryPC = 0;
  uint64_t Arg = 0;
};

/// An RPC service registration (World::registerService).
struct LogService {
  uint32_t Service = 0;
  uint64_t Pid = 0;
};

/// One Deployment::deploy call: the ORIGINAL (pre-instrumentation) module
/// image plus the instrumentation options — replay re-instruments from
/// scratch, reproducing code layout, DAG bases and mapfiles exactly.
struct LogDeploy {
  uint64_t Pid = 0;
  bool Instrument = true;
  std::vector<uint8_t> Image; ///< Module::serialize of the original.
  // InstrumentOptions, flattened (replay can't include instrument/ here).
  uint32_t TilePathBits = 0;
  bool TileHeadersAtCallReturns = true;
  bool TileEveryBlockIsHeader = false;
  bool TileMergeCallReturnHeaders = false;
  uint32_t DagIdBase = 0;
  uint16_t TlsSlot = 0;
  bool LineBoundaryBlocks = false;
  bool ElideImpliedBits = true;
};

/// A complete execution log.
struct ExecutionLog {
  // --- META ---------------------------------------------------------------
  std::string PolicyText; ///< RtPolicy::toText of the recorded policy.
  std::string PlanText;   ///< FaultPlan::toText ("" = no injector).
  uint32_t Quantum = 50;  ///< World::Quantum.
  bool NetEnabled = false;
  uint32_t WindowCap = 0;   ///< Ring cap entries were retained under.
  uint64_t DroppedHead = 0; ///< Entries dropped from the head by the ring.

  // --- GENESIS ------------------------------------------------------------
  std::vector<LogMachine> Machines;
  std::vector<LogProcess> Processes;
  std::vector<LogService> Services;
  std::vector<LogDeploy> Deploys;
  std::vector<LogThread> Threads;

  // --- EVENTS -------------------------------------------------------------
  /// Retained entries, chronological. Entry I has chronological index
  /// DroppedHead + I.
  std::vector<LogEntry> Entries;

  /// Set by deserialize: the byte stream ended before a valid END section
  /// (kill -9 mid-write). The recovered entries are an exact chronological
  /// prefix of what was recorded.
  bool Truncated = false;

  /// Chronological index of the first entry lost to truncation (== total
  /// recorded entries when intact).
  uint64_t truncatedAt() const { return DroppedHead + Entries.size(); }
  uint64_t totalEntries() const { return DroppedHead + Entries.size(); }

  std::vector<uint8_t> serialize() const;

  /// serialize() with the EVENTS entries supplied already encoded: \p Count
  /// entries in the \p Size bytes at \p Events, as putLogEntry writes
  /// them. META and GENESIS come from this log; Entries is ignored. This
  /// is how the recorder embeds its log without a LogEntry per event.
  std::vector<uint8_t> serializeEncoded(const uint8_t *Events, size_t Size,
                                        uint64_t Count) const;

  /// Tolerant parse: a stream cut anywhere inside EVENTS (or just before
  /// END) still yields every complete entry, with Truncated set. Returns
  /// false only when the header, META or GENESIS are unusable — without
  /// them there is no world to rebuild.
  static bool deserialize(const std::vector<uint8_t> &Bytes,
                          ExecutionLog &Out);
};

} // namespace traceback

#endif // TRACEBACK_REPLAY_EXECUTIONLOG_H
