//===- runtime/Runtime.h - The TraceBack runtime library --------*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The TraceBack runtime (paper section 3): trace buffer management
/// (main / static / probation / desperation buffers, sub-buffering,
/// buffer_wrap, reuse, dead-thread scavenging), module registration with
/// DAG-ID and TLS-slot rebasing, exception/signal/snap handling with
/// policy-driven triggers and suppression, timestamps, and the SYNC
/// records that stitch distributed logical threads together.
///
/// One instance traces one technology inside one process; a process
/// hosting Java-analog and native code attaches two instances with
/// separate buffers, and their traces are merged by the distributed
/// reconstruction path (section 3.3).
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_RUNTIME_RUNTIME_H
#define TRACEBACK_RUNTIME_RUNTIME_H

#include "runtime/DagBaseFile.h"
#include "runtime/Policy.h"
#include "runtime/Snap.h"
#include "runtime/TraceRecord.h"
#include "vm/Hooks.h"
#include "vm/Process.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace traceback {

class Machine;

/// The TraceBack runtime library for one technology within one process.
class TracebackRuntime : public RuntimeHooks {
public:
  /// Attaches to \p P (allocating buffer memory in its address space).
  /// \p Sink receives snaps; may be null. \p BaseFile optionally assigns
  /// coordinated DAG ranges; may be null. \p Metrics is the registry the
  /// runtime's self-telemetry lands in (null = the process-global one);
  /// instrument pointers are resolved once here, so tracing hot paths
  /// never take the registry lock.
  TracebackRuntime(Process &P, Technology Tech, const RtPolicy &Policy,
                   SnapSink *Sink = nullptr,
                   const DagBaseFile *BaseFile = nullptr,
                   MetricsRegistry *Metrics = nullptr);

  uint64_t runtimeId() const { return RuntimeId; }
  uint16_t tlsSlot() const { return TlsSlot; }
  const RtPolicy &policy() const { return Policy; }

  /// Takes a snap right now (used by the service process / external snap
  /// utility and the hang detector as well as internal triggers). Returns
  /// the immutable shared instance that was handed to the sink.
  std::shared_ptr<const SnapFile> takeSnap(SnapReason Reason,
                                           uint16_t Detail);

  // --- RuntimeHooks -------------------------------------------------------

  bool ownsTechnology(Technology T) const override { return T == Tech; }
  void onModuleRebase(Process &P, LoadedModule &LM) override;
  void onModuleUnloaded(Process &P, LoadedModule &LM) override;
  void onThreadStart(Process &P, Thread &T) override;
  void onThreadExit(Process &P, Thread &T) override;
  void onProcessExit(Process &P) override;
  void onRtCall(Process &P, Thread &T, uint16_t Entry) override;
  void onSyscall(Process &P, Thread &T, uint16_t Number) override;
  void onException(Process &P, Thread &T, const GuestFault &F) override;
  void onExceptionHandled(Process &P, Thread &T,
                          const GuestFault &F) override;
  void onUnhandledException(Process &P, Thread &T,
                            const GuestFault &F) override;
  void onSignal(Process &P, Thread &T, int Sig, bool HasGuestHandler,
                bool Fatal) override;
  void onSignalHandlerDone(Process &P, Thread &T, int Sig) override;
  void onSnapRequest(Process &P, Thread *T, uint16_t Reason) override;
  void onTechTransition(Process &P, Thread &T, Technology From,
                        Technology To, bool IsCall) override;
  void onRpcClientCall(Process &P, Thread &T, RpcWire &Wire) override;
  void onRpcServerRecv(Process &P, Thread &T, const RpcWire &Wire) override;
  void onRpcServerReply(Process &P, Thread &T, RpcWire &Wire) override;
  void onRpcClientReturn(Process &P, Thread &T, const RpcWire &Wire) override;

private:
  /// Host-side bookkeeping for one guest trace buffer.
  struct RtBuffer {
    uint64_t RecordsBase = 0; ///< Guest address of the first record word.
    uint32_t Index = 0;
    uint32_t SubWords = 0;    ///< Words per sub-buffer, incl. sentinel.
    uint32_t SubCount = 0;
    uint32_t Committed = UINT32_MAX;
    uint64_t OwnerThread = 0;
    /// Guest address of the last written record (mirrors the owner's TLS
    /// cursor at wrap boundaries and thread exit).
    uint64_t LastPtr = 0;
    bool Desperation = false;

    uint64_t totalWords() const {
      return static_cast<uint64_t>(SubWords) * SubCount;
    }
    bool contains(uint64_t Addr) const {
      return Addr >= RecordsBase && Addr < RecordsBase + totalWords() * 4;
    }
  };

  void initBuffer(RtBuffer &B);
  RtBuffer *bufferContaining(uint64_t Addr);

  /// Handles a probe's sentinel hit at \p SentinelAddr for \p T: commits
  /// the sub-buffer / rotates / assigns a buffer, and returns the fresh
  /// record slot address.
  uint64_t handleWrap(Thread &T, uint64_t SentinelAddr);

  /// First-come buffer assignment for a thread coming off probation.
  uint64_t assignBuffer(Thread &T);

  /// Advances past a just-filled sub-buffer: commit + zero next.
  uint64_t rotateSubBuffer(RtBuffer &B, uint64_t SentinelAddr);

  /// Appends one record word at the thread's cursor, wrapping as needed.
  void appendWord(Thread &T, uint32_t Word);

  /// Appends an extended record (timestamp, SYNC, exception, ...) if the
  /// thread has left probation (so bookkeeping never forces a buffer onto
  /// a thread that ran no instrumented code). \p Force assigns a buffer if
  /// needed — used for SYNC records, which bind logical threads at call
  /// boundaries *before* the callee's first probe runs.
  void appendExtRecord(Thread &T, const ExtRecord &Rec, bool Force = false);

  /// Writes ThreadEnd records for buffers whose owners died abruptly and
  /// frees them (the dead-thread scavenging pass, section 3.1.2).
  void scavengeDeadThreads();

  bool threadHasRealBuffer(const Thread &T) const;
  uint64_t machineNow() const;

  /// Emits \p T's pending TimestampBatch samples as one record.
  void flushTimestamps(Thread &T);
  uint64_t logicalThreadFor(Thread &T);
  void writeSync(Thread &T, SyncKind Kind, uint64_t PeerRuntime,
                 uint64_t LogicalId, uint64_t Seq);
  void maybeSnapForFault(Process &P, Thread &T, const GuestFault &F,
                         SnapReason Reason);

  Process &P;
  Technology Tech;
  RtPolicy Policy;
  SnapSink *Sink;
  MetricsRegistry &Reg;
  uint64_t RuntimeId;
  uint16_t TlsSlot;

  /// Hot-path instruments, resolved once at construction ("runtime." family
  /// in the registry). They are the only store of the runtime's counts:
  /// hot paths add to them directly, so the registry is current at every
  /// read.
  struct Instruments {
    Counter *WordsAppended = nullptr;
    Counter *BufferWraps = nullptr;
    Counter *FullBufferWraps = nullptr;
    Counter *SubBufferCommits = nullptr;
    Counter *ProbationExits = nullptr;
    Counter *DesperationAssignments = nullptr;
    Counter *SnapsTaken = nullptr;
    Counter *SnapsSuppressed = nullptr;
    Counter *ThreadsScavenged = nullptr;
    Counter *ModulesRebased = nullptr;
    Counter *ModulesBadDag = nullptr;
    Gauge *BuffersOwned = nullptr;
    Histogram *SnapLatencyUs = nullptr;
  };
  Instruments M;

  uint64_t RegionBase = 0;
  /// Guest bytes from one buffer slot to the next (header + records); the
  /// main buffers and the desperation buffer are laid out contiguously
  /// from RegionBase at this stride, so bufferContaining is a division.
  uint64_t BufferStrideBytes = 0;
  /// Bytes per sub-buffer (power of two). The layout puts each
  /// sub-buffer's sentinel slot — and only it — at an address that is 0
  /// mod SubBytes, so wrap detection is `(cursor & (SubBytes-1)) == 0`
  /// both in the guest probe helper (patched via the module's sub-mask
  /// fixups) and host-side.
  uint64_t SubBytes = 0;
  std::vector<RtBuffer> Buffers;
  RtBuffer Probation;
  RtBuffer Desperation;

  /// Module registry keyed by checksum: reload gets its old range back.
  struct ModuleReg {
    uint64_t Key = 0;
    std::string Name;
    uint32_t Base = 0;
    uint32_t Count = 0;
    bool Live = false;
    bool BadDag = false;
  };
  std::vector<ModuleReg> ModRegs;
  const DagBaseFile *BaseFile;

  /// Logical-thread bindings for distributed tracing.
  struct Binding {
    uint64_t LogicalId = 0;
    uint64_t Seq = 0;
  };
  std::map<uint64_t, Binding> Bindings; ///< Thread id -> binding.
  std::map<uint64_t, uint64_t> PartnerRuntimes; ///< Peer id -> first seen.
  uint64_t NextLogicalSerial = 1;

  /// Snap suppression counts per (module key, offset, code).
  std::map<std::tuple<uint64_t, uint32_t, uint16_t>, uint32_t> SnapCounts;

  std::map<uint64_t, uint32_t> SyscallCountByThread;
  /// Pending TimestampBatch samples per thread (only with
  /// Policy.TimestampBatch > 0). A scavenged dead thread's samples are
  /// dropped with its buffer ownership.
  std::map<uint64_t, std::vector<uint64_t>> PendingTs;
  /// Logical-clock fallback state (section 3.5): ticks on every important
  /// event when the policy selects it.
  mutable uint64_t LogicalClockValue = 0;
  GuestFault LastFaultSeen;
  uint64_t LastFaultThread = 0;
  /// This runtime's own wraps, which pace dead-thread scavenging.
  /// Behaviour, not a statistic: runtimes sharing a registry share its
  /// wrap counter, and the cadence must not depend on the neighbours.
  uint64_t Wraps = 0;
};

} // namespace traceback

#endif // TRACEBACK_RUNTIME_RUNTIME_H
