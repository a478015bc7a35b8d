//===- vm/World.h - Scheduler, interpreter, RPC transport -------*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulation world: machines, the deterministic thread scheduler, the
/// TB-ISA interpreter with its cycle cost model, guest fault delivery and
/// unwinding, signals, and the RPC transport with TraceBack payload
/// piggybacking (section 5.1).
///
/// Time: one global cycle counter advances as threads execute; each
/// machine's clock is a skewed/drifting function of it. Benchmarks compare
/// cycle counts of instrumented vs. uninstrumented runs of the same
/// workload — the probes pay for their instructions through the same cost
/// model as program code.
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_VM_WORLD_H
#define TRACEBACK_VM_WORLD_H

#include "vm/Machine.h"
#include "vm/Scribe.h"
#include "vm/Syscalls.h"

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace traceback {

class FaultInjector;

/// An in-flight RPC.
struct RpcRequest {
  uint64_t Id = 0;
  uint32_t Service = 0;
  std::vector<uint8_t> Arg;
  std::vector<uint8_t> Reply;
  RpcWire Wire; ///< TraceBack triple traveling with the payload.
  RpcStatus Status = RpcStatus::Ok;
  Process *ClientProc = nullptr;
  uint64_t ClientThread = 0;
  Process *ServerProc = nullptr;
  uint64_t ServerThread = 0;
  uint64_t ArriveAt = 0; ///< Global cycle at which the request lands.
  uint64_t ReplyPtr = 0; ///< Client-side reply buffer (captured at call).
};

/// One raw datagram in flight between machines. The fabric is a plain
/// byte-packet network: framing, acknowledgement, retry and dedup all
/// live above it (distributed/Transport), exactly where they would in a
/// real deployment. Packets may be dropped, duplicated, delayed or
/// reordered by the attached fault injector, and a partition silently
/// swallows them.
struct NetPacket {
  uint64_t Src = 0;         ///< Source machine id.
  uint64_t Dst = 0;         ///< Destination machine id.
  uint64_t ArriveAt = 0;    ///< Global cycle at which it becomes receivable.
  uint64_t SendOrdinal = 0; ///< Global send ordinal (deterministic ties).
  std::vector<uint8_t> Bytes;
};

/// The whole simulated deployment.
class World {
public:
  World();
  ~World();

  /// Creates a machine whose clock runs at RateNum/RateDen of global
  /// cycles, offset by \p ClockOffset.
  Machine *createMachine(const std::string &Name,
                         const std::string &OsName = "simos",
                         int64_t ClockOffset = 0, uint64_t RateNum = 1,
                         uint64_t RateDen = 1);

  /// Registers \p P as the handler process for \p Service.
  void registerService(uint32_t Service, Process *P);

  /// The registered RPC service table (replay records and rebuilds it).
  const std::map<uint32_t, Process *> &services() const { return Services; }

  // --- Execution ----------------------------------------------------------

  enum class RunResult {
    AllExited,  ///< Every process has exited.
    Idle,       ///< Nothing runnable or sleeping: deadlock / all blocked.
    CycleLimit, ///< MaxCycles exhausted (potential livelock / hang).
  };

  /// Runs until everything exits, deadlocks, or \p MaxCycles elapse.
  RunResult run(uint64_t MaxCycles = 500'000'000);

  /// Executes at most one scheduling slice. Returns false if no thread
  /// could run (after advancing time past sleepers).
  bool stepSlice();

  uint64_t cycles() const { return GlobalCycles; }

  /// Scheduling slices executed so far (stepSlice call count).
  uint64_t slices() const { return SliceCount; }

  /// Abrupt thread death (TerminateThread analog): the thread stops where
  /// it stands, no runtime hooks run. Used by the fault injector.
  void killThreadAbruptly(Process &P, Thread &T) {
    exitThread(P, T, /*Orderly=*/false);
  }

  /// When non-null, consulted at every slice boundary, wire delivery and
  /// snap capture. Not owned.
  FaultInjector *Injector = nullptr;

  /// When non-null, observes (record mode) or arbitrates (replay mode)
  /// every nondeterministic decision: scheduler picks, SysRand draws,
  /// wire-delivery counts, network fault actions. See vm/Scribe.h. Not
  /// owned.
  ExecutionScribe *Scribe = nullptr;

  /// Queues an asynchronous signal for \p P (delivered to its first live
  /// thread at the next slice boundary). SigKill is a hard kill: no hooks.
  void sendSignal(Process &P, int Sig);

  /// Asks every runtime attached to \p P for a snap (external snap utility
  /// / service process request).
  void requestSnap(Process &P, uint16_t Reason);

  // --- Simulated network fabric -------------------------------------------
  //
  // Per-machine mailboxes of raw datagrams; the cross-machine snap
  // transport (distributed/Transport) rides on these. The fabric itself
  // is unreliable by construction: the fault injector can drop, dup,
  // delay or reorder any send, and partitioned machine pairs lose every
  // packet until healed.

  /// Sends raw bytes from machine \p Src to machine \p Dst. Returns how
  /// many copies were enqueued (0 = swallowed by a partition or a drop
  /// fault, 2 = duplicated).
  unsigned netSend(uint64_t Src, uint64_t Dst, std::vector<uint8_t> Bytes);

  /// Pops the next packet destined to machine \p M that has arrived
  /// (ArriveAt <= now). Delivery order is (ArriveAt, SendOrdinal).
  bool netPoll(uint64_t M, NetPacket &Out);

  /// Packets queued to machine \p M, arrived or still in flight.
  size_t netQueued(uint64_t M) const;

  /// Cuts (or heals) the link between machines \p A and \p B, both
  /// directions. Packets already in flight are unaffected.
  void netSetPartitioned(uint64_t A, uint64_t B, bool Cut);
  bool netPartitioned(uint64_t A, uint64_t B) const;
  /// Heals every partition.
  void netHealAll() { NetCuts.clear(); }

  /// Raw sends observed so far (fault-trigger ordinal space).
  uint64_t netSends() const { return NetSendOrdinal; }

  /// Advances global time without running any thread — lets host-side
  /// transport pumps wait out network latency and retry backoff when the
  /// guest world is idle.
  void advanceIdle(uint64_t Cycles) { GlobalCycles += Cycles; }

  // --- Tunables -----------------------------------------------------------

  uint64_t NetLatencyIntra = 200;    ///< Same-machine datagram, cycles.
  uint64_t NetLatencyCross = 3000;   ///< Cross-machine datagram, cycles.
  uint32_t Quantum = 50;             ///< Instructions per slice.
  uint64_t RpcLatencyIntra = 300;    ///< Same-machine RPC, cycles.
  uint64_t RpcLatencyCross = 4000;   ///< Cross-machine RPC, cycles.
  uint64_t IoLatencyBase = 1500;     ///< SysIoRead/Write fixed latency.
  uint64_t IoLatencyPerByte = 2;
  /// Kernel CPU burned per I/O byte (buffer copies, page cache): cost =
  /// bytes >> IoCpuShift cycles charged to the calling thread.
  uint64_t IoCpuShift = 1;

  std::vector<std::unique_ptr<Machine>> Machines;

  /// All processes across machines (iteration helper).
  std::vector<Process *> allProcesses() const;

private:
  friend class Interp;

  // Scheduler.
  bool anyRunnable(uint64_t &MinWake, bool &HaveSleeper) const;
  void wakeThread(Process &P, Thread &T);

  // Interpreter.
  void runQuantum(Machine &M, Process &P, Thread &T);
  void doSyscall(Machine &M, Process &P, Thread &T, uint16_t No);
  void deliverFault(Process &P, Thread &T, GuestFault F);
  void deliverSignal(Process &P, Thread &T, int Sig);
  void exitThread(Process &P, Thread &T, bool Orderly);
  void techTransition(Process &P, Thread &T, Technology From, Technology To,
                      bool IsCall);

  // RPC.
  void rpcCall(Machine &M, Process &P, Thread &T);
  void rpcRecv(Process &P, Thread &T);
  void rpcReply(Process &P, Thread &T);
  void rpcDispatch(RpcRequest &Req);
  void rpcCompleteToClient(RpcRequest &Req);
  void rpcDeliverToServer(Process &P, Thread &T, uint64_t ReqId);
  void rpcReturnToClient(Process &P, Thread &T, uint64_t ReqId);
  void rpcAbortFromServerFault(Process &P, Thread &T);

  friend class Machine;
  uint64_t GlobalCycles = 0;
  uint64_t SliceCount = 0;
  /// Extra CPU cycles a syscall charged beyond its opcode cost.
  uint64_t PendingSyscallCycles = 0;
  uint64_t NextMachineId = 1;
  uint64_t NextRpcId = 1;
  uint64_t NextPid = 100;
  std::map<uint32_t, Process *> Services;
  std::map<uint64_t, RpcRequest> Rpcs;
  std::map<Process *, std::vector<uint64_t>> ServerBacklog;
  size_t ScheduleCursor = 0;

  /// One runnable thread at a slice boundary. The candidate list and the
  /// scribe's view of it are rebuilt every slice into the same storage, so
  /// a slice allocates nothing.
  struct SliceCand {
    Machine *M;
    Process *P;
    Thread *T;
  };
  std::vector<SliceCand> Cands;
  std::vector<SliceCandidate> CandView;

  // Network fabric state.
  std::map<uint64_t, std::deque<NetPacket>> NetMailboxes; ///< Keyed by dst.
  std::set<std::pair<uint64_t, uint64_t>> NetCuts; ///< Normalized pairs.
  uint64_t NetSendOrdinal = 0;
};

} // namespace traceback

#endif // TRACEBACK_VM_WORLD_H
