//===- vm/Process.h - Guest process -----------------------------*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A guest process: address space, loaded modules (with load-time
/// relocation, import binding and the rebase hook that lets the TraceBack
/// runtime patch DAG IDs and TLS slots), threads, mutexes, signal handler
/// table, and the attachment point for runtimes.
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_VM_PROCESS_H
#define TRACEBACK_VM_PROCESS_H

#include "isa/Encoding.h"
#include "isa/Module.h"
#include "support/Random.h"
#include "vm/AddressSpace.h"
#include "vm/Fault.h"
#include "vm/Hooks.h"
#include "vm/Thread.h"

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace traceback {

class Machine;

/// A module mapped into a process. Holds a private, load-time-patched copy
/// of the module image plus the decoded instruction cache the interpreter
/// executes from.
struct LoadedModule {
  Module Mod;
  uint64_t CodeBase = 0;
  uint64_t DataBase = 0;
  uint32_t CodeSize = 0;

  std::vector<Instruction> Decoded;
  /// Decoded index of the instruction starting at each code offset, or
  /// NoInsn where none starts (a jump there is a wild control transfer).
  std::vector<uint32_t> IndexAt;
  static constexpr uint32_t NoInsn = UINT32_MAX;

  std::vector<uint64_t> ImportAddrs; ///< 0 = not yet bound.
  bool Unloaded = false;

  /// Identity key used in trace metadata and exception records.
  uint64_t key() const { return Mod.Checksum.low64(); }

  bool containsPC(uint64_t PC) const {
    return !Unloaded && PC >= CodeBase && PC < CodeBase + CodeSize;
  }
};

/// A guest process.
class Process {
public:
  Process(uint64_t Pid, std::string Name, Machine *Host);
  ~Process();

  uint64_t Pid;
  std::string Name;
  Machine *Host;

  AddressSpace Mem;
  std::vector<std::unique_ptr<LoadedModule>> Modules;
  std::vector<std::unique_ptr<Thread>> Threads;
  std::vector<RuntimeHooks *> Hooks; ///< Not owned.

  std::string Output; ///< Accumulated SysPrint* text.

  /// Execution oracle: when non-null, the interpreter appends a record
  /// each time a thread's (module, file, line) changes. Tests compare
  /// reconstructed traces against this ground truth.
  struct OracleEvent {
    uint64_t ThreadId;
    std::string Module;
    std::string File;
    uint32_t Line;
  };
  std::vector<OracleEvent> *OracleTrace = nullptr;
  bool Exited = false;
  bool HardKilled = false;
  int ExitCode = 0;
  GuestFault LastFault; ///< Populated when the process dies of a fault.

  std::map<int, uint64_t> SigHandlers;
  std::deque<int> PendingSignals;

  std::map<uint64_t, uint64_t> MutexOwner; ///< mutex id -> thread id.
  std::map<uint64_t, std::deque<uint64_t>> MutexWaiters;

  /// TLS slots claimed by runtimes (the probes' preferred slot may be
  /// taken, forcing TLS-slot rebasing, section 2.5).
  std::set<uint16_t> TlsReserved;

  Rng Rand;
  uint64_t CyclesUsed = 0;

  /// (base, size) of every region handed out by allocRuntimeRegion — lets
  /// the fault injector aim torn writes at live trace-buffer memory.
  std::vector<std::pair<uint64_t, uint64_t>> RuntimeRegions;

  // --- Modules ------------------------------------------------------------

  /// Maps \p M into the process: applies relocations, lets attached
  /// runtimes rebase, decodes, binds what imports it can. Returns nullptr
  /// with a diagnostic on failure.
  LoadedModule *loadModule(const Module &M, std::string &Error);

  /// Marks the (most recent) module named \p Name unloaded. Its DAG range
  /// is released by the runtime via the unload hook.
  bool unloadModule(const std::string &Name);

  LoadedModule *moduleForPC(uint64_t PC);
  const LoadedModule *moduleForPC(uint64_t PC) const;
  LoadedModule *findModule(const std::string &Name);

  /// Absolute address of \p SymName: \p Prefer's local symbols win, then
  /// exported symbols of other loaded modules. 0 if unresolved.
  uint64_t resolveSymbol(const std::string &SymName,
                         const LoadedModule *Prefer = nullptr) const;

  /// Binds import \p Index of \p LM on demand; returns 0 if unresolvable.
  uint64_t resolveImport(LoadedModule &LM, uint16_t Index);

  // --- Threads ------------------------------------------------------------

  /// Creates a thread with a fresh stack, entry PC and R0 = Arg. Fires
  /// onThreadStart.
  Thread *spawnThread(uint64_t EntryPC, uint64_t Arg);

  /// Convenience: spawn the main thread at exported symbol \p Entry.
  Thread *start(const std::string &Entry);

  Thread *findThread(uint64_t Id);

  // --- Memory -------------------------------------------------------------

  uint64_t allocHeap(uint64_t Size);
  /// Region reserved for the TraceBack runtime (trace buffers, the analog
  /// of the memory-mapped file of section 3.1).
  uint64_t allocRuntimeRegion(uint64_t Size);

  // --- Lifecycle ----------------------------------------------------------

  void attachRuntime(RuntimeHooks *H) { Hooks.push_back(H); }

  /// `kill -9`: every thread stops where it stands; no hooks run; buffer
  /// memory remains readable by the service process.
  void hardKill();

  /// Orderly process exit (SysExit or unhandled fault aftermath).
  void exitProcess(int Code, bool Orderly);

  uint64_t totalInstrRetired() const;
  bool anyInstrumentedModule() const;

  /// Dispatches a hook call to the runtime owning \p Tech (first match).
  RuntimeHooks *runtimeForTech(Technology Tech) const;

private:
  uint64_t NextThreadId = 1;
  uint64_t NextModuleBase = 0x100000;
  uint64_t NextStackTop = 0x7F0000000;
  uint64_t HeapNext = 0x200000000;
  uint64_t RtRegionNext = 0x500000000;
};

} // namespace traceback

#endif // TRACEBACK_VM_PROCESS_H
