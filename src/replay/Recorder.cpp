//===- replay/Recorder.cpp - Execution recording scribe -------------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "replay/Recorder.h"

#include "core/Session.h"
#include "instrument/Instrumenter.h"
#include "vm/FaultInjector.h"

#include <algorithm>
#include <cstring>
#include <new>

using namespace traceback;

void CandidateSetMemo::replace(const std::vector<SliceCandidate> &Cands) {
  Last = Cands;
  Hash = ExecutionRecorder::candidateHash(Cands);
  Valid = true;
}

void ExecutionRecorder::attach(Deployment &Dep) {
  D = &Dep;
  Dep.world().Scribe = this;
}

uint64_t
ExecutionRecorder::candidateHash(const std::vector<SliceCandidate> &Cands) {
  uint64_t H = 0xcbf29ce484222325ULL;
  auto Mix = [&H](uint64_t V) {
    for (int I = 0; I < 8; ++I) {
      H ^= static_cast<uint8_t>(V >> (I * 8));
      H *= 0x100000001b3ULL;
    }
  };
  for (const SliceCandidate &C : Cands) {
    Mix(C.MachineId);
    Mix(C.Pid);
    Mix(C.Tid);
  }
  return H;
}

void ExecutionRecorder::append(LogEntryKind Kind, uint64_t A, uint64_t B,
                               uint64_t C, uint64_t D, uint64_t E,
                               std::string_view Note) {
  commit(putLogEntry(room(maxLogEntrySize(Note.size())), Kind,
                     NextOrd[static_cast<size_t>(Kind)]++, A, B, C, D, E,
                     Note));
}

void ExecutionRecorder::grow(size_t Size) {
  size_t Cap = std::max<size_t>({2 * Capacity, Used + Size, 4096});
  void *Bigger = std::realloc(Events.get(), Cap);
  if (!Bigger)
    throw std::bad_alloc();
  Events.release();
  Events.reset(static_cast<uint8_t *>(Bigger));
  Capacity = Cap;
}

void ExecutionRecorder::retainInWindow(size_t Start) {
  uint64_t Index = Base.DroppedHead + Retained; // Chronological.
  ++Retained;
  if (Starts.size() < Window)
    Starts.push_back(Erased + Start);
  else
    Starts[Index % Window] = Erased + Start;
  if (Retained <= Window)
    return;
  // The slot just overwritten held the dropped entry; the next slot holds
  // the new head.
  --Retained;
  ++Base.DroppedHead;
  Head = static_cast<size_t>(Starts[(Index + 1) % Window] - Erased);
  // Cut the dropped bytes off once they are at least half the bytes
  // written: the bytes moved are never more than the bytes dropped since
  // the last cut.
  if (Head >= Used / 2) {
    std::memmove(Events.get(), Events.get() + Head, Used - Head);
    Used -= Head;
    Erased += Head;
    Head = 0;
  }
}

void ExecutionRecorder::captureGenesis() {
  if (GenesisDone || !D)
    return;
  GenesisDone = true;
  World &W = D->world();

  Base.PolicyText = D->Policy.toText();
  Base.PlanText = W.Injector ? W.Injector->plan().toText() : std::string();
  Base.Quantum = W.Quantum;
  Base.NetEnabled = D->networkEnabled();
  Base.WindowCap = Window;

  Machine *Collector = D->collectorMachine();
  for (const auto &M : W.Machines) {
    LogMachine LM;
    LM.Name = M->Name;
    LM.OsName = M->OsName;
    LM.ClockOffset = M->Clock.offset();
    LM.RateNum = M->Clock.rateNum();
    LM.RateDen = M->Clock.rateDen();
    LM.IsCollector = M.get() == Collector;
    Base.Machines.push_back(std::move(LM));
  }

  // Pids are world-global and sequential: storing processes in pid order
  // is storing them in creation order, which is what replay must repeat
  // for the same pids to come back out.
  for (size_t MI = 0; MI < W.Machines.size(); ++MI)
    for (const auto &P : W.Machines[MI]->Processes) {
      LogProcess LP;
      LP.MachineIndex = static_cast<uint32_t>(MI);
      LP.Name = P->Name;
      LP.Pid = P->Pid;
      Base.Processes.push_back(std::move(LP));
    }
  std::sort(Base.Processes.begin(), Base.Processes.end(),
            [](const LogProcess &A, const LogProcess &B) {
              return A.Pid < B.Pid;
            });

  for (const auto &KV : W.services()) {
    LogService S;
    S.Service = KV.first;
    S.Pid = KV.second->Pid;
    Base.Services.push_back(S);
  }

  // Thread ids are per-process and sequential, so per-process order is
  // enough. At the first scheduling decision no instruction has run yet:
  // every live thread still sits at its entry with R0 = spawn argument.
  for (const auto &M : W.Machines)
    for (const auto &P : M->Processes)
      for (const auto &T : P->Threads) {
        if (T->exited())
          continue;
        LogThread LT;
        LT.Pid = P->Pid;
        LT.Tid = T->Id;
        LT.EntryPC = T->PC;
        LT.Arg = T->Regs[0];
        Base.Threads.push_back(LT);
      }
}

std::vector<uint8_t> ExecutionRecorder::serialized() const {
  return Base.serializeEncoded(Events.get() + Head, Used - Head, Retained);
}

ExecutionLog ExecutionRecorder::snapshot() const {
  ExecutionLog L;
  ExecutionLog::deserialize(serialized(), L);
  return L;
}

size_t ExecutionRecorder::onSchedulePick(
    uint64_t Slice, const std::vector<SliceCandidate> &Cands,
    size_t Default) {
  if (!GenesisDone) [[unlikely]]
    captureGenesis();
  if (SchedCands.update(Cands) || Default != SchedTailPick) {
    uint8_t *End = putLogEntryTail(
        SchedTail,
        (static_cast<uint64_t>(Cands.size()) << 32) |
            static_cast<uint32_t>(Default),
        Cands[Default].Pid, Cands[Default].Tid, SchedCands.hash(),
        /*NoteSize=*/0);
    SchedTailSize = static_cast<uint8_t>(End - SchedTail);
    SchedTailPick = Default;
  }
  uint8_t *P = putLogEntryHead(
      room(MaxLogEntryHeadBytes + sizeof SchedTail), LogEntryKind::Sched,
      NextOrd[static_cast<size_t>(LogEntryKind::Sched)]++, Slice);
  // The whole tail array, so the copy has a fixed size; only
  // SchedTailSize bytes of it count.
  std::memcpy(P, SchedTail, sizeof SchedTail);
  commit(P + SchedTailSize);
  return Default;
}

uint64_t ExecutionRecorder::onRand(uint64_t Pid, uint64_t Tid,
                                   uint64_t Value) {
  append(LogEntryKind::Rand, Pid, Tid, Value);
  return Value;
}

unsigned ExecutionRecorder::onWireDelivery(unsigned Count) {
  append(LogEntryKind::Wire, Count);
  return Count;
}

NetFaultAction ExecutionRecorder::onNetSend(uint64_t Src, uint64_t Dst,
                                            NetFaultAction Action) {
  append(LogEntryKind::Net, Src, Dst, Action.Copies, Action.ExtraDelay,
         Action.Reordered ? 1 : 0);
  return Action;
}

void ExecutionRecorder::onFaultFired(size_t Index, const std::string &Note) {
  append(LogEntryKind::Fired, Index, 0, 0, 0, 0, Note);
}

void ExecutionRecorder::onSnapAnchor(uint64_t Pid, uint8_t Reason,
                                     uint16_t Detail, uint64_t Slice,
                                     std::vector<uint8_t> *LogOut) {
  // Post-mortem collection can run before any slice executed (an early
  // kill): the genesis must still be in the log.
  captureGenesis();
  uint64_t Timestamp = 0;
  if (D)
    for (Process *P : D->world().allProcesses())
      if (P->Pid == Pid) {
        Timestamp = P->Host->nowGlobal();
        break;
      }
  append(LogEntryKind::Anchor, Pid, Reason, Detail, Slice, Timestamp);
  // The anchor entry is appended BEFORE serializing, so the embedded log
  // ends at exactly this snap's capture point.
  if (LogOut)
    *LogOut = serialized();
}

void ExecutionRecorder::onDeploy(Process &P, const Module &Orig,
                                 bool Instrument,
                                 const InstrumentOptions &Opts) {
  LogDeploy LD;
  LD.Pid = P.Pid;
  LD.Instrument = Instrument;
  LD.Image = Orig.serialize();
  LD.TilePathBits = Opts.Tile.PathBits;
  LD.TileHeadersAtCallReturns = Opts.Tile.HeadersAtCallReturns;
  LD.TileEveryBlockIsHeader = Opts.Tile.EveryBlockIsHeader;
  LD.TileMergeCallReturnHeaders = Opts.Tile.MergeCallReturnHeaders;
  LD.DagIdBase = Opts.DagIdBase;
  LD.TlsSlot = Opts.TlsSlot;
  LD.LineBoundaryBlocks = Opts.LineBoundaryBlocks;
  LD.ElideImpliedBits = Opts.ElideImpliedBits;
  Base.Deploys.push_back(std::move(LD));
}
