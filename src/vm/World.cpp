//===- vm/World.cpp - Scheduler, interpreter, RPC transport ---------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "vm/World.h"

#include "support/Text.h"
#include "vm/FaultInjector.h"
#include "vm/Scribe.h"
#include "vm/Syscalls.h"

#include <algorithm>
#include <cassert>

using namespace traceback;

ExecutionScribe::~ExecutionScribe() = default;

// ----------------------------------------------------------------------------
// Small satellites.
// ----------------------------------------------------------------------------

std::string traceback::faultCodeName(FaultCode Code) {
  uint16_t V = static_cast<uint16_t>(Code);
  if (V >= static_cast<uint16_t>(FaultCode::UserTrapBase))
    return formatv("trap(%u)",
                   V - static_cast<uint16_t>(FaultCode::UserTrapBase));
  switch (Code) {
  case FaultCode::None:
    return "none";
  case FaultCode::Segv:
    return "access violation";
  case FaultCode::DivZero:
    return "integer divide by zero";
  case FaultCode::BadJump:
    return "wild control transfer";
  case FaultCode::StackOverflow:
    return "stack overflow";
  case FaultCode::BadTls:
    return "bad TLS slot";
  case FaultCode::BadSyscall:
    return "bad system call";
  case FaultCode::RpcServerFault:
    return "rpc server fault";
  default:
    return formatv("fault(%u)", V);
  }
}

std::map<std::string, int64_t> traceback::syscallAssemblerConstants() {
  return {
      {"SysExit", SysExit},           {"SysPrintInt", SysPrintInt},
      {"SysPrintStr", SysPrintStr},   {"SysAlloc", SysAlloc},
      {"SysSleep", SysSleep},         {"SysNow", SysNow},
      {"SysRand", SysRand},           {"SysThreadSpawn", SysThreadSpawn},
      {"SysThreadExit", SysThreadExit}, {"SysThreadJoin", SysThreadJoin},
      {"SysLock", SysLock},           {"SysUnlock", SysUnlock},
      {"SysRpcCall", SysRpcCall},     {"SysRpcRecv", SysRpcRecv},
      {"SysRpcReply", SysRpcReply},   {"SysIoRead", SysIoRead},
      {"SysIoWrite", SysIoWrite},     {"SysSnap", SysSnap},
      {"SysSigHandler", SysSigHandler}, {"SysRaise", SysRaise},
      {"SysYield", SysYield},         {"SysSrvRegister", SysSrvRegister},
      {"SysPrintChar", SysPrintChar},
  };
}

Process *Machine::createProcess(const std::string &ProcName) {
  Processes.push_back(
      std::make_unique<Process>(Owner->NextPid++, ProcName, this));
  return Processes.back().get();
}

uint64_t Machine::nowGlobal() const { return now(Owner->cycles()); }

// ----------------------------------------------------------------------------
// World basics.
// ----------------------------------------------------------------------------

World::World() = default;
World::~World() = default;

Machine *World::createMachine(const std::string &Name,
                              const std::string &OsName, int64_t ClockOffset,
                              uint64_t RateNum, uint64_t RateDen) {
  Machines.push_back(std::make_unique<Machine>(
      NextMachineId++, Name, OsName, SimClock(ClockOffset, RateNum, RateDen),
      this));
  return Machines.back().get();
}

void World::registerService(uint32_t Service, Process *P) {
  Services[Service] = P;
}

std::vector<Process *> World::allProcesses() const {
  std::vector<Process *> All;
  for (const auto &M : Machines)
    for (const auto &P : M->Processes)
      All.push_back(P.get());
  return All;
}

void World::sendSignal(Process &P, int Sig) {
  if (P.Exited)
    return;
  if (Sig == SigKill) {
    // Hard kill: no hooks, no records — thread buffer cursors are lost.
    P.hardKill();
    return;
  }
  P.PendingSignals.push_back(Sig);
}

void World::requestSnap(Process &P, uint16_t Reason) {
  for (RuntimeHooks *H : P.Hooks)
    H->onSnapRequest(P, nullptr, Reason);
}

// ----------------------------------------------------------------------------
// Network fabric.
// ----------------------------------------------------------------------------

unsigned World::netSend(uint64_t Src, uint64_t Dst,
                        std::vector<uint8_t> Bytes) {
  // The ordinal advances even for swallowed packets so fault triggers
  // stay aligned with the send stream, not the delivery stream.
  uint64_t Ordinal = NetSendOrdinal++;
  if (netPartitioned(Src, Dst))
    return 0;

  NetFaultAction Action;
  if (Injector)
    Action = Injector->onNetSend(Src, Dst);
  if (Scribe)
    Action = Scribe->onNetSend(Src, Dst, Action);
  if (Action.Copies == 0)
    return 0;

  uint64_t Latency = Src == Dst ? NetLatencyIntra : NetLatencyCross;
  Latency += Action.ExtraDelay;
  // A reordered packet is pushed one full latency window back: anything
  // sent meanwhile on the same link overtakes it.
  if (Action.Reordered)
    Latency += (Src == Dst ? NetLatencyIntra : NetLatencyCross) + 1;

  std::deque<NetPacket> &Box = NetMailboxes[Dst];
  for (unsigned I = 0; I < Action.Copies; ++I) {
    NetPacket P;
    P.Src = Src;
    P.Dst = Dst;
    P.ArriveAt = GlobalCycles + Latency + I; // Dup copies land back to back.
    P.SendOrdinal = Ordinal;
    P.Bytes = Bytes;
    // Keep the mailbox sorted by (ArriveAt, SendOrdinal) so delivery
    // order is deterministic no matter what delays the injector added.
    auto It = std::upper_bound(Box.begin(), Box.end(), P,
                               [](const NetPacket &A, const NetPacket &B) {
                                 return A.ArriveAt != B.ArriveAt
                                            ? A.ArriveAt < B.ArriveAt
                                            : A.SendOrdinal < B.SendOrdinal;
                               });
    Box.insert(It, std::move(P));
  }
  return Action.Copies;
}

bool World::netPoll(uint64_t M, NetPacket &Out) {
  auto It = NetMailboxes.find(M);
  if (It == NetMailboxes.end() || It->second.empty())
    return false;
  NetPacket &Front = It->second.front();
  if (Front.ArriveAt > GlobalCycles)
    return false;
  Out = std::move(Front);
  It->second.pop_front();
  return true;
}

size_t World::netQueued(uint64_t M) const {
  auto It = NetMailboxes.find(M);
  return It == NetMailboxes.end() ? 0 : It->second.size();
}

void World::netSetPartitioned(uint64_t A, uint64_t B, bool Cut) {
  auto Key = A < B ? std::make_pair(A, B) : std::make_pair(B, A);
  if (Cut)
    NetCuts.insert(Key);
  else
    NetCuts.erase(Key);
}

bool World::netPartitioned(uint64_t A, uint64_t B) const {
  auto Key = A < B ? std::make_pair(A, B) : std::make_pair(B, A);
  return NetCuts.count(Key) != 0;
}

// ----------------------------------------------------------------------------
// Scheduler.
// ----------------------------------------------------------------------------

void World::wakeThread(Process &P, Thread &T) {
  WakeAction Action = T.OnWake;
  uint64_t ReqId = T.WakeRpcId;
  T.OnWake = WakeAction::None;
  T.WakeRpcId = 0;
  switch (Action) {
  case WakeAction::None:
    T.State = ThreadState::Runnable;
    break;
  case WakeAction::RpcDeliver:
    rpcDeliverToServer(P, T, ReqId);
    break;
  case WakeAction::RpcReturn:
    rpcReturnToClient(P, T, ReqId);
    break;
  }
}

bool World::stepSlice() {
  ++SliceCount;
  // Fault injection happens at slice boundaries so a (workload, plan)
  // pair replays identically: the injector sees the same world state at
  // the same slice ordinal every run.
  if (Injector) {
    // The injector reports firings through the attached scribe (record /
    // replay verification). Re-point every slice: either may be attached
    // after the other.
    Injector->Scribe = Scribe;
    Injector->onSliceBoundary(*this);
  }
  for (int Attempt = 0; Attempt < 2; ++Attempt) {
    Cands.clear();
    bool HaveSleeper = false;
    uint64_t MinWake = UINT64_MAX;

    for (auto &M : Machines) {
      for (auto &P : M->Processes) {
        if (P->Exited)
          continue;
        for (auto &T : P->Threads) {
          if (T->State == ThreadState::Sleeping) {
            if (T->WakeAt <= GlobalCycles)
              wakeThread(*P, *T);
            else {
              HaveSleeper = true;
              MinWake = std::min(MinWake, T->WakeAt);
            }
          }
          if (T->runnable())
            Cands.push_back({M.get(), P.get(), T.get()});
        }
      }
    }

    if (!Cands.empty()) {
      size_t Pick = ScheduleCursor++ % Cands.size();
      if (Scribe) {
        CandView.clear();
        for (const SliceCand &C : Cands)
          CandView.push_back({C.M->Id, C.P->Pid, C.T->Id});
        Pick = Scribe->onSchedulePick(SliceCount, CandView, Pick);
        if (Pick >= Cands.size())
          Pick = 0;
      }
      SliceCand C = Cands[Pick];
      runQuantum(*C.M, *C.P, *C.T);
      return true;
    }
    if (!HaveSleeper)
      return false;
    // Everything is asleep: advance time to the first wake-up and retry.
    GlobalCycles = MinWake;
  }
  return false;
}

World::RunResult World::run(uint64_t MaxCycles) {
  uint64_t Limit = GlobalCycles + MaxCycles;
  while (GlobalCycles < Limit) {
    if (!stepSlice()) {
      for (Process *P : allProcesses())
        if (!P->Exited)
          return RunResult::Idle;
      return RunResult::AllExited;
    }
  }
  return RunResult::CycleLimit;
}

// ----------------------------------------------------------------------------
// Interpreter.
// ----------------------------------------------------------------------------

void World::runQuantum(Machine &M, Process &P, Thread &T) {
  if (!P.PendingSignals.empty()) {
    int Sig = P.PendingSignals.front();
    P.PendingSignals.pop_front();
    deliverSignal(P, T, Sig);
  }

  uint64_t Cycles = 0;
  auto Account = [&]() {
    T.CyclesUsed += Cycles;
    P.CyclesUsed += Cycles;
    GlobalCycles += Cycles;
  };

  // Module ranges never overlap, so while the kept module still contains
  // the PC it is the one moduleForPC would return; the module list is
  // scanned only when control leaves it (or it was unloaded).
  LoadedModule *LM = nullptr;
  for (uint32_t N = 0; N < Quantum; ++N) {
    if (P.Exited || !T.runnable())
      break;

    if (!LM || !LM->containsPC(T.PC))
      LM = P.moduleForPC(T.PC);
    const Instruction *IP = nullptr;
    if (LM) {
      uint32_t Index = LM->IndexAt[T.PC - LM->CodeBase];
      if (Index != LoadedModule::NoInsn)
        IP = &LM->Decoded[Index];
    }
    if (!IP) {
      // Wild PC: the exception address is the bad target itself.
      Cycles += 2;
      Account();
      deliverFault(P, T, {FaultCode::BadJump, T.PC, T.PC});
      return;
    }
    const Instruction &I = *IP;
    uint64_t NextPC = T.PC + opcodeSize(I.Op);
    unsigned Cost = opcodeCycles(I.Op);

    if (P.OracleTrace) {
      // Ground-truth line log for tests: record transitions of the
      // (module, file, line) the thread is executing.
      auto L = LM->Mod.lineForOffset(
          static_cast<uint32_t>(T.PC - LM->CodeBase));
      if (L && L->Line != 0) {
        uint64_t Key = (static_cast<uint64_t>(LM->CodeBase) << 24) ^
                       (static_cast<uint64_t>(L->FileIndex) << 20) ^ L->Line;
        if (Key != T.OracleLastKey) {
          T.OracleLastKey = Key;
          P.OracleTrace->push_back({T.Id, LM->Mod.Name,
                                    LM->Mod.fileName(L->FileIndex),
                                    L->Line});
        }
      }
    }

    GuestFault Fault;
    auto RaiseFault = [&](FaultCode Code, uint64_t Addr) {
      Fault.Code = Code;
      Fault.PC = T.PC;
      Fault.Addr = Addr;
    };
    uint64_t *R = T.Regs;

    switch (I.Op) {
    case Opcode::Nop:
      break;
    case Opcode::Halt:
      Cycles += Cost;
      Account();
      P.exitProcess(static_cast<int>(R[0]), /*Orderly=*/true);
      return;
    case Opcode::MovI:
      R[I.Rd] = static_cast<uint64_t>(I.Imm);
      break;
    case Opcode::Mov:
      R[I.Rd] = R[I.Rs];
      break;
    case Opcode::Add:
      R[I.Rd] = R[I.Rs] + R[I.Rt];
      break;
    case Opcode::Sub:
      R[I.Rd] = R[I.Rs] - R[I.Rt];
      break;
    case Opcode::Mul:
      R[I.Rd] = R[I.Rs] * R[I.Rt];
      break;
    case Opcode::Div:
    case Opcode::Mod: {
      int64_t A = static_cast<int64_t>(R[I.Rs]);
      int64_t B = static_cast<int64_t>(R[I.Rt]);
      if (B == 0) {
        RaiseFault(FaultCode::DivZero, 0);
        break;
      }
      int64_t Q, Rem;
      if (A == INT64_MIN && B == -1) {
        Q = INT64_MIN; // Wraps, like x86 would fault but we saturate.
        Rem = 0;
      } else {
        Q = A / B;
        Rem = A % B;
      }
      R[I.Rd] = static_cast<uint64_t>(I.Op == Opcode::Div ? Q : Rem);
      break;
    }
    case Opcode::And:
      R[I.Rd] = R[I.Rs] & R[I.Rt];
      break;
    case Opcode::Or:
      R[I.Rd] = R[I.Rs] | R[I.Rt];
      break;
    case Opcode::Xor:
      R[I.Rd] = R[I.Rs] ^ R[I.Rt];
      break;
    case Opcode::Shl:
      R[I.Rd] = R[I.Rs] << (R[I.Rt] & 63);
      break;
    case Opcode::Shr:
      R[I.Rd] = R[I.Rs] >> (R[I.Rt] & 63);
      break;
    case Opcode::AddI:
      R[I.Rd] = R[I.Rs] + static_cast<uint64_t>(I.Imm);
      break;
    case Opcode::MulI:
      R[I.Rd] = R[I.Rs] * static_cast<uint64_t>(I.Imm);
      break;
    case Opcode::AndI:
      R[I.Rd] = R[I.Rs] & static_cast<uint64_t>(I.Imm);
      break;
    case Opcode::OrI:
      R[I.Rd] = R[I.Rs] | static_cast<uint64_t>(I.Imm);
      break;
    case Opcode::XorI:
      R[I.Rd] = R[I.Rs] ^ static_cast<uint64_t>(I.Imm);
      break;
    case Opcode::ShlI:
      R[I.Rd] = R[I.Rs] << (static_cast<uint64_t>(I.Imm) & 63);
      break;
    case Opcode::ShrI:
      R[I.Rd] = R[I.Rs] >> (static_cast<uint64_t>(I.Imm) & 63);
      break;
    case Opcode::CmpEq:
      R[I.Rd] = R[I.Rs] == R[I.Rt];
      break;
    case Opcode::CmpNe:
      R[I.Rd] = R[I.Rs] != R[I.Rt];
      break;
    case Opcode::CmpLt:
      R[I.Rd] = static_cast<int64_t>(R[I.Rs]) < static_cast<int64_t>(R[I.Rt]);
      break;
    case Opcode::CmpLe:
      R[I.Rd] =
          static_cast<int64_t>(R[I.Rs]) <= static_cast<int64_t>(R[I.Rt]);
      break;
    case Opcode::CmpLtU:
      R[I.Rd] = R[I.Rs] < R[I.Rt];
      break;

    case Opcode::Ld:
    case Opcode::Ld8:
    case Opcode::Ld32: {
      uint64_t Addr = R[I.Rs] + static_cast<int64_t>(I.Off);
      bool Ok = true;
      uint64_t V = I.Op == Opcode::Ld    ? P.Mem.read64(Addr, Ok)
                   : I.Op == Opcode::Ld32 ? P.Mem.read32(Addr, Ok)
                                          : P.Mem.read8(Addr, Ok);
      if (!Ok) {
        RaiseFault(FaultCode::Segv, Addr);
        break;
      }
      R[I.Rd] = V;
      break;
    }
    case Opcode::St:
    case Opcode::St8:
    case Opcode::St32: {
      uint64_t Addr = R[I.Rd] + static_cast<int64_t>(I.Off);
      bool Ok = I.Op == Opcode::St    ? P.Mem.write64(Addr, R[I.Rs])
                : I.Op == Opcode::St32 ? P.Mem.write32(
                                             Addr, static_cast<uint32_t>(R[I.Rs]))
                                       : P.Mem.write8(
                                             Addr, static_cast<uint8_t>(R[I.Rs]));
      if (!Ok)
        RaiseFault(FaultCode::Segv, Addr);
      break;
    }
    case Opcode::StM32I: {
      uint64_t Addr = R[I.Rd] + static_cast<int64_t>(I.Off);
      if (!P.Mem.write32(Addr, static_cast<uint32_t>(I.Imm)))
        RaiseFault(FaultCode::Segv, Addr);
      break;
    }
    case Opcode::OrM32I: {
      uint64_t Addr = R[I.Rd] + static_cast<int64_t>(I.Off);
      bool Ok = true;
      uint32_t V = P.Mem.read32(Addr, Ok);
      if (!Ok || !P.Mem.write32(Addr, V | static_cast<uint32_t>(I.Imm))) {
        RaiseFault(FaultCode::Segv, Addr);
        break;
      }
      break;
    }

    case Opcode::Push: {
      uint64_t NewSp = R[RegSP] - 8;
      if (!P.Mem.write64(NewSp, R[I.Rd])) {
        RaiseFault(FaultCode::StackOverflow, NewSp);
        break;
      }
      R[RegSP] = NewSp;
      break;
    }
    case Opcode::Pop: {
      bool Ok = true;
      uint64_t V = P.Mem.read64(R[RegSP], Ok);
      if (!Ok) {
        RaiseFault(FaultCode::StackOverflow, R[RegSP]);
        break;
      }
      R[I.Rd] = V;
      R[RegSP] += 8;
      break;
    }

    case Opcode::BrS:
    case Opcode::BrL:
      NextPC += I.Imm;
      ++Cost;
      break;
    case Opcode::BrzS:
    case Opcode::BrzL:
      if (R[I.Rs] == 0) {
        NextPC += I.Imm;
        ++Cost;
      }
      break;
    case Opcode::BrnzS:
    case Opcode::BrnzL:
      if (R[I.Rs] != 0) {
        NextPC += I.Imm;
        ++Cost;
      }
      break;
    case Opcode::JmpInd:
      NextPC = R[I.Rd];
      break;

    case Opcode::Call:
    case Opcode::CallInd:
    case Opcode::CallImp: {
      uint64_t Target;
      if (I.Op == Opcode::Call)
        Target = NextPC + I.Imm;
      else if (I.Op == Opcode::CallInd)
        Target = R[I.Rd];
      else {
        Target = P.resolveImport(*LM, static_cast<uint16_t>(I.Imm));
        if (Target == 0) {
          RaiseFault(FaultCode::BadJump, 0);
          break;
        }
      }
      uint64_t NewSp = R[RegSP] - 8;
      if (!P.Mem.write64(NewSp, NextPC)) {
        RaiseFault(FaultCode::StackOverflow, NewSp);
        break;
      }
      R[RegSP] = NewSp;
      T.Shadow.push_back({T.PC, NextPC, NewSp, R[RegFP]});
      // Cross-technology transitions (JNI / PInvoke analog). The
      // from-side runtime runs first so it can fill the thread's shared
      // wire before the to-side runtime reads it (section 5.1's
      // out-of-band payload).
      if (I.Op != Opcode::Call) {
        LoadedModule *TargetLM = P.moduleForPC(Target);
        if (TargetLM && TargetLM->Mod.Tech != LM->Mod.Tech)
          techTransition(P, T, LM->Mod.Tech, TargetLM->Mod.Tech,
                         /*IsCall=*/true);
      }
      NextPC = Target;
      break;
    }

    case Opcode::Ret: {
      bool Ok = true;
      uint64_t Target = P.Mem.read64(R[RegSP], Ok);
      if (!Ok) {
        RaiseFault(FaultCode::StackOverflow, R[RegSP]);
        break;
      }
      R[RegSP] += 8;
      if (!T.Shadow.empty())
        T.Shadow.pop_back();
      if (Target == MagicThreadExit) {
        Cycles += Cost;
        Account();
        exitThread(P, T, /*Orderly=*/true);
        return;
      }
      if (Target == MagicSigReturn) {
        if (T.SigFrames.empty()) {
          RaiseFault(FaultCode::BadJump, Target);
          break;
        }
        SignalFrame SF = T.SigFrames.back();
        T.SigFrames.pop_back();
        for (unsigned RI = 0; RI < NumRegs; ++RI)
          R[RI] = SF.Regs[RI];
        T.PC = SF.PC;
        for (RuntimeHooks *H : P.Hooks)
          H->onSignalHandlerDone(P, T, SF.Sig);
        ++T.InstrRetired;
        Cycles += Cost;
        continue; // PC already restored; skip the NextPC assignment.
      }
      LoadedModule *TargetLM = P.moduleForPC(Target);
      if (TargetLM && TargetLM->Mod.Tech != LM->Mod.Tech)
        techTransition(P, T, LM->Mod.Tech, TargetLM->Mod.Tech,
                       /*IsCall=*/false);
      NextPC = Target;
      break;
    }

    case Opcode::TlsLd: {
      uint64_t Slot = static_cast<uint64_t>(I.Imm);
      if (Slot >= T.Tls.size()) {
        RaiseFault(FaultCode::BadTls, Slot);
        break;
      }
      R[I.Rd] = T.Tls[Slot];
      break;
    }
    case Opcode::TlsSt: {
      uint64_t Slot = static_cast<uint64_t>(I.Imm);
      if (Slot >= T.Tls.size()) {
        RaiseFault(FaultCode::BadTls, Slot);
        break;
      }
      T.Tls[Slot] = R[I.Rd];
      break;
    }

    case Opcode::Sys: {
      T.PC = NextPC; // Syscalls resume after the instruction.
      PendingSyscallCycles = 0;
      doSyscall(M, P, T, static_cast<uint16_t>(I.Imm));
      Cost += PendingSyscallCycles;
      NextPC = T.PC; // Signal handlers and the like may redirect.
      break;
    }

    case Opcode::Trap:
      RaiseFault(userTrap(static_cast<uint16_t>(I.Imm)), 0);
      break;

    case Opcode::RtCall: {
      if (RuntimeHooks *RT = P.runtimeForTech(LM->Mod.Tech))
        RT->onRtCall(P, T, static_cast<uint16_t>(I.Imm));
      break;
    }
    }

    Cycles += Cost;
    if (Fault.Code != FaultCode::None) {
      Account();
      deliverFault(P, T, Fault);
      return;
    }
    T.PC = NextPC;
    ++T.InstrRetired;
  }
  Account();
}

void World::techTransition(Process &P, Thread &T, Technology From,
                           Technology To, bool IsCall) {
  RuntimeHooks *FromRT = P.runtimeForTech(From);
  RuntimeHooks *ToRT = P.runtimeForTech(To);
  if (FromRT)
    FromRT->onTechTransition(P, T, From, To, IsCall);
  if (ToRT && ToRT != FromRT)
    ToRT->onTechTransition(P, T, From, To, IsCall);
}

// ----------------------------------------------------------------------------
// Faults, signals, thread exit.
// ----------------------------------------------------------------------------

void World::deliverFault(Process &P, Thread &T, GuestFault F) {
  if (const LoadedModule *LM = P.moduleForPC(F.PC)) {
    F.ModuleOffset = static_cast<uint32_t>(F.PC - LM->CodeBase);
    F.InInstrumentedModule = LM->Mod.Instrumented;
    F.ModuleKey = LM->Mod.Instrumented ? LM->key() : 0;
  }

  // First chance: the runtime inspects the fault before any unwinding
  // (section 3.7.2).
  for (RuntimeHooks *H : P.Hooks)
    H->onException(P, T, F);

  // Intra-function handler at the fault point itself.
  if (LoadedModule *LM = P.moduleForPC(F.PC)) {
    if (auto EH =
            LM->Mod.handlerForOffset(static_cast<uint32_t>(F.PC - LM->CodeBase))) {
      T.PC = LM->CodeBase + EH->Handler;
      for (RuntimeHooks *H : P.Hooks)
        H->onExceptionHandled(P, T, F);
      return;
    }
  }

  // Unwind: walk shadow frames outward looking for a try range covering
  // the frame's call site.
  for (size_t FI = T.Shadow.size(); FI-- > 0;) {
    const ShadowFrame &Fr = T.Shadow[FI];
    if (Fr.CallInsnPC == 0)
      continue; // Thread/signal base frame.
    LoadedModule *LM = P.moduleForPC(Fr.CallInsnPC);
    if (!LM)
      continue;
    auto EH = LM->Mod.handlerForOffset(
        static_cast<uint32_t>(Fr.CallInsnPC - LM->CodeBase));
    if (!EH)
      continue;
    T.Regs[RegSP] = Fr.SPAtEntry + 8; // Pop the pushed return address.
    T.Regs[RegFP] = Fr.FPAtCall;
    T.PC = LM->CodeBase + EH->Handler;
    T.Shadow.resize(FI);
    for (RuntimeHooks *H : P.Hooks)
      H->onExceptionHandled(P, T, F);
    return;
  }

  // Unhandled. If the thread is servicing an RPC, the dispatch boundary
  // converts the failure into an error reply (Figure 6's
  // RPC_E_SERVERFAULT path) and only the thread dies — abruptly.
  if (T.CurrentRpcRequest != 0) {
    rpcAbortFromServerFault(P, T);
    T.State = ThreadState::Exited;
    T.ExitedAbruptly = true;
    bool AnyLive = false;
    for (auto &Other : P.Threads)
      if (!Other->exited())
        AnyLive = true;
    if (!AnyLive)
      P.exitProcess(128 + static_cast<int>(F.Code), /*Orderly=*/false);
    return;
  }

  for (RuntimeHooks *H : P.Hooks)
    H->onUnhandledException(P, T, F);
  P.LastFault = F;
  P.exitProcess(128 + static_cast<int>(F.Code), /*Orderly=*/false);
}

void World::deliverSignal(Process &P, Thread &T, int Sig) {
  uint64_t Handler = 0;
  if (auto It = P.SigHandlers.find(Sig); It != P.SigHandlers.end())
    Handler = It->second;
  bool Fatal = Handler == 0 &&
               (Sig == SigSegv || Sig == SigInt || Sig == SigTerm);
  for (RuntimeHooks *H : P.Hooks)
    H->onSignal(P, T, Sig, Handler != 0, Fatal);

  if (Handler != 0) {
    SignalFrame SF;
    for (unsigned RI = 0; RI < NumRegs; ++RI)
      SF.Regs[RI] = T.Regs[RI];
    SF.PC = T.PC;
    SF.Sig = Sig;
    uint64_t NewSp = T.sp() - 8;
    if (!P.Mem.write64(NewSp, MagicSigReturn)) {
      P.LastFault = {FaultCode::StackOverflow, T.PC, NewSp};
      P.exitProcess(128 + Sig, /*Orderly=*/false);
      return;
    }
    T.SigFrames.push_back(SF);
    T.setSp(NewSp);
    T.Shadow.push_back({0, MagicSigReturn, NewSp, T.fp()});
    T.Regs[0] = static_cast<uint64_t>(Sig);
    T.PC = Handler;
    return;
  }
  if (Fatal) {
    // The runtime snapped in onSignal; re-issuing the signal kills the
    // process (section 3.7.3).
    P.exitProcess(128 + Sig, /*Orderly=*/false);
  }
}

void World::exitThread(Process &P, Thread &T, bool Orderly) {
  if (Orderly)
    for (RuntimeHooks *H : P.Hooks)
      H->onThreadExit(P, T);
  else
    T.ExitedAbruptly = true;
  T.State = ThreadState::Exited;
  // Wake joiners.
  for (auto &Other : P.Threads)
    if (Other->State == ThreadState::BlockedJoin &&
        Other->JoinTarget == T.Id) {
      Other->JoinTarget = 0;
      Other->State = ThreadState::Runnable;
    }
  // Last thread out turns off the lights.
  bool AnyLive = false;
  for (auto &Other : P.Threads)
    if (!Other->exited())
      AnyLive = true;
  if (!AnyLive && !P.Exited)
    P.exitProcess(0, /*Orderly=*/true);
}

// ----------------------------------------------------------------------------
// Syscalls.
// ----------------------------------------------------------------------------

void World::doSyscall(Machine &M, Process &P, Thread &T, uint16_t No) {
  // Timestamp-probe point: the runtime hears about every OS service call
  // (section 3.5).
  for (RuntimeHooks *H : P.Hooks)
    H->onSyscall(P, T, No);

  uint64_t *R = T.Regs;
  switch (No) {
  case SysExit:
    P.exitProcess(static_cast<int>(R[0]), /*Orderly=*/true);
    return;
  case SysPrintInt:
    P.Output += formatv("%lld\n", static_cast<long long>(R[0]));
    return;
  case SysPrintChar:
    P.Output.push_back(static_cast<char>(R[0]));
    return;
  case SysPrintStr: {
    std::string S;
    if (P.Mem.readCString(R[0], S))
      P.Output += S;
    else
      deliverFault(P, T, {FaultCode::Segv, T.PC, R[0]});
    return;
  }
  case SysAlloc:
    // Allocator + zeroing + amortized GC share.
    PendingSyscallCycles += 40 + (R[0] >> 2);
    R[0] = P.allocHeap(R[0]);
    return;
  case SysSleep:
    T.State = ThreadState::Sleeping;
    T.WakeAt = GlobalCycles + R[0];
    return;
  case SysNow:
    R[0] = M.now(GlobalCycles);
    return;
  case SysRand:
    R[0] = P.Rand.next();
    if (Scribe)
      R[0] = Scribe->onRand(P.Pid, T.Id, R[0]);
    return;
  case SysThreadSpawn: {
    Thread *NT = P.spawnThread(R[0], R[1]);
    R[0] = NT->Id;
    return;
  }
  case SysThreadExit:
    exitThread(P, T, /*Orderly=*/true);
    return;
  case SysThreadJoin: {
    Thread *Target = P.findThread(R[0]);
    if (!Target || Target->exited()) {
      R[0] = 0;
      return;
    }
    T.JoinTarget = Target->Id;
    T.State = ThreadState::BlockedJoin;
    return;
  }
  case SysLock: {
    uint64_t Id = R[0];
    uint64_t &Owner = P.MutexOwner[Id];
    if (Owner == 0) {
      Owner = T.Id;
      return;
    }
    P.MutexWaiters[Id].push_back(T.Id);
    T.WaitMutex = Id;
    T.State = ThreadState::BlockedMutex;
    return;
  }
  case SysUnlock: {
    uint64_t Id = R[0];
    auto It = P.MutexOwner.find(Id);
    if (It == P.MutexOwner.end() || It->second != T.Id)
      return; // Unlocking a mutex you don't hold is ignored.
    auto &Q = P.MutexWaiters[Id];
    if (Q.empty()) {
      It->second = 0;
      return;
    }
    uint64_t NextOwner = Q.front();
    Q.pop_front();
    It->second = NextOwner;
    if (Thread *NT = P.findThread(NextOwner)) {
      NT->WaitMutex = 0;
      NT->State = ThreadState::Runnable;
    }
    return;
  }
  case SysIoRead:
  case SysIoWrite: {
    uint64_t Bytes = R[0];
    // Device latency (the thread sleeps) plus kernel CPU for the copies.
    PendingSyscallCycles += Bytes >> IoCpuShift;
    T.State = ThreadState::Sleeping;
    T.WakeAt = GlobalCycles + IoLatencyBase + Bytes * IoLatencyPerByte;
    return;
  }
  case SysSnap:
    for (RuntimeHooks *H : P.Hooks)
      H->onSnapRequest(P, &T, static_cast<uint16_t>(R[0]));
    return;
  case SysSigHandler:
    if (R[1] == 0)
      P.SigHandlers.erase(static_cast<int>(R[0]));
    else
      P.SigHandlers[static_cast<int>(R[0])] = R[1];
    return;
  case SysRaise:
    deliverSignal(P, T, static_cast<int>(R[0]));
    return;
  case SysYield:
    T.State = ThreadState::Sleeping;
    T.WakeAt = GlobalCycles + 1;
    return;
  case SysSrvRegister:
    registerService(static_cast<uint32_t>(R[0]), &P);
    return;
  case SysRpcCall:
    rpcCall(M, P, T);
    return;
  case SysRpcRecv:
    rpcRecv(P, T);
    return;
  case SysRpcReply:
    rpcReply(P, T);
    return;
  default:
    deliverFault(P, T, {FaultCode::BadSyscall, T.PC, No});
    return;
  }
}

// ----------------------------------------------------------------------------
// RPC transport with TraceBack payload piggybacking.
// ----------------------------------------------------------------------------

void World::rpcCall(Machine &M, Process &P, Thread &T) {
  uint32_t Service = static_cast<uint32_t>(T.Regs[0]);
  uint64_t ArgPtr = T.Regs[1];
  uint64_t ArgLen = std::min<uint64_t>(T.Regs[2], 65536);

  auto SIt = Services.find(Service);
  if (SIt == Services.end() || SIt->second->Exited) {
    T.Regs[0] = static_cast<uint64_t>(RpcStatus::NoService);
    T.Regs[1] = 0;
    return;
  }
  Process *Server = SIt->second;

  RpcRequest Req;
  Req.Id = NextRpcId++;
  Req.Service = Service;
  Req.Arg.resize(ArgLen);
  if (ArgLen != 0 && !P.Mem.read(ArgPtr, Req.Arg.data(), ArgLen)) {
    deliverFault(P, T, {FaultCode::Segv, T.PC, ArgPtr});
    return;
  }
  Req.ClientProc = &P;
  Req.ClientThread = T.Id;
  Req.ServerProc = Server;
  uint64_t Latency =
      Server->Host == &M ? RpcLatencyIntra : RpcLatencyCross;
  Req.ArriveAt = GlobalCycles + Latency;

  // The caller's runtime attaches the TraceBack triple and records the
  // CallSend SYNC (section 5.1).
  if (LoadedModule *LM = P.moduleForPC(T.PC))
    if (RuntimeHooks *RT = P.runtimeForTech(LM->Mod.Tech))
      RT->onRpcClientCall(P, T, Req.Wire);

  // The reply destination is captured now; R3 may be clobbered later.
  uint64_t ReplyPtr = T.Regs[3];
  T.State = ThreadState::BlockedRpcCall;

  auto [It, Inserted] = Rpcs.emplace(Req.Id, std::move(Req));
  It->second.ReplyPtr = ReplyPtr;
  rpcDispatch(It->second);
}

void World::rpcDispatch(RpcRequest &Req) {
  for (auto &T : Req.ServerProc->Threads) {
    if (T->State != ThreadState::BlockedRpcRecv)
      continue;
    Req.ServerThread = T->Id;
    T->State = ThreadState::Sleeping;
    T->WakeAt = Req.ArriveAt;
    T->OnWake = WakeAction::RpcDeliver;
    T->WakeRpcId = Req.Id;
    return;
  }
  ServerBacklog[Req.ServerProc].push_back(Req.Id);
}

void World::rpcRecv(Process &P, Thread &T) {
  T.RecvBuf = T.Regs[0];
  T.RecvCap = T.Regs[1];
  auto &Q = ServerBacklog[&P];
  if (!Q.empty()) {
    uint64_t Id = Q.front();
    Q.erase(Q.begin());
    RpcRequest &Req = Rpcs.at(Id);
    Req.ServerThread = T.Id;
    T.State = ThreadState::Sleeping;
    T.WakeAt = std::max(GlobalCycles, Req.ArriveAt);
    T.OnWake = WakeAction::RpcDeliver;
    T.WakeRpcId = Id;
    return;
  }
  T.State = ThreadState::BlockedRpcRecv;
}

void World::rpcDeliverToServer(Process &P, Thread &T, uint64_t ReqId) {
  auto It = Rpcs.find(ReqId);
  if (It == Rpcs.end()) {
    T.State = ThreadState::Runnable;
    return;
  }
  RpcRequest &Req = It->second;
  uint64_t N = std::min<uint64_t>(Req.Arg.size(), T.RecvCap);
  if (N != 0)
    P.Mem.write(T.RecvBuf, Req.Arg.data(), N);
  T.Regs[0] = ReqId;
  T.Regs[1] = N;
  T.CurrentRpcRequest = ReqId;
  // The wire carrying the TraceBack triple may be lossy: the injector can
  // drop it (the callee runtime never sees it and starts an unbound
  // logical thread) or duplicate it. Count every delivery — attached
  // runtime or not — so wire ordinals stay deterministic.
  unsigned Deliveries = Injector ? Injector->wireDeliveryCount() : 1;
  if (Scribe)
    Deliveries = Scribe->onWireDelivery(Deliveries);
  // The callee runtime binds the logical thread and records CallRecv.
  if (LoadedModule *LM = P.moduleForPC(T.PC))
    if (RuntimeHooks *RT = P.runtimeForTech(LM->Mod.Tech))
      for (unsigned I = 0; I < Deliveries; ++I)
        RT->onRpcServerRecv(P, T, Req.Wire);
  T.State = ThreadState::Runnable;
}

void World::rpcReply(Process &P, Thread &T) {
  uint64_t ReqId = T.Regs[0];
  auto It = Rpcs.find(ReqId);
  if (It == Rpcs.end() || T.CurrentRpcRequest != ReqId) {
    T.Regs[0] = static_cast<uint64_t>(-1);
    return;
  }
  RpcRequest &Req = It->second;
  uint64_t Len = std::min<uint64_t>(T.Regs[2], RpcReplyCap);
  Req.Reply.resize(Len);
  if (Len != 0 && !P.Mem.read(T.Regs[1], Req.Reply.data(), Len)) {
    deliverFault(P, T, {FaultCode::Segv, T.PC, T.Regs[1]});
    return;
  }
  if (LoadedModule *LM = P.moduleForPC(T.PC))
    if (RuntimeHooks *RT = P.runtimeForTech(LM->Mod.Tech))
      RT->onRpcServerReply(P, T, Req.Wire);
  T.CurrentRpcRequest = 0;
  Req.Status = RpcStatus::Ok;
  rpcCompleteToClient(Req);
  T.Regs[0] = 0;
}

void World::rpcAbortFromServerFault(Process &P, Thread &T) {
  uint64_t ReqId = T.CurrentRpcRequest;
  T.CurrentRpcRequest = 0;
  auto It = Rpcs.find(ReqId);
  if (It == Rpcs.end())
    return;
  RpcRequest &Req = It->second;
  Req.Status = RpcStatus::ServerFault;
  Req.Reply.clear();
  // The dispatch layer (the COM runtime analog) still sends its reply
  // SYNC so the causality chain closes.
  if (LoadedModule *LM = P.moduleForPC(T.PC))
    if (RuntimeHooks *RT = P.runtimeForTech(LM->Mod.Tech))
      RT->onRpcServerReply(P, T, Req.Wire);
  rpcCompleteToClient(Req);
}

void World::rpcCompleteToClient(RpcRequest &Req) {
  Process *CP = Req.ClientProc;
  Thread *CT = CP ? CP->findThread(Req.ClientThread) : nullptr;
  if (!CT || CT->exited() || CP->Exited) {
    Rpcs.erase(Req.Id);
    return;
  }
  uint64_t Latency = Req.ServerProc->Host == CP->Host ? RpcLatencyIntra
                                                      : RpcLatencyCross;
  CT->State = ThreadState::Sleeping;
  CT->WakeAt = GlobalCycles + Latency;
  CT->OnWake = WakeAction::RpcReturn;
  CT->WakeRpcId = Req.Id;
}

void World::rpcReturnToClient(Process &P, Thread &T, uint64_t ReqId) {
  auto It = Rpcs.find(ReqId);
  if (It == Rpcs.end()) {
    T.State = ThreadState::Runnable;
    return;
  }
  RpcRequest &Req = It->second;
  uint64_t Len = std::min<uint64_t>(Req.Reply.size(), RpcReplyCap);
  if (Len != 0)
    P.Mem.write(Req.ReplyPtr, Req.Reply.data(), Len);
  T.Regs[0] = static_cast<uint64_t>(Req.Status);
  T.Regs[1] = Len;
  if (LoadedModule *LM = P.moduleForPC(T.PC))
    if (RuntimeHooks *RT = P.runtimeForTech(LM->Mod.Tech))
      RT->onRpcClientReturn(P, T, Req.Wire);
  Rpcs.erase(It);
  T.State = ThreadState::Runnable;
}
