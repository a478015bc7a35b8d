//===- vm/Process.cpp - Guest process --------------------------------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "vm/Process.h"

#include "support/Text.h"

#include <cassert>

using namespace traceback;

RuntimeHooks::~RuntimeHooks() = default;

Process::Process(uint64_t Pid, std::string Name, Machine *Host)
    : Pid(Pid), Name(std::move(Name)), Host(Host),
      Rand(0x7b5bad595e238e31ULL ^ Pid) {}

Process::~Process() = default;

static uint64_t alignUp(uint64_t V, uint64_t A) {
  return (V + A - 1) / A * A;
}

LoadedModule *Process::loadModule(const Module &M, std::string &Error) {
  auto LM = std::make_unique<LoadedModule>();
  LM->Mod = M;
  LM->CodeSize = static_cast<uint32_t>(M.Code.size());
  LM->CodeBase = NextModuleBase;
  uint64_t DataStart =
      alignUp(LM->CodeBase + LM->CodeSize, AddressSpace::PageSize);
  LM->DataBase = DataStart;
  NextModuleBase = alignUp(DataStart + M.Data.size() + AddressSpace::PageSize,
                           AddressSpace::PageSize);

  // Data goes into guest memory.
  if (!M.Data.empty()) {
    Mem.map(LM->DataBase, M.Data.size());
    Mem.write(LM->DataBase, M.Data.data(), M.Data.size());
  }

  // Apply code relocations (lea-style address materialization) against the
  // private code copy, and data relocations against guest memory.
  for (const CodeReloc &R : M.CodeRelocs) {
    uint64_t Addr = resolveSymbol(R.SymbolName, LM.get());
    if (Addr == 0) {
      Error = formatv("module %s: unresolved code reloc symbol '%s'",
                      M.Name.c_str(), R.SymbolName.c_str());
      return nullptr;
    }
    Addr += static_cast<uint64_t>(R.Addend);
    if (R.CodeOffset + 8 > LM->Mod.Code.size()) {
      Error = formatv("module %s: code reloc out of range", M.Name.c_str());
      return nullptr;
    }
    for (int I = 0; I < 8; ++I)
      LM->Mod.Code[R.CodeOffset + I] = static_cast<uint8_t>(Addr >> (I * 8));
  }
  for (const DataReloc &R : M.Relocs) {
    uint64_t Addr = resolveSymbol(R.SymbolName, LM.get());
    if (Addr == 0) {
      Error = formatv("module %s: unresolved data reloc symbol '%s'",
                      M.Name.c_str(), R.SymbolName.c_str());
      return nullptr;
    }
    if (!Mem.write64(LM->DataBase + R.DataOffset, Addr)) {
      Error = formatv("module %s: data reloc out of range", M.Name.c_str());
      return nullptr;
    }
  }

  // Give the owning runtime its chance to rebase DAG IDs / the TLS slot
  // before the code is decoded for execution.
  if (LM->Mod.Instrumented) {
    if (RuntimeHooks *RT = runtimeForTech(LM->Mod.Tech))
      RT->onModuleRebase(*this, *LM);
  }

  std::vector<DecodedInsn> Decoded;
  if (!decodeAll(LM->Mod.Code, Decoded)) {
    Error = formatv("module %s: code fails to decode at load time",
                    M.Name.c_str());
    return nullptr;
  }
  LM->Decoded.reserve(Decoded.size());
  LM->IndexAt.assign(LM->CodeSize, LoadedModule::NoInsn);
  for (const DecodedInsn &D : Decoded) {
    LM->IndexAt[D.Offset] = static_cast<uint32_t>(LM->Decoded.size());
    LM->Decoded.push_back(D.Insn);
  }

  LM->ImportAddrs.assign(M.Imports.size(), 0);

  LoadedModule *Result = LM.get();
  Modules.push_back(std::move(LM));
  for (RuntimeHooks *H : Hooks)
    H->onModuleLoaded(*this, *Result);
  return Result;
}

bool Process::unloadModule(const std::string &ModName) {
  for (auto It = Modules.rbegin(); It != Modules.rend(); ++It) {
    LoadedModule &LM = **It;
    if (LM.Unloaded || LM.Mod.Name != ModName)
      continue;
    LM.Unloaded = true;
    for (RuntimeHooks *H : Hooks)
      H->onModuleUnloaded(*this, LM);
    return true;
  }
  return false;
}

LoadedModule *Process::moduleForPC(uint64_t PC) {
  for (auto &LM : Modules)
    if (LM->containsPC(PC))
      return LM.get();
  return nullptr;
}

const LoadedModule *Process::moduleForPC(uint64_t PC) const {
  for (const auto &LM : Modules)
    if (LM->containsPC(PC))
      return LM.get();
  return nullptr;
}

LoadedModule *Process::findModule(const std::string &ModName) {
  for (auto It = Modules.rbegin(); It != Modules.rend(); ++It)
    if (!(*It)->Unloaded && (*It)->Mod.Name == ModName)
      return It->get();
  return nullptr;
}

uint64_t Process::resolveSymbol(const std::string &SymName,
                                const LoadedModule *Prefer) const {
  auto AddrOf = [](const LoadedModule &LM, const Symbol &S) {
    return S.IsFunction ? LM.CodeBase + S.Offset : LM.DataBase + S.Offset;
  };
  if (Prefer && !Prefer->Unloaded)
    if (const Symbol *S = Prefer->Mod.findSymbol(SymName))
      return AddrOf(*Prefer, *S);
  for (const auto &LM : Modules) {
    if (LM->Unloaded || LM.get() == Prefer)
      continue;
    if (const Symbol *S = LM->Mod.findSymbol(SymName))
      if (S->Exported)
        return AddrOf(*LM, *S);
  }
  return 0;
}

uint64_t Process::resolveImport(LoadedModule &LM, uint16_t Index) {
  if (Index >= LM.ImportAddrs.size())
    return 0;
  if (LM.ImportAddrs[Index] != 0)
    return LM.ImportAddrs[Index];
  uint64_t Addr = resolveSymbol(LM.Mod.Imports[Index], &LM);
  LM.ImportAddrs[Index] = Addr;
  return Addr;
}

Thread *Process::spawnThread(uint64_t EntryPC, uint64_t Arg) {
  auto T = std::make_unique<Thread>(NextThreadId++);
  constexpr uint64_t StackSize = 256 * 1024;
  // One unmapped guard page below the stack catches overflow.
  uint64_t Top = NextStackTop;
  NextStackTop -= StackSize + 16 * AddressSpace::PageSize;
  T->StackBase = Top - StackSize;
  T->StackSize = StackSize;
  Mem.map(T->StackBase, StackSize);

  T->setSp(Top - 16);
  // Returning from the entry function exits the thread.
  T->setSp(T->sp() - 8);
  Mem.write64(T->sp(), MagicThreadExit);
  T->Regs[0] = Arg;
  T->PC = EntryPC;
  T->Shadow.push_back({0, MagicThreadExit, T->sp(), 0});

  Thread *Result = T.get();
  Threads.push_back(std::move(T));
  for (RuntimeHooks *H : Hooks)
    H->onThreadStart(*this, *Result);
  return Result;
}

Thread *Process::start(const std::string &Entry) {
  uint64_t Addr = resolveSymbol(Entry);
  if (Addr == 0)
    return nullptr;
  return spawnThread(Addr, 0);
}

Thread *Process::findThread(uint64_t Id) {
  for (auto &T : Threads)
    if (T->Id == Id)
      return T.get();
  return nullptr;
}

uint64_t Process::allocHeap(uint64_t Size) {
  if (Size == 0)
    Size = 1;
  uint64_t Addr = HeapNext;
  HeapNext = alignUp(HeapNext + Size, 16);
  Mem.map(Addr, Size);
  return Addr;
}

uint64_t Process::allocRuntimeRegion(uint64_t Size) {
  uint64_t Addr = RtRegionNext;
  RtRegionNext =
      alignUp(RtRegionNext + Size + AddressSpace::PageSize,
              AddressSpace::PageSize);
  Mem.map(Addr, Size);
  RuntimeRegions.push_back({Addr, Size});
  return Addr;
}

void Process::hardKill() {
  // No hooks, no records: the whole point is that state is lost abruptly
  // and sub-buffering still lets reconstruction recover a trace. TLS is
  // wiped — the buffer cursor genuinely cannot be recovered (section 3.2).
  for (auto &T : Threads) {
    if (!T->exited()) {
      T->State = ThreadState::Exited;
      T->ExitedAbruptly = true;
    }
    T->Tls.assign(T->Tls.size(), 0);
  }
  Exited = true;
  HardKilled = true;
  ExitCode = 137; // 128 + SIGKILL.
}

void Process::exitProcess(int Code, bool Orderly) {
  if (Exited)
    return;
  if (Orderly)
    for (RuntimeHooks *H : Hooks)
      H->onProcessExit(*this);
  for (auto &T : Threads)
    if (!T->exited()) {
      T->State = ThreadState::Exited;
      if (!Orderly)
        T->ExitedAbruptly = true;
    }
  Exited = true;
  ExitCode = Code;
}

uint64_t Process::totalInstrRetired() const {
  uint64_t Sum = 0;
  for (const auto &T : Threads)
    Sum += T->InstrRetired;
  return Sum;
}

bool Process::anyInstrumentedModule() const {
  for (const auto &LM : Modules)
    if (!LM->Unloaded && LM->Mod.Instrumented)
      return true;
  return false;
}

RuntimeHooks *Process::runtimeForTech(Technology Tech) const {
  for (RuntimeHooks *H : Hooks)
    if (H->ownsTechnology(Tech))
      return H;
  return nullptr;
}
