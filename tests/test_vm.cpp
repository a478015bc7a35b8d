//===- tests/test_vm.cpp - VM interpreter tests ---------------------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "isa/Assembler.h"
#include "vm/AddressSpace.h"
#include "vm/Syscalls.h"
#include "vm/World.h"

#include <gtest/gtest.h>

#include <vector>

using namespace traceback;

namespace {
Module assemble(const std::string &Src) {
  Assembler Asm(syscallAssemblerConstants());
  Module M;
  std::string Error;
  EXPECT_TRUE(Asm.assemble(Src, M, Error)) << Error;
  return M;
}

struct Fixture {
  World W;
  Machine *M;
  Process *P;
  Fixture() {
    M = W.createMachine("box");
    P = M->createProcess("proc");
  }
  Thread *load(const Module &Mod, const std::string &Entry = "main") {
    std::string Error;
    LoadedModule *LM = P->loadModule(Mod, Error);
    EXPECT_NE(LM, nullptr) << Error;
    return P->start(Entry);
  }
};
} // namespace

TEST(AddressSpaceTest, MapReadWrite) {
  AddressSpace Mem;
  Mem.map(0x1000, 100);
  EXPECT_TRUE(Mem.isMapped(0x1000, 100));
  EXPECT_FALSE(Mem.isMapped(0x0, 8));
  ASSERT_TRUE(Mem.write64(0x1008, 0xCAFEBABEDEADBEEFull));
  bool Ok = true;
  EXPECT_EQ(Mem.read64(0x1008, Ok), 0xCAFEBABEDEADBEEFull);
  EXPECT_TRUE(Ok);
  // Cross-page access.
  Mem.map(0x2000 - 8, 16);
  ASSERT_TRUE(Mem.write64(0x2000 - 4, 0x1122334455667788ull));
  EXPECT_EQ(Mem.read64(0x2000 - 4, Ok), 0x1122334455667788ull);
  Ok = true;
  Mem.read64(0x9999000, Ok);
  EXPECT_FALSE(Ok);
}

TEST(AddressSpaceTest, StraddlingAccessIntoUnmappedPageFaults) {
  // Only the first page is mapped: an 8-byte access at PageSize - 4 has
  // its first half there and its second half in the hole.
  const uint64_t P = AddressSpace::PageSize;
  AddressSpace Mem;
  Mem.map(0, P);
  ASSERT_FALSE(Mem.isMapped(P, 1));
  std::vector<uint8_t> Pattern(P);
  for (uint64_t I = 0; I < P; ++I)
    Pattern[I] = static_cast<uint8_t>(I * 7 + 1);
  ASSERT_TRUE(Mem.write(0, Pattern.data(), P));

  bool Ok = true;
  Mem.read64(P - 4, Ok);
  EXPECT_FALSE(Ok);
  EXPECT_FALSE(Mem.write64(P - 4, 0x1122334455667788ull));

  // The store wrote the mapped half before it ran into the hole, as the
  // byte-wise bulk copy always has: little-endian low bytes first.
  std::vector<uint8_t> Want = Pattern;
  Want[P - 4] = 0x88;
  Want[P - 3] = 0x77;
  Want[P - 2] = 0x66;
  Want[P - 1] = 0x55;
  std::vector<uint8_t> Got(P);
  ASSERT_TRUE(Mem.read(0, Got.data(), P));
  EXPECT_EQ(Got, Want);
}

TEST(AddressSpaceTest, FillSetsBytesAcrossPages) {
  const uint64_t P = AddressSpace::PageSize;
  AddressSpace Mem;
  Mem.map(0, 2 * P);
  ASSERT_TRUE(Mem.fill(0, 0xAB, 2 * P));
  ASSERT_TRUE(Mem.fill(P - 3, 0, 6));
  std::vector<uint8_t> Got(2 * P);
  ASSERT_TRUE(Mem.read(0, Got.data(), 2 * P));
  for (uint64_t I = 0; I < 2 * P; ++I)
    ASSERT_EQ(Got[I], I >= P - 3 && I < P + 3 ? 0 : 0xAB) << "byte " << I;
  EXPECT_FALSE(Mem.fill(2 * P - 1, 0, 2));
  bool Ok = true;
  EXPECT_EQ(Mem.read8(2 * P - 1, Ok), 0);
  EXPECT_TRUE(Ok);
}

namespace {
/// The ranges readInto reports as shared-page zeros for [Addr, Addr+Size).
std::vector<std::pair<size_t, size_t>> sharedRanges(const AddressSpace &Mem,
                                                    uint64_t Addr,
                                                    uint64_t Size) {
  std::vector<uint8_t> Bytes;
  std::vector<ZeroRange> Zeros;
  EXPECT_TRUE(Mem.readInto(Addr, Size, Bytes, &Zeros));
  std::vector<std::pair<size_t, size_t>> Out;
  for (const ZeroRange &Z : Zeros) {
    Out.push_back({Z.Begin, Z.End});
    for (size_t I = Z.Begin; I < Z.End; ++I)
      EXPECT_EQ(Bytes[I], 0) << "reported zero at byte " << I;
  }
  return Out;
}
using Ranges = std::vector<std::pair<size_t, size_t>>;
} // namespace

TEST(AddressSpaceTest, MappedPagesAreSharedZerosUntilStoredTo) {
  const uint64_t P = AddressSpace::PageSize;
  AddressSpace Mem;
  Mem.map(0, 3 * P);
  EXPECT_TRUE(Mem.isMapped(0, 3 * P));
  EXPECT_EQ(sharedRanges(Mem, 0, 3 * P), (Ranges{{0, 3 * P}}));
  // Loads read zeros and give no page storage.
  bool Ok = true;
  EXPECT_EQ(Mem.read64(P + 8, Ok), 0u);
  EXPECT_EQ(Mem.read32(2 * P - 2, Ok), 0u); // straddling
  std::vector<uint8_t> Got(P, 0xEE);
  EXPECT_TRUE(Mem.read(P / 2, Got.data(), P));
  EXPECT_EQ(Got, std::vector<uint8_t>(P, 0));
  EXPECT_TRUE(Ok);
  EXPECT_EQ(sharedRanges(Mem, 0, 3 * P), (Ranges{{0, 3 * P}}));

  // Offsets count from the first byte readInto appends, whatever Out
  // already held; an unaligned start reports the partial first page.
  std::vector<uint8_t> Out(5, 0x11);
  std::vector<ZeroRange> Zeros;
  ASSERT_TRUE(Mem.readInto(P / 2, 2 * P, Out, &Zeros));
  ASSERT_EQ(Out.size(), 5 + 2 * P);
  ASSERT_EQ(Zeros.size(), 1u);
  EXPECT_EQ(Zeros[0].Begin, 0u);
  EXPECT_EQ(Zeros[0].End, 2 * P);

  // Remapping a mapped page keeps what was stored there.
  ASSERT_TRUE(Mem.write8(P + 1, 0x5A));
  Mem.map(0, 3 * P);
  EXPECT_EQ(Mem.read8(P + 1, Ok), 0x5A);
}

TEST(AddressSpaceTest, StoreGivesStorageOnlyToThePagesItTouches) {
  const uint64_t P = AddressSpace::PageSize;
  AddressSpace Mem;
  Mem.map(0, 4 * P);
  ASSERT_TRUE(Mem.write8(P + 5, 0xAB));
  EXPECT_EQ(sharedRanges(Mem, 0, 4 * P), (Ranges{{0, P}, {2 * P, 4 * P}}));
  bool Ok = true;
  EXPECT_EQ(Mem.read8(P + 5, Ok), 0xAB);
  EXPECT_EQ(Mem.read8(P + 4, Ok), 0); // the rest of the new page is zero
  EXPECT_EQ(Mem.read8(P + 6, Ok), 0);

  // A store straddling pages 2 and 3 gives both their own storage.
  ASSERT_TRUE(Mem.write64(3 * P - 4, 0x1122334455667788ull));
  EXPECT_EQ(sharedRanges(Mem, 0, 4 * P), (Ranges{{0, P}}));
  EXPECT_EQ(Mem.read64(3 * P - 4, Ok), 0x1122334455667788ull);
  EXPECT_TRUE(Ok);

  // Bulk writes too, and readInto copies the stored bytes.
  const char Msg[] = "hello";
  ASSERT_TRUE(Mem.write(100, Msg, sizeof Msg));
  EXPECT_TRUE(sharedRanges(Mem, 0, 4 * P).empty());
  std::vector<uint8_t> Out;
  ASSERT_TRUE(Mem.readInto(100, sizeof Msg, Out));
  EXPECT_EQ(std::string(Out.begin(), Out.end() - 1), "hello");
}

TEST(AddressSpaceTest, ZeroFillKeepsSharedPagesShared) {
  const uint64_t P = AddressSpace::PageSize;
  AddressSpace Mem;
  Mem.map(0, 3 * P);
  ASSERT_TRUE(Mem.fill(0, 0, 3 * P));
  ASSERT_TRUE(Mem.fill(P / 2, 0, P));
  EXPECT_EQ(sharedRanges(Mem, 0, 3 * P), (Ranges{{0, 3 * P}}));

  // A non-zero fill gives storage to the pages it covers, only.
  ASSERT_TRUE(Mem.fill(P + 3, 0xCD, 2));
  EXPECT_EQ(sharedRanges(Mem, 0, 3 * P), (Ranges{{0, P}, {2 * P, 3 * P}}));
  bool Ok = true;
  EXPECT_EQ(Mem.read8(P + 2, Ok), 0);
  EXPECT_EQ(Mem.read8(P + 3, Ok), 0xCD);
  EXPECT_EQ(Mem.read8(P + 4, Ok), 0xCD);
  EXPECT_EQ(Mem.read8(P + 5, Ok), 0);

  // A zero fill of a page with storage clears it; the page keeps its
  // storage (it is not returned to the shared page).
  ASSERT_TRUE(Mem.fill(P, 0, P));
  EXPECT_EQ(Mem.read8(P + 3, Ok), 0);
  EXPECT_EQ(sharedRanges(Mem, 0, 3 * P), (Ranges{{0, P}, {2 * P, 3 * P}}));
}

TEST(AddressSpaceTest, StoreFromASharedPageIntoAHoleFaultsAfterWriting) {
  // Page 0 is mapped and never written, page 1 is a hole: the straddling
  // store gives page 0 storage, writes its half there, then faults.
  const uint64_t P = AddressSpace::PageSize;
  AddressSpace Mem;
  Mem.map(0, P);
  EXPECT_FALSE(Mem.write64(P - 4, 0x1122334455667788ull));
  EXPECT_TRUE(sharedRanges(Mem, 0, P).empty());
  bool Ok = true;
  EXPECT_EQ(Mem.read32(P - 4, Ok), 0x55667788u);
  EXPECT_EQ(Mem.read8(P - 5, Ok), 0);
  EXPECT_TRUE(Ok);
  EXPECT_FALSE(Mem.fill(P - 1, 0, 2));

  // readInto of a range running into the hole appends zeros for the rest
  // and reports only shared pages, not the hole.
  AddressSpace Fresh;
  Fresh.map(0, P);
  std::vector<uint8_t> Out;
  std::vector<ZeroRange> Zeros;
  EXPECT_FALSE(Fresh.readInto(0, 2 * P, Out, &Zeros));
  EXPECT_EQ(Out.size(), 2 * P);
  ASSERT_EQ(Zeros.size(), 1u);
  EXPECT_EQ(Zeros[0].End, P);
}

TEST(AddressSpaceTest, CString) {
  AddressSpace Mem;
  Mem.map(0x1000, 32);
  const char *S = "hello";
  Mem.write(0x1000, S, 6);
  std::string Out;
  ASSERT_TRUE(Mem.readCString(0x1000, Out));
  EXPECT_EQ(Out, "hello");
  AddressSpace Mem2;
  Mem2.map(0x0, 16);
  std::string Long(16, 'x');
  Mem2.write(0, Long.data(), 16);
  EXPECT_FALSE(Mem2.readCString(0, Out, 16));
}

TEST(VmTest, ArithmeticAndOutput) {
  Fixture F;
  F.load(assemble(R"(.module m
.func main export
  movi r0, 6
  movi r1, 7
  mul r0, r0, r1
  sys $SysPrintInt
  movi r0, 0
  sys $SysExit
.endfunc
)"));
  EXPECT_EQ(F.W.run(), World::RunResult::AllExited);
  EXPECT_EQ(F.P->Output, "42\n");
  EXPECT_EQ(F.P->ExitCode, 0);
}

TEST(VmTest, LoopAndBranches) {
  Fixture F;
  F.load(assemble(R"(.module m
.func main export
  movi r1, 0
  movi r2, 10
loop:
  add r1, r1, r2
  addi r2, r2, -1
  brnz r2, loop
  mov r0, r1
  sys $SysPrintInt
  halt
.endfunc
)"));
  EXPECT_EQ(F.W.run(), World::RunResult::AllExited);
  EXPECT_EQ(F.P->Output, "55\n");
}

TEST(VmTest, CallsAndStack) {
  Fixture F;
  F.load(assemble(R"(.module m
.func main export
  movi r0, 20
  call double_it
  sys $SysPrintInt
  halt
.endfunc
.func double_it
  add r0, r0, r0
  ret
.endfunc
)"));
  EXPECT_EQ(F.W.run(), World::RunResult::AllExited);
  EXPECT_EQ(F.P->Output, "40\n");
}

TEST(VmTest, ImportsAcrossModules) {
  Fixture F;
  Module Lib = assemble(R"(.module lib
.func triple export
  movi r4, 3
  mul r0, r0, r4
  ret
.endfunc
)");
  Module App = assemble(R"(.module app
.func main export
  movi r0, 5
  callimp @triple
  sys $SysPrintInt
  halt
.endfunc
)");
  std::string Error;
  ASSERT_NE(F.P->loadModule(Lib, Error), nullptr) << Error;
  ASSERT_NE(F.P->loadModule(App, Error), nullptr) << Error;
  ASSERT_NE(F.P->start("main"), nullptr);
  EXPECT_EQ(F.W.run(), World::RunResult::AllExited);
  EXPECT_EQ(F.P->Output, "15\n");
}

TEST(VmTest, SegvKillsProcess) {
  Fixture F;
  F.load(assemble(R"(.module m
.func main export
  movi r1, 0xdead0000
  ld r0, [r1]
  halt
.endfunc
)"));
  EXPECT_EQ(F.W.run(), World::RunResult::AllExited);
  EXPECT_TRUE(F.P->Exited);
  EXPECT_EQ(F.P->LastFault.Code, FaultCode::Segv);
  EXPECT_EQ(F.P->LastFault.Addr, 0xdead0000u);
}

TEST(VmTest, DivZeroFault) {
  Fixture F;
  F.load(assemble(R"(.module m
.func main export
  movi r1, 10
  movi r2, 0
  div r0, r1, r2
  halt
.endfunc
)"));
  F.W.run();
  EXPECT_EQ(F.P->LastFault.Code, FaultCode::DivZero);
}

TEST(VmTest, TryCatchViaEhTable) {
  Fixture F;
  F.load(assemble(R"(.module m
.func main export
tb:
  trap 7
  movi r0, 111
  sys $SysPrintInt
te:
  halt
handler:
  movi r0, 222
  sys $SysPrintInt
  halt
.try tb te handler
.endfunc
)"));
  EXPECT_EQ(F.W.run(), World::RunResult::AllExited);
  EXPECT_EQ(F.P->Output, "222\n") << "handler must run, skipping 111";
}

TEST(VmTest, UnwindAcrossFrames) {
  Fixture F;
  F.load(assemble(R"(.module m
.func main export
tb:
  call level1
te:
  halt
handler:
  movi r0, 99
  sys $SysPrintInt
  halt
.try tb te handler
.endfunc
.func level1
  call level2
  ret
.endfunc
.func level2
  trap 5
  ret
.endfunc
)"));
  EXPECT_EQ(F.W.run(), World::RunResult::AllExited);
  EXPECT_EQ(F.P->Output, "99\n");
}

TEST(VmTest, WildReturnFromSmashedStack) {
  Fixture F;
  F.load(assemble(R"(.module m
.func main export
  call victim
  halt
.endfunc
.func victim
  movi r4, 0x12345678
  st [sp], r4
  ret
.endfunc
)"));
  F.W.run();
  EXPECT_TRUE(F.P->Exited);
  EXPECT_EQ(F.P->LastFault.Code, FaultCode::BadJump);
  EXPECT_EQ(F.P->LastFault.PC, 0x12345678u);
}

TEST(VmTest, JumpIntoInstructionMiddleFaults) {
  // The target lies inside the module but one byte into an instruction:
  // no instruction starts there, so the jump is as wild as one outside
  // every module.
  Fixture F;
  F.load(assemble(R"(.module m
.func main export
  lea r4, target+1
  jmpind r4
  halt
.endfunc
.func target export
  movi r0, 7
  sys $SysPrintInt
  halt
.endfunc
)"));
  uint64_t Bad = F.P->resolveSymbol("target") + 1;
  ASSERT_NE(F.P->moduleForPC(Bad), nullptr);
  F.W.run();
  EXPECT_TRUE(F.P->Exited);
  EXPECT_EQ(F.P->Output, "");
  EXPECT_EQ(F.P->LastFault.Code, FaultCode::BadJump);
  EXPECT_EQ(F.P->LastFault.PC, Bad);
  EXPECT_EQ(F.P->LastFault.Addr, Bad);
}

TEST(VmTest, ThreadsJoinAndMutex) {
  Fixture F;
  F.load(assemble(R"(.module m
.func main export
  movi r0, 64
  sys $SysAlloc
  mov r8, r0
  lea r4, worker
  mov r0, r4
  mov r1, r8
  sys $SysThreadSpawn
  mov r9, r0
  mov r0, r4
  mov r1, r8
  sys $SysThreadSpawn
  mov r10, r0
  mov r0, r9
  sys $SysThreadJoin
  mov r0, r10
  sys $SysThreadJoin
  ld r0, [r8]
  sys $SysPrintInt
  halt
.endfunc
.func worker
  mov r8, r0
  movi r9, 1000
wloop:
  movi r0, 1
  sys $SysLock
  ld r4, [r8]
  addi r4, r4, 1
  st [r8], r4
  movi r0, 1
  sys $SysUnlock
  addi r9, r9, -1
  brnz r9, wloop
  sys $SysThreadExit
.endfunc
)"));
  EXPECT_EQ(F.W.run(), World::RunResult::AllExited);
  EXPECT_EQ(F.P->Output, "2000\n") << "mutex must serialize increments";
}

TEST(VmTest, DeadlockDetectedAsIdle) {
  Fixture F;
  F.load(assemble(R"(.module m
.func main export
  lea r4, worker
  mov r0, r4
  movi r1, 0
  sys $SysThreadSpawn
  movi r0, 1
  sys $SysLock
  sys $SysYield
  movi r0, 2
  sys $SysLock
  halt
.endfunc
.func worker
  movi r0, 2
  sys $SysLock
  sys $SysYield
  movi r0, 1
  sys $SysLock
  sys $SysThreadExit
.endfunc
)"));
  EXPECT_EQ(F.W.run(), World::RunResult::Idle) << "deadlock -> Idle";
  EXPECT_FALSE(F.P->Exited);
}

TEST(VmTest, SignalHandlerRunsAndReturns) {
  Fixture F;
  F.load(assemble(R"(.module m
.func main export
  lea r1, on_usr1
  movi r0, 10
  sys $SysSigHandler
  movi r0, 10
  sys $SysRaise
  movi r0, 333
  sys $SysPrintInt
  halt
.endfunc
.func on_usr1
  sys $SysPrintInt
  ret
.endfunc
)"));
  EXPECT_EQ(F.W.run(), World::RunResult::AllExited);
  EXPECT_EQ(F.P->Output, "10\n333\n") << "handler then resumed main";
}

TEST(VmTest, HardKillStopsEverything) {
  Fixture F;
  Thread *T = F.load(assemble(R"(.module m
.func main export
spin:
  br spin
.endfunc
)"));
  ASSERT_NE(T, nullptr);
  for (int I = 0; I < 10; ++I)
    F.W.stepSlice();
  EXPECT_GT(T->InstrRetired, 0u);
  F.W.sendSignal(*F.P, SigKill);
  EXPECT_TRUE(F.P->HardKilled);
  EXPECT_TRUE(T->ExitedAbruptly);
  EXPECT_EQ(T->Tls[DefaultTlsSlot], 0u) << "TLS lost on kill -9";
  EXPECT_EQ(F.W.run(), World::RunResult::AllExited);
}

TEST(VmTest, RpcRoundTrip) {
  World W;
  Machine *M1 = W.createMachine("client-box");
  Machine *M2 = W.createMachine("server-box");
  Process *Client = M1->createProcess("client");
  Process *Server = M2->createProcess("server");

  Module ServerMod = assemble(R"(.module srv
.func main export
  movi r0, 77
  sys $SysSrvRegister
serve:
  movi r0, 0x7000
  movi r1, 64
  sys $SysRpcRecv
  mov r9, r0
  movi r4, 0x7000
  ld r5, [r4]
  add r5, r5, r5
  st [r4], r5
  mov r0, r9
  movi r1, 0x7000
  movi r2, 8
  sys $SysRpcReply
  br serve
.endfunc
)");
  Module ClientMod = assemble(R"(.module cli
.func main export
  movi r4, 0x6000
  movi r5, 21
  st [r4], r5
  movi r0, 77
  movi r1, 0x6000
  movi r2, 8
  movi r3, 0x6100
  sys $SysRpcCall
  sys $SysPrintInt
  movi r4, 0x6100
  ld r0, [r4]
  sys $SysPrintInt
  halt
.endfunc
)");
  std::string Error;
  Client->Mem.map(0x6000, 0x200);
  Server->Mem.map(0x7000, 0x100);
  ASSERT_NE(Server->loadModule(ServerMod, Error), nullptr) << Error;
  ASSERT_NE(Client->loadModule(ClientMod, Error), nullptr) << Error;
  ASSERT_NE(Server->start("main"), nullptr);
  // Let the server register its service before the client dials.
  for (int I = 0; I < 5; ++I)
    W.stepSlice();
  ASSERT_NE(Client->start("main"), nullptr);
  while (!Client->Exited && W.cycles() < 10'000'000)
    W.stepSlice();
  EXPECT_EQ(Client->Output, "0\n42\n");
}

TEST(VmTest, RpcServerFaultReachesClient) {
  World W;
  Machine *M1 = W.createMachine("a");
  Process *Client = M1->createProcess("client");
  Process *Server = M1->createProcess("server");
  Module ServerMod = assemble(R"(.module srv
.func main export
  movi r0, 5
  sys $SysSrvRegister
  movi r0, 0x7000
  movi r1, 64
  sys $SysRpcRecv
  movi r4, 0
  ld r5, [r4]
  sys $SysRpcReply
  halt
.endfunc
)");
  Module ClientMod = assemble(R"(.module cli
.func main export
  movi r0, 5
  movi r1, 0x6000
  movi r2, 8
  movi r3, 0x6100
  sys $SysRpcCall
  sys $SysPrintInt
  halt
.endfunc
)");
  std::string Error;
  Client->Mem.map(0x6000, 0x200);
  Server->Mem.map(0x7000, 0x100);
  ASSERT_NE(Server->loadModule(ServerMod, Error), nullptr) << Error;
  ASSERT_NE(Client->loadModule(ClientMod, Error), nullptr) << Error;
  Server->start("main");
  for (int I = 0; I < 5; ++I)
    W.stepSlice();
  Client->start("main");
  while (!Client->Exited && W.cycles() < 10'000'000)
    W.stepSlice();
  EXPECT_EQ(Client->Output, "2\n");
  // The dispatch boundary converted the crash into an error reply and
  // killed only the worker thread — which was the process's last thread,
  // so the process wound down afterwards.
  EXPECT_TRUE(Server->Threads[0]->ExitedAbruptly);
  EXPECT_TRUE(Server->Exited);
}

TEST(VmTest, ModuleUnloadMakesCodeUnreachable) {
  Fixture F;
  Module Lib = assemble(R"(.module lib
.func helper export
  movi r0, 1
  ret
.endfunc
)");
  Module App = assemble(R"(.module app
.func main export
  callimp @helper
  sys $SysPrintInt
  halt
.endfunc
)");
  std::string Error;
  ASSERT_NE(F.P->loadModule(Lib, Error), nullptr);
  ASSERT_NE(F.P->loadModule(App, Error), nullptr);
  ASSERT_TRUE(F.P->unloadModule("lib"));
  F.P->start("main");
  F.W.run();
  EXPECT_EQ(F.P->LastFault.Code, FaultCode::BadJump);
}

TEST(VmTest, JumpTableThroughData) {
  Fixture F;
  F.load(assemble(R"(.module m
.func main export
  lea r4, table
  movi r5, 1
  shli r5, r5, 3
  add r4, r4, r5
  ld r4, [r4]
  callind r4
  sys $SysPrintInt
  halt
.endfunc
.func case0
  movi r0, 100
  ret
.endfunc
.func case1
  movi r0, 200
  ret
.endfunc
.datasym table
.ptr case0
.ptr case1
)"));
  EXPECT_EQ(F.W.run(), World::RunResult::AllExited);
  EXPECT_EQ(F.P->Output, "200\n");
}
