//===- tests/test_runtime.cpp - TraceBack runtime tests -------------------===//
//
// Part of the TraceBack reproduction project (paper section 3).
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "reconstruct/RecordRecovery.h"
#include "runtime/Runtime.h"
#include "support/SnapCodec.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace traceback;
using namespace traceback::testing_helpers;

namespace {
const char *LoopSource = R"(
fn main() export {
  var s = 0;
  for (var i = 0; i < 400; i = i + 1) {
    if (i % 2 == 0) { s = s + i; } else { s = s - 1; }
  }
  snap(1);
  print(s);
}
)";
} // namespace

TEST(RuntimeTest, BufferWrapAndSubBufferCommits) {
  SingleProcess S;
  S.D.Policy.BufferBytes = 1024; // Tiny buffers force wraps.
  S.D.Policy.SubBufferCount = 4;
  Module M = compileOrDie(LoopSource);
  S.runModule(M, true);
  EXPECT_GT(S.count("runtime.buffer_wraps"), 2u);
  EXPECT_GT(S.count("runtime.subbuffer_commits"), 2u);
  EXPECT_GT(S.count("runtime.full_buffer_wraps"), 0u) << "ring must lap";
  // Reconstruction still yields a (truncated) trace.
  ASSERT_FALSE(S.D.snaps().empty());
  ReconstructedTrace T = S.D.reconstruct(S.D.snaps().back());
  ASSERT_FALSE(T.Threads.empty());
  EXPECT_TRUE(T.Threads[0].Truncated) << "old history was overwritten";
}

TEST(RuntimeTest, HistoryDepthScalesWithBufferSize) {
  auto LinesRecovered = [](uint32_t BufferBytes) {
    SingleProcess S;
    S.D.Policy.BufferBytes = BufferBytes;
    Module M = compileOrDie(LoopSource);
    S.runModule(M, true);
    ReconstructedTrace T = S.D.reconstruct(S.D.snaps().back());
    size_t Lines = 0;
    for (const TraceEvent &E : T.Threads.at(0).Events)
      if (E.EventKind == TraceEvent::Kind::Line)
        Lines += E.Repeat;
    return Lines;
  };
  size_t Small = LinesRecovered(512);
  size_t Big = LinesRecovered(64 * 1024);
  EXPECT_GT(Big, Small * 2) << "bigger buffers, deeper history";
}

TEST(RuntimeTest, ProbationThreadsNeverClaimBuffers) {
  // A thread that runs no instrumented code must stay on probation.
  SingleProcess S;
  Module Plain = compileOrDie(R"(
fn main() export {
  var s = 0;
  for (var i = 0; i < 50; i = i + 1) { s = s + i; }
  print(s);
}
)");
  // Attach the runtime but load the module UNinstrumented.
  TracebackRuntime *RT = S.D.runtimeFor(*S.P, Technology::Native);
  std::string Error;
  ASSERT_NE(S.D.deploy(*S.P, Plain, /*Instrument=*/false, Error), nullptr);
  S.P->start("main");
  S.D.world().run();
  EXPECT_EQ(S.count("runtime.buffer_wraps"), 0u);
  SnapFile Snap = *RT->takeSnap(SnapReason::External, 0);
  ReconstructedTrace T = S.D.reconstruct(Snap);
  EXPECT_TRUE(T.Threads.empty()) << "no instrumented code ran";
}

TEST(RuntimeTest, DesperationBufferWhenOutOfBuffers) {
  SingleProcess S;
  S.D.Policy.BufferCount = 1; // One real buffer for many threads.
  Module M = compileOrDie(R"(
fn worker(id) {
  var s = 0;
  for (var i = 0; i < 30; i = i + 1) { s = s + id; }
  return s;
}
fn main() export {
  var t1 = spawn(addr_of(worker), 1);
  var t2 = spawn(addr_of(worker), 2);
  var t3 = spawn(addr_of(worker), 3);
  join(t1); join(t2); join(t3);
  snap(1);
}
)");
  S.runModule(M, true);
  EXPECT_GT(S.count("runtime.desperation_assignments"), 0u);
  // Reconstruction must drop desperation data with a warning, not crash.
  ReconstructedTrace T = S.D.reconstruct(S.D.snaps().back());
  bool Warned = false;
  for (const std::string &W : T.Warnings)
    if (W.find("desperation") != std::string::npos)
      Warned = true;
  EXPECT_TRUE(Warned);
}

TEST(RuntimeTest, BufferReuseAfterThreadExit) {
  SingleProcess S;
  // Two buffers: the main thread owns one; sequential workers must share
  // the other by reuse rather than falling into desperation.
  S.D.Policy.BufferCount = 2;
  Module M = compileOrDie(R"(
fn worker(id) {
  var s = id * 3;
  return s;
}
fn main() export {
  var t1 = spawn(addr_of(worker), 1);
  join(t1);
  var t2 = spawn(addr_of(worker), 2);
  join(t2);
  snap(1);
}
)");
  S.runModule(M, true);
  EXPECT_EQ(S.count("runtime.desperation_assignments"), 0u)
      << "sequential threads reuse the one buffer";
  ReconstructedTrace T = S.D.reconstruct(S.D.snaps().back());
  // Both workers' lifetimes are packed into the same buffer.
  EXPECT_NE(T.threadById(2), nullptr);
  EXPECT_NE(T.threadById(3), nullptr);
}

TEST(RuntimeTest, ScavengerFindsAbruptlyDeadThreads) {
  SingleProcess S;
  Module M = compileOrDie(R"(
fn server() {
  srv_register(9);
  var buf = alloc(64);
  var lenp = alloc(8);
  var id = rpc_recv(buf, 64, lenp);
  var p = 0;
  return load(p);   // dies servicing the request
}
fn main() export {
  srv_register(9);
  var t = spawn(addr_of(server), 0);
  sleep(2000);
  var arg = alloc(8);
  var rep = alloc(1024);
  store(arg, 123);
  rpc(9, arg, 8, rep);
  // Keep running so buffer wraps trigger the scavenger.
  var s = 0;
  for (var i = 0; i < 3000; i = i + 1) { s = s + i % 13; }
  snap(1);
}
)");
  S.D.Policy.BufferBytes = 1024;
  S.runModule(M, true);
  EXPECT_GT(S.count("runtime.threads_scavenged"), 0u)
      << "server thread died abruptly; scavenger must reclaim its buffer";
}

TEST(RuntimeTest, DagRebasingOnCollision) {
  // Two different modules instrumented with the SAME default base collide;
  // the second must be rebased, and traces from both must reconstruct.
  SingleProcess S;
  Module A = compileOrDie("fn fa() export { return 1; }\n"
                          "fn main() export { fa(); snap(1); }",
                          "moda");
  Module B = compileOrDie("fn fb(x) export { return x + 2; }", "modb");
  InstrumentOptions Opts;
  Opts.DagIdBase = 5000; // Force identical default ranges.
  std::string Error;
  ASSERT_NE(S.D.deploy(*S.P, B, true, Opts, Error), nullptr) << Error;
  ASSERT_NE(S.D.deploy(*S.P, A, true, Opts, Error), nullptr) << Error;
  LoadedModule *LA = S.P->findModule("moda");
  LoadedModule *LB = S.P->findModule("modb");
  ASSERT_NE(LA, nullptr);
  ASSERT_NE(LB, nullptr);
  EXPECT_EQ(LB->Mod.DagIdBase, 5000u) << "first keeps its range";
  EXPECT_NE(LA->Mod.DagIdBase, 5000u) << "second must be rebased";
  // No overlap.
  EXPECT_TRUE(LA->Mod.DagIdBase >= LB->Mod.DagIdBase + LB->Mod.DagIdCount ||
              LB->Mod.DagIdBase >= LA->Mod.DagIdBase + LA->Mod.DagIdCount);
  S.P->start("main");
  S.D.world().run();
  ASSERT_FALSE(S.D.snaps().empty());
  ReconstructedTrace T = S.D.reconstruct(S.D.snaps().back());
  ASSERT_FALSE(T.Threads.empty());
  // Lines from module A must reconstruct despite rebasing.
  bool SawA = false;
  for (const TraceEvent &E : T.Threads[0].Events)
    if (E.EventKind == TraceEvent::Kind::Line && E.Module == "moda")
      SawA = true;
  EXPECT_TRUE(SawA);
}

TEST(RuntimeTest, ReloadGetsSameRange) {
  SingleProcess S;
  Module A = compileOrDie("fn fa() export { return 1; }", "moda");
  std::string Error;
  LoadedModule *First = S.D.deploy(*S.P, A, true, Error);
  ASSERT_NE(First, nullptr);
  uint32_t Base1 = First->Mod.DagIdBase;
  ASSERT_TRUE(S.P->unloadModule("moda"));
  // Reload the same instrumented image.
  Module Instr;
  ASSERT_TRUE(S.D.instrumentOnly(A, InstrumentOptions(), Instr, Error));
  LoadedModule *Second = S.P->loadModule(Instr, Error);
  ASSERT_NE(Second, nullptr) << Error;
  EXPECT_EQ(Second->Mod.DagIdBase, Base1)
      << "reload must reuse the range (no id-space leak)";
}

TEST(RuntimeTest, BadDagFallbackWhenIdSpaceExhausted) {
  SingleProcess S;
  // Consume nearly the whole id space with a fake registration by loading
  // a module with a huge claimed range... simpler: request a base near the
  // top so the second module cannot fit anywhere above, then fill below.
  Module A = compileOrDie("fn fa() export { return 1; }", "moda");
  Module B = compileOrDie(
      "fn fb() export { return 2; }\nfn main() export { fb(); snap(1); }",
      "modb");
  std::string Error;
  // Deploy A claiming virtually the entire DAG id space.
  Module InstrA;
  MapFile MapA;
  InstrumentOptions OptsA;
  OptsA.DagIdBase = 1;
  ASSERT_TRUE(instrumentModule(A, OptsA, InstrA, MapA, nullptr, Error));
  InstrA.DagIdCount = MaxDagId - 1; // Claim (simulates a huge module).
  S.D.maps().add(MapA);
  S.D.runtimeFor(*S.P, Technology::Native);
  ASSERT_NE(S.P->loadModule(InstrA, Error), nullptr) << Error;
  // B cannot fit: must fall back to the bad-DAG id but keep running.
  LoadedModule *LB = S.D.deploy(*S.P, B, true, Error);
  ASSERT_NE(LB, nullptr) << Error;
  EXPECT_EQ(LB->Mod.DagIdBase, BadDagId);
  EXPECT_GT(S.count("runtime.modules_bad_dag"), 0u);
  S.P->start("main");
  EXPECT_EQ(S.D.world().run(), World::RunResult::AllExited)
      << "bad-DAG module must still execute correctly";
  // Reconstruction reports untraced regions rather than garbage.
  ReconstructedTrace T = S.D.reconstruct(S.D.snaps().back());
  ASSERT_FALSE(T.Threads.empty());
  bool SawUntraced = false;
  for (const TraceEvent &E : T.Threads[0].Events)
    if (E.EventKind == TraceEvent::Kind::Untraced)
      SawUntraced = true;
  EXPECT_TRUE(SawUntraced);
}

TEST(RuntimeTest, TlsSlotRebasingForSecondRuntime) {
  // Two runtimes in one process (native + managed) must claim distinct TLS
  // slots, and managed modules get their probes patched.
  SingleProcess S;
  TracebackRuntime *Native = S.D.runtimeFor(*S.P, Technology::Native);
  TracebackRuntime *Managed = S.D.runtimeFor(*S.P, Technology::Managed);
  EXPECT_NE(Native->tlsSlot(), Managed->tlsSlot());
  Module M = compileOrDie("fn main() export { snap(1); }", "jm",
                          Technology::Managed);
  std::string Error;
  LoadedModule *LM = S.D.deploy(*S.P, M, true, Error);
  ASSERT_NE(LM, nullptr) << Error;
  EXPECT_EQ(LM->Mod.TlsSlot, Managed->tlsSlot());
  S.P->start("main");
  EXPECT_EQ(S.D.world().run(), World::RunResult::AllExited);
}

TEST(RuntimeTest, SnapSuppressionDeduplicatesSites) {
  SingleProcess S;
  S.D.Policy.SuppressRepeats = 1;
  Module M = compileOrDie(R"(
fn main() export {
  for (var i = 0; i < 5; i = i + 1) {
    try { throw 4; } catch { }
  }
}
)");
  S.runModule(M, true);
  EXPECT_EQ(S.count("runtime.snaps_taken"), 1u) << "same site snapped once";
  EXPECT_EQ(S.count("runtime.snaps_suppressed"), 4u);
}

TEST(RuntimeTest, SnapFileSerializationRoundTrip) {
  SingleProcess S;
  Module M = compileOrDie("fn main() export { snap(3); }");
  S.runModule(M, true);
  ASSERT_FALSE(S.D.snaps().empty());
  const SnapFile &Snap = S.D.snaps().back();
  std::vector<uint8_t> Bytes = Snap.serialize();
  SnapFile Back;
  ASSERT_TRUE(SnapFile::deserialize(Bytes, Back));
  EXPECT_EQ(Back.Reason, Snap.Reason);
  EXPECT_EQ(Back.ProcessName, Snap.ProcessName);
  EXPECT_EQ(Back.RuntimeId, Snap.RuntimeId);
  EXPECT_EQ(Back.Buffers.size(), Snap.Buffers.size());
  EXPECT_EQ(Back.Modules.size(), Snap.Modules.size());
  EXPECT_EQ(Back.Threads.size(), Snap.Threads.size());
  for (size_t I = 0; I < Snap.Buffers.size(); ++I)
    EXPECT_EQ(Back.Buffers[I].Raw, Snap.Buffers[I].Raw);
  // A reconstruction from the deserialized snap is identical.
  ReconstructedTrace A = S.D.reconstruct(Snap);
  ReconstructedTrace B = S.D.reconstruct(Back);
  ASSERT_EQ(A.Threads.size(), B.Threads.size());
  for (size_t I = 0; I < A.Threads.size(); ++I)
    EXPECT_EQ(A.Threads[I].Events.size(), B.Threads[I].Events.size());
}

TEST(RuntimeTest, CaptureCopiesStoresTheRuntimeNeverMade) {
  // Capture trusts guest memory, not the runtime's bookkeeping: a store
  // into ring space the runtime never opened (a wild guest store, here a
  // direct write) reaches the next snap's Raw, and the stream pre-encoded
  // with never-written hints decodes to it and equals the unhinted one.
  SingleProcess S;
  Module M = compileOrDie("fn main() export { snap(3); }");
  S.runModule(M, true);
  TracebackRuntime *RT = S.D.runtimeFor(*S.P, Technology::Native);
  ASSERT_NE(RT, nullptr);
  std::shared_ptr<const SnapFile> Before = RT->takeSnap(SnapReason::Api, 1);

  const uint32_t Wild = 0x2C6A91E5u;
  std::vector<uint64_t> Offsets;
  for (const SnapBufferImage &B : Before->Buffers) {
    EXPECT_EQ(B.Encoded, snapEncode(B.Raw)) << "buffer " << B.Index;
    // The first page of this ring nothing has written yet.
    std::vector<uint8_t> Bytes;
    std::vector<ZeroRange> Never;
    ASSERT_TRUE(S.P->Mem.readInto(B.RecordsBase, B.Raw.size(), Bytes, &Never));
    ASSERT_FALSE(Never.empty()) << "buffer " << B.Index;
    uint64_t Off = (Never.front().Begin / 4 + 17) * 4;
    ASSERT_LT(Off + 4, Never.front().End);
    ASSERT_TRUE(S.P->Mem.write32(B.RecordsBase + Off, Wild));
    Offsets.push_back(Off);
  }

  std::shared_ptr<const SnapFile> After = RT->takeSnap(SnapReason::Api, 2);
  ASSERT_EQ(After->Buffers.size(), Before->Buffers.size());
  for (size_t I = 0; I < After->Buffers.size(); ++I) {
    const SnapBufferImage &B = After->Buffers[I];
    SCOPED_TRACE(::testing::Message() << "buffer " << B.Index);
    uint32_t Got;
    std::memcpy(&Got, B.Raw.data() + Offsets[I], 4);
    EXPECT_EQ(Got, Wild);
    std::vector<uint8_t> Decoded;
    ASSERT_TRUE(snapDecode(B.Encoded, Decoded));
    EXPECT_EQ(Decoded, B.Raw);
    EXPECT_EQ(B.Encoded, snapEncode(B.Raw));
  }
}

TEST(RuntimeTest, ThreadsLeaveDesperationWhenBuffersFree) {
  // Section 3.1: "threads can leave the desperation buffer when resources
  // become available". One buffer, two phases: while the first worker
  // holds it the second lands in desperation; after the first exits, the
  // second's next wrap upgrades it to the freed buffer.
  SingleProcess S;
  S.D.Policy.BufferCount = 2; // main + one worker; the 2nd worker waits.
  S.D.Policy.BufferBytes = 1024; // Frequent wraps = frequent retries.
  Module M = compileOrDie(R"(
fn churn(n) {
  var s = 0;
  for (var i = 0; i < n; i = i + 1) {
    if (i & 1) { s = s + i; } else { s = s ^ i; }
  }
  return s;
}
fn first(arg) { return churn(300); }
fn second(arg) {
  sleep(2000);          // Let `first` claim the last buffer.
  return churn(4000);   // Long enough to outlive `first` and upgrade.
}
fn main() export {
  var t1 = spawn(addr_of(first), 0);
  var t2 = spawn(addr_of(second), 0);
  join(t1);
  join(t2);
  snap(1);
}
)");
  S.runModule(M, true);
  EXPECT_GT(S.count("runtime.desperation_assignments"), 0u)
      << "the second worker must have visited desperation";
  // After the upgrade, thread 3's records live in a real buffer and its
  // trace reconstructs.
  ReconstructedTrace T = S.D.reconstruct(S.D.snaps().back());
  EXPECT_NE(T.threadById(3), nullptr)
      << "thread 3 must have escaped the desperation buffer";
}

TEST(RuntimeTest, SnapOnExitPolicy) {
  SingleProcess S;
  S.D.Policy.SnapOnExit = true;
  S.D.Policy.SnapOnApi = false;
  Module M = compileOrDie("fn main() export { print(1); }");
  S.runModule(M, true);
  ASSERT_FALSE(S.D.snaps().empty());
  EXPECT_EQ(S.D.snaps().back().Reason, SnapReason::ProcessExit);
  ReconstructedTrace T = S.D.reconstruct(S.D.snaps().back());
  EXPECT_FALSE(T.Threads.empty());
}

TEST(RuntimeTest, TimestampIntervalThrottles) {
  // One Timestamp record per Interval syscalls: count the records the
  // exit snap holds for 64 yields.
  auto TimestampsRecorded = [](uint32_t Interval) -> uint64_t {
    SingleProcess S;
    S.D.Policy.TimestampInterval = Interval;
    S.D.Policy.SnapOnApi = false;
    S.D.Policy.SnapOnExit = true;
    Module M = compileOrDie(R"(
fn main() export {
  for (var i = 0; i < 64; i = i + 1) { yield(); }
}
)");
    S.runModule(M, true);
    if (S.D.snaps().size() != 1) {
      ADD_FAILURE() << "expected one exit snap, got " << S.D.snaps().size();
      return 0;
    }
    const SnapFile &Snap = S.D.snaps().back();
    uint64_t Count = 0;
    std::vector<std::string> Warnings;
    for (const SnapBufferImage &B : Snap.Buffers)
      for (const ThreadSegment &Seg :
           recoverBufferRecords(B, Snap.Threads, Warnings))
        for (const ParsedRecord &R : Seg.Records)
          Count += R.RecordKind == ParsedRecord::Kind::Ext &&
                   R.Ext.Type == ExtType::Timestamp;
    return Count;
  };
  EXPECT_EQ(TimestampsRecorded(1), 64u);
  EXPECT_EQ(TimestampsRecorded(8), 8u);
  EXPECT_EQ(TimestampsRecorded(0), 0u) << "interval 0 disables timestamps";
}

TEST(RuntimeTest, RegistryIsCurrentMidRun) {
  // The runtime counts straight into its registry: read mid-run, before
  // any snap or exit, the counters already hold the wraps and commits
  // made so far.
  SingleProcess S;
  S.D.Policy.BufferBytes = 1024; // Tiny buffers force wraps.
  S.D.Policy.SubBufferCount = 4;
  S.D.Policy.SnapOnApi = false;
  S.D.Policy.SnapOnExit = false;
  Module M = compileOrDie(R"(
fn main() export {
  var s = 0;
  while (1) {
    if (s % 2 == 0) { s = s + 3; } else { s = s - 1; }
  }
}
)");
  ASSERT_EQ(S.runModule(M, true, "main", /*MaxCycles=*/200'000),
            World::RunResult::CycleLimit);
  EXPECT_EQ(S.count("runtime.snaps_taken"), 0u);
  EXPECT_GT(S.count("runtime.buffer_wraps"), 0u);
  EXPECT_GT(S.count("runtime.subbuffer_commits"), 0u);
}
