//===- tests/test_faultinjection.cpp - Fault injector tests ---------------===//
//
// Part of the TraceBack reproduction project.
//
// Exercises every fault class of the deterministic injector and the
// reconstruction pipeline's graceful degradation on damaged input.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "instrument/Instrumenter.h"
#include "reconstruct/RecordRecovery.h"
#include "vm/FaultInjector.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace traceback;
using namespace traceback::testing_helpers;

// ----------------------------------------------------------------------------
// FaultPlan text format.
// ----------------------------------------------------------------------------

TEST(FaultPlanTest, TextRoundTrip) {
  FaultPlan P;
  P.Seed = 42;
  P.Events.push_back({FaultKind::KillProcess, 500, 0});
  P.Events.push_back({FaultKind::TornWrite, 300, 1});
  P.Events.push_back({FaultKind::RpcDropWire, 0, 0});
  P.Events.push_back({FaultKind::SnapCorrupt, 0, 16});

  std::string Text = P.toText();
  FaultPlan Q;
  std::string Error;
  ASSERT_TRUE(FaultPlan::parse(Text, Q, Error)) << Error;
  ASSERT_EQ(Q.Seed, P.Seed);
  ASSERT_EQ(Q.Events.size(), P.Events.size());
  for (size_t I = 0; I < P.Events.size(); ++I) {
    EXPECT_EQ(Q.Events[I].Kind, P.Events[I].Kind);
    EXPECT_EQ(Q.Events[I].Trigger, P.Events[I].Trigger);
    EXPECT_EQ(Q.Events[I].Arg, P.Events[I].Arg);
  }
}

TEST(FaultPlanTest, ParseToleratesCommentsAndRejectsJunk) {
  FaultPlan P;
  std::string Error;
  ASSERT_TRUE(FaultPlan::parse(
      "# a comment\n\nseed 7\nkill-thread 100   # trailing\n", P, Error))
      << Error;
  EXPECT_EQ(P.Seed, 7u);
  ASSERT_EQ(P.Events.size(), 1u);
  EXPECT_EQ(P.Events[0].Kind, FaultKind::KillThread);
  EXPECT_EQ(P.Events[0].Trigger, 100u);

  EXPECT_FALSE(FaultPlan::parse("explode-now 5\n", P, Error));
  EXPECT_NE(Error.find("unknown fault kind"), std::string::npos);
  EXPECT_FALSE(FaultPlan::parse("kill-process\n", P, Error));
  EXPECT_FALSE(FaultPlan::parse("seed banana\n", P, Error));
}

TEST(FaultPlanTest, RandomIsDeterministic) {
  FaultPlan A = FaultPlan::random(1234, 2000);
  FaultPlan B = FaultPlan::random(1234, 2000);
  EXPECT_EQ(A.toText(), B.toText());
  EXPECT_FALSE(A.Events.empty());
  // A different seed produces a different plan (with overwhelming odds).
  FaultPlan C = FaultPlan::random(1235, 2000);
  EXPECT_NE(A.toText(), C.toText());
}

// ----------------------------------------------------------------------------
// Guest workloads.
// ----------------------------------------------------------------------------

namespace {

/// Bounded multi-line loop: every iteration touches several distinct lines
/// so reconstructed repeats stay comparable with the transition oracle.
const char *BoundedSpin = R"(
fn main() export {
  var x = 1;
  var i = 0;
  while (i < 300) {
    x = x * 3 + 1;
    x = x % 1000003;
    i = i + 1;
    yield();
  }
  print(x);
}
)";

/// Two threads: a worker spins forever, main spins a bounded while then
/// snaps and exits (worker death is the only way the process ends early).
const char *TwoThreadSpin = R"(
fn worker(a) {
  var x = a;
  while (1) {
    x = x * 5 + 3;
    x = x % 999983;
    yield();
  }
  return x;
}
fn main() export {
  spawn(addr_of(worker), 1);
  var i = 0;
  while (i < 250) {
    i = i + 1;
    yield();
  }
  snap(1);
}
)";

/// Like BoundedSpin but snaps at the end (for snap-plane faults).
const char *SpinThenSnap = R"(
fn main() export {
  var x = 1;
  var i = 0;
  while (i < 200) {
    x = x * 3 + 1;
    x = x % 1000003;
    i = i + 1;
    yield();
  }
  snap(1);
  print(x);
}
)";

/// Runs \p Source under \p Plan; returns the world's run result.
struct FaultedRun {
  SingleProcess S{/*WithOracle=*/true};
  FaultInjector FI;
  World::RunResult Result = World::RunResult::Idle;

  explicit FaultedRun(const char *Source, FaultPlan Plan)
      : FI(std::move(Plan)) {
    S.D.world().Injector = &FI;
    Module M = compileOrDie(Source);
    Result = S.runModule(M, /*Instrument=*/true);
  }
};

/// Recovered line sequence for \p Tid from the post-mortem snap of a
/// hard-killed process (empty when nothing survived).
std::vector<std::string> postMortemLines(SingleProcess &S, uint64_t Tid) {
  ServiceDaemon *Daemon = S.D.daemonFor(*S.M);
  if (!Daemon)
    return {};
  auto PM = Daemon->collectPostMortem(*S.P);
  if (PM.size() != 1)
    return {};
  ReconstructedTrace Trace = S.D.reconstruct(*PM[0]);
  const ThreadTrace *T = Trace.threadById(Tid);
  return T ? lineSequence(*T) : std::vector<std::string>{};
}

/// True if, after dropping at most \p Slack trailing entries, \p Got is an
/// exact elementwise prefix of \p Golden. The slack covers only the final
/// partial DAG record (path bits the kill interrupted).
bool isPrefixWithSlack(const std::vector<std::string> &Got,
                       const std::vector<std::string> &Golden,
                       size_t Slack = 12) {
  for (size_t Drop = 0; Drop <= Slack && Drop <= Got.size(); ++Drop) {
    size_t N = Got.size() - Drop;
    if (N <= Golden.size() &&
        std::equal(Got.begin(), Got.begin() + N, Golden.begin()))
      return true;
  }
  return false;
}

} // namespace

// ----------------------------------------------------------------------------
// Process kill.
// ----------------------------------------------------------------------------

TEST(FaultInjectionTest, KillProcessFiresAtPlannedSlice) {
  FaultPlan Plan;
  Plan.Seed = 11;
  Plan.Events.push_back({FaultKind::KillProcess, 120, 0});
  FaultedRun R(BoundedSpin, Plan);
  EXPECT_TRUE(R.S.P->HardKilled);
  EXPECT_TRUE(R.FI.allFired());
  ASSERT_EQ(R.FI.firedLog().size(), 1u);
  EXPECT_NE(R.FI.firedLog()[0].find("slice 120"), std::string::npos)
      << R.FI.firedLog()[0];
  EXPECT_NE(R.FI.firedLog()[0].find("kill-process"), std::string::npos);
}

TEST(FaultInjectionTest, KillProcessIsReplayable) {
  FaultPlan Plan;
  Plan.Seed = 77;
  Plan.Events.push_back({FaultKind::KillProcess, 200, 0});

  FaultedRun A(BoundedSpin, Plan);
  FaultedRun B(BoundedSpin, Plan);
  EXPECT_EQ(A.FI.firedLog(), B.FI.firedLog());
  EXPECT_EQ(A.S.D.world().slices(), B.S.D.world().slices());
  EXPECT_EQ(postMortemLines(A.S, 1), postMortemLines(B.S, 1))
      << "same (workload, plan) must reconstruct identically";
}

TEST(FaultInjectionTest, KillProcessRecoversGoldenPrefix) {
  // Golden, fault-free run.
  SingleProcess Golden{/*WithOracle=*/true};
  ASSERT_EQ(Golden.runModule(compileOrDie(BoundedSpin), true),
            World::RunResult::AllExited);
  std::vector<std::string> Want = oracleSequence(Golden.Oracle, 1);
  ASSERT_GT(Want.size(), 50u);

  FaultPlan Plan;
  Plan.Seed = 5;
  Plan.Events.push_back({FaultKind::KillProcess, 150, 0});
  FaultedRun R(BoundedSpin, Plan);
  ASSERT_TRUE(R.S.P->HardKilled);
  std::vector<std::string> Got = postMortemLines(R.S, 1);
  ASSERT_GT(Got.size(), 3u) << "sub-buffering must save data";
  EXPECT_TRUE(isPrefixWithSlack(Got, Want))
      << "recovered " << Got.size() << " lines, golden " << Want.size();
}

// ----------------------------------------------------------------------------
// Thread kill.
// ----------------------------------------------------------------------------

TEST(FaultInjectionTest, KillThreadMidDagProcessSurvives) {
  FaultPlan Plan;
  Plan.Seed = 3;
  Plan.Events.push_back({FaultKind::KillThread, 150, 0});
  FaultedRun R(TwoThreadSpin, Plan);

  // The worker died abruptly; main finished its loop, snapped, exited.
  EXPECT_EQ(R.Result, World::RunResult::AllExited);
  EXPECT_FALSE(R.S.P->HardKilled);
  EXPECT_TRUE(R.FI.allFired());
  Thread *Worker = R.S.P->findThread(2);
  ASSERT_NE(Worker, nullptr);
  EXPECT_TRUE(Worker->ExitedAbruptly);

  // The snap main took afterwards still recovers the dead worker's
  // history (the scavenger reclaims its buffer, section 3.4).
  ASSERT_FALSE(R.S.D.snaps().empty());
  ReconstructedTrace Trace = R.S.D.reconstruct(R.S.D.snaps().back());
  const ThreadTrace *WT = Trace.threadById(2);
  ASSERT_NE(WT, nullptr) << "dead worker's records must survive";
  std::vector<std::string> Got = lineSequence(*WT);
  ASSERT_GT(Got.size(), 3u);
  EXPECT_TRUE(isPrefixWithSlack(Got, oracleSequence(R.S.Oracle, 2)));
}

TEST(FaultInjectionTest, KillThreadEscalatesWhenSingleThreaded) {
  FaultPlan Plan;
  Plan.Seed = 9;
  Plan.Events.push_back({FaultKind::KillThread, 100, 0});
  FaultedRun R(BoundedSpin, Plan);
  // Only one live thread: thread death is process death.
  EXPECT_TRUE(R.S.P->HardKilled);
  EXPECT_TRUE(R.FI.allFired());
}

// ----------------------------------------------------------------------------
// Torn writes.
// ----------------------------------------------------------------------------

TEST(FaultInjectionTest, TornWriteZeroWordTruncatesRecovery) {
  FaultPlan Plan;
  Plan.Seed = 21;
  Plan.Events.push_back({FaultKind::TornWrite, 80, /*Mode=*/0});
  FaultedRun R(SpinThenSnap, Plan);
  EXPECT_EQ(R.Result, World::RunResult::AllExited);
  EXPECT_TRUE(R.FI.allFired()) << "no DAG word found to tear";

  ASSERT_FALSE(R.S.D.snaps().empty());
  ReconstructedTrace Trace = R.S.D.reconstruct(R.S.D.snaps().front());
  // The zero word mid-stream must surface as an explicit torn-write
  // diagnosis, not be silently skipped.
  bool SawTornWarning = false;
  for (const std::string &W : Trace.Warnings)
    if (W.find("torn write") != std::string::npos)
      SawTornWarning = true;
  bool SawMarker = false;
  for (const ThreadTrace &T : Trace.Threads)
    if (T.TruncatedAt != UINT64_MAX)
      SawMarker = true;
  EXPECT_TRUE(SawTornWarning);
  EXPECT_TRUE(SawMarker);
  // And what survives is still a golden prefix.
  const ThreadTrace *Main = Trace.threadById(1);
  ASSERT_NE(Main, nullptr);
  EXPECT_TRUE(isPrefixWithSlack(lineSequence(*Main),
                                oracleSequence(R.S.Oracle, 1)));
}

TEST(FaultInjectionTest, TornWriteGarbledWordDegradesGracefully) {
  FaultPlan Plan;
  Plan.Seed = 22;
  Plan.Events.push_back({FaultKind::TornWrite, 80, /*Mode=*/1});
  FaultedRun R(SpinThenSnap, Plan);
  EXPECT_EQ(R.Result, World::RunResult::AllExited);
  EXPECT_TRUE(R.FI.allFired());
  ASSERT_FALSE(R.S.D.snaps().empty());
  // A garbled (half-zeroed) word decodes as ext-header garbage: recovery
  // skips it with a warning and keeps the rest.
  ReconstructedTrace Trace = R.S.D.reconstruct(R.S.D.snaps().front());
  EXPECT_FALSE(Trace.Threads.empty());
  EXPECT_FALSE(Trace.Warnings.empty());
}

// ----------------------------------------------------------------------------
// Satellite: hand-built torn buffer regression (mid-stream zero word).
// ----------------------------------------------------------------------------

namespace {
SnapBufferImage buildBuffer(const std::vector<uint32_t> &DataWords,
                            uint32_t SubWords, uint32_t SubCount,
                            uint64_t Owner) {
  SnapBufferImage B;
  B.SubBufferWords = SubWords;
  B.SubBufferCount = SubCount;
  B.CommittedSubBuffer = UINT32_MAX;
  B.OwnerThread = Owner;
  B.RecordsBase = 0x1000;
  std::vector<uint32_t> Words(static_cast<size_t>(SubWords) * SubCount, 0);
  for (uint32_t S = 0; S < SubCount; ++S)
    Words[(S + 1ull) * SubWords - 1] = SentinelRecord;
  size_t Pos = 0;
  for (uint32_t W : DataWords) {
    while (Pos < Words.size() && Words[Pos] == SentinelRecord)
      ++Pos;
    if (Pos >= Words.size())
      break;
    Words[Pos++] = W;
  }
  B.Raw.resize(Words.size() * 4);
  for (size_t I = 0; I < Words.size(); ++I)
    for (int J = 0; J < 4; ++J)
      B.Raw[I * 4 + J] = static_cast<uint8_t>(Words[I] >> (J * 8));
  return B;
}
} // namespace

TEST(TornBufferRegressionTest, MidStreamZeroEndsValidData) {
  // threadStart(7), dag, ZERO, dag: the zero marks a torn write — the
  // record beyond it must be dropped, not recovered.
  std::vector<uint32_t> Data = encodeExtRecord(
      {ExtType::ThreadStart, 0, {7, 5}});
  Data.push_back(makeDagRecord(10));
  Data.push_back(InvalidRecord);
  Data.push_back(makeDagRecord(11));
  SnapBufferImage B = buildBuffer(Data, 32, 2, 7);
  SnapThreadInfo TI;
  TI.ThreadId = 7;
  TI.Cursor = 0x1000 + (Data.size() - 1) * 4;
  std::vector<std::string> Warnings;
  auto Segments = recoverBufferRecords(B, {TI}, Warnings);
  ASSERT_EQ(Segments.size(), 1u);
  // Only the start marker and the first dag survive.
  ASSERT_EQ(Segments[0].Records.size(), 2u);
  EXPECT_EQ(Segments[0].Records[1].DagWord, makeDagRecord(10));
  EXPECT_NE(Segments[0].TruncatedAt, SIZE_MAX);
  bool SawWarning = false;
  for (const std::string &W : Warnings)
    if (W.find("torn write") != std::string::npos)
      SawWarning = true;
  EXPECT_TRUE(SawWarning);
}

TEST(TornBufferRegressionTest, LeadingZerosAreStillBenign) {
  // The never-written remainder of the ring linearizes to a leading zero
  // run — that is normal operation, not a tear.
  std::vector<uint32_t> Data = encodeExtRecord(
      {ExtType::ThreadStart, 0, {7, 5}});
  Data.push_back(makeDagRecord(10));
  Data.push_back(makeDagRecord(11));
  SnapBufferImage B = buildBuffer(Data, 32, 2, 7);
  SnapThreadInfo TI;
  TI.ThreadId = 7;
  TI.Cursor = 0x1000 + (Data.size() - 1) * 4;
  std::vector<std::string> Warnings;
  auto Segments = recoverBufferRecords(B, {TI}, Warnings);
  ASSERT_EQ(Segments.size(), 1u);
  EXPECT_EQ(Segments[0].Records.size(), 3u);
  EXPECT_EQ(Segments[0].TruncatedAt, SIZE_MAX);
  EXPECT_TRUE(Warnings.empty()) << Warnings.front();
}

// ----------------------------------------------------------------------------
// Snap-plane faults.
// ----------------------------------------------------------------------------

TEST(FaultInjectionTest, CorruptSnapReconstructsWithoutCrashing) {
  FaultPlan Plan;
  Plan.Seed = 31;
  Plan.Events.push_back({FaultKind::SnapCorrupt, 0, 24});
  FaultedRun R(SpinThenSnap, Plan);
  EXPECT_TRUE(R.FI.allFired());
  ASSERT_FALSE(R.S.D.snaps().empty());
  // Reconstruction of the damaged image must degrade, never throw.
  ReconstructedTrace Trace = R.S.D.reconstruct(R.S.D.snaps().front());
  (void)Trace;
}

TEST(FaultInjectionTest, TruncatedSnapReconstructsWithoutCrashing) {
  FaultPlan Plan;
  Plan.Seed = 32;
  Plan.Events.push_back({FaultKind::SnapTruncate, 0, 0});
  FaultedRun R(SpinThenSnap, Plan);
  EXPECT_TRUE(R.FI.allFired());
  ASSERT_FALSE(R.S.D.snaps().empty());
  ReconstructedTrace Trace = R.S.D.reconstruct(R.S.D.snaps().front());
  (void)Trace;
}

TEST(FaultInjectionTest, CorruptSnapSerializesToItsDamagedRaw) {
  // Capture pre-encodes each ring with never-written hints before the
  // injector runs; the injector drops the stream of every ring it
  // damages, so the serialized snap must decode to the damaged bytes —
  // flips into never-written pages included — never to the clean ones.
  FaultPlan Plan;
  Plan.Seed = 33;
  Plan.Events.push_back({FaultKind::SnapCorrupt, 0, 48});
  FaultedRun R(SpinThenSnap, Plan);
  EXPECT_TRUE(R.FI.allFired());
  ASSERT_FALSE(R.S.D.snaps().empty());
  const SnapFile &Snap = R.S.D.snaps().front();

  SnapFile Back;
  ASSERT_TRUE(SnapFile::deserialize(Snap.serialize(), Back));
  ASSERT_EQ(Back.Buffers.size(), Snap.Buffers.size());
  size_t Damaged = 0, FlipsInNeverWritten = 0;
  for (size_t I = 0; I < Snap.Buffers.size(); ++I) {
    const SnapBufferImage &B = Snap.Buffers[I];
    EXPECT_EQ(Back.Buffers[I].Raw, B.Raw) << "buffer " << I;
    Damaged += B.Encoded.empty();
    // Guest pages still never written now were zero at capture: a
    // non-zero captured byte there is a flip.
    std::vector<uint8_t> Live;
    std::vector<ZeroRange> Never;
    R.S.P->Mem.readInto(B.RecordsBase, B.Raw.size(), Live, &Never);
    for (const ZeroRange &Z : Never)
      for (size_t K = Z.Begin; K < Z.End; ++K)
        FlipsInNeverWritten += B.Raw[K] != 0;
  }
  EXPECT_GT(Damaged, 0u);
  EXPECT_GT(FlipsInNeverWritten, 0u);
}

// ----------------------------------------------------------------------------
// RPC wire faults.
// ----------------------------------------------------------------------------

namespace {
struct TwoMachines {
  Deployment D;
  Machine *MA, *MB;
  Process *Client, *Server;

  TwoMachines() {
    MA = D.addMachine("alpha", "winnt");
    MB = D.addMachine("beta", "solaris", 100000);
    Client = MA->createProcess("client");
    Server = MB->createProcess("server");
  }

  void deployAll() {
    static const char *EchoServer = R"(
fn main() export {
  srv_register(40);
  var buf = alloc(64);
  var lenp = alloc(8);
  while (1) {
    var id = rpc_recv(buf, 64, lenp);
    store(buf, load(buf) * 10);
    rpc_reply(id, buf, 8);
  }
}
)";
    static const char *OneShotClient = R"(
fn main() export {
  var arg = alloc(8);
  var rep = alloc(1024);
  store(arg, 4);
  var status = rpc(40, arg, 8, rep);
  print(status);
  print(load(rep));
  snap(1);
}
)";
    std::string Error;
    Module CM = compileOrDie(OneShotClient, "climod", Technology::Native,
                             "client.ml");
    Module SM = compileOrDie(EchoServer, "srvmod", Technology::Native,
                             "server.ml");
    ASSERT_NE(D.deploy(*Client, CM, true, Error), nullptr) << Error;
    ASSERT_NE(D.deploy(*Server, SM, true, Error), nullptr) << Error;
  }

  void run() {
    Server->start("main");
    for (int I = 0; I < 10; ++I)
      D.world().stepSlice();
    Client->start("main");
    while (!Client->Exited && D.world().cycles() < 50'000'000)
      D.world().stepSlice();
  }

  std::vector<std::pair<uint64_t, SyncKind>> serverSyncs() {
    TracebackRuntime *RT = D.runtimeFor(*Server, Technology::Native);
    SnapFile S = *RT->takeSnap(SnapReason::External, 0);
    ReconstructedTrace T = D.reconstruct(S);
    std::vector<std::pair<uint64_t, SyncKind>> Out;
    for (const ThreadTrace &Th : T.Threads)
      for (const TraceEvent &E : Th.Events)
        if (E.EventKind == TraceEvent::Kind::Sync)
          Out.push_back({E.Sequence, E.Sync});
    std::sort(Out.begin(), Out.end());
    return Out;
  }

  std::vector<std::pair<uint64_t, SyncKind>> clientSyncs() {
    std::vector<std::pair<uint64_t, SyncKind>> Out;
    for (const SnapFile &S : D.snaps()) {
      if (S.ProcessName != "client")
        continue;
      ReconstructedTrace T = D.reconstruct(S);
      for (const ThreadTrace &Th : T.Threads)
        for (const TraceEvent &E : Th.Events)
          if (E.EventKind == TraceEvent::Kind::Sync)
            Out.push_back({E.Sequence, E.Sync});
    }
    std::sort(Out.begin(), Out.end());
    // The client snaps twice (snap(1) + process exit); both images carry
    // the same sync records, so collapse the duplicates.
    Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
    return Out;
  }
};
} // namespace

TEST(RpcFaultTest, DroppedWireLeavesServerUnbound) {
  FaultPlan Plan;
  Plan.Seed = 51;
  Plan.Events.push_back({FaultKind::RpcDropWire, 0, 0});
  FaultInjector FI(Plan);
  TwoMachines T;
  T.D.world().Injector = &FI;
  T.deployAll();
  T.run();
  // The payload still flows — only the TraceBack triple was lost.
  EXPECT_EQ(T.Client->Output, "0\n40\n");
  EXPECT_TRUE(FI.allFired());

  // Server never saw the wire: no CallRecv, no sync records at all.
  EXPECT_TRUE(T.serverSyncs().empty());
  // The client still holds its own half of the chain.
  auto CS = T.clientSyncs();
  ASSERT_EQ(CS.size(), 2u);
  EXPECT_EQ(CS[0].second, SyncKind::CallSend);
  EXPECT_EQ(CS[1].second, SyncKind::ReplyRecv);
}

TEST(RpcFaultTest, DuplicatedWireRecordsTwoCallRecvs) {
  FaultPlan Plan;
  Plan.Seed = 52;
  Plan.Events.push_back({FaultKind::RpcDupWire, 0, 0});
  FaultInjector FI(Plan);
  TwoMachines T;
  T.D.world().Injector = &FI;
  T.deployAll();
  T.run();
  EXPECT_EQ(T.Client->Output, "0\n40\n");
  EXPECT_TRUE(FI.allFired());

  auto SS = T.serverSyncs();
  size_t CallRecvs = 0;
  for (auto &[Seq, Kind] : SS)
    if (Kind == SyncKind::CallRecv)
      ++CallRecvs;
  EXPECT_EQ(CallRecvs, 2u) << "duplicated wire must record twice";
}

// ----------------------------------------------------------------------------
// Module unload racing a snap.
// ----------------------------------------------------------------------------

TEST(FaultInjectionTest, UnloadRaceSnapStillAttributesRecords) {
  FaultPlan Plan;
  Plan.Seed = 61;
  Plan.Events.push_back({FaultKind::UnloadRace, 120, 0});
  FaultedRun R(BoundedSpin, Plan);
  EXPECT_TRUE(R.FI.allFired());

  // The injector unloaded the module and immediately requested a snap.
  ASSERT_FALSE(R.S.D.snaps().empty());
  const SnapFile &Snap = R.S.D.snaps().front();
  bool SawUnloaded = false;
  for (const SnapModuleInfo &M : Snap.Modules)
    if (M.Unloaded)
      SawUnloaded = true;
  EXPECT_TRUE(SawUnloaded) << "snap raced the unload";

  // Stale records of the unloaded module must still attribute by name.
  ReconstructedTrace Trace = R.S.D.reconstruct(Snap);
  const ThreadTrace *Main = Trace.threadById(1);
  ASSERT_NE(Main, nullptr);
  std::vector<std::string> Got = lineSequence(*Main);
  ASSERT_GT(Got.size(), 3u);
  EXPECT_TRUE(isPrefixWithSlack(Got, oracleSequence(R.S.Oracle, 1)));
}

// ----------------------------------------------------------------------------
// Satellite: DAG-ID rebasing across unload + reload with a different base.
// ----------------------------------------------------------------------------

TEST(DagRebaseTest, SnapWhileUnloadedThenReloadWithDifferentBase) {
  SingleProcess S;
  Module A = compileOrDie("fn fa() export { return 1; }\n"
                          "fn main() export { fa(); snap(1); }",
                          "moda");
  Module B = compileOrDie("fn fb(x) export { return x + 2; }", "modb");
  InstrumentOptions Opts;
  Opts.DagIdBase = 5000; // Force a collision: moda must be rebased.
  std::string Error;
  ASSERT_NE(S.D.deploy(*S.P, B, true, Opts, Error), nullptr) << Error;
  ASSERT_NE(S.D.deploy(*S.P, A, true, Opts, Error), nullptr) << Error;
  LoadedModule *LA = S.P->findModule("moda");
  ASSERT_NE(LA, nullptr);
  uint32_t RebasedBase = LA->Mod.DagIdBase;
  ASSERT_NE(RebasedBase, 5000u) << "collision must rebase";

  // Execute moda so its (rebased) records land in the buffer.
  S.P->start("main");
  ASSERT_EQ(S.D.world().run(), World::RunResult::AllExited);

  // Unload moda, then snap while it is unloaded: its stale records must
  // still reconstruct via the snap's unloaded-module metadata.
  ASSERT_TRUE(S.P->unloadModule("moda"));
  TracebackRuntime *RT = S.D.runtimeFor(*S.P, Technology::Native);
  ASSERT_NE(RT, nullptr);
  SnapFile WhileUnloaded = *RT->takeSnap(SnapReason::External, 0);
  bool HasUnloadedModA = false;
  for (const SnapModuleInfo &M : WhileUnloaded.Modules)
    if (M.Name == "moda" && M.Unloaded && M.DagIdBase == RebasedBase)
      HasUnloadedModA = true;
  EXPECT_TRUE(HasUnloadedModA);
  ReconstructedTrace T1 = S.D.reconstruct(WhileUnloaded);
  bool SawA = false;
  for (const ThreadTrace &Th : T1.Threads)
    for (const TraceEvent &E : Th.Events)
      if (E.EventKind == TraceEvent::Kind::Line && E.Module == "moda")
        SawA = true;
  EXPECT_TRUE(SawA) << "records of the unloaded module must attribute";

  // Reload moda instrumented with a *different* requested base: the fixup
  // path must land it on a usable, non-overlapping range.
  InstrumentOptions Opts2;
  Opts2.DagIdBase = 9000;
  Module InstrA;
  ASSERT_TRUE(S.D.instrumentOnly(A, Opts2, InstrA, Error)) << Error;
  LoadedModule *Reloaded = S.P->loadModule(InstrA, Error);
  ASSERT_NE(Reloaded, nullptr) << Error;
  EXPECT_NE(Reloaded->Mod.DagIdBase, BadDagId);
  // No overlap with modb's live range.
  LoadedModule *LB = S.P->findModule("modb");
  ASSERT_NE(LB, nullptr);
  EXPECT_TRUE(Reloaded->Mod.DagIdBase >=
                  LB->Mod.DagIdBase + LB->Mod.DagIdCount ||
              LB->Mod.DagIdBase >=
                  Reloaded->Mod.DagIdBase + Reloaded->Mod.DagIdCount);

  // The pre-unload records in the buffer still carry the OLD rebased ids.
  // A snap taken now lists both generations of moda; whichever base the
  // reload landed on, those stale records must keep attributing.
  SnapFile After = *RT->takeSnap(SnapReason::External, 0);
  ReconstructedTrace T2 = S.D.reconstruct(After);
  bool SawA2 = false;
  for (const ThreadTrace &Th : T2.Threads)
    for (const TraceEvent &E : Th.Events)
      if (E.EventKind == TraceEvent::Kind::Line && E.Module == "moda")
        SawA2 = true;
  EXPECT_TRUE(SawA2)
      << "records from before the unload must survive the reload";
}
