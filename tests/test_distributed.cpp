//===- tests/test_distributed.cpp - Distributed tracing tests -------------===//
//
// Part of the TraceBack reproduction project (paper section 5).
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "core/FileIO.h"
#include "reconstruct/Stitch.h"
#include "triage/Signature.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <tuple>

using namespace traceback;
using namespace traceback::testing_helpers;

namespace {
/// Client on machine A calls service 40 on machine B; the server's clock
/// is skewed ahead by `Skew` cycles.
struct TwoMachines {
  Deployment D;
  Machine *MA, *MB;
  Process *Client, *Server;

  explicit TwoMachines(int64_t Skew = 100000) {
    MA = D.addMachine("alpha", "winnt");
    MB = D.addMachine("beta", "solaris", Skew);
    Client = MA->createProcess("client");
    Server = MB->createProcess("server");
  }

  void deployAll(const std::string &ClientSrc, const std::string &ServerSrc) {
    std::string Error;
    Module CM = compileOrDie(ClientSrc, "climod", Technology::Native,
                             "client.ml");
    Module SM = compileOrDie(ServerSrc, "srvmod", Technology::Native,
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
};

const char *EchoServer = R"(
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

const char *OneShotClient = R"(
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
} // namespace

TEST(DistributedTest, SyncRecordsFormCausalChain) {
  TwoMachines T;
  T.deployAll(OneShotClient, EchoServer);
  T.run();
  EXPECT_EQ(T.Client->Output, "0\n40\n");

  // The client's API snap and the server snap (taken via its runtime).
  ASSERT_FALSE(T.D.snaps().empty());
  TracebackRuntime *SrvRT = T.D.runtimeFor(*T.Server, Technology::Native);
  SnapFile SrvSnap = *SrvRT->takeSnap(SnapReason::External, 0);
  const SnapFile *CliSnap = nullptr;
  for (const SnapFile &S : T.D.snaps())
    if (S.ProcessName == "client")
      CliSnap = &S;
  ASSERT_NE(CliSnap, nullptr);

  ReconstructedTrace CT = T.D.reconstruct(*CliSnap);
  ReconstructedTrace ST = T.D.reconstruct(SrvSnap);
  ASSERT_FALSE(CT.Threads.empty());
  ASSERT_FALSE(ST.Threads.empty());

  // Collect sync events: client must hold CallSend+ReplyRecv (seq 1, 4),
  // server CallRecv+ReplySend (seq 2, 3), all on one logical thread.
  std::map<uint64_t, std::vector<std::pair<uint64_t, SyncKind>>> ByLogical;
  auto Collect = [&](const ReconstructedTrace &T2) {
    for (const ThreadTrace &Th : T2.Threads)
      for (const TraceEvent &E : Th.Events)
        if (E.EventKind == TraceEvent::Kind::Sync)
          ByLogical[E.LogicalThreadId].push_back({E.Sequence, E.Sync});
  };
  Collect(CT);
  Collect(ST);
  ASSERT_EQ(ByLogical.size(), 1u) << "one RPC, one logical thread";
  auto &Chain = ByLogical.begin()->second;
  std::sort(Chain.begin(), Chain.end());
  ASSERT_EQ(Chain.size(), 4u);
  EXPECT_EQ(Chain[0], (std::pair<uint64_t, SyncKind>{1, SyncKind::CallSend}));
  EXPECT_EQ(Chain[1], (std::pair<uint64_t, SyncKind>{2, SyncKind::CallRecv}));
  EXPECT_EQ(Chain[2],
            (std::pair<uint64_t, SyncKind>{3, SyncKind::ReplySend}));
  EXPECT_EQ(Chain[3],
            (std::pair<uint64_t, SyncKind>{4, SyncKind::ReplyRecv}));
}

TEST(DistributedTest, StitcherFusesLogicalThread) {
  TwoMachines T;
  T.deployAll(OneShotClient, EchoServer);
  T.run();
  TracebackRuntime *SrvRT = T.D.runtimeFor(*T.Server, Technology::Native);
  SnapFile SrvSnap = *SrvRT->takeSnap(SnapReason::External, 0);
  ReconstructedTrace CT, ST;
  for (const SnapFile &S : T.D.snaps())
    if (S.ProcessName == "client")
      CT = T.D.reconstruct(S);
  ST = T.D.reconstruct(SrvSnap);

  DistributedStitcher Stitcher;
  Stitcher.addTrace(CT);
  Stitcher.addTrace(ST);
  std::vector<std::string> Warnings;
  std::vector<LogicalThread> Logical = Stitcher.stitch(Warnings);
  ASSERT_EQ(Logical.size(), 1u);
  const LogicalThread &LT = Logical[0];
  ASSERT_GE(LT.Segments.size(), 3u)
      << "client prologue, server body, client epilogue";
  // Machine hop: first segment on alpha, a middle one on beta.
  EXPECT_EQ(LT.Segments.front().Trace->MachineName, "alpha");
  bool OnBeta = false;
  for (const LogicalSegment &Seg : LT.Segments)
    if (Seg.Trace->MachineName == "beta")
      OnBeta = true;
  EXPECT_TRUE(OnBeta);
  // Rendering mentions both machines.
  std::string View = renderLogicalThread(LT);
  EXPECT_NE(View.find("alpha"), std::string::npos);
  EXPECT_NE(View.find("beta"), std::string::npos);
}

TEST(DistributedTest, ClockSkewEstimatedFromSyncs) {
  const int64_t Skew = 250000;
  TwoMachines T(Skew);
  T.deployAll(OneShotClient, EchoServer);
  T.run();
  TracebackRuntime *SrvRT = T.D.runtimeFor(*T.Server, Technology::Native);
  SnapFile SrvSnap = *SrvRT->takeSnap(SnapReason::External, 0);
  ReconstructedTrace CT, ST;
  for (const SnapFile &S : T.D.snaps())
    if (S.ProcessName == "client")
      CT = T.D.reconstruct(S);
  ST = T.D.reconstruct(SrvSnap);
  DistributedStitcher Stitcher;
  Stitcher.addTrace(CT);
  Stitcher.addTrace(ST);
  auto Offsets = Stitcher.estimateClockOffsets();
  ASSERT_EQ(Offsets.size(), 2u);
  // One runtime is the reference (offset 0); the other's offset must be
  // within RPC latency of the true skew.
  int64_t MaxOff = 0;
  for (auto &[Id, Off] : Offsets)
    MaxOff = std::max(MaxOff, std::abs(Off));
  EXPECT_NEAR(static_cast<double>(MaxOff), static_cast<double>(Skew),
              static_cast<double>(Skew) * 0.2 + 20000.0);
}

TEST(DistributedTest, CrossLanguageJniStyle) {
  // Managed module calls a native module in the same process; the two
  // runtimes' buffers must stitch into one logical thread.
  SingleProcess S;
  Module Native = compileOrDie(R"(
fn nativework(x) export {
  var y = x * 2;
  return y + 1;
}
)",
                               "nativemod", Technology::Native, "native.ml");
  Module Managed = compileOrDie(R"(
import nativework;
fn main() export {
  var r = nativework(20);
  print(r);
  snap(1);
}
)",
                                "managedmod", Technology::Managed,
                                "managed.ml");
  std::string Error;
  ASSERT_NE(S.D.deploy(*S.P, Native, true, Error), nullptr) << Error;
  ASSERT_NE(S.D.deploy(*S.P, Managed, true, Error), nullptr) << Error;
  S.P->start("main");
  EXPECT_EQ(S.D.world().run(), World::RunResult::AllExited);
  EXPECT_EQ(S.P->Output, "41\n");

  // The managed runtime snapped via the API; also snap the native side.
  TracebackRuntime *NativeRT = S.D.runtimeFor(*S.P, Technology::Native);
  TracebackRuntime *ManagedRT = S.D.runtimeFor(*S.P, Technology::Managed);
  ASSERT_NE(NativeRT, ManagedRT);
  SnapFile NativeSnap = *NativeRT->takeSnap(SnapReason::External, 0);
  const SnapFile *ManagedSnap = nullptr;
  for (const SnapFile &Snap : S.D.snaps())
    if (Snap.Tech == Technology::Managed)
      ManagedSnap = &Snap;
  ASSERT_NE(ManagedSnap, nullptr);

  ReconstructedTrace MT = S.D.reconstruct(*ManagedSnap);
  ReconstructedTrace NT = S.D.reconstruct(NativeSnap);
  ASSERT_FALSE(MT.Threads.empty()) << "managed trace missing";
  ASSERT_FALSE(NT.Threads.empty()) << "native trace missing";

  DistributedStitcher Stitcher;
  Stitcher.addTrace(MT);
  Stitcher.addTrace(NT);
  std::vector<std::string> Warnings;
  std::vector<LogicalThread> Logical = Stitcher.stitch(Warnings);
  ASSERT_EQ(Logical.size(), 1u);
  // The fused view interleaves managed and native lines.
  std::string View = renderLogicalThread(Logical[0]);
  EXPECT_NE(View.find("managed.ml"), std::string::npos) << View;
  EXPECT_NE(View.find("native.ml"), std::string::npos) << View;
}

TEST(DistributedTest, GroupSnapAcrossMachines) {
  // A fault in the client must trigger a group snap of the server.
  TwoMachines T;
  T.deployAll(R"(
fn main() export {
  var arg = alloc(8);
  var rep = alloc(1024);
  rpc(40, arg, 8, rep);
  var p = 0;
  print(load(p));    // crash after the RPC
}
)",
              EchoServer);
  T.run();
  bool ClientCrashSnap = false, ServerPeerSnap = false;
  for (const SnapFile &S : T.D.snaps()) {
    if (S.ProcessName == "client" && (S.Reason == SnapReason::Exception ||
                                      S.Reason == SnapReason::Unhandled))
      ClientCrashSnap = true;
    if (S.ProcessName == "server" && S.Reason == SnapReason::GroupPeer)
      ServerPeerSnap = true;
  }
  EXPECT_TRUE(ClientCrashSnap);
  EXPECT_TRUE(ServerPeerSnap)
      << "service daemons must coordinate the group snap";
}

namespace {

/// Hand-builds one physical thread holding only SYNC records — the
/// minimal input estimateClockOffsets consumes, with every timestamp
/// under the test's control.
ThreadTrace
syncOnlyThread(uint64_t RuntimeId, const std::string &MachineName,
               std::vector<std::tuple<SyncKind, uint64_t, uint64_t>> Syncs) {
  ThreadTrace T;
  T.RuntimeId = RuntimeId;
  T.ThreadId = RuntimeId;
  T.ProcessName = "p";
  T.MachineName = MachineName;
  for (auto &[Kind, Seq, Ts] : Syncs) {
    TraceEvent E;
    E.EventKind = TraceEvent::Kind::Sync;
    E.Sync = Kind;
    E.LogicalThreadId = 7;
    E.Sequence = Seq;
    E.Timestamp = Ts;
    T.Events.push_back(E);
  }
  return T;
}

} // namespace

TEST(ClockOffsetTest, AsymmetricLatencyAveragesOut) {
  // One RPC between runtime 1 (reference) and runtime 2 whose clock runs
  // Skew ahead. Request latency and reply latency differ, so each leg's
  // sample is off by its own latency; NTP-style averaging cancels the
  // symmetric part and leaves Skew + (FwdLat - RevLat) / 2 exactly.
  const int64_t Skew = 50000, FwdLat = 400, RevLat = 100;
  ReconstructedTrace Client, Server;
  Client.Threads.push_back(syncOnlyThread(
      1, "alpha",
      {{SyncKind::CallSend, 1, 1000},
       {SyncKind::ReplyRecv, 4, static_cast<uint64_t>(1600 + RevLat)}}));
  Server.Threads.push_back(syncOnlyThread(
      2, "beta",
      {{SyncKind::CallRecv, 2, static_cast<uint64_t>(1000 + FwdLat + Skew)},
       {SyncKind::ReplySend, 3, static_cast<uint64_t>(1600 + Skew)}}));
  DistributedStitcher Stitcher;
  Stitcher.addTrace(Client);
  Stitcher.addTrace(Server);
  auto Offsets = Stitcher.estimateClockOffsets();
  ASSERT_EQ(Offsets.size(), 2u);
  EXPECT_EQ(Offsets.at(1), 0) << "first-seen runtime is the reference";
  EXPECT_EQ(Offsets.at(2), Skew + (FwdLat - RevLat) / 2);
}

TEST(ClockOffsetTest, SymmetricLatencyRecoversSkewExactly) {
  const int64_t Skew = 123456, Lat = 300;
  ReconstructedTrace Client, Server;
  Client.Threads.push_back(syncOnlyThread(
      1, "alpha",
      {{SyncKind::CallSend, 1, 5000},
       {SyncKind::ReplyRecv, 4, static_cast<uint64_t>(9000 + Lat)}}));
  Server.Threads.push_back(syncOnlyThread(
      2, "beta",
      {{SyncKind::CallRecv, 2, static_cast<uint64_t>(5000 + Lat + Skew)},
       {SyncKind::ReplySend, 3, static_cast<uint64_t>(9000 + Skew)}}));
  DistributedStitcher Stitcher;
  Stitcher.addTrace(Client);
  Stitcher.addTrace(Server);
  auto Offsets = Stitcher.estimateClockOffsets();
  ASSERT_EQ(Offsets.size(), 2u);
  EXPECT_EQ(Offsets.at(2), Skew);
}

TEST(ClockOffsetTest, RuntimeWithoutSyncEdgesIsAbsent) {
  // Runtime 3 recorded no SYNC pair with anyone: no sample can place its
  // clock, so it must be absent from the map rather than guessed at 0.
  ReconstructedTrace Client, Server, Loner;
  Client.Threads.push_back(syncOnlyThread(
      1, "alpha",
      {{SyncKind::CallSend, 1, 1000}, {SyncKind::ReplyRecv, 4, 2000}}));
  Server.Threads.push_back(syncOnlyThread(
      2, "beta",
      {{SyncKind::CallRecv, 2, 1500}, {SyncKind::ReplySend, 3, 1800}}));
  Loner.Threads.push_back(syncOnlyThread(3, "gamma", {}));
  DistributedStitcher Stitcher;
  Stitcher.addTrace(Client);
  Stitcher.addTrace(Server);
  Stitcher.addTrace(Loner);
  auto Offsets = Stitcher.estimateClockOffsets();
  EXPECT_EQ(Offsets.count(1), 1u);
  EXPECT_EQ(Offsets.count(2), 1u);
  EXPECT_EQ(Offsets.count(3), 0u)
      << "unreachable runtimes must not get a fabricated offset";
}

TEST(ClockOffsetTest, ZeroTimestampSamplesAreSkipped) {
  // A truncated ring can zero a SYNC timestamp; such a pair is unusable
  // and must not poison the estimate with a wild sample.
  const int64_t Skew = 7000;
  ReconstructedTrace Client, Server;
  Client.Threads.push_back(syncOnlyThread(
      1, "alpha",
      {{SyncKind::CallSend, 1, 0}, // Lost timestamp: pair unusable.
       {SyncKind::ReplyRecv, 4, 2000}}));
  Server.Threads.push_back(syncOnlyThread(
      2, "beta",
      {{SyncKind::CallRecv, 2, 999999},
       {SyncKind::ReplySend, 3, static_cast<uint64_t>(2000 + Skew)}}));
  DistributedStitcher Stitcher;
  Stitcher.addTrace(Client);
  Stitcher.addTrace(Server);
  auto Offsets = Stitcher.estimateClockOffsets();
  // Only the reply-leg sample survives: offset = t3 - t4 = Skew with the
  // (zero) reverse latency this hand-built pair encodes.
  ASSERT_EQ(Offsets.count(2), 1u);
  EXPECT_EQ(Offsets.at(2), Skew);
}

TEST(DistributedTest, MissingPeerProducesUpfrontAndGapWarnings) {
  // A partial group snap: the stitcher is told 'beta' is absent, and one
  // trace has a sequence gap (records that lived on the missing peer).
  ReconstructedTrace Partial;
  Partial.Threads.push_back(syncOnlyThread(
      1, "alpha",
      {{SyncKind::CallSend, 1, 1000}, {SyncKind::ReplyRecv, 4, 2000}}));
  DistributedStitcher Stitcher;
  Stitcher.addTrace(Partial);
  Stitcher.noteMissingPeer("beta");
  Stitcher.noteMissingPeer("beta"); // Duplicate names collapse.
  ASSERT_EQ(Stitcher.missingPeers().size(), 1u);
  std::vector<std::string> Warnings;
  (void)Stitcher.stitch(Warnings);
  ASSERT_GE(Warnings.size(), 2u);
  EXPECT_NE(Warnings[0].find("partial group snap"), std::string::npos);
  EXPECT_NE(Warnings[0].find("beta"), std::string::npos);
  // The seq 1 -> 4 gap is attributed to the missing peer.
  bool GapExplained = false;
  for (const std::string &W : Warnings)
    if (W.find("sequence gap") != std::string::npos &&
        W.find("a group-snap peer is missing") != std::string::npos)
      GapExplained = true;
  EXPECT_TRUE(GapExplained) << "gap warnings must mention the absent peer";
}

TEST(GoldenStitchTest, StitchedRenderMatchesFixture) {
  // The deterministic two-machine echo scenario, stitched and rendered.
  // Guards the SYNC matching, segment layout and rendering against drift;
  // regenerate deliberately with TRACEBACK_REGEN_GOLDEN=1 and review.
  const std::string Path =
      std::string(TB_TESTS_DIR) + "/golden/stitch_fixture.txt";

  TwoMachines T;
  T.deployAll(OneShotClient, EchoServer);
  if (::testing::Test::HasFatalFailure())
    return;
  T.run();
  ASSERT_EQ(T.Client->Output, "0\n40\n");
  TracebackRuntime *SrvRT = T.D.runtimeFor(*T.Server, Technology::Native);
  SnapFile SrvSnap = *SrvRT->takeSnap(SnapReason::External, 0);
  ReconstructedTrace CT, ST;
  for (const SnapFile &S : T.D.snaps())
    if (S.ProcessName == "client")
      CT = T.D.reconstruct(S);
  ST = T.D.reconstruct(SrvSnap);
  DistributedStitcher Stitcher;
  Stitcher.addTrace(CT);
  Stitcher.addTrace(ST);
  std::vector<std::string> Warnings;
  std::string Rendered;
  for (const LogicalThread &LT : Stitcher.stitch(Warnings))
    Rendered += renderLogicalThread(LT);
  for (const std::string &W : Warnings)
    Rendered += "warning: " + W + "\n";
  ASSERT_FALSE(Rendered.empty());

  if (std::getenv("TRACEBACK_REGEN_GOLDEN")) {
    ASSERT_TRUE(writeFileText(Path, Rendered)) << Path;
    GTEST_SKIP() << "regenerated golden stitch fixture " << Path;
  }
  std::string Expected;
  ASSERT_TRUE(readFileText(Path, Expected))
      << "missing fixture " << Path
      << " — regenerate with TRACEBACK_REGEN_GOLDEN=1";
  EXPECT_EQ(Rendered, Expected)
      << "stitched rendering drifted from the golden fixture";
}

TEST(DistributedTest, HangDetectionViaHeartbeat) {
  SingleProcess S;
  Module M = compileOrDie(R"(
fn main() export {
  lock(1);
  var t = spawn(addr_of(other), 0);
  sleep(100);
  lock(2);
}
fn other(x) {
  lock(2);
  sleep(2000);
  lock(1);
  return 0;
}
)");
  std::string Error;
  ASSERT_NE(S.D.deploy(*S.P, M, true, Error), nullptr) << Error;
  S.P->start("main");
  World::RunResult R = S.D.world().run(5'000'000);
  EXPECT_EQ(R, World::RunResult::Idle) << "deadlock expected";
  ServiceDaemon *Daemon = S.D.daemonFor(*S.M);
  ASSERT_NE(Daemon, nullptr);
  Daemon->sampleHeartbeats();
  // No progress is possible; the daemon flags the process as hung.
  EXPECT_EQ(Daemon->detectHangs().size(), 1u);
  EXPECT_EQ(Daemon->snapHungProcesses(), 1u);
  ASSERT_FALSE(S.D.snaps().empty());
  const SnapFile &Snap = S.D.snaps().back();
  EXPECT_EQ(Snap.Reason, SnapReason::Hang);
  // Fault view: one line per thread.
  ReconstructedTrace T = S.D.reconstruct(Snap);
  std::string View = renderFaultView(Snap, T);
  EXPECT_NE(View.find("hang"), std::string::npos);
  EXPECT_NE(View.find("thread 1"), std::string::npos);
  EXPECT_NE(View.find("thread 2"), std::string::npos);
}

// ----------------------------------------------------------------------------
// Triage: the MISSING-PEER marker of a partial group snap must normalize
// to one signature no matter which peer the partition cut off.
// ----------------------------------------------------------------------------

namespace {

/// Runs the partitioned group-snap scenario over the real network
/// transport with the absent peer's identity (machine name, OS, machine
/// id, clock skew) varied, and returns the MISSING-PEER marker the
/// client-side daemon emitted when its GroupSnapRequest went unanswered.
SnapFile partitionedGroupSnapMarker(const char *PeerName, const char *PeerOs,
                                    bool ExtraMachine, int64_t PeerSkew) {
  Deployment D;
  Machine *MA = D.addMachine("alpha", "winnt");
  if (ExtraMachine)
    D.addMachine("filler", "linux"); // Shifts the peer's machine id.
  Machine *MB = D.addMachine(PeerName, PeerOs, PeerSkew);
  D.enableNetworkTransport();
  Process *Client = MA->createProcess("client");
  Process *Server = MB->createProcess("server");
  Module CM = compileOrDie(OneShotClient, "climod", Technology::Native,
                           "client.ml");
  Module SM = compileOrDie(EchoServer, "srvmod", Technology::Native,
                           "server.ml");
  std::string Error;
  EXPECT_NE(D.deploy(*Client, CM, true, Error), nullptr) << Error;
  EXPECT_NE(D.deploy(*Server, SM, true, Error), nullptr) << Error;
  // Cut only the snap-transport fabric; guest RPC rides its own plane,
  // so the client still completes its call before snapping.
  D.world().netSetPartitioned(MA->Id, MB->Id, true);
  Server->start("main");
  for (int I = 0; I < 10; ++I)
    D.world().stepSlice();
  Client->start("main");
  while (!Client->Exited && D.world().cycles() < 50'000'000)
    D.world().stepSlice();
  EXPECT_TRUE(Client->Exited);
  EXPECT_TRUE(D.pumpNetwork()) << "a partition must degrade, not hang";
  for (const SnapFile &S : D.snaps())
    if (S.Reason == SnapReason::MissingPeer)
      return S;
  ADD_FAILURE() << "no MISSING-PEER marker emitted for absent peer "
                << PeerName;
  return SnapFile();
}

} // namespace

TEST(DistributedTest, MissingPeerSignatureStableAcrossPeers) {
  // Two partial group snaps, each missing a *different* peer: distinct
  // machine name, OS, machine id and clock skew. Triage must fold both
  // into one signature — "a peer was missing from the group snap" is the
  // fault; which peer is incident detail, or every partition would open
  // a fresh cluster per absent machine.
  SnapFile A = partitionedGroupSnapMarker("beta", "solaris",
                                          /*ExtraMachine=*/false, 100000);
  SnapFile B = partitionedGroupSnapMarker("gamma", "linux",
                                          /*ExtraMachine=*/true, 250000);
  ASSERT_EQ(A.Reason, SnapReason::MissingPeer);
  ASSERT_EQ(B.Reason, SnapReason::MissingPeer);
  ASSERT_NE(A.MachineName, B.MachineName);
  ASSERT_NE(A.ReasonDetail, B.ReasonDetail)
      << "the scenario must vary the absent peer's machine id";

  FaultSignature SA = extractSignature(A);
  FaultSignature SB = extractSignature(B);
  EXPECT_EQ(SA, SB)
      << "marker signatures must not depend on which peer was absent";
  EXPECT_EQ(SA.fingerprint(), SB.fingerprint());
  EXPECT_EQ(SA.canonicalText(), SB.canonicalText());
  EXPECT_EQ(SA.Kind, "missing-peer");
  EXPECT_EQ(SA.Markers, std::vector<std::string>{"missing-peer"});
  EXPECT_TRUE(SA.Path.empty()) << "marker snaps carry no trace buffers";
}
