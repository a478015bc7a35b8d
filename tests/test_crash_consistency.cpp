//===- tests/test_crash_consistency.cpp - Survivability property ----------===//
//
// Part of the TraceBack reproduction project.
//
// The paper's central survivability claim (sections 3.1-3.2), checked
// mechanically: whatever slice a process is killed at, the trace recovered
// from the surviving buffers is a PREFIX of the fault-free golden trace.
// Because the VM and the injector are both deterministic, every seed below
// is replayable: TRACEBACK_TEST_SEED=<seed> reruns the exact failure.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "replay/Recorder.h"
#include "replay/ReplayDriver.h"
#include "triage/Clusterer.h"
#include "vm/FaultInjector.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace traceback;
using namespace traceback::testing_helpers;

namespace {

/// Bounded workload with a multi-line loop body (so repeat-collapsing in
/// reconstruction matches the transition-based oracle) and default-size
/// buffers (no ring wrap: recovery yields a true prefix, not a window).
const char *SweepWorkload = R"(
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

const char *TwoThreadWorkload = R"(
fn worker(a) {
  var x = a;
  var j = 0;
  while (j < 400) {
    x = x * 5 + 3;
    x = x % 999983;
    j = j + 1;
    yield();
  }
  return x;
}
fn main() export {
  spawn(addr_of(worker), 1);
  var i = 0;
  var y = 2;
  while (i < 300) {
    y = y * 7 + 1;
    y = y % 1000033;
    i = i + 1;
    yield();
  }
  print(y);
}
)";

const char *SnapAtEndWorkload = R"(
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

/// True if, after dropping at most \p Slack trailing entries, \p Got is an
/// exact elementwise prefix of \p Golden. The slack is confined to the
/// final partial DAG record (the tile the fault interrupted).
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

/// Fault-free run: golden per-thread line sequences + total slice count.
struct GoldenRun {
  std::vector<Process::OracleEvent> Oracle;
  uint64_t TotalSlices = 0;

  explicit GoldenRun(const char *Source) {
    SingleProcess S{/*WithOracle=*/true};
    EXPECT_EQ(S.runModule(compileOrDie(Source), /*Instrument=*/true),
              World::RunResult::AllExited);
    Oracle = std::move(S.Oracle);
    TotalSlices = S.D.world().slices();
  }

  std::vector<std::string> lines(uint64_t Tid) const {
    return oracleSequence(Oracle, Tid);
  }
};

} // namespace

// ----------------------------------------------------------------------------
// The headline property: 200-seed kill -9 sweep.
// ----------------------------------------------------------------------------

TEST(CrashConsistencyTest, KillSweepRecoversGoldenPrefix) {
  GoldenRun Golden(SweepWorkload);
  std::vector<std::string> Want = Golden.lines(1);
  ASSERT_GT(Want.size(), 100u);
  ASSERT_GT(Golden.TotalSlices, 10u);

  Rng Seeds(testSeed());
  const int NumSeeds = 200;
  int Recovered = 0;
  for (int Run = 0; Run < NumSeeds; ++Run) {
    uint64_t Seed = Seeds.next();
    Rng R(Seed);
    FaultPlan Plan;
    Plan.Seed = Seed;
    Plan.Events.push_back(
        {FaultKind::KillProcess, 1 + R.below(Golden.TotalSlices - 1), 0});

    SingleProcess S;
    FaultInjector FI(Plan);
    S.D.world().Injector = &FI;
    ServiceDaemon *Daemon = S.D.daemonFor(*S.M);
    ASSERT_NE(Daemon, nullptr);
    S.runModule(compileOrDie(SweepWorkload), /*Instrument=*/true);
    ASSERT_TRUE(S.P->HardKilled)
        << "seed " << Seed << ": kill at slice "
        << Plan.Events[0].Trigger << " did not land";

    // Post-mortem collection from the dead image, then a full v4 wire
    // round trip before reconstruction: every kill point also proves the
    // compressed snap format preserves whatever survived.
    auto PM = Daemon->collectPostMortem(*S.P);
    ASSERT_EQ(PM.size(), 1u) << "seed " << Seed;
    std::vector<uint8_t> Wire = PM[0]->serialize();
    SnapFile Decoded;
    ASSERT_TRUE(SnapFile::deserialize(Wire, Decoded)) << "seed " << Seed;
    ReconstructedTrace Trace = S.D.reconstruct(Decoded);
    const ThreadTrace *Main = Trace.threadById(1);
    if (!Main)
      continue; // Killed before anything was committed — acceptable loss.
    std::vector<std::string> Got = lineSequence(*Main);
    if (Got.empty())
      continue;
    ++Recovered;
    ASSERT_TRUE(isPrefixWithSlack(Got, Want))
        << "seed " << Seed << " (kill slice " << Plan.Events[0].Trigger
        << "): recovered " << Got.size()
        << " lines are not a golden prefix — replay with "
           "TRACEBACK_TEST_SEED";
  }
  // Most kills land after the first records were written.
  EXPECT_GT(Recovered, NumSeeds / 2)
      << "sweep recovered suspiciously few traces";
}

TEST(CrashConsistencyTest, MultiThreadedKillSweep) {
  GoldenRun Golden(TwoThreadWorkload);
  std::vector<std::string> WantMain = Golden.lines(1);
  std::vector<std::string> WantWorker = Golden.lines(2);
  ASSERT_GT(WantMain.size(), 50u);
  ASSERT_GT(WantWorker.size(), 50u);

  Rng Seeds(testSeed() ^ 0x2222);
  int Recovered = 0;
  for (int Run = 0; Run < 20; ++Run) {
    uint64_t Seed = Seeds.next();
    Rng R(Seed);
    FaultPlan Plan;
    Plan.Seed = Seed;
    Plan.Events.push_back(
        {FaultKind::KillProcess, 1 + R.below(Golden.TotalSlices - 1), 0});

    SingleProcess S;
    FaultInjector FI(Plan);
    S.D.world().Injector = &FI;
    S.runModule(compileOrDie(TwoThreadWorkload), /*Instrument=*/true);
    ASSERT_TRUE(S.P->HardKilled) << "seed " << Seed;
    auto PM = S.D.daemonFor(*S.M)->collectPostMortem(*S.P);
    ASSERT_EQ(PM.size(), 1u);
    ReconstructedTrace Trace = S.D.reconstruct(*PM[0]);
    // EVERY recovered thread must be prefix-consistent with its golden.
    for (const ThreadTrace &T : Trace.Threads) {
      std::vector<std::string> Got = lineSequence(T);
      if (Got.empty())
        continue;
      ++Recovered;
      const std::vector<std::string> &Want =
          T.ThreadId == 1 ? WantMain : WantWorker;
      ASSERT_TRUE(isPrefixWithSlack(Got, Want))
          << "seed " << Seed << " thread " << T.ThreadId;
    }
  }
  EXPECT_GT(Recovered, 10);
}

// ----------------------------------------------------------------------------
// Torn-write sweep: a zeroed word costs the tail, never the prefix.
// ----------------------------------------------------------------------------

TEST(CrashConsistencyTest, TornWriteSweepKeepsPrefix) {
  GoldenRun Golden(SnapAtEndWorkload);
  std::vector<std::string> Want = Golden.lines(1);
  ASSERT_GT(Want.size(), 50u);

  Rng Seeds(testSeed() ^ 0x3333);
  int Fired = 0;
  for (int Run = 0; Run < 20; ++Run) {
    uint64_t Seed = Seeds.next();
    Rng R(Seed);
    FaultPlan Plan;
    Plan.Seed = Seed;
    // Mode 0 (whole word zeroed), paired with death at the same slice:
    // the paper's torn write is an in-flight store cut short *by* the
    // crash, so nothing may touch the zeroed word afterwards. (A tear the
    // process survives can later be OR-ed by a lightweight probe into a
    // junk word — a gap, not a tail loss; that shape is covered by the
    // graceful-degradation test, not the prefix property.)
    uint64_t At = 1 + R.below(Golden.TotalSlices - 1);
    Plan.Events.push_back({FaultKind::TornWrite, At, 0});
    Plan.Events.push_back({FaultKind::KillProcess, At, 0});

    SingleProcess S;
    FaultInjector FI(Plan);
    S.D.world().Injector = &FI;
    S.runModule(compileOrDie(SnapAtEndWorkload), true);
    if (!FI.allFired())
      continue; // Tear found no record to hit before the kill landed.
    ++Fired;
    ASSERT_TRUE(S.P->HardKilled) << "seed " << Seed;
    auto PM = S.D.daemonFor(*S.M)->collectPostMortem(*S.P);
    ASSERT_EQ(PM.size(), 1u);
    ReconstructedTrace Trace = S.D.reconstruct(*PM.front());
    const ThreadTrace *Main = Trace.threadById(1);
    if (!Main)
      continue;
    ASSERT_TRUE(isPrefixWithSlack(lineSequence(*Main), Want))
        << "seed " << Seed << ": torn write must only cost the tail";
  }
  EXPECT_GT(Fired, 10);
}

// ----------------------------------------------------------------------------
// Snap-file byte corruption: deserialization + reconstruction never crash.
// ----------------------------------------------------------------------------

TEST(CrashConsistencyTest, CorruptedSnapBytesNeverCrash) {
  SingleProcess S;
  ASSERT_EQ(S.runModule(compileOrDie(SnapAtEndWorkload), true),
            World::RunResult::AllExited);
  ASSERT_FALSE(S.D.snaps().empty());
  std::vector<uint8_t> Pristine = S.D.snaps().front().serialize();
  ASSERT_FALSE(Pristine.empty());

  Rng Seeds(testSeed() ^ 0x4444);
  int Survived = 0;
  for (int Run = 0; Run < 50; ++Run) {
    uint64_t Seed = Seeds.next();
    std::vector<uint8_t> Bytes = Pristine;
    FaultInjector::corruptSnapBytes(Bytes, Seed, /*ByteFlips=*/1 + Run % 32,
                                    /*Truncate=*/(Run % 3) == 0);
    SnapFile Out;
    if (!SnapFile::deserialize(Bytes, Out))
      continue; // Rejected: fine, as long as it did not crash.
    ++Survived;
    // Accepted: reconstruction must degrade gracefully too.
    ReconstructedTrace Trace = S.D.reconstruct(Out);
    (void)Trace;
  }
  // Not all corruptions are detectable; some must flow through the full
  // reconstruction path to prove graceful degradation. Nothing to assert
  // on Survived: either outcome is correct if we got here without dying.
  SUCCEED() << Survived << "/50 corrupted snaps deserialized";
}

// ----------------------------------------------------------------------------
// One seed per fault class, all in the chaos label (acceptance criteria).
// ----------------------------------------------------------------------------

TEST(CrashConsistencyTest, EveryFaultClassFiresAtLeastOnce) {
  uint64_t Base = testSeed() ^ 0x5555;
  size_t ClassesFired = 0;

  // Process kill.
  {
    FaultPlan Plan;
    Plan.Seed = Base + 1;
    Plan.Events.push_back({FaultKind::KillProcess, 100, 0});
    SingleProcess S;
    FaultInjector FI(Plan);
    S.D.world().Injector = &FI;
    S.runModule(compileOrDie(SweepWorkload), true);
    EXPECT_TRUE(S.P->HardKilled);
    if (FI.allFired())
      ++ClassesFired;
  }
  // Thread kill.
  {
    FaultPlan Plan;
    Plan.Seed = Base + 2;
    Plan.Events.push_back({FaultKind::KillThread, 100, 0});
    SingleProcess S;
    FaultInjector FI(Plan);
    S.D.world().Injector = &FI;
    S.runModule(compileOrDie(TwoThreadWorkload), true);
    if (FI.allFired())
      ++ClassesFired;
  }
  // Torn write.
  {
    FaultPlan Plan;
    Plan.Seed = Base + 3;
    Plan.Events.push_back({FaultKind::TornWrite, 100, 0});
    SingleProcess S;
    FaultInjector FI(Plan);
    S.D.world().Injector = &FI;
    S.runModule(compileOrDie(SnapAtEndWorkload), true);
    if (FI.allFired())
      ++ClassesFired;
  }
  // Snap corruption.
  {
    FaultPlan Plan;
    Plan.Seed = Base + 4;
    Plan.Events.push_back({FaultKind::SnapCorrupt, 0, 8});
    SingleProcess S;
    FaultInjector FI(Plan);
    S.D.world().Injector = &FI;
    S.runModule(compileOrDie(SnapAtEndWorkload), true);
    if (FI.allFired())
      ++ClassesFired;
  }
  // RPC drop.
  {
    FaultPlan Plan;
    Plan.Seed = Base + 5;
    Plan.Events.push_back({FaultKind::RpcDropWire, 0, 0});
    FaultInjector FI(Plan);
    Deployment D;
    D.world().Injector = &FI;
    Machine *MA = D.addMachine("alpha");
    Machine *MB = D.addMachine("beta");
    Process *Client = MA->createProcess("client");
    Process *Server = MB->createProcess("server");
    std::string Error;
    Module CM = compileOrDie(R"(
fn main() export {
  var arg = alloc(8);
  var rep = alloc(1024);
  store(arg, 4);
  rpc(40, arg, 8, rep);
  print(load(rep));
}
)",
                             "climod", Technology::Native, "client.ml");
    Module SM = compileOrDie(R"(
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
)",
                             "srvmod", Technology::Native, "server.ml");
    ASSERT_NE(D.deploy(*Client, CM, true, Error), nullptr) << Error;
    ASSERT_NE(D.deploy(*Server, SM, true, Error), nullptr) << Error;
    Server->start("main");
    for (int I = 0; I < 10; ++I)
      D.world().stepSlice();
    Client->start("main");
    while (!Client->Exited && D.world().cycles() < 50'000'000)
      D.world().stepSlice();
    EXPECT_EQ(Client->Output, "40\n");
    if (FI.allFired())
      ++ClassesFired;
  }
  // Unload racing a snap.
  {
    FaultPlan Plan;
    Plan.Seed = Base + 6;
    Plan.Events.push_back({FaultKind::UnloadRace, 100, 0});
    SingleProcess S;
    FaultInjector FI(Plan);
    S.D.world().Injector = &FI;
    S.runModule(compileOrDie(SweepWorkload), true);
    EXPECT_FALSE(S.D.snaps().empty());
    if (FI.allFired())
      ++ClassesFired;
  }

  EXPECT_EQ(ClassesFired, 6u) << "every fault class must be exercisable";
}

// ----------------------------------------------------------------------------
// Triage: a trace recovered past a torn write (TruncatedAt-marked) must
// land in the same cluster as its uncorrupted counterpart — the tear
// cost the tail of the history, not the identity of the fault.
// ----------------------------------------------------------------------------

TEST(CrashConsistencyTest, RecoveredTornTracesClusterWithCleanKills) {
  GoldenRun Golden(SnapAtEndWorkload);
  ASSERT_GT(Golden.TotalSlices, 40u);

  Rng Seeds(testSeed() ^ 0x6666);
  int Paired = 0;
  for (int Run = 0; Run < 10; ++Run) {
    uint64_t Seed = Seeds.next();
    Rng R(Seed);
    // One steady-state cut point shared by both runs: the clean run is
    // killed there outright, the recovered run additionally has an
    // in-flight trace store torn at the same instant.
    uint64_t Half = Golden.TotalSlices / 2;
    uint64_t At = Half + R.below(Half / 2);

    FaultPlan CleanPlan;
    CleanPlan.Seed = Seed;
    CleanPlan.Events.push_back({FaultKind::KillProcess, At, 0});
    SingleProcess SC;
    FaultInjector CleanFI(CleanPlan);
    SC.D.world().Injector = &CleanFI;
    SC.runModule(compileOrDie(SnapAtEndWorkload), true);
    ASSERT_TRUE(SC.P->HardKilled) << "seed " << Seed;
    auto CleanPM = SC.D.daemonFor(*SC.M)->collectPostMortem(*SC.P);
    ASSERT_EQ(CleanPM.size(), 1u);
    ReconstructedTrace CleanTrace = SC.D.reconstruct(*CleanPM.front());
    FaultSignature Clean = extractSignature(*CleanPM.front(), CleanTrace);
    if (Clean.Path.empty())
      continue;

    FaultPlan TornPlan;
    TornPlan.Seed = Seed;
    TornPlan.Events.push_back({FaultKind::TornWrite, At, 0});
    TornPlan.Events.push_back({FaultKind::KillProcess, At, 0});
    SingleProcess ST;
    FaultInjector TornFI(TornPlan);
    ST.D.world().Injector = &TornFI;
    ST.runModule(compileOrDie(SnapAtEndWorkload), true);
    if (!TornFI.allFired())
      continue; // No record was in flight to tear at this cut.
    ASSERT_TRUE(ST.P->HardKilled) << "seed " << Seed;
    auto TornPM = ST.D.daemonFor(*ST.M)->collectPostMortem(*ST.P);
    ASSERT_EQ(TornPM.size(), 1u);
    ReconstructedTrace TornTrace = ST.D.reconstruct(*TornPM.front());
    bool Marked = false;
    for (const ThreadTrace &T : TornTrace.Threads)
      Marked |= T.TruncatedAt != UINT64_MAX;
    if (!Marked)
      continue; // The tear hit an already-consumed word.
    FaultSignature Torn = extractSignature(*TornPM.front(), TornTrace);
    EXPECT_NE(std::find(Torn.Markers.begin(), Torn.Markers.end(),
                        std::string("torn-tail")),
              Torn.Markers.end())
        << "seed " << Seed << ": recovered trace must carry the marker";
    if (Torn.Path.empty())
      continue;

    // Identical cut, so the two histories differ only in the torn tail:
    // the near tier must reunite them (the fingerprints differ — the
    // torn signature carries the marker and a shorter path).
    SignatureClusterer C;
    size_t CleanIdx = C.add(Clean, "clean");
    size_t TornIdx = C.add(Torn, "recovered");
    EXPECT_EQ(CleanIdx, TornIdx)
        << "seed " << Seed
        << ": a TruncatedAt-recovered trace split from its clean "
           "counterpart";
    Paired += CleanIdx == TornIdx;
  }
  // Most steady-state cuts have a record in flight; the sweep must pair
  // more often than it skips or it proves nothing.
  EXPECT_GT(Paired, 4) << "suspiciously few torn/clean pairs clustered";
}

// ----------------------------------------------------------------------------
// Record-and-replay under kill -9: an execution log byte-truncated
// mid-write still replays its surviving prefix, and the one permissible
// divergence lands exactly at the TruncatedAt marker — never before it.
// ----------------------------------------------------------------------------

TEST(CrashConsistencyTest, TruncatedExecutionLogReplaysPrefixExactly) {
  Rng Seeds(testSeed() ^ 0x7777);
  int Checked = 0;
  for (int Run = 0; Run < 8; ++Run) {
    uint64_t Seed = Seeds.next();
    Rng R(Seed);
    FaultPlan Plan;
    Plan.Seed = Seed;
    Plan.Events.push_back({FaultKind::KillProcess, 40 + R.below(200), 0});

    SingleProcess S;
    S.D.Policy.RecordExecution = true;
    ExecutionRecorder Rec;
    Rec.attach(S.D);
    FaultInjector FI(Plan);
    S.D.world().Injector = &FI;
    S.runModule(compileOrDie(SweepWorkload), /*Instrument=*/true);
    ASSERT_TRUE(S.P->HardKilled) << "seed " << Seed;
    auto PM = S.D.daemonFor(*S.M)->collectPostMortem(*S.P);
    ASSERT_EQ(PM.size(), 1u);
    ASSERT_FALSE(PM[0]->ExecLog.empty()) << "seed " << Seed;
    const std::vector<uint8_t> &Full = PM[0]->ExecLog;
    ExecutionLog Intact;
    ASSERT_TRUE(ExecutionLog::deserialize(Full, Intact));
    ASSERT_FALSE(Intact.Truncated);

    // kill -9 mid-write: cut the byte stream at assorted points and
    // replay whatever prefix survives.
    for (int Cut = 0; Cut < 6; ++Cut) {
      size_t Bytes = Full.size() / 2 + R.below(Full.size() / 2 - 8);
      std::vector<uint8_t> Torn(Full.begin(), Full.begin() + Bytes);
      ExecutionLog Log;
      if (!ExecutionLog::deserialize(Torn, Log))
        continue; // Cut landed inside META/GENESIS: no world to rebuild.
      if (!Log.Truncated || Log.Entries.empty())
        continue;
      ASSERT_LT(Log.truncatedAt(), Intact.truncatedAt());
      ++Checked;

      ReplayDriver Drv(Log);
      std::string Error;
      ASSERT_TRUE(Drv.build(Error)) << "seed " << Seed << ": " << Error;
      EXPECT_TRUE(Drv.run()) << "seed " << Seed << " cut " << Bytes
                             << ": prefix replay stalled";
      // The prefix replays cleanly: the only divergence the enforcer may
      // report is the truncation itself, stamped exactly at truncatedAt().
      for (const Divergence &D : Drv.enforcer().divergences()) {
        EXPECT_EQ(D.K, Divergence::Kind::LogTruncated)
            << "seed " << Seed << " cut " << Bytes << ": "
            << divergenceKindName(D.K) << " — " << D.Detail;
        EXPECT_EQ(D.EventIndex, Log.truncatedAt())
            << "seed " << Seed << " cut " << Bytes
            << ": divergence before the TruncatedAt marker";
      }
      EXPECT_LE(Drv.enforcer().divergences().size(), 1u)
          << "seed " << Seed << " cut " << Bytes;
      // Replay runs to the end of the surviving log and no further (the
      // recorded kill typically lies beyond the cut), consuming every
      // recovered entry along the way.
      EXPECT_TRUE(Drv.enforcer().done())
          << "seed " << Seed << " cut " << Bytes;
      EXPECT_EQ(Drv.enforcer().consumed(), Log.Entries.size())
          << "seed " << Seed << " cut " << Bytes;
    }
  }
  EXPECT_GT(Checked, 5) << "truncation sweep never hit the event stream";
}
