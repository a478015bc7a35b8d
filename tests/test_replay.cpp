//===- tests/test_replay.cpp - Record-and-replay self-checks --------------===//
//
// Part of the TraceBack reproduction project.
//
// The replay subsystem's suite (ctest -L replay). The headline is the
// 200-seed chaos sweep: every snap recorded under a random kill replays
// to the same fault with a byte-identical reconstructed trace and zero
// divergences — the replay-divergence check doubles as a continuous
// correctness oracle for the reconstruction pipeline. The negative paths
// perturb one recorded input, one schedule decision and one trace word,
// and assert the detector pinpoints the FIRST divergent event, never a
// later cascade. The divergence report rendering is pinned by
// tests/golden/replay_divergence.txt (TRACEBACK_REGEN_GOLDEN=1 to
// regenerate after an intentional change).
//
// Every seed is replayable: TRACEBACK_TEST_SEED=<seed> reruns a failure.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "core/FileIO.h"
#include "replay/Recorder.h"
#include "replay/ReplayDriver.h"
#include "support/MD5.h"
#include "support/Text.h"
#include "vm/FaultInjector.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

using namespace traceback;
using namespace traceback::testing_helpers;

namespace {

/// Two yield-looping threads drawing SysRand — scheduling and guest
/// inputs both nondeterministic, the shapes the recorder must pin down.
const char *RandTwoThreadWorkload = R"(
fn worker(a) {
  var x = a;
  var j = 0;
  while (j < 120) {
    x = x * 5 + (rand() & 7);
    x = x % 999983;
    j = j + 1;
    yield();
  }
  return x;
}
fn main() export {
  spawn(addr_of(worker), 7);
  var y = 2;
  var i = 0;
  while (i < 100) {
    y = y * 7 + (rand() & 3);
    y = y % 1000033;
    i = i + 1;
    yield();
  }
  print(y);
}
)";

/// Single thread whose control flow BRANCHES on rand(): perturbing one
/// recorded draw must change the line sequence itself, and the snap(1) at
/// the end anchors the log for verifyReplay.
const char *RandBranchSnapWorkload = R"(
fn main() export {
  var x = 1;
  var r = 0;
  var i = 0;
  while (i < 60) {
    r = rand();
    if (r & 1) { x = x * 3 + 1; } else { x = x + 7; }
    x = x % 1000003;
    i = i + 1;
    yield();
  }
  snap(1);
  print(x);
}
)";

/// Two threads plus an end-of-run anchor: the golden divergence fixture
/// and the windowed-recording test both want multi-candidate schedule
/// slices leading to a snap.
const char *TwoThreadSnapWorkload = R"(
fn worker(a) {
  var x = a;
  var j = 0;
  while (j < 90) {
    x = x * 5 + (rand() & 7);
    x = x % 999983;
    j = j + 1;
    yield();
  }
  return x;
}
fn main() export {
  spawn(addr_of(worker), 3);
  var y = 2;
  var i = 0;
  while (i < 70) {
    y = y * 7 + 1;
    y = y % 1000033;
    i = i + 1;
    yield();
  }
  snap(2);
  print(y);
}
)";

/// A recording single-process world: policy flag + scribe hooked up
/// before anything is deployed.
struct RecordedProcess : SingleProcess {
  ExecutionRecorder Rec;

  explicit RecordedProcess(uint32_t Window = 0) : Rec(Window) {
    D.Policy.RecordExecution = true;
    D.Policy.RecordWindow = Window;
    Rec.attach(D);
  }
};

/// Flips one recorded schedule decision (the first multi-candidate pick
/// at or after \p MinIndex) to a different in-range candidate. Returns
/// the chronological index of the perturbed entry, or SIZE_MAX.
size_t perturbSchedulePick(ExecutionLog &Log, size_t MinIndex) {
  for (size_t I = MinIndex; I < Log.Entries.size(); ++I) {
    LogEntry &E = Log.Entries[I];
    if (E.Kind != LogEntryKind::Sched)
      continue;
    uint64_t CandCount = E.B >> 32;
    if (CandCount < 2)
      continue;
    uint64_t Pick = E.B & 0xffffffffu;
    E.B = (CandCount << 32) | ((Pick + 1) % CandCount);
    return I;
  }
  return SIZE_MAX;
}

/// Flips the low bit of one recorded rand() value at or after
/// \p MinIndex. Returns the chronological index, or SIZE_MAX.
size_t perturbRandValue(ExecutionLog &Log, size_t MinIndex) {
  for (size_t I = MinIndex; I < Log.Entries.size(); ++I) {
    LogEntry &E = Log.Entries[I];
    if (E.Kind != LogEntryKind::Rand)
      continue;
    E.C ^= 1;
    return I;
  }
  return SIZE_MAX;
}

size_t countEntries(const ExecutionLog &Log, LogEntryKind K) {
  size_t N = 0;
  for (const LogEntry &E : Log.Entries)
    N += E.Kind == K;
  return N;
}

} // namespace

//===----------------------------------------------------------------------===//
// Log format: serialize/deserialize identity, truncation tolerance.
//===----------------------------------------------------------------------===//

TEST(ExecutionLogTest, SerializeDeserializeIsIdentity) {
  RecordedProcess S;
  FaultPlan Plan;
  Plan.Seed = testSeed() ^ 0x11;
  Plan.Events.push_back({FaultKind::KillProcess, 150, 0});
  FaultInjector FI(Plan);
  S.D.world().Injector = &FI;
  S.runModule(compileOrDie(RandTwoThreadWorkload), /*Instrument=*/true);
  ASSERT_TRUE(S.P->HardKilled);
  ASSERT_EQ(S.D.daemonFor(*S.M)->collectPostMortem(*S.P).size(), 1u);

  ExecutionLog L1 = S.Rec.snapshot();
  ASSERT_GT(L1.Entries.size(), 100u);
  EXPECT_GT(countEntries(L1, LogEntryKind::Rand), 10u);
  EXPECT_EQ(countEntries(L1, LogEntryKind::Fired), 1u);
  EXPECT_EQ(countEntries(L1, LogEntryKind::Anchor), 1u);

  std::vector<uint8_t> Bytes = L1.serialize();
  ExecutionLog L2;
  ASSERT_TRUE(ExecutionLog::deserialize(Bytes, L2));
  EXPECT_FALSE(L2.Truncated);
  EXPECT_EQ(L2.PolicyText, L1.PolicyText);
  EXPECT_EQ(L2.PlanText, L1.PlanText);
  EXPECT_FALSE(L2.PlanText.empty());
  EXPECT_EQ(L2.Quantum, L1.Quantum);
  EXPECT_EQ(L2.NetEnabled, L1.NetEnabled);
  EXPECT_EQ(L2.WindowCap, L1.WindowCap);
  EXPECT_EQ(L2.DroppedHead, L1.DroppedHead);
  ASSERT_EQ(L2.Machines.size(), L1.Machines.size());
  EXPECT_EQ(L2.Machines[0].Name, L1.Machines[0].Name);
  ASSERT_EQ(L2.Processes.size(), L1.Processes.size());
  EXPECT_EQ(L2.Processes[0].Pid, L1.Processes[0].Pid);
  ASSERT_EQ(L2.Deploys.size(), L1.Deploys.size());
  EXPECT_EQ(L2.Deploys[0].Image, L1.Deploys[0].Image);
  ASSERT_EQ(L2.Threads.size(), L1.Threads.size());
  ASSERT_EQ(L2.Entries.size(), L1.Entries.size());
  for (size_t I = 0; I < L1.Entries.size(); ++I) {
    const LogEntry &A = L1.Entries[I], &B = L2.Entries[I];
    ASSERT_EQ(B.Kind, A.Kind) << "entry " << I;
    EXPECT_EQ(B.Ordinal, A.Ordinal) << "entry " << I;
    EXPECT_EQ(B.A, A.A);
    EXPECT_EQ(B.B, A.B);
    EXPECT_EQ(B.C, A.C);
    EXPECT_EQ(B.D, A.D);
    EXPECT_EQ(B.E, A.E);
    EXPECT_EQ(B.Note, A.Note);
  }

  // Byte truncation anywhere inside EVENTS loses exactly a chronological
  // suffix: the recovered entries are an elementwise prefix.
  int Recovered = 0;
  for (size_t Cut = Bytes.size() - 9; Cut > Bytes.size() / 2;
       Cut -= Bytes.size() / 16) {
    std::vector<uint8_t> Torn(Bytes.begin(), Bytes.begin() + Cut);
    ExecutionLog LT;
    if (!ExecutionLog::deserialize(Torn, LT))
      continue; // Cut landed inside META/GENESIS: nothing to rebuild.
    ++Recovered;
    EXPECT_TRUE(LT.Truncated) << "cut " << Cut;
    ASSERT_LE(LT.Entries.size(), L1.Entries.size());
    for (size_t I = 0; I < LT.Entries.size(); ++I) {
      EXPECT_EQ(LT.Entries[I].Kind, L1.Entries[I].Kind) << "cut " << Cut;
      EXPECT_EQ(LT.Entries[I].Ordinal, L1.Entries[I].Ordinal);
    }
  }
  EXPECT_GT(Recovered, 2) << "truncation sweep never hit the event stream";
}

TEST(ExecutionLogTest, MutantsDeserializeOrFailCleanly) {
  // The decoder contract for .tblog: every mutant of a real log either
  // fails or yields a log no bigger than its input — never a crash, an
  // ASan/UBSan report, or an allocation a forged count asked for.
  RecordedProcess S;
  ASSERT_EQ(S.runModule(compileOrDie(TwoThreadSnapWorkload), true),
            World::RunResult::AllExited);
  ExecutionLog L = S.Rec.snapshot();
  ASSERT_GT(L.Entries.size(), 20u);
  const std::vector<uint8_t> Bytes = L.serialize();

  // The section table: [u8 id][u32 size] then the body, after the
  // 8-byte magic and version.
  struct Section {
    uint8_t Id;
    size_t SizeAt, Body, End;
  };
  std::vector<Section> Sections;
  for (size_t At = 8; At < Bytes.size();) {
    uint32_t Size;
    std::memcpy(&Size, Bytes.data() + At + 1, 4);
    Sections.push_back({Bytes[At], At + 1, At + 5, At + 5 + Size});
    At += 5 + Size;
  }
  ASSERT_EQ(Sections.size(), 4u);
  ASSERT_EQ(Sections[0].Id, 1); // META
  ASSERT_EQ(Sections[1].Id, 2); // GENESIS
  ASSERT_EQ(Sections[2].Id, 3); // EVENTS
  ASSERT_EQ(Sections.back().End, Bytes.size());

  size_t Accepted = 0, Rejected = 0;
  auto Check = [&](const std::vector<uint8_t> &M, const std::string &What) {
    ExecutionLog Out;
    if (!ExecutionLog::deserialize(M, Out)) {
      ++Rejected;
      return false;
    }
    ++Accepted;
    size_t Items = Out.Entries.size() + Out.Machines.size() +
                   Out.Processes.size() + Out.Services.size() +
                   Out.Deploys.size() + Out.Threads.size();
    size_t Text = Out.PolicyText.size() + Out.PlanText.size();
    for (const LogEntry &E : Out.Entries)
      Text += E.Note.size();
    for (const LogDeploy &D : Out.Deploys)
      Text += D.Image.size();
    EXPECT_LE(Out.Entries.size(), M.size() / 8) << What;
    EXPECT_LE(Items, M.size()) << What;
    EXPECT_LE(Text, M.size()) << What;
    return true;
  };

  // A cut at every byte before GENESIS ends leaves no world to rebuild.
  for (size_t Cut = 0; Cut < Sections[1].End; ++Cut)
    EXPECT_FALSE(Check(std::vector<uint8_t>(Bytes.begin(), Bytes.begin() + Cut),
                       "cut " + std::to_string(Cut)));

  // Seeded single-bit flips anywhere.
  Rng R(testSeed() ^ 0x7B10'6F11ULL);
  for (int I = 0; I < 600; ++I) {
    std::vector<uint8_t> M = Bytes;
    size_t At = R.below(M.size());
    M[At] ^= static_cast<uint8_t>(1u << R.below(8));
    Check(M, "flip at " + std::to_string(At));
  }

  // Length inflation: a section size raised towards the u32 limit, or
  // one varint count or length raised to 2^40.
  size_t Inflated = 0;
  for (const Section &Sec : Sections)
    for (uint32_t Size : {UINT32_MAX, UINT32_MAX - 7, 1u << 31,
                          static_cast<uint32_t>(Sec.End - Sec.Body + 1)}) {
      std::vector<uint8_t> M = Bytes;
      std::memcpy(M.data() + Sec.SizeAt, &Size, 4);
      Check(M, "section " + std::to_string(Sec.Id) + " size " +
                   std::to_string(Size));
      ++Inflated;
    }
  auto varintLen = [](uint64_t V) {
    uint8_t Buf[10];
    return static_cast<size_t>(putVarU64(Buf, V) - Buf);
  };
  auto Raise = [&](size_t At, uint64_t Old, const std::string &What) {
    uint8_t Big[10];
    size_t BigLen = static_cast<size_t>(putVarU64(Big, 1ull << 40) - Big);
    std::vector<uint8_t> M(Bytes.begin(), Bytes.begin() + At);
    M.insert(M.end(), Big, Big + BigLen);
    M.insert(M.end(), Bytes.begin() + At + varintLen(Old), Bytes.end());
    Check(M, What);
    ++Inflated;
  };
  Raise(Sections[0].Body, L.PolicyText.size(), "policy length");
  Raise(Sections[0].Body + varintLen(L.PolicyText.size()) +
            L.PolicyText.size(),
        L.PlanText.size(), "plan length");
  Raise(Sections[1].Body, L.Machines.size(), "machine count");
  Raise(Sections[2].Body, L.Entries.size(), "entry count");
  size_t At = Sections[2].Body + varintLen(L.Entries.size());
  std::vector<uint8_t> Scratch(maxLogEntrySize(0) + 4096);
  for (size_t I = 0; I < L.Entries.size() && I < 120; ++I) {
    const LogEntry &E = L.Entries[I];
    ASSERT_LE(E.Note.size(), 4096u);
    size_t Len = static_cast<size_t>(
        putLogEntry(Scratch.data(), E.Kind, E.Ordinal, E.A, E.B, E.C, E.D,
                    E.E, E.Note) -
        Scratch.data());
    size_t NoteLenAt = At + Len - E.Note.size() - varintLen(E.Note.size());
    Raise(NoteLenAt, E.Note.size(), "note length of entry " +
                                        std::to_string(I));
    At += Len;
  }
  EXPECT_GE(Inflated, 100u);
  EXPECT_GT(Accepted, 0u);
  EXPECT_GT(Rejected, 0u);
}

TEST(ExecutionLogTest, RingWindowKeepsTailAndCountsDrops) {
  RecordedProcess S(/*Window=*/48);
  ASSERT_EQ(S.runModule(compileOrDie(TwoThreadSnapWorkload), true),
            World::RunResult::AllExited);
  ExecutionLog L = S.Rec.snapshot();
  EXPECT_EQ(L.WindowCap, 48u);
  EXPECT_EQ(L.Entries.size(), 48u);
  EXPECT_GT(L.DroppedHead, 0u);
  EXPECT_EQ(L.totalEntries(), S.Rec.recordedEntries());
  // Ordinals within one kind stay strictly increasing across the window.
  uint64_t LastSched = 0;
  bool Seen = false;
  for (const LogEntry &E : L.Entries)
    if (E.Kind == LogEntryKind::Sched) {
      if (Seen) {
        EXPECT_GT(E.Ordinal, LastSched);
      }
      LastSched = E.Ordinal;
      Seen = true;
    }
  EXPECT_TRUE(Seen);
}

//===----------------------------------------------------------------------===//
// The headline: 200-seed record/replay chaos sweep.
//===----------------------------------------------------------------------===//

TEST(ReplaySweepTest, TwoHundredSeedKillSweepReplaysIdentically) {
  // Fault-free pass to size the kill window.
  uint64_t TotalSlices = 0;
  {
    SingleProcess S;
    ASSERT_EQ(S.runModule(compileOrDie(RandTwoThreadWorkload), true),
              World::RunResult::AllExited);
    TotalSlices = S.D.world().slices();
  }
  ASSERT_GT(TotalSlices, 10u);

  Rng Seeds(testSeed() ^ 0x9e91);
  const int NumSeeds = 200;
  int Replayed = 0;
  for (int Run = 0; Run < NumSeeds; ++Run) {
    uint64_t Seed = Seeds.next();
    Rng R(Seed);
    FaultPlan Plan;
    Plan.Seed = Seed;
    // Cap at TotalSlices-2: the injector's boundary at the last world
    // slice runs after the process already exited, so a kill armed there
    // could never land.
    Plan.Events.push_back(
        {FaultKind::KillProcess, 1 + R.below(TotalSlices - 2), 0});

    RecordedProcess S;
    FaultInjector FI(Plan);
    S.D.world().Injector = &FI;
    S.runModule(compileOrDie(RandTwoThreadWorkload), true);
    ASSERT_TRUE(S.P->HardKilled)
        << "seed " << Seed << ": kill at slice " << Plan.Events[0].Trigger
        << " did not land (fault-free slices " << TotalSlices
        << ", faulted run slices " << S.D.world().slices() << ")";
    auto PM = S.D.daemonFor(*S.M)->collectPostMortem(*S.P);
    ASSERT_EQ(PM.size(), 1u) << "seed " << Seed;

    // Full wire round trip first: the embedded log must survive snap
    // serialization like every other section.
    std::vector<uint8_t> Wire = PM[0]->serialize();
    SnapFile Snap;
    ASSERT_TRUE(SnapFile::deserialize(Wire, Snap)) << "seed " << Seed;
    ASSERT_FALSE(Snap.ExecLog.empty()) << "seed " << Seed;

    ExecutionLog Log;
    ASSERT_TRUE(ExecutionLog::deserialize(Snap.ExecLog, Log))
        << "seed " << Seed;
    EXPECT_FALSE(Log.Truncated);
    EXPECT_EQ(countEntries(Log, LogEntryKind::Fired), 1u)
        << "seed " << Seed << ": the kill firing must be in the log";

    ReplayVerdict V = verifyReplay(Snap, Log);
    ASSERT_TRUE(V.Ok) << "seed " << Seed << " (kill slice "
                      << Plan.Events[0].Trigger
                      << "): replay diverged — rerun with "
                         "TRACEBACK_TEST_SEED\n"
                      << V.render();
    EXPECT_TRUE(V.SnapMatched) << "seed " << Seed;
    EXPECT_TRUE(V.TraceIdentical) << "seed " << Seed;
    EXPECT_TRUE(V.Divergences.empty()) << "seed " << Seed;
    ++Replayed;
  }
  EXPECT_EQ(Replayed, NumSeeds);
}

//===----------------------------------------------------------------------===//
// Windowed recording: pre-window slices pass through, the tail enforces.
//===----------------------------------------------------------------------===//

TEST(ReplayTest, WindowedRecordingStillReplaysToTheAnchor) {
  RecordedProcess S(/*Window=*/64);
  ASSERT_EQ(S.runModule(compileOrDie(TwoThreadSnapWorkload), true),
            World::RunResult::AllExited);
  ASSERT_FALSE(S.D.snaps().empty());
  const SnapFile &Snap = S.D.snaps().front();
  ASSERT_FALSE(Snap.ExecLog.empty());
  ExecutionLog Log;
  ASSERT_TRUE(ExecutionLog::deserialize(Snap.ExecLog, Log));
  ASSERT_GT(Log.DroppedHead, 0u) << "window never filled — test is vacuous";

  ReplayVerdict V = verifyReplay(Snap, Log);
  EXPECT_TRUE(V.Ok) << V.render();
  EXPECT_TRUE(V.SnapMatched);
  EXPECT_TRUE(V.TraceIdentical);
}

//===----------------------------------------------------------------------===//
// Pinned recordings: interpreter and recorder changes keep every byte.
//===----------------------------------------------------------------------===//

namespace {

/// A seeded request loop in the replay bench's fleet shape: a branchy
/// handler fed one rand() draw per iteration, preempted at quantum
/// boundaries, with snap(1) anchoring the log at the end.
std::string pinnedModuleSrc(uint32_t Idx, uint32_t Iters) {
  uint32_t S = Idx * 2654435761u + 0x51ed2701u;
  auto Next = [&] {
    S ^= S << 13;
    S ^= S >> 17;
    S ^= S << 5;
    return S;
  };
  std::string Src = "fn handle(x) {\n  var y = x;\n";
  unsigned Branches = 3 + Next() % 4;
  for (unsigned I = 0; I < Branches; ++I)
    Src += formatv("  if (y & %u) { y = y * %u + %u; } "
                   "else { y = y ^ (y >> %u); }\n",
                   1u << (Next() % 8), 3 + Next() % 5, 1 + Next() % 9,
                   1 + Next() % 4);
  unsigned Chunk = 16 + Next() % 16;
  for (unsigned I = 0; I < Chunk; ++I)
    Src += formatv("  y = (y * %u + %u) ^ (y >> %u);\n", 3 + Next() % 7,
                   Next() % 255, 1 + Next() % 5);
  Src += "  return y & 1048575;\n}\n";
  Src += "fn main() export {\n";
  Src += formatv("  var s = %u;\n", 1 + Next() % 1000);
  Src += formatv("  var i = 0;\n  while (i < %u) {\n", Iters);
  Src += "    s = handle(s + (rand() & 31));\n    i = i + 1;\n";
  Src += "  }\n  snap(1);\n  print(s & 65535);\n}\n";
  return Src;
}

} // namespace

TEST(ReplayTest, RecordedRunsArePinned) {
  // Pins the recorded log bytes, exact cycle counts and output of 24
  // recorded runs (12 modules, plain and windowed). Replay checks cannot
  // catch a VM or recorder change that shifts any of them: replay
  // re-executes under the same VM. The digest must never need updating.
  MD5 Hash;
  for (uint32_t Window : {0u, 64u})
    for (uint32_t I = 0; I < 12; ++I) {
      RecordedProcess S(Window);
      ASSERT_EQ(S.runModule(compileOrDie(pinnedModuleSrc(I, 60),
                                         formatv("svc%03u", I)),
                            /*Instrument=*/true),
                World::RunResult::AllExited)
          << "module " << I << " window " << Window;
      ASSERT_FALSE(S.D.snaps().empty());
      for (const SnapFile &Snap : S.D.snaps()) {
        ASSERT_FALSE(Snap.ExecLog.empty());
        Hash.update(Snap.ExecLog.data(), Snap.ExecLog.size());
      }
      std::vector<uint8_t> Log = S.Rec.serialized();
      Hash.update(Log.data(), Log.size());
      Hash.update(formatv("cycles=%llu\n",
                          static_cast<unsigned long long>(S.P->CyclesUsed)));
      Hash.update(S.P->Output);
    }
  EXPECT_EQ(Hash.final().toHex(), "5f90d577e168b2bc58366df95f4b246f");
}

TEST(ReplayTest, ToLimitStopsEnforcementEarly) {
  RecordedProcess S;
  ASSERT_EQ(S.runModule(compileOrDie(TwoThreadSnapWorkload), true),
            World::RunResult::AllExited);
  ASSERT_FALSE(S.D.snaps().empty());
  ExecutionLog Log;
  ASSERT_TRUE(ExecutionLog::deserialize(S.D.snaps().front().ExecLog, Log));
  uint64_t Half = Log.totalEntries() / 2;
  ASSERT_GT(Half, 10u);

  ReplayDriver Drv(Log);
  std::string Error;
  ASSERT_TRUE(Drv.build(Error)) << Error;
  EXPECT_TRUE(Drv.run(/*ToEvent=*/Half));
  EXPECT_LE(Drv.enforcer().consumed(), Half);
  EXPECT_TRUE(Drv.enforcer().divergences().empty());
}

//===----------------------------------------------------------------------===//
// Negative paths: one perturbation, first divergent event pinpointed.
//===----------------------------------------------------------------------===//

TEST(ReplayDivergenceTest, PerturbedSchedulePickIsPinpointed) {
  RecordedProcess S;
  ASSERT_EQ(S.runModule(compileOrDie(TwoThreadSnapWorkload), true),
            World::RunResult::AllExited);
  ASSERT_FALSE(S.D.snaps().empty());
  const SnapFile &Snap = S.D.snaps().front();
  ExecutionLog Log;
  ASSERT_TRUE(ExecutionLog::deserialize(Snap.ExecLog, Log));

  size_t At = perturbSchedulePick(Log, Log.Entries.size() / 3);
  ASSERT_NE(At, SIZE_MAX) << "no multi-candidate pick to perturb";

  ReplayVerdict V = verifyReplay(Snap, Log);
  EXPECT_FALSE(V.Ok);
  ASSERT_FALSE(V.Divergences.empty());
  // The FIRST reported divergence is the perturbed decision itself — not
  // any of the cascade the wrong pick causes downstream.
  EXPECT_EQ(V.Divergences[0].EventIndex, Log.DroppedHead + At);
  EXPECT_EQ(V.Divergences[0].K, Divergence::Kind::SchedulePick)
      << divergenceKindName(V.Divergences[0].K);
}

TEST(ReplayDivergenceTest, PerturbedRandInputDivergesDownstreamOnly) {
  RecordedProcess S;
  ASSERT_EQ(S.runModule(compileOrDie(RandBranchSnapWorkload), true),
            World::RunResult::AllExited);
  ASSERT_FALSE(S.D.snaps().empty());
  const SnapFile &Snap = S.D.snaps().front();
  ExecutionLog Log;
  ASSERT_TRUE(ExecutionLog::deserialize(Snap.ExecLog, Log));

  size_t At = perturbRandValue(Log, Log.Entries.size() / 3);
  ASSERT_NE(At, SIZE_MAX) << "no rand draw to perturb";

  ReplayVerdict V = verifyReplay(Snap, Log);
  EXPECT_FALSE(V.Ok);
  ASSERT_FALSE(V.Divergences.empty());
  // The forged input is delivered verbatim (its context still matches),
  // so every enforcer-observed divergence is strictly AFTER it: the
  // effect shows downstream, the report never points before the cause.
  for (const Divergence &D : V.Divergences)
    if (D.K != Divergence::Kind::TraceEvent) {
      EXPECT_GT(D.EventIndex, Log.DroppedHead + At)
          << divergenceKindName(D.K) << ": " << D.Detail;
    }
  // The detector reports at most ONE trace divergence for the thread —
  // the first differing line, not the cascade behind it.
  size_t TraceDivs = 0;
  for (const Divergence &D : V.Divergences)
    TraceDivs += D.K == Divergence::Kind::TraceEvent;
  EXPECT_LE(TraceDivs, 1u);
}

TEST(ReplayDivergenceTest, PerturbedTraceWordReportsFirstEventOnly) {
  RecordedProcess S;
  ASSERT_EQ(S.runModule(compileOrDie(RandBranchSnapWorkload), true),
            World::RunResult::AllExited);
  ASSERT_FALSE(S.D.snaps().empty());
  ReconstructedTrace Original = S.D.reconstruct(S.D.snaps().front());
  ASSERT_FALSE(Original.Threads.empty());
  ASSERT_GT(Original.Threads[0].Events.size(), 20u);

  // Corrupt TWO events of the replayed copy; only the FIRST may be
  // reported for that thread.
  ReconstructedTrace Perturbed = Original;
  size_t First = Perturbed.Threads[0].Events.size() / 2;
  size_t Second = First + 5;
  ASSERT_LT(Second, Perturbed.Threads[0].Events.size());
  Perturbed.Threads[0].Events[First].Line += 1;
  Perturbed.Threads[0].Events[Second].Line += 3;

  std::vector<Divergence> Divs;
  ASSERT_EQ(DivergenceDetector::compare(Original, Perturbed, Divs), 1u);
  ASSERT_EQ(Divs.size(), 1u);
  EXPECT_EQ(Divs[0].K, Divergence::Kind::TraceEvent);
  EXPECT_EQ(Divs[0].EventIndex, First);
  EXPECT_NE(Divs[0].Detail.find("thread 1"), std::string::npos)
      << Divs[0].Detail;

  // Sanity: identical traces produce no divergence and identical bytes.
  Divs.clear();
  EXPECT_EQ(DivergenceDetector::compare(Original, Original, Divs), 0u);
  EXPECT_EQ(DivergenceDetector::renderCanonical(Original),
            DivergenceDetector::renderCanonical(Original));
  EXPECT_NE(DivergenceDetector::renderCanonical(Original),
            DivergenceDetector::renderCanonical(Perturbed));
}

//===----------------------------------------------------------------------===//
// The detector's field comparison against the printf renderer it replaced.
//===----------------------------------------------------------------------===//

namespace {

// The formatv renderings the detector used to compare, kept verbatim: two
// events must diverge iff these differ, and renderCanonical must emit
// exactly these bytes.
std::string oracleEvent(const TraceEvent &E) {
  switch (E.EventKind) {
  case TraceEvent::Kind::Line:
    return formatv("line %s!%s:%u fn=%s rep=%u depth=%u flags=%u trim=%u "
                   "ts=%llu",
                   E.Module.c_str(), E.File.c_str(), E.Line,
                   E.Function.c_str(), E.Repeat, E.Depth,
                   (unsigned)E.BlockFlags, E.Trimmed ? 1u : 0u,
                   (unsigned long long)E.Timestamp);
  case TraceEvent::Kind::Exception:
    return formatv("exception code=%u module=%016llx off=%u depth=%u ts=%llu",
                   (unsigned)E.FaultCodeValue,
                   (unsigned long long)E.FaultModuleKey, E.FaultOffset,
                   E.Depth, (unsigned long long)E.Timestamp);
  case TraceEvent::Kind::ExceptionEnd:
    return formatv("exception-end depth=%u ts=%llu", E.Depth,
                   (unsigned long long)E.Timestamp);
  case TraceEvent::Kind::Sync:
    return formatv("sync kind=%u lt=%llu seq=%llu peer=%llu ts=%llu",
                   (unsigned)E.Sync, (unsigned long long)E.LogicalThreadId,
                   (unsigned long long)E.Sequence,
                   (unsigned long long)E.PeerRuntimeId,
                   (unsigned long long)E.Timestamp);
  case TraceEvent::Kind::ThreadStart:
    return formatv("thread-start ts=%llu", (unsigned long long)E.Timestamp);
  case TraceEvent::Kind::ThreadEnd:
    return formatv("thread-end ts=%llu", (unsigned long long)E.Timestamp);
  case TraceEvent::Kind::Untraced:
    return formatv("untraced rep=%u depth=%u ts=%llu", E.Repeat, E.Depth,
                   (unsigned long long)E.Timestamp);
  }
  return "?";
}

std::string oracleCanonical(const ReconstructedTrace &T) {
  std::string Out;
  for (const ThreadTrace &Th : T.Threads) {
    std::string Cut = Th.TruncatedAt == UINT64_MAX
                          ? std::string("-")
                          : formatv("%llu",
                                    (unsigned long long)Th.TruncatedAt);
    Out += formatv("thread %llu runtime=%llu proc=%s machine=%s tech=%u "
                   "truncated=%u cut=%s\n",
                   (unsigned long long)Th.ThreadId,
                   (unsigned long long)Th.RuntimeId, Th.ProcessName.c_str(),
                   Th.MachineName.c_str(), (unsigned)Th.Tech,
                   Th.Truncated ? 1u : 0u, Cut.c_str());
    for (const TraceEvent &E : Th.Events)
      Out += "  " + oracleEvent(E) + "\n";
  }
  for (const std::string &W : T.Warnings)
    Out += "warning: " + W + "\n";
  return Out;
}

/// Distinct pooled names; the last two print alike under "%s".
const std::vector<InternedString> &oracleNames() {
  static const std::vector<InternedString> Names = {
      InternedString(std::string()), InternedString("mod"),
      InternedString("a.ml"), InternedString("cut"),
      InternedString(std::string("cut\0hidden", 10))};
  return Names;
}

TraceEvent randomOracleEvent(Rng &R) {
  const std::vector<InternedString> &Names = oracleNames();
  TraceEvent E;
  E.EventKind = static_cast<TraceEvent::Kind>(R.below(7));
  E.Module = Names[R.below(Names.size())];
  E.File = Names[R.below(Names.size())];
  E.Function = Names[R.below(Names.size())];
  E.Line = static_cast<uint32_t>(R.next());
  E.Repeat = static_cast<uint32_t>(R.below(4));
  E.BlockFlags = static_cast<uint8_t>(R.next());
  E.Depth = static_cast<uint32_t>(R.below(40));
  E.Trimmed = R.chance(1, 2);
  E.FaultCodeValue = static_cast<uint16_t>(R.next());
  E.FaultModuleKey = R.next();
  E.FaultOffset = static_cast<uint32_t>(R.next());
  E.Sync = static_cast<SyncKind>(R.below(4));
  E.LogicalThreadId = R.next();
  E.Sequence = R.next();
  E.PeerRuntimeId = R.next();
  E.Timestamp = R.next();
  return E;
}

/// TraceEvent fields mutateField can change, EventKind first.
constexpr unsigned EventFields = 17;

/// Changes field \p F of \p E, and nothing else, to a different value.
void mutateField(TraceEvent &E, unsigned F, Rng &R) {
  auto OtherName = [&](const InternedString &Old) {
    const std::vector<InternedString> &Names = oracleNames();
    InternedString N = Old;
    while (N == Old)
      N = Names[R.below(Names.size())];
    return N;
  };
  auto Flip32 = [&](uint32_t V) { return V ^ (1u << R.below(32)); };
  auto Flip64 = [&](uint64_t V) { return V ^ (1ULL << R.below(64)); };
  switch (F) {
  case 0:
    E.EventKind = static_cast<TraceEvent::Kind>(
        (static_cast<unsigned>(E.EventKind) + 1 + R.below(6)) % 7);
    break;
  case 1:
    E.Module = OtherName(E.Module);
    break;
  case 2:
    E.File = OtherName(E.File);
    break;
  case 3:
    E.Function = OtherName(E.Function);
    break;
  case 4:
    E.Line = Flip32(E.Line);
    break;
  case 5:
    E.Repeat = Flip32(E.Repeat);
    break;
  case 6:
    E.BlockFlags ^= static_cast<uint8_t>(1u << R.below(8));
    break;
  case 7:
    E.Depth = Flip32(E.Depth);
    break;
  case 8:
    E.Trimmed = !E.Trimmed;
    break;
  case 9:
    E.FaultCodeValue ^= static_cast<uint16_t>(1u << R.below(16));
    break;
  case 10:
    E.FaultModuleKey = Flip64(E.FaultModuleKey);
    break;
  case 11:
    E.FaultOffset = Flip32(E.FaultOffset);
    break;
  case 12:
    E.Sync = static_cast<SyncKind>(
        (static_cast<unsigned>(E.Sync) + 1 + R.below(3)) % 4);
    break;
  case 13:
    E.LogicalThreadId = Flip64(E.LogicalThreadId);
    break;
  case 14:
    E.Sequence = Flip64(E.Sequence);
    break;
  case 15:
    E.PeerRuntimeId = Flip64(E.PeerRuntimeId);
    break;
  default:
    E.Timestamp = Flip64(E.Timestamp);
    break;
  }
}

} // namespace

TEST(ReplayDivergenceTest, FieldCompareAgreesWithFormatvRenderings) {
  Rng R(testSeed() ^ 0xd1ffULL);
  size_t Diverged = 0, Agreed = 0;
  for (unsigned Case = 0; Case < 40 * EventFields; ++Case) {
    ReconstructedTrace Orig;
    ThreadTrace Th;
    Th.ThreadId = 1 + R.below(4);
    Th.RuntimeId = R.next();
    Th.ProcessName = "proc";
    Th.MachineName = "host";
    Th.Truncated = R.chance(1, 2);
    Th.TruncatedAt = R.chance(1, 2) ? R.below(UINT64_MAX) : UINT64_MAX;
    size_t N = 1 + R.below(6);
    for (size_t I = 0; I < N; ++I)
      Th.Events.push_back(randomOracleEvent(R));
    Orig.Threads.push_back(Th);
    if (R.chance(1, 3))
      Orig.Warnings.push_back("torn record");
    ReconstructedTrace Repl = Orig;
    size_t At = R.below(N);
    unsigned Field = Case % EventFields;
    mutateField(Repl.Threads[0].Events[At], Field, R);

    std::string Before = oracleEvent(Orig.Threads[0].Events[At]);
    std::string After = oracleEvent(Repl.Threads[0].Events[At]);
    bool Differ = Before != After;
    std::vector<Divergence> Divs;
    EXPECT_EQ(DivergenceDetector::compare(Orig, Repl, Divs), Differ ? 1u : 0u)
        << "field " << Field << ": {" << Before << "} vs {" << After << "}";
    if (Differ && !Divs.empty()) {
      EXPECT_EQ(Divs[0].EventIndex, At);
    }
    EXPECT_EQ(DivergenceDetector::renderCanonical(Orig), oracleCanonical(Orig));
    EXPECT_EQ(DivergenceDetector::renderCanonical(Repl), oracleCanonical(Repl));
    ++(Differ ? Diverged : Agreed);
  }
  // Both outcomes occur: a field the kind does not print, or a name equal
  // up to its NUL, must not diverge.
  EXPECT_GT(Diverged, 0u);
  EXPECT_GT(Agreed, 0u);
}

//===----------------------------------------------------------------------===//
// Golden rendering of a divergence report.
//===----------------------------------------------------------------------===//

TEST(ReplayGoldenTest, DivergenceReportMatchesGoldenFixture) {
  // Entirely deterministic — fixed workload, no injector, and a fixed
  // perturbation — so the report is stable regardless of the test seed.
  const std::string Path =
      std::string(TB_TESTS_DIR) + "/golden/replay_divergence.txt";

  RecordedProcess S;
  ASSERT_EQ(S.runModule(compileOrDie(TwoThreadSnapWorkload), true),
            World::RunResult::AllExited);
  ASSERT_FALSE(S.D.snaps().empty());
  const SnapFile &Snap = S.D.snaps().front();
  ExecutionLog Log;
  ASSERT_TRUE(ExecutionLog::deserialize(Snap.ExecLog, Log));
  size_t At = perturbSchedulePick(Log, Log.Entries.size() / 3);
  ASSERT_NE(At, SIZE_MAX);

  ReplayVerdict V = verifyReplay(Snap, Log);
  ASSERT_FALSE(V.Ok);
  std::string Report = V.render();

  if (std::getenv("TRACEBACK_REGEN_GOLDEN")) {
    ASSERT_TRUE(writeFileText(Path, Report)) << Path;
    GTEST_SKIP() << "regenerated golden fixture " << Path;
  }
  std::string Expected;
  ASSERT_TRUE(readFileText(Path, Expected))
      << "missing fixture " << Path
      << " — regenerate with TRACEBACK_REGEN_GOLDEN=1";
  EXPECT_EQ(Report, Expected)
      << "divergence report rendering drifted from the golden fixture";
}
