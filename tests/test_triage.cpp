//===- tests/test_triage.cpp - Crash-signature clustering tests -----------===//
//
// Part of the TraceBack reproduction project.
//
// The triage subsystem's contract, from unit to sweep scale:
//
//  * normalization — identity state (thread/runtime ids, timestamps,
//    repeat counts, depths, peer names, torn-write positions) never
//    reaches the signature; fault class, module set and the normalized
//    top-of-trace path always do;
//  * clustering — exact tier by fingerprint, near tier by bounded path
//    edit distance behind a hard kind+modules gate;
//  * persistence — the TBSIG v1 store round-trips and the daemon's
//    append-only tagging merges at load;
//  * the headline: a 200-seed sweep over FaultInjector-labeled runs
//    asserting clustering precision >= 0.95 and recall >= 0.90 against
//    the injected ground truth, deterministic to the byte.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "core/FileIO.h"
#include "distributed/ServiceDaemon.h"
#include "reconstruct/Reconstructor.h"
#include "support/MD5.h"
#include "support/Text.h"
#include "support/ThreadPool.h"
#include "triage/Clusterer.h"
#include "triage/SignatureStore.h"
#include "vm/FaultInjector.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

using namespace traceback;
using namespace traceback::testing_helpers;

namespace {

MD5Digest digestOf(const std::string &Text) {
  MD5 Hash;
  Hash.update(Text.data(), Text.size());
  return Hash.final();
}

SnapModuleInfo moduleInfo(const std::string &Name) {
  SnapModuleInfo M;
  M.Name = Name;
  M.Checksum = digestOf(Name);
  M.Instrumented = true;
  return M;
}

TraceEvent lineEvent(const char *Mod, unsigned Line, const char *Fn,
                     uint32_t Repeat = 1, uint32_t Depth = 0,
                     uint64_t Timestamp = 0) {
  TraceEvent E;
  E.EventKind = TraceEvent::Kind::Line;
  E.Module = std::string(Mod);
  E.File = std::string(Mod) + ".ml";
  E.Function = std::string(Fn);
  E.Line = Line;
  E.Repeat = Repeat;
  E.Depth = Depth;
  E.Timestamp = Timestamp;
  return E;
}

/// An Unhandled-fault snap over module "app" with a small main-thread
/// trace; the knobs are the identity fields a signature must ignore.
struct HandMade {
  SnapFile Snap;
  ReconstructedTrace Trace;

  explicit HandMade(uint64_t ThreadId = 1, uint64_t RuntimeId = 100,
                    uint64_t TimestampBase = 0, uint32_t Repeat = 1,
                    uint32_t Depth = 0, const char *MachineName = "host0",
                    uint64_t Pid = 10) {
    Snap.Reason = SnapReason::Unhandled;
    Snap.ProcessName = "app";
    Snap.MachineName = MachineName;
    Snap.Pid = Pid;
    Snap.Modules.push_back(moduleInfo("app"));
    Snap.FaultThread = ThreadId;
    Snap.FaultModuleKey = Snap.Modules[0].Checksum.low64();
    Snap.FaultCodeValue = 1; // access violation

    ThreadTrace T;
    T.ThreadId = ThreadId;
    T.RuntimeId = RuntimeId;
    for (unsigned I = 0; I < 5; ++I)
      T.Events.push_back(lineEvent("app", 10 + I, "main", Repeat, Depth,
                                   TimestampBase + I * 100));
    TraceEvent Exc;
    Exc.EventKind = TraceEvent::Kind::Exception;
    Exc.FaultCodeValue = 1;
    Exc.Timestamp = TimestampBase + 900;
    T.Events.push_back(Exc);
    Trace.Threads.push_back(std::move(T));
  }
};

/// The MISSING-PEER marker exactly as ServiceDaemon::emitMissingPeerMarker
/// builds it: MachineName = absent peer, ProcessName = group, ReasonDetail
/// = peer machine id.
SnapFile missingPeerMarker(const std::string &PeerName,
                           uint64_t PeerMachine) {
  SnapFile S;
  S.Reason = SnapReason::MissingPeer;
  S.ReasonDetail = static_cast<uint16_t>(PeerMachine);
  S.ProcessName = "default";
  S.MachineName = PeerName;
  return S;
}

std::vector<std::string> pathOf(std::initializer_list<const char *> Frames) {
  return std::vector<std::string>(Frames.begin(), Frames.end());
}

} // namespace

//===----------------------------------------------------------------------===//
// Normalization
//===----------------------------------------------------------------------===//

TEST(TriageSignatureTest, IdentityFieldsAreAbstracted) {
  // Same fault, different thread id / runtime id / timestamps / repeat
  // counts / depths / machine / pid: the incidental state that differs
  // between two occurrences of one bug on two machines.
  HandMade A(/*ThreadId=*/1, /*RuntimeId=*/100, /*TimestampBase=*/0,
             /*Repeat=*/1, /*Depth=*/0, "host0", /*Pid=*/10);
  HandMade B(/*ThreadId=*/9, /*RuntimeId=*/777, /*TimestampBase=*/555555,
             /*Repeat=*/40, /*Depth=*/3, "machine-b", /*Pid=*/4242);
  FaultSignature SA = extractSignature(A.Snap, A.Trace);
  FaultSignature SB = extractSignature(B.Snap, B.Trace);
  EXPECT_EQ(SA, SB);
  EXPECT_EQ(SA.fingerprint(), SB.fingerprint());
  EXPECT_EQ(SA.canonicalText(), SB.canonicalText());
  EXPECT_EQ(SA.Kind, "fault:access violation@app");
  ASSERT_FALSE(SA.Path.empty());
  // The normalized frames carry module!file:line function — nothing else.
  EXPECT_EQ(SA.Path.front(), "app!app.ml:10 main");
  EXPECT_EQ(SA.Path.back(), "!exc access violation");
  EXPECT_EQ(SA.Modules, std::vector<std::string>{"app"});
}

TEST(TriageSignatureTest, FaultKindKeepsClassDropsPosition) {
  HandMade A;
  A.Snap.FaultCodeValue = 2; // divide by zero
  A.Trace.Threads[0].Events.back().FaultCodeValue = 2;
  FaultSignature SA = extractSignature(A.Snap, A.Trace);
  EXPECT_EQ(SA.Kind, "fault:integer divide by zero@app");

  // Signals keep the signal number (it is the fault class), not the
  // address-shaped payload.
  HandMade B;
  B.Snap.Reason = SnapReason::Signal;
  B.Snap.FaultCodeValue = 0x8000 | 11;
  FaultSignature SB = extractSignature(B.Snap, B.Trace);
  EXPECT_EQ(SB.Kind, "fault:signal-11@app");

  HandMade C;
  C.Snap.Reason = SnapReason::Hang;
  EXPECT_EQ(extractSignature(C.Snap, C.Trace).Kind, "hang");
}

TEST(TriageSignatureTest, MissingPeerSignatureIsPeerIndependent) {
  // Whichever peer the partition cut off, the signature is the same:
  // peer name and machine id are identity, "a peer is missing" is the
  // fault.
  SnapFile Beta = missingPeerMarker("beta", 2);
  SnapFile Gamma = missingPeerMarker("gamma", 3);
  FaultSignature SB = extractSignature(Beta);
  FaultSignature SG = extractSignature(Gamma);
  EXPECT_EQ(SB.fingerprint(), SG.fingerprint());
  EXPECT_EQ(SB.Kind, "missing-peer");
  EXPECT_EQ(SB.Markers, std::vector<std::string>{"missing-peer"});
  EXPECT_TRUE(SB.Path.empty()) << "marker snaps carry no buffers";
}

TEST(TriageSignatureTest, TopFramesKeepsNewestWindow) {
  HandMade A;
  ThreadTrace &T = A.Trace.Threads[0];
  T.Events.clear();
  for (unsigned I = 0; I < 50; ++I)
    T.Events.push_back(lineEvent("app", 100 + I, "main"));
  SignatureOptions Opts;
  Opts.TopFrames = 8;
  FaultSignature S = extractSignature(A.Snap, A.Trace, Opts);
  ASSERT_EQ(S.Path.size(), 8u);
  EXPECT_EQ(S.Path.front(), "app!app.ml:142 main");
  EXPECT_EQ(S.Path.back(), "app!app.ml:149 main");
}

TEST(TriageSignatureTest, PathComesFromFaultingThreadThenLongest) {
  HandMade A;
  ThreadTrace Other;
  Other.ThreadId = 2;
  for (unsigned I = 0; I < 20; ++I)
    Other.Events.push_back(lineEvent("app", 200 + I, "worker"));
  A.Trace.Threads.push_back(Other);

  // FaultThread recovered: its (shorter) history wins over the longer
  // worker thread.
  FaultSignature S = extractSignature(A.Snap, A.Trace);
  EXPECT_EQ(S.Path.back(), "!exc access violation");

  // FaultThread unknown (post-mortem collection often loses it): the
  // longest recovered thread is the deterministic fallback.
  A.Snap.FaultThread = 999;
  FaultSignature F = extractSignature(A.Snap, A.Trace);
  EXPECT_EQ(F.Path.back(), "app!app.ml:219 worker");
}

TEST(TriageSignatureTest, DegradationMarkersAbstractPosition) {
  HandMade A, B;
  A.Trace.Threads[0].Truncated = true;
  A.Trace.Threads[0].TruncatedAt = 123;
  B.Trace.Threads[0].Truncated = true;
  B.Trace.Threads[0].TruncatedAt = 99999; // Different tear position.
  FaultSignature SA = extractSignature(A.Snap, A.Trace);
  FaultSignature SB = extractSignature(B.Snap, B.Trace);
  EXPECT_EQ(SA.fingerprint(), SB.fingerprint())
      << "the tear's word position is identity, not fault";
  EXPECT_EQ(SA.Markers, pathOf({"ring-wrap", "torn-tail"}));
}

//===----------------------------------------------------------------------===//
// Path edit distance
//===----------------------------------------------------------------------===//

TEST(PathEditDistanceTest, BasicsAndBound) {
  auto P = pathOf({"a", "b", "c", "d"});
  EXPECT_EQ(pathEditDistance(P, P, 8), 0u);
  EXPECT_EQ(pathEditDistance(P, pathOf({"a", "X", "c", "d"}), 8), 1u);
  EXPECT_EQ(pathEditDistance(P, pathOf({"a", "b", "c"}), 8), 1u);
  EXPECT_EQ(pathEditDistance(P, pathOf({"z", "a", "b", "c", "d"}), 8), 1u);
  EXPECT_EQ(pathEditDistance({}, P, 8), 4u);
  // Over the bound: the exact value is irrelevant, only "greater".
  EXPECT_GT(pathEditDistance(P, pathOf({"w", "x", "y", "z"}), 2), 2u);
  // Length difference alone can prove the bound exceeded.
  std::vector<std::string> Long(20, "a");
  EXPECT_GT(pathEditDistance(P, Long, 8), 8u);
}

TEST(PathEditDistanceTest, RotationOfPeriodicPathStaysBounded) {
  // A kill sweep slices a steady-state loop at arbitrary points: the
  // resulting top-of-trace windows are rotations of the loop body. A
  // rotation by k costs at most 2k edits (k deletions + k insertions),
  // which is what sizes the near tier for truncated variants.
  std::vector<std::string> A, B;
  const char *Body[4] = {"l1", "l2", "l3", "l4"};
  for (int I = 0; I < 16; ++I)
    A.push_back(Body[I % 4]);
  for (int I = 2; I < 18; ++I) // Rotated by 2.
    B.push_back(Body[I % 4]);
  EXPECT_LE(pathEditDistance(A, B, 8), 4u);
}

//===----------------------------------------------------------------------===//
// Clustering
//===----------------------------------------------------------------------===//

TEST(ClustererTest, ExactAndNearTiers) {
  HandMade A;
  FaultSignature Base = extractSignature(A.Snap, A.Trace);

  // A torn variant: same fault, last two frames lost, torn-tail marker.
  HandMade T;
  T.Trace.Threads[0].Events.resize(4);
  T.Trace.Threads[0].TruncatedAt = 7;
  FaultSignature Torn = extractSignature(T.Snap, T.Trace);
  ASSERT_NE(Base.fingerprint(), Torn.fingerprint());

  // A different fault in the same module set: kind gate must hold even
  // though the paths are identical.
  HandMade D;
  D.Snap.FaultCodeValue = 2;
  D.Trace.Threads[0].Events.back().FaultCodeValue = 2;
  FaultSignature Div = extractSignature(D.Snap, D.Trace);

  MetricsRegistry Reg;
  SignatureClusterer C({}, &Reg);
  EXPECT_EQ(C.add(Base, "snap0"), 0u);
  EXPECT_EQ(C.add(Base, "snap1"), 0u) << "identical signature: exact tier";
  EXPECT_EQ(C.add(Torn, "snap2"), 0u) << "torn variant: near tier";
  EXPECT_EQ(C.add(Torn, "snap3"), 0u)
      << "second torn copy: exact tier via the near member's fingerprint";
  EXPECT_EQ(C.add(Div, "snap4"), 1u) << "different kind: never merged";
  ASSERT_EQ(C.size(), 2u);
  EXPECT_EQ(C.clusters()[0].Count, 4u);
  EXPECT_EQ(C.clusters()[0].ExactCount, 3u);
  EXPECT_EQ(C.clusters()[0].NearCount, 1u);
  EXPECT_EQ(C.clusters()[0].Labels.size(), 4u);
  EXPECT_EQ(Reg.counter("triage.signatures").value(), 5u);
  EXPECT_EQ(Reg.counter("triage.clusters").value(), 2u);
  EXPECT_EQ(Reg.counter("triage.exact_hits").value(), 2u);
  EXPECT_EQ(Reg.counter("triage.near_hits").value(), 1u);
}

TEST(ClustererTest, EmptyPathsNeverNearMatch) {
  // Header-level signatures (daemon ingest) have empty paths; kind+modules
  // alone must not near-merge distinct fingerprints (different markers,
  // say) — there is no path evidence that they are the same fault.
  SnapFile A;
  A.Reason = SnapReason::Hang;
  A.Modules.push_back(moduleInfo("app"));
  SnapFile B = A;
  B.ProcessName = "other";
  FaultSignature SA = extractSignature(A);
  FaultSignature SB = extractSignature(B);
  // Identical canonical content: still lands exact, not near.
  MetricsRegistry Reg;
  SignatureClusterer C({}, &Reg);
  C.add(SA);
  C.add(SB);
  EXPECT_EQ(C.size(), 1u);
  EXPECT_EQ(Reg.counter("triage.near_hits").value(), 0u);

  // Now a genuinely different empty-path signature of the same kind:
  // must open its own cluster, not near-join.
  FaultSignature SC = SA;
  SC.Markers.push_back("missing-peer");
  C.add(SC);
  EXPECT_EQ(C.size(), 2u);
  EXPECT_EQ(Reg.counter("triage.near_hits").value(), 0u);
}

TEST(ClustererTest, NearTierPrefersClosestThenEarliest) {
  FaultSignature A;
  A.Kind = "fault:k@m";
  A.Modules = {"m"};
  A.Path = pathOf({"a", "b", "c", "d", "e", "f"});
  FaultSignature B = A;
  B.Path = pathOf({"a", "b", "c", "x", "y", "z"}); // Distance 3 from A.
  ClusterOptions Tight;
  Tight.NearMaxDistance = 2;
  SignatureClusterer C(Tight, nullptr);
  C.add(A);
  C.add(B);
  ASSERT_EQ(C.size(), 2u) << "distance 3 exceeds the bound of 2";
  // Closest wins: distance 1 from A, 3 from B.
  FaultSignature P1 = A;
  P1.Path = pathOf({"a", "b", "c", "d", "e", "x"});
  EXPECT_EQ(C.add(P1), 0u);
  // Equidistant (2 from both representatives): the earliest cluster
  // wins, so the outcome never depends on arrival interleaving.
  FaultSignature P2 = A;
  P2.Path = pathOf({"a", "b", "c", "d", "y", "x"});
  EXPECT_EQ(C.add(P2), 0u);
}

TEST(ClustererTest, RankedOrderIsCountThenFirstSeen) {
  FaultSignature A, B, C;
  A.Kind = "fault:a@m";
  B.Kind = "fault:b@m";
  C.Kind = "fault:c@m";
  SignatureClusterer Cl;
  Cl.add(A);
  Cl.add(B);
  Cl.add(B);
  Cl.add(C);
  std::vector<size_t> Order = Cl.ranked();
  ASSERT_EQ(Order.size(), 3u);
  EXPECT_EQ(Cl.clusters()[Order[0]].Rep.Kind, "fault:b@m");
  // A and C tie at 1: first seen (A) ranks first — deterministically.
  EXPECT_EQ(Cl.clusters()[Order[1]].Rep.Kind, "fault:a@m");
  EXPECT_EQ(Cl.clusters()[Order[2]].Rep.Kind, "fault:c@m");
}

TEST(ClustererTest, RegressionsAgainstBaseline) {
  HandMade A;
  FaultSignature Known = extractSignature(A.Snap, A.Trace);
  HandMade N;
  N.Snap.FaultCodeValue = 2;
  N.Trace.Threads[0].Events.back().FaultCodeValue = 2;
  FaultSignature Novel = extractSignature(N.Snap, N.Trace);

  SignatureStore Baseline;
  Baseline.add(Known, "runA");

  // Run B sees the known fault (exactly), a torn variant of it (near a
  // baseline entry), and a novel fault.
  HandMade T;
  T.Trace.Threads[0].Events.resize(4);
  T.Trace.Threads[0].TruncatedAt = 3;
  FaultSignature Torn = extractSignature(T.Snap, T.Trace);

  SignatureClusterer C;
  C.add(Known);
  C.add(Novel);
  SignatureClusterer C2;
  C2.add(Torn);
  C2.add(Novel);

  std::vector<size_t> R1 = C.regressionsAgainst(Baseline);
  ASSERT_EQ(R1.size(), 1u);
  EXPECT_EQ(C.clusters()[R1[0]].Rep.Kind, Novel.Kind);

  std::vector<size_t> R2 = C2.regressionsAgainst(Baseline);
  ASSERT_EQ(R2.size(), 1u)
      << "a torn variant of a baseline fault is not a regression";
  EXPECT_EQ(C2.clusters()[R2[0]].Rep.Kind, Novel.Kind);

  // The report carries the regression section.
  std::string Report = renderTriageReport(C, &Baseline);
  EXPECT_NE(Report.find("REGRESSIONS vs baseline"), std::string::npos);
  EXPECT_NE(Report.find("NEW"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Signature store
//===----------------------------------------------------------------------===//

TEST(SignatureStoreTest, SerializeParseRoundTrip) {
  HandMade A;
  FaultSignature S1 = extractSignature(A.Snap, A.Trace);
  SnapFile Marker = missingPeerMarker("beta", 2);
  FaultSignature S2 = extractSignature(Marker);

  SignatureStore Store;
  Store.add(S1, "snap0");
  Store.add(S1, "snap1");
  Store.add(S2, "marker");
  ASSERT_EQ(Store.size(), 2u);
  EXPECT_EQ(Store.totalCount(), 3u);

  std::string Text = Store.serialize();
  SignatureStore Back;
  std::string Error;
  ASSERT_TRUE(SignatureStore::parse(Text, Back, Error)) << Error;
  ASSERT_EQ(Back.size(), 2u);
  EXPECT_EQ(Back.totalCount(), 3u);
  EXPECT_EQ(Back.serialize(), Text) << "round trip must be byte-stable";
  const SignatureStoreEntry *E = Back.byFingerprint(S1.fingerprint());
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(E->Count, 2u);
  EXPECT_EQ(E->Labels, pathOf({"snap0", "snap1"}));
  EXPECT_EQ(E->Sig, S1);
  EXPECT_TRUE(Back.contains(S2.fingerprint()));

  // Malformed inputs fail loudly.
  SignatureStore Bad;
  EXPECT_FALSE(SignatureStore::parse("nonsense", Bad, Error));
  EXPECT_FALSE(SignatureStore::parse("TBSIG v1\nsig 00\nkind x\n", Bad,
                                     Error))
      << "unterminated entry";
  EXPECT_FALSE(
      SignatureStore::parse("TBSIG v1\nkind x\nend\n", Bad, Error))
      << "fields outside an entry";
}

TEST(SignatureStoreTest, ConcatenatedStoresMergeAtParse) {
  HandMade A;
  FaultSignature S1 = extractSignature(A.Snap, A.Trace);
  SnapFile Marker = missingPeerMarker("gamma", 3);
  FaultSignature S2 = extractSignature(Marker);

  // Two stores' records under one header: a repeated fingerprint folds
  // into one entry whose count and labels add up.
  SignatureStore First, Second;
  First.add(S1, "app");
  Second.add(S1, "app2");
  Second.add(S2, "default");
  std::string SecondText = Second.serialize();
  std::string Text =
      First.serialize() + SecondText.substr(SecondText.find('\n') + 1);

  SignatureStore Back;
  std::string Error;
  ASSERT_TRUE(SignatureStore::parse(Text, Back, Error)) << Error;
  ASSERT_EQ(Back.size(), 2u) << "duplicate fingerprints merge at parse";
  const SignatureStoreEntry *E = Back.byFingerprint(S1.fingerprint());
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(E->Count, 2u);
  EXPECT_EQ(E->Labels, pathOf({"app", "app2"}));
  EXPECT_TRUE(Back.contains(S2.fingerprint()));
}

//===----------------------------------------------------------------------===//
// Real-workload integration
//===----------------------------------------------------------------------===//

namespace {

const char *CrashWorkload = R"(
fn main() export {
  var x = 1;
  var i = 0;
  while (i < 60) {
    x = x * 3 + 1;
    x = x % 1000003;
    i = i + 1;
    yield();
  }
  var p = 0;
  print(load(p));
}
)";

/// Runs \p Source to its crash/end and returns the deployment's last
/// snap with its map store kept alive in \p S.
const SnapFile &runToSnap(SingleProcess &S, const char *Source,
                          const char *Name = "app") {
  S.runModule(compileOrDie(Source, Name), /*Instrument=*/true);
  EXPECT_FALSE(S.D.snaps().empty());
  return S.D.snaps().back();
}

} // namespace

TEST(TriageIntegrationTest, SignatureStableAcrossJobsAndCache) {
  SingleProcess S;
  const SnapFile &Snap = runToSnap(S, CrashWorkload);
  ASSERT_EQ(Snap.Reason, SnapReason::Unhandled);

  // jobs {1,4} x cache {on,off}: reconstruction configuration must be
  // invisible in the signature, or triage would split clusters by which
  // collector box processed the snap.
  std::vector<FaultSignature> Sigs;
  for (int Jobs : {1, 4})
    for (bool Cache : {true, false}) {
      ReconstructOptions Opts;
      Opts.Cache.Enabled = Cache;
      Reconstructor R(S.D.maps(), Opts);
      ThreadPool Pool(static_cast<unsigned>(Jobs));
      ReconstructedTrace Trace =
          R.reconstruct(Snap, Jobs > 1 ? &Pool : nullptr);
      Sigs.push_back(extractSignature(Snap, Trace));
    }
  for (size_t I = 1; I < Sigs.size(); ++I) {
    EXPECT_EQ(Sigs[0], Sigs[I]) << "config " << I;
    EXPECT_EQ(Sigs[0].fingerprint(), Sigs[I].fingerprint());
  }
  EXPECT_EQ(Sigs[0].Kind, "fault:access violation@app");
  EXPECT_FALSE(Sigs[0].Path.empty());
}

//===----------------------------------------------------------------------===//
// Golden fixture
//===----------------------------------------------------------------------===//

TEST(TriageGoldenTest, SignatureAndReportMatchFixture) {
  // A deterministic crash, its canonical signature text, and a small
  // report over {crash x2, torn variant, missing-peer marker}: any change
  // to the normalization rules or report format shows up as a reviewable
  // fixture diff, never as silent drift. Regenerate deliberately with
  // TRACEBACK_REGEN_GOLDEN=1.
  const std::string Path =
      std::string(TB_TESTS_DIR) + "/golden/triage_fixture.txt";

  SingleProcess S;
  const SnapFile &Snap = runToSnap(S, CrashWorkload, "fixtureapp");
  ReconstructedTrace Trace = S.D.reconstruct(Snap);
  FaultSignature Sig = extractSignature(Snap, Trace);

  ReconstructedTrace Torn = Trace;
  for (ThreadTrace &T : Torn.Threads) {
    if (T.Events.size() > 3)
      T.Events.resize(T.Events.size() - 3);
    T.TruncatedAt = 0;
  }
  FaultSignature TornSig = extractSignature(Snap, Torn);
  FaultSignature Marker = extractSignature(missingPeerMarker("beta", 2));

  SignatureClusterer C;
  C.add(Sig, "snap0");
  C.add(Sig, "snap1");
  C.add(TornSig, "snap2");
  C.add(Marker, "marker0");

  std::string Rendered = "== canonical signature ==\n";
  Rendered += Sig.canonicalText();
  Rendered += formatv("fingerprint %016llx\n",
                      static_cast<unsigned long long>(Sig.fingerprint()));
  Rendered += "== triage report ==\n";
  Rendered += renderTriageReport(C);

  if (std::getenv("TRACEBACK_REGEN_GOLDEN")) {
    ASSERT_TRUE(writeFileText(Path, Rendered)) << Path;
    GTEST_SKIP() << "regenerated golden triage fixture " << Path;
  }
  std::string Expected;
  ASSERT_TRUE(readFileText(Path, Expected))
      << "missing fixture " << Path
      << " — regenerate with TRACEBACK_REGEN_GOLDEN=1";
  EXPECT_EQ(Rendered, Expected)
      << "signature normalization or report format drifted from the "
         "golden fixture";
}

//===----------------------------------------------------------------------===//
// The headline: 200-seed labeled precision/recall sweep
//===----------------------------------------------------------------------===//

namespace {

/// One labeled scenario of the sweep. Module names are distinct per
/// scenario so the kind+modules gate is part of what the sweep measures.
struct SweepScenario {
  const char *ModuleName;
  const char *Source;
  bool Kill; ///< Injected kill (near-tier food) vs deterministic crash.
};

const char *SegvWorkload = R"(
fn main() export {
  var x = 1;
  var i = 0;
  while (i < 60) {
    x = x * 3 + 1;
    i = i + 1;
    yield();
  }
  var p = 0;
  print(load(p));
}
)";

const char *DivZeroWorkload = R"(
fn main() export {
  var x = 7;
  var i = 0;
  while (i < 60) {
    x = x * 5 + 3;
    i = i + 1;
    yield();
  }
  var z = 0;
  print(x / z);
}
)";

// Short loop bodies keep the rotation distance of sliced kill windows
// well inside the near bound. No yield(): the scheduler's fixed
// instruction quantum then preempts at arbitrary loop phases, so
// different kill slices cut the top-of-trace window at different lines
// (rotated variants — the near tier's food). With a yield() every slice
// boundary would align with it and every kill window would be identical.
const char *KillWorkload1 = R"(
fn main() export {
  var x = 1;
  var i = 0;
  while (i < 3000) {
    x = x * 3 + 1;
    i = i + 1;
  }
  print(x);
}
)";

const char *KillWorkload2 = R"(
fn main() export {
  var y = 2;
  var j = 0;
  while (j < 3000) {
    y = y * 7 + 5;
    j = j + 1;
  }
  print(y);
}
)";

const SweepScenario Scenarios[4] = {
    {"appa", SegvWorkload, false},
    {"appb", DivZeroWorkload, false},
    {"appw1", KillWorkload1, true},
    {"appw2", KillWorkload2, true},
};

} // namespace

TEST(TriageSweepTest, LabeledPrecisionRecallSweep) {
  // Ground truth: the FaultInjector plan (or deterministic guest fault)
  // that produced each snap labels it; clustering is scored against those
  // labels pairwise. Precision: of the pairs triage put in one cluster,
  // how many are truly the same fault. Recall: of the truly-same-fault
  // pairs, how many triage reunited.
  const int NumSeeds = 200;

  // Per-scenario golden slice counts scope the kill triggers to the
  // loop's steady state (the second half): a kill during prologue leaves
  // a top-of-trace window the near tier has no business matching.
  uint64_t GoldenSlices[4] = {0, 0, 0, 0};
  for (int Sc = 2; Sc < 4; ++Sc) {
    SingleProcess G;
    EXPECT_EQ(G.runModule(compileOrDie(Scenarios[Sc].Source,
                                       Scenarios[Sc].ModuleName),
                          true),
              World::RunResult::AllExited);
    GoldenSlices[Sc] = G.D.world().slices();
    ASSERT_GT(GoldenSlices[Sc], 20u);
  }

  struct Labeled {
    FaultSignature Sig;
    SnapFile Snap; ///< Kept for the second (re-extraction) pass.
    int Scenario;
  };
  std::vector<Labeled> Collected;
  std::vector<MapFile> ScenarioMaps[4];

  Rng Seeds(testSeed() ^ 0x771a6eULL);

  for (int Run = 0; Run < NumSeeds; ++Run) {
    uint64_t Seed = Seeds.next();
    int Sc = Run % 4;
    const SweepScenario &Scenario = Scenarios[Sc];

    SingleProcess S;
    FaultPlan Plan;
    Plan.Seed = Seed;
    if (Scenario.Kill) {
      // The kill lands in the loop's steady state (the later half of the
      // golden run): prologue slices would leave top-of-trace windows
      // the near tier has no business matching.
      Rng R(Seed);
      uint64_t Half = GoldenSlices[Sc] / 2;
      Plan.Events.push_back(
          {FaultKind::KillProcess, Half + R.below(Half), 0});
    }
    FaultInjector FI(Plan);
    if (Scenario.Kill)
      S.D.world().Injector = &FI;
    S.runModule(compileOrDie(Scenario.Source, Scenario.ModuleName), true);

    SnapFile Snap;
    if (Scenario.Kill) {
      ASSERT_TRUE(S.P->HardKilled) << "seed " << Seed;
      auto PM = S.D.daemonFor(*S.M)->collectPostMortem(*S.P);
      ASSERT_EQ(PM.size(), 1u) << "seed " << Seed;
      Snap = *PM[0];
    } else {
      // The unhandled-fault snap (the run also leaves an Exception snap;
      // one per run keeps the pair counting honest).
      bool Found = false;
      for (const SnapFile &Sn : S.D.snaps())
        if (Sn.Reason == SnapReason::Unhandled) {
          Snap = Sn;
          Found = true;
        }
      ASSERT_TRUE(Found) << "seed " << Seed;
    }
    if (ScenarioMaps[Sc].empty())
      for (const MapFile &M : S.D.maps().all())
        ScenarioMaps[Sc].push_back(M);

    ReconstructedTrace Trace = S.D.reconstruct(Snap);
    Labeled L;
    L.Sig = extractSignature(Snap, Trace);
    if (Scenario.Kill && L.Sig.Path.empty())
      continue; // Killed before any commit: nothing to triage.
    L.Snap = Snap;
    L.Scenario = Sc;
    Collected.push_back(std::move(L));
  }
  ASSERT_GT(Collected.size(), 180u)
      << "second-half kill triggers should almost always leave a trace";

  // Cluster in arrival order.
  MetricsRegistry Reg;
  SignatureClusterer Clusterer({}, &Reg);
  std::vector<size_t> ClusterOf;
  for (const Labeled &L : Collected)
    ClusterOf.push_back(
        Clusterer.add(L.Sig, formatv("s%d", L.Scenario)));
  EXPECT_EQ(Reg.counter("triage.signatures").value(), Collected.size());
  EXPECT_GT(Reg.counter("triage.near_hits").value(), 0u)
      << "kill scenarios must exercise the near tier";

  // Pairwise precision / recall against the injected ground truth.
  uint64_t SameClusterSameLabel = 0, SameClusterPairs = 0,
           SameLabelPairs = 0;
  for (size_t I = 0; I < Collected.size(); ++I)
    for (size_t J = I + 1; J < Collected.size(); ++J) {
      bool SameCluster = ClusterOf[I] == ClusterOf[J];
      bool SameLabel = Collected[I].Scenario == Collected[J].Scenario;
      SameClusterPairs += SameCluster;
      SameLabelPairs += SameLabel;
      SameClusterSameLabel += SameCluster && SameLabel;
    }
  ASSERT_GT(SameClusterPairs, 0u);
  ASSERT_GT(SameLabelPairs, 0u);
  double Precision = static_cast<double>(SameClusterSameLabel) /
                     static_cast<double>(SameClusterPairs);
  double Recall = static_cast<double>(SameClusterSameLabel) /
                  static_cast<double>(SameLabelPairs);
  std::printf("[ triage sweep: %zu snaps, %zu clusters, precision %.4f, "
              "recall %.4f ]\n",
              Collected.size(), Clusterer.size(), Precision, Recall);
  EXPECT_GE(Precision, 0.95)
      << "different injected faults are being merged";
  EXPECT_GE(Recall, 0.90) << "same injected fault is being split";

  // Determinism: re-extract every signature from the kept snap bytes
  // under a different reconstruction configuration (4 jobs, cache off)
  // and re-cluster — the rendered report must be byte-identical. This is
  // the "same seeds => byte-identical triage report" guarantee, and at
  // sweep scale it subsumes the jobs/cache stability property.
  std::string ReportA = renderTriageReport(Clusterer);
  MapFileStore Stores[4];
  for (int Sc = 0; Sc < 4; ++Sc)
    for (const MapFile &M : ScenarioMaps[Sc])
      Stores[Sc].add(M);
  ReconstructOptions Opts;
  Opts.Cache.Enabled = false;
  ThreadPool Pool(4);
  SignatureClusterer Clusterer2;
  for (const Labeled &L : Collected) {
    Reconstructor R(Stores[L.Scenario], Opts);
    ReconstructedTrace Trace = R.reconstruct(L.Snap, &Pool);
    FaultSignature Sig = extractSignature(L.Snap, Trace);
    EXPECT_EQ(Sig.fingerprint(), L.Sig.fingerprint())
        << "signature changed across reconstruction configs";
    Clusterer2.add(Sig, formatv("s%d", L.Scenario));
  }
  std::string ReportB = renderTriageReport(Clusterer2);
  EXPECT_EQ(ReportA, ReportB)
      << "triage report must be byte-identical across reconstruction "
         "configurations";

  // And the store round-trips the whole sweep byte-stably.
  SignatureStore Store;
  for (const Labeled &L : Collected)
    Store.add(L.Sig, formatv("s%d", L.Scenario));
  std::string Text = Store.serialize();
  SignatureStore Back;
  std::string Error;
  ASSERT_TRUE(SignatureStore::parse(Text, Back, Error)) << Error;
  EXPECT_EQ(Back.serialize(), Text);
}
