//===- tests/test_policy.cpp - Policy & DAG-base-file tests ---------------===//
//
// Part of the TraceBack reproduction project (paper sections 2.3, 3.6).
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "runtime/DagBaseFile.h"
#include "runtime/Policy.h"

#include <gtest/gtest.h>

using namespace traceback;
using namespace traceback::testing_helpers;

TEST(PolicyTest, ParseFull) {
  std::string Text = R"(
# buffers
buffer_bytes 4096
buffer_count 2
sub_buffers 8
# triggers
snap_on exception
snap_on trap 3
snap_on trap 9
snap_on signal 11
snap_on unhandled
snap_on exit
snap_on api
suppress_repeats 2
timestamp_interval 5
)";
  RtPolicy P;
  std::string Error;
  ASSERT_TRUE(RtPolicy::parse(Text, P, Error)) << Error;
  EXPECT_EQ(P.BufferBytes, 4096u);
  EXPECT_EQ(P.BufferCount, 2u);
  EXPECT_EQ(P.SubBufferCount, 8u);
  EXPECT_TRUE(P.SnapOnAnyException);
  EXPECT_EQ(P.SnapOnTrapCodes, (std::set<uint16_t>{3, 9}));
  EXPECT_EQ(P.SnapOnSignals, (std::set<int>{11}));
  EXPECT_TRUE(P.SnapOnUnhandled);
  EXPECT_TRUE(P.SnapOnExit);
  EXPECT_TRUE(P.SnapOnApi);
  EXPECT_EQ(P.SuppressRepeats, 2u);
  EXPECT_EQ(P.TimestampInterval, 5u);
}

TEST(PolicyTest, RoundTripThroughText) {
  RtPolicy P;
  P.BufferBytes = 12345;
  P.SnapOnTrapCodes = {7};
  P.SnapOnSignals = {2, 15};
  P.SnapOnExit = true;
  P.SuppressRepeats = 9;
  RtPolicy Back;
  std::string Error;
  ASSERT_TRUE(RtPolicy::parse(P.toText(), Back, Error)) << Error;
  EXPECT_EQ(Back.BufferBytes, P.BufferBytes);
  EXPECT_EQ(Back.SnapOnTrapCodes, P.SnapOnTrapCodes);
  EXPECT_EQ(Back.SnapOnSignals, P.SnapOnSignals);
  EXPECT_EQ(Back.SnapOnExit, P.SnapOnExit);
  EXPECT_EQ(Back.SuppressRepeats, P.SuppressRepeats);
}

TEST(PolicyTest, Diagnostics) {
  RtPolicy P;
  std::string Error;
  EXPECT_FALSE(RtPolicy::parse("buffer_bytes tiny\n", P, Error));
  EXPECT_NE(Error.find("line 1"), std::string::npos);
  EXPECT_FALSE(RtPolicy::parse("snap_on quakes\n", P, Error));
  EXPECT_FALSE(RtPolicy::parse("warp_drive on\n", P, Error));
  EXPECT_FALSE(RtPolicy::parse("buffer_bytes 8\n", P, Error))
      << "below minimum";
}

TEST(PolicyTest, TrapTriggerSelectsSpecificCode) {
  // Policy snaps only on trap code 5; other traps do not snap.
  SingleProcess S;
  std::string Error;
  ASSERT_TRUE(RtPolicy::parse("snap_on trap 5\nsuppress_repeats 10\n",
                              S.D.Policy, Error));
  Module M = compileOrDie(R"(
fn main() export {
  try { throw 4; } catch { }
  try { throw 5; } catch { }
  try { throw 5; } catch { }
}
)");
  S.runModule(M, true);
  EXPECT_EQ(S.D.snaps().size(), 2u) << "two trap-5 sites... same site: "
                                       "loop-free so distinct throws";
  for (const SnapFile &Snap : S.D.snaps())
    EXPECT_EQ(Snap.ReasonDetail,
              static_cast<uint16_t>(FaultCode::UserTrapBase) + 5);
}

TEST(PolicyTest, TimestampIntervalZeroDisables) {
  SingleProcess S;
  S.D.Policy.TimestampInterval = 0;
  Module M = compileOrDie(R"(
fn main() export {
  for (var i = 0; i < 10; i = i + 1) { yield(); }
  snap(1);
}
)");
  S.runModule(M, true);
  ReconstructedTrace T = S.D.reconstruct(S.D.snaps().back());
  for (const ThreadTrace &Th : T.Threads)
    for (const TraceEvent &E : Th.Events)
      EXPECT_EQ(E.Timestamp, 0u) << "no timestamps should be recorded";
}

TEST(DagBaseFileTest, ParseAndQuery) {
  std::string Text = "# tree-wide bases\nmoda 1000\nmodb 5000\n";
  DagBaseFile F;
  std::string Error;
  ASSERT_TRUE(DagBaseFile::parse(Text, F, Error)) << Error;
  EXPECT_EQ(F.baseFor("moda"), 1000u);
  EXPECT_EQ(F.baseFor("modb"), 5000u);
  EXPECT_EQ(F.baseFor("ghost"), 0u);
  DagBaseFile Back;
  ASSERT_TRUE(DagBaseFile::parse(F.toText(), Back, Error));
  EXPECT_EQ(Back.baseFor("moda"), 1000u);
  EXPECT_FALSE(DagBaseFile::parse("mod\n", F, Error));
  EXPECT_FALSE(DagBaseFile::parse("mod 0\n", F, Error));
}

TEST(DagBaseFileTest, AvoidsRebasingAtLoad) {
  // With a base file assigning disjoint ranges, no load-time rebasing
  // happens even though the modules' compiled defaults collide.
  SingleProcess S;
  S.D.BaseFile.assign("moda", 10000);
  S.D.BaseFile.assign("modb", 20000);
  InstrumentOptions Opts;
  Opts.DagIdBase = 7777; // Same compiled default for both.
  Module A = compileOrDie("fn fa() export { return 1; }", "moda");
  Module B = compileOrDie("fn fb() export { return 2; }", "modb");
  std::string Error;
  LoadedModule *LA = S.D.deploy(*S.P, A, true, Opts, Error);
  LoadedModule *LB = S.D.deploy(*S.P, B, true, Opts, Error);
  ASSERT_NE(LA, nullptr);
  ASSERT_NE(LB, nullptr);
  EXPECT_EQ(LA->Mod.DagIdBase, 10000u);
  EXPECT_EQ(LB->Mod.DagIdBase, 20000u);
  EXPECT_EQ(S.count("runtime.modules_rebased"), 0u)
      << "base file pre-coordination avoids the rebasing penalty";
}
