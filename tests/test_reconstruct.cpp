//===- tests/test_reconstruct.cpp - Reconstruction unit tests -------------===//
//
// Part of the TraceBack reproduction project (paper section 4).
//
//===----------------------------------------------------------------------===//

#include "ReconstructHelpers.h"
#include "reconstruct/RecordRecovery.h"
#include "reconstruct/Reconstructor.h"
#include "reconstruct/Views.h"
#include "vm/Fault.h"

#include <gtest/gtest.h>

using namespace traceback;
using namespace traceback::testing_helpers;

TEST(LinearizeTest, RingOrderAndSentinelStripping) {
  std::vector<uint32_t> Words = {1, 2, 3, SentinelRecord, 5, 6};
  // Frontier at index 1 (newest = 2): oldest-first = 3,5,6,1,2.
  std::vector<uint32_t> Out = linearizeRing(Words, 1);
  EXPECT_EQ(Out, (std::vector<uint32_t>{3, 5, 6, 1, 2}));
}

TEST(RecoveryTest, CleanCursorFrontier) {
  std::vector<uint32_t> Data;
  append(Data, threadStart(7));
  Data.push_back(makeDagRecord(10));
  Data.push_back(makeDagRecord(11) | 1);
  SnapBufferImage B = makeBuffer(Data, 16, 2, UINT32_MAX, 7);
  // Thread cursor points at the last written word.
  SnapThreadInfo TI;
  TI.ThreadId = 7;
  TI.Cursor = 0x1000 + (Data.size() - 1) * 4;
  std::vector<std::string> Warnings;
  auto Segments = recoverBufferRecords(B, {TI}, Warnings);
  ASSERT_EQ(Segments.size(), 1u);
  EXPECT_EQ(Segments[0].ThreadId, 7u);
  EXPECT_FALSE(Segments[0].Truncated);
  ASSERT_EQ(Segments[0].Records.size(), 3u);
  EXPECT_EQ(Segments[0].Records[1].DagWord, makeDagRecord(10));
  EXPECT_EQ(Segments[0].Records[2].DagWord, makeDagRecord(11) | 1);
}

TEST(RecoveryTest, AbruptTerminationUsesCommitScan) {
  // No cursor info: frontier found via committed index + last-non-zero.
  std::vector<uint32_t> Data;
  append(Data, threadStart(3));
  for (int I = 0; I < 20; ++I)
    Data.push_back(makeDagRecord(100 + I));
  SnapBufferImage B = makeBuffer(Data, 16, 4, /*Committed=*/0, 3);
  std::vector<std::string> Warnings;
  auto Segments = recoverBufferRecords(B, {}, Warnings);
  ASSERT_EQ(Segments.size(), 1u);
  // Records in sub 0 (15 slots) and the active sub-buffer are recovered.
  EXPECT_GE(Segments[0].Records.size(), 20u);
}

TEST(RecoveryTest, MultipleThreadLifetimesSplit) {
  std::vector<uint32_t> Data;
  append(Data, threadStart(2));
  Data.push_back(makeDagRecord(10));
  append(Data, threadEnd(2));
  append(Data, threadStart(4));
  Data.push_back(makeDagRecord(11));
  Data.push_back(makeDagRecord(12));
  SnapBufferImage B = makeBuffer(Data, 32, 2, UINT32_MAX, 4);
  SnapThreadInfo TI;
  TI.ThreadId = 4;
  TI.Cursor = 0x1000 + (Data.size() - 1) * 4;
  std::vector<std::string> Warnings;
  auto Segments = recoverBufferRecords(B, {TI}, Warnings);
  ASSERT_EQ(Segments.size(), 2u);
  EXPECT_EQ(Segments[0].ThreadId, 2u);
  EXPECT_EQ(Segments[1].ThreadId, 4u);
  EXPECT_EQ(Segments[0].Records.size(), 3u); // start, dag, end
  EXPECT_EQ(Segments[1].Records.size(), 3u); // start, dag, dag
}

TEST(RecoveryTest, SeamTornRecordRepaired) {
  // Simulate ring overwrite: an ext record whose header was overwritten
  // leaves orphan continuation words at the oldest end.
  std::vector<uint32_t> Orphans = threadStart(9);
  std::vector<uint32_t> Data;
  // Drop the header, keep continuations (torn record).
  for (size_t I = 1; I < Orphans.size(); ++I)
    Data.push_back(Orphans[I]);
  Data.push_back(makeDagRecord(42));
  SnapBufferImage B = makeBuffer(Data, 32, 2, UINT32_MAX, 9);
  SnapThreadInfo TI;
  TI.ThreadId = 9;
  TI.Cursor = 0x1000 + (Data.size() - 1) * 4;
  std::vector<std::string> Warnings;
  auto Segments = recoverBufferRecords(B, {TI}, Warnings);
  ASSERT_EQ(Segments.size(), 1u);
  EXPECT_TRUE(Segments[0].Truncated);
  ASSERT_EQ(Segments[0].Records.size(), 1u);
  EXPECT_EQ(Segments[0].Records[0].DagWord, makeDagRecord(42));
  EXPECT_FALSE(Warnings.empty());
}

TEST(RecoveryTest, EmptyBufferYieldsNothing) {
  SnapBufferImage B = makeBuffer({}, 16, 2, UINT32_MAX, 0);
  std::vector<std::string> Warnings;
  EXPECT_TRUE(recoverBufferRecords(B, {}, Warnings).empty());
}

// ---------------------------------------------------------------------------
// Reconstructor with a synthetic mapfile.
// ---------------------------------------------------------------------------

namespace {
/// One module, one DAG: header block (lines 1-2, ends in call), then a
/// conditional with two arm blocks (line 3 / line 4) joining (line 5).
MapFile syntheticMap(MD5Digest Sum) {
  MapFile Map;
  Map.ModuleName = "synth";
  Map.Checksum = Sum;
  Map.DagIdBase = 100;
  Map.DagIdCount = 1;
  Map.Files = {"synth.c"};
  MapDag D;
  D.RelId = 0;
  MapBlock Header;
  Header.StartOffset = 0;
  Header.EndOffset = 20;
  Header.Flags = MBF_FuncEntry;
  Header.Function = "f";
  Header.Lines = {{0, 1, 0}, {0, 2, 10}};
  Header.Succs = {1, 2};
  MapBlock Then;
  Then.StartOffset = 20;
  Then.EndOffset = 30;
  Then.BitIndex = 0;
  Then.Function = "f";
  Then.Lines = {{0, 3, 20}};
  Then.Succs = {3};
  MapBlock Else;
  Else.StartOffset = 30;
  Else.EndOffset = 40;
  Else.BitIndex = 1;
  Else.Function = "f";
  Else.Lines = {{0, 4, 30}};
  Else.Succs = {3};
  MapBlock Join;
  Join.StartOffset = 40;
  Join.EndOffset = 50;
  Join.BitIndex = 2;
  Join.Function = "f";
  Join.Lines = {{0, 5, 40}};
  Join.Flags = MBF_EndsInRet;
  D.Blocks = {Header, Then, Else, Join};
  Map.Dags.push_back(D);
  return Map;
}

SnapFile syntheticSnap(const std::vector<uint32_t> &Words, MD5Digest Sum) {
  SnapFile Snap;
  Snap.ProcessName = "p";
  Snap.MachineName = "m";
  Snap.RuntimeId = 777;
  SnapModuleInfo MI;
  MI.Name = "synth";
  MI.Checksum = Sum;
  MI.DagIdBase = 100;
  MI.DagIdCount = 1;
  MI.Instrumented = true;
  Snap.Modules.push_back(MI);
  SnapBufferImage B = makeBuffer(Words, 64, 2, UINT32_MAX, 1);
  Snap.Buffers.push_back(B);
  SnapThreadInfo TI;
  TI.ThreadId = 1;
  TI.Cursor = 0x1000 + (Words.size() - 1) * 4;
  Snap.Threads.push_back(TI);
  return Snap;
}
} // namespace

TEST(ReconstructorTest, DagToLines) {
  MD5Digest Sum = MD5::hash("synth", 5);
  MapFileStore Store;
  Store.add(syntheticMap(Sum));
  std::vector<uint32_t> Words;
  append(Words, threadStart(1));
  Words.push_back(makeDagRecord(100) | 0b101); // then-arm + join
  SnapFile Snap = syntheticSnap(Words, Sum);
  Reconstructor R(Store);
  ReconstructedTrace T = R.reconstruct(Snap);
  ASSERT_EQ(T.Threads.size(), 1u);
  auto Lines = [&] {
    std::vector<uint32_t> L;
    for (const TraceEvent &E : T.Threads[0].Events)
      if (E.EventKind == TraceEvent::Kind::Line)
        L.push_back(E.Line);
    return L;
  }();
  EXPECT_EQ(Lines, (std::vector<uint32_t>{1, 2, 3, 5}));
}

TEST(ReconstructorTest, ExceptionTrimsWithinBlock) {
  MD5Digest Sum = MD5::hash("synth", 5);
  MapFileStore Store;
  Store.add(syntheticMap(Sum));
  std::vector<uint32_t> Words;
  append(Words, threadStart(1));
  Words.push_back(makeDagRecord(100)); // Header only (lines 1,2)...
  // Exception at offset 5 = inside line 1's span (line 2 starts at 10).
  append(Words, encodeExtRecord({ExtType::Exception,
                                 static_cast<uint16_t>(FaultCode::Segv),
                                 {Sum.low64(), 5, 123}}));
  SnapFile Snap = syntheticSnap(Words, Sum);
  Reconstructor R(Store);
  ReconstructedTrace T = R.reconstruct(Snap);
  ASSERT_EQ(T.Threads.size(), 1u);
  std::vector<uint32_t> Lines;
  for (const TraceEvent &E : T.Threads[0].Events)
    if (E.EventKind == TraceEvent::Kind::Line)
      Lines.push_back(E.Line);
  EXPECT_EQ(Lines, (std::vector<uint32_t>{1}))
      << "line 2 starts after the fault offset and must be trimmed";
}

TEST(ReconstructorTest, EventArrayIsSizedOnce) {
  // The pipeline sizes each thread's event array from its decoded paths
  // before writing: with nothing to collapse or trim, the trace holds
  // exactly its events, with no growth slack.
  MD5Digest Sum = MD5::hash("synth", 5);
  MapFileStore Store;
  Store.add(syntheticMap(Sum));
  std::vector<uint32_t> Words;
  append(Words, threadStart(1));
  Words.push_back(makeDagRecord(100) | 0b101); // Lines 1, 2, 3, 5.
  Words.push_back(makeDagRecord(100) | 0b110); // Lines 1, 2, 4, 5.
  append(Words, encodeExtRecord({ExtType::Timestamp, 0, {40}}));
  Words.push_back(makeDagRecord(100));         // Lines 1, 2.
  SnapFile Snap = syntheticSnap(Words, Sum);
  Reconstructor R(Store);
  ReconstructedTrace T = R.reconstruct(Snap);
  ASSERT_EQ(T.Threads.size(), 1u);
  const std::vector<TraceEvent> &Events = T.Threads[0].Events;
  EXPECT_EQ(Events.size(), 11u) << "thread start plus ten lines";
  EXPECT_EQ(Events.capacity(), Events.size());
}

TEST(ReconstructorTest, UnknownModuleWarns) {
  MD5Digest Sum = MD5::hash("synth", 5);
  MapFileStore Store; // Empty: no mapfile.
  std::vector<uint32_t> Words;
  append(Words, threadStart(1));
  Words.push_back(makeDagRecord(100));
  SnapFile Snap = syntheticSnap(Words, Sum);
  Reconstructor R(Store);
  ReconstructedTrace T = R.reconstruct(Snap);
  EXPECT_FALSE(T.Warnings.empty());
  ASSERT_EQ(T.Threads.size(), 1u);
  bool Untraced = false;
  for (const TraceEvent &E : T.Threads[0].Events)
    if (E.EventKind == TraceEvent::Kind::Untraced)
      Untraced = true;
  EXPECT_TRUE(Untraced);
}

TEST(ReconstructorTest, CorruptPathBitsWarn) {
  MD5Digest Sum = MD5::hash("synth", 5);
  MapFileStore Store;
  Store.add(syntheticMap(Sum));
  std::vector<uint32_t> Words;
  append(Words, threadStart(1));
  Words.push_back(makeDagRecord(100) | 0b011); // Both arms: impossible.
  SnapFile Snap = syntheticSnap(Words, Sum);
  Reconstructor R(Store);
  ReconstructedTrace T = R.reconstruct(Snap);
  bool Warned = false;
  for (const std::string &W : T.Warnings)
    if (W.find("do not decode") != std::string::npos)
      Warned = true;
  EXPECT_TRUE(Warned);
}
