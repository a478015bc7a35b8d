//===- tests/test_views.cpp - Display layer tests -------------------------===//
//
// Part of the TraceBack reproduction project (paper section 4.3).
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "instrument/MapFile.h"
#include "reconstruct/Stitch.h"
#include "support/Text.h"
#include "vm/Fault.h"

#include <gtest/gtest.h>

using namespace traceback;
using namespace traceback::testing_helpers;

namespace {
ThreadTrace makeTrace(uint64_t Tid, std::initializer_list<TraceEvent> Evs) {
  ThreadTrace T;
  T.ThreadId = Tid;
  T.RuntimeId = 42;
  T.MachineName = "m";
  T.ProcessName = "p";
  T.Events = Evs;
  return T;
}

TraceEvent line(const char *File, uint32_t Line, uint32_t Depth = 0,
                uint64_t Ts = 0, uint32_t Repeat = 1) {
  TraceEvent E;
  E.EventKind = TraceEvent::Kind::Line;
  E.Module = "mod";
  E.File = File;
  E.Function = "f";
  E.Line = Line;
  E.Depth = Depth;
  E.Timestamp = Ts;
  E.Repeat = Repeat;
  return E;
}
} // namespace

TEST(ViewsTest, FlatTraceShowsRepeatAndTruncation) {
  ThreadTrace T = makeTrace(3, {line("a.c", 10, 0, 0, 7)});
  T.Truncated = true;
  std::string S = renderFlatTrace(T);
  EXPECT_NE(S.find("thread 3"), std::string::npos);
  EXPECT_NE(S.find("a.c:10"), std::string::npos);
  EXPECT_NE(S.find("(x7)"), std::string::npos);
  EXPECT_NE(S.find("older history overwritten"), std::string::npos);
}

TEST(ViewsTest, CallTreeIndentsByDepth) {
  ThreadTrace T =
      makeTrace(1, {line("a.c", 1, 0), line("a.c", 2, 1), line("a.c", 3, 2)});
  std::string S = renderCallTree(T);
  size_t P1 = S.find("a.c:1");
  size_t P2 = S.find("a.c:2");
  size_t P3 = S.find("a.c:3");
  ASSERT_NE(P1, std::string::npos);
  ASSERT_NE(P2, std::string::npos);
  ASSERT_NE(P3, std::string::npos);
  // Deeper lines start further from their line's beginning.
  auto ColOf = [&](size_t Pos) {
    size_t Nl = S.rfind('\n', Pos);
    return Pos - (Nl == std::string::npos ? 0 : Nl);
  };
  EXPECT_LT(ColOf(P1), ColOf(P2));
  EXPECT_LT(ColOf(P2), ColOf(P3));
}

TEST(ViewsTest, MultiThreadOrdersByTimestamp) {
  ThreadTrace A = makeTrace(1, {line("a.c", 1, 0, 100),
                                line("a.c", 2, 0, 300)});
  ThreadTrace B = makeTrace(2, {line("b.c", 9, 0, 200)});
  std::string S = renderMultiThread({&A, &B});
  size_t P1 = S.find("a.c:1");
  size_t P9 = S.find("b.c:9");
  size_t P2 = S.find("a.c:2");
  ASSERT_NE(P1, std::string::npos);
  ASSERT_NE(P9, std::string::npos);
  ASSERT_NE(P2, std::string::npos);
  EXPECT_LT(P1, P9);
  EXPECT_LT(P9, P2) << "interleaving must respect corrected time";
}

TEST(ViewsTest, TimelineMonotonicPerThread) {
  // Events lacking timestamps inherit order; merged timeline never
  // reorders events within one thread.
  ThreadTrace A = makeTrace(
      1, {line("a.c", 1, 0, 50), line("a.c", 2, 0, 0), line("a.c", 3, 0, 60),
          line("a.c", 4, 0, 0)});
  ReconstructedTrace Holder;
  Holder.Threads.push_back(A);
  DistributedStitcher St;
  St.addTrace(Holder);
  auto Timeline = St.mergeTimeline();
  ASSERT_EQ(Timeline.size(), 4u);
  size_t LastIdx = 0;
  for (const auto &E : Timeline) {
    EXPECT_GE(E.EventIndex + 1, LastIdx + 1);
    LastIdx = E.EventIndex;
  }
}

TEST(ViewsTest, FaultViewPicksFaultingThread) {
  SnapFile Snap;
  Snap.Reason = SnapReason::Unhandled;
  Snap.FaultThread = 2;
  Snap.FaultCodeValue = 1; // Segv.
  ReconstructedTrace T;
  T.Threads.push_back(makeTrace(1, {line("a.c", 1)}));
  T.Threads.push_back(makeTrace(2, {line("b.c", 7)}));
  std::string S = renderFaultView(Snap, T);
  EXPECT_NE(S.find("thread 2"), std::string::npos);
  EXPECT_NE(S.find("b.c:7"), std::string::npos);
  EXPECT_EQ(S.find("a.c:1"), std::string::npos)
      << "only the faulting thread's tree";
  EXPECT_NE(S.find("access violation"), std::string::npos);
}

TEST(ViewsTest, SignalCodesRenderAsSignals) {
  ThreadTrace T = makeTrace(1, {});
  TraceEvent E;
  E.EventKind = TraceEvent::Kind::Exception;
  E.FaultCodeValue = 0x8000 | 11;
  T.Events.push_back(E);
  std::string S = renderFlatTrace(T);
  EXPECT_NE(S.find("signal 11"), std::string::npos);
}

TEST(ViewsTest, EmptyMemoryDumpExplainsItself) {
  SnapFile Snap;
  EXPECT_NE(renderMemoryDump(Snap).find("capture_memory"),
            std::string::npos);
}

TEST(StitchTest, GapInSequenceWarns) {
  // CallSend seq 1 ... ReplyRecv seq 4 with 2,3 lost (ring overwrite).
  TraceEvent S1;
  S1.EventKind = TraceEvent::Kind::Sync;
  S1.Sync = SyncKind::CallSend;
  S1.LogicalThreadId = 7;
  S1.Sequence = 1;
  TraceEvent S4 = S1;
  S4.Sync = SyncKind::ReplyRecv;
  S4.Sequence = 4;
  ThreadTrace A = makeTrace(1, {S1, S4});
  ReconstructedTrace Holder;
  Holder.Threads.push_back(A);
  DistributedStitcher St;
  St.addTrace(Holder);
  std::vector<std::string> Warnings;
  auto Logical = St.stitch(Warnings);
  ASSERT_EQ(Logical.size(), 1u);
  ASSERT_FALSE(Warnings.empty());
  EXPECT_NE(Warnings[0].find("gap"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Byte-identity oracle: every view against the printf renderer it replaced.
//===----------------------------------------------------------------------===//

namespace oracle {
// The formatv renderer the views used to be, kept verbatim: the views'
// append-based rendering must reproduce its bytes exactly.

std::string describeFault(uint16_t Code) {
  if (Code & 0x8000)
    return formatv("signal %u", Code & 0xFFF);
  return faultCodeName(static_cast<FaultCode>(Code));
}

std::string syncKindName(SyncKind K) {
  switch (K) {
  case SyncKind::CallSend:
    return "call ->";
  case SyncKind::CallRecv:
    return "-> enter";
  case SyncKind::ReplySend:
    return "exit ->";
  case SyncKind::ReplyRecv:
    return "-> return";
  }
  return "?";
}

std::string eventOneLiner(const TraceEvent &E) {
  switch (E.EventKind) {
  case TraceEvent::Kind::Line: {
    std::string S = formatv("%-14s %s:%u  %s", E.Module.c_str(),
                            E.File.c_str(), E.Line, E.Function.c_str());
    if (E.Repeat > 1)
      S += formatv("  (x%u)", E.Repeat);
    if (E.Trimmed)
      S += "  <- partial";
    return S;
  }
  case TraceEvent::Kind::Exception:
    return formatv("*** exception: %s", describeFault(E.FaultCodeValue).c_str());
  case TraceEvent::Kind::ExceptionEnd:
    return formatv("*** resumed after %s",
                   describeFault(E.FaultCodeValue).c_str());
  case TraceEvent::Kind::Sync:
    return formatv("[sync %s logical=%llx seq=%llu]",
                   syncKindName(E.Sync).c_str(),
                   static_cast<unsigned long long>(E.LogicalThreadId),
                   static_cast<unsigned long long>(E.Sequence));
  case TraceEvent::Kind::ThreadStart:
    return "[thread start]";
  case TraceEvent::Kind::ThreadEnd:
    return "[thread end]";
  case TraceEvent::Kind::Untraced:
    return formatv("[untraced: %s]", E.Module.c_str());
  }
  return "?";
}

std::string flat(const ThreadTrace &Trace) {
  std::string Out = formatv("thread %llu on %s/%s%s\n",
                            static_cast<unsigned long long>(Trace.ThreadId),
                            Trace.MachineName.c_str(),
                            Trace.ProcessName.c_str(),
                            Trace.Truncated ? " (older history overwritten)"
                                            : "");
  for (const TraceEvent &E : Trace.Events)
    Out += "  " + eventOneLiner(E) + "\n";
  if (Trace.TruncatedAt != UINT64_MAX)
    Out += formatv("  <torn write: newer history lost at word %llu>\n",
                   static_cast<unsigned long long>(Trace.TruncatedAt));
  return Out;
}

std::string callTree(const ThreadTrace &Trace) {
  std::string Out = formatv("thread %llu call tree\n",
                            static_cast<unsigned long long>(Trace.ThreadId));
  for (const TraceEvent &E : Trace.Events) {
    std::string Indent(static_cast<size_t>(E.Depth) * 2, ' ');
    std::string Marker;
    if (E.EventKind == TraceEvent::Kind::Line) {
      if (E.BlockFlags & MBF_FuncEntry)
        Marker = "+ ";
      else if (E.BlockFlags & MBF_EndsInRet)
        Marker = "^ ";
    }
    Out += "  " + Indent + Marker + eventOneLiner(E) + "\n";
  }
  return Out;
}

std::string multiThread(const std::vector<const ThreadTrace *> &Traces) {
  std::string Out;
  ReconstructedTrace Holder;
  for (const ThreadTrace *T : Traces)
    Holder.Threads.push_back(*T);
  DistributedStitcher S;
  S.addTrace(Holder);
  for (const auto &Entry : S.mergeTimeline()) {
    const TraceEvent &E = Entry.Trace->Events[Entry.EventIndex];
    Out += formatv("t%-3llu |%*s%s\n",
                   static_cast<unsigned long long>(Entry.Trace->ThreadId), 0,
                   "", eventOneLiner(E).c_str());
  }
  return Out;
}

std::string logicalThread(const LogicalThread &LT) {
  std::string Out =
      formatv("logical thread %llx\n",
              static_cast<unsigned long long>(LT.LogicalId));
  for (const LogicalSegment &Seg : LT.Segments) {
    Out += formatv("-- on %s/%s thread %llu --\n",
                   Seg.Trace->MachineName.c_str(),
                   Seg.Trace->ProcessName.c_str(),
                   static_cast<unsigned long long>(Seg.Trace->ThreadId));
    for (size_t I = Seg.Begin; I < Seg.End && I < Seg.Trace->Events.size();
         ++I)
      Out += "  " + eventOneLiner(Seg.Trace->Events[I]) + "\n";
  }
  return Out;
}

std::string faultView(const SnapFile &Snap, const ReconstructedTrace &Trace) {
  std::string Out = formatv("snap: %s (detail %u) from %s/%s\n",
                            snapReasonName(Snap.Reason).c_str(),
                            Snap.ReasonDetail, Snap.MachineName.c_str(),
                            Snap.ProcessName.c_str());
  if (Snap.Reason == SnapReason::Hang || Snap.Reason == SnapReason::External) {
    for (const ThreadTrace &T : Trace.Threads) {
      const TraceEvent *LastLine = nullptr;
      for (const TraceEvent &E : T.Events)
        if (E.EventKind == TraceEvent::Kind::Line)
          LastLine = &E;
      Out += formatv("  thread %llu: %s\n",
                     static_cast<unsigned long long>(T.ThreadId),
                     LastLine ? eventOneLiner(*LastLine).c_str()
                              : "<no trace>");
    }
    return Out;
  }
  const ThreadTrace *Faulting = Trace.threadById(Snap.FaultThread);
  if (!Faulting && !Trace.Threads.empty())
    Faulting = &Trace.Threads.front();
  if (!Faulting)
    return Out + "  <no thread traces recovered>\n";
  Out += callTree(*Faulting);
  Out += formatv("=> fault: %s\n",
                 describeFault(Snap.FaultCodeValue).c_str());
  return Out;
}
} // namespace oracle

namespace {
/// Names around the flat view's 14-column module field: lengths 0, 13, 14
/// and over 14, plus one whose embedded NUL ends its "%s" rendering.
std::vector<InternedString> sweepNames() {
  return {InternedString(std::string()), InternedString("thirteen_char"),
          InternedString("fourteen_chars"),
          InternedString("name_longer_than_fourteen"),
          InternedString(std::string("cut\0hidden", 10))};
}

uint16_t randomFaultCode(Rng &R) {
  switch (R.below(3)) {
  case 0: // A signal: 0x8000 | n.
    return static_cast<uint16_t>(0x8000 | R.below(0x8000));
  case 1: // A user trap.
    return static_cast<uint16_t>(
        static_cast<uint16_t>(FaultCode::UserTrapBase) + R.below(500));
  default: // Named faults and unnamed codes below the trap base.
    return static_cast<uint16_t>(R.below(100));
  }
}

/// sweepNames() plus names longer than any line the views build on the
/// stack: one over 1 KiB and one that fits or not depending on the depth.
std::vector<InternedString> longSweepNames() {
  std::vector<InternedString> Names = sweepNames();
  std::string Long;
  while (Long.size() < 1100)
    Long += "very_long_name_";
  Names.push_back(InternedString(Long));
  Names.push_back(InternedString(Long.substr(0, 430)));
  return Names;
}

TraceEvent randomEvent(Rng &R, const std::vector<InternedString> &Names,
                       uint64_t DepthBound) {
  auto Name = [&] { return Names[R.below(Names.size())]; };
  TraceEvent E;
  E.EventKind = static_cast<TraceEvent::Kind>(R.below(7));
  E.Module = Name();
  E.File = Name();
  E.Function = Name();
  E.Line = static_cast<uint32_t>(R.chance(1, 8) ? R.next() : R.below(2000));
  E.Repeat = static_cast<uint32_t>(R.chance(1, 4) ? R.next() : R.below(3));
  E.BlockFlags = static_cast<uint8_t>(R.below(256));
  E.Depth = static_cast<uint32_t>(R.below(DepthBound));
  E.Trimmed = R.chance(1, 4);
  E.FaultCodeValue = randomFaultCode(R);
  E.FaultModuleKey = R.next();
  E.FaultOffset = static_cast<uint32_t>(R.next());
  E.Sync = static_cast<SyncKind>(R.below(4));
  E.LogicalThreadId = R.chance(1, 2) ? R.next() : R.below(16);
  E.Sequence = R.chance(1, 2) ? R.next() : R.below(16);
  E.PeerRuntimeId = R.next();
  E.Timestamp = R.chance(1, 4) ? 0 : R.below(1000000);
  return E;
}

ThreadTrace randomTrace(Rng &R, const std::vector<InternedString> &Names,
                        uint64_t DepthBound) {
  ThreadTrace T;
  T.ThreadId = R.chance(1, 4) ? R.next() : R.below(1200);
  T.RuntimeId = R.below(3);
  T.MachineName = Names[R.below(Names.size())].str();
  T.ProcessName = Names[R.below(Names.size())].str();
  T.Truncated = R.chance(1, 3);
  T.TruncatedAt = R.chance(1, 3) ? R.below(UINT64_MAX) : UINT64_MAX;
  size_t N = R.below(40);
  for (size_t I = 0; I < N; ++I)
    T.Events.push_back(randomEvent(R, Names, DepthBound));
  return T;
}
} // namespace

TEST(ViewsOracleTest, EveryViewMatchesTheFormatvRenderer) {
  Rng R(testSeed() ^ 0x76696577ULL);
  const std::vector<InternedString> Names = sweepNames();
  const std::vector<InternedString> LongNames = longSweepNames();
  const SnapReason Reasons[] = {SnapReason::Hang, SnapReason::External,
                                SnapReason::Unhandled};
  // The first 600 cases keep names short and depths at 0-40; the last 200
  // add names over 1 KiB and depths in the hundreds, which overflow the
  // views' stack line buffer and take their fallback appends.
  for (unsigned Case = 0; Case < 800; ++Case) {
    SCOPED_TRACE(Case);
    const bool Long = Case >= 600;
    const std::vector<InternedString> &CaseNames = Long ? LongNames : Names;
    const uint64_t DepthBound = Long ? 600 : 41;
    ReconstructedTrace Trace;
    size_t Threads = Case % 4; // Zero threads included.
    for (size_t I = 0; I < Threads; ++I)
      Trace.Threads.push_back(randomTrace(R, CaseNames, DepthBound));

    SnapFile Snap;
    Snap.Reason = Reasons[Case % 3];
    Snap.ReasonDetail = static_cast<uint16_t>(R.next());
    Snap.MachineName = CaseNames[R.below(CaseNames.size())].str();
    Snap.ProcessName = "p";
    Snap.FaultCodeValue = randomFaultCode(R);
    // Every fifth case names a faulting thread the trace does not have.
    Snap.FaultThread = Threads && Case % 5
                           ? Trace.Threads[R.below(Threads)].ThreadId
                           : UINT64_MAX - 1;
    EXPECT_EQ(renderFaultView(Snap, Trace), oracle::faultView(Snap, Trace));

    std::vector<const ThreadTrace *> Ptrs;
    LogicalThread LT;
    LT.LogicalId = R.next();
    for (const ThreadTrace &T : Trace.Threads) {
      EXPECT_EQ(renderFlatTrace(T), oracle::flat(T));
      EXPECT_EQ(renderCallTree(T), oracle::callTree(T));
      Ptrs.push_back(&T);
      // Segments may run past the trace's end; the view clamps them.
      size_t Begin = R.below(T.Events.size() + 1);
      LT.Segments.push_back({&T, Begin, Begin + R.below(T.Events.size() + 3)});
    }
    EXPECT_EQ(renderMultiThread(Ptrs), oracle::multiThread(Ptrs));
    EXPECT_EQ(renderLogicalThread(LT), oracle::logicalThread(LT));
  }
}
