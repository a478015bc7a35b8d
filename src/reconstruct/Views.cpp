//===- reconstruct/Views.cpp - Trace display rendering --------------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "reconstruct/Views.h"

#include "instrument/MapFile.h"
#include "support/Text.h"
#include "vm/Fault.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <limits>
#include <string_view>

using namespace traceback;

namespace {
void appendFault(std::string &Out, uint16_t Code) {
  if (Code & 0x8000) {
    Out += "signal ";
    appendDecimal(Out, Code & 0xFFF);
  } else {
    Out += faultCodeName(static_cast<FaultCode>(Code));
  }
}

const char *syncKindName(SyncKind K) {
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

/// Appends the one-line rendering of \p E (no indent, no newline).
void appendEvent(std::string &Out, const TraceEvent &E) {
  switch (E.EventKind) {
  case TraceEvent::Kind::Line:
    appendCString(Out, E.Module.c_str(), 14);
    Out += ' ';
    appendCString(Out, E.File.c_str());
    Out += ':';
    appendDecimal(Out, E.Line);
    Out += "  ";
    appendCString(Out, E.Function.c_str());
    if (E.Repeat > 1) {
      Out += "  (x";
      appendDecimal(Out, E.Repeat);
      Out += ')';
    }
    if (E.Trimmed)
      Out += "  <- partial";
    return;
  case TraceEvent::Kind::Exception:
    Out += "*** exception: ";
    appendFault(Out, E.FaultCodeValue);
    return;
  case TraceEvent::Kind::ExceptionEnd:
    Out += "*** resumed after ";
    appendFault(Out, E.FaultCodeValue);
    return;
  case TraceEvent::Kind::Sync:
    Out += "[sync ";
    Out += syncKindName(E.Sync);
    Out += " logical=";
    appendHex(Out, E.LogicalThreadId);
    Out += " seq=";
    appendDecimal(Out, E.Sequence);
    Out += ']';
    return;
  case TraceEvent::Kind::ThreadStart:
    Out += "[thread start]";
    return;
  case TraceEvent::Kind::ThreadEnd:
    Out += "[thread end]";
    return;
  case TraceEvent::Kind::Untraced:
    Out += "[untraced: ";
    appendCString(Out, E.Module.c_str());
    Out += ']';
    return;
  }
  Out += '?';
}

/// The longest line appendEventLine builds on the stack. Longer ones —
/// names of hundreds of bytes, call depths in the hundreds — take the
/// per-field appends instead.
constexpr size_t LineBufferBytes = 512;

/// What the flat and call-tree views reserve per event before writing:
/// every line carries the 14-column module field, so with short file and
/// function names most lines are 40-60 bytes. Longer lines cost one more
/// growth of the buffer, not a wrong result.
constexpr size_t TypicalLineBytes = 48;

/// Appends one event as a whole line: \p Lead spaces, \p Marker, the
/// event (as appendEvent writes it) and a newline. Every view's events
/// come through here. A Line event is written into a stack buffer and
/// lands in \p Out with one append, one capacity check.
void appendEventLine(std::string &Out, const TraceEvent &E, size_t Lead,
                     std::string_view Marker = {}) {
  if (E.EventKind == TraceEvent::Kind::Line) {
    const char *Module = E.Module.c_str();
    const char *File = E.File.c_str();
    const char *Function = E.Function.c_str();
    // "%s" stops at a NUL, so lengths are strlen's, not the strings'.
    size_t ModuleLen = std::strlen(Module);
    size_t FileLen = std::strlen(File);
    size_t FunctionLen = std::strlen(Function);
    size_t MarkerLen = Marker.size();
    constexpr size_t ModuleWidth = 14;
    // Separators, both suffixes and the newline, plus the line number and
    // the repeat count at their widest.
    constexpr size_t MaxFixed =
        sizeof(" " ":" "  " "  (x" ")" "  <- partial" "\n") - 1 +
        2 * (std::numeric_limits<uint32_t>::digits10 + 1);
    if (Lead + MarkerLen + std::max(ModuleLen, ModuleWidth) + FileLen +
            FunctionLen + MaxFixed <=
        LineBufferBytes) {
      char Buf[LineBufferBytes];
      char *P = Buf;
      auto Put = [&P](const char *S, size_t N) {
        std::memcpy(P, S, N);
        P += N;
      };
      std::memset(P, ' ', Lead);
      P += Lead;
      if (MarkerLen) // An empty view may hold a null pointer.
        Put(Marker.data(), MarkerLen);
      Put(Module, ModuleLen);
      if (ModuleLen < ModuleWidth) {
        std::memset(P, ' ', ModuleWidth - ModuleLen);
        P += ModuleWidth - ModuleLen;
      }
      *P++ = ' ';
      Put(File, FileLen);
      *P++ = ':';
      P = std::to_chars(P, Buf + LineBufferBytes, E.Line).ptr;
      Put("  ", 2);
      Put(Function, FunctionLen);
      if (E.Repeat > 1) {
        Put("  (x", 4);
        P = std::to_chars(P, Buf + LineBufferBytes, E.Repeat).ptr;
        *P++ = ')';
      }
      if (E.Trimmed)
        Put("  <- partial", 12);
      *P++ = '\n';
      Out.append(Buf, static_cast<size_t>(P - Buf));
      return;
    }
  }
  Out.append(Lead, ' ');
  Out.append(Marker);
  appendEvent(Out, E);
  Out += '\n';
}

void appendCallTree(std::string &Out, const ThreadTrace &Trace) {
  Out += formatv("thread %llu call tree\n",
                 static_cast<unsigned long long>(Trace.ThreadId));
  Out.reserve(Out.size() + Trace.Events.size() * TypicalLineBytes);
  for (const TraceEvent &E : Trace.Events) {
    std::string_view Marker;
    if (E.EventKind == TraceEvent::Kind::Line) {
      if (E.BlockFlags & MBF_FuncEntry)
        Marker = "+ ";
      else if (E.BlockFlags & MBF_EndsInRet)
        Marker = "^ ";
    }
    appendEventLine(Out, E, 2 + static_cast<size_t>(E.Depth) * 2, Marker);
  }
}
} // namespace

std::string traceback::renderFlatTrace(const ThreadTrace &Trace) {
  std::string Out = formatv("thread %llu on %s/%s%s\n",
                            static_cast<unsigned long long>(Trace.ThreadId),
                            Trace.MachineName.c_str(),
                            Trace.ProcessName.c_str(),
                            Trace.Truncated ? " (older history overwritten)"
                                            : "");
  Out.reserve(Out.size() + Trace.Events.size() * TypicalLineBytes);
  for (const TraceEvent &E : Trace.Events)
    appendEventLine(Out, E, 2);
  if (Trace.TruncatedAt != UINT64_MAX)
    Out += formatv("  <torn write: newer history lost at word %llu>\n",
                   static_cast<unsigned long long>(Trace.TruncatedAt));
  return Out;
}

std::string traceback::renderCallTree(const ThreadTrace &Trace) {
  std::string Out;
  appendCallTree(Out, Trace);
  return Out;
}

std::string traceback::renderMultiThread(
    const std::vector<const ThreadTrace *> &Traces) {
  std::string Out;
  // Reuse the stitcher's skew-corrected timeline merge.
  ReconstructedTrace Holder;
  for (const ThreadTrace *T : Traces)
    Holder.Threads.push_back(*T); // Copy so the stitcher has stable refs.
  DistributedStitcher S;
  S.addTrace(Holder);
  auto Timeline = S.mergeTimeline();
  for (const auto &Entry : Timeline) {
    // "t<thread id, left-aligned in 3> |<event>".
    size_t Start = Out.size();
    Out += 't';
    appendDecimal(Out, Entry.Trace->ThreadId);
    if (Out.size() < Start + 4)
      Out.append(Start + 4 - Out.size(), ' ');
    Out += " |";
    appendEventLine(Out, Entry.Trace->Events[Entry.EventIndex], 0);
  }
  return Out;
}

std::string traceback::renderLogicalThread(const LogicalThread &LT) {
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
      appendEventLine(Out, Seg.Trace->Events[I], 2);
  }
  return Out;
}

std::string traceback::renderFaultView(const SnapFile &Snap,
                                       const ReconstructedTrace &Trace) {
  std::string Out = formatv("snap: %s (detail %u) from %s/%s\n",
                            snapReasonName(Snap.Reason).c_str(),
                            Snap.ReasonDetail, Snap.MachineName.c_str(),
                            Snap.ProcessName.c_str());

  if (Snap.Reason == SnapReason::Hang || Snap.Reason == SnapReason::External) {
    // Deadlock-style snap: one line per thread, the most recent source
    // line each thread executed (section 4.3.3).
    for (const ThreadTrace &T : Trace.Threads) {
      const TraceEvent *LastLine = nullptr;
      for (const TraceEvent &E : T.Events)
        if (E.EventKind == TraceEvent::Kind::Line)
          LastLine = &E;
      Out += "  thread ";
      appendDecimal(Out, T.ThreadId);
      Out += ": ";
      if (LastLine)
        appendEventLine(Out, *LastLine, 0);
      else
        Out += "<no trace>\n";
    }
    return Out;
  }

  // Exception-style snap: the faulting thread's call tree, fault
  // highlighted.
  const ThreadTrace *Faulting = Trace.threadById(Snap.FaultThread);
  if (!Faulting && !Trace.Threads.empty())
    Faulting = &Trace.Threads.front();
  if (!Faulting)
    return Out + "  <no thread traces recovered>\n";
  appendCallTree(Out, *Faulting);
  Out += "=> fault: ";
  appendFault(Out, Snap.FaultCodeValue);
  Out += '\n';
  return Out;
}

std::string traceback::renderMemoryDump(const SnapFile &Snap) {
  std::string Out;
  if (Snap.Memory.empty())
    return "<no memory captured; enable capture_memory in the policy>\n";
  for (const SnapMemoryRegion &R : Snap.Memory) {
    Out += formatv("region %s @ 0x%llx (%zu bytes)\n", R.Label.c_str(),
                   static_cast<unsigned long long>(R.Base), R.Bytes.size());
    for (size_t I = 0; I < R.Bytes.size(); I += 16) {
      Out += formatv("  %08llx:",
                     static_cast<unsigned long long>(R.Base + I));
      for (size_t J = I; J < I + 16 && J < R.Bytes.size(); ++J)
        Out += formatv(" %02x", R.Bytes[J]);
      Out += "\n";
    }
  }
  return Out;
}
