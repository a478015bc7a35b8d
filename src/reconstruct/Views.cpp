//===- reconstruct/Views.cpp - Trace display rendering --------------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "reconstruct/Views.h"

#include "instrument/MapFile.h"
#include "support/Text.h"
#include "vm/Fault.h"

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

/// Appends the one-line rendering of \p E (no indent, no newline). Every
/// view writes its events through here, straight into its own buffer.
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

/// One event as a line of the flat and logical-thread views.
void appendFlatLine(std::string &Out, const TraceEvent &E) {
  Out += "  ";
  appendEvent(Out, E);
  Out += '\n';
}

void appendCallTree(std::string &Out, const ThreadTrace &Trace) {
  Out += formatv("thread %llu call tree\n",
                 static_cast<unsigned long long>(Trace.ThreadId));
  for (const TraceEvent &E : Trace.Events) {
    Out += "  ";
    Out.append(static_cast<size_t>(E.Depth) * 2, ' ');
    if (E.EventKind == TraceEvent::Kind::Line) {
      if (E.BlockFlags & MBF_FuncEntry)
        Out += "+ ";
      else if (E.BlockFlags & MBF_EndsInRet)
        Out += "^ ";
    }
    appendEvent(Out, E);
    Out += '\n';
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
  for (const TraceEvent &E : Trace.Events)
    appendFlatLine(Out, E);
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
    appendEvent(Out, Entry.Trace->Events[Entry.EventIndex]);
    Out += '\n';
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
      appendFlatLine(Out, Seg.Trace->Events[I]);
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
        appendEvent(Out, *LastLine);
      else
        Out += "<no trace>";
      Out += '\n';
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
