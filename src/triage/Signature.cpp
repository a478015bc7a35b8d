//===- triage/Signature.cpp - Crash-signature extraction ------------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "triage/Signature.h"

#include "support/Text.h"
#include "vm/Fault.h"

#include <algorithm>

using namespace traceback;

namespace {

/// Fault-code description reused by kind text and exception frames. The
/// signal/fault *class* is kept (it distinguishes faults); everything
/// address-shaped is not.
std::string describeFaultCode(uint16_t Code) {
  if (Code & 0x8000)
    return formatv("signal-%u", Code & 0xFFF);
  return faultCodeName(static_cast<FaultCode>(Code));
}

/// Resolves FaultModuleKey (low 64 bits of the module checksum) to the
/// module's name, or "?" when the module is not in the snap's list (it
/// was unloaded and dropped, or the key is corrupt).
std::string faultModuleName(const SnapFile &Snap) {
  for (const SnapModuleInfo &M : Snap.Modules)
    if (M.Checksum.low64() == Snap.FaultModuleKey)
      return M.Name;
  return "?";
}

std::string kindText(const SnapFile &Snap) {
  switch (Snap.Reason) {
  case SnapReason::Exception:
  case SnapReason::Signal:
  case SnapReason::Unhandled:
    return formatv("fault:%s@%s",
                   describeFaultCode(Snap.FaultCodeValue).c_str(),
                   faultModuleName(Snap).c_str());
  case SnapReason::Hang:
    return "hang";
  case SnapReason::MissingPeer:
    // The marker's peer name / machine id / group are identity, not
    // fault: every partial group snap normalizes to the same kind.
    return "missing-peer";
  default:
    return "none";
  }
}

void addMarker(std::vector<std::string> &Markers, const char *M) {
  for (const std::string &Existing : Markers)
    if (Existing == M)
      return;
  Markers.push_back(M);
}

/// One event, normalized. Identity fields (thread/runtime/logical ids,
/// sequence numbers, timestamps, repeat counts, depths, word positions)
/// are omitted by construction.
std::string normalizeEvent(const TraceEvent &E) {
  switch (E.EventKind) {
  case TraceEvent::Kind::Line:
    return formatv("%s!%s:%u %s", E.Module.c_str(), E.File.c_str(), E.Line,
                   E.Function.c_str());
  case TraceEvent::Kind::Exception:
    return formatv("!exc %s", describeFaultCode(E.FaultCodeValue).c_str());
  case TraceEvent::Kind::ExceptionEnd:
    return formatv("!exc-end %s",
                   describeFaultCode(E.FaultCodeValue).c_str());
  case TraceEvent::Kind::Sync:
    // The RPC boundary shape matters; its logical ids and sequences are
    // per-run identity.
    switch (E.Sync) {
    case SyncKind::CallSend:
      return "!sync call-send";
    case SyncKind::CallRecv:
      return "!sync call-recv";
    case SyncKind::ReplySend:
      return "!sync reply-send";
    case SyncKind::ReplyRecv:
      return "!sync reply-recv";
    }
    return "!sync ?";
  case TraceEvent::Kind::ThreadStart:
    return "!thread-start";
  case TraceEvent::Kind::ThreadEnd:
    return "!thread-end";
  case TraceEvent::Kind::Untraced:
    return formatv("!untraced %s", E.Module.c_str());
  }
  return "?";
}

/// Deterministic choice of the thread whose history becomes the path:
/// the faulting thread when recovered and non-empty, else the longest
/// recovered thread (ties: lowest thread id).
const ThreadTrace *pickThread(const SnapFile &Snap,
                              const ReconstructedTrace &Trace) {
  if (const ThreadTrace *T = Trace.threadById(Snap.FaultThread))
    if (!T->Events.empty())
      return T;
  const ThreadTrace *Best = nullptr;
  for (const ThreadTrace &T : Trace.Threads) {
    if (T.Events.empty())
      continue;
    if (!Best || T.Events.size() > Best->Events.size() ||
        (T.Events.size() == Best->Events.size() &&
         T.ThreadId < Best->ThreadId))
      Best = &T;
  }
  return Best;
}

void fillHeaderFields(const SnapFile &Snap, FaultSignature &Sig) {
  Sig.Kind = kindText(Snap);
  for (const SnapModuleInfo &M : Snap.Modules)
    if (M.Instrumented)
      Sig.Modules.push_back(M.Name);
  std::sort(Sig.Modules.begin(), Sig.Modules.end());
  Sig.Modules.erase(std::unique(Sig.Modules.begin(), Sig.Modules.end()),
                    Sig.Modules.end());
  if (Snap.Reason == SnapReason::MissingPeer)
    addMarker(Sig.Markers, "missing-peer");
}

} // namespace

FaultSignature traceback::extractSignature(const SnapFile &Snap) {
  FaultSignature Sig;
  fillHeaderFields(Snap, Sig);
  return Sig;
}

FaultSignature traceback::extractSignature(const SnapFile &Snap,
                                           const ReconstructedTrace &Trace,
                                           const SignatureOptions &Opts) {
  FaultSignature Sig;
  fillHeaderFields(Snap, Sig);

  // Degradation markers: the *shape* of the damage, never its position.
  for (const ThreadTrace &T : Trace.Threads) {
    if (T.Truncated)
      addMarker(Sig.Markers, "ring-wrap");
    if (T.TruncatedAt != UINT64_MAX)
      addMarker(Sig.Markers, "torn-tail");
  }
  std::sort(Sig.Markers.begin(), Sig.Markers.end());

  if (const ThreadTrace *T = pickThread(Snap, Trace)) {
    size_t Take = std::min<size_t>(Opts.TopFrames, T->Events.size());
    Sig.Path.reserve(Take);
    for (size_t I = T->Events.size() - Take; I < T->Events.size(); ++I)
      Sig.Path.push_back(normalizeEvent(T->Events[I]));
  }
  return Sig;
}

std::string FaultSignature::canonicalText() const {
  std::string Out = "kind " + Kind + "\n";
  for (const std::string &M : Modules)
    Out += "module " + M + "\n";
  for (const std::string &M : Markers)
    Out += "marker " + M + "\n";
  for (const std::string &F : Path)
    Out += "frame " + F + "\n";
  return Out;
}

uint64_t FaultSignature::fingerprint() const {
  return signatureHash(canonicalText());
}

size_t traceback::pathEditDistance(const std::vector<std::string> &A,
                                   const std::vector<std::string> &B,
                                   size_t Limit) {
  const size_t N = A.size(), M = B.size();
  size_t Diff = N > M ? N - M : M - N;
  if (Diff > Limit)
    return Limit + 1;
  // Classic two-row Levenshtein with an early exit when every cell of a
  // row exceeds the limit (the band argument: the minimum over a row is
  // non-decreasing in the row index).
  std::vector<size_t> Prev(M + 1), Cur(M + 1);
  for (size_t J = 0; J <= M; ++J)
    Prev[J] = J;
  for (size_t I = 1; I <= N; ++I) {
    Cur[0] = I;
    size_t RowMin = Cur[0];
    for (size_t J = 1; J <= M; ++J) {
      size_t Sub = Prev[J - 1] + (A[I - 1] == B[J - 1] ? 0 : 1);
      size_t Del = Prev[J] + 1;
      size_t Ins = Cur[J - 1] + 1;
      Cur[J] = std::min(Sub, std::min(Del, Ins));
      RowMin = std::min(RowMin, Cur[J]);
    }
    if (RowMin > Limit)
      return Limit + 1;
    std::swap(Prev, Cur);
  }
  return std::min(Prev[M], Limit + 1);
}
