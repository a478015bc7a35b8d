//===- replay/ReplayDriver.cpp - Snap-anchored re-execution ---------------===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//

#include "replay/ReplayDriver.h"

#include "core/Session.h"
#include "replay/Recorder.h"
#include "support/Text.h"

#include <algorithm>
#include <cstring>

using namespace traceback;

/// Divergence reports stop accumulating past this many — after the first
/// real divergence everything downstream is cascade.
static const size_t MaxDivergences = 64;

const char *traceback::divergenceKindName(Divergence::Kind K) {
  switch (K) {
  case Divergence::Kind::ScheduleSet:
    return "schedule-set";
  case Divergence::Kind::SchedulePick:
    return "schedule-pick";
  case Divergence::Kind::RandContext:
    return "rand-context";
  case Divergence::Kind::WireContext:
    return "wire-context";
  case Divergence::Kind::NetContext:
    return "net-context";
  case Divergence::Kind::AnchorMismatch:
    return "anchor-mismatch";
  case Divergence::Kind::FaultFiring:
    return "fault-firing";
  case Divergence::Kind::SequenceKind:
    return "sequence-kind";
  case Divergence::Kind::LogTruncated:
    return "log-truncated";
  case Divergence::Kind::TraceEvent:
    return "trace-event";
  }
  return "unknown";
}

//===----------------------------------------------------------------------===//
// ReplayEnforcer
//===----------------------------------------------------------------------===//

ReplayEnforcer::ReplayEnforcer(const ExecutionLog &L) : Log(L) {
  // First retained ordinal per kind: replay calls with a smaller ordinal
  // fall before the ring window and pass through unenforced. A kind with
  // no retained entries enforces from ordinal 0 when nothing was dropped
  // (any call of that kind is out of sequence), and never when the head
  // was dropped (we cannot know how many fell off).
  for (size_t K = 0; K < 8; ++K)
    FirstOrd[K] = Log.DroppedHead ? UINT64_MAX : 0;
  for (const LogEntry &E : Log.Entries) {
    size_t K = static_cast<size_t>(E.Kind);
    if (K < 8 && FirstOrd[K] == UINT64_MAX)
      FirstOrd[K] = E.Ordinal;
  }
}

void ReplayEnforcer::diverge(Divergence::Kind K, uint64_t EventIndex,
                             std::string Detail) {
  if (Divs.size() >= MaxDivergences)
    return;
  Divergence Dv;
  Dv.K = K;
  Dv.EventIndex = EventIndex;
  Dv.Detail = std::move(Detail);
  Divs.push_back(std::move(Dv));
}

const LogEntry *ReplayEnforcer::expect(LogEntryKind K, uint64_t Ord) {
  if (Limit != 0 && Log.DroppedHead + Cursor >= Limit)
    return nullptr;
  if (Ord < FirstOrd[static_cast<size_t>(K)])
    return nullptr; // Before the retained window: unenforced.
  if (Cursor >= Log.Entries.size()) {
    // Past the recorded end. For an intact log this is the post-anchor
    // tail (execution legitimately continues past the last snap); for a
    // truncated log it is THE divergence, reported exactly once at the
    // truncation point and never before.
    if (Log.Truncated && !TruncationReported) {
      TruncationReported = true;
      diverge(Divergence::Kind::LogTruncated, Log.truncatedAt(),
              formatv("log truncated after event %llu; replay reached a %s "
                      "decision past the recorded end",
                      (unsigned long long)Log.truncatedAt(),
                      logEntryKindName(K)));
    }
    return nullptr;
  }
  const LogEntry &E = Log.Entries[Cursor];
  if (E.Kind != K) {
    // Do not consume: the recorded entry may still match a later call.
    diverge(Divergence::Kind::SequenceKind, Log.DroppedHead + Cursor,
            formatv("recorded %s#%llu, replay produced %s#%llu",
                    logEntryKindName(E.Kind), (unsigned long long)E.Ordinal,
                    logEntryKindName(K), (unsigned long long)Ord));
    return nullptr;
  }
  ++Cursor;
  return &E;
}

size_t ReplayEnforcer::onSchedulePick(uint64_t Slice,
                                      const std::vector<SliceCandidate> &Cands,
                                      size_t Default) {
  uint64_t Ord = NextOrd[static_cast<size_t>(LogEntryKind::Sched)]++;
  const LogEntry *E = expect(LogEntryKind::Sched, Ord);
  if (!E)
    return Default;
  uint64_t Idx = Log.DroppedHead + Cursor - 1;
  uint64_t RecCount = E->B >> 32;
  size_t Pick = static_cast<uint32_t>(E->B);
  SchedCands.update(Cands);
  uint64_t Hash = SchedCands.hash();
  if (E->A != Slice || RecCount != Cands.size() || E->E != Hash)
    diverge(Divergence::Kind::ScheduleSet, Idx,
            formatv("recorded slice %llu with %llu candidates (hash "
                    "%016llx), replay at slice %llu has %llu (hash %016llx)",
                    (unsigned long long)E->A, (unsigned long long)RecCount,
                    (unsigned long long)E->E, (unsigned long long)Slice,
                    (unsigned long long)Cands.size(),
                    (unsigned long long)Hash));
  if (Pick >= Cands.size()) {
    diverge(Divergence::Kind::SchedulePick, Idx,
            formatv("recorded pick index %llu out of range (%llu candidates "
                    "in replay)",
                    (unsigned long long)Pick,
                    (unsigned long long)Cands.size()));
    return Default;
  }
  if (Cands[Pick].Pid != E->C || Cands[Pick].Tid != E->D)
    diverge(Divergence::Kind::SchedulePick, Idx,
            formatv("recorded pick pid %llu tid %llu, replay candidate %llu "
                    "is pid %llu tid %llu",
                    (unsigned long long)E->C, (unsigned long long)E->D,
                    (unsigned long long)Pick,
                    (unsigned long long)Cands[Pick].Pid,
                    (unsigned long long)Cands[Pick].Tid));
  return Pick;
}

uint64_t ReplayEnforcer::onRand(uint64_t Pid, uint64_t Tid, uint64_t Value) {
  uint64_t Ord = NextOrd[static_cast<size_t>(LogEntryKind::Rand)]++;
  const LogEntry *E = expect(LogEntryKind::Rand, Ord);
  if (!E)
    return Value;
  if (E->A != Pid || E->B != Tid)
    diverge(Divergence::Kind::RandContext, Log.DroppedHead + Cursor - 1,
            formatv("recorded rand draw by pid %llu tid %llu, replay draw "
                    "is by pid %llu tid %llu",
                    (unsigned long long)E->A, (unsigned long long)E->B,
                    (unsigned long long)Pid, (unsigned long long)Tid));
  return E->C;
}

unsigned ReplayEnforcer::onWireDelivery(unsigned Count) {
  uint64_t Ord = NextOrd[static_cast<size_t>(LogEntryKind::Wire)]++;
  const LogEntry *E = expect(LogEntryKind::Wire, Ord);
  if (!E)
    return Count;
  return static_cast<unsigned>(E->A);
}

NetFaultAction ReplayEnforcer::onNetSend(uint64_t Src, uint64_t Dst,
                                         NetFaultAction Action) {
  uint64_t Ord = NextOrd[static_cast<size_t>(LogEntryKind::Net)]++;
  const LogEntry *E = expect(LogEntryKind::Net, Ord);
  if (!E)
    return Action;
  if (E->A != Src || E->B != Dst)
    diverge(Divergence::Kind::NetContext, Log.DroppedHead + Cursor - 1,
            formatv("recorded datagram %llu->%llu, replay sends %llu->%llu",
                    (unsigned long long)E->A, (unsigned long long)E->B,
                    (unsigned long long)Src, (unsigned long long)Dst));
  Action.Copies = static_cast<unsigned>(E->C);
  Action.ExtraDelay = E->D;
  Action.Reordered = E->E != 0;
  return Action;
}

void ReplayEnforcer::onFaultFired(size_t Index, const std::string &Note) {
  uint64_t Ord = NextOrd[static_cast<size_t>(LogEntryKind::Fired)]++;
  const LogEntry *E = expect(LogEntryKind::Fired, Ord);
  if (!E)
    return;
  if (E->A != Index || E->Note != Note)
    diverge(Divergence::Kind::FaultFiring, Log.DroppedHead + Cursor - 1,
            formatv("recorded firing #%llu \"%s\", replay fired #%llu \"%s\"",
                    (unsigned long long)E->A, E->Note.c_str(),
                    (unsigned long long)Index, Note.c_str()));
}

void ReplayEnforcer::onSnapAnchor(uint64_t Pid, uint8_t Reason,
                                  uint16_t Detail, uint64_t Slice,
                                  std::vector<uint8_t> *LogOut) {
  (void)LogOut; // Replayed snaps never embed a log of their own.
  uint64_t Ord = NextOrd[static_cast<size_t>(LogEntryKind::Anchor)]++;
  const LogEntry *E = expect(LogEntryKind::Anchor, Ord);
  if (!E)
    return;
  if (E->A != Pid || E->B != Reason || E->C != Detail || E->D != Slice)
    diverge(Divergence::Kind::AnchorMismatch, Log.DroppedHead + Cursor - 1,
            formatv("recorded anchor pid %llu reason %u detail %u at slice "
                    "%llu, replay snapped pid %llu reason %u detail %u at "
                    "slice %llu",
                    (unsigned long long)E->A, (unsigned)E->B, (unsigned)E->C,
                    (unsigned long long)E->D, (unsigned long long)Pid,
                    (unsigned)Reason, (unsigned)Detail,
                    (unsigned long long)Slice));
}

//===----------------------------------------------------------------------===//
// ReplayDriver
//===----------------------------------------------------------------------===//

ReplayDriver::ReplayDriver(const ExecutionLog &L) : Log(L) {}
ReplayDriver::~ReplayDriver() = default;

static Process *findProcessByPid(World &W, uint64_t Pid) {
  for (Process *P : W.allProcesses())
    if (P->Pid == Pid)
      return P;
  return nullptr;
}

bool ReplayDriver::build(std::string &Error) {
  D.reset(new Deployment());
  Enf.reset(new ReplayEnforcer(Log));
  World &W = D->world();
  W.Scribe = Enf.get();

  if (!RtPolicy::parse(Log.PolicyText, D->Policy, Error)) {
    Error = "recorded policy: " + Error;
    return false;
  }
  // The replayed world must not re-record (the scribe slot is taken by the
  // enforcer anyway).
  D->Policy.RecordExecution = false;
  W.Quantum = Log.Quantum;

  if (!Log.PlanText.empty()) {
    FaultPlan Plan;
    if (!FaultPlan::parse(Log.PlanText, Plan, Error)) {
      Error = "recorded fault plan: " + Error;
      return false;
    }
    FI.reset(new FaultInjector(std::move(Plan), D->Metrics));
    W.Injector = FI.get();
  }

  // Machines, in recorded order: ids are sequential, so order alone
  // reproduces them. The collector is recreated through
  // enableNetworkTransport at its recorded position.
  bool SawCollector = false;
  for (const LogMachine &LM : Log.Machines) {
    if (LM.IsCollector) {
      D->enableNetworkTransport();
      SawCollector = true;
      Machine *C = D->collectorMachine();
      if (!C || C->Name != LM.Name) {
        Error = formatv("collector machine drift: recorded \"%s\"",
                        LM.Name.c_str());
        return false;
      }
    } else {
      D->addMachine(LM.Name, LM.OsName, LM.ClockOffset, LM.RateNum,
                    LM.RateDen);
    }
  }
  if (Log.NetEnabled && !SawCollector) {
    Error = "recording used the network but its genesis has no collector";
    return false;
  }

  // Processes in pid (= creation) order so the world hands back the
  // recorded pids.
  for (const LogProcess &LP : Log.Processes) {
    if (LP.MachineIndex >= W.Machines.size()) {
      Error = formatv("process \"%s\" references machine %u of %llu",
                      LP.Name.c_str(), LP.MachineIndex,
                      (unsigned long long)W.Machines.size());
      return false;
    }
    Process *P = W.Machines[LP.MachineIndex]->createProcess(LP.Name);
    if (P->Pid != LP.Pid) {
      Error = formatv("pid drift: recorded %llu for \"%s\", rebuilt %llu",
                      (unsigned long long)LP.Pid, LP.Name.c_str(),
                      (unsigned long long)P->Pid);
      return false;
    }
  }

  // Deployments, chronologically, from the original (pre-instrumentation)
  // images — re-instrumenting regenerates byte-identical modules and
  // mapfiles, so runtime ids and DAG keys come back out the same.
  for (const LogDeploy &LD : Log.Deploys) {
    Process *P = findProcessByPid(W, LD.Pid);
    if (!P) {
      Error = formatv("deploy references unknown pid %llu",
                      (unsigned long long)LD.Pid);
      return false;
    }
    Module M;
    if (!Module::deserialize(LD.Image, M)) {
      Error = formatv("deploy image for pid %llu does not deserialize",
                      (unsigned long long)LD.Pid);
      return false;
    }
    InstrumentOptions Opts;
    Opts.Tile.PathBits = LD.TilePathBits;
    Opts.Tile.HeadersAtCallReturns = LD.TileHeadersAtCallReturns;
    Opts.Tile.EveryBlockIsHeader = LD.TileEveryBlockIsHeader;
    Opts.Tile.MergeCallReturnHeaders = LD.TileMergeCallReturnHeaders;
    Opts.DagIdBase = LD.DagIdBase;
    Opts.TlsSlot = LD.TlsSlot;
    Opts.LineBoundaryBlocks = LD.LineBoundaryBlocks;
    Opts.ElideImpliedBits = LD.ElideImpliedBits;
    std::string DepErr;
    if (!D->deploy(*P, M, LD.Instrument, Opts, DepErr)) {
      Error = formatv("deploy into pid %llu: %s",
                      (unsigned long long)LD.Pid, DepErr.c_str());
      return false;
    }
  }

  for (const LogService &LS : Log.Services) {
    Process *P = findProcessByPid(W, LS.Pid);
    if (!P) {
      Error = formatv("service %u references unknown pid %llu", LS.Service,
                      (unsigned long long)LS.Pid);
      return false;
    }
    W.registerService(LS.Service, P);
  }

  // Initial threads: per-process tid sequences restart from the same
  // base, so per-process spawn order reproduces the recorded tids.
  for (const LogThread &LT : Log.Threads) {
    Process *P = findProcessByPid(W, LT.Pid);
    if (!P) {
      Error = formatv("thread references unknown pid %llu",
                      (unsigned long long)LT.Pid);
      return false;
    }
    Thread *T = P->spawnThread(LT.EntryPC, LT.Arg);
    if (!T || T->Id != LT.Tid) {
      Error = formatv("thread id drift in pid %llu: recorded %llu, rebuilt "
                      "%llu",
                      (unsigned long long)LT.Pid,
                      (unsigned long long)LT.Tid,
                      (unsigned long long)(T ? T->Id : 0));
      return false;
    }
  }
  return true;
}

bool ReplayDriver::run(uint64_t ToEvent) {
  if (!D || !Enf)
    return false;
  Enf->setLimit(ToEvent);
  World &W = D->world();
  W.Scribe = Enf.get();

  auto LimitHit = [&] {
    return ToEvent != 0 && Log.DroppedHead + Enf->consumed() >= ToEvent;
  };

  // A faithful replay executes exactly as many slices as the recording
  // has sched entries; a diverged one could spin forever (a server loop
  // that was killed by an unreplayable host action, say), so cap it.
  uint64_t SliceCap = (Log.totalEntries() + 1000) * 4 + 100000;
  while (!Enf->done() && !LimitHit() && W.slices() < SliceCap)
    if (!W.stepSlice())
      break;
  if (Log.NetEnabled)
    D->pumpNetwork();

  // Whatever entries remain were produced host-side after the guest world
  // went quiet: post-mortem collections of killed processes and hang
  // snaps. Satisfy them in log order.
  while (!Enf->done() && !LimitHit()) {
    const LogEntry &E = Log.Entries[Enf->consumed()];
    if (E.Kind != LogEntryKind::Anchor)
      break;
    Process *Target = findProcessByPid(W, E.A);
    if (!Target)
      break;
    ServiceDaemon *Daemon = D->daemonFor(*Target->Host);
    if (!Daemon)
      break;
    uint64_t Before = Enf->consumed();
    if (E.B == static_cast<uint64_t>(SnapReason::External))
      Daemon->collectPostMortem(*Target);
    else if (E.B == static_cast<uint64_t>(SnapReason::Hang))
      Daemon->snapHungProcesses();
    else
      break; // Guest-side reason that never fired in replay: stalled.
    if (Log.NetEnabled)
      D->pumpNetwork();
    if (Enf->consumed() == Before)
      break; // No progress: stop rather than loop.
  }
  return Enf->done() || LimitHit();
}

const SnapFile *ReplayDriver::matchSnap(const SnapFile &Orig) const {
  if (!D)
    return nullptr;
  for (const SnapFile &S : static_cast<const Deployment &>(*D).snaps())
    if (S.Pid == Orig.Pid && S.RuntimeId == Orig.RuntimeId &&
        S.Reason == Orig.Reason && S.ReasonDetail == Orig.ReasonDetail &&
        S.Timestamp == Orig.Timestamp)
      return &S;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// DivergenceDetector
//===----------------------------------------------------------------------===//

/// Full-field single-line rendering of one trace event: every field
/// meaningful to its kind, nothing else. renderCanonical writes through
/// this, and sameEvent compares exactly the fields it prints.
static void appendTraceEvent(std::string &Out, const TraceEvent &E) {
  switch (E.EventKind) {
  case TraceEvent::Kind::Line:
    Out += "line ";
    appendCString(Out, E.Module.c_str());
    Out += '!';
    appendCString(Out, E.File.c_str());
    Out += ':';
    appendDecimal(Out, E.Line);
    Out += " fn=";
    appendCString(Out, E.Function.c_str());
    Out += " rep=";
    appendDecimal(Out, E.Repeat);
    Out += " depth=";
    appendDecimal(Out, E.Depth);
    Out += " flags=";
    appendDecimal(Out, E.BlockFlags);
    Out += E.Trimmed ? " trim=1" : " trim=0";
    break;
  case TraceEvent::Kind::Exception:
    Out += "exception code=";
    appendDecimal(Out, E.FaultCodeValue);
    Out += " module=";
    appendHex(Out, E.FaultModuleKey, 16);
    Out += " off=";
    appendDecimal(Out, E.FaultOffset);
    Out += " depth=";
    appendDecimal(Out, E.Depth);
    break;
  case TraceEvent::Kind::ExceptionEnd:
    Out += "exception-end depth=";
    appendDecimal(Out, E.Depth);
    break;
  case TraceEvent::Kind::Sync:
    Out += "sync kind=";
    appendDecimal(Out, static_cast<uint64_t>(E.Sync));
    Out += " lt=";
    appendDecimal(Out, E.LogicalThreadId);
    Out += " seq=";
    appendDecimal(Out, E.Sequence);
    Out += " peer=";
    appendDecimal(Out, E.PeerRuntimeId);
    break;
  case TraceEvent::Kind::ThreadStart:
    Out += "thread-start";
    break;
  case TraceEvent::Kind::ThreadEnd:
    Out += "thread-end";
    break;
  case TraceEvent::Kind::Untraced:
    Out += "untraced rep=";
    appendDecimal(Out, E.Repeat);
    Out += " depth=";
    appendDecimal(Out, E.Depth);
    break;
  default:
    Out += '?';
    return;
  }
  Out += " ts=";
  appendDecimal(Out, E.Timestamp);
}

static std::string renderTraceEvent(const TraceEvent &E) {
  std::string S;
  appendTraceEvent(S, E);
  return S;
}

/// Names compare as their "%s" renderings do: equal when pooled to the
/// same string, or equal up to the first NUL.
static bool sameName(const InternedString &A, const InternedString &B) {
  return A == B || std::strcmp(A.c_str(), B.c_str()) == 0;
}

/// True iff appendTraceEvent renders \p A and \p B identically.
static bool sameEvent(const TraceEvent &A, const TraceEvent &B) {
  if (A.EventKind != B.EventKind || A.Timestamp != B.Timestamp)
    return false;
  switch (A.EventKind) {
  case TraceEvent::Kind::Line:
    return A.Line == B.Line && A.Repeat == B.Repeat && A.Depth == B.Depth &&
           A.BlockFlags == B.BlockFlags && A.Trimmed == B.Trimmed &&
           sameName(A.Module, B.Module) && sameName(A.File, B.File) &&
           sameName(A.Function, B.Function);
  case TraceEvent::Kind::Exception:
    return A.FaultCodeValue == B.FaultCodeValue &&
           A.FaultModuleKey == B.FaultModuleKey &&
           A.FaultOffset == B.FaultOffset && A.Depth == B.Depth;
  case TraceEvent::Kind::ExceptionEnd:
    return A.Depth == B.Depth;
  case TraceEvent::Kind::Sync:
    return A.Sync == B.Sync && A.LogicalThreadId == B.LogicalThreadId &&
           A.Sequence == B.Sequence && A.PeerRuntimeId == B.PeerRuntimeId;
  case TraceEvent::Kind::ThreadStart:
  case TraceEvent::Kind::ThreadEnd:
    return true;
  case TraceEvent::Kind::Untraced:
    return A.Repeat == B.Repeat && A.Depth == B.Depth;
  }
  return true;
}

static void pushTraceDivergence(std::vector<Divergence> &Out, uint64_t Index,
                                std::string Detail) {
  if (Out.size() >= MaxDivergences)
    return;
  Divergence Dv;
  Dv.K = Divergence::Kind::TraceEvent;
  Dv.EventIndex = Index;
  Dv.Detail = std::move(Detail);
  Out.push_back(std::move(Dv));
}

size_t DivergenceDetector::compare(const ReconstructedTrace &Original,
                                   const ReconstructedTrace &Replayed,
                                   std::vector<Divergence> &Out) {
  size_t Before = Out.size();
  for (const ThreadTrace &OT : Original.Threads) {
    const ThreadTrace *RT = Replayed.threadById(OT.ThreadId);
    if (!RT) {
      pushTraceDivergence(Out, 0,
                          formatv("thread %llu missing from the replayed "
                                  "trace",
                                  (unsigned long long)OT.ThreadId));
      continue;
    }
    size_t N = std::min(OT.Events.size(), RT->Events.size());
    size_t I = 0;
    while (I < N && sameEvent(OT.Events[I], RT->Events[I]))
      ++I;
    if (I < N) {
      // The FIRST divergent event of this thread, with the last agreeing
      // event as context. Everything after it is cascade and stays out of
      // the report.
      std::string Context =
          I > 0 ? formatv("; last agreeing event [%llu] {%s}",
                          (unsigned long long)(I - 1),
                          renderTraceEvent(OT.Events[I - 1]).c_str())
                : std::string("; divergence at the very first event");
      pushTraceDivergence(
          Out, I,
          formatv("thread %llu event %llu: recorded {%s}, replayed {%s}%s",
                  (unsigned long long)OT.ThreadId, (unsigned long long)I,
                  renderTraceEvent(OT.Events[I]).c_str(),
                  renderTraceEvent(RT->Events[I]).c_str(), Context.c_str()));
      continue;
    }
    if (OT.Events.size() != RT->Events.size()) {
      const ThreadTrace &Longer =
          OT.Events.size() > RT->Events.size() ? OT : *RT;
      pushTraceDivergence(
          Out, N,
          formatv("thread %llu: recorded %llu events, replayed %llu; first "
                  "unmatched is {%s}",
                  (unsigned long long)OT.ThreadId,
                  (unsigned long long)OT.Events.size(),
                  (unsigned long long)RT->Events.size(),
                  renderTraceEvent(Longer.Events[N]).c_str()));
    }
  }
  for (const ThreadTrace &RT : Replayed.Threads)
    if (!Original.threadById(RT.ThreadId))
      pushTraceDivergence(Out, 0,
                          formatv("replayed trace has extra thread %llu",
                                  (unsigned long long)RT.ThreadId));
  return Out.size() - Before;
}

std::string DivergenceDetector::renderCanonical(const ReconstructedTrace &T) {
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
    for (const TraceEvent &E : Th.Events) {
      Out += "  ";
      appendTraceEvent(Out, E);
      Out += '\n';
    }
  }
  // Reconstruction warnings are a deterministic function of the snap (the
  // tracer's wall-clock self-telemetry, by contrast, is not and stays
  // out of the canonical form).
  for (const std::string &W : T.Warnings)
    Out += "warning: " + W + "\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// Verdict
//===----------------------------------------------------------------------===//

std::string ReplayVerdict::render() const {
  std::string Out;
  Out += formatv("replay verdict: %s\n",
                 Ok ? "OK" : (!Error.empty() ? "ERROR" : "DIVERGED"));
  if (!Error.empty())
    Out += "error: " + Error + "\n";
  Out += formatv("snap matched: %s\n", SnapMatched ? "yes" : "no");
  Out += formatv("trace identical: %s\n", TraceIdentical ? "yes" : "no");
  Out += formatv("divergences: %llu\n",
                 (unsigned long long)Divergences.size());
  size_t Shown = std::min<size_t>(Divergences.size(), 8);
  for (size_t I = 0; I < Shown; ++I)
    Out += formatv("  [%llu] %s at event %llu: %s\n", (unsigned long long)I,
                   divergenceKindName(Divergences[I].K),
                   (unsigned long long)Divergences[I].EventIndex,
                   Divergences[I].Detail.c_str());
  if (Divergences.size() > Shown)
    Out += formatv("  ... %llu more\n",
                   (unsigned long long)(Divergences.size() - Shown));
  return Out;
}

ReplayVerdict traceback::verifyReplay(const SnapFile &Orig,
                                      const ExecutionLog &Log,
                                      uint64_t ToEvent) {
  ReplayVerdict V;
  ReplayDriver Drv(Log);
  if (!Drv.build(V.Error))
    return V;
  Drv.run(ToEvent);
  V.Divergences = Drv.enforcer().divergences();

  const SnapFile *R = Drv.matchSnap(Orig);
  V.SnapMatched = R != nullptr;
  if (!R) {
    Divergence Dv;
    Dv.K = Divergence::Kind::AnchorMismatch;
    Dv.EventIndex = Log.truncatedAt();
    Dv.Detail = formatv("no replayed snap matches pid %llu runtime %llu "
                        "reason %u detail %u timestamp %llu",
                        (unsigned long long)Orig.Pid,
                        (unsigned long long)Orig.RuntimeId,
                        (unsigned)Orig.Reason, (unsigned)Orig.ReasonDetail,
                        (unsigned long long)Orig.Timestamp);
    V.Divergences.push_back(std::move(Dv));
  } else {
    ReconstructedTrace TO = Drv.deployment().reconstruct(Orig);
    ReconstructedTrace TR = Drv.deployment().reconstruct(*R);
    std::vector<Divergence> TraceDivs;
    DivergenceDetector::compare(TO, TR, TraceDivs);
    V.TraceIdentical = TraceDivs.empty() &&
                       DivergenceDetector::renderCanonical(TO) ==
                           DivergenceDetector::renderCanonical(TR);
    V.Divergences.insert(V.Divergences.end(), TraceDivs.begin(),
                         TraceDivs.end());
  }
  V.Ok = V.Error.empty() && V.SnapMatched && V.TraceIdentical &&
         V.Divergences.empty();
  return V;
}
