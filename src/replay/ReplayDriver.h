//===- replay/ReplayDriver.h - Snap-anchored re-execution -------*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replay: rebuild the recorded world from an ExecutionLog's genesis,
/// re-execute it with a `ReplayEnforcer` arbitrating every nondeterministic
/// decision to the recorded value, and compare the outcome against the
/// original snap. The enforcer doubles as the divergence oracle: any
/// disagreement between what the replayed world computed and what the log
/// recorded is a `Divergence`, stamped with the chronological event index
/// where it was first observed. `DivergenceDetector` extends the check to
/// the reconstructed traces themselves, reporting the first divergent
/// trace event per thread (never a downstream cascade).
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_REPLAY_REPLAYDRIVER_H
#define TRACEBACK_REPLAY_REPLAYDRIVER_H

#include "replay/ExecutionLog.h"
#include "replay/Recorder.h"
#include "reconstruct/Trace.h"
#include "vm/Scribe.h"

#include <memory>

namespace traceback {

class Deployment;
class FaultInjector;
struct SnapFile;

/// One observed disagreement between replayed execution and the log.
struct Divergence {
  enum class Kind : uint8_t {
    ScheduleSet,  ///< Candidate set / slice differs from the recording.
    SchedulePick, ///< Recorded pick index is out of range here.
    RandContext,  ///< A SysRand draw came from a different thread.
    WireContext,  ///< Wire deliveries disagree in order.
    NetContext,   ///< A datagram has different endpoints.
    AnchorMismatch, ///< A snap fired with different pid/reason/time.
    FaultFiring,  ///< The injector fired a different plan event.
    SequenceKind, ///< Decision kinds arrived out of recorded order.
    LogTruncated, ///< Replay ran off the end of a truncated log.
    TraceEvent,   ///< Replayed trace differs from the snap's (detector).
  };

  Kind K = Kind::SequenceKind;
  /// Chronological index in the log (DroppedHead-based) of the entry the
  /// divergence was observed at; for LogTruncated this is truncatedAt().
  uint64_t EventIndex = 0;
  std::string Detail; ///< Human-readable "expected ... got ...".
};

const char *divergenceKindName(Divergence::Kind K);

/// Replay-mode ExecutionScribe: overrides every decision with the recorded
/// value and collects divergences. Entries before the ring window (ordinal
/// < first retained ordinal of that kind) pass through unenforced —
/// determinism up to the window start is the recorder's O(window) deal.
class ReplayEnforcer : public ExecutionScribe {
public:
  explicit ReplayEnforcer(const ExecutionLog &Log);

  /// True once every retained entry has been consumed.
  bool done() const { return Cursor >= Log.Entries.size(); }
  /// Retained entries consumed so far.
  uint64_t consumed() const { return Cursor; }
  /// Stop enforcing (and stop counting divergences) after this many
  /// chronological entries (`tbtool replay --to N`; 0 = no limit).
  void setLimit(uint64_t N) { Limit = N; }

  const std::vector<Divergence> &divergences() const { return Divs; }

  size_t onSchedulePick(uint64_t Slice,
                        const std::vector<SliceCandidate> &Cands,
                        size_t Default) override;
  uint64_t onRand(uint64_t Pid, uint64_t Tid, uint64_t Value) override;
  unsigned onWireDelivery(unsigned Count) override;
  NetFaultAction onNetSend(uint64_t Src, uint64_t Dst,
                           NetFaultAction Action) override;
  void onFaultFired(size_t Index, const std::string &Note) override;
  void onSnapAnchor(uint64_t Pid, uint8_t Reason, uint16_t Detail,
                    uint64_t Slice, std::vector<uint8_t> *LogOut) override;

private:
  /// Advances to the expected entry for a call of \p K (ordinal \p Ord),
  /// or returns null: pre-window / past-end / out-of-sequence calls are
  /// not enforced. Out-of-sequence and truncation cases record their
  /// divergence here.
  const LogEntry *expect(LogEntryKind K, uint64_t Ord);
  void diverge(Divergence::Kind K, uint64_t EventIndex, std::string Detail);

  const ExecutionLog &Log;
  size_t Cursor = 0;
  uint64_t Limit = 0;
  /// Next per-kind call ordinal seen during replay.
  uint64_t NextOrd[8] = {};
  /// First retained ordinal per kind (enforcement start of the window).
  uint64_t FirstOrd[8] = {};
  bool TruncationReported = false;
  std::vector<Divergence> Divs;
  /// Hash of the candidate set at the last enforced pick.
  CandidateSetMemo SchedCands;
};

/// Drives a full replay: world rebuild, enforced execution, host-side
/// post-mortem anchors, snap matching.
class ReplayDriver {
public:
  explicit ReplayDriver(const ExecutionLog &Log);
  ~ReplayDriver();

  /// Rebuilds the recorded world: machines (collector via network
  /// transport), processes, module deployments (re-instrumented from the
  /// original images), services, initial threads. False + \p Error when
  /// the log's genesis cannot be reproduced.
  bool build(std::string &Error);

  /// Re-executes to the end of the log (or the --to limit): steps slices
  /// while the enforcer has entries left, pumps the network when the
  /// recording used it, then satisfies remaining host-side anchors
  /// (post-mortem / hang collections) in log order. Returns false when
  /// the world stalled with log entries left unconsumed.
  bool run(uint64_t ToEvent = 0);

  Deployment &deployment() { return *D; }
  const ReplayEnforcer &enforcer() const { return *Enf; }

  /// The replayed snap corresponding to \p Orig: same pid, reason, detail
  /// and timestamp (all deterministic under faithful replay). Null when
  /// replay produced no match — itself a divergence signal.
  const SnapFile *matchSnap(const SnapFile &Orig) const;

private:
  const ExecutionLog &Log;
  std::unique_ptr<Deployment> D;
  std::unique_ptr<FaultInjector> FI;
  std::unique_ptr<ReplayEnforcer> Enf;
};

/// Event-by-event comparison of two reconstructed traces. Reports, per
/// thread, only the FIRST divergent event (with positional context), never
/// the cascade behind it.
class DivergenceDetector {
public:
  /// Compares \p Replayed against \p Original (the snap's reconstruction).
  /// Appends TraceEvent divergences to \p Out. Returns the number found.
  static size_t compare(const ReconstructedTrace &Original,
                        const ReconstructedTrace &Replayed,
                        std::vector<Divergence> &Out);

  /// Canonical full-field rendering of a trace — byte-identical iff the
  /// traces are. The golden fixtures and the sweep's byte-equality
  /// assertion both go through this.
  static std::string renderCanonical(const ReconstructedTrace &Trace);
};

/// The complete self-check `tbtool replay --verify` runs.
struct ReplayVerdict {
  bool Ok = false;          ///< Built, ran, zero divergences, match found.
  std::string Error;        ///< Build/run failure ("" otherwise).
  bool SnapMatched = false; ///< A replayed snap matched the original.
  bool TraceIdentical = false;
  std::vector<Divergence> Divergences; ///< Enforcer + detector, in order.

  /// Stable multi-line report (golden-fixture rendering): divergences
  /// ranked by event index, first divergent trace event with context.
  std::string render() const;
};

/// Replays \p Log and verifies against \p Orig end-to-end: re-execute,
/// match the anchor snap, reconstruct both, compare. \p Maps must be able
/// to resolve the original snap (the replayed deployment re-registers
/// identical mapfiles by construction).
ReplayVerdict verifyReplay(const SnapFile &Orig, const ExecutionLog &Log,
                           uint64_t ToEvent = 0);

} // namespace traceback

#endif // TRACEBACK_REPLAY_REPLAYDRIVER_H
