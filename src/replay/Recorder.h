//===- replay/Recorder.h - Execution recording scribe -----------*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `ExecutionRecorder`: the record-mode ExecutionScribe. Attached to a
/// Deployment before setup, it captures the world's genesis (topology,
/// deployed modules, services, initial threads) lazily at the first
/// scheduling decision, then appends every nondeterministic decision to a
/// bounded ring of log entries — recording cost stays O(window), like the
/// trace buffers themselves. Entries are appended straight into their
/// EVENTS encoding, so a decision costs a few bytes written, not an object
/// built. Snap captures anchor the stream: when the runtime asks
/// (RtPolicy::RecordExecution), the recorder serializes the log-so-far
/// into the snap, so every recorded snap carries exactly the history that
/// leads to it.
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_REPLAY_RECORDER_H
#define TRACEBACK_REPLAY_RECORDER_H

#include "replay/ExecutionLog.h"
#include "vm/Scribe.h"

#include <cstdlib>
#include <memory>
#include <string_view>

namespace traceback {

class Deployment;

/// The candidateHash of the latest scheduler candidate set. A thread
/// that sleeps, wakes, starts or exits changes the set; between such
/// events consecutive slices see the same runnable threads, and comparing
/// a set with the previous one is cheaper than hashing it again.
class CandidateSetMemo {
public:
  /// Makes \p Cands the latest set; true when it differs from the last.
  bool update(const std::vector<SliceCandidate> &Cands) {
    if (Valid && Cands == Last)
      return false;
    replace(Cands);
    return true;
  }
  uint64_t hash() const { return Hash; }

private:
  void replace(const std::vector<SliceCandidate> &Cands);

  std::vector<SliceCandidate> Last;
  uint64_t Hash = 0;
  bool Valid = false;
};

class ExecutionRecorder : public ExecutionScribe {
public:
  /// \p Window bounds retained entries (ring retention; 0 = unbounded).
  explicit ExecutionRecorder(uint32_t Window = 0) : Window(Window) {}

  /// Hooks this recorder into \p D's world. Call before deploying modules
  /// — deploy records are captured through the scribe hook.
  void attach(Deployment &D);

  /// The log as of now: genesis plus the retained entry window, with a
  /// valid END section — the bytes embedded into snaps.
  std::vector<uint8_t> serialized() const;

  /// serialized(), decoded.
  ExecutionLog snapshot() const;

  /// Total entries recorded, including those dropped by the ring.
  uint64_t recordedEntries() const { return Base.DroppedHead + Retained; }

  /// Stable FNV hash of a scheduler candidate set — lets replay verify it
  /// is choosing among the same threads before enforcing a pick.
  static uint64_t candidateHash(const std::vector<SliceCandidate> &Cands);

  // --- ExecutionScribe (record & echo) ------------------------------------

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
  void onDeploy(Process &P, const Module &Orig, bool Instrument,
                const InstrumentOptions &Opts) override;

private:
  /// Appends an entry of \p Kind, with the next ordinal of its kind, in
  /// its EVENTS encoding.
  void append(LogEntryKind Kind, uint64_t A, uint64_t B = 0, uint64_t C = 0,
              uint64_t D = 0, uint64_t E = 0, std::string_view Note = {});
  /// Where the next entry goes, with room for \p Size bytes.
  uint8_t *room(size_t Size) {
    if (Capacity - Used < Size)
      grow(Size);
    return Events.get() + Used;
  }
  /// Grows the buffer to hold at least \p Size more bytes.
  void grow(size_t Size);
  /// Ends the entry written at room() before \p End.
  void commit(uint8_t *End) {
    size_t Start = Used;
    Used = static_cast<size_t>(End - Events.get());
    if (Window == 0)
      ++Retained;
    else
      retainInWindow(Start);
  }
  /// commit() under a window: books the entry at \p Start and drops the
  /// oldest one once the window is full.
  void retainInWindow(size_t Start);
  void captureGenesis();

  struct FreeBytes {
    void operator()(uint8_t *P) const { std::free(P); }
  };

  // What a decision touches comes first, so recording one touches few
  // cache lines between the interpreter's slices.

  /// The retained entries, chronological and encoded, in Events[Head,
  /// Used) of Capacity bytes. The buffer grows by realloc, which can
  /// extend it in place; a std::vector allocates anew and copies, and
  /// with one the bench_replay record gate read 2-3 points higher
  /// (EXPERIMENTS.md "Guest execution speed").
  std::unique_ptr<uint8_t, FreeBytes> Events;
  size_t Capacity = 0;
  size_t Used = 0;
  size_t Head = 0;
  uint64_t Retained = 0;
  uint32_t Window = 0;
  bool GenesisDone = false;
  uint8_t SchedTailSize = 0;
  /// Next per-kind ordinal, indexed by LogEntryKind.
  uint64_t NextOrd[8] = {};
  /// The encoded tail of the last Sched entry, which depends only on the
  /// candidate set and the pick. While one thread runs alone both repeat,
  /// and a pick copies the tail instead of encoding B-E again.
  size_t SchedTailPick = 0;
  uint8_t SchedTail[MaxLogEntryTailBytes] = {};
  CandidateSetMemo SchedCands;

  Deployment *D = nullptr;
  /// META + GENESIS under construction (Deploys accrue as they happen).
  /// Its DroppedHead counts the entries the ring dropped; its Entries
  /// stay empty.
  ExecutionLog Base;
  /// Under a window: the start of each retained entry as an offset into
  /// everything ever appended (Erased bytes have been cut off the front of
  /// Events), in a ring indexed by chronological index mod Window.
  std::vector<uint64_t> Starts;
  uint64_t Erased = 0;
};

} // namespace traceback

#endif // TRACEBACK_REPLAY_RECORDER_H
