//===- vm/Scribe.h - Execution nondeterminism observer ----------*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `ExecutionScribe` interface: a single observer the World (and the
/// attached FaultInjector / runtimes) consult at every point where the
/// simulation makes a decision that is not a pure function of guest state —
/// scheduler picks, SysRand draws, RPC wire-delivery counts, network fault
/// actions, fault firings and snap captures.
///
/// Two implementations live in src/replay/: `ExecutionRecorder` writes the
/// decision stream into an ExecutionLog (record mode), and `ReplayEnforcer`
/// reads one back, overriding each decision with the recorded value and
/// flagging any disagreement (replay mode). The interface is deliberately
/// value-in/value-out: a scribe that returns its inputs unchanged is a pure
/// observer, so the World needs no record/replay mode switch of its own.
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_VM_SCRIBE_H
#define TRACEBACK_VM_SCRIBE_H

#include "vm/FaultInjector.h"

#include <cstdint>
#include <string>
#include <vector>

namespace traceback {

class Process;
class Module;
struct InstrumentOptions;

/// One runnable thread at a slice boundary, as the scheduler saw it.
struct SliceCandidate {
  uint64_t MachineId = 0;
  uint64_t Pid = 0;
  uint64_t Tid = 0;

  bool operator==(const SliceCandidate &) const = default;
};

/// Observer/arbiter of every nondeterministic decision in a World.
/// Attach via `World::Scribe`. All hooks follow the same contract: the
/// caller passes the decision it is about to take, the scribe returns the
/// decision to actually take (a recorder echoes, an enforcer overrides).
class ExecutionScribe {
public:
  virtual ~ExecutionScribe();

  /// Scheduler pick at slice \p Slice: \p Cands lists every runnable
  /// thread, \p Default is the round-robin index the scheduler chose.
  /// Returns the index of the candidate to run (must be < Cands.size()).
  virtual size_t onSchedulePick(uint64_t Slice,
                                const std::vector<SliceCandidate> &Cands,
                                size_t Default) {
    return Default;
  }

  /// A SysRand draw by thread \p Tid of process \p Pid produced \p Value.
  /// Returns the value the guest should observe.
  virtual uint64_t onRand(uint64_t Pid, uint64_t Tid, uint64_t Value) {
    return Value;
  }

  /// An RPC wire delivery is about to be observed \p Count times by the
  /// callee runtime (0 = dropped, 2 = duplicated). Returns the count to
  /// actually deliver.
  virtual unsigned onWireDelivery(unsigned Count) { return Count; }

  /// The network fabric is about to apply \p Action to a datagram from
  /// machine \p Src to machine \p Dst. Returns the action to apply.
  virtual NetFaultAction onNetSend(uint64_t Src, uint64_t Dst,
                                   NetFaultAction Action) {
    return Action;
  }

  /// A fault-plan event fired (FaultInjector::markFired): \p Index is the
  /// plan event index, \p Note the human-readable firing record.
  virtual void onFaultFired(size_t Index, const std::string &Note) {}

  /// A runtime captured a snap of process \p Pid at slice \p Slice.
  /// \p LogOut is non-null when the runtime wants a serialized execution
  /// log embedded in the snap (RtPolicy::RecordExecution); a recorder
  /// appends the anchor entry first, so the embedded log ends at its own
  /// capture point.
  virtual void onSnapAnchor(uint64_t Pid, uint8_t Reason, uint16_t Detail,
                            uint64_t Slice, std::vector<uint8_t> *LogOut) {}

  /// Deployment::deploy is mapping \p Orig into \p P (before any
  /// instrumentation). \p Opts is passed through opaquely — vm never
  /// dereferences it; the recorder (which links the instrumenter) does.
  virtual void onDeploy(Process &P, const Module &Orig, bool Instrument,
                        const InstrumentOptions &Opts) {}
};

} // namespace traceback

#endif // TRACEBACK_VM_SCRIBE_H
