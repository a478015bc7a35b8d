//===- distributed/ServiceDaemon.h - Per-machine service process -*- C++ -*-===//
//
// Part of the TraceBack reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-machine service process (paper sections 3.6.1 and 3.7.5): it
/// receives snap notifications from instrumented processes, coordinates
/// group snaps (when one member of a process group faults, every member is
/// snapped), monitors heartbeats to detect hung processes, and collects
/// trace buffers from processes that died abruptly (the memory-mapped-file
/// copy path).
///
//===----------------------------------------------------------------------===//

#ifndef TRACEBACK_DISTRIBUTED_SERVICEDAEMON_H
#define TRACEBACK_DISTRIBUTED_SERVICEDAEMON_H

#include "distributed/Transport.h"
#include "runtime/Runtime.h"
#include "runtime/Snap.h"
#include "vm/Machine.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace traceback {

/// One machine's TraceBack service process.
class ServiceDaemon : public SnapSink {
public:
  /// \p Metrics is where the daemon's own counters land ("daemon." family;
  /// null = the process-global registry).
  ServiceDaemon(Machine &M, SnapSink *Downstream,
                MetricsRegistry *Metrics = nullptr);

  Machine &machine() { return M; }

  /// Registers a traced process (and its runtime) with the daemon and
  /// assigns it to a named process group. Groups may span machines when
  /// daemons share a downstream sink.
  void watch(Process &P, TracebackRuntime &RT,
             const std::string &Group = "default");

  /// Links another daemon as a group-snap peer (cross-machine groups).
  void addPeer(ServiceDaemon *Peer) { Peers.push_back(Peer); }

  // --- Network transport (cross-machine snap movement) --------------------

  /// Attaches this daemon to the simulated network. Once attached:
  ///  - every snap this daemon delivers is serialized (v4) and pushed as a
  ///    SnapPush frame to \p CollectorMachine over the reliable transport
  ///    (instead of the direct downstream call);
  ///  - group fan-out to cross-machine peers travels as GroupSnapRequest
  ///    frames, answered by GroupSnapAck;
  ///  - a peer that becomes unreachable mid-request (partition) degrades
  ///    the group snap to a PARTIAL snap: a MISSING-PEER marker snap is
  ///    synthesized in place of that peer's contribution, so downstream
  ///    reconstruction sees who is absent instead of hanging.
  /// The endpoint's Handler is taken over by the daemon.
  void configureTransport(TransportEndpoint &EP, uint64_t CollectorMachine);

  TransportEndpoint *transport() { return Net; }

  /// Pumps the endpoint: arrived frames are dispatched (snap pushes
  /// forwarded downstream, group-snap requests executed and acked,
  /// heartbeats recorded), and outstanding group requests whose peer went
  /// unreachable are converted to MISSING-PEER markers. Returns how many
  /// data frames the endpoint delivered.
  size_t pumpTransport();

  /// Sends a Heartbeat frame to every linked peer machine.
  void broadcastHeartbeat();

  /// Group-snap requests sent over the network and not yet acked.
  size_t pendingGroupRequests() const { return PendingRequests.size(); }

  /// Last heartbeat payload observed per peer machine id.
  const std::map<uint64_t, HeartbeatMsg> &peerHeartbeats() const {
    return PeerHeartbeats;
  }

  // --- SnapSink ----------------------------------------------------------

  /// Receives a snap from a watched runtime: forwards the same shared
  /// instance downstream and triggers group snaps on the faulting
  /// process's peers.
  void onSnap(const std::shared_ptr<const SnapFile> &Snap) override;

  // --- Heartbeats (section 3.7.5) ----------------------------------------

  /// Samples each watched process's instruction counter (the analog of
  /// the periodic STATUS message to the event thread).
  void sampleHeartbeats();

  /// Processes whose counter did not advance since the last sample and
  /// which have not exited: considered hung.
  std::vector<Process *> detectHangs() const;

  /// Snap every hung process with reason Hang. Returns how many snapped.
  size_t snapHungProcesses();

  /// Post-mortem collection for a process that died abruptly (kill -9):
  /// reads buffers straight out of the dead process image. Returns shared
  /// handles to the snaps produced (also forwarded downstream).
  std::vector<std::shared_ptr<const SnapFile>> collectPostMortem(Process &P);

private:
  struct Watched {
    Process *P;
    TracebackRuntime *RT;
    std::string Group;
    uint64_t LastSample = 0;
    bool SeenSample = false;
  };

  size_t groupSnap(const std::string &Group, uint64_t ExceptPid);

  /// Serializes \p Snap and pushes it to the collector machine; falls
  /// back to the direct downstream call when the collector is unreachable.
  void pushSnapOverNet(const std::shared_ptr<const SnapFile> &Snap);

  /// Transport handler: one in-order data frame from a peer machine.
  void onNetFrame(const WireFrame &F);

  /// Synthesizes the partial-group-snap degradation record for an
  /// unreachable peer and ships it like any other snap.
  void emitMissingPeerMarker(uint64_t PeerMachine,
                             const std::string &PeerName,
                             const std::string &Group);

  /// Delivers one snap: forward (or push over the network), then fan out
  /// to the group.
  void deliver(const std::shared_ptr<const SnapFile> &Snap);

  Machine &M;
  SnapSink *Downstream;
  std::vector<Watched> Processes;
  std::vector<ServiceDaemon *> Peers;
  bool InGroupSnap = false;

  // Network-mode state.
  TransportEndpoint *Net = nullptr;
  uint64_t CollectorMachine = 0;
  struct PendingGroupReq {
    uint64_t PeerMachine = 0;
    std::string PeerName;
    std::string Group;
  };
  std::map<uint64_t, PendingGroupReq> PendingRequests; ///< By request id.
  uint64_t NextRequestId = 1;
  std::map<uint64_t, HeartbeatMsg> PeerHeartbeats;

  /// "daemon." instruments, resolved once at construction.
  struct Instruments {
    Counter *SnapsReceived = nullptr;
    Counter *GroupSnapFanout = nullptr;
    Counter *HeartbeatSamples = nullptr;
    Counter *HangSnaps = nullptr;
    Counter *PostMortemSnaps = nullptr;
    Gauge *WatchedProcesses = nullptr;
    // Network-mode family ("daemon.net.*"; the endpoint owns the
    // frame-level counters, these are the daemon-protocol ones).
    Counter *NetSnapPushes = nullptr;
    Counter *NetSnapsReceived = nullptr;
    Counter *NetPushFallback = nullptr;
    Counter *NetGroupRequests = nullptr;
    Counter *NetGroupAcks = nullptr;
    Counter *NetMissingPeerMarkers = nullptr;
    Counter *NetHeartbeatsSeen = nullptr;
  };
  Instruments DM;
};

/// Pumps every daemon's transport endpoint (plus any extra endpoints —
/// typically the collector machine's), advancing idle world time between
/// rounds, until the network is quiet: no packets queued or in flight, no
/// un-acked frames, no pending group requests. Returns false when
/// \p MaxCycles of idle advance pass without quiescence — a transport
/// hang, which the chaos sweeps assert never happens (partition detection
/// bounds every wait).
bool pumpNetworkUntilQuiet(World &W,
                           const std::vector<ServiceDaemon *> &Daemons,
                           const std::vector<TransportEndpoint *> &Extra = {},
                           uint64_t MaxCycles = 4000000);

} // namespace traceback

#endif // TRACEBACK_DISTRIBUTED_SERVICEDAEMON_H
